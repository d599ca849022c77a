"""Tests of the benchmark harness itself (not of galkit):

    python3 -m pytest perfbench/test_harness.py
"""
from __future__ import annotations

import json
import os

import run  # puts galkit's sources on sys.path
import workloads as W
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    root = t.record("root", 0, 100)
    a = t.record("a", 10, 40, parent=root)
    t.record("leaf", 20, 30, parent=a)
    t.record("b", 50, 70, parent=root)
    t.record("b", 80, 90, parent=root, is_call=False)  # generator resumed
    s = t.summarize()
    assert s["root"] == (1, 100 - 30 - 20 - 10)
    assert s["a"] == (1, 30 - 10)
    assert s["leaf"] == (1, 10)
    assert s["b"] == (1, 20 + 10)


def test_wrapped_calls_nest_and_generators_count_once():
    t = Tracer()

    def gen(n):
        yield from range(n)

    traced_gen = t.wrap("gen", gen)

    def outer():
        return sum(traced_gen(3))

    traced_outer = t.wrap("outer", outer)
    assert traced_outer() == 3
    s = t.summarize()
    assert s["outer"][0] == 1
    assert s["gen"][0] == 1
    # one span per resumption (3 items plus the final StopIteration)
    assert [t.names[k] for k in t.name] == ["outer"] + ["gen"] * 4
    assert all(t.parent[i] == 0 for i in range(1, 5))
    assert t.calls_under("gen", "outer") == 1


def test_install_patches_every_binding_and_uninstall_restores():
    from galkit import galois, order, transforms

    orig = galois.classify_partitioning
    orig_join = order.FinLattice.__dict__["join"]
    t = Tracer()
    t.install()
    try:
        assert transforms.classify_partitioning is galois.classify_partitioning
        assert galois.classify_partitioning is not orig
        assert order.FinLattice.__dict__["join"] is not orig_join
    finally:
        t.uninstall()
    assert galois.classify_partitioning is orig
    assert transforms.classify_partitioning is orig
    assert order.FinLattice.__dict__["join"] is orig_join


def _small_powerset_round(n=6):
    inputs = W.powerset_make(W.powerset_universe()[:60])
    return [inp for inp in inputs if len(inp[1].abstract_poset) <= 3][:n]


def test_flipped_verdict_counts_as_failed(monkeypatch):
    golden = W.load_golden()
    inputs = _small_powerset_round()
    ok = run.run_rounds(W.POWERSET, inputs, golden, rounds=1)
    assert (ok.attempted, ok.failed) == (len(inputs), 0)

    monkeypatch.setattr(W.galois, "nonempty_iso", lambda C1, C2: False)
    flipped = run.run_rounds(W.POWERSET, inputs, golden, rounds=1)
    assert flipped.failed == flipped.attempted == len(inputs)
    assert flipped.latencies == []


def test_golden_mismatch_counts_as_failed():
    golden = W.load_golden()
    inputs = _small_powerset_round(n=3)
    bad = dict(golden, **{inputs[0][0]: "0" * 16})
    res = run.run_rounds(W.POWERSET, inputs, bad, rounds=1)
    assert res.failed == 1


def _trivial_workload(n):
    keys = [f"k:{i}" for i in range(n)]
    wl = W.Workload(
        name="trivial",
        universe=lambda: list(keys),
        make=lambda ks: [(k,) for k in ks],
        op=lambda inp: inp,
        check=lambda inp, out: (True, [(inp[0], {"key": inp[0]})]),
        trace_rounds=1,
    )
    golden = {k: W.digest({"key": k}) for k in keys}
    return wl, golden


def test_timed_run_makes_at_least_min_ops_and_repeats_setup():
    wl, golden = _trivial_workload(3)
    res, metrics, extra = run.timed_run(wl, 1, 0.0, golden)
    assert res.attempted >= run.MIN_OPS and res.attempted % 3 == 0
    assert res.failed == 0
    assert extra["setup_reps"] >= run.SETUP_REPS
    assert metrics["setup_s"][0] > 0


def test_seed_orders_the_whole_universe():
    for wl in W.WORKLOADS.values():
        a, b = wl.pick(1), wl.pick(2)
        assert a == wl.pick(1) and a != b
        assert sorted(a) == sorted(b) == sorted(wl.universe())


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    layer = run.layer_metrics(Tracer(), 1, 0, 0.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layer.values()]
