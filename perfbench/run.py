"""galkit benchmark: one workload per process, closed loop, one op at a time.

    python3 perfbench/run.py --workload powerset-roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole rounds of ops for about ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` instead runs a fixed number of
rounds twice, untraced and then with every layer function wrapped in a span,
and reports calls and self time per function, per-module totals, derived
ratios and the tracing overhead.  Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give the same numbers for a reader, with the run's
metadata.  A traced run also writes its spans to ``.perfbench_out/`` at the
repository root.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# galkit is measured straight from the checkout's sources, never from an
# installed copy; without them the run exits before printing a result
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "galkit")):
    raise SystemExit(f"galkit sources not found under {SRC}")
sys.path.insert(0, SRC)

import workloads as W  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# a timed run has at least this many ops, so that at least 10 lie beyond p95
MIN_OPS = 200

# set-up is repeated through the timed run, at least SETUP_REPS times: once
# before the ops, then again whenever both 1/SETUP_SLOTS of --seconds and
# SETUP_GAP_FACTOR median set-ups of op time have passed since the last one
SETUP_REPS = 5
SETUP_SLOTS = 20
SETUP_GAP_FACTOR = 4

# name, unit, better; the bounds live in BENCHMARK.json
END_TO_END = (
    ("throughput_ops_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p95", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class Pass:
    """What one pass of rounds did: latencies of verified ops, busy time of
    all ops, counts, and the peak RSS once the first round was done."""

    latencies: list = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    first_round_rss_mb: float = 0.0


def run_rounds(wl, inputs, golden, *, seconds=None, rounds=None, on_output=None,
               between_ops=None) -> Pass:
    """Run whole rounds of ops, each timed alone and then verified, until
    ``rounds`` are done, or until about ``seconds`` have passed and at least
    MIN_OPS ops were made.  ``between_ops(busy)`` is called after each op,
    outside its timing, and returns the seconds it took; those do not count
    towards ``seconds``."""
    res = Pass()
    clock = time.perf_counter
    began = clock()
    paused = 0.0
    while True:
        round_began = clock()
        for inp in inputs:
            res.attempted += 1
            t0 = clock()
            try:
                out = wl.op(inp)
            except Exception:  # a raising op is a failed op; keep measuring
                res.busy += clock() - t0
                if res.failed < 3:
                    traceback.print_exc(file=sys.stderr)
                res.failed += 1
                continue
            dt = clock() - t0
            res.busy += dt
            ok, notes = W.verify(wl, inp, out, golden)
            if ok:
                res.latencies.append(dt)
            else:
                if res.failed < 3:
                    print("verdict mismatch:", "; ".join(notes), file=sys.stderr)
                res.failed += 1
            if on_output is not None:
                on_output(out)
            if between_ops is not None:
                paused += between_ops(res.busy)
        res.rounds += 1
        if res.rounds == 1:
            res.first_round_rss_mb = peak_rss_mb()
        now = clock()
        if rounds is not None:
            if res.rounds >= rounds:
                return res
        elif (res.attempted >= MIN_OPS
              and now - began - paused >= seconds - 0.5 * (now - round_began)):
            return res


def percentile(xs, pct) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Setup:
    """Times the workload's set-up, repeated through the run so that its
    median samples the same stretch of host time as the ops do.  Each
    repetition starts from a collected heap; the ops keep the first one's
    inputs, and the later ones' are dropped at once."""

    def __init__(self, wl, keys, seconds):
        self.wl, self.keys = wl, keys
        self.slot = seconds / SETUP_SLOTS
        self.times = []
        self.next_at = math.inf

    def make(self, busy=0.0):
        """One set-up; the next is due once ``busy`` has grown by a gap."""
        gc.collect()
        t0 = time.perf_counter()
        inputs = self.wl.make(self.keys)
        self.times.append(time.perf_counter() - t0)
        self.next_at = busy + max(
            self.slot, SETUP_GAP_FACTOR * statistics.median(self.times)
        )
        return inputs

    def between_ops(self, busy) -> float:
        if busy < self.next_at:
            return 0.0
        t0 = time.perf_counter()
        self.make(busy)
        return time.perf_counter() - t0


def timed_run(wl, seed, seconds, golden):
    keys = wl.pick(seed)
    setup = Setup(wl, keys, seconds)
    inputs = setup.make()
    res = run_rounds(wl, inputs, golden, seconds=seconds,
                     between_ops=setup.between_ops)
    while len(setup.times) < SETUP_REPS:
        setup.make()
    lat = res.latencies or [math.inf]
    metrics = {
        "throughput_ops_per_s": (len(res.latencies) / res.busy, "1/s"),
        "latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms_p95": (percentile(lat, 95) * 1e3, "ms"),
        "setup_s": (statistics.median(setup.times), "s"),
        # after one round: the allocator's high-water mark creeps up with
        # every round, and the number of rounds depends on speed
        "peak_rss_mb": (res.first_round_rss_mb, "MB"),
    }
    extra = {
        "failed_frac": res.failed / res.attempted,
        "latency_samples": len(res.latencies),
        "ops_per_round": len(inputs),
        "rounds": res.rounds,
        "setup_reps": len(setup.times),
    }
    return res, metrics, extra


def layer_metrics(tracer, ops, loop_iterations, overhead, cco_failed) -> dict:
    """Per-function calls and self time, per-module totals and derived ratios."""
    summary = tracer.summarize()
    metrics = {}
    for layer, names in LAYERS.items():
        total = 0
        for name in names:
            calls, self_ns = summary.get(f"{layer}.{name}", (0, 0))
            metrics[f"{layer}.{name}.calls"] = (calls, "count")
            metrics[f"{layer}.{name}.self_ms"] = (self_ns / 1e6, "ms")
            total += self_ns
        metrics[f"{layer}.self_ms"] = (total / 1e6, "ms")
    classify = summary.get("galois.classify_partitioning", (0, 0))[0]
    metrics["galois.classify_partitioning.calls_per_op"] = (classify / ops, "1/op")
    op_entry = summary.get("analyzer.AbstractSemantics.op_entry", (0, 0))[0]
    misses = tracer.calls_under(
        "functions.bca_pcgc_entry", "analyzer.AbstractSemantics.op_entry"
    )
    # defined as 0 on workloads that never reach the analyzer
    hit_ratio = 1 - misses / op_entry if op_entry else 0.0
    metrics["analyzer.op_entry.hit_ratio"] = (hit_ratio, "ratio")
    metrics["analyzer.loop_iterations"] = (loop_iterations, "count")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["transforms.cco_chain.failed"] = (cco_failed, "count")
    return metrics


def cco_chain_failures(inputs) -> int:
    """Inputs on which t_pgc(t_cgc_of_cco(t_cco(C))) raises."""
    from galkit.errors import GalkitError
    from galkit.transforms import t_cco, t_cgc_of_cco, t_pgc

    failed = 0
    for _, C in inputs:
        try:
            t_pgc(t_cgc_of_cco(t_cco(C)))
        except GalkitError:
            failed += 1
    return failed


def traced_run(wl, seed, golden):
    keys = wl.pick(seed)
    t0 = time.perf_counter()
    inputs = wl.make(keys)
    plain_setup = time.perf_counter() - t0
    plain = run_rounds(wl, inputs, golden, rounds=wl.trace_rounds)
    del inputs

    tracer = Tracer()
    iterations = []
    on_output = None
    if wl is W.ANALYZE:
        on_output = lambda out: iterations.append(out[1].iterations)
    tracer.install()
    try:
        t0 = time.perf_counter()
        inputs = wl.make(keys)
        traced_setup = time.perf_counter() - t0
        res = run_rounds(wl, inputs, golden, rounds=wl.trace_rounds, on_output=on_output)
    finally:
        tracer.uninstall()
    overhead = (traced_setup + res.busy) / (plain_setup + plain.busy) - 1
    cco_failed = cco_chain_failures(inputs) if wl is W.POWERSET else 0
    metrics = layer_metrics(tracer, res.attempted, sum(iterations), overhead, cco_failed)
    res.attempted += plain.attempted
    res.failed += plain.failed
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{wl.name}.bin"))
    extra = {
        "spans": len(tracer.start),
        "ops_per_round": len(inputs),
        "rounds": res.rounds,
        "failed_frac": res.failed / res.attempted,
    }
    return res, metrics, extra


def git_sha() -> str:
    """HEAD of the repository the benchmark sits in, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    golden = W.load_golden()
    if args.trace:
        res, metrics, extra = traced_run(wl, args.seed, golden)
    else:
        res, metrics, extra = timed_run(wl, args.seed, args.seconds, golden)

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "attempted": res.attempted,
        **extra,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value} {unit}")
    print(f"{wl.name} failed_frac = {extra['failed_frac']} ratio"
          f" ({res.failed} of {res.attempted} ops)")
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
