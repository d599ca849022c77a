"""The benchmark's three workloads: set-up, the timed op, and its check.

Each workload has a fixed universe of instances, and one *round* runs all of
them: criterion 4's 500 generator seeds, criteria 7/8-style generator seeds
0..499 paired, and the program corpus.  The workload seed only orders the
round, so every seed measures the same work: instance costs span orders of
magnitude (a powerset round trip costs about 4x more per abstract element),
and a per-seed sample of a larger universe would shift one seed's throughput
against another's by more than the run-to-run noise.

An op is timed on its own.  Its check runs afterwards and never calls traced
galkit functions: it compares the outputs against the known answer of the
theorem the op instantiates, then against the digest in ``golden.json``.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# program functions are called through their modules, so that the tracer's
# patches of those module namespaces see every call
from galkit import analyzer, catalog, galois, transforms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
PROGRAMS_DIR = os.path.join(ROOT, "tests", "programs")

# generator seeds 0..N-1 make up the round trips' universes
CGC_SEEDS = 500  # exactly acceptance criterion 4's instances
ORDERED_SEEDS = 500

P01 = "p01_doubling_loop.while"
P01_HEAD = {"x": ">0", "y": "2"}
SIGNCONST_BOUND = 64
STEP_BUDGET = 10_000


# ---------------------------------------------------------------------------
# canonical digests


def canon(x):
    """A JSON-ready form of galkit outputs with a deterministic order."""
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=_key)
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=_key)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return x


def _key(v) -> str:
    return json.dumps(v, ensure_ascii=False, sort_keys=True)


def digest(facts) -> str:
    return hashlib.sha256(_key(canon(facts)).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workload definitions


@dataclass(frozen=True)
class Workload:
    name: str
    universe: Callable  # () -> instance keys, one round
    make: Callable  # keys -> op inputs: the set-up, which is timed
    op: Callable  # input -> outputs: the timed op
    check: Callable  # (input, outputs) -> (known answers hold, [(key, facts)])
    trace_rounds: int  # rounds in the traced run: fixed, so counts repeat

    def pick(self, seed: int) -> list:
        """The round's keys in the seed's order."""
        keys = self.universe()
        random.Random(f"{self.name}:{seed}").shuffle(keys)
        return keys


def _seed_of(key: str) -> int:
    return int(key.split(":")[1])


# -- powerset-roundtrip ----------------------------------------------------


def powerset_universe():
    return [f"cgc:{s}" for s in range(CGC_SEEDS)]


def powerset_make(keys):
    return [(k, catalog.gen_cgc(_seed_of(k), amax=8, bmax=8)) for k in keys]


def powerset_op(inp):
    _, C = inp
    G = transforms.t_pgc(C)
    rep = galois.classify_partitioning(G)
    back = transforms.t_cgc_of_pgc(G)
    return G, rep, back, galois.nonempty_iso(back, C)


def powerset_check(inp, out):
    key, C = inp
    G, rep, back, iso = out
    facts = {
        "category": rep.category,
        "alt2prime": rep.alt2prime,
        "partition": [rep.partition.ok, rep.partition.clause, rep.partition.witness],
        "witness": rep.witness,
        "iso": iso,
        "gamma": G.gamma,
        "eta": back.eta,
        "mu": back.mu,
    }
    # Theorem: the powerset lifting of a CGC is a PGC, and collapsing it
    # recovers the CGC up to empty (junk) abstract values.
    return rep.category == "PGC" and iso is True, [(key, facts)]


POWERSET = Workload(
    name="powerset-roundtrip",
    universe=powerset_universe,
    make=powerset_make,
    op=powerset_op,
    check=powerset_check,
    trace_rounds=1,
)


# -- ordered-roundtrip -----------------------------------------------------


def ordered_universe():
    return [(f"gc:{s}", f"ppgc:{s}") for s in range(ORDERED_SEEDS)]


def ordered_make(key_pairs):
    return [
        ((kg, catalog.gen_downsets_gc(_seed_of(kg), amax=6)),
         (kp, catalog.gen_ppgc(_seed_of(kp))))
        for kg, kp in key_pairs
    ]


def ordered_op(inp):
    (_, G), (_, P) = inp
    C = transforms.t_cgp(G)
    cgp = galois.check_cgp(C)
    G2 = transforms.t_gc(C)
    gc_cmp = galois.precision_cmp(G2, G)
    gc_back = transforms.t_cgp(G2)
    D = transforms.t_pcgc(P)
    pcgc = galois.check_pcgc(D)
    P2 = transforms.t_ppgc(D)
    pp_cmp = galois.precision_cmp(P2, P)
    pp_back = transforms.t_pcgc(P2)
    return (C, cgp, gc_cmp, gc_back), (D, pcgc, pp_cmp, pp_back)


def ordered_check(inp, out):
    (kg, G), (kp, P) = inp
    (C, cgp, gc_cmp, gc_back), (D, pcgc, pp_cmp, pp_back) = out
    gc_same = gc_back.eta == C.eta and gc_back.mu == C.mu
    pp_same = pp_back.eta == D.eta and pp_back.mu == D.mu
    gc_facts = {
        "check": [cgp.ok, cgp.witness],
        "precision": gc_cmp,
        "same": gc_same,
        "eta": C.eta,
        "mu": C.mu,
    }
    pp_facts = {
        "check": [pcgc.cond1, pcgc.cond2, pcgc.witness],
        "precision": pp_cmp,
        "same": pp_same,
        "eta": D.eta,
        "mu": D.mu,
    }
    # Theorems: restriction of a GC over downsets is a CGP and lifting it
    # back is isomorphic with eta/mu unchanged; likewise PPGC <-> PCGC.
    ok = (
        cgp.ok and gc_cmp == "isomorphic" and gc_same
        and pcgc.ok and pp_cmp == "isomorphic" and pp_same
    )
    return ok, [(kg, gc_facts), (kp, pp_facts)]


ORDERED = Workload(
    name="ordered-roundtrip",
    universe=ordered_universe,
    make=ordered_make,
    op=ordered_op,
    check=ordered_check,
    trace_rounds=1,
)


# -- analyze-corpus --------------------------------------------------------


def analyze_universe():
    names = sorted(f for f in os.listdir(PROGRAMS_DIR) if f.endswith(".while"))
    return [f"prog:{name}" for name in names]


def analyze_make(keys):
    domain = catalog.builtin("signconst_pcgc", SIGNCONST_BOUND)
    inputs = []
    for key in keys:
        with open(os.path.join(PROGRAMS_DIR, key[5:]), encoding="utf-8") as fh:
            inputs.append((key, fh.read(), domain))
    return inputs


def analyze_op(inp):
    _, text, domain = inp
    program = analyzer.parse_program(text)
    result = analyzer.analyze(program, domain)
    seen = analyzer.concrete_run(program, domain.carrier, budget=STEP_BUDGET)
    violations = sum(
        1
        for label, envs in seen.items()
        for env in envs
        for var, val in env.items()
        if str(val) not in domain.mu[result.points[label][var]]
    )
    return program, result, seen, violations


def analyze_check(inp, out):
    key, _, _ = inp
    program, result, seen, violations = out
    facts = {
        "points": result.points,
        "iterations": result.iterations,
        "observed": {label: len(envs) for label, envs in seen.items()},
        "violations": violations,
    }
    # Theorem: the analysis is sound, so the concrete oracle's valuations
    # are contained in the abstract states; p01's loop head is pinned.
    ok = violations == 0 and bool(seen)
    if key == f"prog:{P01}":
        head = next(st for st in program.body if isinstance(st, analyzer.While))
        ok = ok and result.points[f"L{head.label}"] == P01_HEAD
    return ok, [(key, facts)]


ANALYZE = Workload(
    name="analyze-corpus",
    universe=analyze_universe,
    make=analyze_make,
    op=analyze_op,
    check=analyze_check,
    trace_rounds=5,
)

WORKLOADS = {w.name: w for w in (POWERSET, ORDERED, ANALYZE)}


# ---------------------------------------------------------------------------
# golden


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verify(wl: Workload, inp, out, golden: dict) -> tuple[bool, list[str]]:
    """Known answers plus the golden digest; returns (ok, mismatch notes)."""
    ok, records = wl.check(inp, out)
    notes = [] if ok else ["known answer differs"]
    for key, facts in records:
        got = digest(facts)
        if golden.get(key) != got:
            notes.append(f"{key}: digest {got} != golden {golden.get(key)}")
    return not notes, notes
