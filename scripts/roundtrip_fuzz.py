#!/usr/bin/env python3
"""Bulk round-trip and equivalence fuzzing over seeded instances.

For every seed it generates connections of each supported kind, converts
them through the matching transform pair, and checks the expected round-trip
relation; sound operation pairs are additionally lifted to lattice level and
re-checked there. A failed check or a ``GalkitError`` raised on the way
counts the seed as failed, also under ``python -O``; the exit status is 1
when any seed failed.
"""
from __future__ import annotations

import argparse
import time

from galkit import catalog
from galkit.cli import _require
from galkit.errors import GalkitError
from galkit.functions import cgc_soundness, gc_pair_property, pair_to_pgc
from galkit.galois import check_cgp, check_pcgc, nonempty_iso, precision_cmp
from galkit.transforms import t_cgc_of_pgc, t_cgp, t_gc, t_pcgc, t_pgc, t_ppgc


def one_seed(seed: int) -> None:
    C = catalog.gen_cgc(seed)
    _require(nonempty_iso(t_cgc_of_pgc(t_pgc(C)), C), "cgc round trip")

    G = catalog.gen_downsets_gc(seed, amax=6)
    D = t_cgp(G)
    _require(check_cgp(D).ok, "check_cgp")
    _require(precision_cmp(t_gc(D), G) == "isomorphic", "gc round trip")

    P = catalog.gen_ppgc(seed)
    Q = t_pcgc(P)
    _require(check_pcgc(Q).ok, "check_pcgc")
    _require(precision_cmp(t_ppgc(Q), P) == "isomorphic", "ppgc round trip")

    conn, pair = catalog.gen_sound_pair(seed)
    _require(cgc_soundness(conn, pair, "all").ok, "cgc_soundness")
    lifted = pair_to_pgc(pair)
    _require(gc_pair_property(lifted.conn, lifted, "sound").ok, "lifted soundness")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--start", type=int, default=0)
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    failures = 0
    for seed in range(args.start, args.start + args.seeds):
        try:
            one_seed(seed)
        except GalkitError as exc:
            failures += 1
            print(f"seed {seed}: FAIL {exc}")
    elapsed = time.monotonic() - t0
    print(f"{args.seeds - failures}/{args.seeds} seeds passed in {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
