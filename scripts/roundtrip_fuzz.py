#!/usr/bin/env python3
"""Bulk round-trip and equivalence fuzzing over seeded instances.

For every seed it generates connections of each supported kind, converts
them through the matching transform pair, and checks the expected round-trip
relation; sound operation pairs are additionally lifted to lattice level and
re-checked there. The checks are those of ``galkit fuzz``: one function per
theorem in ``galkit.cli``. A failed check or a ``GalkitError`` raised on the way
counts the seed as failed, also under ``python -O``; the exit status is 1
when any seed failed.
"""
from __future__ import annotations

import argparse
import time

from galkit import catalog
from galkit.cli import cgc_pgc_round_trips, gc_cgp_round_trips, ppgc_pcgc_round_trip, sound_pair_lifts
from galkit.errors import GalkitError


def one_seed(seed: int) -> None:
    cgc_pgc_round_trips(catalog.gen_cgc(seed))
    gc_cgp_round_trips(catalog.gen_downsets_gc(seed, amax=6))
    ppgc_pcgc_round_trip(catalog.gen_ppgc(seed))
    sound_pair_lifts(*catalog.gen_sound_pair(seed))


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
