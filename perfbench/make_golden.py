"""Regenerate ``golden.json``: the verdict-and-witness digest of every op
input in the workloads' universes, keyed by instance.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/make_golden.py

A refactor that must keep outputs byte-identical leaves this file unchanged;
the benchmark counts an op whose digest differs as failed.  It refuses to
write a golden in which any known answer fails.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads as W  # noqa: E402


def record(wl, inp, golden):
    ok, records = wl.check(inp, wl.op(inp))
    if not ok:
        raise SystemExit(f"{wl.name}: known answer fails for {records[0][0]}")
    for key, facts in records:
        golden[key] = W.digest(facts)


def main() -> int:
    golden: dict = {}
    for wl in W.WORKLOADS.values():
        for inp in wl.make(wl.universe()):
            record(wl, inp, golden)
    with open(W.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {W.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
