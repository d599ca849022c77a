#!/usr/bin/env python3
"""Time each layer of galkit at doubling sizes and print the ladder as JSON:

    PYTHONPATH=src python3 scripts/size_ladder.py [--sizes 16,32,64] [--repeat 3] [--out FILE]

The instances are ``catalog.builtin("signconst_pcgc", N)`` for each size N,
whose abstract side has N + 8 elements.  The layers are the builtin's build,
``check_pcgc`` of it, ``t_ppgc`` of it, and, on a fresh copy of that output
each time (over a new gamma table, so that no kept verdict or holder mask
is reused), ``classify_partitioning``, ``check_gc`` and ``t_pcgc``; then
``analyze`` of ``tests/programs/p05_countdown.while`` on a fresh builtin
each time; ``precision_cmp``, ``renaming_witnesses`` and ``nonempty_iso``
of two identity constructive connections with N blocks (N atoms, each its
own abstract value); ``check_gc`` of a mutant of ``sign_pgi(N)`` whose
gamma(≤0) lacks 0, which it rejects; the ordered round trip
``t_cgp(t_gc(t_cgp(G)))`` on a fresh ``sign_pgi(N)`` each time, and warm:
repeated on one ``sign_pgi(N)`` after a first, cold, call; and
``moore_lattice_of_masks`` over a chain and over an antichain of N masks
on N atoms.  A checker is timed
without its per-connection memo.  Each time is the best of ``--repeat`` runs,
in ms; each layer's slope is that of the least-squares line through
(log N, log ms) over the last three sizes, so 1 reads linear and 2
quadratic.  The JSON also names the commit (``sha``), the hash of its
``src/`` tree and whether ``src/`` differs from it, when run in a git
checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

from galkit import catalog
from galkit.analyzer import analyze, parse_program
from galkit.galois import (
    CarrierConn,
    GaloisConn,
    check_gc,
    check_pcgc,
    classify_partitioning,
    nonempty_iso,
    precision_cmp,
    renaming_witnesses,
)
from galkit.order import FinPoset, moore_lattice_of_masks
from galkit.setops import FinCarrier
from galkit.transforms import t_cgp, t_gc, t_pcgc, t_ppgc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
P05 = os.path.join(ROOT, "tests", "programs", "p05_countdown.while")


def fresh(G: GaloisConn) -> GaloisConn:
    """A connection over a new copy of G's gamma, so that it keeps nothing
    yet (a connection handed G's own table would keep what the table
    keeps)."""
    return GaloisConn(G.carrier, G.abstract, dict(G.gamma), carrier_order=G.carrier_order)


def identity_cgc(n: int) -> CarrierConn:
    """The constructive connection of n blocks {v}, each its own abstract
    value v."""
    values = [str(i) for i in range(n)]
    return CarrierConn("cgc", FinCarrier.atoms(values), FinPoset.discrete(values),
                       {v: v for v in values}, {v: [v] for v in values})


def sign_mutant(n: int) -> GaloisConn:
    """``sign_pgi(n)`` with 0 taken out of gamma(≤0): 0 then has no atom,
    so ``check_gc`` rejects it and names a witness."""
    G = catalog.builtin("sign_pgi", n)
    return GaloisConn(G.carrier, G.abstract, {**G.gamma, "≤0": G.gamma["≤0"] - {"0"}})


def layers(n: int) -> dict:
    """Each layer's name -> (set-up, timed call), both with no arguments; the
    call takes what the set-up returns."""
    def build():
        return catalog.builtin("signconst_pcgc", n)

    def lifted():
        return fresh(t_ppgc(build()))

    def identities():
        return identity_cgc(n), identity_cgc(n)

    def ordered_round_trip(G):
        return t_cgp(t_gc(t_cgp(G)))

    warm = catalog.builtin("sign_pgi", n)
    ordered_round_trip(warm)

    atoms = [str(i) for i in range(n)]
    with open(P05, encoding="utf-8") as fh:
        program = parse_program(fh.read())
    return {
        "signconst_pcgc": (lambda: None, lambda _: build()),
        "check_pcgc": (build, check_pcgc.__wrapped__),
        "t_ppgc": (build, t_ppgc),
        "classify_partitioning": (lifted, classify_partitioning.__wrapped__),
        "check_gc": (lifted, check_gc.__wrapped__),
        "t_pcgc": (lifted, t_pcgc),
        "analyze": (build, lambda C: analyze(program, C)),
        "precision_cmp": (identities, lambda pair: precision_cmp(*pair)),
        "renaming_witnesses": (identities, lambda pair: renaming_witnesses(*pair)),
        "nonempty_iso": (identities, lambda pair: nonempty_iso(*pair)),
        "check_gc_sign_mutant": (lambda: sign_mutant(n), check_gc.__wrapped__),
        "ordered_round_trip": (lambda: catalog.builtin("sign_pgi", n), ordered_round_trip),
        "ordered_round_trip_warm": (lambda: warm, ordered_round_trip),
        "moore_chain": (lambda: [(1 << k) - 1 for k in range(1, n + 1)],
                        lambda masks: moore_lattice_of_masks(atoms, masks)),
        "moore_antichain": (lambda: [1 << i for i in range(n)],
                            lambda masks: moore_lattice_of_masks(atoms, masks)),
    }


def best_ms(setup, call, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def slope(sizes, times) -> float | None:
    """The least-squares slope of log time against log size over the last
    three points, or None below two."""
    xs, ys = [math.log(n) for n in sizes[-3:]], [math.log(t) for t in times[-3:]]
    if len(xs) < 2:
        return None
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def git(*args) -> str | None:
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def ladder(sizes, repeat: int) -> dict:
    times: dict = {}
    for n in sizes:
        for name, (setup, call) in layers(n).items():
            times.setdefault(name, []).append(best_ms(setup, call, repeat))
    status = git("status", "--porcelain", "--", "src")
    return {
        "sha": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sizes": list(sizes),
        "repeat": repeat,
        "layers": {name: {"ms": [round(t, 4) for t in ts],
                          "slope": None if (s := slope(sizes, ts)) is None else round(s, 3)}
                   for name, ts in times.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="16,32,64,128,256,512",
                        help="comma-separated bounds N, ascending")
    parser.add_argument("--repeat", type=int, default=3, help="runs per time, best kept")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if sizes != sorted(set(sizes)) or args.repeat < 1:
        parser.error("--sizes must ascend and --repeat be at least 1")
    text = json.dumps(ladder(sizes, args.repeat), indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
