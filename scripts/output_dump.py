#!/usr/bin/env python3
"""Print the outputs that a refactor must keep byte-identical, one line each:

    PYTHONPATH=src python3 scripts/output_dump.py [--bounds 8,12,64] [--seeds 12]

For every builtin at each bound, every ``catalog.gen`` seed of cgc, pgc,
ppgc and cgp and every ``gen_downsets_gc`` seed below ``--seeds``, it
prints the instance's ``domain_to_dict``; each checker's report, called
twice; and each transform's output as ``domain_to_dict``, or its error,
with whether the output reloads through the file format to the same dict.
Sets print sorted, so the dump does not depend on the hash seed; dicts
print in their own order, which is part of the output.  Run it at two
commits and compare the files with ``cmp``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from galkit import catalog
from galkit.fileio import domain_from_dict, domain_to_dict
from galkit.galois import (
    CarrierConn,
    GaloisConn,
    check_cgc,
    check_cgp,
    check_gc,
    check_pcgc,
    classify_partitioning,
    embed_cgc_to_pcgc,
    embed_pcgc_to_cgp,
    is_cgi,
    prt,
)
from galkit.transforms import (
    disjunctive_completion,
    least_disjunctive_basis,
    t_cco,
    t_cgc_of_pgc,
    t_cgp,
    t_gc,
    t_pcgc,
    t_pgc,
    t_ppgc,
)

CHECKERS = {
    CarrierConn: (check_cgc, check_cgp, check_pcgc, is_cgi),
    GaloisConn: (check_gc, classify_partitioning, prt),
}
TRANSFORMS = {
    CarrierConn: (t_pgc, t_cco, t_gc, t_ppgc, embed_cgc_to_pcgc, embed_pcgc_to_cgp),
    GaloisConn: (t_cgc_of_pgc, t_cgp, t_pcgc, disjunctive_completion,
                 least_disjunctive_basis),
}


def render(x) -> str:
    """``x`` as text: a set's members sorted, a report by its fields."""
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(map(render, x))) + "}"
    if isinstance(x, (list, tuple)):
        inner = ", ".join(map(render, x))
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={render(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({', '.join(fields)})"
    return repr(x)


def attempt(call, *args):
    """``(True, call(*args))``, or ``(False, "Error: message")`` for any
    exception, so that a raw error is part of the output too."""
    try:
        return True, call(*args)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def dumped(X) -> str:
    return json.dumps(domain_to_dict(X), ensure_ascii=False)


def instances(bounds, seeds):
    """(label, maker) for every instance the dump covers."""
    for name in catalog.BUILTIN_NAMES:
        for n in bounds:
            yield f"builtin {name} {n}", lambda name=name, n=n: catalog.builtin(name, n)
    for kind in ("cgc", "pgc", "ppgc", "cgp"):
        for seed in range(seeds):
            yield f"gen {kind} {seed}", lambda kind=kind, seed=seed: catalog.gen(kind, seed)
    for seed in range(seeds):
        yield f"gen_downsets_gc {seed}", lambda seed=seed: catalog.gen_downsets_gc(seed)


def dump(label, make, out) -> None:
    built, X = attempt(make)
    if not built:
        out.write(f"{label}: {X}\n")
        return
    out.write(f"{label}: {dumped(X)}\n")
    cls = type(X)
    for check in CHECKERS[cls]:
        for call in (1, 2):
            ok, rep = attempt(check, X)
            out.write(f"{label} {check.__name__} #{call}: {render(rep) if ok else rep}\n")
    for transform in TRANSFORMS[cls]:
        name = f"{label} {transform.__name__}"
        ok, Y = attempt(transform, X)
        if not ok or isinstance(Y, frozenset):  # an error, or a basis
            out.write(f"{name}: {Y if not ok else render(Y)}\n")
            continue
        text = dumped(Y)
        _, back = attempt(lambda: dumped(domain_from_dict(json.loads(text))))
        out.write(f"{name}: {text}\n{name} reload: {'same' if back == text else back}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bounds", default="8,12,64", help="comma-separated builtin bounds")
    parser.add_argument("--seeds", type=int, default=12, help="generator seeds 0 .. SEEDS-1")
    args = parser.parse_args(argv)
    bounds = [int(b) for b in args.bounds.split(",")]
    for label, make in instances(bounds, args.seeds):
        dump(label, make, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
