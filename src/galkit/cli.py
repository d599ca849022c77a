"""Command line interface: transforms, best correct approximations,
soundness checks, fuzzing and the while-language analyzer."""
from __future__ import annotations

import argparse
import json
import sys

from . import analyzer, catalog, fileio, transforms
from .errors import GalkitError, WhileSyntaxError
from .functions import (
    SOUND_VARIANTS,
    FnPair,
    bca_gc,
    bca_pcgc,
    cgc_completeness,
    cgc_soundness,
)
from .galois import (
    CarrierConn,
    ClosureOp,
    GaloisConn,
    check_cgc,
    check_cgp,
    check_pcgc,
    nonempty_iso,
    precision_cmp,
)

# each pair's transform, with the class of connection it reads
TRANSFORMS = {
    "cgc-pgc": (CarrierConn, transforms.t_pgc),
    "pgc-cgc": (GaloisConn, transforms.t_cgc_of_pgc),
    "cgc-cco": (CarrierConn, transforms.t_cco),
    "cco-cgc": (ClosureOp, transforms.t_cgc_of_cco),
    "cgp-gc": (CarrierConn, transforms.t_gc),
    "gc-cgp": (GaloisConn, transforms.t_cgp),
    "pcgc-ppgc": (CarrierConn, transforms.t_ppgc),
    "ppgc-pcgc": (GaloisConn, transforms.t_pcgc),
}


def _cmd_transform(args) -> int:
    conn = fileio.load_domain(args.domain)
    source, transform = TRANSFORMS[args.pair]
    if not isinstance(conn, source):
        raise GalkitError(f"{args.pair} reads a {source.__name__}, "
                          f"but {args.domain} holds a {type(conn).__name__}")
    out = transform(conn)
    text = json.dumps(fileio.domain_to_dict(out), ensure_ascii=False, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_bca(args) -> int:
    conn = fileio.load_domain(args.domain)
    _, fn = fileio.load_fn(args.fn)
    if isinstance(conn, GaloisConn):
        table = bca_gc(conn, fn)
    else:
        table = bca_pcgc(conn, fn)
    print(json.dumps(fileio.fn_to_dict("abstract", table),
                     ensure_ascii=False, indent=2))
    return 0


def _cmd_soundcheck(args) -> int:
    conn = fileio.load_domain(args.domain)
    _, cf = fileio.load_fn(args.concrete_fn)
    _, af = fileio.load_fn(args.abstract_fn)
    pair = FnPair(conn, cf, af)
    variants = SOUND_VARIANTS if args.variant == "all" else (args.variant,)
    ok = True
    for v in variants:
        res = cgc_soundness(conn, pair, v)
        print(f"sound/{v}: {'pass' if res.ok else f'fail at {res.witness}'}")
        ok &= res.ok
        if args.complete:
            res = cgc_completeness(conn, pair, v)
            print(
                f"complete/{v}: {'pass' if res.ok else f'fail at {res.witness}'}"
            )
    return 0 if ok else 1


def _cmd_fuzz(args) -> int:
    passed = failed = 0
    for case in range(args.cases):
        seed = args.seed + case
        try:
            _fuzz_one(args.kind, seed, args.amax, args.bmax)
            passed += 1
        except GalkitError as exc:
            failed += 1
            print(f"seed {seed}: FAIL ({exc})")
    print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def _require(ok, what: str) -> None:
    if not ok:
        raise GalkitError(f"{what} failed")


def _fuzz_one(kind: str, seed: int, amax: int, bmax: int) -> None:
    inst = catalog.gen(kind, seed, amax=amax, bmax=bmax)
    if kind == "cgc":
        _require(check_cgc(inst).ok, "check_cgc")
        G = transforms.t_pgc(inst)
        _require(nonempty_iso(transforms.t_cgc_of_pgc(G), inst), "round trip")
    elif kind == "pgc":
        back = transforms.t_cgc_of_pgc(inst)
        _require(precision_cmp(transforms.t_pgc(back), inst) == "isomorphic", "round trip")
    elif kind == "ppgc":
        C = transforms.t_pcgc(inst)
        _require(check_pcgc(C).ok, "check_pcgc")
        _require(precision_cmp(transforms.t_ppgc(C), inst) == "isomorphic", "round trip")
    elif kind == "cgp":
        _require(check_cgp(inst).ok, "check_cgp")
        G = transforms.t_gc(inst)
        back = transforms.t_cgp(G)
        _require(back.eta == inst.eta and back.mu == inst.mu, "round trip")
    elif kind == "sound_pair":
        C, pair = inst
        _require(cgc_soundness(C, pair, "all").ok, "cgc_soundness")


def _cmd_builtin(args) -> int:
    conn = catalog.builtin(args.name, args.bound)
    if args.emit:
        fileio.save_domain(conn, args.emit)
    else:
        print(json.dumps(fileio.domain_to_dict(conn),
                         ensure_ascii=False, indent=2))
    return 0


def _cmd_analyze(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    try:
        program = analyzer.parse_program(text)
    except (WhileSyntaxError, GalkitError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        domain = catalog.builtin(args.domain, args.bound)
        if not isinstance(domain, CarrierConn):
            raise GalkitError(f"builtin {args.domain!r} is not an analysis domain")
        result = analyzer.analyze(program, domain)
    except GalkitError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        payload = {
            "points": {k: dict(v) for k, v in result.points.items()},
            "iterations": result.iterations,
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(analyzer.format_result(result, program, domain))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="galkit",
        description="finite-model toolkit for constructive Galois connections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="convert a domain file between classes")
    p.add_argument("pair", choices=sorted(TRANSFORMS))
    p.add_argument("domain")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("bca", help="tabulate the best correct approximation")
    p.add_argument("domain")
    p.add_argument("fn")
    p.set_defaults(func=_cmd_bca)

    p = sub.add_parser("soundcheck", help="check soundness of a function pair")
    p.add_argument("domain")
    p.add_argument("concrete_fn")
    p.add_argument("abstract_fn")
    p.add_argument("--variant", default="all",
                   choices=[*SOUND_VARIANTS, "all"])
    p.add_argument("--complete", action="store_true")
    p.set_defaults(func=_cmd_soundcheck)

    p = sub.add_parser("fuzz", help="run generate-check-roundtrip cycles")
    p.add_argument("kind", choices=["cgc", "pgc", "ppgc", "cgp", "sound_pair"])
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amax", type=int, default=8)
    p.add_argument("--bmax", type=int, default=8)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("builtin", help="emit a builtin domain file")
    p.add_argument("name", choices=sorted(catalog.BUILTIN_NAMES))
    p.add_argument("--bound", type=int, default=catalog.DEFAULT_BOUND)
    p.add_argument("--emit")
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("analyze", help="abstractly interpret a while program")
    p.add_argument("file")
    p.add_argument("--domain", default="signconst_pcgc")
    p.add_argument("--bound", type=int, default=catalog.DEFAULT_BOUND)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GalkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
