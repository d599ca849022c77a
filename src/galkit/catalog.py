"""Pre-built example domains, checker-verified at construction, plus seeded
random instance generators for the property suites.

Integer carriers are finite ranges; the arithmetic mode closes concrete
operations (saturating clamp for sign/constant/interval domains, modular
wraparound for parity).  Constant bounds default to N = 64; interval and
constant domains need N >= 10 for their defining constants.
"""
from __future__ import annotations

import random

from .errors import BoundTooSmall, NotInClass, SizeGuard, UnknownName
from .galois import (
    CarrierConn,
    GaloisConn,
    check_cgc,
    check_cgp,
    check_pcgc,
    classify_partitioning,
)
from .order import FinLattice, FinPoset, build_poset, downset_masks, moore_lattice_of_masks
from .setops import MODULAR, SATURATING, FinCarrier
from .functions import AbstractFn, ConcreteFn, FnPair
from .transforms import t_cgp, t_pgc

DEFAULT_BOUND = 64
MAX_A = 10
MAX_B = 12

BUILTIN_NAMES = (
    "parity",
    "plustop_cgp",
    "sign_pgi",
    "sign_minus_ppgc",
    "interval_gi_d",
    "interval_pcgc",
    "interval_bprime",
    "signconst_pcgc",
)


# ---------------------------------------------------------------------------
# builtins


def _parity(N):
    if N < 2:
        raise BoundTooSmall("parity needs a bound of at least 2")
    carrier = FinCarrier.ints(-N, N - 1, MODULAR)
    eta = {v: ("even" if int(v) % 2 == 0 else "odd") for v in carrier.values}
    mu = {
        "even": frozenset(v for v in carrier.values if int(v) % 2 == 0),
        "odd": frozenset(v for v in carrier.values if int(v) % 2 != 0),
    }
    C = CarrierConn("cgc", carrier, FinPoset.discrete(["even", "odd"]), eta, mu)
    rep = check_cgc(C)
    if not rep:
        raise NotInClass(f"parity construction broken at {rep.witness}")
    return C


def _plustop_cgp(N):
    """The two-point plus/top abstraction; an ordered connection that is
    deliberately not a plain constructive one (counterexample fixture)."""
    carrier = FinCarrier.ints(-N, N, SATURATING)
    poset = build_poset(["+", "⊤"], [("+", "⊤")])
    eta = {v: ("+" if int(v) > 0 else "⊤") for v in carrier.values}
    mu = {
        "+": frozenset(v for v in carrier.values if int(v) > 0),
        "⊤": carrier.value_set(),
    }
    C = CarrierConn("cgp", carrier, poset, eta, mu)
    rep = check_cgp(C)
    if not rep:
        raise NotInClass(f"plus/top construction broken at {rep.witness}")
    return C


SIGN_ELEMS = ("∅", "<0", "=0", ">0", "≤0", "≠0", "≥0", "Z")
SIGN_PAIRS = (
    ("∅", "<0"), ("∅", "=0"), ("∅", ">0"),
    ("<0", "≤0"), ("<0", "≠0"),
    ("=0", "≤0"), ("=0", "≥0"),
    (">0", "≠0"), (">0", "≥0"),
    ("≤0", "Z"), ("≠0", "Z"), ("≥0", "Z"),
)


def _sign_sets(carrier):
    neg = frozenset(v for v in carrier.values if int(v) < 0)
    pos = frozenset(v for v in carrier.values if int(v) > 0)
    zero = frozenset(["0"])
    return {
        "∅": frozenset(),
        "<0": neg,
        "=0": zero,
        ">0": pos,
        "≤0": neg | zero,
        "≠0": neg | pos,
        "≥0": pos | zero,
        "Z": carrier.value_set(),
    }


def _sign_pgi(N):
    if N < 1:
        raise BoundTooSmall("sign needs a bound of at least 1")
    carrier = FinCarrier.ints(-N, N, SATURATING)
    lat = FinLattice.from_poset(build_poset(SIGN_ELEMS, SIGN_PAIRS))
    return GaloisConn(carrier, lat, _sign_sets(carrier))


def _sign_minus_ppgc(N):
    """The sign lattice without the nonzero element: still partitioning on
    blocks, but its concretization is no longer additive."""
    if N < 1:
        raise BoundTooSmall("sign needs a bound of at least 1")
    carrier = FinCarrier.ints(-N, N, SATURATING)
    elems = tuple(e for e in SIGN_ELEMS if e != "≠0")
    pairs = [p for p in SIGN_PAIRS if "≠0" not in p]
    pairs += [("<0", "Z"), (">0", "Z")]
    lat = FinLattice.from_poset(build_poset(elems, pairs))
    gamma = {e: s for e, s in _sign_sets(carrier).items() if e != "≠0"}
    G = GaloisConn(carrier, lat, gamma)
    if classify_partitioning(G).category != "PPGC":
        raise NotInClass("sign-minus construction is not purely partitioning")
    return G


def _ival(lo, hi, carrier):
    clo = max(lo, carrier.lo)
    chi = min(hi, carrier.hi)
    return frozenset(str(n) for n in range(clo, chi + 1))


def _interval_gi_d(N):
    """The six-element interval insertion; neither partitioning nor
    disjunctive (counterexample fixture for classification)."""
    if N < 10:
        raise BoundTooSmall("interval domains need a bound of at least 10")
    carrier = FinCarrier.ints(-N, N, SATURATING)
    elems = ["∅", "[-5,-1]", "[1,5]", "[-7,7]", "[-9,+∞)", "Z"]
    pairs = [
        ("∅", "[-5,-1]"), ("∅", "[1,5]"),
        ("[-5,-1]", "[-7,7]"), ("[1,5]", "[-7,7]"),
        ("[-7,7]", "[-9,+∞)"), ("[-9,+∞)", "Z"),
    ]
    lat = FinLattice.from_poset(build_poset(elems, pairs))
    gamma = {
        "∅": frozenset(),
        "[-5,-1]": _ival(-5, -1, carrier),
        "[1,5]": _ival(1, 5, carrier),
        "[-7,7]": _ival(-7, 7, carrier),
        "[-9,+∞)": _ival(-9, N, carrier),
        "Z": carrier.value_set(),
    }
    return GaloisConn(carrier, lat, gamma)


INTERVAL_ELEMS = (
    "∅", "(-∞,-10]", "[-9,-1]", "[0,0]", "[1,9]", "[10,+∞)",
    "[-9,9]", "(-∞,9]", "[-9,+∞)", "Z",
)
INTERVAL_PAIRS = (
    ("∅", "(-∞,-10]"), ("∅", "[-9,-1]"), ("∅", "[0,0]"),
    ("∅", "[1,9]"), ("∅", "[10,+∞)"),
    ("[-9,-1]", "[-9,9]"), ("[0,0]", "[-9,9]"), ("[1,9]", "[-9,9]"),
    ("(-∞,-10]", "(-∞,9]"), ("[-9,9]", "(-∞,9]"),
    ("[-9,9]", "[-9,+∞)"), ("[10,+∞)", "[-9,+∞)"),
    ("(-∞,9]", "Z"), ("[-9,+∞)", "Z"),
)


def _interval_eta(v):
    n = int(v)
    if n <= -10:
        return "(-∞,-10]"
    if n <= -1:
        return "[-9,-1]"
    if n == 0:
        return "[0,0]"
    if n <= 9:
        return "[1,9]"
    return "[10,+∞)"


def _interval_sets(carrier):
    N = carrier.hi
    return {
        "∅": frozenset(),
        "(-∞,-10]": _ival(-N, -10, carrier),
        "[-9,-1]": _ival(-9, -1, carrier),
        "[0,0]": _ival(0, 0, carrier),
        "[1,9]": _ival(1, 9, carrier),
        "[10,+∞)": _ival(10, N, carrier),
        "[-9,9]": _ival(-9, 9, carrier),
        "(-∞,9]": _ival(-N, 9, carrier),
        "[-9,+∞)": _ival(-9, N, carrier),
        "Z": carrier.value_set(),
    }


def _interval_pcgc(N):
    if N < 10:
        raise BoundTooSmall("interval domains need a bound of at least 10")
    carrier = FinCarrier.ints(-N, N, SATURATING)
    lat = FinLattice.from_poset(build_poset(INTERVAL_ELEMS, INTERVAL_PAIRS))
    eta = {v: _interval_eta(v) for v in carrier.values}
    C = CarrierConn("pcgc", carrier, lat, eta, _interval_sets(carrier))
    rep = check_pcgc(C)
    if not rep.ok:
        raise NotInClass(f"interval construction broken at {rep.witness}")
    return C


def _interval_bprime(N):
    """The interval lattice with [-10,10] replacing the three middle
    elements; fails the order-compatibility condition (negative fixture)."""
    if N < 10:
        raise BoundTooSmall("interval domains need a bound of at least 10")
    carrier = FinCarrier.ints(-N, N, SATURATING)
    elems = [
        "∅", "(-∞,-10]", "[-9,-1]", "[0,0]", "[1,9]", "[10,+∞)",
        "[-10,10]", "Z",
    ]
    pairs = [
        ("∅", "(-∞,-10]"), ("∅", "[-9,-1]"), ("∅", "[0,0]"),
        ("∅", "[1,9]"), ("∅", "[10,+∞)"),
        ("[-9,-1]", "[-10,10]"), ("[0,0]", "[-10,10]"), ("[1,9]", "[-10,10]"),
        ("(-∞,-10]", "Z"), ("[-10,10]", "Z"), ("[10,+∞)", "Z"),
    ]
    lat = FinLattice.from_poset(build_poset(elems, pairs))
    sets = _interval_sets(carrier)
    mu = {e: sets[e] for e in elems if e != "[-10,10]"}
    mu["[-10,10]"] = _ival(-10, 10, carrier)
    eta = {v: _interval_eta(v) for v in carrier.values}
    return CarrierConn("pcgc", carrier, lat, eta, mu)


def _signconst_pcgc(N):
    """The reduced product of constant propagation and signs, finitized by
    bounding the constants: bottom, one element per constant, the five sign
    classes and top."""
    if N < 10:
        raise BoundTooSmall("the constant domain needs a bound of at least 10")
    carrier = FinCarrier.ints(-N, N, SATURATING)
    consts = list(carrier.values)
    elems = ["∅"] + consts + ["<0", ">0", "≤0", "≠0", "≥0", "Z"]
    pairs = [("∅", c) for c in consts]
    for c in consts:
        n = int(c)
        if n < 0:
            pairs.append((c, "<0"))
        elif n > 0:
            pairs.append((c, ">0"))
        else:
            pairs.append((c, "≤0"))
            pairs.append((c, "≥0"))
    pairs += [
        ("<0", "≤0"), ("<0", "≠0"), (">0", "≠0"), (">0", "≥0"),
        ("≤0", "Z"), ("≠0", "Z"), ("≥0", "Z"),
    ]
    lat = FinLattice.from_poset(build_poset(elems, pairs))
    neg = frozenset(v for v in consts if int(v) < 0)
    pos = frozenset(v for v in consts if int(v) > 0)
    zero = frozenset(["0"])
    mu = {c: frozenset([c]) for c in consts}
    mu.update({
        "∅": frozenset(),
        "<0": neg,
        ">0": pos,
        "≤0": neg | zero,
        "≠0": neg | pos,
        "≥0": pos | zero,
        "Z": carrier.value_set(),
    })
    eta = {v: v for v in carrier.values}
    C = CarrierConn("pcgc", carrier, lat, eta, mu)
    rep = check_pcgc(C)
    if not rep.ok:
        raise NotInClass(f"constant-sign construction broken at {rep.witness}")
    return C


_BUILDERS = {
    "parity": _parity,
    "plustop_cgp": _plustop_cgp,
    "sign_pgi": _sign_pgi,
    "sign_minus_ppgc": _sign_minus_ppgc,
    "interval_gi_d": _interval_gi_d,
    "interval_pcgc": _interval_pcgc,
    "interval_bprime": _interval_bprime,
    "signconst_pcgc": _signconst_pcgc,
}


def builtin(name: str, bound: int = DEFAULT_BOUND):
    """Build one of the named example domains over a bounded carrier."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownName(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return builder(bound)


def sign_cgc(bound: int = DEFAULT_BOUND) -> CarrierConn:
    """The four-point constructive sign connection (minus/zero/plus and an
    unused bottom); the carrier-level counterpart of the sign insertion."""
    carrier = FinCarrier.ints(-bound, bound, SATURATING)
    eta = {
        v: ("-" if int(v) < 0 else "+" if int(v) > 0 else "0")
        for v in carrier.values
    }
    mu = {
        "-": frozenset(v for v in carrier.values if int(v) < 0),
        "0": frozenset(["0"]),
        "+": frozenset(v for v in carrier.values if int(v) > 0),
        "⊥": frozenset(),
    }
    C = CarrierConn(
        "cgc", carrier, FinPoset.discrete(["-", "0", "+", "⊥"]), eta, mu,
    )
    rep = check_cgc(C)
    if not rep:
        raise NotInClass(f"sign construction broken at {rep.witness}")
    return C


# ---------------------------------------------------------------------------
# seeded generators


def _check_sizes(amax, bmax):
    if not (2 <= amax <= MAX_A):
        raise SizeGuard(f"carrier size {amax} outside [2, {MAX_A}]")
    if not (1 <= bmax <= MAX_B):
        raise SizeGuard(f"abstract size {bmax} outside [1, {MAX_B}]")


def _random_partition(rng, values, max_blocks):
    k = rng.randint(1, min(len(values), max_blocks))
    assignment = {}
    shuffled = list(values)
    rng.shuffle(shuffled)
    for i, v in enumerate(shuffled):
        assignment[v] = i % k if i < k else rng.randrange(k)
    blocks = [frozenset(v for v in values if assignment[v] == i) for i in range(k)]
    return [b for b in blocks if b]


def gen_cgc(seed: int, amax: int = 8, bmax: int = 8, junk: bool = True) -> CarrierConn:
    """A random constructive connection: a random partition plus up to two
    junk abstract values concretizing to nothing."""
    _check_sizes(amax, bmax)
    rng = random.Random(f"cgc:{seed}")
    n = rng.randint(2, amax)
    values = [f"a{i}" for i in range(n)]
    blocks = _random_partition(rng, values, max(1, bmax - 2))
    eta = {}
    mu = {}
    for i, b in enumerate(blocks):
        name = f"b{i}"
        mu[name] = b
        for v in b:
            eta[v] = name
    if junk:
        for j in range(rng.randint(0, min(2, bmax - len(blocks)))):
            mu[f"j{j}"] = frozenset()
    carrier = FinCarrier.atoms(values)
    C = CarrierConn("cgc", carrier, FinPoset.discrete(sorted(mu)), eta, mu)
    rep = check_cgc(C)
    if not rep:
        raise NotInClass(f"generated connection broken at {rep.witness}")
    return C


def gen_pgc(seed: int, amax: int = 8, bmax: int = 8) -> GaloisConn:
    return t_pgc(gen_cgc(seed, amax, bmax, junk=False))


def gen_ppgc(seed: int, amax: int = 8, bmax: int = 8) -> GaloisConn:
    """A random purely partitioning connection: a partition plus a random
    intersection-closed family of block unions, concretized by inclusion."""
    _check_sizes(amax, bmax)
    rng = random.Random(f"ppgc:{seed}")
    n = rng.randint(2, amax)
    values = [f"a{i}" for i in range(n)]
    blocks = [sum(1 << values.index(v) for v in b)  # as masks over the values
              for b in _random_partition(rng, values, min(5, bmax))]
    family = blocks + [0]
    for _ in range(rng.randint(0, 3)):
        # sample picks by position, so its draws depend only on len(blocks)
        family.append(sum(rng.sample(blocks, rng.randint(1, len(blocks)))))
    lat = moore_lattice_of_masks(values, family)
    G = GaloisConn(FinCarrier.atoms(values), lat, lat.members)
    if classify_partitioning(G).category not in ("PGC", "PPGC"):
        raise NotInClass("generated connection is not pre-partitioning")
    return G


def gen_downsets_gc(seed: int, amax: int = 6) -> GaloisConn:
    """A random adjunction over the downsets of a random small poset, built
    from a random Moore family of downsets."""
    if not (2 <= amax <= 6):
        raise SizeGuard(f"poset size {amax} outside [2, 6]")
    rng = random.Random(f"gc:{seed}")
    n = rng.randint(2, amax)
    values = [f"a{i}" for i in range(n)]
    pairs = [
        (values[i], values[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    poset = build_poset(values, pairs)
    lat = moore_lattice_of_masks(
        values, [ds for ds in downset_masks(poset) if rng.random() < 0.4])
    return GaloisConn(FinCarrier.atoms(values), lat, lat.members, carrier_order=poset)


def gen_cgp(seed: int, amax: int = 6) -> CarrierConn:
    return t_cgp(gen_downsets_gc(seed, amax))


def gen_fn(rng, carrier, arity: int = 1) -> ConcreteFn:
    """A random total operation on a carrier."""
    values = list(carrier.values)
    if arity == 1:
        return ConcreteFn(1, {v: rng.choice(values) for v in values})
    return ConcreteFn(
        2, {(a, b): rng.choice(values) for a in values for b in values},
    )


def gen_sound_pair(seed: int, amax: int = 8, bmax: int = 8):
    """A random connection with a block-respecting concrete operation and
    its exact abstract counterpart (junk values mapped arbitrarily)."""
    _check_sizes(amax, bmax)
    C = gen_cgc(seed, amax, bmax)
    rng = random.Random(f"pair:{seed}")
    blocks = sorted(b for b in C.abstract_poset.elements if C.mu[b])
    juncs = [b for b in C.abstract_poset.elements if not C.mu[b]]
    block_map = {b: rng.choice(blocks) for b in blocks}
    table = {}
    for v in C.carrier.values:
        target = block_map[C.eta[v]]
        table[v] = rng.choice(sorted(C.mu[target]))
    f = ConcreteFn(1, table)
    abs_table = {b: block_map[b] for b in blocks}
    for j in juncs:
        abs_table[j] = rng.choice(blocks + juncs)
    pair = FnPair(C, f, AbstractFn(1, abs_table))
    return C, pair


def gen_any_pair(seed: int, amax: int = 8, bmax: int = 8, arity: int = 1):
    """A random connection with arbitrary (not necessarily sound) concrete
    and abstract operations, for equivalence suites."""
    C = gen_cgc(seed, amax, bmax)
    rng = random.Random(f"anypair:{seed}")
    f = gen_fn(rng, C.carrier, arity)
    elems = sorted(C.abstract_poset.elements)
    if arity == 1:
        fs = AbstractFn(1, {b: rng.choice(elems) for b in elems})
    else:
        fs = AbstractFn(
            2, {(b1, b2): rng.choice(elems) for b1 in elems for b2 in elems},
        )
    return C, FnPair(C, f, fs)


_GEN = {
    "cgc": gen_cgc,
    "pgc": gen_pgc,
    "ppgc": gen_ppgc,
    "cgp": lambda seed, amax=6, bmax=12: gen_cgp(seed, min(amax, 6)),
    "sound_pair": gen_sound_pair,
}


def gen(kind: str, seed: int, amax: int = 8, bmax: int = 8):
    """Deterministic random instance of the requested kind."""
    try:
        maker = _GEN[kind]
    except KeyError:
        raise UnknownName(f"unknown generator kind {kind!r}") from None
    return maker(seed, amax=amax, bmax=bmax)
