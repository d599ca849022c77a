"""The fast checkers against their literal definitions, and the per-connection
memos.

``_gamma_additive`` checks gamma(x v j) = gamma(x) | gamma(j) only for
join-irreducible j; here it must agree, verdict and witness, with the literal
scan over all pairs, on powersets, downset lattices and lattices built with
``FinLattice.from_poset`` (M3, N5 and random closure systems, most of them
non-distributive) and other set families, whose bottom need not be empty.
``classify_partitioning`` as a whole must agree with a literal
classification, ``alt2prime`` included.

``check_cgc``, ``check_cgp`` and ``check_pcgc`` read each law off the holder
sets H(x) = {y | x in mu(y)}; here they must agree, verdict, ``cond1``/
``cond2`` and witness, with the literal pair scans, on passing, nearly
passing and arbitrary eta/mu over random, M3, N5 and discrete abstract
posets, with and without (non-discrete) carrier orders, for names that
parse as ints (some equal as ints, such as ``1`` and ``01``) and names that
do not, and on the builtins.  Each keeps its report on the immutable
connection; the kept report must equal that of the uncached check.

``check_gc`` reads the adjunction off gamma: gamma lands in the downsets,
every holder set {d | x in gamma(d)} is the up-set of an atom a_x, and every
``alpha_table`` entry is the lub of its key's atoms.  Here it must agree,
verdict, ``is_gi``, ``is_disjunctive`` and witness, with the literal scan of
every concrete X and abstract d, alpha being the table entry or the least
gamma-cover, on discrete and ordered carriers, the lattices above, and
Galois connections, mutated ones and arbitrary gammas, with and without
(mutated) tables; and alpha must agree with the least gamma-cover.

``ConcreteFn.image`` computes best-correct-approximation entries as a set
image; the analyzer's ``_ArithTable`` supplies its own integer ``image``. Here
both must agree with the literal image over the product of the argument
sets, and ``bca_pcgc_entry`` with the literal lub of eta over it.

``concrete_run`` and ``AbstractSemantics.eval`` run while programs compiled
into closures, and the oracle records environments without copying them.
Here the oracle must return the same dict, key order included, as the
literal AST walk that copies every environment it records, on generated
programs over saturating and modular carriers at every budget up to and
past exhaustion; ``eval`` must return the same element as the literal
``isinstance`` chain and make the same ``op_entry`` calls in the same order;
and ``clamp_int`` must agree with its min/max and modular formulas.

``FinLattice.from_poset`` finds each bound by one up-mask or down-mask
lookup; here it must agree, top, bottom, every join and meet, and the pair
and direction of ``NotCompleteLattice``, with the pairwise search on random
posets, lattices or not, M3, N5 and one element.  ``moore_lattice`` closes
a family on int masks; the generators built on it must keep the element
order, up-sets and gamma of the closure loop they used before.

``build_poset`` closes int up-masks and ``FinPoset`` decodes them; here the
up-sets and down-sets must be those of the name-set closure it used before,
on names that parse as ints, look like set names or hold a comma, and a
cycle must be named by its first pair in element order.  ``iter_downsets``
grows each downset by the elements outside it, and ``meet_closure`` runs
on the shared worklist; here they must give the same downsets in the same
order as the frontier loop, and the same closure as the loop that re-scans
every pair.  Join counts and cycle witnesses must
not depend on the hash seed.

``pcgc_pair_property(..., "backward_complete")`` compares lub eta(f(X⃗)) with
f♯(alpha(X⃗)) only on a polynomial family of tuples of subsets; here its
verdict must be that of the comparison on every tuple, over generated
purely constructive connections at arities 1 and 2, each failing witness
must fail the literal law, and at arity 1 no smaller subset may fail.
"""
from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import program_names, program_text

from galkit import catalog, fileio
from galkit.analyzer import (
    CMP_OPS,
    AbstractSemantics,
    Assign,
    BinOp,
    Cmp,
    If,
    Lit,
    Program,
    Skip,
    Var,
    While,
    _ArithTable,
    concrete_run,
    parse_program,
)
from galkit.errors import (
    CycleDetected,
    NotCompleteLattice,
    NotInClass,
    ShapeMismatch,
    TooLarge,
    UnknownElement,
    UnknownVariable,
)
from galkit.functions import (
    AbstractFn,
    ConcreteFn,
    FnPair,
    _backward_tuples,
    bca_pcgc,
    bca_pcgc_entry,
    pcgc_pair_property,
)
from galkit.galois import (
    CarrierConn,
    CheckResult,
    ClassifyReport,
    GaloisConn,
    GCReport,
    PCGCReport,
    _gamma_additive,
    check_cgc,
    check_cgp,
    check_gc,
    check_pcgc,
    classify_partitioning,
    prt,
)
from galkit.order import (
    FinLattice,
    FinPoset,
    SetLattice,
    build_poset,
    downsets_lattice,
    iter_downsets,
    meet_closure,
    moore_lattice,
    powerset_lattice,
    scan_order,
    set_name,
    sorted_elems,
    subsets_by_size,
)
from galkit.setops import MODULAR, SATURATING, FinCarrier, check_partition
from galkit.transforms import t_cco, t_cgc_of_pgc, t_pcgc, t_pgc


class CountingLattice(FinLattice):
    """A lattice that counts the joins asked of it."""

    __slots__ = ("joins",)

    def __init__(self, lat: FinLattice):
        super().__init__(lat.base, lat.top, lat.bottom, lat.join, lat.meet)
        self.joins = 0

    def join(self, x, y):
        self.joins += 1
        return super().join(x, y)


class CountingArithTable(_ArithTable):
    """An arithmetic table that counts the entries read from it."""

    def __init__(self, carrier, op):
        super().__init__(carrier, op)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


# ---------------------------------------------------------------------------
# literal definitions


def literal_image(f: ConcreteFn, *sets) -> set:
    """f applied to every tuple of the product, one table read each."""
    return {f(*xs) for xs in product(*sets)}


def literal_bca_entry(C: CarrierConn, f: ConcreteFn, *ys) -> str:
    outs = literal_image(f, *(C.mu[y] for y in ys))
    return C.abstract.lub(C.eta[o] for o in outs)


def literal_concrete_run(program: Program, carrier, budget: int) -> dict:
    """The bounded concrete oracle as an AST walk that copies every
    environment it records."""
    seen: dict = {}
    steps = 0

    def note(label, env):
        seen.setdefault(label, []).append(dict(env))

    clamp = carrier.clamp_int

    def ev(expr, env):
        if isinstance(expr, Lit):
            return clamp(expr.value)
        if isinstance(expr, Var):
            return env[expr.name]
        l, r = ev(expr.left, env), ev(expr.right, env)
        if expr.op == "+":
            return clamp(l + r)
        if expr.op == "-":
            return clamp(l - r)
        return clamp(l * r)

    def test(cond, env):
        l, r = ev(cond.left, env), ev(cond.right, env)
        return {
            "<": l < r, "<=": l <= r, "=": l == r,
            "!=": l != r, ">": l > r, ">=": l >= r,
        }[cond.op]

    def run(stmts, env):
        nonlocal steps
        for st in stmts:
            if steps >= budget:
                return env, False
            steps += 1
            note(f"L{st.label}", env)
            if isinstance(st, Assign):
                env = dict(env)
                env[st.var] = ev(st.expr, env)
            elif isinstance(st, Skip):
                pass
            elif isinstance(st, If):
                branch = st.then if test(st.cond, env) else st.els
                env, ok = run(branch, env)
                if not ok:
                    return env, False
            elif isinstance(st, While):
                while test(st.cond, env):
                    env, ok = run(st.body, env)
                    if not ok:
                        return env, False
                    if steps >= budget:
                        return env, False
                    steps += 1
                    note(f"L{st.label}", env)
        return env, True

    env, finished = run(program.body, {})
    if finished:
        note("end", env)
    return seen


def literal_abstract_eval(sem: AbstractSemantics, expr, state: dict) -> str:
    if isinstance(expr, Lit):
        return sem.domain.eta[sem.domain.carrier.clamp(expr.value)]
    if isinstance(expr, Var):
        if expr.name not in state:
            raise UnknownVariable(f"variable {expr.name!r} has no value")
        return state[expr.name]
    left = literal_abstract_eval(sem, expr.left, state)
    right = literal_abstract_eval(sem, expr.right, state)
    return sem.op_entry(expr.op, left, right)


def pairwise_additive(G: GaloisConn):
    """gamma(bottom) = {} and gamma(x v y) = gamma(x) | gamma(y) for every
    pair, scanned in element order."""
    lat = G.abstract_lattice
    if G.gamma[lat.bottom]:
        return False, (lat.bottom,)
    for x, y in combinations(sorted_elems(lat.elements), 2):
        if G.gamma[lat.join(x, y)] != G.gamma[x] | G.gamma[y]:
            return False, (x, y)
    return True, None


def literal_classify(G: GaloisConn) -> ClassifyReport:
    part = check_partition(G.carrier, prt(G))
    additive, wit = pairwise_additive(G)
    lat = G.abstract_lattice
    universe = frozenset(G.carrier.values)
    alt2prime = all(
        G.gamma[lat.join(x, y)] == universe
        for x, y in combinations(sorted_elems(lat.elements), 2)
        if not lat.leq(x, y) and not lat.leq(y, x)
    )
    if part.ok and additive:
        return ClassifyReport("PGC", alt2prime, part)
    if part.ok:
        return ClassifyReport("PPGC", alt2prime, part, wit)
    return ClassifyReport("neither", alt2prime, part, part.witness)


def least_cover(G: GaloisConn, X):
    """The least d with X <= gamma(d), or None."""
    poset = G.abstract_poset
    candidates = [d for d in poset.elements if X <= G.gamma[d]]
    return next(
        (d for d in candidates if all(poset.leq(d, e) for e in candidates)),
        None,
    )


def literal_gc(G: GaloisConn) -> GCReport:
    """gamma lands in the downsets of the carrier order, then
    alpha(X) <= d <=> X <= gamma(d) for every concrete X and abstract d,
    alpha(X) being the table entry or the least gamma-cover, scanned pair
    by pair; alpha onto for ``is_gi``."""
    poset = G.abstract_poset
    elems = sorted_elems(poset.elements)
    cp = G.carrier_poset()
    for d in elems:
        if not cp.is_down_closed(G.gamma[d]):
            return GCReport(False, False, False, ("gamma-downclosed", d))
    table = G.alpha_table or {}
    seen = set()
    for X in G.iter_concrete():
        aX = table[X] if X in table else least_cover(G, X)
        if aX is None:
            return GCReport(False, False, False, (set_name(X), None))
        seen.add(aX)
        for d in elems:
            if poset.leq(aX, d) != (X <= G.gamma[d]):
                return GCReport(False, False, False, (set_name(X), d))
    return GCReport(True, seen == set(elems), *pairwise_additive(G))


def literal_cgc(C: CarrierConn) -> CheckResult:
    """x in mu(y) <=> eta(x) = y, scanned pair by pair."""
    for x in scan_order(C.carrier.values):
        ex = C.eta[x]
        for y in sorted_elems(C.abstract_poset.elements):
            if (x in C.mu[y]) != (ex == y):
                return CheckResult(False, (x, y))
    return CheckResult(True)


def literal_cgp(C: CarrierConn) -> CheckResult:
    """eta and mu monotone, mu downward closed, x in mu(y) <=> eta(x) <= y,
    scanned pair by pair."""
    cp = C.carrier_poset()
    bp = C.abstract_poset
    for x in sorted_elems(cp.elements):
        for x2 in sorted_elems(cp.up(x)):
            if not bp.leq(C.eta[x], C.eta[x2]):
                return CheckResult(False, ("eta-monotone", x, x2))
    for b in sorted_elems(bp.elements):
        if not cp.is_down_closed(C.mu[b]):
            return CheckResult(False, ("mu-downclosed", b))
        for b2 in sorted_elems(bp.up(b)):
            if not C.mu[b] <= C.mu[b2]:
                return CheckResult(False, ("mu-monotone", b, b2))
    for x in scan_order(C.carrier.values):
        ex = C.eta[x]
        for y in sorted_elems(bp.elements):
            if (x in C.mu[y]) != bp.leq(ex, y):
                return CheckResult(False, (x, y))
    return CheckResult(True)


def literal_pcgc(C: CarrierConn) -> PCGCReport:
    """Conditions (1) and (2) and, under a carrier order, eta-monotonicity,
    scanned pair by pair."""
    bp = C.abstract_poset
    values = scan_order(C.carrier.values)
    wit1 = next(
        ((x, C.eta[x2]) for x in values for x2 in values
         if (x in C.mu[C.eta[x2]]) != (C.eta[x] == C.eta[x2])),
        None,
    )
    wit2 = next(
        ((x, y) for x in values for y in sorted_elems(bp.elements)
         if (x in C.mu[y]) != bp.leq(C.eta[x], y)),
        None,
    )
    if wit1 is None and wit2 is None and C.carrier_order is not None:
        for x in values:
            for x2 in sorted_elems(C.carrier_order.up(x)):
                if not bp.leq(C.eta[x], C.eta[x2]):
                    return PCGCReport(False, True, ("eta-monotone", x, x2))
    return PCGCReport(wit1 is None, wit2 is None,
                      wit1 if wit1 is not None else wit2)


def assert_carrier_checkers_agree(C: CarrierConn):
    assert check_cgc(C) == literal_cgc(C)
    assert check_cgp(C) == literal_cgp(C)
    assert check_pcgc(C) == literal_pcgc(C)


# ---------------------------------------------------------------------------
# lattices


def lattice_of(elements, below) -> FinLattice:
    return FinLattice.from_poset(build_poset(elements, below))


def m3() -> FinLattice:
    return lattice_of(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
    )


def n5() -> FinLattice:
    return lattice_of(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


def closed(masks, *ops) -> set:
    """The closure of a family of bitmasks under the binary ``ops``."""
    family = set(masks)
    changed = True
    while changed:
        changed = False
        for s, t in combinations(list(family), 2):
            for u in (op(s, t) for op in ops):
                if u not in family:
                    family.add(u)
                    changed = True
    return family


def closure_system(masks, width) -> FinLattice:
    """The lattice of an intersection-closed family of subsets of
    range(width), with the full set added: every finite lattice is one."""
    family = closed([(1 << width) - 1, *masks], int.__and__)
    names = {s: f"s{s}" for s in family}
    return lattice_of(
        list(names.values()),
        [(names[s], names[t]) for s in family for t in family if s & ~t == 0],
    )


def set_family(masks, width) -> SetLattice:
    """The lattice of the union- and intersection-closure of a nonempty
    family of subsets of width atoms; its bottom need not be empty."""
    family = closed(masks, int.__or__, int.__and__)
    atoms = [f"b{i}" for i in range(width)]
    return SetLattice.from_family(
        atoms, [[a for i, a in enumerate(atoms) if m >> i & 1] for m in family],
    )


@st.composite
def poset_of(draw, n):
    pairs = [
        (str(i), str(j))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_poset([str(i) for i in range(n)], pairs)


LATTICES = st.one_of(
    st.integers(0, 4).map(lambda k: powerset_lattice([f"b{i}" for i in range(k)])),
    st.integers(1, 4).flatmap(poset_of).map(downsets_lattice),
    st.sampled_from([m3(), n5()]),
    st.lists(st.integers(0, 15), max_size=6).map(lambda ms: closure_system(ms, 4)),
    st.lists(st.integers(0, 15), min_size=1, max_size=4).map(lambda ms: set_family(ms, 4)),
)


@st.composite
def connections(draw):
    """A connection with an additive, a nearly additive or an arbitrary
    gamma.  Additive gammas are exactly gamma(x) = {c | not x <= cap(c)}
    for some cap: carrier -> lattice."""
    lat = draw(LATTICES)
    carrier = FinCarrier.atoms([f"c{i}" for i in range(draw(st.integers(1, 4)))])
    elems = sorted_elems(lat.elements)
    shape = draw(st.sampled_from(["additive", "perturbed", "arbitrary"]))
    if shape == "arbitrary":
        values = st.frozensets(st.sampled_from(carrier.values))
        gamma = {x: draw(values) for x in elems}
        if draw(st.integers(0, 3)):  # mostly past the bottom check
            gamma[lat.bottom] = frozenset()
    else:
        cap = {c: draw(st.sampled_from(elems)) for c in carrier.values}
        gamma = {
            x: frozenset(c for c in carrier.values if not lat.leq(x, cap[c]))
            for x in elems
        }
        if shape == "perturbed":
            x = draw(st.sampled_from(elems))
            gamma[x] ^= {draw(st.sampled_from(carrier.values))}
    return carrier, lat, gamma


def conn(carrier, lat, gamma) -> GaloisConn:
    """A connection whose table abstracts every singleton to the top, so
    that classification reads one block, gamma(top), whatever gamma is."""
    return GaloisConn(carrier, lat, gamma,
                      alpha_table={(c,): lat.top for c in carrier.values})


# names that parse as ints (1, 01 and +1 are equal as ints, so sort_key ties
# them and the stable sort decides), negative ints, plain names, and names
# that look like set names or hold a comma
NAMES = st.sampled_from([
    [str(i) for i in range(8)],
    [str(i) for i in range(-3, 5)],
    ["1", "01", "+1", "2", "x", "y", "-1", "0"],
    [f"b{i}" for i in range(8)],
    ["a", "b", "a,b", "{a}", "1", "01", "{}", "c"],
])


@st.composite
def named_poset(draw, names):
    """A random order on ``names``, or M3/N5 renamed, or the discrete one."""
    n = len(names)
    shape = draw(st.sampled_from(["random", "m3n5", "discrete"]))
    if shape == "m3n5" and n >= 5:
        # any names past the fifth stay uncomparable to the rest
        base = draw(st.sampled_from([m3(), n5()])).base
        rename = dict(zip(base.elements, draw(st.permutations(names))))
        return build_poset(
            names,
            [(rename[x], rename[y]) for x in base.elements for y in base.up(x)],
        )
    if shape == "discrete":
        return FinPoset.discrete(names)
    order = draw(st.permutations(range(n)))
    pairs = [(names[order[i]], names[order[j]])
             for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(0, 3)) == 0]
    return build_poset(draw(st.permutations(names)), pairs)


@st.composite
def carrier_conns(draw):
    """A carrier connection whose mu is eta's fibres (a CGC), eta's lower
    preimages (a PCGC), or arbitrary; then, sometimes, one membership is
    flipped, so most cases pass or nearly pass."""
    values = draw(NAMES)[:draw(st.integers(1, 6))]
    elements = draw(NAMES)[:draw(st.integers(1, 6))]
    bp = draw(named_poset(elements))
    carrier = FinCarrier.atoms(draw(st.permutations(values)))
    eta = {a: draw(st.sampled_from(elements)) for a in values}
    shape = draw(st.sampled_from(["fibres", "lower", "arbitrary"]))
    if shape == "fibres":
        mu = {b: {a for a in values if eta[a] == b} for b in elements}
    elif shape == "lower":
        mu = {b: {a for a in values if bp.leq(eta[a], b)} for b in elements}
    else:
        mu = {b: set(draw(st.sets(st.sampled_from(values)))) for b in elements}
    if draw(st.booleans()):
        mu[draw(st.sampled_from(elements))] ^= {draw(st.sampled_from(values))}
    order = draw(st.one_of(
        st.none(), st.just(FinPoset.discrete(values)), named_poset(values)))
    return CarrierConn("pcgc", carrier, bp, eta, mu, carrier_order=order)


class CountingPoset(FinPoset):
    """A poset that counts the ``leq`` calls made on it."""

    __slots__ = ("leqs",)

    def __init__(self, poset: FinPoset):
        super().__init__(poset.elements, poset._upm)
        self.leqs = 0

    def leq(self, x, y):
        self.leqs += 1
        return super().leq(x, y)


# ---------------------------------------------------------------------------
# differential tests


@settings(max_examples=600, deadline=None)
@given(carrier_conns())
def test_carrier_checkers_agree_with_the_pair_scans(C):
    assert_carrier_checkers_agree(C)


@pytest.mark.parametrize("name", [
    "parity", "plustop_cgp", "interval_pcgc", "interval_bprime", "signconst_pcgc",
])
def test_carrier_checkers_agree_on_the_builtins(name):
    assert_carrier_checkers_agree(catalog.builtin(name, 16))


@pytest.mark.parametrize("kind", ["cgc", "cgp"])
def test_carrier_checkers_agree_on_generated_connections(kind):
    for seed in range(40):
        assert_carrier_checkers_agree(catalog.gen(kind, seed))


def test_monotone_witnesses_follow_each_checker_s_scan():
    # eta-monotonicity fails at -1 and at 0: check_pcgc scans the carrier
    # small magnitudes first, check_cgp in element order
    carrier = FinCarrier.atoms(["-1", "0", "1"])
    C = CarrierConn(
        "pcgc", carrier, FinPoset.discrete(["a", "b"]),
        {"-1": "a", "0": "a", "1": "b"}, {"a": {"-1", "0"}, "b": {"1"}},
        carrier_order=build_poset(carrier.values, [("-1", "1"), ("0", "1")]),
    )
    assert check_pcgc(C) == literal_pcgc(C) == PCGCReport(
        False, True, ("eta-monotone", "0", "1"))
    assert check_cgp(C) == literal_cgp(C) == CheckResult(
        False, ("eta-monotone", "-1", "1"))


def test_accepting_pcgc_makes_no_leq_calls():
    C = catalog.builtin("signconst_pcgc", 64)
    counting = CountingPoset(C.abstract_poset)
    D = CarrierConn("pcgc", C.carrier, counting, C.eta, C.mu)
    assert check_pcgc(D).ok
    assert counting.leqs == 0
    assert literal_pcgc(D).ok and counting.leqs > 0


@settings(max_examples=300, deadline=None)
@given(connections())
def test_gamma_additive_agrees_with_the_pairwise_scan(case):
    carrier, lat, gamma = case
    G = conn(carrier, lat, gamma)
    expected = pairwise_additive(G)
    assert _gamma_additive(G) == expected

    counting = CountingLattice(lat)
    assert counting.join_irreducibles() == lat.join_irreducibles()
    assert _gamma_additive(conn(carrier, counting, gamma)) == expected
    if expected[0]:
        assert counting.joins == len(lat.elements) * len(lat.join_irreducibles())


@settings(max_examples=200, deadline=None)
@given(connections())
def test_classify_agrees_with_the_literal_classification(case):
    G = conn(*case)
    assert classify_partitioning(G) == literal_classify(G)


def test_join_irreducibles_of_non_distributive_lattices():
    # neither is join-prime: in M3, a <= b v c = 1 but a is below neither;
    # in N5 (a < c), c <= a v b = 1 but c is below neither
    assert m3().join_irreducibles() == frozenset("abc")
    assert n5().join_irreducibles() == frozenset("abc")


def test_additivity_of_the_256_element_powerset_makes_2048_joins():
    atoms = [f"b{i}" for i in range(8)]
    lat = powerset_lattice(atoms)
    counting = CountingLattice(lat)
    G = conn(FinCarrier.atoms(atoms), counting, lat.members)
    assert _gamma_additive(G) == (True, None)
    assert counting.joins == 256 * 8 == 2048


def test_a_missing_join_raises_as_in_the_pairwise_scan():
    # not closed under union: the singletons' joins are missing, and the
    # reduced scan meets {c} v {d} before the pairwise scan's {a} v {b}
    atoms = ["a", "b", "c", "d"]
    lat = SetLattice.from_family(atoms, [[], ["c"], ["d"], ["a"], ["b"], atoms])
    G = conn(FinCarrier.atoms(atoms), lat, lat.members)
    with pytest.raises(NotCompleteLattice) as expected:
        pairwise_additive(G)
    with pytest.raises(NotCompleteLattice) as got:
        _gamma_additive(G)
    assert (got.value.pair, got.value.direction) == (("{a}", "{b}"), "lub")
    assert got.value.pair == expected.value.pair


@pytest.mark.parametrize("name", ["sign_pgi", "sign_minus_ppgc"])
def test_check_gc_reports_disjunctivity_as_the_pairwise_scan(name):
    G = catalog.builtin(name, 3)
    rep = check_gc(G)
    assert rep.is_gc
    assert (rep.is_disjunctive, rep.witness) == pairwise_additive(G)


# ---------------------------------------------------------------------------
# the adjunction read off gamma


@st.composite
def gc_conns(draw):
    """A connection over up to four carrier values, unordered, discretely
    ordered or (mostly) ordered: a Galois connection,
    gamma(d) = {x | a_x <= d} for a monotone atom map a, that connection
    with one membership flipped, or an arbitrary gamma.  Its alpha table is
    absent, exact (the least gamma-covers), or part of it with, sometimes,
    one value changed."""
    lat = draw(LATTICES)
    n = draw(st.integers(1, 4))
    values = [f"c{i}" for i in range(n)]
    order = draw(st.sampled_from(["none", "discrete", "ordered", "ordered"]))
    if order == "ordered":
        order = build_poset(values, [(values[i], values[j]) for i in range(n)
                                     for j in range(i + 1, n)
                                     if draw(st.booleans())])
    else:
        order = FinPoset.discrete(values) if order == "discrete" else None
    elems = sorted_elems(lat.elements)
    shape = draw(st.sampled_from(["gc", "perturbed", "arbitrary"]))
    if shape == "arbitrary":
        gamma = {d: draw(st.frozensets(st.sampled_from(values))) for d in elems}
    else:
        cap = {x: draw(st.sampled_from(elems)) for x in values}
        below = (order or FinPoset.discrete(values)).down
        atom = {x: lat.lub(cap[y] for y in below(x)) for x in values}
        gamma = {d: frozenset(x for x in values if lat.leq(atom[x], d))
                 for d in elems}
        if shape == "perturbed":
            gamma[draw(st.sampled_from(elems))] ^= {draw(st.sampled_from(values))}
    G = GaloisConn(FinCarrier.atoms(values), lat, gamma, carrier_order=order)
    tabled = draw(st.sampled_from(["none", "exact", "partial"]))
    if tabled == "none":
        return G
    table = {X: least_cover(G, X) for X in G.iter_concrete()}
    table = {X: d for X, d in table.items() if d is not None}
    if tabled == "partial" and table:
        keys = draw(st.lists(st.sampled_from(list(table)), unique=True))
        table = {X: table[X] for X in keys}
        if table and draw(st.booleans()):
            table[draw(st.sampled_from(keys))] = draw(st.sampled_from(elems))
    return GaloisConn(G.carrier, lat, gamma, carrier_order=order,
                      alpha_table=table)


@settings(max_examples=600, deadline=None)
@given(gc_conns())
def test_check_gc_agrees_with_the_literal_scan(G):
    rep = check_gc(G)
    assert rep == literal_gc(G)
    if rep.is_gc:
        # alpha is the least gamma-cover of every carrier subset, concrete
        # or not
        for X in map(frozenset, subsets_by_size(G.carrier.values)):
            assert G.alpha(X) == least_cover(G, X)


def gamma_mutants(G: GaloisConn):
    """G with each single membership of gamma flipped, and, when G has an
    alpha table, with each of its first 40 entries moved to the next
    element."""
    values = sorted_elems(G.carrier.values)
    for d in sorted_elems(G.gamma):
        for x in values:
            yield GaloisConn(
                G.carrier, G.abstract, {**G.gamma, d: G.gamma[d] ^ {x}},
                carrier_order=G.carrier_order, alpha_table=G.alpha_table)
    elems = G.abstract_poset.elements
    for X in list(G.alpha_table or {})[:40]:
        moved = elems[(elems.index(G.alpha_table[X]) + 1) % len(elems)]
        yield GaloisConn(
            G.carrier, G.abstract, G.gamma, carrier_order=G.carrier_order,
            alpha_table={**G.alpha_table, X: moved})


MUTATED = {
    "sign_pgi": lambda: catalog.builtin("sign_pgi", 3),
    "sign_minus_ppgc": lambda: catalog.builtin("sign_minus_ppgc", 3),
    "t_pgc": lambda: t_pgc(catalog.gen_cgc(3, amax=5, bmax=3)),
    "loaded_sign_pgi": lambda: fileio.domain_from_dict(
        fileio.domain_to_dict(catalog.builtin("sign_pgi", 2))),
    **{f"downsets_gc_{s}": lambda s=s: catalog.gen_downsets_gc(s, amax=5)
       for s in range(4)},
    **{f"ppgc_{s}": lambda s=s: catalog.gen_ppgc(s) for s in range(4)},
}


@pytest.mark.parametrize("name", MUTATED)
def test_check_gc_agrees_with_the_literal_scan_on_mutants(name):
    G = MUTATED[name]()
    assert check_gc(G) == literal_gc(G)
    for M in gamma_mutants(G):
        assert check_gc(M) == literal_gc(M)


def a_below_b(gamma_bot) -> GaloisConn:
    """The carrier a <= b under the chain bot < top, gamma(top) = {a, b}."""
    return GaloisConn(
        FinCarrier.atoms(["a", "b"]), lattice_of(["bot", "top"], [("bot", "top")]),
        {"bot": gamma_bot, "top": {"a", "b"}},
        carrier_order=build_poset(["a", "b"], [("a", "b")]),
    )


def test_check_gc_rejects_a_gamma_outside_the_downsets():
    # {b} is no downset of a <= b; a scan of the downsets X never meets it,
    # since only {} lies inside it, and so accepted this gamma
    assert check_gc(a_below_b({"b"})) == GCReport(
        False, False, False, ("gamma-downclosed", "bot"))
    assert check_gc(a_below_b({"a"})) == GCReport(True, True, False, ("bot",))
    assert check_gc(a_below_b(set())) == GCReport(True, True, True)


@pytest.mark.parametrize("name, bound, expected", [
    ("sign_pgi", 64, GCReport(True, True, True)),
    ("interval_gi_d", 16, GCReport(True, True, False, ("[-5,-1]", "[1,5]"))),
], ids=["sign_pgi", "interval_gi_d"])
def test_check_gc_decides_connections_too_large_to_scan(name, bound, expected):
    # 2^129 and 2^33 concrete subsets
    G = catalog.builtin(name, bound)
    assert check_gc(G) == expected
    assert (expected.is_disjunctive, expected.witness) == pairwise_additive(G)


def test_check_gc_guards_the_witness_scan_of_oversized_carriers(sign_pgi):
    # without -1 in gamma(<0), -1 is held by ≤0, ≠0 and Z, which have no
    # least element: finding the first failing X means enumerating 2^129
    gamma = {**sign_pgi.gamma, "<0": sign_pgi.gamma["<0"] - {"-1"}}
    G = GaloisConn(sign_pgi.carrier, sign_pgi.abstract, gamma)
    with pytest.raises(TooLarge):
        check_gc(G)
    with pytest.raises(ShapeMismatch, match="no best abstraction"):
        G.alpha(["-1"])


# ---------------------------------------------------------------------------
# the classification memo and immutability


def rebuilt(G: GaloisConn) -> GaloisConn:
    return GaloisConn(
        G.carrier, G.abstract, dict(G.gamma), carrier_order=G.carrier_order,
        kind=G.kind,
    )


@pytest.mark.parametrize("make", [
    lambda: t_pgc(catalog.gen_cgc(7, amax=5, bmax=4)),
    lambda: catalog.gen_ppgc(3),
    lambda: catalog.builtin("interval_gi_d", 10),
])
def test_classify_is_computed_once_per_connection(make):
    G = make()
    rep = classify_partitioning(G)
    assert classify_partitioning(G) is rep
    fresh = classify_partitioning(rebuilt(G))
    assert fresh == rep and fresh is not rep


@pytest.mark.parametrize("make", [
    lambda: t_pgc(catalog.gen_cgc(7, amax=5, bmax=4)),
    lambda: catalog.builtin("sign_minus_ppgc", 3),
])
def test_additivity_is_computed_once_per_connection(make):
    # classify_partitioning and check_gc share one additivity scan, also on
    # a PPGC, where the scan falls back to the pairwise witness
    G = make()
    counting = CountingLattice(G.abstract_lattice)
    H = GaloisConn(
        G.carrier, counting, dict(G.gamma), carrier_order=G.carrier_order,
        alpha_table=G.alpha_table,
    )
    classify_partitioning(H)
    joins = counting.joins
    rep = check_gc(H)
    assert counting.joins == joins
    assert (rep.is_disjunctive, rep.witness) == pairwise_additive(H)


def test_classify_ignores_kind_tags():
    G = catalog.builtin("interval_gi_d", 10)
    tagged = GaloisConn(G.carrier, G.abstract, dict(G.gamma), kind="pgc")
    assert classify_partitioning(tagged).category != "PGC"
    with pytest.raises(NotInClass):
        t_cgc_of_pgc(tagged)


def test_connections_are_immutable():
    G = t_pgc(catalog.sign_cgc(4))
    d = next(iter(G.gamma))
    for name in ("gamma", "kind", "abstract", "_atoms", "_classified"):
        with pytest.raises(AttributeError):
            setattr(G, name, None)
        with pytest.raises(AttributeError):
            delattr(G, name)
    with pytest.raises(TypeError):
        G.gamma[d] = frozenset()
    with pytest.raises(TypeError):
        del G.gamma[d]
    with pytest.raises(TypeError):
        G.gamma.update({d: frozenset()})
    with pytest.raises(TypeError):
        G.gamma |= {}
    # still a dict to readers such as JSON encoders
    assert isinstance(G.gamma, dict)
    assert json.loads(json.dumps(G.gamma, default=sorted)) == {
        k: sorted(v) for k, v in G.gamma.items()}

    lat = powerset_lattice(["x"])
    T = GaloisConn(
        FinCarrier.atoms(["x"]), lat, lat.members,
        alpha_table={(): "{}", ("x",): "{x}"},
    )
    with pytest.raises(TypeError):
        T.alpha_table[frozenset()] = "{x}"
    assert T.alpha([]) == "{}"


@settings(max_examples=300, deadline=None)
@given(carrier_conns())
def test_kept_carrier_verdicts_equal_the_uncached_checks(C):
    for check in (check_cgc, check_cgp, check_pcgc):
        report = check(C)
        assert report == check.__wrapped__(C)
        assert check(C) is report


def test_carrier_connections_and_closure_operators_are_immutable():
    C = catalog.builtin("parity", 4)
    a, b = next(iter(C.eta.items()))
    for name in ("eta", "mu", "kind", "abstract", "carrier_order", "_verdicts"):
        with pytest.raises(AttributeError):
            setattr(C, name, None)
        with pytest.raises(AttributeError):
            delattr(C, name)
    with pytest.raises(TypeError):
        C.eta[a] = b
    with pytest.raises(TypeError):
        C.mu[b] = frozenset()
    with pytest.raises(TypeError):
        C.mu.update({"ghost": frozenset()})
    phi = t_cco(C)
    for name in ("phi", "carrier"):
        with pytest.raises(AttributeError):
            setattr(phi, name, None)
        with pytest.raises(AttributeError):
            delattr(phi, name)
    with pytest.raises(TypeError):
        phi.phi[a] = frozenset()
    # still dicts to readers such as JSON encoders
    assert isinstance(C.mu, dict) and isinstance(phi.phi, dict)


# ---------------------------------------------------------------------------
# best-correct-approximation entries as a set image


@st.composite
def arith_images(draw):
    """An integer carrier, an operator and two mu-style argument sets: empty,
    a singleton, a contiguous range, the whole carrier or any subset."""
    mode = draw(st.sampled_from([SATURATING, MODULAR]))
    lo = draw(st.integers(-9, 4))
    size = draw(st.integers(1, 7)) * 2 if mode == MODULAR else draw(st.integers(1, 14))
    carrier = FinCarrier.ints(lo, lo + size - 1, mode)
    values = carrier.values

    def subset():
        i = draw(st.integers(0, size - 1))
        j = draw(st.integers(i, size - 1))
        return draw(st.sampled_from([
            frozenset(),
            frozenset([values[i]]),
            frozenset(values[i:j + 1]),
            carrier.value_set(),
            draw(st.frozensets(st.sampled_from(values))),
        ]))

    return carrier, draw(st.sampled_from("+-*")), subset(), subset()


@settings(max_examples=500, deadline=None)
@given(arith_images())
@example((FinCarrier.ints(-4, 3, MODULAR), "*", frozenset(), frozenset({"3"})))
@example((FinCarrier.ints(-4, 4), "-", frozenset({"-4", "4"}), frozenset()))
def test_arith_image_agrees_with_the_literal_product(case):
    carrier, op, xs, ys = case
    table = CountingArithTable(carrier, op)
    f = ConcreteFn(2, table)
    image = f.image(xs, ys)
    assert table.reads == 0
    assert image == table.image(xs, ys) == literal_image(f, xs, ys)
    assert table.reads == len(xs) * len(ys)


def parity_pcgc():
    """parity(8) with a bottom and a top: a PCGC over a modular carrier."""
    return t_pcgc(t_pgc(catalog.builtin("parity", 8)))


@pytest.mark.parametrize("make", [
    lambda: catalog.builtin("signconst_pcgc", 16), parity_pcgc,
], ids=["signconst_pcgc", "parity"])
def test_bca_entries_agree_with_the_literal_lub(make):
    C = make()
    ops = AbstractSemantics(C).ops
    elems = C.abstract.elements
    for op, y1, y2 in product("+-*", elems, elems):
        f = ops[op]
        assert bca_pcgc_entry(C, f, y1, y2) == literal_bca_entry(C, f, y1, y2)


def test_bca_entries_read_no_arithmetic_table_entry():
    C = catalog.builtin("signconst_pcgc", 16)
    elems = C.abstract.elements
    for op in "+-*":
        table = CountingArithTable(C.carrier, op)
        f = ConcreteFn(2, table)
        for y1, y2 in product(elems, elems):
            bca_pcgc_entry(C, f, y1, y2)
        assert table.reads == 0
        literal_bca_entry(C, f, "Z", "<0")
        assert table.reads == len(C.mu["Z"]) * len(C.mu["<0"])


def test_generic_image_names_the_first_undefined_key_in_sorted_order():
    values = [str(n) for n in range(-3, 12)]
    # undefined wherever a + b > 8: in the sorted scan ("-2", "11") comes
    # first; a lexical scan would meet ("-1", "10") first
    f = ConcreteFn(2, {
        (a, b): a for a in values for b in values if int(a) + int(b) <= 8
    })
    for xs in (values, values[::-1], set(values)):
        with pytest.raises(ShapeMismatch, match=r"\('-2', '11'\)"):
            f.image(xs, xs)
    g = ConcreteFn(1, {v: v for v in values if int(v) < 2})
    with pytest.raises(ShapeMismatch, match="'2'"):
        g.image(set(values))
    with pytest.raises(ShapeMismatch):
        f.image(values)


# ---------------------------------------------------------------------------
# backward completeness of purely constructive pairs


def literal_backward_complete(C: CarrierConn, pair: FnPair) -> CheckResult:
    """lub eta(f(X⃗)) = f♯(alpha(X⃗)) on every tuple of carrier subsets, the
    subsets listed by size and the tuples in product order, first failure.

    Each lub over a subset is kept in a table indexed by the subset's mask,
    as the lub over the subset less its lowest value joined with that
    value's term, so that a tuple costs one join and one f♯ lookup and all
    4^8 pairs over 8 values fit in the time of a unit test."""
    lat, eta = C.abstract, C.eta
    f, fs = pair.concrete, pair.abstract
    values = sorted_elems(C.carrier.values)
    bit = {v: 1 << i for i, v in enumerate(values)}
    subsets = [(sum(bit[v] for v in c), set_name(c)) for c in subsets_by_size(values)]

    def lubs(term) -> list:
        """lub {term(v) | v in X} for every mask X."""
        out = [lat.bottom]
        for m in range(1, 1 << len(values)):
            low = m & -m
            out.append(lat.join(out[m ^ low], term(values[low.bit_length() - 1])))
        return out

    alpha = lubs(eta.__getitem__)
    if pair.arity == 1:
        left = lubs(lambda x: eta[f(x)])
        for m, X in subsets:
            if left[m] != fs(alpha[m]):
                return CheckResult(False, ((X,), left[m], fs(alpha[m])))
        return CheckResult(True)
    rows = [lubs(lambda y: eta[f(x, y)]) for x in values]
    left = {0: [lat.bottom] * len(alpha)}  # left[m1][m2], filled as m1 is reached
    for m1, X1 in subsets:
        if m1:
            low = m1 & -m1
            left[m1] = list(map(lat.join, left[m1 ^ low], rows[low.bit_length() - 1]))
        for m2, X2 in subsets:
            lhs, rhs = left[m1][m2], fs(alpha[m1], alpha[m2])
            if lhs != rhs:
                return CheckResult(False, ((X1, X2), lhs, rhs))
    return CheckResult(True)


def backward_cases(seed: int, arity: int):
    """Over t_pcgc(gen_ppgc(seed)): a random f with a random f♯ and with its
    best correct approximation, and the best correct approximation of an f
    constant on blocks (on pairs of blocks at arity 2)."""
    C = t_pcgc(catalog.gen_ppgc(seed))
    rng = random.Random(f"backward:{seed}:{arity}")
    elems = sorted_elems(C.abstract.elements)
    values = sorted_elems(C.carrier.values)
    key = (lambda t: t[0]) if arity == 1 else (lambda t: t)
    f = catalog.gen_fn(rng, C.carrier, arity)
    yield FnPair(C, f, AbstractFn(
        arity, {key(ys): rng.choice(elems) for ys in product(elems, repeat=arity)}))
    yield FnPair(C, f, bca_pcgc(C, f))
    blocks = C.blocks()
    out = {bs: rng.choice(values) for bs in product(blocks, repeat=arity)}
    g = ConcreteFn(arity, {
        key(xs): out[tuple(C.mu[C.eta[x]] for x in xs)]
        for xs in product(values, repeat=arity)
    })
    yield FnPair(C, g, bca_pcgc(C, g))


def members(name: str) -> frozenset:
    """The subset that ``set_name`` names, for comma-free member names."""
    return frozenset(x for x in name[1:-1].split(",") if x)


@pytest.mark.parametrize("arity", [1, 2])
def test_backward_completeness_agrees_with_every_tuple_of_subsets(arity):
    verdicts = []
    for seed in range(200):
        for pair in backward_cases(seed, arity):
            C, lat = pair.conn, pair.conn.abstract
            res = pcgc_pair_property(C, pair, "backward_complete")
            lit = literal_backward_complete(C, pair)
            assert res.ok == lit.ok, (seed, res, lit)
            n, b = len(C.carrier), len(lat.elements)
            bound = arity * b ** (arity - 1) * (1 + b * n) + n ** arity
            assert len(_backward_tuples(C, arity)) <= bound
            verdicts.append(res.ok)
            if res.ok:
                continue
            # the witness fails the literal law, and at arity 1 no smaller
            # subset does
            names, lhs, rhs = res.witness
            Xs = [members(X) for X in names]
            assert lhs == lat.lub(C.eta[o] for o in pair.concrete.image(*Xs)) != rhs
            assert rhs == pair.abstract(*(lat.lub(C.eta[x] for x in X) for X in Xs))
            if arity == 1:
                assert len(Xs[0]) == len(members(lit.witness[0][0]))
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# compiled programs: the concrete oracle and the abstract evaluator


VARS = ("x", "y", "z")
ORACLE_CAP = 300


def int_carriers():
    """Saturating ranges of any size and modular ranges of even size."""
    return st.builds(
        lambda mode, lo, half, odd: FinCarrier.ints(
            lo, lo + 2 * half - 1 - (odd and mode == SATURATING), mode),
        st.sampled_from([SATURATING, MODULAR]), st.integers(-9, 2),
        st.integers(1, 8), st.booleans(),
    )


LITERALS = st.integers(-40, 40)  # well beyond any carrier bound drawn here
LABELS = st.integers(1, 6)  # labels may repeat and need not follow the syntax
VAR_NAMES = st.sampled_from(VARS)
ARITH = st.sampled_from("+-*")
COMPARISONS = st.sampled_from(CMP_OPS)
KINDS = st.integers(0, 3)


def draw_expr(draw, depth: int):
    """A literal, a variable or, above depth 0, an operation."""
    kind = draw(KINDS) if depth else draw(KINDS) % 2
    if kind == 0:
        return Lit(draw(LITERALS))
    if kind == 1:
        return Var(draw(VAR_NAMES))
    return BinOp(draw(ARITH), draw_expr(draw, depth - 1), draw_expr(draw, depth - 1))


def draw_block(draw, depth: int) -> tuple:
    return tuple(draw_stmt(draw, depth) for _ in range(draw(KINDS)))


def draw_stmt(draw, depth: int):
    """An assignment, a skip or, above depth 0, an if or a while."""
    kind = draw(KINDS) if depth else draw(KINDS) % 2
    if kind == 0:
        return Assign(draw(VAR_NAMES), draw_expr(draw, 2), draw(LABELS))
    if kind == 1:
        return Skip(draw(LABELS))
    cond = Cmp(draw(COMPARISONS), draw_expr(draw, 1), draw_expr(draw, 1))
    if kind == 2:
        return If(cond, draw_block(draw, depth - 1), draw_block(draw, depth - 1),
                  draw(LABELS))
    return While(cond, draw_block(draw, depth - 1), draw(LABELS))


st_expr = st.composite(lambda draw: draw_expr(draw, 3))


@st.composite
def oracle_cases(draw):
    """A carrier and a program of nested statements that assigns every
    variable first."""
    init = tuple(Assign(v, Lit(draw(LITERALS)), draw(LABELS)) for v in VARS)
    body = init + tuple(draw_stmt(draw, 2) for _ in range(draw(KINDS) + 1))
    return draw(int_carriers()), Program(body, 6)


def observations(seen: dict) -> int:
    return sum(len(envs) for label, envs in seen.items() if label != "end")


SPINNER = parse_program(program_text("p08_budget_spinner.while"))


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
@example((FinCarrier.ints(-4, 4), SPINNER))
@example((FinCarrier.ints(-4, 3, MODULAR), parse_program(
    "x := 3; y := 0; while x != 0 do { x := x * 2 - 1; if x >= y then { skip; }"
    " else { y := y - 9; } }")))
def test_concrete_run_agrees_with_the_literal_oracle(case):
    carrier, program = case
    full = literal_concrete_run(program, carrier, ORACLE_CAP)
    need = observations(full) if "end" in full else None
    budgets = set(range(25)) | {ORACLE_CAP}
    if need is not None:
        budgets |= {need - 1, need, need + 1}
    for budget in sorted(b for b in budgets if b >= 0):
        seen = concrete_run(program, carrier, budget)
        expected = literal_concrete_run(program, carrier, budget)
        assert seen == expected
        assert list(seen) == list(expected)
        finished = need is not None and need <= budget
        assert ("end" in seen) == finished
        assert observations(seen) == (need if finished else budget)


@pytest.mark.parametrize("name", program_names())
def test_the_oracle_never_mutates_a_recorded_environment(name, signconst):
    # the literal oracle records a copy of each environment when it is seen,
    # so equal results mean nothing the oracle recorded changed afterwards
    program = parse_program(program_text(name))
    seen = concrete_run(program, signconst.carrier, 10_000)
    assert seen == literal_concrete_run(program, signconst.carrier, 10_000)


def test_recorded_environments_are_shared_not_copied(signconst):
    program = parse_program("x := 1; skip; skip;")
    seen = concrete_run(program, signconst.carrier)
    assert seen["L2"][0] is seen["L3"][0] is seen["end"][0]


class LoggingSemantics(AbstractSemantics):
    """Abstract semantics that logs every ``op_entry`` call."""

    def __init__(self, domain):
        super().__init__(domain)
        self.log: list = []

    def op_entry(self, op, b1, b2):
        self.log.append((op, b1, b2))
        return super().op_entry(op, b1, b2)


EVAL_DOMAINS = {
    "signconst_pcgc": catalog.builtin("signconst_pcgc", 10),
    "parity": parity_pcgc(),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(EVAL_DOMAINS)),
       st.lists(st_expr(), min_size=1, max_size=3), st.data())
def test_abstract_eval_agrees_with_the_literal_chain(name, exprs, data):
    # each expression twice, in fresh states, so compiled ones are reused
    C = EVAL_DOMAINS[name]
    sem = LoggingSemantics(C)
    for expr in exprs + exprs:
        state = data.draw(st.dictionaries(
            st.sampled_from(VARS), st.sampled_from(C.abstract.elements)))
        sem.log = []
        try:
            expected = literal_abstract_eval(sem, expr, state)
        except UnknownVariable as exc:
            with pytest.raises(UnknownVariable, match=re.escape(str(exc))):
                sem.eval(expr, state)
            continue
        literal_log, sem.log = sem.log, []
        assert sem.eval(expr, state) == expected
        assert sem.log == literal_log


@settings(max_examples=500, deadline=None)
@given(int_carriers(), st.one_of(st.integers(-60, 60), st.integers()))
def test_clamp_int_agrees_with_its_formulas(carrier, n):
    lo, hi = carrier.lo, carrier.hi
    if carrier.mode == MODULAR:
        expected = lo + (n - lo) % (hi - lo + 1)
    else:
        expected = min(max(n, lo), hi)
    assert carrier.clamp_int(n) == expected
    assert carrier.clamp(n) == str(expected)


# ---------------------------------------------------------------------------
# bound tables and Moore families


def literal_bounds(poset: FinPoset):
    """``(top, bottom, lub, glb)`` by the pairwise search, the bounds keyed
    by ordered pairs: a bottom below every element, a top above every
    element, and per pair in ``combinations`` order the upper bound whose
    up-set holds every upper bound (then the lower bound likewise), raising
    NotCompleteLattice at the first that is missing."""
    elems = poset.elements
    if not elems:
        raise NotCompleteLattice((), "element")
    bottom = next((x for x in elems if all(poset.leq(x, y) for y in elems)), None)
    top = next((x for x in elems if all(poset.leq(y, x) for y in elems)), None)
    if bottom is None or top is None:
        raise NotCompleteLattice((), "top" if top is None else "bottom")
    lub = {(x, x): x for x in elems}
    glb = dict(lub)
    for x, y in combinations(elems, 2):
        ub = poset.up(x) & poset.up(y)
        least = next((z for z in ub if poset.up(z) >= ub), None)
        if least is None:
            raise NotCompleteLattice((x, y), "lub")
        lb = poset.down(x) & poset.down(y)
        greatest = next((z for z in lb if poset.down(z) >= lb), None)
        if greatest is None:
            raise NotCompleteLattice((x, y), "glb")
        lub[x, y] = lub[y, x] = least
        glb[x, y] = glb[y, x] = greatest
    return top, bottom, lub, glb


@st.composite
def listed_posets(draw):
    """A random poset on up to 8 elements, listed in a random order, often
    with a least and a greatest element added, and often with a planted
    bowtie (a, b < c, d), so that many are lattices and many others lack a
    pairwise lub or glb."""
    n = draw(st.integers(1, 8))
    rank = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(n)
             if rank[i] < rank[j] and draw(st.integers(0, 3)) == 0]
    if n >= 4 and draw(st.booleans()):
        a, b, c, d = sorted(draw(st.permutations(range(n)))[:4], key=rank.__getitem__)
        pairs += [(a, c), (a, d), (b, c), (b, d)]
    names = [str(i) for i in range(n)]
    pairs = [(str(i), str(j)) for i, j in pairs]
    if draw(st.integers(0, 3)):
        pairs += [("⊥", x) for x in names] + [(x, "⊤") for x in names]
        names += ["⊥", "⊤"]
    return build_poset(draw(st.permutations(names)), pairs)


# x and y have neither a lub nor a glb, and they are the first pair
DOUBLE_BOWTIE = build_poset(
    ["x", "y", "l1", "l2", "u1", "u2", "⊥", "⊤"],
    [(lo, hi) for lo, his in [("⊥", ["l1", "l2"]), ("l1", "xy"), ("l2", "xy"),
                             ("x", ["u1", "u2"]), ("y", ["u1", "u2"]),
                             ("u1", ["⊤"]), ("u2", ["⊤"])]
     for hi in his],
)


@settings(max_examples=600, deadline=None)
@given(listed_posets())
@example(DOUBLE_BOWTIE)
@example(m3().base)
@example(n5().base)
@example(build_poset(["x"], []))
@example(FinPoset((), ()))
def test_from_poset_agrees_with_the_pairwise_search(poset):
    try:
        top, bottom, lub, glb = literal_bounds(poset)
    except NotCompleteLattice as exc:
        with pytest.raises(NotCompleteLattice) as got:
            FinLattice.from_poset(poset)
        assert (got.value.pair, got.value.direction) == (exc.pair, exc.direction)
        return
    lat = FinLattice.from_poset(poset)
    assert (lat.top, lat.bottom) == (top, bottom)
    pairs = list(product(poset.elements, repeat=2))
    assert {p: lat.join(*p) for p in pairs} == lub
    assert {p: lat.meet(*p) for p in pairs} == glb


@pytest.mark.parametrize("bound", [
    lambda lat: lat.join("a", "ghost"),
    lambda lat: lat.join("ghost", "a"),
    lambda lat: lat.meet("a", "ghost"),
    lambda lat: lat.meet("ghost", "a"),
    lambda lat: lat.lub(["a", "ghost"]),
    lambda lat: lat.glb(["ghost"]),
], ids=["join-right", "join-left", "meet-right", "meet-left", "lub", "glb"])
@pytest.mark.parametrize("make", [m3, n5])
def test_bounds_of_an_unknown_name_raise_unknown_element(make, bound):
    with pytest.raises(UnknownElement, match="ghost"):
        bound(make())


def literal_moore(family) -> tuple:
    """(elements, up-sets, gamma) as the generators built them before
    ``moore_lattice``: re-scan every pair of sets until no intersection is
    new, name each set, and compare every pair of sets for up-sets."""
    family = closed(family, frozenset.__and__)
    names = {s: set_name(s) for s in family}
    up = {names[s]: frozenset(names[t] for t in family if s <= t) for s in family}
    return tuple(sorted(names.values())), up, {names[s]: s for s in family}


def ppgc_family(seed: int) -> list:
    """The family of block unions ``gen_ppgc(seed)`` draws, closed under
    intersection on block indices as the generator closed it."""
    rng = random.Random(f"ppgc:{seed}")
    values = [f"a{i}" for i in range(rng.randint(2, 8))]
    blocks = catalog._random_partition(rng, values, 5)
    k = len(blocks)
    family = {frozenset([i]) for i in range(k)} | {frozenset(range(k)), frozenset()}
    for _ in range(rng.randint(0, 3)):
        family.add(frozenset(rng.sample(range(k), rng.randint(1, k))))
    return [frozenset().union(*(blocks[i] for i in ix))
            for ix in closed(family, frozenset.__and__)]


def downsets_family(seed: int) -> list:
    """The downsets ``gen_downsets_gc(seed)`` draws, with the whole carrier."""
    rng = random.Random(f"gc:{seed}")
    n = rng.randint(2, 6)
    values = [f"a{i}" for i in range(n)]
    pairs = [(values[i], values[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    downsets = list(iter_downsets(build_poset(values, pairs)))
    return [frozenset(values)] + [ds for ds in downsets if rng.random() < 0.4]


@pytest.mark.parametrize("make, family", [
    (catalog.gen_ppgc, ppgc_family),
    (catalog.gen_downsets_gc, downsets_family),
], ids=["gen_ppgc", "gen_downsets_gc"])
def test_moore_lattices_match_the_closure_loop(make, family):
    for seed in range(500):
        G = make(seed)
        elements, up, gamma = literal_moore(family(seed))
        assert type(G.abstract) is FinLattice
        assert G.abstract.elements == elements
        assert {x: G.abstract.base.up(x) for x in elements} == up
        assert dict(G.gamma) == gamma


def test_a_moore_lattice_joins_to_the_least_member_above_the_union():
    lat, members = moore_lattice("abc", [["a"], ["b"]])
    assert lat.elements == ("{a,b,c}", "{a}", "{b}", "{}")
    assert members == {"{a,b,c}": frozenset("abc"), "{a}": frozenset("a"),
                       "{b}": frozenset("b"), "{}": frozenset()}
    assert lat.join("{a}", "{b}") == "{a,b,c}"
    assert lat.meet("{a}", "{b}") == "{}"
    with pytest.raises(UnknownElement, match="'d'"):
        moore_lattice("abc", [["d"]])


# ---------------------------------------------------------------------------
# posets from up-masks, and the one closure worklist


def literal_up_sets(elements, pairs) -> dict:
    """Up-sets as ``build_poset`` closed them on name sets before it worked
    on masks: each set takes in the sets of its members until none grows."""
    succ = {x: {x} for x in elements}
    for lo, hi in pairs:
        succ[lo].add(hi)
    changed = True
    while changed:
        changed = False
        for x in elements:
            extra = set()
            for y in succ[x]:
                extra |= succ[y]
            if not extra <= succ[x]:
                succ[x] |= extra
                changed = True
    return {x: frozenset(s) for x, s in succ.items()}


def literal_downsets(poset: FinPoset) -> list:
    """Every downset, in the order ``iter_downsets`` yielded them before the
    worklist: frontier by frontier, each downset grown by the down-set of
    every element outside it, in sorted order."""
    elems = sorted_elems(poset.elements)
    seen = {frozenset()}
    frontier, out = [frozenset()], []
    while frontier:
        nxt = []
        for ds in frontier:
            out.append(ds)
            for x in elems:
                if x in ds:
                    continue
                grown = ds | poset.down(x)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return out


def literal_meet_closure(lat: FinLattice, members) -> frozenset:
    """``meet_closure`` as it was before the worklist: re-scan every pair
    until no glb is new."""
    closed = set(members) | {lat.top}
    changed = True
    while changed:
        changed = False
        for x, y in list(combinations(sorted_elems(closed), 2)):
            m = lat.glb([x, y])
            if m not in closed:
                closed.add(m)
                changed = True
    return frozenset(closed)


@st.composite
def named_relations(draw):
    """Up to 8 names in a random order and random pairs between them, along
    a random ranking (so acyclic) or anywhere (so often cyclic)."""
    names = draw(st.permutations(draw(NAMES)[:draw(st.integers(0, 8))]))
    if not names:
        return names, []
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=12))
    if draw(st.booleans()):
        rank = {x: i for i, x in enumerate(draw(st.permutations(names)))}
        pairs = [(x, y) for x, y in pairs if rank[x] <= rank[y]]
    return names, pairs


@st.composite
def named_posets(draw):
    names = draw(NAMES)[:draw(st.integers(1, 8))]
    return draw(named_poset(draw(st.permutations(names))))


@settings(max_examples=600, deadline=None)
@given(named_relations())
@example((list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]))
@example((["1", "01", "a,b"], [("01", "a,b"), ("a,b", "1")]))
def test_build_poset_agrees_with_the_name_set_closure(case):
    names, pairs = case
    up = literal_up_sets(names, pairs)
    cycle = next(((x, y) for i, x in enumerate(names) for y in names[i + 1:]
                  if y in up[x] and x in up[y]), None)
    if cycle is not None:
        # the witness is the first pair in element order on one cycle
        with pytest.raises(CycleDetected) as got:
            build_poset(names, pairs)
        assert str(got.value) == f"antisymmetry violated by {cycle[0]!r} and {cycle[1]!r}"
        return
    poset = build_poset(names, pairs)
    assert poset.elements == tuple(names)
    assert {x: poset.up(x) for x in names} == up
    assert {x: poset.down(x) for x in names} == {
        x: frozenset(y for y in names if x in up[y]) for x in names}
    assert poset == FinPoset(names, poset._upm)


@settings(max_examples=300, deadline=None)
@given(named_posets())
def test_iter_downsets_agrees_with_the_frontier_loop(poset):
    assert list(iter_downsets(poset)) == literal_downsets(poset)


# over atoms a, b and a,b the downsets {a, b} and {"a,b"} share a name
COMMA_FREE_POSETS = named_posets().filter(lambda p: all("," not in x for x in p.elements))


@settings(max_examples=300, deadline=None)
@given(st.one_of(LATTICES, COMMA_FREE_POSETS.map(downsets_lattice)).flatmap(
    lambda lat: st.tuples(st.just(lat), st.lists(st.sampled_from(lat.elements), max_size=5))))
def test_meet_closure_agrees_with_the_pairwise_loop(case):
    lat, members = case
    assert meet_closure(lat, members) == literal_meet_closure(lat, members)
    jirr = sorted(lat.join_irreducibles())
    assert meet_closure(lat, jirr) == literal_meet_closure(lat, jirr)


# One slice of the ordered round trip, as perfbench's ``ordered_op`` runs it,
# counting the joins of each seed, and the witness of a 4-cycle.
HASH_SEED_SLICE = """
import json
from galkit import catalog, galois, transforms
from galkit.errors import CycleDetected
from galkit.order import FinLattice, build_poset

joins = 0
plain_join = FinLattice.join

def counting_join(self, x, y):
    global joins
    joins += 1
    return plain_join(self, x, y)

FinLattice.join = counting_join
counts = []
for seed in range(40):
    joins = 0
    G = catalog.gen_downsets_gc(seed, amax=6)
    P = catalog.gen_ppgc(seed)
    C = transforms.t_cgp(G)
    galois.check_cgp(C)
    galois.precision_cmp(transforms.t_gc(C), G)
    D = transforms.t_pcgc(P)
    galois.check_pcgc(D)
    galois.precision_cmp(transforms.t_ppgc(D), P)
    counts.append(joins)
try:
    build_poset("abcd", ["ab", "bc", "cd", "da"])
except CycleDetected as exc:
    cycle = str(exc)
print(json.dumps([counts, cycle]))
"""


def test_join_counts_and_cycle_witnesses_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SLICE],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][1] == "antisymmetry violated by 'a' and 'b'"
