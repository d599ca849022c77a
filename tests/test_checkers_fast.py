"""The fast checkers against their literal definitions, and the per-connection
memos.

``_gamma_additive`` decides additivity per carrier value: the elements
whose gamma misses a value must be a principal downset, one of the
lattice's down-masks, and only a failing verdict scans the pairs, by
element index, for the witness.  Here it must agree, verdict and witness,
with the literal scan over all pairs, and call no ``join``, on powersets,
downset lattices, the Moore lattices of the generators, lattices built
with ``FinLattice.from_poset`` (M3, N5 and random closure systems, most of
them non-distributive) and other set families closed under union and
intersection, whose bottom need not be empty, for gammas that are not
monotone, whose gamma(bottom) is not empty, and that leave a value out of
every gamma(d); and on the generators' own connections.  The join-irreducibles
are found from up-masks, each lub the element whose up-mask is the AND of
the members'; here they must equal those found by ``FinLattice.lub`` and
name sets, on the same lattices.
``classify_partitioning`` as a whole must agree with a literal
classification, ``alt2prime`` included.  ``check_partition`` sorts a block
only once a clause fails; here it must agree with the sorted loop (witness
included, on names that tie as ints).

``check_cgc``, ``check_cgp`` and ``check_pcgc`` read each law off the holder
masks H(x) = {y | x in mu(y)} that the constructor keeps, which must equal
``_holder_masks`` of mu; here they must agree, verdict, ``cond1``/
``cond2`` and witness, with the literal pair scans, on passing, nearly
passing and arbitrary eta/mu over random, M3, N5 and discrete abstract
posets, with and without (non-discrete) carrier orders, for names that
parse as ints (some equal as ints, such as ``1`` and ``01``) and names that
do not, and on the builtins.  Each keeps its report on the immutable
connection; the kept report must equal that of the uncached check.  No
accepting run of a carrier checker, of ``check_gc``, of
``GaloisConn.atoms`` or of ``classify_partitioning`` may ask a poset for a
set of names (``up``/``down``), on the builtins and generated connections.

``check_gc`` reads the adjunction off the holder masks: gamma lands in the
downsets exactly when H(x) <= H(x') for every x' <= x, and every holder set
H(x) = {d | x in gamma(d)} is the up-set of an atom a_x.  When
a value has no atom, it names the witness from the values without one,
enumerating nothing.  Here it must agree, verdict, ``is_gi``,
``is_disjunctive`` and witness, with the literal scan of every concrete X and
abstract d, alpha being the least gamma-cover, on discrete and ordered
carriers, the lattices above, bare posets, and Galois connections, mutated
ones and arbitrary gammas; and alpha must agree with the least gamma-cover.
gamma is alpha's only source: a file's ``alpha`` table is checked where it
is loaded, so moving any one entry of a saved file makes it fail to load.
``atoms`` finds a_x by looking H(x) up among the up-masks, and alpha of one
member returns its atom; here both must agree, value or error, with the
least-element search and the ``lub`` path, with values outside the carrier,
values with no atom and abstract sides that are no lattice.
``_singleton_alpha`` reads alpha of each singleton off the atoms when every
value has one; here it must agree, values and their order or the first
error, with alpha of each value in the caller's order, on those connections
with their values renamed to names that tie as ints or hold ``,{}``, in
three orders.  ``t_pgc``'s powerset lift builds gamma by doubling and keeps
what the construction proves: the atoms {eta(x)} and the additivity verdict
(True, None).  Here gamma must equal
``lift_star`` at every subset, in element order, and the atoms and the
verdict those found from gamma by a fresh, validated connection, by the
per-value scan and by the pairwise definition, on criterion 4's 500
connections and on drawn ones with junk values; a gamma given by hand over
a powerset still gets its checks.  A warm powerset round trip must call
``GaloisConn.alpha``, ``_scan_additive`` and ``_holder_masks`` no time: the
collapsed connection's constructor keeps its holder masks in its one pass
over mu.  A warm ordered round trip must build holder masks once per new
connection and call neither ``is_down_closed`` nor ``GaloisConn.alpha``,
and ``t_ppgc`` of ``signconst_pcgc`` must scan as many pairs for its
witness at bound 128 as at bound 64.  A
loaded ``alpha`` table is compared in file order, so a failing load names
the first failing key of the file.

``ConcreteFn.image`` computes best-correct-approximation entries as a set
image; the analyzer's ``_ArithTable`` supplies its own integer ``image``. Here
both must agree with the literal image over the product of the argument
sets, and ``bca_pcgc_entry`` with the literal lub of eta over it.

``concrete_run`` and ``AbstractSemantics.eval`` run while programs compiled
into closures, and the oracle records environments without copying them.
Here the oracle must return the same dict, key order included, as the
literal AST walk that copies every environment it records, on generated
programs over saturating and modular carriers at every budget up to and
past exhaustion, and on programs that never terminate (repeated labels, a
loop node used twice, a cycle through an outer loop) at the budgets that
end around whole periods of the first state a loop head meets twice;
``eval`` must return the same element as the literal
``isinstance`` chain and make the same ``op_entry`` calls in the same order;
and ``clamp_int`` must agree with its min/max and modular formulas.

``AbstractSemantics`` keeps its operator entries on the connection, for
every later analysis over it.  Here the corpus, analyzed twice in a random
order interleaved over two connections that differ only in their bound,
must give the points (label and variable order included) and iteration
counts of an analysis over a freshly built connection that keeps no entry;
a pass over the corpus must compute each entry it asks for once, a second
pass none, and a connection from another ``builtin`` call all of them
again; and a domain that ``analyze`` refuses must keep none.

``FinLattice.from_poset`` finds each bound by one up-mask or down-mask
lookup; here it must agree, top, bottom, every join and meet, and the pair
and direction of ``NotCompleteLattice``, with the pairwise search on random
posets, lattices or not, with classes of 2-5 twins planted or not, M3, N5,
M5, the ``signconst_pcgc`` domain, bowties of twins and one element.  It
accepts after testing one pair per two classes of twins (elements with
the same strict up-set and strict down-set); here those classes must not
merge elements that share only their up-set, and the ``signconst_pcgc``
build must test as many pairs at bound 256 as at bound 16.  Every lattice folds
``lub`` and ``glb`` over its int keys one member at a time; here both must
agree, value or error, with a literal pairwise fold of the least common
upper bound (greatest lower bound) on random lists of members, also with
names outside the lattice.  ``moore_lattice_of_masks`` closes a family on
int masks and builds one ``SetLattice``, with no pairwise validation; the
generators built on it must keep the element order, up-sets and gamma of
the closure loop they used before.  Here, on random atoms (names that tie
as ints, hold a comma or a brace, or are not ASCII) and random families,
given as masks over atoms in any order, its elements, up-sets and members
must be the closure loop's (or the build must refuse a clash of names),
every join must be the least member above the union and every meet the
intersection, ``from_poset`` must accept its poset and find the same
join-irreducibles, and the generators must make no
``from_poset`` call and build one lattice per family.

``build_poset`` closes int up-masks, and ``FinPoset`` answers ``leq``,
``is_discrete``, ``is_down_closed`` and ``==`` on them and decodes name sets
only on demand; here those answers must be the eager decode's, and the
up-sets and down-sets must be those of the name-set closure it used before,
on names that parse as ints, look like set names or hold a comma, and a
cycle must be named by its first pair in element order.  ``iter_downsets``
decodes the downsets that ``downset_masks`` finds on int masks, and
``meet_closure`` runs on the shared worklist; here they must give the same
downsets in the same order as the frontier loop, and the same closure as
the loop that re-scans every pair.  Join and lub counts and cycle witnesses must
not depend on the hash seed.

``pcgc_pair_property(..., "backward_complete")`` compares lub eta(f(X⃗)) with
f♯(alpha(X⃗)) only on a polynomial family of tuples of subsets; here its
verdict must be that of the comparison on every tuple, over generated
purely constructive connections at arities 1 and 2, each failing witness
must fail the literal law, and at arity 1 no smaller subset may fail.
"""
from __future__ import annotations

import functools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import downsets_lattice, program_names, program_text

from galkit import analyzer, catalog, fileio, galois, order
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
    analyze,
    concrete_run,
    parse_program,
)
from galkit.errors import (
    CycleDetected,
    DomainMismatch,
    DuplicateElement,
    GalkitError,
    NotCompleteLattice,
    NotInClass,
    ShapeMismatch,
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
    nonempty_iso,
    precision_cmp,
    prt,
)
from galkit.order import (
    FinLattice,
    FinPoset,
    SetLattice,
    build_poset,
    iter_downsets,
    meet_closure,
    moore_lattice_of_masks,
    powerset_lattice,
    scan_order,
    set_name,
    sorted_elems,
    subsets_by_size,
)
from galkit.setops import (
    MODULAR,
    SATURATING,
    FinCarrier,
    PartitionReport,
    check_partition,
    lift_star,
)
from galkit.transforms import t_cco, t_cgc_of_pgc, t_cgp, t_gc, t_pcgc, t_pgc, t_ppgc


class CountingLattice(FinLattice):
    """A lattice that counts the joins and lubs asked of it; its bounds are
    those of ``lat``, and its poset is ``base``, a copy of that of ``lat``,
    when given."""

    __slots__ = ("joins", "lubs")

    def __init__(self, lat: FinLattice, base: FinPoset | None = None):
        super().__init__(base or lat.base, lat._of_dn)
        self.joins = self.lubs = 0

    def join(self, x, y):
        self.joins += 1
        return super().join(x, y)

    def lub(self, members):
        self.lubs += 1
        return super().lub(members)


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


def literal_concrete_run(program: Program, carrier, budget: int,
                         trail: list | None = None) -> dict:
    """The bounded concrete oracle as an AST walk that copies every
    environment it records; ``trail``, when given, also receives each
    observation as a (label, environment) pair, in step order."""
    seen: dict = {}
    steps = 0

    def note(label, env):
        seen.setdefault(label, []).append(dict(env))
        if trail is not None:
            trail.append((label, dict(env)))

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
    alpha(X) being the least gamma-cover, scanned pair by pair; alpha onto
    for ``is_gi``."""
    poset = G.abstract_poset
    elems = sorted_elems(poset.elements)
    cp = G.carrier_poset()
    for d in elems:
        if not cp.is_down_closed(G.gamma[d]):
            return GCReport(False, False, False, ("gamma-downclosed", d))
    seen = set()
    for X in G.iter_concrete():
        aX = least_cover(G, X)
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
    return SetLattice([f"b{i}" for i in range(width)], sorted(family))


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

# and the Moore lattices of the generators (their abstract sides)
ADDITIVITY_LATTICES = st.one_of(
    LATTICES,
    st.integers(0, 499).map(lambda seed: catalog.gen_ppgc(seed).abstract),
    st.integers(0, 499).map(lambda seed: catalog.gen_downsets_gc(seed, amax=6).abstract),
)


@st.composite
def connections(draw, lattices=LATTICES):
    """A connection with an additive, a nearly additive, an arbitrary or a
    Galois gamma.  Additive gammas are exactly gamma(x) = {c | not x <=
    cap(c)} for some cap: carrier -> lattice; Galois ones are
    gamma(x) = {c | atom(c) <= x} for some atom: carrier -> lattice, so
    that every value has an atom."""
    lat = draw(lattices)
    carrier = FinCarrier.atoms([f"c{i}" for i in range(draw(st.integers(1, 4)))])
    elems = sorted_elems(lat.elements)
    shape = draw(st.sampled_from(["additive", "perturbed", "arbitrary", "galois"]))
    if shape == "arbitrary":
        values = st.frozensets(st.sampled_from(carrier.values))
        gamma = {x: draw(values) for x in elems}
        if draw(st.integers(0, 3)):  # mostly past the bottom check
            gamma[lat.bottom] = frozenset()
    elif shape == "galois":
        atom = {c: draw(st.sampled_from(elems)) for c in carrier.values}
        gamma = {x: frozenset(c for c in carrier.values if lat.leq(atom[c], x))
                 for x in elems}
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
    """A poset that counts the ``leq`` calls made on it, and the ``up`` and
    ``down`` calls, each of which returns a set of names."""

    __slots__ = ("leqs", "name_sets")

    def __init__(self, poset: FinPoset):
        super().__init__(poset.elements, poset._upm)
        self.leqs = self.name_sets = 0

    def leq(self, x, y):
        self.leqs += 1
        return super().leq(x, y)

    def up(self, x):
        self.name_sets += 1
        return super().up(x)

    def down(self, x):
        self.name_sets += 1
        return super().down(x)


def counted(X):
    """The connection X over counting copies of its abstract poset and of
    its carrier order, and the list of those copies."""
    bp = CountingPoset(X.abstract_poset)
    abstract = CountingLattice(X.abstract, bp) if isinstance(X.abstract, FinLattice) else bp
    order = X.carrier_order and CountingPoset(X.carrier_order)
    posets = [bp] + [order] * (order is not None)
    if isinstance(X, CarrierConn):
        return CarrierConn(X.kind, X.carrier, abstract, X.eta, X.mu,
                           carrier_order=order), posets
    return GaloisConn(X.carrier, abstract, X.gamma, carrier_order=order,
                      kind=X.kind), posets


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


def name_sets_of_accepting_runs(X) -> dict:
    """The ``up``/``down`` calls each accepting check of X makes, by check:
    every carrier checker that accepts X, or ``atoms``, ``check_gc`` and
    ``classify_partitioning`` on a Galois connection, each on a fresh
    copy."""
    if isinstance(X, CarrierConn):
        checks = {f.__name__: f.__wrapped__ for f in (check_cgc, check_cgp, check_pcgc)}
    else:
        checks = {"atoms": lambda G: len(G.atoms()) == len(G.carrier),
                  "check_gc": lambda G: check_gc(G).is_gc,
                  "classify_partitioning": classify_partitioning}
    counts = {}
    for name, check in checks.items():
        copy, posets = counted(X)
        try:
            accepted = check(copy)
        except ShapeMismatch:  # classification of an ordered carrier
            continue
        if accepted:
            counts[name] = sum(p.name_sets for p in posets)
    return counts


def accepting_runs(connections) -> list:
    """The connections' accepting runs, among which every check occurs."""
    runs = [run for X in connections if (run := name_sets_of_accepting_runs(X))]
    assert {name for run in runs for name in run} == {
        "check_cgc", "check_cgp", "check_pcgc", "atoms", "check_gc",
        "classify_partitioning"}
    return runs


def test_accepting_checks_of_the_builtins_decode_no_name_sets():
    runs = accepting_runs(catalog.builtin(name, 16) for name in catalog.BUILTIN_NAMES)
    assert runs == [dict.fromkeys(run, 0) for run in runs]


def test_accepting_checks_of_generated_connections_decode_no_name_sets():
    runs = accepting_runs(
        X for seed in range(40) for X in (
            catalog.gen("cgc", seed), catalog.gen("cgp", seed),
            catalog.gen("pgc", seed), catalog.gen("ppgc", seed),
            catalog.gen_downsets_gc(seed), t_pcgc(catalog.gen_ppgc(seed))))
    assert runs == [dict.fromkeys(run, 0) for run in runs]


def test_accepting_pcgc_makes_no_leq_calls():
    C = catalog.builtin("signconst_pcgc", 64)
    counting = CountingPoset(C.abstract_poset)
    D = CarrierConn("pcgc", C.carrier, counting, C.eta, C.mu)
    assert check_pcgc(D).ok
    assert counting.leqs == 0
    assert literal_pcgc(D).ok and counting.leqs > 0


M3, N5 = m3(), n5()
XYZ = FinCarrier.atoms(["x", "y", "z"])


@settings(max_examples=400, deadline=None)
@given(connections(ADDITIVITY_LATTICES))
# a v b = 1 in both, but gamma(1) holds z as well, and z's misses
# {0, a, b} are no principal downset
@example((XYZ, M3, {"0": frozenset(), "a": frozenset("x"), "b": frozenset("y"),
                    "c": frozenset("z"), "1": frozenset("xyz")}))
@example((XYZ, N5, {"0": frozenset(), "a": frozenset("x"), "b": frozenset("y"),
                    "c": frozenset("xz"), "1": frozenset("xyz")}))
# a constant gamma: gamma(bottom) = {} alone rejects it
@example((XYZ, powerset_lattice(["b0", "b1"]),
          dict.fromkeys(["{}", "{b0}", "{b1}", "{b0,b1}"], frozenset("x"))))
# gamma is not monotone: x's misses {0, 1, b, c} are no downset, and the
# first failing pair is (1, a)
@example((XYZ, M3, {"0": frozenset(), "a": frozenset("x"), "b": frozenset(),
                    "c": frozenset(), "1": frozenset()}))
# additive, with y and z in no gamma(d): their misses are down(1), and x's
# are down(b)
@example((XYZ, M3, {"0": frozenset(), "a": frozenset("x"), "b": frozenset(),
                    "c": frozenset("x"), "1": frozenset("x")}))
# the generator's first PPGC, whose gamma is not additive on its Moore lattice
@example((catalog.gen_ppgc(0).carrier, catalog.gen_ppgc(0).abstract,
          dict(catalog.gen_ppgc(0).gamma)))
def test_gamma_additive_agrees_with_the_pairwise_scan(case):
    carrier, lat, gamma = case
    expected = pairwise_additive(GaloisConn(carrier, lat, gamma))
    # the per-value verdict, and the witness scan when it fails, make no join
    counting = CountingLattice(lat)
    assert _gamma_additive(GaloisConn(carrier, counting, gamma)) == expected
    assert counting.joins == counting.lubs == 0


@pytest.mark.parametrize("make", [catalog.gen_ppgc, catalog.gen_downsets_gc],
                         ids=["gen_ppgc", "gen_downsets_gc"])
def test_generator_additivity_agrees_with_the_pairwise_scan(make):
    verdicts = set()
    for seed in range(300):
        G = make(seed)
        verdict = galois._scan_additive(G)
        assert verdict == pairwise_additive(G), seed
        verdicts.add(verdict[0])
    assert verdicts == {True, False}


@settings(max_examples=200, deadline=None)
@given(connections())
def test_classify_agrees_with_the_literal_classification(case):
    # alpha is read off gamma, so a value without an atom has no block:
    # classification raises alpha's error at the first such value.  So no
    # connection hands check_partition an empty or a missing block; the
    # "cover" and "empty_block" clauses are covered by
    # test_check_partition_agrees_with_the_sorted_loop and by
    # test_setops.py::test_check_partition_clauses.
    G = GaloisConn(*case)
    missing = [x for x in sorted_elems(G.carrier.values) if x not in least_atoms(G)]
    if missing:
        with pytest.raises(ShapeMismatch, match=f"^no best abstraction for {{{missing[0]}}}"):
            classify_partitioning(G)
    else:
        assert classify_partitioning(G) == literal_classify(G)


def literal_partition(carrier: FinCarrier, blocks) -> PartitionReport:
    """The partition clauses in turn, each block's members visited in
    sorted order."""
    blocks = [frozenset(b) for b in blocks]
    universe = carrier.value_set()
    if not blocks:
        return PartitionReport(False, "cover", None)
    for b in blocks:
        extra = b - universe
        if extra:
            raise UnknownElement(f"block value {next(iter(extra))!r} not in carrier")
        if not b:
            return PartitionReport(False, "empty_block", b)
    seen: dict = {}
    for b in blocks:
        for v in sorted_elems(b):
            if v in seen and seen[v] != b:
                return PartitionReport(False, "overlap", v)
            seen[v] = b
    missing = universe - set(seen)
    if missing:
        return PartitionReport(False, "cover", sorted_elems(missing)[0])
    return PartitionReport(True)


@st.composite
def block_families(draw):
    """Carrier values (some equal as ints, such as 1 and 01) and a family
    of blocks: a partition, a partition with one value moved, copied or
    dropped, or arbitrary subsets; empty blocks and repeated blocks
    included."""
    values = draw(NAMES)[:draw(st.integers(1, 8))]
    carrier = FinCarrier.atoms(draw(st.permutations(values)))
    shape = draw(st.sampled_from(["partition", "perturbed", "arbitrary"]))
    if shape == "arbitrary":
        blocks = draw(st.lists(st.sets(st.sampled_from(values)), max_size=5))
    else:
        k = draw(st.integers(1, len(values)))
        blocks = [set() for _ in range(k)]
        for v in values:
            blocks[draw(st.integers(0, k - 1))].add(v)
        if shape == "perturbed":
            v = draw(st.sampled_from(values))
            i = draw(st.integers(0, k - 1))
            if draw(st.booleans()):
                for b in blocks:
                    b.discard(v)
            blocks[i].add(v)
        if draw(st.booleans()):
            blocks = [b for b in blocks if b]
        if blocks and draw(st.booleans()):
            blocks.append(set(draw(st.sampled_from(blocks))))
    return carrier, [frozenset(b) for b in draw(st.permutations(blocks))]


TIED = FinCarrier.atoms(["1", "01", "2", "x"])


@settings(max_examples=600, deadline=None)
@given(block_families())
@example((TIED, [frozenset({"1", "x"}), frozenset(), frozenset({"01", "2"})]))
@example((TIED, [frozenset({"x", "1", "01"}), frozenset({"01", "1", "2"})]))
@example((TIED, [frozenset({"1", "x"}), frozenset({"01"})]))
def test_check_partition_agrees_with_the_sorted_loop(case):
    carrier, blocks = case
    assert check_partition(carrier, blocks) == literal_partition(carrier, blocks)


def test_check_partition_sorts_only_on_failure(monkeypatch):
    sorts = []
    monkeypatch.setattr("galkit.setops.sorted_elems",
                        lambda xs: sorts.append(xs) or sorted_elems(xs))
    assert check_partition(TIED, [{"1", "x"}, {"01"}, {"2"}])
    assert sorts == []
    # 1 and 01 tie as ints, and the string breaks the tie: 01 comes first
    blocks = [{"x", "1", "01"}, {"01", "1", "2"}]
    assert check_partition(TIED, blocks) == PartitionReport(False, "overlap", "01")
    assert sorts


def test_join_irreducibles_of_non_distributive_lattices():
    # neither is join-prime: in M3, a <= b v c = 1 but a is below neither;
    # in N5 (a < c), c <= a v b = 1 but c is below neither
    assert m3().join_irreducibles() == frozenset("abc")
    assert n5().join_irreducibles() == frozenset("abc")


def test_the_256_element_powerset_decides_additivity_with_no_join():
    atoms = [f"b{i}" for i in range(8)]
    lat = powerset_lattice(atoms)
    counting = CountingLattice(lat)
    G = GaloisConn(FinCarrier.atoms(atoms), counting, lat.members)
    assert _gamma_additive(G) == (True, None)
    # b0 in gamma({b1}) too: the first pair in sorted order whose join
    # lacks b0 and that holds {b1} fails
    gamma = {**lat.members, "{b1}": frozenset({"b0", "b1"})}
    M = GaloisConn(FinCarrier.atoms(atoms), counting, gamma)
    expected = (False, ("{b1,b2,b3,b4,b5,b6,b7}", "{b1}"))
    assert _gamma_additive(M) == pairwise_additive(GaloisConn(M.carrier, lat, gamma)) == expected
    assert counting.joins == counting.lubs == 0


def literal_join_irreducibles(lat: FinLattice) -> frozenset:
    """The elements that differ from the lub of the elements strictly below
    them, by ``FinLattice.lub``."""
    return frozenset(x for x in lat.elements
                     if lat.lub(y for y in lat.base.down(x) if y != x) != x)


@settings(max_examples=300, deadline=None)
@given(ADDITIVITY_LATTICES)
@example(M3)
@example(N5)
def test_the_join_irreducibles_from_up_masks_are_the_literal_ones(lat):
    assert lat.join_irreducibles() == literal_join_irreducibles(lat)


@pytest.mark.parametrize("make", [catalog.gen_ppgc, catalog.gen_downsets_gc],
                         ids=["gen_ppgc", "gen_downsets_gc"])
def test_generator_join_irreducibles_are_the_literal_ones(make):
    for seed in range(500):
        lat = make(seed).abstract
        assert lat.join_irreducibles() == literal_join_irreducibles(lat)


def literal_bound(lat: FinLattice, x: str, y: str, direction: str) -> str:
    """The lub (glb) of x and y by definition: the least common upper bound
    (the greatest common lower bound) in the poset."""
    lat.base.require(x)
    lat.base.require(y)
    near = lat.base.up if direction == "lub" else lat.base.down
    common = near(x) & near(y)
    found = [z for z in common if near(z) >= common]
    if not found:
        raise NotCompleteLattice((x, y), direction)
    return found[0]


def literal_fold(lat: FinLattice, members, direction: str) -> str:
    acc = lat.bottom if direction == "lub" else lat.top
    for x in members:
        acc = literal_bound(lat, acc, x, direction)
    return acc


def bound_outcome(f, *args):
    """``f(*args)``, or the pair and direction of the NotCompleteLattice it
    raises, or the class of any other GalkitError."""
    try:
        return f(*args)
    except NotCompleteLattice as exc:
        return exc.pair, exc.direction
    except GalkitError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(ADDITIVITY_LATTICES, st.data())
def test_lub_and_glb_agree_with_the_literal_pairwise_fold(lat, data):
    members = data.draw(st.lists(st.sampled_from([*lat.elements, "zz"]), max_size=6))
    for direction, fold, pair in (("lub", lat.lub, lat.join), ("glb", lat.glb, lat.meet)):
        assert bound_outcome(fold, members) == bound_outcome(
            literal_fold, lat, members, direction)
        for x, y in zip(members, members[1:]):
            assert bound_outcome(pair, x, y) == bound_outcome(
                literal_bound, lat, x, y, direction)


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
    with one membership flipped, or an arbitrary gamma."""
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
    return GaloisConn(FinCarrier.atoms(values), lat, gamma, carrier_order=order)


@st.composite
def alpha_cases(draw):
    """A connection from :func:`gc_conns`, sometimes over its bare abstract
    poset, so with no lattice to take a lub in."""
    G = draw(gc_conns())
    if draw(st.integers(0, 3)) == 0:
        G = GaloisConn(G.carrier, G.abstract_poset, G.gamma,
                       carrier_order=G.carrier_order)
    return G


DIAMOND = powerset_lattice(["p", "q"])


def diamond_gc(values, pairs, gamma) -> GaloisConn:
    """A connection into the powerset of {p, q}, gamma given by name."""
    return GaloisConn(FinCarrier.atoms(values), DIAMOND, gamma,
                      carrier_order=build_poset(values, pairs))


ALL_ABC = frozenset("abc")


@settings(max_examples=600, deadline=None)
@given(alpha_cases())
# b has no atom, and down(b) = {a, b} is the first failing X
@example(diamond_gc(["a", "b"], [("a", "b")], {
    "{}": {"a"}, "{p}": {"a", "b"}, "{q}": {"a", "b"}, "{p,q}": {"a", "b"}}))
# no least abstract element: {} fails first
@example(GaloisConn(FinCarrier.atoms(["x"]), build_poset(["p", "q"], []),
                    {"p": {"x"}, "q": {"x"}}))
# b and c have no atom; c comes after b, but down(c) = {c} is smaller than
# down(b) = {a, b}
@example(diamond_gc(["a", "b", "c"], [("a", "b")], {
    "{}": {"a"}, "{p}": ALL_ABC, "{q}": ALL_ABC, "{p,q}": ALL_ABC}))
# b's least cover {p} has an up-set other than its holder set: the witness
# names {p,q}, which does not hold b
@example(diamond_gc(["a", "b"], [("a", "b")], {
    "{}": {"a"}, "{p}": {"a", "b"}, "{q}": {"a"}, "{p,q}": {"a"}}))
def test_check_gc_agrees_with_the_literal_scan(G):
    rep = result(check_gc, G)
    assert rep == result(literal_gc, G)
    if isinstance(rep, GCReport) and rep.is_gc:
        # alpha is the least gamma-cover of every carrier subset, concrete
        # or not
        for X in map(frozenset, subsets_by_size(G.carrier.values)):
            assert G.alpha(X) == least_cover(G, X)


def test_check_gc_needs_a_lattice_to_name_a_value_s_witness():
    # the bare poset bot < p, q has no top, so p and q have no lub: d has
    # no atom, yet {a, b}, whose atoms are p and q, fails before
    # down(d) = {c, d}
    poset = build_poset(["bot", "p", "q"], [("bot", "p"), ("bot", "q")])
    G = GaloisConn(FinCarrier.atoms(["a", "b", "c", "d"]), poset,
                   {"bot": {"c"}, "p": {"a", "c", "d"}, "q": {"b", "c", "d"}},
                   carrier_order=build_poset(["a", "b", "c", "d"], [("c", "d")]))
    assert literal_gc(G).witness == ("{a,b}", None)
    with pytest.raises(NotCompleteLattice, match="no top"):
        check_gc(G)


def test_a_galois_connection_takes_no_alpha_table():
    lat = powerset_lattice(["x"])
    with pytest.raises(TypeError):
        GaloisConn(FinCarrier.atoms(["x"]), lat, lat.members, alpha_table={})


def gamma_mutants(G: GaloisConn):
    """G with each single membership of gamma flipped."""
    values = sorted_elems(G.carrier.values)
    for d in sorted_elems(G.gamma):
        for x in values:
            yield GaloisConn(
                G.carrier, G.abstract, {**G.gamma, d: G.gamma[d] ^ {x}},
                carrier_order=G.carrier_order)


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


@st.composite
def ordered_gammas(draw):
    """A connection from an ordered carrier of up to five values into a
    lattice of at most eight elements renamed to :data:`NAMES` (some tie as
    ints), its gamma the downsets gamma(d) = {x | a_x <= d} of a monotone
    atom map with a few memberships flipped, or arbitrary."""
    lat = draw(LATTICES.filter(lambda lat: len(lat.elements) <= 8))
    rename = dict(zip(lat.elements, draw(st.permutations(draw(NAMES)))))
    lat = lattice_of([rename[x] for x in lat.elements],
                     [(rename[x], rename[y]) for x in lat.elements for y in lat.base.up(x)])
    values = draw(NAMES)[:draw(st.integers(1, 5))]
    order = draw(named_poset(values))
    elems = sorted_elems(lat.elements)
    if draw(st.booleans()):
        gamma = {d: draw(st.frozensets(st.sampled_from(values))) for d in elems}
    else:
        cap = {x: draw(st.sampled_from(elems)) for x in values}
        atom = {x: lat.lub(cap[y] for y in order.down(x)) for x in values}
        gamma = {d: {x for x in values if lat.leq(atom[x], d)} for d in elems}
        for _ in range(draw(st.integers(0, 3))):
            gamma[draw(st.sampled_from(elems))] ^= {draw(st.sampled_from(values))}
    return GaloisConn(FinCarrier.atoms(values), lat, gamma, carrier_order=order)


@settings(max_examples=400, deadline=None)
@given(ordered_gammas())
def test_the_downclosed_witness_agrees_with_the_literal_scan(G):
    assert result(check_gc, G) == result(literal_gc, G)


def test_the_first_gamma_that_is_no_downset_in_element_order_is_named():
    # gamma(1) and gamma(01) are both no downset of u < v: 1 and 01 tie as
    # ints, and 01 comes first
    G = GaloisConn(
        FinCarrier.atoms(["u", "v"]),
        lattice_of(["bot", "1", "01", "top"],
                   [("bot", "1"), ("bot", "01"), ("1", "top"), ("01", "top")]),
        {"bot": set(), "1": {"v"}, "01": {"v"}, "top": {"u", "v"}},
        carrier_order=build_poset(["u", "v"], [("u", "v")]))
    assert check_gc(G) == literal_gc(G) == GCReport(
        False, False, False, ("gamma-downclosed", "01"))


@pytest.mark.parametrize("make", [
    lambda: catalog.builtin("sign_pgi", 2),
    lambda: t_pgc(catalog.gen_cgc(3, amax=5, bmax=3)),
], ids=["sign_pgi", "t_pgc"])
def test_moving_any_alpha_entry_of_a_saved_file_fails_its_load(make):
    data = fileio.domain_to_dict(make())
    fileio.domain_from_dict(data)
    elems = data["abstract"]["elements"]
    for key, d in data["alpha"].items():
        moved = elems[(elems.index(d) + 1) % len(elems)]
        message = f"alpha({key}) = {moved!r}, but gamma gives {d!r}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            fileio.domain_from_dict({**data, "alpha": {**data["alpha"], key: moved}})


@pytest.mark.parametrize("step", [1, -1], ids=["saved", "reversed"])
def test_a_load_names_the_first_alpha_key_without_a_best_abstraction(step):
    # dropped from every gamma(d), x has no atom: the first key in file
    # order that holds x raises alpha's own error
    data = fileio.domain_to_dict(t_pgc(catalog.gen_cgc(3, amax=5, bmax=3)))
    values = data["carrier"]["atoms"]
    x = values[0]
    gamma = {d: [v for v in s if v != x] for d, s in data["gamma"].items()}
    alpha = dict(list(data["alpha"].items())[::step])
    first = next(key for key in alpha if x in fileio._split_set(key))
    assert len(values) > 2 and first == (f"{{{x}}}" if step == 1 else set_name(values))
    message = f"no best abstraction for {first}: not a Galois connection"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        fileio.domain_from_dict({**data, "gamma": gamma, "alpha": alpha})


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
    # least element; the witness is down(-1) = {-1}, found without
    # enumerating the 2^17 or 2^129 concrete subsets
    for G in (catalog.builtin("sign_pgi", 8), sign_pgi):
        gamma = {**G.gamma, "<0": G.gamma["<0"] - {"-1"}}
        G = GaloisConn(G.carrier, G.abstract, gamma)
        assert check_gc(G) == GCReport(False, False, False, ("{-1}", None))
        with pytest.raises(ShapeMismatch, match="no best abstraction"):
            G.alpha(["-1"])


# ---------------------------------------------------------------------------
# atoms by up-mask lookup, and alpha of one member


def least(poset: FinPoset, S):
    """The least element of S, or None, as the atom search found it: the
    first element when its up-set holds S, else the one with the largest
    up-set when that holds S."""
    if not S:
        return None
    first = next(iter(S))
    if poset.up(first).issuperset(S):
        return first
    a = max(S, key=lambda d: len(poset.up(d)))
    return a if poset.up(a).issuperset(S) else None


def least_atoms(G: GaloisConn) -> dict:
    """x -> a_x as :meth:`GaloisConn.atoms` found it before holder masks:
    the least element of the holder list H(x), kept when its up-set has
    |H(x)| elements."""
    poset = G.abstract_poset
    H = {x: [] for x in G.carrier.values}
    for d in poset.elements:
        for x in G.gamma[d]:
            H[x].append(d)
    atoms = {}
    for x, hs in H.items():
        a = least(poset, hs)
        if a is not None and len(poset.up(a)) == len(hs):
            atoms[x] = a
    return atoms


def lub_alpha(G: GaloisConn, members) -> str:
    """alpha before its one-member shortcut: ``FinLattice.lub`` of the
    members' atoms."""
    X = frozenset(members)
    atoms = least_atoms(G)
    if not X <= atoms.keys():
        for x in sorted_elems(X - atoms.keys()):
            G.carrier.require(x)
        raise ShapeMismatch(
            f"no best abstraction for {set_name(X)}: not a Galois connection")
    return G.abstract_lattice.lub(atoms[x] for x in X)


def result(f, *args):
    """``f(*args)``, or the type and message of the GalkitError it raises."""
    try:
        return f(*args)
    except GalkitError as exc:
        return type(exc), str(exc)


SIGN_ATOMS = FinCarrier.atoms(["-1", "0", "1"])
SIGN_GAMMA = {"bot": set(), "-": {"-1"}, "0": {"0"}, "+": {"1"}, "top": {"-1", "0", "1"}}
FLAT_SIGNS = lattice_of(["bot", "-", "0", "+", "top"],
                        [("bot", x) for x in "-0+"] + [(x, "top") for x in "-0+"])


@settings(max_examples=500, deadline=None)
@given(alpha_cases())
# 0 is held by - and + alone, which have no least element: no atom
@example(GaloisConn(SIGN_ATOMS, FLAT_SIGNS, {**SIGN_GAMMA, "0": set(),
                                             "-": {"-1", "0"}, "+": {"0", "1"}}))
# over the bare poset, every value has an atom but there is no lub
@example(GaloisConn(SIGN_ATOMS, FLAT_SIGNS.base, SIGN_GAMMA))
def test_atoms_and_alpha_of_one_member_agree_with_the_lub_path(G):
    assert G.atoms() == least_atoms(G)
    for x in (*G.carrier.values, "zzz"):
        assert result(G.alpha, [x]) == result(lub_alpha, G, [x])
    assert result(G.alpha, G.carrier.values) == result(lub_alpha, G, G.carrier.values)


def test_alpha_of_one_member_raises_as_the_lub_path():
    sign = GaloisConn(SIGN_ATOMS, FLAT_SIGNS, SIGN_GAMMA)
    with pytest.raises(UnknownElement, match="'zzz'"):
        sign.alpha(["zzz"])
    holed = GaloisConn(SIGN_ATOMS, FLAT_SIGNS, {**SIGN_GAMMA, "0": set(),
                                                "-": {"-1", "0"}, "+": {"0", "1"}})
    with pytest.raises(ShapeMismatch, match="no best abstraction for {0}"):
        holed.alpha(["0"])
    assert holed.alpha(["1"]) == "+"
    bare = GaloisConn(SIGN_ATOMS, FLAT_SIGNS.base, SIGN_GAMMA)
    assert bare.atoms() == {"-1": "-", "0": "0", "1": "+"}
    with pytest.raises(ShapeMismatch, match="not a complete lattice"):
        bare.alpha(["0"])
    with pytest.raises(UnknownElement, match="'zzz'"):
        bare.alpha(["zzz"])


def items_or_error(f, *args):
    """The items of the dict ``f(*args)``, in order, or the type and message
    of the GalkitError it raises."""
    out = result(f, *args)
    return list(out.items()) if isinstance(out, dict) else out


def alpha_of_each(G: GaloisConn, values) -> dict:
    return {a: G.alpha([a]) for a in values}


@st.composite
def singleton_cases(draw):
    """A connection of :func:`alpha_cases` with its carrier values renamed
    to names that tie as ints or hold ``,{}``, and its values in a random
    order."""
    G = draw(alpha_cases())
    new = dict(zip(G.carrier.values, draw(st.permutations(draw(NAMES)))))
    names = lambda X: frozenset(new[x] for x in X)
    order = G.carrier_order
    if order is not None:
        order = build_poset([new[x] for x in order.elements],
                            [(new[x], new[y]) for x in order.elements
                             for y in order.up(x) if y != x])
    G = GaloisConn(
        FinCarrier.atoms([new[x] for x in G.carrier.values]), G.abstract,
        {d: names(s) for d, s in G.gamma.items()}, carrier_order=order)
    return G, draw(st.permutations(G.carrier.values))


# -1 and 1 are each held by - and +, which have no least element: neither
# has an atom
TWO_HOLES = GaloisConn(SIGN_ATOMS, FLAT_SIGNS, {
    **SIGN_GAMMA, "-": {"-1", "1"}, "+": {"-1", "1"}})


@settings(max_examples=500, deadline=None)
@given(singleton_cases())
# two values without an atom: the first in the caller's order raises
@example((TWO_HOLES, ["1", "0", "-1"]))
@example((TWO_HOLES, ["-1", "0", "1"]))
# every value has an atom, but there is no lattice to take a lub in
@example((GaloisConn(SIGN_ATOMS, FLAT_SIGNS.base, SIGN_GAMMA), ["0", "1", "-1"]))
def test_singleton_alpha_agrees_with_alpha_of_each_value(case):
    G, values = case
    for order in (values, values[::-1], sorted_elems(values)):
        assert (items_or_error(galois._singleton_alpha, G, order)
                == items_or_error(alpha_of_each, G, order))


def test_alpha_of_each_value_names_the_first_value_without_an_atom():
    assert TWO_HOLES.atoms() == {"0": "0"}
    for values, first in ((["1", "0", "-1"], "1"), (["-1", "0", "1"], "-1")):
        with pytest.raises(ShapeMismatch, match=f"^no best abstraction for {{{first}}}"):
            galois._singleton_alpha(TWO_HOLES, values)


def fresh_atoms(G: GaloisConn) -> dict:
    """The atoms of a connection over G's gamma that keeps none yet."""
    return rebuilt(G).atoms()


# abstract values that tie as ints, but hold no separator: a lift names
# each set of them
ABSTRACT_NAMES = st.sampled_from([
    [str(i) for i in range(6)],
    ["1", "01", "+1", "2", "x", "-1"],
    [f"b{i}" for i in range(6)],
])


@st.composite
def junk_cgcs(draw):
    """A constructive connection over carrier values from :data:`NAMES`:
    eta onto some of its abstract values and mu eta's fibres, so the other
    abstract values are junk, concretized to nothing."""
    values = draw(NAMES)[:draw(st.integers(1, 6))]
    elements = draw(ABSTRACT_NAMES)[:draw(st.integers(1, 6))]
    eta = {a: draw(st.sampled_from(elements)) for a in values}
    mu = {b: {a for a in values if eta[a] == b} for b in elements}
    return CarrierConn("cgc", FinCarrier.atoms(draw(st.permutations(values))),
                       FinPoset.discrete(draw(st.permutations(elements))), eta, mu)


def assert_the_lift_keeps_what_its_gamma_gives(C: CarrierConn):
    """The powerset lift of C against lift_star and against its gamma
    rebuilt through the validated constructor: gamma(S) is the union of
    mu(b) over b in S, at every subset in element order, and the kept
    additivity verdict is that of the per-value scan and of the pairwise
    definition."""
    G = galois._lift_powerset(C)
    lat = G.abstract_lattice
    assert list(G.gamma.items()) == [(x, lift_star(C.mu, lat.members[x])) for x in lat.elements]
    fresh = rebuilt(G)
    assert G._additive == galois._scan_additive(fresh) == pairwise_additive(fresh) == (True, None)


def test_the_lift_of_each_criterion_4_connection_keeps_what_its_gamma_gives():
    for seed in range(500):
        assert_the_lift_keeps_what_its_gamma_gives(catalog.gen_cgc(seed, amax=8, bmax=8))


@settings(max_examples=200, deadline=None)
@given(junk_cgcs())
def test_lift_powerset_agrees_with_lift_star(C):
    assert_the_lift_keeps_what_its_gamma_gives(C)


# the powerset {p, q} over one value z: gamma is no lift, and gets every
# check of a gamma given by hand
PQ = powerset_lattice(["p", "q"])
Z_GAMMA = {"{}": set(), "{p}": set(), "{q}": set(), "{p,q}": {"z"}}


def test_a_hand_given_gamma_over_a_powerset_is_checked_for_additivity():
    # z's atom is {p,q}: its block {z} partitions the carrier, but
    # gamma({p} v {q}) = {z} is no union of gamma({p}) and gamma({q})
    G = GaloisConn(FinCarrier.atoms(["z"]), PQ, Z_GAMMA)
    rep = classify_partitioning(G)
    assert rep == literal_classify(G)
    assert (rep.category, rep.witness) == ("PPGC", ("{p}", "{q}"))


def test_a_hand_given_gamma_over_a_powerset_must_stay_inside_the_carrier():
    with pytest.raises(ShapeMismatch, match=re.escape("gamma('{p,q}') leaves the carrier")):
        GaloisConn(FinCarrier.atoms(["z"]), PQ, {**Z_GAMMA, "{p,q}": {"z", "w"}})


def test_the_lift_of_each_criterion_4_connection_keeps_its_gamma_s_atoms():
    for seed in range(500):
        G = t_pgc(catalog.gen_cgc(seed, amax=8, bmax=8))
        assert G._atoms == fresh_atoms(G), seed


@settings(max_examples=300, deadline=None)
@given(junk_cgcs())
def test_the_lift_keeps_its_gamma_s_atoms(C):
    G = t_pgc(C)
    assert G._atoms == fresh_atoms(G)
    assert list(G._atoms) == list(C.carrier.values)


def count_calls(monkeypatch, targets: dict) -> dict:
    """Counts of the calls to each ``getattr(owner, name)`` of ``targets``,
    a dict name -> (owner, name), patched for the test."""
    calls = dict.fromkeys(targets, 0)
    for key, (owner, name) in targets.items():
        def wrapper(*args, key=key, plain=getattr(owner, name)):
            calls[key] += 1
            return plain(*args)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_a_warm_powerset_round_trip_reads_each_atom_off_eta(monkeypatch):
    C = catalog.gen_cgc(11, amax=8, bmax=8)
    assert len(C.carrier.values) > 2

    def round_trip():
        G = t_pgc(C)
        classify_partitioning(G)
        assert nonempty_iso(t_cgc_of_pgc(G), C)

    round_trip()  # keeps check_cgc's report on C
    calls = count_calls(monkeypatch, {
        "alpha": (GaloisConn, "alpha"), "holder masks": (galois, "_holder_masks"),
        "carrier validations": (CarrierConn, "_validate"),
        "additivity scan": (galois, "_scan_additive")})
    round_trip()
    # the collapsed connection's mu is read once, in its constructor, which
    # keeps the holder masks that check_cgc reads; the lift keeps its atoms
    # and its additivity verdict
    assert calls == {"alpha": 0, "holder masks": 0, "carrier validations": 1,
                     "additivity scan": 0}


def ordered_round_trip(G: GaloisConn, P: GaloisConn):
    """The GC <-> CGP and PPGC <-> PCGC round trips of criteria 7 and 8,
    each step as perfbench's ``ordered_op`` takes it: six new connections."""
    C = t_cgp(G)
    check_cgp(C)
    G2 = t_gc(C)
    precision_cmp(G2, G)
    t_cgp(G2)
    D = t_pcgc(P)
    check_pcgc(D)
    P2 = t_ppgc(D)
    precision_cmp(P2, P)
    t_pcgc(P2)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_warm_ordered_round_trip_reads_each_table_once(monkeypatch, seed):
    G, P = catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed)
    ordered_round_trip(G, P)  # keeps the reports of G and P
    calls = count_calls(monkeypatch, {
        "holder masks": (galois, "_holder_masks"),
        "carrier validations": (CarrierConn, "_validate"),
        "down-closed tests": (FinPoset, "is_down_closed"),
        "alpha": (GaloisConn, "alpha")})
    ordered_round_trip(G, P)
    # one holder-mask build per new connection: the four carrier ones in
    # their constructors, and the two Galois ones (t_gc's and t_ppgc's
    # outputs) on first use
    assert calls == {"holder masks": 2, "carrier validations": 4,
                     "down-closed tests": 0, "alpha": 0}


def test_the_additivity_witness_of_signconst_is_found_at_its_first_pair(monkeypatch):
    # the PPGC witness of t_ppgc's output is its first pair in sorted order,
    # at every bound: deciding additivity builds nothing of size n * |J|
    pairs = []

    def counting_pairs(xs, k):
        for pair in combinations(xs, k):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(galois, "combinations", counting_pairs)
    for bound in (64, 128):
        pairs.clear()
        G = t_ppgc(catalog.builtin("signconst_pcgc", bound))
        assert classify_partitioning(G).witness == (f"-{bound}", f"-{bound - 1}")
        assert len(pairs) == 1 and G.abstract_lattice._jirr is None


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
def test_additivity_is_computed_once_per_connection(make, monkeypatch):
    # classify_partitioning and check_gc share one additivity scan, also on
    # a PPGC, where the scan goes on to the pairwise witness
    G = make()
    H = GaloisConn(G.carrier, G.abstract, dict(G.gamma), carrier_order=G.carrier_order)
    calls = count_calls(monkeypatch, {"scans": (galois, "_scan_additive")})
    classify_partitioning(H)
    rep = check_gc(H)
    assert calls == {"scans": 1}
    assert (rep.is_disjunctive, rep.witness) == pairwise_additive(H)
    assert check_gc(H) is rep and list(H._verdicts) == [
        classify_partitioning.__wrapped__, check_gc.__wrapped__]


def test_classify_ignores_kind_tags():
    G = catalog.builtin("interval_gi_d", 10)
    tagged = GaloisConn(G.carrier, G.abstract, dict(G.gamma), kind="pgc")
    assert classify_partitioning(tagged).category != "PGC"
    with pytest.raises(NotInClass):
        t_cgc_of_pgc(tagged)


def test_connections_are_immutable():
    G = t_pgc(catalog.sign_cgc(4))
    d = next(iter(G.gamma))
    for name in ("gamma", "kind", "abstract", "_holders", "_atoms", "_additive", "_verdicts"):
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


@settings(max_examples=300, deadline=None)
@given(carrier_conns())
def test_kept_carrier_verdicts_equal_the_uncached_checks(C):
    # the holder masks kept by the constructor are those of one pass over mu
    assert C._holders == galois._holder_masks(C, C.mu)
    assert list(C._holders) == list(C.carrier.values)
    for check in (check_cgc, check_cgp, check_pcgc):
        report = check(C)
        assert report == check.__wrapped__(C)
        assert check(C) is report


def test_carrier_connections_and_closure_operators_are_immutable():
    C = catalog.builtin("parity", 4)
    a, b = next(iter(C.eta.items()))
    for name in ("eta", "mu", "kind", "abstract", "carrier_order", "_holders", "_verdicts"):
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


def relabel(program: Program) -> tuple:
    """A copy of the program in which every statement occurrence has a label
    of its own (a node used twice gets two), so that (label, environment) is
    one state of the run; and the labels of its loops."""
    labels = count(1)
    loops: set = set()

    def block(stmts):
        return tuple(stmt(s) for s in stmts)

    def stmt(s):
        label = next(labels)
        if isinstance(s, While):
            loops.add(f"L{label}")
            return While(s.cond, block(s.body), label)
        if isinstance(s, If):
            return If(s.cond, block(s.then), block(s.els), label)
        return replace(s, label=label)

    body = block(program.body)
    return Program(body, next(labels) - 1), loops


def first_loop_repeat(program: Program, carrier, cap: int):
    """(s1, P) for the first state at a loop head that the literal run meets
    twice within ``cap`` steps, at steps s1 and s1 + P; None if there is none."""
    unique, loops = relabel(program)
    trail: list = []
    literal_concrete_run(unique, carrier, cap, trail)
    first: dict = {}
    for step, (label, env) in enumerate(trail, 1):
        if label in loops:
            state = (label, frozenset(env.items()))
            if state in first:
                return first[state], step - first[state]
            first[state] = step
    return None


@st.composite
def spinning_cases(draw):
    """A carrier and a program that never terminates: after assigning every
    variable it loops on ``v = v``, and that loop's body runs one drawn loop
    twice, as the same ``While`` node, between drawn statements."""
    init = tuple(Assign(v, Lit(draw(LITERALS)), draw(LABELS)) for v in VARS)
    inner = While(Cmp(draw(COMPARISONS), draw_expr(draw, 1), draw_expr(draw, 1)),
                  draw_block(draw, 1), draw(LABELS))
    body = (draw_block(draw, 1) + (inner,) + draw_block(draw, 1) + (inner,)
            + draw_block(draw, 1))
    var = draw(VAR_NAMES)
    spin = While(Cmp("=", Var(var), Var(var)), body, draw(LABELS))
    return draw(int_carriers()), Program(init + draw_block(draw, 1) + (spin,), 6)


REUSED = While(Cmp("<", Var("y"), Lit(2)),
               (Assign("y", BinOp("+", Var("y"), Lit(1)), 4),), 3)


@settings(max_examples=150, deadline=None)
@given(spinning_cases())
@example((FinCarrier.ints(-4, 4), SPINNER))
# x climbs to the top of the carrier before the states at the head repeat
@example((FinCarrier.ints(-4, 4), parse_program(
    "x := 0; y := 0; while y = y do { x := x + 1; }")))
# the inner loop meets its state again first, one outer iteration later, and
# its period spans the ``skip`` compiled after it
@example((FinCarrier.ints(-4, 4), parse_program(
    "x := 0; while x = x do { j := 0; while j < 2 do { j := j + 1; } skip; }")))
# one While node at two places: the first exits in the state the second
# enters in, which is no repeat
@example((FinCarrier.ints(-4, 4), Program((Assign("x", Lit(0), 1), While(
    Cmp("=", Var("x"), Var("x")), (Assign("y", Lit(0), 2), REUSED, REUSED), 2)), 4)))
def test_concrete_run_skips_whole_periods_of_a_spinning_run(case):
    carrier, program = case
    budgets = {ORACLE_CAP}
    repeat = first_loop_repeat(program, carrier, ORACLE_CAP)
    if repeat is not None:
        s1, period = repeat
        budgets |= {s1 + k * period + d for k in range(1, 6) for d in (-1, 0, 1)}
    for budget in sorted(b for b in budgets if b <= ORACLE_CAP):
        seen = concrete_run(program, carrier, budget)
        expected = literal_concrete_run(program, carrier, budget)
        assert seen == expected
        assert list(seen) == list(expected)
        assert observations(seen) == budget and "end" not in seen


class CountingCarrier(FinCarrier):
    """A carrier that counts its ``clamp_int`` calls."""

    clamps = 0

    def clamp_int(self, n: int) -> int:
        object.__setattr__(self, "clamps", self.clamps + 1)
        return super().clamp_int(n)


# the clamp_int calls of a run that executes every step: one per literal when
# the program is compiled, and one per + - * it evaluates
STEP_BY_STEP_CLAMPS = {
    "p01_doubling_loop.while": 6,
    "p02_straightline.while": 9,
    "p03_sign_split.while": 5,
    "p04_nested_loops.while": 36,
    "p05_countdown.while": 24,
    "p06_accumulate_product.while": 14,
    "p07_skip_and_comments.while": 3,
    "p09_branch_join.while": 5,
    "p10_loop_with_branch.while": 13,
}


@pytest.mark.parametrize("name", program_names())
def test_only_a_spinning_run_skips_steps(name, signconst):
    program = parse_program(program_text(name))
    c = signconst.carrier
    clamps = []
    for budget in (10_000, 1_000_000):
        carrier = CountingCarrier(c.values, c.mode, c.lo, c.hi)
        seen = concrete_run(program, carrier, budget)
        clamps.append(carrier.clamps)
    if "end" in seen:
        assert clamps == [STEP_BY_STEP_CLAMPS[name]] * 2
    else:
        # p08: its three literals, and x + 0 in each of the two periods run
        # before the second repeat at the loop head, whatever the budget
        assert name == "p08_budget_spinner.while"
        assert clamps == [5, 5]


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
# best-correct-approximation entries kept on the connection


KEPT_DOMAINS = {
    "signconst_pcgc(64)": lambda: catalog.builtin("signconst_pcgc", 64),
    "signconst_pcgc(10)": lambda: catalog.builtin("signconst_pcgc", 10),
}


class UnkeptSemantics(AbstractSemantics):
    """Abstract semantics that computes every operator entry afresh."""

    def op_entry(self, op, b1, b2):
        return bca_pcgc_entry(self.domain, self.ops[op], b1, b2)


def result_items(result):
    """An analysis result as lists, so that label and variable order count."""
    points = [(label, list(state.items())) for label, state in result.points.items()]
    return points, result.iterations


@functools.lru_cache(maxsize=None)
def unkept_result(domain: str, name: str):
    """``name`` analyzed over a freshly built ``domain``, every entry
    computed by ``bca_pcgc_entry`` where it is needed and none kept."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, "AbstractSemantics", UnkeptSemantics)
        result = analyze(parse_program(program_text(name)), KEPT_DOMAINS[domain]())
    return result_items(result)


@settings(max_examples=25, deadline=None)
@given(st.permutations([(d, n) for d in KEPT_DOMAINS for n in program_names()]))
def test_kept_entries_change_no_analysis(order):
    # two connections that keep their entries across the analyses, in an
    # interleaved order, twice over: the second pass reads every entry
    shared = {d: make() for d, make in KEPT_DOMAINS.items()}
    for d, name in order + order:
        result = analyze(parse_program(program_text(name)), shared[d])
        assert result_items(result) == unkept_result(d, name)


def corpus_entry_calls(monkeypatch, domain):
    """The entries ``op_entry`` asks for and the ``bca_pcgc_entry`` calls
    made, as (connection, op, b1, b2), while the corpus is analyzed over
    ``domain``."""
    asked, computed = [], []
    op_entry, compute = AbstractSemantics.op_entry, analyzer.bca_pcgc_entry

    def logged_op_entry(self, op, b1, b2):
        asked.append((op, b1, b2))
        return op_entry(self, op, b1, b2)

    def logged_compute(C, f, b1, b2):
        computed.append((C, f.table.op, b1, b2))
        return compute(C, f, b1, b2)

    with monkeypatch.context() as mp:
        mp.setattr(AbstractSemantics, "op_entry", logged_op_entry)
        mp.setattr(analyzer, "bca_pcgc_entry", logged_compute)
        for name in program_names():
            analyze(parse_program(program_text(name)), domain)
    return asked, computed


def test_each_entry_is_computed_once_per_connection(monkeypatch):
    C = catalog.builtin("signconst_pcgc", 64)
    asked, computed = corpus_entry_calls(monkeypatch, C)
    assert sorted(computed) == sorted((C, *key) for key in set(asked))
    again, recomputed = corpus_entry_calls(monkeypatch, C)
    assert again == asked
    assert recomputed == []
    # a connection built by another builtin call computes every entry again
    C2 = catalog.builtin("signconst_pcgc", 64)
    assert corpus_entry_calls(monkeypatch, C2)[1] == [(C2, *k[1:]) for k in computed]


def refused_domains():
    """A lattice domain that fails ``check_pcgc``, as eta moves 1 to >0,
    and a purely constructive one over a carrier of atoms, which has no
    arithmetic."""
    C = catalog.builtin("signconst_pcgc", 10)
    bad = CarrierConn(C.kind, C.carrier, C.abstract, {**C.eta, "1": ">0"}, C.mu)
    chain = FinLattice.from_poset(build_poset(["⊥", "x", "⊤"], [("⊥", "x"), ("x", "⊤")]))
    atoms = CarrierConn(
        "pcgc", FinCarrier(("a", "b")), chain, {"a": "x", "b": "x"},
        {"⊥": set(), "x": {"a", "b"}, "⊤": {"a", "b"}},
    )
    return bad, atoms


def test_a_refused_domain_keeps_no_entries():
    program = parse_program("x := 1; y := x + x;")
    for domain, ok in zip(refused_domains(), (False, True)):
        assert check_pcgc(domain).ok is ok
        for _ in range(2):
            with pytest.raises(DomainMismatch):
                analyze(program, domain)
        assert list(domain._verdicts) == [check_pcgc.__wrapped__]


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


@st.composite
def twinned_posets(draw):
    """A poset of :func:`listed_posets` with twins planted: up to three of
    its elements get 1-4 copies each, which share that element's strict
    up-set and strict down-set, so each class of twins holds 2-5 members;
    listed in a random order."""
    poset = draw(listed_posets())
    elems = poset.elements
    pairs = [(x, y) for x in elems for y in poset.up(x) if y != x]
    names = list(elems)
    for x in draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3, unique=True)):
        for c in range(draw(st.integers(1, 4))):
            twin = f"{x}'{c}"
            names.append(twin)
            pairs += [(y, twin) for y in poset.down(x) if y != x]
            pairs += [(twin, y) for y in poset.up(x) if y != x]
    return build_poset(draw(st.permutations(names)), pairs)


def twins_between(k: int) -> FinPoset:
    """M_k: an antichain of k twins between a bottom and a top."""
    mids = [f"m{i}" for i in range(k)]
    return build_poset(["⊥", *mids, "⊤"],
                       [("⊥", m) for m in mids] + [(m, "⊤") for m in mids])


def u_above_p_and_q(elements) -> FinPoset:
    """u1 and u2 are twins above p and q, which are no twins as e < p: p
    and q lack a lub, and u1 and u2 a glb."""
    return build_poset(elements, [("⊥", "e"), ("e", "p"), ("⊥", "q")]
                       + [(lo, u) for lo in "pq" for u in ("u1", "u2")]
                       + [("u1", "⊤"), ("u2", "⊤")])


# the twins l1, l2 below the twins a, b: neither pair has an inner bound
TWIN_BOWTIE = build_poset(
    ["⊥", "l1", "l2", "a", "b", "⊤"],
    [("⊥", "l1"), ("⊥", "l2"), ("a", "⊤"), ("b", "⊤")]
    + [(lo, hi) for lo in ("l1", "l2") for hi in "ab"],
)
# the first pair that lacks a bound is (u2, u1), and u1 is not the first
# member of its class
TWIN_WITNESS = u_above_p_and_q(["u2", "p", "u1", "q", "e", "⊥", "⊤"])
# the first pair that lacks a bound, (p, q), is not one the twin check tests
UNTESTED_WITNESS = u_above_p_and_q(["p", "q", "u1", "u2", "e", "⊥", "⊤"])
SIGNCONST_16 = catalog.builtin("signconst_pcgc", 16).abstract.base


# x and y have neither a lub nor a glb, and they are the first pair
DOUBLE_BOWTIE = build_poset(
    ["x", "y", "l1", "l2", "u1", "u2", "⊥", "⊤"],
    [(lo, hi) for lo, his in [("⊥", ["l1", "l2"]), ("l1", "xy"), ("l2", "xy"),
                             ("x", ["u1", "u2"]), ("y", ["u1", "u2"]),
                             ("u1", ["⊤"]), ("u2", ["⊤"])]
     for hi in his],
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(listed_posets(), twinned_posets()))
@example(DOUBLE_BOWTIE)
@example(m3().base)
@example(n5().base)
@example(build_poset(["x"], []))
@example(FinPoset((), ()))
@example(SIGNCONST_16)
@example(twins_between(5))
@example(TWIN_BOWTIE)
@example(TWIN_WITNESS)
@example(UNTESTED_WITNESS)
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


@pytest.mark.parametrize("poset, missing", [
    (TWIN_BOWTIE, (("l1", "l2"), "lub")),
    (TWIN_WITNESS, (("u2", "u1"), "glb")),
    (UNTESTED_WITNESS, (("p", "q"), "lub")),
], ids=["bowtie", "twin-witness", "untested-witness"])
def test_from_poset_names_the_first_pair_without_a_bound(poset, missing):
    with pytest.raises(NotCompleteLattice) as got:
        FinLattice.from_poset(poset)
    assert (got.value.pair, got.value.direction) == missing


def test_twins_share_their_strict_up_set_and_down_set():
    # p and q share their strict up-set, not their strict down-set, so
    # they are no twins; u1 and u2 are
    poset = UNTESTED_WITNESS
    pairs = order._twin_pairs(poset._upm, poset._down_masks())
    names = [(poset.elements[i], poset.elements[j]) for i, j in pairs]
    assert names == [("u1", "u2"), *combinations(["p", "q", "u1", "e", "⊥", "⊤"], 2)]


def test_the_accepting_check_tests_as_many_pairs_at_every_bound(monkeypatch):
    tested = []
    plain = order._twin_pairs

    def counting(upm, dnm):
        pairs = plain(upm, dnm)
        tested.append((len(upm), len(pairs)))
        return pairs

    monkeypatch.setattr(order, "_twin_pairs", counting)
    for bound in (16, 256):
        catalog.builtin("signconst_pcgc", bound)
    # ten classes: 45 pairs of them, and one pair in each of the two that
    # hold more than one element
    assert tested == [(40, 47), (520, 47)]


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
    ``moore_lattice_of_masks``: re-scan every pair of sets until no intersection is
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
        assert type(G.abstract) is SetLattice
        assert G.abstract.elements == elements
        assert {x: G.abstract.base.up(x) for x in elements} == up
        assert dict(G.gamma) == gamma


def test_a_moore_lattice_joins_to_the_least_member_above_the_union():
    lat = moore_lattice_of_masks("abc", [0b001, 0b010])
    assert lat.elements == ("{a,b,c}", "{a}", "{b}", "{}")
    assert lat.members == {"{a,b,c}": frozenset("abc"), "{a}": frozenset("a"),
                           "{b}": frozenset("b"), "{}": frozenset()}
    assert lat.join("{a}", "{b}") == lat.lub(["{a}", "{b}"]) == "{a,b,c}"
    assert lat.meet("{a}", "{b}") == "{}"
    with pytest.raises(UnknownElement, match="outside the 3 atoms"):
        moore_lattice_of_masks("abc", [0b1000])


# atoms that tie as ints, hold a comma or a brace, or are not ASCII
MOORE_ATOMS = st.lists(
    st.one_of(st.sampled_from(["1", "01", "10", "1_0", "-1", "a", "b", "a,b", "{}",
                               "é", "∅", "⊤"]),
              st.text(max_size=2)),
    max_size=5, unique=True)


@settings(max_examples=200, deadline=None)
@given(MOORE_ATOMS.flatmap(lambda atoms: st.tuples(
    st.just(atoms), st.permutations(atoms),
    st.lists(st.integers(0, 2 ** len(atoms) - 1), max_size=5))))
@example((["a", "b", "a,b"], ["a,b", "b", "a"], [0b011, 0b100]))
@example((["1", "01", "é"], ["é", "01", "1"], [0b001, 0b010]))
def test_a_moore_lattice_is_built_once_and_agrees_with_the_closure_loop(case):
    atoms, order, masks = case
    family = [frozenset(a for i, a in enumerate(order) if m >> i & 1) for m in masks]
    elements, up, gamma = literal_moore([frozenset(atoms), *family])
    if len(set(elements)) < len(elements):  # two sets share a name
        with pytest.raises(DuplicateElement, match="two subsets are both named"):
            moore_lattice_of_masks(order, masks)
        return
    lat = moore_lattice_of_masks(order, masks)
    members = lat.members
    assert type(lat) is SetLattice
    assert lat.elements == elements
    assert {x: lat.base.up(x) for x in elements} == up
    assert members == gamma
    for x, y in product(elements, repeat=2):
        union = members[x] | members[y]
        # the least member above the union: the intersection of all of them
        above = [s for s in members.values() if union <= s]
        assert members[lat.join(x, y)] == frozenset.intersection(*above)
        assert members[lat.meet(x, y)] == members[x] & members[y]
    # the validation the build skips accepts it, and finds the same structure
    checked = FinLattice.from_poset(lat.base)
    assert (checked.top, checked.bottom) == (lat.top, lat.bottom)
    assert checked.join_irreducibles() == lat.join_irreducibles()


def test_a_moore_lattice_refuses_masks_outside_its_atoms():
    for masks in ([0b100], [-1]):
        with pytest.raises(UnknownElement, match="outside the 2 atoms"):
            moore_lattice_of_masks(["a", "b"], masks)


def test_the_generators_build_one_plain_lattice_per_moore_family(monkeypatch):
    # plain: one SetLattice per family, and no validation by from_poset
    built, checked = [], []
    plain_init, plain_from_poset = FinLattice.__init__, FinLattice.from_poset

    def counting_init(self, *args):
        built.append(type(self))
        plain_init(self, *args)

    def counting_from_poset(poset):
        checked.append(poset)
        return plain_from_poset(poset)

    monkeypatch.setattr(FinLattice, "__init__", counting_init)
    monkeypatch.setattr(FinLattice, "from_poset", staticmethod(counting_from_poset))
    for seed in range(40):
        catalog.gen_ppgc(seed)
        catalog.gen_downsets_gc(seed)
    assert checked == []
    assert built == [SetLattice] * 80


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


def eager_name_sets(poset: FinPoset) -> tuple[dict, dict]:
    """The up-sets and down-sets of names as ``FinPoset`` decoded them in
    its constructor, before it decoded them on demand."""
    elems = poset.elements
    up, dn = {}, {x: [] for x in elems}
    for x, m in zip(elems, poset._upm):
        ups = []
        while m:
            j = m.bit_length() - 1
            ups.append(elems[j])
            dn[elems[j]].append(x)
            m ^= 1 << j
        up[x] = frozenset(ups)
    return up, {x: frozenset(s) for x, s in dn.items()}


@st.composite
def poset_pairs(draw):
    """A poset, listed afresh, and another on its names: the same order
    listed in another order, or any order."""
    poset = draw(named_posets())
    names = poset.elements
    up = eager_name_sets(poset)[0]
    relisted = build_poset(draw(st.permutations(names)),
                           [(x, y) for x in names for y in up[x]])
    other = draw(st.one_of(st.just(relisted), named_poset(list(names))))
    return FinPoset(names, poset._upm), other


@settings(max_examples=400, deadline=None)
@given(poset_pairs(), st.data())
def test_queries_on_masks_agree_with_the_eager_name_sets(case, data):
    poset, other = case
    names = poset.elements
    up, down = eager_name_sets(poset)
    assert poset.is_discrete() == all(len(up[x]) == 1 for x in names)
    assert {(x, y): poset.leq(x, y) for x in names for y in names} == {
        (x, y): y in up[x] for x in names for y in names}
    for _ in range(4):
        members = data.draw(st.frozensets(st.sampled_from(names)))
        assert poset.is_down_closed(members) == all(down[x] <= members for x in members)
    assert poset._names is None  # no query so far decoded a name set
    assert (poset == other) == (eager_name_sets(other)[0] == up)
    assert {x: poset.up(x) for x in names} == up
    assert {x: poset.down(x) for x in names} == down


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


# One slice of each round trip, as perfbench's ``ordered_op`` and
# ``powerset_op`` run them, counting the joins and lubs of each seed (the
# additivity verdicts are read on the way), and the witness of a 4-cycle.
HASH_SEED_SLICE = """
import json
from galkit import catalog, galois, transforms
from galkit.errors import CycleDetected
from galkit.order import FinLattice, build_poset

joins = lubs = 0
plain_join, plain_lub = FinLattice.join, FinLattice.lub

def counting_join(self, x, y):
    global joins
    joins += 1
    return plain_join(self, x, y)

def counting_lub(self, members):
    global lubs
    lubs += 1
    return plain_lub(self, members)

FinLattice.join, FinLattice.lub = counting_join, counting_lub
counts = []
for seed in range(40):
    joins = lubs = 0
    G = transforms.t_pgc(catalog.gen_cgc(seed, amax=8, bmax=8))
    transforms.t_cgc_of_pgc(G)
    G = catalog.gen_downsets_gc(seed, amax=6)
    P = catalog.gen_ppgc(seed)
    C = transforms.t_cgp(G)
    galois.check_cgp(C)
    galois.precision_cmp(transforms.t_gc(C), G)
    D = transforms.t_pcgc(P)
    galois.check_pcgc(D)
    galois.precision_cmp(transforms.t_ppgc(D), P)
    counts.append([joins, lubs])
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
