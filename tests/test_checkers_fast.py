"""The fast checkers against their literal definitions, and the per-connection
classification memo.

``_gamma_additive`` checks gamma(x v j) = gamma(x) | gamma(j) only for
join-irreducible j; here it must agree, verdict and witness, with the literal
scan over all pairs, on powersets, downset lattices and lattices built with
``FinLattice.from_poset`` (M3, N5 and random closure systems, most of them
non-distributive) and other set families, whose bottom need not be empty.  ``classify_partitioning`` as a whole must agree with a
literal classification, ``alt2prime`` included.
"""
from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkit import catalog
from galkit.errors import NotCompleteLattice, NotInClass
from galkit.galois import (
    ClassifyReport,
    GaloisConn,
    _gamma_additive,
    check_gc,
    classify_partitioning,
    prt,
)
from galkit.order import (
    FinLattice,
    SetLattice,
    build_poset,
    downsets_lattice,
    powerset_lattice,
    sorted_elems,
)
from galkit.setops import FinCarrier, check_partition
from galkit.transforms import t_cgc_of_pgc, t_pgc


class CountingLattice(FinLattice):
    """A lattice that counts the joins asked of it."""

    __slots__ = ("joins",)

    def __init__(self, lat: FinLattice):
        super().__init__(lat.base, lat.top, lat.bottom, lat.join, lat.meet)
        self.joins = 0

    def join(self, x, y):
        self.joins += 1
        return super().join(x, y)


# ---------------------------------------------------------------------------
# literal definitions


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
    return GaloisConn(carrier, lat, gamma, alpha_fn=lambda X: lat.top)


# ---------------------------------------------------------------------------
# differential tests


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
# the classification memo and immutability


def rebuilt(G: GaloisConn) -> GaloisConn:
    return GaloisConn(
        G.carrier, G.abstract, dict(G.gamma), carrier_order=G.carrier_order,
        alpha_fn=G.alpha_fn, kind=G.kind,
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


def test_classify_ignores_kind_tags():
    G = catalog.builtin("interval_gi_d", 10)
    tagged = GaloisConn(G.carrier, G.abstract, dict(G.gamma), kind="pgc")
    assert classify_partitioning(tagged).category != "PGC"
    with pytest.raises(NotInClass):
        t_cgc_of_pgc(tagged)


def test_connections_are_immutable():
    G = t_pgc(catalog.sign_cgc(4))
    d = next(iter(G.gamma))
    for name in ("gamma", "kind", "abstract", "alpha_fn", "_classified"):
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
