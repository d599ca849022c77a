"""Set-family lattices against their literal definitions.

Every lattice of sets is a ``SetLattice``, built by its one constructor
from int masks of a family closed under intersection: ``powerset_lattice``
passes the powerset by size, ``moore_lattice_of_masks`` (the generators'
Moore families, and the downsets of a poset) closes its family and sorts
it by name, and ``disjunctive_completion`` passes its block unions.  On
each of those, join must be the least member above the union, meet the
intersection, ``lub`` and ``glb`` of a pair the same, top and bottom the
union and the intersection of all members, the join-irreducibles the
members that are no join of the members below them.  The reference constructions below are the earlier string-named
ones, built pairwise from ``set_name``; when no two subsets share a name
the element tuple and the members must agree with them, and when names
collide the constructor must refuse instead of merging.
``least_disjunctive_basis`` reads a Moore lattice that is a whole powerset
as it reads a powerset.  ``powerset_lattice`` shares one lattice per set of
values; it must be the same object for every order of the values, agree
with a fresh build, refuse writes, and raise its errors on every call.
"""
from __future__ import annotations

import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import downsets_lattice, slot_names

from galkit import catalog, order
from galkit.errors import (
    DuplicateElement,
    TooLarge,
    UnknownElement,
)
from galkit.galois import (
    CarrierConn,
    GaloisConn,
    classify_partitioning,
    prt,
)
from galkit.order import (
    FinLattice,
    FinPoset,
    SetLattice,
    build_poset,
    iter_downsets,
    moore_lattice_of_masks,
    powerset_lattice,
    set_name,
    sort_key,
    sorted_elems,
)
from galkit.setops import FinCarrier
from galkit.transforms import (
    disjunctive_completion,
    least_disjunctive_basis,
    t_cco,
    t_cgc_of_cco,
    t_cgc_of_pgc,
    t_pgc,
)

# -- reference constructions (name-keyed, pairwise) -------------------------


def ref_powerset(values):
    vals = sorted_elems(values)
    subsets = [frozenset(c) for k in range(len(vals) + 1)
               for c in combinations(vals, k)]
    return [(set_name(s), s) for s in subsets]


def ref_by_name(family):
    named = [(set_name(s), s) for s in set(family)]
    return sorted(named, key=lambda pair: sort_key(pair[0]))


def ref_downsets(poset):
    return ref_by_name(iter_downsets(poset))


def ref_completion(G):
    family = {frozenset()}
    for b in prt(G):
        family |= {c | b for c in family}
    family |= set(G.gamma.values())
    return ref_by_name(family)


def agrees_with(lat, ref):
    """The literal definitions of a lattice of an intersection-closed
    family, and the earlier construction when it named every subset apart."""
    members, elems = lat.members, lat.elements
    assert set(members) == set(elems)
    sets = list(members.values())
    name = {s: x for x, s in members.items()}
    assert len(name) == len(elems)
    assert members[lat.top] == frozenset().union(*sets)
    assert members[lat.bottom] == frozenset.intersection(*sets)

    def least_above(s):
        """The join of members whose union is s: the intersection of the
        members above s, or s itself when it is one."""
        return name.get(s) or name[frozenset.intersection(*(t for t in sets if s <= t))]

    joins = {}
    for x in elems:
        for y in elems:
            joins[x, y] = least_above(members[x] | members[y])
            assert lat.join(x, y) == lat.lub([x, y]) == joins[x, y]
            assert lat.meet(x, y) == lat.glb([x, y]) == name[members[x] & members[y]]
            assert lat.leq(x, y) == (members[x] <= members[y])
    jirr = {x for x in elems if least_above(frozenset().union(
        *(s for s in sets if s < members[x]))) != x}
    assert lat.join_irreducibles() == jirr
    names = [n for n, _ in ref]
    if len(set(names)) == len(names):
        assert elems == tuple(names)
        assert all(members[n] == s for n, s in ref)


# -- strategies -----------------------------------------------------------

ATOMS = st.one_of(
    st.integers(min_value=-12, max_value=12).map(str),
    st.sampled_from(["01", "+1", "1_0", " 10", "-01"]),  # tie with ints above
    st.text(alphabet="abxy", min_size=1, max_size=2),
    st.text(alphabet="ab{},", min_size=1, max_size=3),
)


@st.composite
def atom_lists(draw, max_size):
    atoms = draw(st.lists(ATOMS, max_size=max_size - 1, unique=True))
    if len(atoms) >= 2 and draw(st.booleans()):
        # an atom spelled like the set of two others: "{x,y}" is ambiguous
        x, y = sorted_elems(draw(st.permutations(atoms))[:2])
        if f"{x},{y}" not in atoms:
            atoms.append(f"{x},{y}")
    return atoms


@st.composite
def posets(draw):
    elems = draw(atom_lists(5).filter(bool))
    pairs = [
        (elems[i], elems[j])
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
        if draw(st.booleans())
    ]
    return build_poset(elems, pairs)


@st.composite
def partitioned(draw):
    """A constructive connection over drawn carrier names: the partition
    into blocks decides eta, and each block gets its own abstract name."""
    values = draw(atom_lists(6).filter(bool))
    labels = [draw(st.integers(0, len(values) - 1)) for _ in values]
    blocks = {}
    for v, lbl in zip(values, labels):
        blocks.setdefault(f"b{lbl}", set()).add(v)
    eta = {v: f"b{lbl}" for v, lbl in zip(values, labels)}
    return CarrierConn(
        "cgc", FinCarrier.atoms(values), FinPoset.discrete(sorted(blocks)),
        eta, blocks,
    )


def completed(G):
    D = disjunctive_completion(G)
    assert classify_partitioning(D).category == "PGC"
    return D.abstract_lattice


# each a build of a lattice from a catalog connection, and the reference
# it must agree with
CATALOG_SET_LATTICES = st.one_of(
    st.integers(0, 499).map(catalog.gen_ppgc).map(
        lambda G: (lambda: G.abstract, ref_by_name(G.gamma.values()))),
    st.integers(0, 499).map(catalog.gen_downsets_gc).map(
        lambda G: (lambda: G.abstract, ref_by_name(G.gamma.values()))),
)


def check_build(build, ref):
    """A build agrees with its reference, or refuses when names collide."""
    if len({n for n, _ in ref}) < len(ref):
        with pytest.raises(DuplicateElement):
            build()
        return None
    lat = build()
    assert type(lat) is SetLattice
    agrees_with(lat, ref)
    return lat


# -- differential tests ---------------------------------------------------


# eight values, four of them equal as ints and two holding "{}" or ","
EIGHT = ["1", "01", "1_0", "+1", "a", "{}", "b,c", "-1"]


@settings(max_examples=150, deadline=None)
@given(atom_lists(8))
@example(EIGHT)
def test_powerset_matches_its_definition(values):
    check_build(lambda: powerset_lattice(values), ref_powerset(values))


@settings(max_examples=100, deadline=None)
@given(posets())
def test_downsets_match_their_definition(p):
    lat = check_build(lambda: downsets_lattice(p), ref_downsets(p))
    if lat is not None:
        assert {lat.members[n] for n in lat.elements} == set(iter_downsets(p))


@settings(max_examples=100, deadline=None)
@given(partitioned())
def test_disjunctive_completion_matches_its_definition(C):
    G = t_pgc(C)
    check_build(lambda: completed(G), ref_completion(G))


@settings(max_examples=100, deadline=None)
@given(CATALOG_SET_LATTICES)
def test_catalog_set_lattices_match_their_definition(case):
    check_build(*case)


def test_the_least_disjunctive_basis_of_a_moore_powerset_is_that_of_the_powerset():
    # the intersections of the pairs of three atoms are all of the powerset
    lat = moore_lattice_of_masks(["a", "b", "c"], [0b011, 0b101, 0b110])
    powerset = powerset_lattice(["a", "b", "c"])
    assert set(lat.elements) == set(powerset.elements)
    carrier = FinCarrier.atoms(["a", "b", "c"])
    bases = [least_disjunctive_basis(GaloisConn(carrier, L, L.members))
             for L in (lat, powerset)]
    assert bases[0] == bases[1] == {"{a}", "{b}", "{c}", "{}", "{a,b,c}"}


# -- interned powersets ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(atom_lists(5).flatmap(
    lambda values: st.tuples(st.just(values), st.permutations(values))))
def test_powerset_lattice_is_one_object_per_set_of_values(case):
    values, shuffled = case
    ref = ref_powerset(values)
    if len({n for n, _ in ref}) < len(ref):
        for vs in (values, shuffled, values):
            with pytest.raises(DuplicateElement):
                powerset_lattice(vs)
        return
    lat = powerset_lattice(values)
    assert powerset_lattice(shuffled) is lat
    fresh = order._build_powerset(tuple(sorted_elems(values)))
    assert lat is not fresh
    assert lat.elements == fresh.elements
    assert lat.base._upm == fresh.base._upm
    assert lat.members == fresh.members
    assert (lat.top, lat.bottom) == (fresh.top, fresh.bottom)
    for x in lat.elements:
        for y in lat.elements:
            assert lat.join(x, y) == fresh.join(x, y)
            assert lat.meet(x, y) == fresh.meet(x, y)
    assert lat.join_irreducibles() == fresh.join_irreducibles()
    assert powerset_lattice(shuffled).join_irreducibles() is lat.join_irreducibles()


def test_a_shared_powerset_refuses_writes():
    lat = powerset_lattice(["a", "b"])
    lat.join_irreducibles()
    names = slot_names(type(lat))
    assert {"members", "top", "base", "_kept"} <= set(names)
    for name in names:
        assert hasattr(lat, name)
        with pytest.raises(AttributeError):
            setattr(lat, name, None)
        with pytest.raises(AttributeError):
            delattr(lat, name)
    for write in (
        lambda m: m.__setitem__("{a}", frozenset()),
        lambda m: m.__delitem__("{a}"),
        lambda m: m.update({"{c}": frozenset("c")}),
        lambda m: m.setdefault("{c}", frozenset("c")),
        lambda m: m.pop("{a}"),
        lambda m: m.clear(),
    ):
        with pytest.raises(TypeError):
            write(lat.members)
    again = powerset_lattice(["b", "a"])
    assert again.top == "{a,b}" and again.members == {
        "{}": frozenset(), "{a}": frozenset("a"), "{b}": frozenset("b"),
        "{a,b}": frozenset("ab")}


def test_refused_powersets_raise_on_every_call(monkeypatch):
    for _ in range(3):
        with pytest.raises(DuplicateElement):
            powerset_lattice(["a", "b", "a"])
        with pytest.raises(DuplicateElement):
            powerset_lattice(["a", "b", "a,b"])
        with pytest.raises(TooLarge):
            powerset_lattice([str(i) for i in range(20)])
    lat = powerset_lattice(["a", "b", "c"])
    monkeypatch.setattr(order, "DOWNSETS_GUARD", 4)
    for _ in range(3):
        with pytest.raises(TooLarge):
            powerset_lattice(["c", "b", "a"])
    monkeypatch.undo()
    assert powerset_lattice(["c", "b", "a"]) is lat


def test_powersets_past_the_intern_bound_are_built_afresh(monkeypatch):
    monkeypatch.setattr(order, "POWERSET_INTERN_VALUES", 2)
    assert powerset_lattice(["a", "b"]) is powerset_lattice(["b", "a"])
    lat = powerset_lattice(["a", "b", "c"])
    again = powerset_lattice(["c", "b", "a"])
    assert again is not lat
    assert (again.elements, again.members) == (lat.elements, lat.members)


# -- regressions for names that contain commas ----------------------------


def test_lifting_a_closure_with_comma_names_is_partitioning():
    C = catalog.gen_cgc(5, 6, 4)
    G = t_pgc(t_cgc_of_cco(t_cco(C)))
    assert classify_partitioning(G).category == "PGC"
    assert len(t_cgc_of_pgc(G).abstract_poset) == len(C.blocks())


def test_ambiguous_set_names_are_refused():
    with pytest.raises(DuplicateElement):
        powerset_lattice(["a", "b", "a,b"])
    with pytest.raises(DuplicateElement, match=re.escape("two subsets are both named '{a}'")):
        SetLattice(["a"], [0b1, 0b1])


@pytest.mark.parametrize("build", [SetLattice, moore_lattice_of_masks],
                         ids=["SetLattice", "moore_lattice"])
def test_both_naming_errors_say_what_clashed(build):
    with pytest.raises(DuplicateElement, match="^set lattice over duplicated atoms$"):
        build(["a", "b", "a"], [0b000, 0b011, 0b111])
    # over the atoms a, b and a,b the subsets {a, b} and {"a,b"} share a name
    with pytest.raises(DuplicateElement,
                       match=re.escape("two subsets are both named '{a,b}'")):
        build(["a", "b", "a,b"], [0b000, 0b011, 0b100, 0b111])


def test_a_member_listed_twice_counts_once():
    lat = moore_lattice_of_masks(["b", "a"], [0b10, 0b10])
    assert lat.elements == ("{a,b}", "{a}")
    assert lat.members == {"{a,b}": frozenset("ab"), "{a}": frozenset("a")}


def test_atoms_in_any_order_name_the_same_subsets():
    lat = SetLattice(["b", "a", "c"], [0b000, 0b001, 0b011, 0b111])
    assert lat.elements == ("{}", "{b}", "{a,b}", "{a,b,c}")
    assert lat.join("{b}", "{a,b}") == "{a,b}" and lat.name_of("ab") == "{a,b}"
    for subset in ("a", "z"):
        with pytest.raises(UnknownElement, match="no element with members"):
            lat.name_of(subset)


@pytest.mark.parametrize("lat", [
    powerset_lattice(["a", "b"]),
    downsets_lattice(build_poset(["0", "1"], [("0", "1")])),
    FinLattice.from_poset(build_poset(["0", "1"], [("0", "1")])),
], ids=["powerset", "downsets", "from_poset"])
def test_bounds_of_unknown_names_raise_unknown_element(lat):
    x = lat.elements[0]
    for op in (lat.join, lat.meet):
        with pytest.raises(UnknownElement):
            op(x, "{zz}")
        with pytest.raises(UnknownElement):
            op("{zz}", x)


@pytest.mark.parametrize("bound", ["lub", "glb"])
def test_a_key_error_of_the_members_passes_through_lub_and_glb(bound):
    lat = powerset_lattice(["a", "b"])
    names = {"a": "{a}"}
    with pytest.raises(KeyError, match="'b'"):
        getattr(lat, bound)(names[x] for x in "ab")
    with pytest.raises(KeyError, match="'b'"):
        getattr(lat, bound)(names[x] for x in "b")
