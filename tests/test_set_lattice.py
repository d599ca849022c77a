"""Set-family lattices against their literal definitions.

``powerset_lattice``, ``downsets_lattice`` and the lattice built by
``disjunctive_completion`` all come from ``SetLattice.from_family``.  The
reference constructions below are the earlier string-named ones, built pairwise from
``set_name``; when no two subsets share a name the element tuple and the
order must agree with them, and when names collide the constructor must
refuse instead of merging.  ``powerset_lattice`` shares one lattice per set
of values; it must be the same object for every order of the values, agree
with a fresh build, refuse writes, and raise its errors on every call.
"""
from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkit import catalog, order
from galkit.errors import (
    DuplicateElement,
    NotCompleteLattice,
    TooLarge,
    UnknownElement,
)
from galkit.galois import CarrierConn, classify_partitioning, prt
from galkit.order import (
    FinLattice,
    FinPoset,
    SetLattice,
    build_poset,
    downsets_lattice,
    iter_downsets,
    powerset_lattice,
    set_name,
    sort_key,
    sorted_elems,
    subsets_by_size,
)
from galkit.setops import FinCarrier
from galkit.transforms import (
    disjunctive_completion,
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
    """The literal definitions, and the earlier construction when it named
    every subset apart."""
    members = lat.members
    assert set(members) == set(lat.elements)
    everything = frozenset().union(*members.values())
    assert members[lat.top] == everything
    assert members[lat.bottom] == frozenset.intersection(*members.values())
    for x in lat.elements:
        for y in lat.elements:
            assert members[lat.join(x, y)] == members[x] | members[y]
            assert members[lat.meet(x, y)] == members[x] & members[y]
            assert lat.leq(x, y) == (members[x] <= members[y])
    names = [n for n, _ in ref]
    if len(set(names)) == len(names):
        assert lat.elements == tuple(names)
        assert all(members[n] == s for n, s in ref)


# -- strategies -----------------------------------------------------------

ATOMS = st.one_of(
    st.integers(min_value=-12, max_value=12).map(str),
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


# -- differential tests ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(atom_lists(4))
def test_powerset_matches_its_definition(values):
    ref = ref_powerset(values)
    if len({n for n, _ in ref}) < len(ref):
        with pytest.raises(DuplicateElement):
            powerset_lattice(values)
        return
    agrees_with(powerset_lattice(values), ref)


@settings(max_examples=100, deadline=None)
@given(posets())
def test_downsets_match_their_definition(p):
    ref = ref_downsets(p)
    if len({n for n, _ in ref}) < len(ref):
        with pytest.raises(DuplicateElement):
            downsets_lattice(p)
        return
    lat = downsets_lattice(p)
    agrees_with(lat, ref)
    assert {lat.members[n] for n in lat.elements} == set(iter_downsets(p))


@settings(max_examples=100, deadline=None)
@given(partitioned())
def test_disjunctive_completion_matches_its_definition(C):
    G = t_pgc(C)
    ref = ref_completion(G)
    if len({n for n, _ in ref}) < len(ref):
        with pytest.raises(DuplicateElement):
            disjunctive_completion(G)
        return
    D = disjunctive_completion(G)
    agrees_with(D.abstract_lattice, ref)
    assert classify_partitioning(D).category == "PGC"


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
    vals = sorted_elems(values)
    fresh = SetLattice.from_family(vals, subsets_by_size(vals))
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
    for name in ("members", "top", "base", "_join", "_jirr", "_mask"):
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
    with pytest.raises(DuplicateElement):
        SetLattice.from_family(["a"], [["a"], ["a"]])


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


def test_bounds_outside_the_family_raise_not_complete():
    family = [[], ["a"], ["b"], ["a", "b", "c"]]
    lat = SetLattice.from_family(["a", "b", "c"], family)
    assert lat.join("{a}", "{a,b,c}") == "{a,b,c}"
    with pytest.raises(NotCompleteLattice):
        lat.join("{a}", "{b}")
    with pytest.raises(UnknownElement):
        lat.name_of(["a", "b"])
    with pytest.raises(UnknownElement):
        SetLattice.from_family(["a"], [["z"]])


def test_lub_and_glb_outside_the_family_name_the_pair():
    lat = SetLattice.from_family(
        "abcd", [[], ["c"], ["d"], ["a"], ["b"], ["a", "b", "c", "d"]])
    with pytest.raises(NotCompleteLattice) as info:
        lat.lub(["{a}", "{b}"])
    assert (info.value.pair, info.value.direction) == (("{a}", "{b}"), "lub")
    lat = SetLattice.from_family("abc", [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    with pytest.raises(NotCompleteLattice) as info:
        lat.glb(["{a,b}", "{b,c}"])
    assert (info.value.pair, info.value.direction) == (("{a,b}", "{b,c}"), "glb")
    with pytest.raises(UnknownElement):
        lat.lub(["{a,b}", "{zz}"])


@pytest.mark.parametrize("bound", ["lub", "glb"])
def test_a_key_error_of_the_members_passes_through_lub_and_glb(bound):
    lat = powerset_lattice(["a", "b"])
    names = {"a": "{a}"}
    with pytest.raises(KeyError, match="'b'"):
        getattr(lat, bound)(names[x] for x in "ab")
    with pytest.raises(KeyError, match="'b'"):
        getattr(lat, bound)(names[x] for x in "b")
