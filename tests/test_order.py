"""Posets, lattices, downsets and powersets."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkit.errors import (
    CycleDetected,
    DuplicateElement,
    NotCompleteLattice,
    TooLarge,
    UnknownElement,
)
from galkit.order import (
    FinLattice,
    FinPoset,
    build_poset,
    down_closure,
    downsets_lattice,
    iter_downsets,
    meet_closure,
    powerset_lattice,
    scan_order,
    set_name,
    sort_key,
    sorted_elems,
)


def diamond() -> FinPoset:
    return build_poset(
        ["⊥", "a", "b", "⊤"],
        [("⊥", "a"), ("⊥", "b"), ("a", "⊤"), ("b", "⊤")],
    )


def test_sorted_elems_numeric_before_symbolic():
    assert sorted_elems(["b", "2", "-1", "a", "10"]) == ["-1", "2", "10", "a", "b"]
    assert sort_key("3") < sort_key("x")


def test_scan_order_small_magnitudes_first():
    assert scan_order(["-2", "2", "0", "1", "-1"]) == ["0", "1", "-1", "2", "-2"]


def test_set_name_is_canonical():
    assert set_name(["b", "a"]) == "{a,b}"
    assert set_name([]) == "{}"
    lat = powerset_lattice(["a", "b"])
    assert lat.members["{a,b}"] == frozenset({"a", "b"})
    assert lat.members["{}"] == frozenset()


def test_build_poset_takes_reflexive_transitive_closure():
    p = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert p.leq("x", "z") and p.leq("x", "x")
    assert not p.leq("z", "x")
    assert p.up("x") == frozenset({"x", "y", "z"})
    assert p.down("z") == frozenset({"x", "y", "z"})


def test_build_poset_rejects_cycles_and_duplicates():
    with pytest.raises(CycleDetected):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(DuplicateElement):
        build_poset(["x", "x"], [])


def test_poset_unknown_element():
    p = FinPoset.discrete(["a"])
    with pytest.raises(UnknownElement):
        p.leq("a", "zzz")


def test_lattice_from_diamond():
    lat = FinLattice.from_poset(diamond())
    assert lat.join("a", "b") == "⊤"
    assert lat.meet("a", "b") == "⊥"
    assert lat.bottom == "⊥" and lat.top == "⊤"
    assert lat.lub(["a"]) == "a"
    assert lat.lub([]) == "⊥"


def test_lattice_rejects_incomplete_posets():
    two_tops = build_poset(["⊥", "a", "b"], [("⊥", "a"), ("⊥", "b")])
    with pytest.raises(NotCompleteLattice):
        FinLattice.from_poset(two_tops)


def test_down_closure_and_iter_downsets_on_chain():
    chain = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert down_closure(chain, ["1"]).members == frozenset({"0", "1"})
    downsets = set(iter_downsets(chain))
    assert downsets == {
        frozenset(),
        frozenset({"0"}),
        frozenset({"0", "1"}),
        frozenset({"0", "1", "2"}),
    }


def test_iter_downsets_guard():
    big = FinPoset.discrete([str(i) for i in range(20)])
    with pytest.raises(TooLarge):
        list(iter_downsets(big))


def test_downsets_lattice_joins_are_unions():
    chain = build_poset(["0", "1"], [("0", "1")])
    lat = downsets_lattice(chain)
    assert lat.join("{0}", "{}") == "{0}"
    assert lat.join("{0}", "{0,1}") == "{0,1}"
    assert lat.meet("{0,1}", "{0}") == "{0}"
    assert lat.bottom == "{}"


def test_powerset_lattice_structure():
    lat = powerset_lattice(["a", "b", "c"])
    assert len(lat.elements) == 8
    assert lat.join("{a}", "{b}") == "{a,b}"
    assert lat.meet("{a,b}", "{b,c}") == "{b}"
    assert lat.base.leq("{a}", "{a,c}")
    assert not lat.base.leq("{a}", "{b,c}")
    assert lat.top == "{a,b,c}" and lat.bottom == "{}"


def test_powerset_lattice_guard():
    with pytest.raises(TooLarge):
        powerset_lattice([str(i) for i in range(20)])


def test_join_irreducibles_of_powerset_are_singletons():
    lat = powerset_lattice(["a", "b", "c"])
    assert lat.join_irreducibles() == frozenset({"{a}", "{b}", "{c}"})


def test_meet_closure_adds_intersections_and_top():
    lat = powerset_lattice(["a", "b", "c"])
    closed = meet_closure(lat, ["{a,b}", "{b,c}"])
    assert closed == frozenset({"{a,b}", "{b,c}", "{b}", "{a,b,c}"})


@st.composite
def posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    elems = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((elems[i], elems[j]))
    return build_poset(elems, pairs)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_downsets_are_down_closed_and_closed_under_boolean_ops(p):
    downsets = list(iter_downsets(p))
    for d in downsets:
        assert p.is_down_closed(d)
    for d1 in downsets:
        for d2 in downsets:
            assert (d1 | d2) in downsets
            assert (d1 & d2) in downsets


@settings(max_examples=60, deadline=None)
@given(posets())
def test_downsets_lattice_agrees_with_inclusion(p):
    lat = downsets_lattice(p)
    for x in lat.elements:
        for y in lat.elements:
            assert lat.base.leq(x, y) == (lat.members[x] <= lat.members[y])
