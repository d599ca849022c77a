"""Posets, lattices, downsets and powersets."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import downsets_lattice
from strategies import posets

from galkit import order
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


ORDER_SLICE = """
import json
from galkit.order import scan_order, set_name, sorted_elems
names = frozenset({"1", "01", "a", "10", "1_0", "-1", "-01"})
print(json.dumps([set_name(names), sorted_elems(names), scan_order(names)]))
"""


def test_names_with_equal_int_values_sort_by_string_at_any_hash_seed():
    src = os.path.dirname(os.path.dirname(order.__file__))
    runs = []
    for hash_seed in ("1", "5"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", ORDER_SLICE],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1] == [
        "{-01,-1,01,1,10,1_0,a}",
        ["-01", "-1", "01", "1", "10", "1_0", "a"],
        ["01", "1", "-01", "-1", "10", "1_0", "a"],
    ]


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


def test_is_down_closed_names_an_unknown_member():
    p = build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(UnknownElement, match="element 'zzz' not in poset"):
        p.is_down_closed(["a", "zzz"])
    assert p.is_down_closed(["a"]) and not p.is_down_closed(["b"])


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


@pytest.mark.parametrize("poset, message", [
    (build_poset(["bot", "p", "q"], [("bot", "p"), ("bot", "q")]), "no top"),
    (build_poset(["p", "q", "top"], [("p", "top"), ("q", "top")]), "no bottom"),
    (build_poset([], []), "no element"),
], ids=["top", "bottom", "element"])
def test_a_missing_top_bottom_or_element_is_named_without_a_pair(poset, message):
    with pytest.raises(NotCompleteLattice, match=f"^{message}$") as got:
        FinLattice.from_poset(poset)
    assert got.value.pair == ()


def test_iter_downsets_on_chain():
    chain = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
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


def test_iter_downsets_allows_exactly_the_guard(monkeypatch):
    monkeypatch.setattr(order, "DOWNSETS_GUARD", 4)
    # a chain of n elements has n + 1 downsets
    assert len(list(iter_downsets(build_poset("abc", ["ab", "bc"])))) == 4
    with pytest.raises(TooLarge, match="more than 4 "):
        list(iter_downsets(build_poset("abcd", ["ab", "bc", "cd"])))


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


# names free of separators, so that no two downsets share a name
E_POSETS = posets(names=st.just([f"e{i}" for i in range(5)]), max_size=5)


@settings(max_examples=60, deadline=None)
@given(E_POSETS)
def test_downsets_are_down_closed_and_closed_under_boolean_ops(p):
    downsets = list(iter_downsets(p))
    for d in downsets:
        assert p.is_down_closed(d)
    for d1 in downsets:
        for d2 in downsets:
            assert (d1 | d2) in downsets
            assert (d1 & d2) in downsets


@settings(max_examples=60, deadline=None)
@given(E_POSETS)
def test_downsets_lattice_agrees_with_inclusion(p):
    lat = downsets_lattice(p)
    for x in lat.elements:
        for y in lat.elements:
            assert lat.base.leq(x, y) == (lat.members[x] <= lat.members[y])



def test_kept_computes_once_per_instance_and_keys_by_the_computation():
    calls = []

    class Box:
        __slots__ = ("_kept", "n")

        def __init__(self, n):
            self._kept, self.n = {}, n

        @order.kept
        def value(self):
            calls.append(self.n)
            return [self.n]

    def value(box):  # another computation of the same name
        calls.append(-box.n)
        return [-box.n]

    a, b = Box(1), Box(2)
    assert a.value() is a.value() == [1]
    assert order.kept(value)(a) == [-1] and b.value() == [2]
    assert calls == [1, -1, 2]
    assert list(a._kept) == [Box.value.__wrapped__, value]
    assert Box.value.__wrapped__(a) == [1] and calls == [1, -1, 2, 1]
