"""Carriers, map tables, lifting helpers and partition checks."""
from __future__ import annotations

import pytest

from galkit.errors import ShapeMismatch, UnknownElement
from galkit.order import FinLattice, build_poset
from galkit.setops import (
    FinCarrier,
    MapTable,
    check_partition,
    lift_diamond,
    lift_lub,
    lift_singleton,
    lift_star,
    lower_singleton,
)


def test_saturating_carrier_clamps_at_both_ends():
    c = FinCarrier.ints(-4, 4)
    assert c.clamp(100) == "4"
    assert c.clamp(-100) == "-4"
    assert c.clamp(3) == "3"
    assert len(c) == 9 and "0" in c


def test_modular_carrier_wraps_and_preserves_parity():
    c = FinCarrier.ints(-4, 3, mode="modular")
    assert c.clamp(4) == "-4"
    assert c.clamp(-5) == "3"
    for n in range(-20, 20):
        assert (int(c.clamp(n)) - n) % 2 == 0


def test_modular_carrier_requires_even_cardinality():
    with pytest.raises(ShapeMismatch):
        FinCarrier.ints(-4, 4, mode="modular")


def test_atoms_carrier_has_no_arithmetic():
    c = FinCarrier.atoms(["a", "b"])
    with pytest.raises(ShapeMismatch):
        c.clamp(0)
    with pytest.raises(ShapeMismatch):
        FinCarrier.atoms(["a", "a"])
    with pytest.raises(UnknownElement):
        c.require("z")


def test_carrier_membership_reads_one_cached_set():
    c = FinCarrier.atoms(["a", "b"])
    assert c.value_set() is c.value_set() == frozenset({"a", "b"})
    assert "a" in c and "z" not in c
    # an unhashable value (say, a list read from a file) is no member
    assert ["a"] not in c
    with pytest.raises(UnknownElement):
        c.require(["a"])
    assert c == FinCarrier.atoms(["a", "b"])
    assert hash(c) == hash(FinCarrier.atoms(["a", "b"]))


def test_map_table_totality_and_lookup():
    c = FinCarrier.atoms(["a", "b"])
    with pytest.raises(ShapeMismatch):
        MapTable(c, {"a": "x"})
    t = MapTable(c, {"a": "x", "b": "y"})
    assert t("a") == "x"
    with pytest.raises(UnknownElement):
        t("z")


def test_lifting_helpers():
    f = {"a": "x", "b": "y", "c": "x"}
    assert lift_diamond(f, ["a", "c"]) == frozenset({"x"})
    g = {"x": frozenset({"a", "b"}), "y": frozenset({"c"})}
    assert lift_star(g, ["x", "y"]) == frozenset({"a", "b", "c"})
    assert lift_singleton(f, "b") == frozenset({"y"})
    assert lower_singleton(lambda X: frozenset(f[x] for x in X), "a") == frozenset({"x"})
    lat = FinLattice.from_poset(
        build_poset(["⊥", "x", "y", "⊤"],
                    [("⊥", "x"), ("⊥", "y"), ("x", "⊤"), ("y", "⊤")])
    )
    assert lift_lub(lat, f, ["a", "b"]) == "⊤"
    assert lift_lub(lat, f, ["a", "c"]) == "x"
    assert lift_lub(lat, f, []) == "⊥"


def test_check_partition_accepts_a_partition():
    c = FinCarrier.atoms(["a", "b", "c"])
    rep = check_partition(c, [frozenset({"a"}), frozenset({"b", "c"})])
    assert rep.ok and rep.clause is None


def test_check_partition_clauses():
    c = FinCarrier.atoms(["a", "b", "c"])
    rep = check_partition(c, [frozenset({"a", "b"}), frozenset({"b", "c"})])
    assert not rep.ok and rep.clause == "overlap"
    rep = check_partition(c, [frozenset({"a"})])
    assert not rep.ok and rep.clause == "cover"
    rep = check_partition(c, [frozenset(), frozenset({"a", "b", "c"})])
    assert not rep.ok and rep.clause == "empty_block"
