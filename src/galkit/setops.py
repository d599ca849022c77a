"""Finite carriers, map tables, lifting combinators and partition predicates."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Union

from .errors import ShapeMismatch, UnknownElement
from .order import FinLattice, FinPoset, sorted_elems

SATURATING = "saturating"
MODULAR = "modular"


@dataclass(frozen=True)
class FinCarrier:
    """An explicit finite set of concrete values.

    Integer carriers are contiguous ranges with an arithmetic mode that keeps
    concrete operations closed: ``saturating`` clamps results into [lo, hi]
    (preserves sign, so sign-style examples are unaffected), ``modular`` wraps
    around an even-cardinality range (preserves parity alternation).
    Atom carriers have no arithmetic.
    """

    values: tuple[str, ...]
    mode: str | None = None
    lo: int | None = None
    hi: int | None = None
    _set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_set", frozenset(self.values))
        if len(self._set) != len(self.values):
            raise ShapeMismatch("carrier values must be distinct")
        if self.mode is not None and self.mode not in (SATURATING, MODULAR):
            raise ShapeMismatch(f"unknown arithmetic mode {self.mode!r}")

    @staticmethod
    def ints(lo: int, hi: int, mode: str = SATURATING) -> "FinCarrier":
        if hi < lo:
            raise ShapeMismatch("empty integer range")
        if mode == MODULAR and (hi - lo + 1) % 2 != 0:
            raise ShapeMismatch("modular carrier needs even cardinality")
        values = tuple(str(n) for n in range(lo, hi + 1))
        return FinCarrier(values, mode, lo, hi)

    @staticmethod
    def atoms(names: Iterable[str]) -> "FinCarrier":
        return FinCarrier(tuple(names))

    def __contains__(self, v: str) -> bool:
        try:
            return v in self._set
        except TypeError:  # unhashable, so no carrier value
            return False

    def __len__(self) -> int:
        return len(self.values)

    def require(self, v: str) -> None:
        if v not in self:
            raise UnknownElement(f"value {v!r} not in carrier")

    def value_set(self) -> frozenset:
        """The carrier values as a set, built once per carrier."""
        return self._set

    def clamp(self, n: int) -> str:
        """Close an integer result back into the carrier per the mode."""
        if self.lo is None or self.hi is None:
            raise ShapeMismatch("clamp on a non-integer carrier")
        if self.mode == MODULAR:
            span = self.hi - self.lo + 1
            return str(self.lo + (n - self.lo) % span)
        return str(min(max(n, self.lo), self.hi))


Domain = Union[FinCarrier, FinPoset]


def _domain_values(domain: Domain) -> tuple[str, ...]:
    if isinstance(domain, FinCarrier):
        return domain.values
    return domain.elements


@dataclass(frozen=True, eq=False)
class MapTable:
    """A total map stored as an explicit table.

    ``entries`` maps every domain value to either a codomain value or, for
    set-valued maps, a frozenset of codomain values.
    """

    domain: Domain
    entries: Mapping[str, object]

    def __post_init__(self):
        missing = [v for v in _domain_values(self.domain) if v not in self.entries]
        if missing:
            raise ShapeMismatch(f"table not total, missing {missing[:3]}")

    def __call__(self, v: str):
        if v not in self.entries:
            raise UnknownElement(f"value {v!r} not in table domain")
        return self.entries[v]


def _entries(table) -> Mapping[str, object]:
    return table.entries if isinstance(table, MapTable) else table


def _lookup(table: Mapping, x: str):
    try:
        return table[x]
    except KeyError:
        raise UnknownElement(f"value {x!r} not in table domain") from None


def lift_diamond(f, members: Iterable[str]) -> frozenset:
    """Image of a set under a pointwise map: {f(x) | x in X}."""
    t = _entries(f)
    return frozenset(_lookup(t, x) for x in members)


def lift_star(g, members: Iterable[str]) -> frozenset:
    """Union of the pointwise images of a set-valued map."""
    t = _entries(g)
    out: set = set()
    for x in members:
        out |= _lookup(t, x)
    return frozenset(out)


def lift_lub(lat: FinLattice, k, members: Iterable[str]) -> str:
    """Least upper bound of the pointwise images; empty set maps to bottom."""
    t = _entries(k)
    return lat.lub(_lookup(t, x) for x in members)


def lift_singleton(f, a: str) -> frozenset:
    """One-element set {f(a)}."""
    t = _entries(f)
    return frozenset([_lookup(t, a)])


def lower_singleton(h, a: str):
    """Apply a set-consuming map to the singleton {a}.

    ``h`` is a callable over frozensets (e.g. the abstraction side of a
    Galois connection).
    """
    return h(frozenset([a]))


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    clause: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def check_partition(carrier: FinCarrier, blocks: Iterable[frozenset]) -> PartitionReport:
    """Check that ``blocks`` is a partition of the carrier.

    On failure reports the violated clause (``empty_block``, ``overlap`` or
    ``cover``) together with a witness element or pair.
    """
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
    seen: dict[str, frozenset] = {}
    for b in blocks:
        for v in sorted_elems(b):
            if v in seen and seen[v] != b:
                return PartitionReport(False, "overlap", v)
            seen[v] = b
    missing = universe - set(seen)
    if missing:
        return PartitionReport(False, "cover", sorted_elems(missing)[0])
    return PartitionReport(True)
