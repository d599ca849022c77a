"""Finite carriers, lifting combinators and partition predicates."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import ShapeMismatch, UnknownElement
from .order import sorted_elems

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
        if mode not in (SATURATING, MODULAR):
            raise ShapeMismatch(f"unknown arithmetic mode {mode!r}")
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

    def clamp_int(self, n: int) -> int:
        """Close an integer result back into the carrier's range per the
        mode, as an int."""
        lo, hi = self.lo, self.hi
        if lo is None or hi is None:
            raise ShapeMismatch("clamp on a non-integer carrier")
        if self.mode == MODULAR:
            return lo + (n - lo) % (hi - lo + 1)
        return lo if n < lo else hi if n > hi else n

    def clamp(self, n: int) -> str:
        """Close an integer result back into the carrier per the mode."""
        return str(self.clamp_int(n))


def _lookup(table: Mapping, x: str):
    try:
        return table[x]
    except KeyError:
        raise UnknownElement(f"value {x!r} not in table domain") from None


def lift_diamond(f, members: Iterable[str]) -> frozenset:
    """Image of a set under a pointwise map: {f(x) | x in X}."""
    return frozenset(_lookup(f, x) for x in members)


def lift_star(g, members: Iterable[str]) -> frozenset:
    """Union of the pointwise images of a set-valued map."""
    out: set = set()
    for x in members:
        out |= _lookup(g, x)
    return frozenset(out)


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
    ``cover``) together with a witness element or pair.  The accepting pass
    visits each block's members as they come; only a failing check sorts,
    so that the witness is the first in sorted order.
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
    if _first_overlap(blocks, iter) is not None:
        return PartitionReport(False, "overlap", _first_overlap(blocks, sorted_elems))
    missing = universe.difference(*blocks)
    if missing:
        return PartitionReport(False, "cover", sorted_elems(missing)[0])
    return PartitionReport(True)


def _first_overlap(blocks: list[frozenset], order):
    """The first value, visiting the blocks in turn and each one's members
    in ``order``, that an earlier, different block holds; or None."""
    seen: dict[str, frozenset] = {}
    for b in blocks:
        for v in order(b):
            if v in seen and seen[v] != b:
                return v
            seen[v] = b
    return None
