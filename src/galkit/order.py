"""Finite posets, complete lattices and downward-closed sets.

All elements are opaque strings; integer-valued elements render as decimal
strings so that one identifier space works across carriers, abstract domains
and powerset lattices.  Order relations are stored as full up-set / down-set
maps after reflexive-transitive closure: carriers are small by design, so
O(n^2) storage beats walking a Hasse diagram.  Lattices of sets (powersets,
downsets, disjunctive completions) intern each subset as an int bitmask over
their atoms and render its name once, so joins never parse names.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    DuplicateElement,
    NotCompleteLattice,
    TooLarge,
    UnknownElement,
)

DOWNSETS_GUARD = 2 ** 16


def sort_key(v: str):
    """Sort element names numerically when they parse as ints, else lexically."""
    try:
        return (0, int(v), "")
    except ValueError:
        return (1, 0, v)


def sorted_elems(xs: Iterable[str]) -> list[str]:
    return sorted(xs, key=sort_key)


def scan_key(v: str):
    """Order used when scanning carriers for counterexamples: small
    magnitudes first, nonnegative before negative, so witnesses match the
    values a reader would pick by hand."""
    try:
        n = int(v)
        return (0, abs(n), 0 if n >= 0 else 1, "")
    except ValueError:
        return (1, 0, 0, v)


def scan_order(xs: Iterable[str]) -> list[str]:
    return sorted(xs, key=scan_key)


def set_name(members: Iterable[str]) -> str:
    """Canonical name for a finite set of elements: "{a,b}" with sorted members."""
    return "{" + ",".join(sorted_elems(members)) + "}"


class FinPoset:
    """A finite poset with precomputed up-sets and down-sets."""

    __slots__ = ("elements", "_index", "_up", "_dn")

    def __init__(self, elements: Iterable[str], up: Mapping[str, frozenset]):
        self.elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._up = dict(up)
        dn: dict[str, set] = {x: set() for x in self.elements}
        for x, ups in self._up.items():
            for y in ups:
                dn[y].add(x)
        self._dn = {x: frozenset(s) for x, s in dn.items()}

    # -- basic queries -------------------------------------------------

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def require(self, x: str) -> None:
        if x not in self._index:
            raise UnknownElement(f"element {x!r} not in poset")

    def leq(self, x: str, y: str) -> bool:
        self.require(x)
        self.require(y)
        return y in self._up[x]

    def up(self, x: str) -> frozenset:
        self.require(x)
        return self._up[x]

    def down(self, x: str) -> frozenset:
        self.require(x)
        return self._dn[x]

    def is_discrete(self) -> bool:
        return all(len(self._up[x]) == 1 for x in self.elements)

    def is_down_closed(self, members: Iterable[str]) -> bool:
        ms = set(members)
        return all(self._dn[x] <= ms for x in ms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinPoset):
            return NotImplemented
        return set(self.elements) == set(other.elements) and self._up == other._up

    def __repr__(self) -> str:
        return f"FinPoset({len(self.elements)} elements)"

    @staticmethod
    def discrete(elements: Iterable[str]) -> "FinPoset":
        elems = list(elements)
        return FinPoset(elems, {x: frozenset([x]) for x in elems})


def build_poset(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> FinPoset:
    """Build a poset from the reflexive-transitive closure of ``pairs``.

    Rejects duplicate elements, pairs mentioning unknown elements, and
    closures that violate antisymmetry (i.e. cycles).
    """
    elems = list(elements)
    if len(set(elems)) != len(elems):
        seen: set[str] = set()
        for x in elems:
            if x in seen:
                raise DuplicateElement(f"duplicate element {x!r}")
            seen.add(x)
    known = set(elems)
    succ: dict[str, set[str]] = {x: {x} for x in elems}
    for lo, hi in pairs:
        if lo not in known:
            raise UnknownElement(f"unknown element {lo!r} in pair")
        if hi not in known:
            raise UnknownElement(f"unknown element {hi!r} in pair")
        succ[lo].add(hi)
    # transitive closure, then antisymmetry check
    changed = True
    while changed:
        changed = False
        for x in elems:
            extra = set()
            for y in succ[x]:
                extra |= succ[y]
            if not extra <= succ[x]:
                succ[x] |= extra
                changed = True
    for x in elems:
        for y in succ[x]:
            if y != x and x in succ[y]:
                raise CycleDetected(f"antisymmetry violated by {x!r} and {y!r}")
    return FinPoset(elems, {x: frozenset(s) for x, s in succ.items()})


class FinLattice:
    """A finite complete lattice: a poset plus pairwise join/meet functions."""

    __slots__ = ("base", "top", "bottom", "_join", "_meet", "_jirr")

    def __init__(self, base, top, bottom, join, meet):
        self.base = base
        self.top = top
        self.bottom = bottom
        self._join = join
        self._meet = meet
        self._jirr = None

    @property
    def elements(self):
        return self.base.elements

    def leq(self, x, y):
        return self.base.leq(x, y)

    def join(self, x: str, y: str) -> str:
        try:
            return self._join(x, y)
        except KeyError:
            self._undefined(x, y, "lub")

    def meet(self, x: str, y: str) -> str:
        try:
            return self._meet(x, y)
        except KeyError:
            self._undefined(x, y, "glb")

    def _undefined(self, x: str, y: str, direction: str):
        """Report a failed bound-table lookup: an argument outside the
        lattice, or a bound the table does not hold."""
        self.base.require(x)
        self.base.require(y)
        raise NotCompleteLattice((x, y), direction)

    def lub(self, members: Iterable[str]) -> str:
        acc = self.bottom
        for x in members:
            self.base.require(x)
            acc = self._join(acc, x)
        return acc

    def glb(self, members: Iterable[str]) -> str:
        acc = self.top
        for x in members:
            self.base.require(x)
            acc = self._meet(acc, x)
        return acc

    def join_irreducibles(self) -> frozenset:
        """Elements that are not the lub of any subset excluding them,
        computed on first use and kept on the lattice.

        In a finite lattice this is exactly: x differs from the lub of the
        elements strictly below it (and the bottom is never join-irreducible).
        Every element is the lub of the join-irreducibles below it.
        """
        if self._jirr is None:
            self._jirr = self._find_join_irreducibles()
        return self._jirr

    def _find_join_irreducibles(self) -> frozenset:
        return frozenset(
            x for x in self.elements
            if self.lub(y for y in self.base.down(x) if y != x) != x
        )

    def __eq__(self, other):
        if not isinstance(other, FinLattice):
            return NotImplemented
        return self.base == other.base

    def __repr__(self):
        return f"FinLattice({len(self.base)} elements)"

    @staticmethod
    def from_poset(poset: FinPoset) -> "FinLattice":
        """Verify completeness and cache the pairwise bound tables.

        For a finite poset, existence of all pairwise lubs/glbs plus a top and
        bottom implies a complete lattice.  Raises NotCompleteLattice with the
        offending pair otherwise.
        """
        elems = poset.elements
        if not elems:
            raise NotCompleteLattice((), "element")
        bottom = next((x for x in elems if all(poset.leq(x, y) for y in elems)), None)
        top = next((x for x in elems if all(poset.leq(y, x) for y in elems)), None)
        if bottom is None or top is None:
            raise NotCompleteLattice((), "top" if top is None else "bottom")
        lub2: dict[tuple[str, str], str] = {}
        glb2: dict[tuple[str, str], str] = {}
        for x in elems:
            lub2[(x, x)] = x
            glb2[(x, x)] = x
        for x, y in combinations(elems, 2):
            ub = poset.up(x) & poset.up(y)
            least = next((z for z in ub if poset.up(z) >= ub), None)
            if least is None:
                raise NotCompleteLattice((x, y), "lub")
            lb = poset.down(x) & poset.down(y)
            greatest = next((z for z in lb if poset.down(z) >= lb), None)
            if greatest is None:
                raise NotCompleteLattice((x, y), "glb")
            lub2[(x, y)] = lub2[(y, x)] = least
            glb2[(x, y)] = glb2[(y, x)] = greatest
        return FinLattice(
            poset, top, bottom,
            lambda a, b: lub2[(a, b)],
            lambda a, b: glb2[(a, b)],
        )


class SetLattice(FinLattice):
    """A lattice of subsets under inclusion, whose elements are named after
    their members; ``members`` maps each name back to its subset."""

    __slots__ = ("members", "_bit", "_mask", "_name")

    @staticmethod
    def from_family(
        atoms: Iterable[str], family: Iterable[Iterable[str]], by_name: bool = False,
    ) -> "SetLattice":
        """The lattice of a family of subsets of ``atoms``.

        The family must be closed under union and intersection, so that join
        is union and meet is intersection; a bound outside the family raises
        NotCompleteLattice when it is asked for.  Each subset is interned as
        an int bitmask over the sorted atoms, so join and meet are ``|`` and
        ``&``, and named once, as :func:`set_name` would name it.  Elements
        keep the family's order, or are sorted by name when ``by_name``.
        Raises DuplicateElement when two subsets get the same name: over the
        atoms ``a``, ``b`` and ``a,b``, both ``{a, b}`` and ``{"a,b"}``
        would be named ``{a,b}``.
        """
        atoms = sorted_elems(atoms)
        bit = {a: 1 << i for i, a in enumerate(atoms)}
        if len(bit) != len(atoms):
            raise DuplicateElement("set lattice over duplicated atoms")
        mask_of: dict[str, int] = {}
        name_of_mask: dict[int, str] = {}
        members: dict[str, frozenset] = {}
        for subset in family:
            s = frozenset(subset)
            try:
                mask = sum(bit[x] for x in s)
            except KeyError as exc:
                raise UnknownElement(f"{exc.args[0]!r} is not an atom") from None
            name = "{" + ",".join(sorted(s, key=bit.__getitem__)) + "}"
            if name in mask_of:
                raise DuplicateElement(f"two subsets are both named {name!r}")
            mask_of[name] = mask
            name_of_mask[mask] = name
            members[name] = s
        if not members:
            raise NotCompleteLattice((), "element")
        names = sorted_elems(members) if by_name else list(members)
        full, common = 0, mask_of[names[0]]
        for mask in name_of_mask:
            full |= mask
            common &= mask
        top, bottom = name_of_mask.get(full), name_of_mask.get(common)
        if top is None or bottom is None:
            raise NotCompleteLattice((), "top" if top is None else "bottom")
        # up-sets by intersecting, per member atom, the bitmask (over element
        # positions) of the subsets that hold it: no pairwise subset tests
        holders = dict.fromkeys(atoms, 0)
        for j, name in enumerate(names):
            for x in members[name]:
                holders[x] |= 1 << j
        up = {}
        for name in names:
            sup = (1 << len(names)) - 1
            for x in members[name]:
                sup &= holders[x]
            ups = []
            while sup:
                low = sup & -sup
                ups.append(names[low.bit_length() - 1])
                sup ^= low
            up[name] = frozenset(ups)
        lat = SetLattice(
            FinPoset(names, up), top, bottom,
            lambda a, b: name_of_mask[mask_of[a] | mask_of[b]],
            lambda a, b: name_of_mask[mask_of[a] & mask_of[b]],
        )
        lat.members, lat._bit, lat._mask, lat._name = (
            members, bit, mask_of, name_of_mask)
        return lat

    def _find_join_irreducibles(self) -> frozenset:
        # the lub of the elements strictly below x is the union of their
        # masks, starting from the bottom's (the lub of no elements)
        mask, down = self._mask, self.base.down
        out = []
        for x in self.elements:
            below = mask[self.bottom]
            for y in down(x):
                if y != x:
                    below |= mask[y]
            if below != mask[x]:
                out.append(x)
        return frozenset(out)

    def name_of(self, subset: Iterable[str]) -> str:
        """The element whose members are exactly ``subset``."""
        try:
            return self._name[sum(self._bit[x] for x in frozenset(subset))]
        except KeyError:
            raise UnknownElement(f"no element with members {subset!r}") from None


@dataclass(frozen=True, eq=False)
class DownSet:
    """A downward-closed subset of a poset."""

    poset: FinPoset
    members: frozenset

    def __post_init__(self):
        for x in self.members:
            self.poset.require(x)
        if not self.poset.is_down_closed(self.members):
            raise ValueError("members are not downward closed")

    def __eq__(self, other):
        if isinstance(other, DownSet):
            return self.members == other.members and self.poset == other.poset
        return NotImplemented

    def __contains__(self, x):
        return x in self.members


def down_closure(poset: FinPoset, members: Iterable[str]) -> DownSet:
    """Smallest downward-closed superset of ``members``."""
    out: set[str] = set()
    for x in members:
        out |= poset.down(x)
    return DownSet(poset, frozenset(out))


def iter_downsets(poset: FinPoset, guard: int = DOWNSETS_GUARD):
    """Yield every downward-closed subset of ``poset`` as a frozenset.

    Enumerates by extending with maximal remaining elements; raises TooLarge
    if more than ``guard`` downsets would be produced.
    """
    elems = sorted_elems(poset.elements)
    seen: set[frozenset] = set()
    frontier = [frozenset()]
    seen.add(frozenset())
    while frontier:
        nxt = []
        for ds in frontier:
            yield ds
            for x in elems:
                if x in ds:
                    continue
                grown = ds | poset.down(x)
                if grown not in seen:
                    seen.add(grown)
                    if len(seen) > guard:
                        raise TooLarge(
                            f"more than {guard} downward-closed subsets"
                        )
                    nxt.append(grown)
        frontier = nxt


def downsets_lattice(poset: FinPoset, guard: int = DOWNSETS_GUARD) -> SetLattice:
    """The complete lattice of all downward-closed subsets, ordered by
    inclusion: union and intersection of downsets are downsets."""
    return SetLattice.from_family(
        poset.elements, iter_downsets(poset, guard), by_name=True,
    )


def subsets_by_size(values: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Every subset of ``values``, by size, each size in
    :func:`itertools.combinations` order."""
    for k in range(len(values) + 1):
        yield from combinations(values, k)


def powerset_lattice(values: Iterable[str], guard: int = DOWNSETS_GUARD) -> SetLattice:
    """The powerset of ``values`` as a lattice, subsets listed by size."""
    vals = sorted_elems(values)
    if 2 ** len(vals) > guard:
        raise TooLarge(f"powerset of {len(vals)} values exceeds the guard")
    return SetLattice.from_family(vals, subsets_by_size(vals))


def meet_closure(lat: FinLattice, members: Iterable[str]) -> frozenset:
    """Smallest superset of ``members`` closed under glbs (glb of the empty
    family is the top, which is always included)."""
    closed = set(members)
    for x in closed:
        lat.base.require(x)
    closed.add(lat.top)
    changed = True
    while changed:
        changed = False
        for x, y in list(combinations(sorted_elems(closed), 2)):
            m = lat.glb([x, y])
            if m not in closed:
                closed.add(m)
                changed = True
    return frozenset(closed)
