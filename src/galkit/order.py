"""Finite posets, complete lattices and downward-closed sets.

All elements are opaque strings; integer-valued elements render as decimal
strings so that one identifier space works across carriers, abstract domains
and powerset lattices.  A poset is built from one int up-mask per element
after reflexive-transitive closure (carriers are small by design, so O(n^2)
bits beat walking a Hasse diagram) and decodes name up-/down-sets only on
demand.  Lattices of sets intern each subset as an int bitmask over their
atoms and render its name once, so joins never parse names; they are
immutable, and small powerset lattices are shared by their values.  A
lattice keeps, once found, the plan of joins that decides whether a map
into sets preserves every join.
"""
from __future__ import annotations

from array import array
from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleDetected,
    DuplicateElement,
    NotCompleteLattice,
    TooLarge,
    UnknownElement,
)

DOWNSETS_GUARD = 2 ** 16


# memoised: a round trip sorts a few dozen names thousands of times, and each
# name that is no int would raise a ValueError each time
@lru_cache(maxsize=1024)
def sort_key(v: str):
    """Sort element names numerically when they parse as ints, else lexically;
    names with the same int value (``1``/``01``, ``10``/``1_0``) by string."""
    try:
        return (0, int(v), v)
    except ValueError:
        return (1, 0, v)


def sorted_elems(xs: Iterable[str]) -> list[str]:
    return sorted(xs, key=sort_key)


@lru_cache(maxsize=1024)
def scan_key(v: str):
    """Order used when scanning carriers for counterexamples: small
    magnitudes first, nonnegative before negative, so witnesses match the
    values a reader would pick by hand.  Ties on the int value break on the
    string, as in :func:`sort_key`."""
    try:
        n = int(v)
        return (0, abs(n), 0 if n >= 0 else 1, v)
    except ValueError:
        return (1, 0, 0, v)


def scan_order(xs: Iterable[str]) -> list[str]:
    return sorted(xs, key=scan_key)


def set_name(members: Iterable[str]) -> str:
    """Canonical name for a finite set of elements: "{a,b}" with sorted members."""
    return "{" + ",".join(sorted_elems(members)) + "}"


class FrozenDict(dict):
    """A dict that refuses every change after construction.

    It stays a ``dict`` (not a mapping proxy), so code that tests
    ``isinstance(x, dict)``, such as JSON encoders, reads it as before.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("read-only mapping")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class Immutable:
    """Refuses to set or delete an attribute: an instance fills its slots
    with ``object.__setattr__`` once, in its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class FinPoset:
    """A finite poset: bit j of ``upm[i]`` is set when ``elements[i] <=
    elements[j]``.  Queries run on the masks.  The down-masks, the element
    of each up-mask and the name sets of :meth:`up` and :meth:`down` are
    each built on first use and kept."""

    __slots__ = ("elements", "_index", "_upm", "_dnm", "_of_upm", "_names")

    def __init__(self, elements: Iterable[str], upm: Iterable[int]):
        self.elements = elems = tuple(elements)
        self._index = {x: i for i, x in enumerate(elems)}
        self._upm = tuple(upm)
        self._dnm = self._of_upm = self._names = None

    def _down_masks(self) -> tuple:
        """Bit i of ``dnm[j]`` is set when ``elements[i] <= elements[j]``."""
        if self._dnm is None:
            dnm = [0] * len(self._upm)
            for i, m in enumerate(self._upm):
                for j in bit_positions(m):
                    dnm[j] |= 1 << i
            self._dnm = tuple(dnm)
        return self._dnm

    def _element_of_upm(self) -> dict:
        """Each up-mask -> its element: the lub of a set, when there is
        one, is the element whose up-mask is the AND of the members'."""
        if self._of_upm is None:
            self._of_upm = dict(zip(self._upm, self.elements))
        return self._of_upm

    def _name_sets(self) -> tuple[dict, dict]:
        """The up-sets and the down-sets of names, decoded from the masks."""
        if self._names is None:
            elems = self.elements
            self._names = tuple(
                {x: frozenset(map(elems.__getitem__, bit_positions(m)))
                 for x, m in zip(elems, masks)}
                for masks in (self._upm, self._down_masks()))
        return self._names

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
        return self._upm[self._index[x]] >> self._index[y] & 1 == 1

    def up(self, x: str) -> frozenset:
        self.require(x)
        return self._name_sets()[0][x]

    def down(self, x: str) -> frozenset:
        self.require(x)
        return self._name_sets()[1][x]

    def is_discrete(self) -> bool:
        return all(m == 1 << i for i, m in enumerate(self._upm))

    def is_down_closed(self, members: Iterable[str]) -> bool:
        dnm, bits = self._down_masks(), {self._index[x] for x in members}
        mask = sum(1 << i for i in bits)
        return all(dnm[i] | mask == mask for i in bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinPoset):
            return NotImplemented
        return self._name_sets()[0] == other._name_sets()[0]

    def __repr__(self) -> str:
        return f"FinPoset({len(self.elements)} elements)"

    @staticmethod
    def discrete(elements: Iterable[str]) -> "FinPoset":
        elems = list(elements)
        return FinPoset(elems, [1 << i for i in range(len(elems))])


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the bits set in ``mask`` (nonnegative), lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> FinPoset:
    """Build a poset from the reflexive-transitive closure of ``pairs``.

    Rejects duplicate elements, pairs mentioning unknown elements, and
    closures that violate antisymmetry (i.e. cycles), naming the first pair
    of elements, in element order, that lie on one cycle.
    """
    elems = list(elements)
    index: dict[str, int] = {}
    for x in elems:
        if x in index:
            raise DuplicateElement(f"duplicate element {x!r}")
        index[x] = len(index)
    upm = [1 << i for i in range(len(elems))]
    for lo, hi in pairs:
        if lo not in index:
            raise UnknownElement(f"unknown element {lo!r} in pair")
        if hi not in index:
            raise UnknownElement(f"unknown element {hi!r} in pair")
        upm[index[lo]] |= 1 << index[hi]
    # transitive closure: OR in the masks of the elements above
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(upm):
            grown, rest = m, m
            while rest:
                j = rest.bit_length() - 1
                grown |= upm[j]
                rest ^= 1 << j
            if grown != m:
                upm[i] = grown
                changed = True
    # x and y lie on one cycle exactly when their closed up-masks are equal
    if len(set(upm)) != len(upm):
        i = next(i for i, m in enumerate(upm) if m in upm[i + 1:])
        y = elems[upm.index(upm[i], i + 1)]
        raise CycleDetected(f"antisymmetry violated by {elems[i]!r} and {y!r}")
    return FinPoset(elems, upm)


def _upper_bounds(upm: Sequence[int], members: int) -> int:
    """The common upper bounds of the elements whose bits are set in
    ``members``: the AND of their up-masks, all elements when none is."""
    return reduce(int.__and__, map(upm.__getitem__, bit_positions(members)),
                  (1 << len(upm)) - 1)


class FinLattice:
    """A finite complete lattice: a poset plus pairwise join/meet functions.

    ``join`` must be defined on every pair, as :meth:`from_poset` verifies;
    only a :class:`SetLattice` may lack joins.
    """

    __slots__ = ("base", "top", "bottom", "_join", "_meet", "_jirr", "_plan")

    def __init__(self, base, top, bottom, join, meet):
        init = object.__setattr__  # a SetLattice refuses plain assignment
        init(self, "base", base)
        init(self, "top", top)
        init(self, "bottom", bottom)
        init(self, "_join", join)
        init(self, "_meet", meet)
        init(self, "_jirr", None)
        init(self, "_plan", None)

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
        return self._fold(members, self.bottom, self._join, self.join)

    def glb(self, members: Iterable[str]) -> str:
        return self._fold(members, self.top, self._meet, self.meet)

    def _fold(self, members, acc, bound, checked):
        """``bound`` folded over ``members`` from ``acc``; ``checked``, the
        bound that checks its arguments, names a bound the table lacks."""
        x = acc
        try:
            for x in members:
                self.base.require(x)
                acc = bound(acc, x)
        except KeyError:
            # a bound the table lacks raises NotCompleteLattice here; a
            # KeyError raised by ``members`` itself passes through
            checked(acc, x)
            raise
        return acc

    def join_irreducibles(self) -> frozenset:
        """Elements that are not the lub of any subset excluding them,
        computed on first use and kept on the lattice.

        In a finite lattice this is exactly: x differs from the lub of the
        elements strictly below it (and the bottom is never join-irreducible).
        Every element is the lub of the join-irreducibles below it.
        """
        if self._jirr is None:
            object.__setattr__(self, "_jirr", self._find_join_irreducibles())
        return self._jirr

    def _find_join_irreducibles(self) -> frozenset:
        # the elements strictly below x have x as their lub exactly when
        # their common upper bounds are the up-set of x
        upm, dnm = self.base._upm, self.base._down_masks()
        return frozenset(x for i, x in enumerate(self.elements)
                         if _upper_bounds(upm, dnm[i] ^ 1 << i) != upm[i])

    def additivity_plan(self):
        """Element-index triples (i, j, k) with elements[k] = elements[i] v
        elements[j], flattened into one int array, such that a map g into
        sets with g(bottom) = {} preserves every join exactly when
        g(elements[k]) = g(elements[i]) | g(elements[j]) for every triple.
        Found on first use and kept on the lattice, like the
        join-irreducibles, so connections over one shared lattice share it.
        None when a join is missing: then only the pairwise scan can say
        which pair lacks it.  Finite lattices whose join-irreducibles are
        all join-prime are exactly the distributive ones (Davey & Priestley,
        *Introduction to Lattices and Order*, 2002, ch. 10).

        * Distributive lattice (every join-irreducible j is join-prime: the
          lub of the elements not above j is not above j), one triple per
          y != bottom: y = rest v j, with j a maximal join-irreducible below
          y and rest the lub of the other join-irreducibles below y.  Proof
          sketch: by induction on the number of join-irreducibles below y,
          g(y) is the union of g(j) over the join-irreducibles j <= y (those
          below rest are exactly the others below y, since j is maximal and
          each is join-prime).  Join-primeness makes the join-irreducibles
          below x v y those below x plus those below y, so g(x v y) =
          g(x) | g(y).
        * Any other lattice (M3, N5, ...): the n * |J| triples x v j for
          every element x and join-irreducible j.  Every y is the lub of
          the join-irreducibles j1 ... jk below it, so by induction on k,
          g(x v y) = g(x) | g(j1) | ... | g(jk), and x = bottom gives g(y).
        """
        if self._plan is None:
            try:
                plan = self._find_additivity_plan()
            except NotCompleteLattice:
                plan = None
            # False: found that there is none
            object.__setattr__(self, "_plan", False if plan is None else plan)
        return self._plan if self._plan is not False else None

    def _find_additivity_plan(self):
        # every join is defined, so the lub of a set of elements is the one
        # whose up-mask is the AND of theirs
        if not self._every_join_defined():
            return None
        base, jset = self.base, self.join_irreducibles()
        upm, dnm, index, lub = (base._upm, base._down_masks(), base._index,
                                base._element_of_upm())
        jirr = [i for i, x in enumerate(self.elements) if x in jset]
        jmask, full = sum(1 << j for j in jirr), (1 << len(upm)) - 1
        plan = []
        # j is join-prime when the lub of the elements not above j is not
        # above j: its up-set, their common upper bounds, is no subset of j's
        if all(_upper_bounds(upm, full ^ upm[j]) & ~upm[j] for j in jirr):
            for k, below in enumerate(dnm):
                below &= jmask
                if not below:  # the bottom
                    continue
                # the last of them that no other one lies above
                j = next(j for j in reversed(jirr)
                         if below >> j & 1 and upm[j] & below == 1 << j)
                rest = lub[_upper_bounds(upm, below ^ 1 << j)]
                plan.extend((index[rest], j, k))
        else:
            for i, u in enumerate(upm):
                for j in jirr:
                    plan.extend((i, j, index[lub[u & upm[j]]]))
        return array("H" if len(upm) <= 1 << 16 else "L", plan)

    def _every_join_defined(self) -> bool:
        """Whether ``join`` is defined on every pair: true of a FinLattice,
        and of a set family closed under union."""
        return True

    def __eq__(self, other):
        if not isinstance(other, FinLattice):
            return NotImplemented
        return self.base == other.base

    def __repr__(self):
        return f"FinLattice({len(self.base)} elements)"

    @staticmethod
    def from_poset(poset: FinPoset) -> "FinLattice":
        """Verify completeness and tabulate the pairwise bounds.

        For a finite poset, existence of all pairwise lubs/glbs plus a top and
        bottom implies a complete lattice.  Raises NotCompleteLattice otherwise,
        naming the first pair in ``combinations`` order that lacks a bound
        (its lub checked first).  The upper bounds of x and y are the AND of
        their up-masks, and the lub is the one whose own up-mask is all of
        them: one dict lookup.  Glbs likewise on down-masks, the transpose of
        the up-masks.  Each element keeps a tuple of its n bounds, so a join
        is ``lub[a][index[b]]``.
        """
        elems = poset.elements
        if not elems:
            raise NotCompleteLattice((), "element")
        idx, upm, dnm = poset._index, poset._upm, poset._down_masks()
        by_up, by_dn = poset._element_of_upm(), dict(zip(dnm, elems))
        full = (1 << len(elems)) - 1
        top, bottom = by_dn.get(full), by_up.get(full)
        if top is None or bottom is None:
            raise NotCompleteLattice((), "top" if top is None else "bottom")
        lub = {x: tuple([by_up.get(u & v) for v in upm]) for x, u in zip(elems, upm)}
        glb = {x: tuple([by_dn.get(d & e) for e in dnm]) for x, d in zip(elems, dnm)}
        if any(None in row for row in (*lub.values(), *glb.values())):
            for (_, x), (j, y) in combinations(enumerate(elems), 2):
                if lub[x][j] is None:
                    raise NotCompleteLattice((x, y), "lub")
                if glb[x][j] is None:
                    raise NotCompleteLattice((x, y), "glb")
        return FinLattice(
            poset, top, bottom,
            lambda a, b: lub[a][idx[b]],
            lambda a, b: glb[a][idx[b]],
        )


class SetLattice(FinLattice, Immutable):
    """A lattice of subsets under inclusion, whose elements are named after
    their members; ``members`` maps each name back to its subset.

    A set lattice is immutable, so that one can be shared (see
    :func:`powerset_lattice`): setting an attribute raises AttributeError,
    and ``members`` is a read-only mapping whose writes raise TypeError.
    """

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
        # a name starts with "{", so sorted_elems would sort it as a string
        names = sorted(members) if by_name else list(members)
        full, common = 0, mask_of[names[0]]
        for mask in name_of_mask:
            full |= mask
            common &= mask
        top, bottom = name_of_mask.get(full), name_of_mask.get(common)
        if top is None or bottom is None:
            raise NotCompleteLattice((), "top" if top is None else "bottom")
        # up-masks by intersecting, per member atom, the bitmask (over element
        # positions) of the subsets that hold it: no pairwise subset tests
        holders = dict.fromkeys(atoms, 0)
        for j, name in enumerate(names):
            for x in members[name]:
                holders[x] |= 1 << j
        upm = [reduce(int.__and__, map(holders.__getitem__, members[name]),
                      (1 << len(names)) - 1) for name in names]
        lat = SetLattice(
            FinPoset(names, upm), top, bottom,
            lambda a, b: name_of_mask[mask_of[a] | mask_of[b]],
            lambda a, b: name_of_mask[mask_of[a] & mask_of[b]],
        )
        init = object.__setattr__
        init(lat, "members", FrozenDict(members))
        init(lat, "_bit", bit)
        init(lat, "_mask", mask_of)
        init(lat, "_name", name_of_mask)
        return lat

    def _find_join_irreducibles(self) -> frozenset:
        # the lub of the elements strictly below x is the union of their
        # masks, starting from the bottom's (the lub of no elements)
        masks, bottom = [self._mask[x] for x in self.elements], self._mask[self.bottom]
        return frozenset(
            x for i, (x, d) in enumerate(zip(self.elements, self.base._down_masks()))
            if reduce(int.__or__, map(masks.__getitem__, bit_positions(d ^ 1 << i)),
                      bottom) != masks[i])

    def _every_join_defined(self) -> bool:
        # each element is the bottom or-ed with the join-irreducibles below
        # it, so the family is closed under union once every x | j is in it
        name, mask = self._name, self._mask
        jirr = [mask[j] for j in self.join_irreducibles()]
        return all(m | j in name for m in name for j in jirr)

    def name_of(self, subset: Iterable[str]) -> str:
        """The element whose members are exactly ``subset``."""
        try:
            return self._name[sum(self._bit[x] for x in frozenset(subset))]
        except KeyError:
            raise UnknownElement(f"no element with members {subset!r}") from None


def _closure(start: Iterable, gens: Sequence, op) -> Iterator:
    """Breadth first, each once, the members of the least family holding
    ``start`` and ``op(m, g)`` for every member m and every g in ``gens``."""
    members = list(dict.fromkeys(start))
    seen = set(members)
    yield from members
    for m in members:  # the scan reaches what it appends
        for g in gens:
            new = op(m, g)
            if new not in seen:
                seen.add(new)
                members.append(new)
                yield new


def moore_lattice(
    atoms: Iterable[str], family: Iterable[Iterable[str]],
) -> tuple[FinLattice, dict[str, frozenset]]:
    """The Moore family generated by ``family`` (its intersections, with
    ``atoms`` as the empty one, closed by a worklist on int masks) as a
    plain FinLattice under inclusion, and each element's subset.  Join is
    the least member above the union, not the union: the family is named,
    sorted by name and ordered by :meth:`SetLattice.from_family`, and
    :meth:`FinLattice.from_poset` tabulates the bounds."""
    atoms = sorted_elems(atoms)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    try:
        masks = [sum(bit[x] for x in frozenset(s)) for s in family]
    except KeyError as exc:
        raise UnknownElement(f"{exc.args[0]!r} is not an atom") from None
    closed = _closure([(1 << len(atoms)) - 1, *masks], masks, int.__and__)
    sets = SetLattice.from_family(
        atoms, ([a for a in atoms if m & bit[a]] for m in closed), by_name=True)
    return FinLattice.from_poset(sets.base), sets.members


def iter_downsets(poset: FinPoset):
    """Yield every downward-closed subset of ``poset`` as a frozenset.

    Breadth first from the empty set: each downset, in the order found, is
    grown by the down-set of every element outside it, in sorted order (an
    element inside it would add nothing).  Raises TooLarge if more than
    ``DOWNSETS_GUARD`` downsets would be produced.
    """
    downs = [(x, poset.down(x)) for x in sorted_elems(poset.elements)]
    found, seen = [frozenset()], {frozenset()}
    for count, ds in enumerate(found, 1):  # the scan reaches what it appends
        if count > DOWNSETS_GUARD:
            raise TooLarge(f"more than {DOWNSETS_GUARD} downward-closed subsets")
        yield ds
        for x, down in downs:
            if x not in ds:
                grown = ds | down
                if grown not in seen:
                    seen.add(grown)
                    found.append(grown)


def downsets_lattice(poset: FinPoset) -> SetLattice:
    """The complete lattice of all downward-closed subsets, ordered by
    inclusion: union and intersection of downsets are downsets."""
    return SetLattice.from_family(poset.elements, iter_downsets(poset), by_name=True)


def subsets_by_size(values: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Every subset of ``values``, by size, each size in
    :func:`itertools.combinations` order."""
    for k in range(len(values) + 1):
        yield from combinations(values, k)


# A powerset lattice over n values holds 2^n subsets and a poset whose up-
# and down-sets have 3^n entries each: under tracemalloc (Python 3.11) about
# 0.9 MB at 8 values, 7 MB at 10 and 59 MB at 12.  So only lattices over at
# most POWERSET_INTERN_VALUES values are kept, the POWERSET_INTERN_SIZE most
# recently used of them.
POWERSET_INTERN_VALUES = 8
POWERSET_INTERN_SIZE = 32


def powerset_lattice(values: Iterable[str]) -> SetLattice:
    """The powerset of ``values`` as a lattice, subsets listed by size.

    The lattice depends only on the set of values, so one over at most
    ``POWERSET_INTERN_VALUES`` values is built once per sorted tuple of
    values and shared: every permutation of the same values gets the same
    object, whose ``members`` are read-only and whose join-irreducibles are
    found once.  The cache retains at most ``POWERSET_INTERN_SIZE`` lattices
    of at most 2^8 elements each, about 30 MB in the worst case.  Duplicated
    values and the size guard raise on every call, before the lookup.
    """
    vals = tuple(sorted_elems(values))
    if len(set(vals)) != len(vals):
        raise DuplicateElement("set lattice over duplicated atoms")
    if 2 ** len(vals) > DOWNSETS_GUARD:
        raise TooLarge(f"powerset of {len(vals)} values exceeds the guard")
    if len(vals) > POWERSET_INTERN_VALUES:
        return _build_powerset(vals)
    return _interned_powerset(vals)


def _build_powerset(vals: tuple[str, ...]) -> SetLattice:
    return SetLattice.from_family(vals, subsets_by_size(vals))


_interned_powerset = lru_cache(maxsize=POWERSET_INTERN_SIZE)(_build_powerset)


def lift_powerset(lat: SetLattice, table) -> dict:
    """Each subset S of the powerset ``lat`` (from :func:`powerset_lattice`)
    -> the union of ``table[b]`` over its members b, the lifting
    :func:`galkit.setops.lift_star` computes, with one union per subset:
    that of S less its lowest-bit member, which the by-size listing puts
    first, and that member's set."""
    of_bit = {bit: table[b] for b, bit in lat._bit.items()}
    by_mask = {0: frozenset()}
    lifted = {}
    for name in lat.elements:
        mask = lat._mask[name]
        if mask:
            low = mask & -mask
            by_mask[mask] = by_mask[mask ^ low] | of_bit[low]
        lifted[name] = by_mask[mask]
    return lifted


def meet_closure(lat: FinLattice, members: Iterable[str]) -> frozenset:
    """Smallest superset of ``members`` closed under glbs (glb of the empty
    family is the top, which is always included)."""
    gens = list(members)
    for x in gens:
        lat.base.require(x)
    return frozenset(_closure([lat.top, *gens], gens, lat.meet))
