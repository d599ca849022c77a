"""Finite posets, complete lattices and downward-closed sets.

All elements are opaque strings; integer-valued elements render as decimal
strings so that one identifier space works across carriers, abstract domains
and powerset lattices.  A poset is built from one int up-mask per element
after reflexive-transitive closure (carriers are small by design, so O(n^2)
bits beat walking a Hasse diagram) and decodes name up-/down-sets only on
demand.  Every lattice is complete and finds a bound by one rule: one AND
of two int keys and one lookup.  A lattice of sets comes from one
constructor, :class:`SetLattice`, over a family closed under intersection;
it interns each subset as an int bitmask over its atoms and renders its
name once, so joins never parse names.  It is immutable, and small
powerset lattices are shared by their values.

What an instance derives from its own contents is computed on first use
and kept by one decorator, :func:`kept`, in the instance's ``_kept`` dict:
a poset's down-masks, element of each up-mask and name sets, a lattice's
join-irreducibles, and (in :mod:`galkit.galois`) a connection table's
holder masks, atoms and additivity verdict, and a connection's checker
reports, in a dict shared by the connections of the same contents over
one table.  A :class:`FrozenDict` subclass can keep values too: a
connection table (:class:`galkit.galois.Table`) is one, with a ``_kept``
slot.
"""
from __future__ import annotations

from functools import lru_cache, reduce, wraps
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


def kept(compute):
    """A method (or a function of one instance) computed once per instance:
    the value of ``compute(self)``, which is never None, is kept in the
    instance's ``_kept`` dict keyed by ``compute``, and a repeat call
    returns that same object.  An instance's contents never change once
    built, so a kept value never goes stale.  ``__wrapped__`` is the
    uncached computation, and so the key: code that proves a value as it
    builds an instance may store it there first."""
    @wraps(compute)
    def read(self):
        value = self._kept.get(compute)
        if value is None:
            value = self._kept[compute] = compute(self)
        return value
    return read


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

    __slots__ = ("elements", "_index", "_upm", "_kept")

    def __init__(self, elements: Iterable[str], upm: Iterable[int]):
        self.elements = elems = tuple(elements)
        self._index = {x: i for i, x in enumerate(elems)}
        self._upm = tuple(upm)
        self._kept = {}

    @kept
    def _down_masks(self) -> tuple:
        """Bit i of ``dnm[j]`` is set when ``elements[i] <= elements[j]``."""
        dnm = [0] * len(self._upm)
        for i, m in enumerate(self._upm):
            for j in bit_positions(m):
                dnm[j] |= 1 << i
        return tuple(dnm)

    @kept
    def _element_of_upm(self) -> dict:
        """Each up-mask -> its element: the lub of a set, when there is
        one, is the element whose up-mask is the AND of the members'."""
        return dict(zip(self._upm, self.elements))

    @kept
    def _name_sets(self) -> tuple[dict, dict]:
        """The up-sets and the down-sets of names, decoded from the masks."""
        elems = self.elements
        return tuple(
            {x: frozenset(map(elems.__getitem__, bit_positions(m)))
             for x, m in zip(elems, masks)}
            for masks in (self._upm, self._down_masks()))

    # -- basic queries -------------------------------------------------

    def __contains__(self, x: str) -> bool:
        try:
            return x in self._index
        except TypeError:  # unhashable, so no element
            return False

    def __len__(self) -> int:
        return len(self.elements)

    def require(self, x: str) -> None:
        if x not in self:
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
        try:
            dnm, bits = self._down_masks(), {self._index[x] for x in members}
        except KeyError as exc:  # an unknown member, named as leq and up name it
            raise UnknownElement(f"element {exc.args[0]!r} not in poset") from None
        # each member lies in its own down-set: the union is the members' set
        # exactly when every down-set lies in it
        return reduce(int.__or__, map(dnm.__getitem__, bits), 0) == sum(1 << i for i in bits)

    def __eq__(self, other) -> bool:
        """The same names under the same order.  Over one element tuple
        that is one up-mask per position, compared as they are; other
        element orders compare the decoded up-sets of names."""
        if not isinstance(other, FinPoset):
            return NotImplemented
        if self.elements == other.elements:
            return self._upm == other._upm
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


def _and_keys(keys: Sequence[int], members: int, start: int) -> int:
    """``start`` AND-ed with the keys of the elements whose bits are set in
    ``members``: from the bottom's join key, the join key of their lub."""
    return reduce(int.__and__, map(keys.__getitem__, bit_positions(members)), start)


def _twin_pairs(upm: Sequence[int], dnm: Sequence[int]) -> list[tuple[int, int]]:
    """The index pairs whose lubs decide every pair's (see
    :meth:`FinLattice.from_poset`): elements are grouped by their strict
    up-mask and strict down-mask, and the pairs are the first two members
    of each class that has two, then every two classes' first members."""
    classes: dict = {}
    for i, (u, d) in enumerate(zip(upm, dnm)):
        classes.setdefault((u ^ 1 << i, d ^ 1 << i), []).append(i)
    pairs = [(c[0], c[1]) for c in classes.values() if len(c) > 1]
    return pairs + list(combinations([c[0] for c in classes.values()], 2))


class FinLattice:
    """A finite complete lattice: a poset plus one int join key and one int
    meet key per element, under one bound rule.

    The lub of x and y is the element whose join key is the AND of theirs;
    the glb likewise on meet keys.  The join key of every lattice is its
    poset's up-mask: the AND of two up-masks is the set of common upper
    bounds, and the lub is the least of them, the one whose own up-set is
    all of them (Davey & Priestley, *Introduction to Lattices and Order*,
    2002, ch. 2).  An order lattice is met by down-masks likewise, and a
    :class:`SetLattice` by member masks, so its meet is intersection.  The
    top and the bottom are the elements keyed by the AND of all keys.
    :meth:`from_poset` verifies that no bound is missing, and a
    :class:`SetLattice` lacks none by construction; a lattice built around
    a poset or meet keys that lack a bound raises NotCompleteLattice when
    that bound is asked for.
    """

    __slots__ = ("base", "top", "bottom", "_up", "_of_up", "_dn", "_of_dn", "_kept")

    def __init__(self, base: FinPoset, meet_keys: dict):
        """``meet_keys`` maps each meet key to its element, one key per
        element of ``base``."""
        if not base.elements:
            raise NotCompleteLattice((), "element")
        join_keys = base._element_of_upm()
        top = join_keys.get(reduce(int.__and__, join_keys))
        bottom = meet_keys.get(reduce(int.__and__, meet_keys))
        if top is None or bottom is None:
            raise NotCompleteLattice((), "top" if top is None else "bottom")
        init = object.__setattr__  # a SetLattice refuses plain assignment
        init(self, "base", base)
        init(self, "top", top)
        init(self, "bottom", bottom)
        init(self, "_up", dict(zip(base.elements, base._upm)))
        init(self, "_of_up", join_keys)
        init(self, "_dn", dict(zip(meet_keys.values(), meet_keys)))
        init(self, "_of_dn", meet_keys)
        init(self, "_kept", {})

    @property
    def elements(self):
        return self.base.elements

    def leq(self, x, y):
        return self.base.leq(x, y)

    def join(self, x: str, y: str) -> str:
        try:
            return self._of_up[self._up[x] & self._up[y]]
        except KeyError:  # an argument outside the lattice, or no lub
            return self._fold((x, y), self.bottom, self._up, self._of_up, "lub")

    def meet(self, x: str, y: str) -> str:
        try:
            return self._of_dn[self._dn[x] & self._dn[y]]
        except KeyError:
            return self._fold((x, y), self.top, self._dn, self._of_dn, "glb")

    def lub(self, members: Iterable[str]) -> str:
        return self._fold(members, self.bottom, self._up, self._of_up, "lub")

    def glb(self, members: Iterable[str]) -> str:
        return self._fold(members, self.top, self._dn, self._of_dn, "glb")

    def _fold(self, members, acc, keys, of_key, direction):
        """The bound of ``acc`` and ``members``, one member at a time: each
        AND of the keys so far with the next member's must key an element,
        or NotCompleteLattice names that pair.  From the bottom (the top)
        the first step always holds, so a missing bound of x and y is named
        (x, y).  A KeyError raised by ``members`` itself passes through."""
        key = keys[acc]
        for x in members:
            k = keys.get(x)
            if k is None:
                self.base.require(x)
            key &= k
            bound = of_key.get(key)
            if bound is None:
                raise NotCompleteLattice((acc, x), direction)
            acc = bound
        return acc

    @kept
    def join_irreducibles(self) -> frozenset:
        """Elements that are not the lub of any subset excluding them,
        computed on first use and kept on the lattice.

        In a finite lattice this is exactly: x differs from the lub of the
        elements strictly below it (and the bottom is never join-irreducible).
        Every element is the lub of the join-irreducibles below it.
        """
        # the elements strictly below x have x as their lub exactly when
        # the AND of their join keys, from the bottom's, is x's key
        elems, keys, start = self.elements, self.base._upm, self._up[self.bottom]
        return frozenset(
            x for i, (x, d) in enumerate(zip(elems, self.base._down_masks()))
            if _and_keys(keys, d ^ 1 << i, start) != keys[i])

    def __eq__(self, other):
        if not isinstance(other, FinLattice):
            return NotImplemented
        return self.base == other.base

    def __repr__(self):
        return f"FinLattice({len(self.base)} elements)"

    @staticmethod
    def from_poset(poset: FinPoset) -> "FinLattice":
        """The lattice of ``poset``, keyed by its up-masks and down-masks,
        once verified complete; no bound is kept.

        For a finite poset, existence of all pairwise lubs plus a top and
        bottom implies a complete lattice: the glb of x and y is then the lub
        of their lower bounds, a set that holds the bottom.  Raises
        NotCompleteLattice otherwise, naming the first pair in
        ``combinations`` order that lacks a bound (its lub checked first): x
        and y have a lub exactly when the AND of their up-masks is the
        up-mask of an element, and a glb likewise on down-masks.

        It first tests only the pairs of :func:`_twin_pairs`, one per two
        classes of twins (elements with the same strict up-set and the
        same strict down-set).  Swapping two twins is an order automorphism,
        and an automorphism maps the lub (glb) of a pair, or its absence, to
        that of the image pair (Davey & Priestley, *Introduction to Lattices
        and Order*, 2002, ch. 2).  Transpositions inside each class move any
        pair onto a tested one: two twins onto the first two members of
        their class, two others onto the first members of theirs.  So when
        every tested lub exists, all do, and so do all glbs.  That costs
        O(n) to group and O(k^2) lub tests for k classes; ``signconst_pcgc``
        has k = 10 at every bound.  When a tested lub is missing, one pass
        over all pairs, testing lub and then glb, finds the first pair that
        lacks a bound.
        """
        elems, upm, dnm = poset.elements, poset._upm, poset._down_masks()
        lat = FinLattice(poset, dict(zip(dnm, elems)))
        of_up, of_dn = lat._of_up, lat._of_dn
        if all(upm[i] & upm[j] in of_up for i, j in _twin_pairs(upm, dnm)):
            return lat
        for i, (x, u, d) in enumerate(zip(elems, upm, dnm), 1):
            for y, v, e in zip(elems[i:], upm[i:], dnm[i:]):
                if u & v not in of_up:
                    raise NotCompleteLattice((x, y), "lub")
                if d & e not in of_dn:
                    raise NotCompleteLattice((x, y), "glb")
        return lat


class SetLattice(FinLattice, Immutable):
    """The lattice of a family of subsets under inclusion, whose elements
    are named after their members; ``members`` maps each name back to its
    subset.

    ``masks`` gives each subset as an int over ``atoms``, bit i standing for
    ``atoms[i]``; atoms in any order are moved first to the bits of the
    sorted atoms.  The family must be closed under intersection and hold a
    member above all the others: then it is a complete lattice under
    inclusion (a topped intersection-structure; Davey & Priestley,
    *Introduction to Lattices and Order*, 2002, ch. 2), whose meet is
    intersection and whose join is the least member above the union.  So
    no bound is checked, as :meth:`FinLattice.from_poset` would: every AND
    of two member masks is a member's, and every AND of two up-masks, the
    set of the members above both, is the up-mask of the intersection of
    those members.  A subset's join key is its up-mask and its meet key its
    member mask.

    Each subset is named once, as :func:`set_name` would name it, and the
    elements keep the order of ``masks``, or are sorted by name when
    ``by_name``.  Raises DuplicateElement over duplicated atoms and when
    two subsets get the same name (over the atoms ``a``, ``b`` and ``a,b``,
    both ``{a, b}`` and ``{"a,b"}`` would be named ``{a,b}``), and
    UnknownElement for a mask with a bit outside the atoms.

    A set lattice is immutable, so that one can be shared (see
    :func:`powerset_lattice`): setting an attribute raises AttributeError,
    and ``members`` is a read-only mapping whose writes raise TypeError.
    """

    __slots__ = ("members", "_bit")

    def __init__(self, atoms: Iterable[str], masks: Iterable[int], by_name: bool = False):
        atoms, masks = list(atoms), list(masks)
        if len(set(atoms)) != len(atoms):
            raise DuplicateElement("set lattice over duplicated atoms")
        if any(m >> len(atoms) for m in masks):  # a bit past the atoms, or a negative int
            raise UnknownElement(f"a mask has a bit outside the {len(atoms)} atoms")
        order = sorted_elems(atoms)
        if order != atoms:
            moved = [1 << order.index(a) for a in atoms]
            masks = [sum(map(moved.__getitem__, bit_positions(m))) for m in masks]
            atoms = order
        of_mask, members = {}, {}
        for m in masks:
            # a subset less its lowest member, once named, gives its name and
            # members; the by-size listing of a powerset names it first
            low = m & -m
            rest = of_mask.get(m ^ low) if m else None
            if rest is None:
                subset = list(map(atoms.__getitem__, bit_positions(m)))
                name, subset = "{" + ",".join(subset) + "}", frozenset(subset)
            else:
                atom = atoms[low.bit_length() - 1]
                name = "{" + atom + ("," + rest[1:] if m != low else "}")
                subset = members[rest] | {atom}
            if name in members:
                raise DuplicateElement(f"two subsets are both named {name!r}")
            of_mask[m], members[name] = name, subset
        # a name starts with "{", so sorted_elems would sort it as a string
        names = sorted(members) if by_name else list(members)
        # up-masks by intersecting, per member atom, the bitmask (over element
        # positions) of the subsets that hold it: no pairwise subset tests
        holders = dict.fromkeys(atoms, 0)
        for j, name in enumerate(names):
            for x in members[name]:
                holders[x] |= 1 << j
        full = (1 << len(names)) - 1
        poset = FinPoset(names, [reduce(int.__and__, map(holders.__getitem__, members[x]), full)
                                 for x in names])
        super().__init__(poset, of_mask)
        init = object.__setattr__
        init(self, "members", FrozenDict(members))
        init(self, "_bit", _bits(tuple(atoms)))

    def name_of(self, subset: Iterable[str]) -> str:
        """The element whose members are exactly ``subset``."""
        try:
            return self._of_dn[sum(self._bit[x] for x in frozenset(subset))]
        except KeyError:
            raise UnknownElement(f"no element with members {subset!r}") from None


# shared by the lattices over one tuple of atoms: the generators build a
# Moore lattice per seed over a handful of them
@lru_cache(maxsize=64)
def _bits(atoms: tuple[str, ...]) -> FrozenDict:
    """Each atom -> its bit."""
    return FrozenDict((a, 1 << i) for i, a in enumerate(atoms))


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


def moore_lattice_of_masks(atoms: Sequence[str], masks: Iterable[int]) -> SetLattice:
    """The Moore family generated by a family given as int masks, bit i
    standing for ``atoms[i]``: its intersections, with the whole set as the
    empty one, closed by a worklist on the masks, as a :class:`SetLattice`
    sorted by name.  Its join is the least member above the union, not the
    union."""
    masks = list(masks)
    return SetLattice(atoms, _closure([(1 << len(atoms)) - 1, *masks], masks, int.__and__),
                      by_name=True)


def downset_masks(poset: FinPoset) -> Iterator[int]:
    """Yield every downward-closed subset of ``poset`` as an int mask over
    its element positions.

    Breadth first from the empty set: each downset, in the order found, is
    grown by the down-set of every element, in sorted order (one inside it
    gives it back, already found).  Raises TooLarge if more than
    ``DOWNSETS_GUARD`` downsets would be produced.
    """
    dnm, index = poset._down_masks(), poset._index
    downs = [dnm[index[x]] for x in sorted_elems(poset.elements)]
    for count, ds in enumerate(_closure([0], downs, int.__or__), 1):
        if count > DOWNSETS_GUARD:
            raise TooLarge(f"more than {DOWNSETS_GUARD} downward-closed subsets")
        yield ds


def iter_downsets(poset: FinPoset):
    """Yield every downward-closed subset of ``poset`` as a frozenset, in
    the order of :func:`downset_masks`."""
    elems = poset.elements
    yield from (frozenset(map(elems.__getitem__, bit_positions(m))) for m in downset_masks(poset))


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
    # every union of distinct bits is a sum
    return SetLattice(vals, map(sum, subsets_by_size([1 << i for i in range(len(vals))])))


_interned_powerset = lru_cache(maxsize=POWERSET_INTERN_SIZE)(_build_powerset)


def meet_closure(lat: FinLattice, members: Iterable[str]) -> frozenset:
    """Smallest superset of ``members`` closed under glbs (glb of the empty
    family is the top, which is always included)."""
    gens = list(members)
    for x in gens:
        lat.base.require(x)
    return frozenset(_closure([lat.top, *gens], gens, lat.meet))
