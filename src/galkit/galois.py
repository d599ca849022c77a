"""Connection records and class checkers with counterexample witnesses.

Two record shapes cover every connection class:

* :class:`CarrierConn` holds a representation function ``eta`` from a finite
  carrier into an abstract poset and a concretization ``mu`` back to carrier
  subsets.  Its ``kind``, ``cgc`` (discrete abstract side), ``cgp``
  (ordered carrier and abstract side) or ``pcgc`` (unordered carrier,
  ordered abstract side), is what a domain file names it; nothing else
  reads it.
* :class:`GaloisConn` holds an adjunction whose concrete domain is the
  (downward) powerset of a carrier.  The concrete lattice stays implicit,
  and ``gamma`` alone fixes the connection: alpha(X) is the lub of the
  atoms a_x, x in X, where a_x is the least abstract element whose
  concretization holds x (Cousot & Cousot, POPL 1979); a domain file's
  ``alpha`` table is checked against gamma where it is loaded.  Neither
  alpha nor :func:`check_gc`, witness included, enumerates the concrete
  side, so large carriers stay usable.

Either record's ``carrier_order`` is None exactly when its carrier is
unordered.  All checkers return the first counterexample in a deterministic
element order; a class is decided by its checker, never by a tag, and
transforms re-run the target checker on their outputs.

A connection's table, ``mu`` or ``gamma``, is a :class:`Table`, and a
:class:`CarrierConn`'s ``eta`` is an :class:`Eta`: each a read-only
mapping over the carrier and the abstract poset, validated once, when it
is built.  Connections, tables and etas are immutable, so what is derived
from them is computed once and kept by :func:`galkit.order.kept`.  A table
keeps what depends on it alone, in its own ``_kept`` dict: its holder
masks, its atoms, its atom map as an eta, its image and its additivity
verdict.  A connection keeps each checker's report and the analyzer's
operator entries in its ``_kept`` dict, which is one record per content,
held by its table: connections over one table with the same class,
``kind``, abstract and carrier order objects and an equal eta share it
(see :meth:`_Connection._init_table`).  A connection handed a table or an
eta over its own carrier and abstract poset objects keeps it as it is, so
the transforms between the ordered classes, which hand their input's
table on and read eta off its atom map, validate each table and each eta
once for a whole round trip and derive each table's masks and image once,
and an output that equals an earlier connection reads that connection's
reports.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import reduce, wraps
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import NotInClass, NotIsomorphic, ShapeMismatch, TooLarge
from .order import (
    DOWNSETS_GUARD,
    scan_order,
    FinLattice,
    FinPoset,
    FrozenDict,
    Immutable,
    _and_keys,
    bit_positions,
    iter_downsets,
    kept,
    powerset_lattice,
    set_name,
    sort_key,
    sorted_elems,
    subsets_by_size,
)
from .setops import FinCarrier, PartitionReport, check_partition


class _Connection(Immutable):
    """The carrier and abstract posets of a connection record, and the
    ``_kept`` dict of what is derived from it (see :func:`kept`), shared
    with every connection of the same contents over its table (see
    :meth:`_init_table`).

    An unordered carrier has ``carrier_order`` None: a discrete order given
    to the constructor is stored as None."""

    __slots__ = ("_kept",)

    def __init__(self, carrier, abstract, carrier_order):
        init = object.__setattr__
        init(self, "carrier", carrier)
        init(self, "carrier_order", carrier_order)
        init(self, "abstract", abstract)
        init(self, "_kept", {})

    @property
    def abstract_poset(self) -> FinPoset:
        abstract = self.abstract
        return abstract.base if isinstance(abstract, FinLattice) else abstract

    @property
    def abstract_lattice(self) -> FinLattice:
        if not isinstance(self.abstract, FinLattice):
            raise ShapeMismatch("abstract side is not a complete lattice")
        return self.abstract

    def carrier_poset(self) -> FinPoset:
        if self.carrier_order is not None:
            return self.carrier_order
        return FinPoset.discrete(self.carrier.values)

    def _init_table(self, name: str, table, kind=None, eta=None) -> None:
        """Set the slot ``name`` to ``table`` as a :class:`Table` over this
        connection's carrier and abstract poset, then check the carrier
        order, and store a discrete one as None.  A table built over those
        same two objects is kept as it is, with what it keeps; any other
        mapping becomes a new table.  A carrier order that is no FinPoset
        raises ShapeMismatch.

        Then the connection takes its ``_kept`` dict from the table's
        record of the connections over it with the same class, ``kind``,
        abstract and carrier order objects and an equal ``eta`` (both None
        for a GaloisConn): such a connection has this one's contents, so it
        keeps the same reports.  Without one, this connection's own dict is
        recorded.  Posets and lattices are compared by identity, and the
        record holds them; an eta by identity first, since connections read
        off one table's atom map share its eta (see :meth:`Table.atom_eta`),
        and then by ``==``."""
        if not _own(Table, table, self):
            table = Table(name, self.carrier, self.abstract_poset, table)
        object.__setattr__(self, name, table)
        order = self.carrier_order
        if order is not None:
            if not isinstance(order, FinPoset):
                raise ShapeMismatch(f"carrier order is a {type(order).__name__}, not a FinPoset")
            if set(order.elements) != set(self.carrier.values):
                raise ShapeMismatch("carrier order does not match carrier")
            if order.is_discrete():
                object.__setattr__(self, "carrier_order", None)
        cls, abstract, order = type(self), self.abstract, self.carrier_order
        for r in table._records:
            if (r[0] is cls and r[1] == kind and r[2] is abstract and r[3] is order
                    and (r[4] is eta or r[4] == eta)):
                object.__setattr__(self, "_kept", r[5])
                return
        table._records.append((cls, kind, abstract, order, eta, self._kept))


def _own(cls, value, X: _Connection) -> bool:
    """``value`` is a ``cls`` built over the carrier and abstract poset
    objects of the connection X, which then keeps it as it is, with what it
    keeps."""
    return type(value) is cls and value.carrier is X.carrier and value.poset is X.abstract_poset


def _fill(name: str, mapping: dict, given) -> None:
    """Fill the new read-only ``mapping`` from ``given``, a mapping or its
    pairs: anything else raises ShapeMismatch naming ``name``."""
    try:
        dict.__init__(mapping, given)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"{name} is neither a mapping nor its pairs: {given!r}") from None


def _reject_stray_keys(table: str, mapping, domain, what: str) -> None:
    """A table's keys must lie in its domain: a stray entry would leak into
    the table's image (``mu_image``, ``gamma_image``) and so into precision
    and isomorphism verdicts.  The table holds every element of its domain,
    so it has a stray key exactly when it has more keys."""
    if len(mapping) > len(domain):
        k = next(k for k in mapping if k not in domain)
        raise ShapeMismatch(f"{table} has a key outside the {what}: {k!r}")


def _members(name: str, key, value) -> frozenset:
    """``value`` as a set: a string, which would split into characters, and
    anything that is no iterable of hashable values raise ShapeMismatch
    naming ``key``."""
    if not isinstance(value, str):
        with suppress(TypeError):
            return frozenset(value)
    raise ShapeMismatch(f"{name}({key!r}) is no set of carrier values: {value!r}")


class Table(FrozenDict, Immutable):
    """A connection's table, ``mu`` or ``gamma``: each element of the
    abstract poset ``poset`` -> the set of ``carrier`` values it
    concretizes to, as a read-only mapping.

    It is validated once, when it is built, and keeps in its ``_kept`` dict
    (see :func:`kept`) what depends on the table alone: its holder masks
    (see :meth:`holder_masks`), its atoms (see :meth:`atoms`) and their map
    as an eta (see :meth:`atom_eta`), its image (see :meth:`image`) and its
    additivity verdict (see :func:`_scan_additive`).  A connection handed a
    table built over its own carrier and abstract poset objects keeps it as
    it is (see :meth:`_Connection._init_table`), so a transform that hands
    its input's table on, as each ordered round trip does, derives none of
    these again.  ``_records`` lists, per content of a connection over the
    table, its key and the ``_kept`` dict its connections share.  Setting
    an attribute raises AttributeError, and a write to the mapping
    TypeError.
    """

    __slots__ = ("carrier", "poset", "_kept", "_records")

    def __init__(self, name: str, carrier: FinCarrier, poset: FinPoset, mapping):
        """The table of ``mapping`` (a mapping, or its pairs), named
        ``name`` in its shape errors: anything else; then, in element
        order, an element with no value, a value that is no set (see
        :func:`_members`) or one with members outside the carrier; then a
        key outside the poset.  A value that is a frozenset inside the
        carrier is kept as it is, and any other set of values is made
        one."""
        _fill(name, self, mapping)
        init = object.__setattr__
        init(self, "carrier", carrier)
        init(self, "poset", poset)
        init(self, "_kept", {})
        init(self, "_records", [])
        universe = carrier.value_set()
        for b in poset.elements:
            members = self.get(b)
            if type(members) is not frozenset or not members <= universe:
                if b not in self:
                    raise ShapeMismatch(f"{name} not total: missing {b!r}")
                members = _members(name, b, members)
                dict.__setitem__(self, b, members)
                if not members <= universe:
                    extra = f": {sorted(members - universe)[:3]}" if name == "mu" else ""
                    raise ShapeMismatch(f"{name}({b!r}) leaves the carrier{extra}")
        _reject_stray_keys(name, self, poset, "abstract poset")

    @kept
    def holder_masks(self) -> dict:
        """x -> H(x) = {b | x in table(b)}, bit i set when x is in the value
        of ``poset.elements[i]``, for every carrier value x: one pass over
        the table, on first use."""
        H = dict.fromkeys(self.carrier.values, 0)
        for i, b in enumerate(self.poset.elements):
            bit = 1 << i
            for x in self[b]:
                H[x] |= bit
        return H

    @kept
    def atoms(self) -> dict:
        """x -> a_x for every carrier value x whose holder set H(x) is
        up(a_x): as a mask over abstract positions, H(x) is the up-mask of
        a_x, found by one lookup.

        Then x in gamma(d) <=> a_x <= d, so the least d with X <= gamma(d)
        is the lub of the a_x, x in X: that is alpha(X).  A value missing
        from the map has no best abstraction.
        """
        of_upm = self.poset._element_of_upm()
        return {x: of_upm[h] for x, h in self.holder_masks().items() if h in of_upm}

    @kept
    def atom_eta(self) -> Eta:
        """The atom map (see :meth:`atoms`) as an :class:`Eta` over the
        table's carrier and poset, for a table in which every carrier value
        has an atom (otherwise its validation raises ShapeMismatch): built
        and validated on first use.  So the connections whose eta is read
        off the atoms, as :func:`galkit.transforms.t_cgp` and
        :func:`galkit.transforms.t_pcgc` read it, share one eta, which each
        keeps as it is."""
        return Eta(self.carrier, self.poset, self.atoms())

    @kept
    def image(self) -> frozenset:
        """The set of the table's values, {table(b) | b}, on first use."""
        return frozenset(self.values())


class Eta(FrozenDict, Immutable):
    """A connection's representation function: each value of ``carrier``
    -> its element of the abstract poset ``poset``, as a read-only mapping.

    It is validated once, when it is built, as a :class:`Table` is, and a
    :class:`CarrierConn` handed an eta built over its own carrier and
    abstract poset objects keeps it as it is.  Setting an attribute raises
    AttributeError, and a write to the mapping TypeError.
    """

    __slots__ = ("carrier", "poset")

    def __init__(self, carrier: FinCarrier, poset: FinPoset, mapping):
        """The eta of ``mapping`` (a mapping, or its pairs): anything else
        raises ShapeMismatch; then, in carrier order, a value with no
        element or one outside the poset; then a key outside the
        carrier."""
        _fill("eta", self, mapping)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "poset", poset)
        for v in carrier.values:
            if v not in self:
                raise ShapeMismatch(f"eta not total: missing {v!r}")
            if self[v] not in poset:
                raise ShapeMismatch(f"eta({v!r}) = {self[v]!r} not abstract")
        _reject_stray_keys("eta", self, carrier, "carrier")


class CarrierConn(_Connection):
    """A connection given by eta/mu tables over a finite carrier.

    A connection is immutable: setting an attribute raises AttributeError,
    and ``eta`` and ``mu`` are read-only mappings whose writes raise
    TypeError; ``eta`` is an :class:`Eta` and ``mu`` a :class:`Table`,
    whose holder masks every carrier checker reads.  Each is kept as it is
    when it was built over the connection's own carrier and abstract poset
    objects, and is otherwise built anew, checked as any mapping is: eta's
    faults come before mu's.  :func:`check_cgc`, :func:`check_cgp` and
    :func:`check_pcgc` run once per content, a repeat call returning the
    report kept in the connection's record; the analyzer keeps its
    operator entries there too (see
    :class:`galkit.analyzer.AbstractSemantics`).
    """

    __slots__ = ("kind", "carrier", "carrier_order", "abstract", "eta", "mu")

    def __init__(self, kind, carrier, abstract, eta, mu, carrier_order=None):
        super().__init__(carrier, abstract, carrier_order)
        object.__setattr__(self, "kind", kind)
        if not _own(Eta, eta, self):
            eta = Eta(carrier, self.abstract_poset, eta)
        object.__setattr__(self, "eta", eta)
        self._init_table("mu", mu, kind, eta)

    def eta_image(self) -> frozenset:
        return frozenset(self.eta.values())

    def blocks(self) -> list[frozenset]:
        """The family {mu(eta(a))} in deterministic order, deduplicated."""
        return list(dict.fromkeys(
            self.mu[self.eta[a]] for a in sorted_elems(self.carrier.values)))

    def mu_image(self) -> frozenset:
        """The set of the mu values, kept on mu (see :meth:`Table.image`)."""
        return self.mu.image()

    def __repr__(self):
        return f"CarrierConn({self.kind}, |A|={len(self.carrier)}, |B|={len(self.abstract_poset)})"


class ClosureOp(Immutable):
    """A set-valued map phi: A -> P(A) satisfying the closure law.

    The law x in phi(y) <=> phi(x) = phi(y) is checked at construction,
    after each value is made a set as a table's are (see :func:`_members`).
    A closure operator is immutable, as a :class:`CarrierConn` is: ``phi``
    is a read-only mapping and setting an attribute raises AttributeError.
    """

    __slots__ = ("carrier", "phi")

    def __init__(self, carrier: FinCarrier, phi: Mapping[str, frozenset]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(
            self, "phi", FrozenDict((a, _members("phi", a, s)) for a, s in phi.items()))
        for v in carrier.values:
            if v not in self.phi:
                raise ShapeMismatch(f"phi not total: missing {v!r}")
            if not self.phi[v] <= carrier.value_set():
                raise ShapeMismatch(f"phi({v!r}) leaves the carrier")
        report = check_cco(self)
        if not report.ok:
            raise NotInClass(f"closure law fails at {report.witness}")


class GaloisConn(_Connection):
    """An adjunction over the (downward) powerset of a carrier.

    ``gamma`` maps abstract elements to carrier subsets, and alone fixes
    alpha: ``alpha(X)`` is the lub of the atoms a_x, x in X (see
    :meth:`atoms`), the least d with X <= gamma(d).

    A connection is immutable: setting an attribute raises AttributeError,
    and ``gamma`` is a read-only :class:`Table` whose writes raise
    TypeError.  So the holder masks, the atom map and the additivity
    verdict are computed once and kept on gamma, and the reports of
    :func:`check_gc` and :func:`classify_partitioning` in the connection's
    record; a powerset lift keeps the atoms and the verdict that its
    construction proves (see :func:`_lift_powerset`).
    """

    __slots__ = ("carrier", "carrier_order", "abstract", "gamma")

    def __init__(self, carrier, abstract, gamma, carrier_order=None):
        super().__init__(carrier, abstract, carrier_order)
        self._init_table("gamma", gamma)

    def atoms(self) -> dict:
        """x -> a_x for every carrier value x that has an atom, kept on
        gamma (see :meth:`Table.atoms`)."""
        return self.gamma.atoms()

    def alpha(self, members: Iterable[str]) -> str:
        """The lub of the members' atoms: a member without one has no best
        abstraction, and one outside the carrier raises UnknownElement."""
        X = frozenset(members)
        atoms = self.atoms()
        if not X.issubset(atoms):
            for x in sorted_elems(X.difference(atoms)):
                self.carrier.require(x)
            raise ShapeMismatch(
                f"no best abstraction for {set_name(X)}: not a Galois connection"
            )
        lub = self.abstract_lattice.lub
        return atoms[next(iter(X))] if len(X) == 1 else lub(atoms[x] for x in X)

    def gamma_image(self) -> frozenset:
        """The extensional image of the induced closure, {gamma(d) | d},
        kept on gamma (see :meth:`Table.image`)."""
        return self.gamma.image()

    def iter_concrete(self):
        """All concrete elements (downsets of the carrier order) in a
        deterministic (size, members) order."""
        if self.carrier_order is None:
            values = sorted_elems(self.carrier.values)
            if 2 ** len(values) > DOWNSETS_GUARD:
                raise TooLarge("carrier too big for exhaustive enumeration")
            for combo in subsets_by_size(values):
                yield frozenset(combo)
        else:
            yield from sorted(iter_downsets(self.carrier_order), key=lambda s: (
                len(s), tuple(map(sort_key, sorted_elems(s)))))

    def __repr__(self):
        return (f"GaloisConn(|A|={len(self.carrier)}, "
                f"|D|={len(self.abstract_poset)})")


def _lift_powerset(C: CarrierConn) -> GaloisConn:
    """The powerset lift of a constructive connection C, for
    :func:`galkit.transforms.t_pgc`, which checks C first: the connection
    from the subsets of C's carrier to those of its abstract values, with
    gamma(S) the union of mu(b) over b in S.  Beside the constructor's
    shape checks, it keeps what the construction proves instead of
    checking it again.

    gamma is built by doubling: g[m] is the union of mu(b) over the atoms b
    whose bits are set in the mask m.  Once the atoms of the bits below k
    are in, g holds every mask below 2^k, and the atom b of bit k appends
    g[m] | mu(b) at m + 2^k.  gamma reads g at each element's mask, in the
    lattice's element order.

    Both are kept on the table, under the keys that :meth:`Table.atoms`
    and :func:`_scan_additive` read (see :func:`kept`), before the
    connection is built over it:

    * Additivity, kept as the verdict ``(True, None)``: gamma({}) = {} and
      gamma(S | T) = gamma(S) | gamma(T), each being the union of mu over
      its members.
    * Atoms, kept as x -> {eta(x)}: gamma({b}) = mu(b), and ``check_cgc``
      gives x in mu(b) <=> b = eta(x), so x in gamma(S) <=> eta(x) in S.
      The holder set of x is up({eta(x)}) (see :meth:`Table.atoms`).
    """
    lat = powerset_lattice(C.abstract_poset.elements)
    g = [frozenset()]
    for mu_b in map(C.mu.__getitem__, lat._bit):
        g += [x | mu_b for x in g]
    gamma = Table("gamma", C.carrier, lat.base,
                  zip(lat._of_dn.values(), map(g.__getitem__, lat._of_dn)))
    gamma._kept[Table.atoms.__wrapped__] = {
        x: lat._of_dn[lat._bit[C.eta[x]]] for x in C.carrier.values}
    gamma._kept[_scan_additive.__wrapped__] = (True, None)
    return GaloisConn(C.carrier, lat, gamma)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class GCReport:
    is_gc: bool
    is_gi: bool
    is_disjunctive: bool
    witness: object = None

    def __bool__(self):
        return self.is_gc


@dataclass(frozen=True)
class PCGCReport:
    cond1: bool
    cond2: bool
    witness: object = None

    @property
    def ok(self):
        return self.cond1 and self.cond2

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ClassifyReport:
    category: str  # "PGC" | "PPGC" | "neither"
    alt2prime: bool
    partition: PartitionReport
    witness: object = None


# ---------------------------------------------------------------------------
# checkers


def _require(cls, fn: str, X) -> None:
    """Raise ShapeMismatch naming the class of X, before anything reads a
    slot of it, unless X is a ``cls``."""
    if not isinstance(X, cls):
        raise ShapeMismatch(f"{fn} needs a {cls.__name__}, not a {type(X).__name__}")


def _once_per_connection(cls):
    """A decorator making a checker of ``cls`` instances :func:`kept`: its
    report is computed once per connection record, so a repeat call returns
    the same report object.  An argument that is no ``cls`` raises
    ShapeMismatch naming its class.  ``__wrapped__`` is the uncached check."""
    def decorate(check):
        memo = kept(check)

        @wraps(check)
        def checked(X):
            _require(cls, check.__name__, X)
            return memo(X)
        return checked
    return decorate


@_once_per_connection(GaloisConn)
def check_gc(G: GaloisConn) -> GCReport:
    """The adjunction alpha(X) <= d <=> X <= gamma(d), for every concrete X
    and abstract d; also report insertion and disjunctivity status.

    Read off the holder masks H(x) = {d | x in gamma(d)} (see
    :meth:`Table.holder_masks`) in O(|A| + sum |gamma|) steps, plus one
    AND per pair x' <= x of a carrier order, at any carrier size, it holds
    exactly when:

    * (i) every gamma(d) is a downset of the carrier order, as a map into
      the concrete domain must be: that is, H(x) <= H(x') for every
      x' <= x, so the failing d are the bits of H(x) & ~H(x') (witness
      ``("gamma-downclosed", d)`` for the first of them in element order);
    * (ii) every H(x) is up(a_x) for an atom a_x (see
      :meth:`GaloisConn.atoms`).

    Sufficiency: alpha(X) <= d <=> every a_x <= d <=> X <= gamma(d).
    Necessity: given (i), H(x) is the set of upper bounds of alpha(down(x)).
    Then alpha is onto exactly when gamma is injective, so that is
    ``is_gi``.  When (ii) fails, :func:`_adjunction_failure` names the first
    failing (X, d) in one more pass over gamma and a sort of the carrier,
    enumerating nothing.  The report is kept in the connection's record,
    and an argument that is no GaloisConn raises ShapeMismatch naming its
    class.
    """
    order = G.carrier_order
    if order is not None:
        h = list(map(G.gamma.holder_masks().__getitem__, order.elements))
        # the d in H(x) but not in every H(x'), x' <= x: H(x) & ~(their AND)
        bad = reduce(int.__or__, (hx & ~_and_keys(h, dn, hx)
                                  for hx, dn in zip(h, order._down_masks())), 0)
        if bad:
            poset = G.abstract_poset
            return GCReport(False, False, False, ("gamma-downclosed", next(
                d for d in sorted_elems(poset.elements) if bad >> poset._index[d] & 1)))
    if len(G.atoms()) < len(G.carrier.values):
        return GCReport(False, False, False, _adjunction_failure(G))
    is_gi = len(set(G.gamma.values())) == len(G.gamma)
    G.abstract_lattice  # additivity is a lattice's: a bare poset raises
    is_disj, wit = _scan_additive(G.gamma)
    return GCReport(True, is_gi, is_disj, wit)


def _adjunction_failure(G: GaloisConn):
    """The first (X, d), X in :meth:`GaloisConn.iter_concrete` order and d
    in element order, at which alpha(X) <= d <=> X <= gamma(d) fails, with
    alpha(X) the least d with X <= gamma(d), and (X, None) when there is
    none; for a connection that meets condition (i) of :func:`check_gc` and
    fails (ii).  It enumerates no concrete element.

    X fails exactly when its covers C(X) = {d | X <= gamma(d)} are not
    up(m) for their least element m: (X, None) when there is no m, and
    otherwise (X, d) for the first d of up(m) ^ C(X).

    * X = {}: C({}) holds every element, which is up(m) exactly when m is
      least.  So {} fails only over an abstract poset with no least
      element, and it comes first.
    * Otherwise C(X) is the AND of the holder sets H(x), x in X.  When
      every x in X has an atom, that is the AND of the up(a_x), the upper
      bounds of the atoms, which is up of their lub: X passes.  So a
      failing X holds a value y with no atom.  X is a downset, so
      down(y) <= X, and by (i) every gamma(d) that holds y holds down(y):
      C(down(y)) = H(y), which is no up(m), so down(y) fails too.  It has
      at most |X| members, and is X when it has |X|, so it comes no later
      than X in (size, members) order.

    So the witness is down(y) for the first, in that order, of the values
    y without an atom, and its d is read off H(y).  The lub step needs
    every lub: over a bare poset that is no lattice this raises
    NotCompleteLattice.
    """
    poset = G.abstract_poset
    elems, index, upm = poset.elements, poset._index, poset._upm
    if (1 << len(elems)) - 1 not in poset._element_of_upm():
        return ("{}", None)
    if not isinstance(G.abstract, FinLattice):
        FinLattice.from_poset(poset)
    down, atoms = G.carrier_poset().down, G.atoms()
    y = min((x for x in sorted_elems(G.carrier.values) if x not in atoms),
            key=lambda x: (len(down(x)), tuple(map(sort_key, sorted_elems(down(x))))))
    X, covers = set_name(down(y)), G.gamma.holder_masks()[y]
    least = next((i for i in bit_positions(covers) if upm[i] & covers == covers), None)
    if least is None:
        return (X, None)
    bad = upm[least] ^ covers
    return (X, next(d for d in sorted_elems(elems) if bad >> index[d] & 1))


@kept
def _scan_additive(gamma: Table):
    """gamma, a table over the poset of a lattice, preserves all lubs:
    ``(True, None)``, or ``(False, witness)`` with the witness
    ``(bottom,)`` when gamma(bottom) != {} and otherwise the first pair
    (x, y), in sorted order, with gamma(x v y) != gamma(x) | gamma(y).
    Kept on the table, so that :func:`check_gc` and
    :func:`classify_partitioning` share one scan, across the connections
    over that table too; each of them first checks that its abstract side
    is a lattice.

    With gamma(bottom) = {}, that holds exactly when, for every carrier
    value a, the elements whose gamma misses a, full ^ H(a) over the holder
    masks, are a principal downset down(q_a): one of the lattice's
    down-masks, one set lookup per value (Davey & Priestley, *Introduction
    to Lattices and Order*, 2002, ch. 2).

    * Only if: an additive gamma is monotone, so that set is a downset; it
      holds bottom, and a not in gamma(x) | gamma(y) = gamma(x v y) for x,
      y in it, so it is closed under v.  A nonempty downset of a finite
      lattice closed under v holds its lub q_a, so it is down(q_a).
    * If: bottom <= q_a gives a not in gamma(bottom), and
      a in gamma(x v y) <=> not x v y <= q_a <=> not (x <= q_a and
      y <= q_a) <=> a in gamma(x) | gamma(y).

    Only a failing verdict runs the pairwise scan that names the witness,
    on int masks by element index.  By "if", a pair can fail only at a value
    whose misses are no down-mask, so g[i] is gamma(elements[i]) as a mask
    over those values alone, transposed from their holder masks; and x v y
    is the element whose up-mask is the AND of theirs, so no ``join`` is
    called.
    """
    elems, index, upm = gamma.poset.elements, gamma.poset._index, gamma.poset._upm
    full, downs = (1 << len(elems)) - 1, set(gamma.poset._down_masks())
    failing = [h for h in gamma.holder_masks().values() if full ^ h not in downs]
    if not failing:
        return True, None
    # every down-mask holds the bottom, the element whose up-mask is full:
    # a value in gamma(bottom) fails, so only a failing verdict tests it
    bottom = gamma.poset._element_of_upm()[full]
    if gamma[bottom]:
        return False, (bottom,)
    g, of_up = [0] * len(elems), dict(zip(upm, range(len(upm))))
    for bit, h in enumerate(failing):
        for i in bit_positions(h):
            g[i] |= 1 << bit
    return False, next((elems[i], elems[j]) for i, j in combinations(
        [index[x] for x in sorted_elems(elems)], 2) if g[of_up[upm[i] & upm[j]]] != g[i] | g[j])


# The carrier checkers below test laws between eta and mu that the paper
# states pairwise.  Fixing x, each law is an equation between the holder set
# H(x) = {y | x in mu(y)} and a mask read off eta(x), so the masks that mu
# keeps (Table.holder_masks), every H(x) as an int over abstract positions,
# replace the pair scans.  A witness is still
# the first failing pair of the pairwise loop: its x is the first, in that
# loop's order, whose mask of failing y is nonzero, and its y the first of
# those in the inner loop's order.  Only a failing check sorts.


def _first_failure(xs, order, witness):
    """``witness(x)`` for the first x of ``order(xs)`` at which it is not
    None, or None.  The accepting pass visits ``xs`` as given, so ``order``
    (a sort) runs only once something fails."""
    if all(witness(x) is None for x in xs):
        return None
    return next(w for x in order(xs) if (w := witness(x)) is not None)


def _first_pair(xs, order, bad, ys, index):
    """The pair (x, y) that the loop "for x in order(xs): for y in ys(x)"
    meets first with bit ``index[y]`` set in the mask ``bad(x)``, or None
    when every ``bad(x)`` is 0.  The accepting pass reads ``bad`` alone."""
    if not any(map(bad, xs)):
        return None
    x, failing = next((x, m) for x in order(xs) if (m := bad(x)))
    return x, next(y for y in ys(x) if failing >> index[y] & 1)


def _holder_law_failure(C: CarrierConn, H: dict, mask_of: Callable[[int], int]):
    """The first pair (x, y), x in scan order and y in element order, with
    y in H(x) ^ ``mask_of(i)``, i the position of eta(x)."""
    bp = C.abstract_poset
    return _first_pair(C.carrier.values, scan_order,
                       lambda x: H[x] ^ mask_of(bp._index[C.eta[x]]),
                       lambda x: sorted_elems(bp.elements), bp._index)


def _order_law_failure(C: CarrierConn, H: dict):
    """The first pair (x, y), x in scan order and y in element order,
    breaking x in mu(y) <=> eta(x) <= y.  Fixing x, the law is exactly
    H(x) = up(eta(x)), so the failing y are H(x) ^ up(eta(x))."""
    return _holder_law_failure(C, H, C.abstract_poset._upm.__getitem__)


def _eta_monotone_failure(C: CarrierConn, cp: FinPoset, xs, order):
    """The first ("eta-monotone", x, x2), x in ``order(xs)`` and x2 in
    element order, with x <= x2 in ``cp`` but not eta(x) <= eta(x2), that
    is, with eta(x2) outside up(eta(x)).

    Per distinct value b of eta, the carrier positions whose eta lies in
    up(b) are the OR of the preimage masks of the members of up(b): one
    pass over the carrier and one over each up(b), O(|A| + sum |up|)."""
    bp, index = C.abstract_poset, cp._index
    at = {x: bp._index[C.eta[x]] for x in cp.elements}
    pre = dict.fromkeys(at.values(), 0)  # abstract position -> its eta preimage
    for i, x in enumerate(cp.elements):
        pre[at[x]] |= 1 << i
    over = {b: reduce(int.__or__, (pre.get(j, 0) for j in bit_positions(bp._upm[b])), 0)
            for b in pre}
    wit = _first_pair(xs, order, lambda x: cp._upm[index[x]] & ~over[at[x]],
                      lambda x: sorted_elems(cp.up(x)), index)
    return wit and ("eta-monotone", *wit)


@_once_per_connection(CarrierConn)
def check_cgc(C: CarrierConn) -> CheckResult:
    """x in mu(y) <=> eta(x) = y, for every pair.

    Fixing x, "for all y: x in mu(y) <=> eta(x) = y" says exactly
    H(x) = {eta(x)}.  The witness is the pair the pairwise loop (x in scan
    order, y in element order) meets first: the first x whose
    H(x) ^ {eta(x)} is nonempty, and the first y of that set.  Cost O(|A|)
    on success, past the one pass over mu that its holder masks take.
    """
    wit = _holder_law_failure(C, C.mu.holder_masks(), lambda i: 1 << i)
    return CheckResult(wit is None, wit)


@_once_per_connection(CarrierConn)
def check_cgp(C: CarrierConn) -> CheckResult:
    """eta, mu monotone, mu lands in downward-closed sets, and
    x in mu(y) <=> eta(x) <= y.

    The phases run in that order and report the first failure of the
    pairwise definition.  eta is monotone when eta(x2) lies in up(eta(x))
    for every x2 in up(x), x in element order.  mu is checked per b in
    element order: mu(b) downward closed, then mu(b) <= mu(b2) for b2 in
    up(b).  The last law, fixing x, is H(x) = up(eta(x)) (see
    :func:`check_pcgc`).  A monotone eta and the last law imply the mu
    phase: x in mu(b), x' <= x and b <= b2 give eta(x') <= eta(x) <= b <=
    b2, so x' lies in mu(b) and x in mu(b2).  So the mu phase runs only once
    the last law fails, to find the first failure.  No phase calls ``leq``
    or sorts on success.
    """
    cp = C.carrier_poset()
    bp = C.abstract_poset

    def mu_witness(b):
        if not cp.is_down_closed(C.mu[b]):
            return ("mu-downclosed", b)
        b2 = next((b2 for b2 in sorted_elems(bp.up(b))
                   if not C.mu[b] <= C.mu[b2]), None)
        return None if b2 is None else ("mu-monotone", b, b2)

    law = _order_law_failure(C, C.mu.holder_masks())
    wit = (_eta_monotone_failure(C, cp, cp.elements, sorted_elems)
           or law and (_first_failure(bp.elements, sorted_elems, mu_witness)
                       or law))
    return CheckResult(wit is None, wit)


@_once_per_connection(CarrierConn)
def check_pcgc(C: CarrierConn) -> PCGCReport:
    """Condition (1): x in mu(eta(x')) <=> eta(x) = eta(x').
    Condition (2): x in mu(y) <=> eta(x) <= y.  Checked independently.

    Both are read from the holder sets H(x) = {y | x in mu(y)} that mu
    keeps (see :meth:`Table.holder_masks`), so the check costs O(|A|) and
    no ``leq``:

    * (2): fixing x, "for all y: x in mu(y) <=> eta(x) <= y" is exactly
      H(x) = up(eta(x)).
    * (1): y = eta(x') ranges over the image eta(A), and x in mu(y) means
      y in H(x), so the failing y are (H(x) ^ {eta(x)}) & eta(A), which is
      (H(x) & eta(A)) ^ {eta(x)} because eta(x) lies in eta(A).

    Witnesses are those of the pairwise loops, x in scan order: for (2) the
    first failing y in element order, for (1) eta(x') for the first x' in
    scan order whose eta(x') fails.  With a carrier order, eta must also be
    monotone; that tail runs only when (1) and (2) hold.
    """
    H = C.mu.holder_masks()
    values = C.carrier.values
    index = C.abstract_poset._index
    image = sum(1 << i for i in {index[C.eta[x]] for x in values})
    wit1 = _first_pair(values, scan_order,
                       lambda x: (H[x] & image) ^ 1 << index[C.eta[x]],
                       lambda x: (C.eta[x2] for x2 in scan_order(values)), index)
    wit2 = _order_law_failure(C, H)
    # condition (2) subsumes monotonicity of mu; eta-monotonicity is only a
    # constraint when a non-discrete carrier order is supplied
    if wit1 is None and wit2 is None and C.carrier_order is not None:
        mono = _eta_monotone_failure(C, C.carrier_order, values, scan_order)
        if mono is not None:
            return PCGCReport(False, True, mono)
    return PCGCReport(wit1 is None, wit2 is None, wit1 or wit2)


def check_cco(phi) -> CheckResult:
    """x in phi(y) <=> phi(x) = phi(y), for every pair, of a
    :class:`ClosureOp` or a mapping, whose values are made sets as a
    ClosureOp's are; anything else raises ShapeMismatch naming its class."""
    if not isinstance(phi, (ClosureOp, Mapping)):
        raise ShapeMismatch("check_cco needs a ClosureOp or a mapping, "
                            f"not a {type(phi).__name__}")
    table = phi.phi if isinstance(phi, ClosureOp) else {
        a: _members("phi", a, s) for a, s in phi.items()
    }
    keys = sorted_elems(table)
    for x in keys:
        for y in keys:
            if (x in table[y]) != (table[x] == table[y]):
                return CheckResult(False, (x, y))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# partitioning structure


def _singleton_alpha(G: GaloisConn, values) -> dict:
    """a -> alpha({a}) for each carrier value a of ``values``, in their
    order.  Over a lattice in which every carrier value has an atom,
    alpha({a}) is the atom a_x, so the map is read off
    :meth:`GaloisConn.atoms`.  Otherwise each ``G.alpha([a])`` is called in
    the order of ``values``, so the first value without a best abstraction
    raises, with alpha's own error."""
    if isinstance(G.abstract, FinLattice):
        atoms = G.atoms()
        if len(atoms) == len(G.carrier.values):
            return {a: atoms[a] for a in values}
    return {a: G.alpha([a]) for a in values}


def prt(G: GaloisConn) -> list[frozenset]:
    """The family {gamma(alpha({a}))} over the carrier, deduplicated in
    deterministic order."""
    _require(GaloisConn, "prt", G)
    if G.carrier_order is not None:
        raise ShapeMismatch("prt needs a plain powerset concrete domain")
    reps = _singleton_alpha(G, sorted_elems(G.carrier.values))
    return list(dict.fromkeys(G.gamma[d] for d in reps.values()))


@_once_per_connection(GaloisConn)
def classify_partitioning(G: GaloisConn) -> ClassifyReport:
    """PGC when the singleton concretizations partition the carrier and gamma
    is additive; PPGC when only the partition holds; neither otherwise.

    ``alt2prime`` reports, as a diagnostic only, whether the lub of every
    uncomparable abstract pair concretizes to the whole carrier.

    The check runs on the connection's contents alone.
    Because a :class:`GaloisConn` is immutable, the report is computed once
    per content and kept in the connection's record; later calls on it, or
    on a connection of the same contents over its table, return that same
    report object.
    """
    family = prt(G)
    part = check_partition(G.carrier, family)
    lat = G.abstract_lattice
    additive, wit = _scan_additive(G.gamma)
    universe = G.carrier.value_set()
    elems, upm, dnm = lat.elements, lat.base._upm, lat.base._down_masks()
    full = (1 << len(elems)) - 1
    # the pairs (x, y), y after x, that are uncomparable, in element order
    alt2prime = not any(
        G.gamma[lat.join(x, elems[j])] != universe for i, x in enumerate(elems)
        for j in bit_positions((full ^ (upm[i] | dnm[i])) >> i << i))
    if part.ok and additive:
        return ClassifyReport("PGC", alt2prime, part)
    if part.ok:
        return ClassifyReport("PPGC", alt2prime, part, wit)
    return ClassifyReport("neither", alt2prime, part, part.witness)


# ---------------------------------------------------------------------------
# precision and isomorphism


def _unions_within(F1: frozenset, F2: frozenset) -> bool:
    """Every union of members of F1 is a union of members of F2, in
    |F1| * |F2| subset tests: exactly when each X in F1 is the union of the
    members of F2 inside X (that union lies in X, and then a union of
    members of F1 is the union of those members of F2)."""
    return all(X == frozenset().union(*(Y for Y in F2 if Y <= X)) for X in F1)


def precision_cmp(X1, X2) -> str:
    """Compare two connections over the same concrete side.

    Returns one of ``strictly_finer`` (X1 is more precise), ``strictly_coarser``,
    ``isomorphic`` or ``incomparable``.
    """
    if type(X1) is not type(X2):
        raise ShapeMismatch("cannot compare connections of different shapes")
    if X1.carrier.value_set() != X2.carrier.value_set():
        raise ShapeMismatch("connections have different carriers")
    if isinstance(X1, GaloisConn):
        # every concrete domain holds the empty set, which a gamma image may
        # lack: img2 lies in img1 | {{}} exactly when img2 - img1 lies in {{}}
        img1, img2 = X1.gamma_image(), X2.gamma_image()
        finer, coarser = img2 - img1 <= {frozenset()}, img1 - img2 <= {frozenset()}
    elif isinstance(X1, CarrierConn):
        # a carrier-level connection implicitly represents every union of its
        # concretization images; compare those extensional families
        img1, img2 = X1.mu_image(), X2.mu_image()
        finer, coarser = _unions_within(img2, img1), _unions_within(img1, img2)
    else:
        raise ShapeMismatch(f"cannot compare {type(X1).__name__}")
    if finer and coarser:
        return "isomorphic"
    if finer:
        return "strictly_finer"
    if coarser:
        return "strictly_coarser"
    return "incomparable"


def nonempty_iso(C1: CarrierConn, C2: CarrierConn) -> bool:
    """Equality of the concretization images, ignoring empty sets."""
    _require(CarrierConn, "nonempty_iso", C1)
    _require(CarrierConn, "nonempty_iso", C2)
    if C1.carrier.value_set() != C2.carrier.value_set():
        raise ShapeMismatch("connections have different carriers")
    empty = frozenset([frozenset()])
    return C1.mu_image() | empty == C2.mu_image() | empty


def _renaming(C1: CarrierConn, C2: CarrierConn) -> dict:
    """Each eta(a) of C1 -> the first element of C2 with the same block,
    read from one map of each block of C2 to its first element."""
    first = {C2.mu[b]: b for b in reversed(sorted_elems(C2.abstract_poset.elements))}
    blocks = {C1.eta[a]: C1.mu[C1.eta[a]] for a in sorted_elems(C1.carrier.values)}
    if not first.keys() >= set(blocks.values()):
        raise NotIsomorphic("a block of one connection is no block of the other")
    return {b: first[blk] for b, blk in blocks.items()}


def renaming_witnesses(C1: CarrierConn, C2: CarrierConn):
    """Mutually inverse renamings between the eta-images of two isomorphic
    connections, built by matching concretization blocks."""
    _require(CarrierConn, "renaming_witnesses", C1)
    _require(CarrierConn, "renaming_witnesses", C2)
    if precision_cmp(C1, C2) != "isomorphic":
        raise NotIsomorphic("connections are not isomorphic")
    f12, f21 = _renaming(C1, C2), _renaming(C2, C1)
    for b1 in f12:
        if f21.get(f12[b1]) != b1:
            raise NotIsomorphic(f"renamings fail to invert at {b1!r}")
    for a in C1.carrier.values:
        if C1.mu[C1.eta[a]] != C2.mu[f12[C1.eta[a]]]:
            raise NotIsomorphic(f"renaming breaks concretization at {a!r}")
        if C2.mu[C2.eta[a]] != C1.mu[f21[C2.eta[a]]]:
            raise NotIsomorphic(f"renaming breaks concretization at {a!r}")
    return f12, f21


def is_cgi(C: CarrierConn) -> bool:
    """eta surjective onto the abstract side."""
    _require(CarrierConn, "is_cgi", C)
    return C.eta_image() == frozenset(C.abstract_poset.elements)


# ---------------------------------------------------------------------------
# embeddings


def embed_cgc_to_pcgc(C: CarrierConn) -> CarrierConn:
    """View a plain constructive connection as a purely constructive one by
    taking the discrete order on the abstract side."""
    if not check_cgc(C):
        raise NotInClass("input fails the constructive-connection law")
    out = CarrierConn(
        "pcgc", C.carrier, FinPoset.discrete(C.abstract_poset.elements),
        C.eta, C.mu,
    )
    if not check_pcgc(out).ok:
        raise NotInClass("embedding produced an invalid connection")
    return out


def embed_pcgc_to_cgp(C: CarrierConn) -> CarrierConn:
    """View a purely constructive connection as an ordered one by making the
    carrier discrete."""
    if not check_pcgc(C).ok:
        raise NotInClass("input fails the purely-constructive conditions")
    out = CarrierConn("cgp", C.carrier, C.abstract, C.eta, C.mu)
    if not check_cgp(out):
        raise NotInClass("embedding produced an invalid connection")
    return out
