"""Connection records and class checkers with counterexample witnesses.

Two record shapes cover every connection class:

* :class:`CarrierConn` holds a representation function ``eta`` from a finite
  carrier into an abstract poset and a concretization ``mu`` back to carrier
  subsets.  Tagged ``cgc`` (discrete abstract side), ``cgp`` (ordered carrier
  and abstract side) or ``pcgc`` (unordered carrier, ordered abstract side).
* :class:`GaloisConn` holds an adjunction whose concrete domain is the
  (downward) powerset of a carrier.  The concrete lattice stays implicit,
  and ``gamma`` alone fixes the connection: alpha(X) is the lub of the
  atoms a_x, x in X, where a_x is the least abstract element whose
  concretization holds x (Cousot & Cousot, POPL 1979).  A loaded ``alpha``
  table answers the subsets it lists.  alpha never enumerates the concrete
  side, and :func:`check_gc` does so only to name the witness of a failing
  connection, so large carriers stay usable.

All checkers return the first counterexample in a deterministic element
order, and transforms re-run the target checker on their outputs instead of
trusting kind tags.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import (
    NotCompleteLattice,
    NotInClass,
    NotIsomorphic,
    ShapeMismatch,
    TooLarge,
)
from .order import (
    DOWNSETS_GUARD,
    scan_order,
    FinLattice,
    FinPoset,
    FrozenDict,
    iter_downsets,
    set_name,
    sort_key,
    sorted_elems,
    subsets_by_size,
)
from .setops import FinCarrier, PartitionReport, check_partition


def _abstract_poset(abstract) -> FinPoset:
    return abstract.base if isinstance(abstract, FinLattice) else abstract


def _reject_stray_keys(table: str, mapping, domain, what: str) -> None:
    """A table's keys must lie in its domain: a stray entry would leak into
    the table's image (``mu_image``, ``gamma_image``) and so into precision
    and isomorphism verdicts."""
    for k in mapping:
        if k not in domain:
            raise ShapeMismatch(f"{table} has a key outside the {what}: {k!r}")


class CarrierConn:
    """A connection given by eta/mu tables over a finite carrier.

    A connection is immutable: setting an attribute raises AttributeError,
    and ``eta`` and ``mu`` are read-only mappings whose writes raise
    TypeError.  So :func:`check_cgc`, :func:`check_cgp` and
    :func:`check_pcgc` run once per connection, and a repeat call returns
    the report kept on the instance.
    """

    __slots__ = ("kind", "carrier", "carrier_order", "abstract", "eta", "mu",
                 "_verdicts")

    def __init__(self, kind, carrier, abstract, eta, mu, carrier_order=None):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "carrier", carrier)
        init(self, "carrier_order", carrier_order)
        init(self, "abstract", abstract)
        init(self, "eta", FrozenDict(eta))
        init(self, "mu", FrozenDict(zip(mu, map(frozenset, mu.values()))))
        init(self, "_verdicts", {})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"CarrierConn is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CarrierConn is immutable: cannot delete {name!r}")

    def _validate(self):
        poset = _abstract_poset(self.abstract)
        for v in self.carrier.values:
            if v not in self.eta:
                raise ShapeMismatch(f"eta not total: missing {v!r}")
            if self.eta[v] not in poset:
                raise ShapeMismatch(f"eta({v!r}) = {self.eta[v]!r} not abstract")
        _reject_stray_keys("eta", self.eta, self.carrier, "carrier")
        for b in poset.elements:
            if b not in self.mu:
                raise ShapeMismatch(f"mu not total: missing {b!r}")
            extra = self.mu[b] - self.carrier.value_set()
            if extra:
                raise ShapeMismatch(f"mu({b!r}) leaves the carrier: {sorted(extra)[:3]}")
        _reject_stray_keys("mu", self.mu, poset, "abstract poset")
        if self.carrier_order is not None:
            if set(self.carrier_order.elements) != set(self.carrier.values):
                raise ShapeMismatch("carrier order does not match carrier")

    @property
    def abstract_poset(self) -> FinPoset:
        return _abstract_poset(self.abstract)

    def carrier_poset(self) -> FinPoset:
        if self.carrier_order is not None:
            return self.carrier_order
        return FinPoset.discrete(self.carrier.values)

    def eta_image(self) -> frozenset:
        return frozenset(self.eta.values())

    def blocks(self) -> list[frozenset]:
        """The family {mu(eta(a))} in deterministic order, deduplicated."""
        return list(dict.fromkeys(
            self.mu[self.eta[a]] for a in sorted_elems(self.carrier.values)))

    def mu_image(self) -> frozenset:
        return frozenset(self.mu.values())

    def __repr__(self):
        return f"CarrierConn({self.kind}, |A|={len(self.carrier)}, |B|={len(self.abstract_poset)})"


class ClosureOp:
    """A set-valued map phi: A -> P(A) satisfying the closure law.

    The law x in phi(y) <=> phi(x) = phi(y) is checked at construction.  A
    closure operator is immutable, as a :class:`CarrierConn` is: ``phi`` is
    a read-only mapping and setting an attribute raises AttributeError.
    """

    __slots__ = ("carrier", "phi")

    def __init__(self, carrier: FinCarrier, phi: Mapping[str, frozenset]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(
            self, "phi", FrozenDict((a, frozenset(s)) for a, s in phi.items()))
        for v in carrier.values:
            if v not in self.phi:
                raise ShapeMismatch(f"phi not total: missing {v!r}")
            extra = self.phi[v] - carrier.value_set()
            if extra:
                raise ShapeMismatch(f"phi({v!r}) leaves the carrier")
        report = check_cco(self)
        if not report.ok:
            raise NotInClass(f"closure law fails at {report.witness}")

    def __setattr__(self, name, value):
        raise AttributeError(f"ClosureOp is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ClosureOp is immutable: cannot delete {name!r}")


class GaloisConn:
    """An adjunction over the (downward) powerset of a carrier.

    ``gamma`` maps abstract elements to carrier subsets, and fixes alpha:
    ``alpha(X)`` is the entry of ``alpha_table`` when that table holds X,
    and otherwise the lub of the atoms a_x, x in X (see :meth:`atoms`).
    ``alpha_table`` keys must be concrete elements (carrier subsets,
    down-closed under a carrier order) and its values abstract elements;
    :func:`check_gc` checks that each value is the lub of its key's atoms.

    A connection is immutable: setting an attribute raises AttributeError,
    and ``gamma`` and ``alpha_table`` are read-only mappings whose writes
    raise TypeError.  So the atom map, the report of
    :func:`classify_partitioning` and the additivity verdict are computed
    once and kept on the instance.
    """

    __slots__ = ("kind", "carrier", "carrier_order", "abstract", "gamma",
                 "alpha_table", "_atoms", "_classified", "_additive")

    def __init__(self, carrier, abstract, gamma, carrier_order=None,
                 alpha_table=None, kind="gc"):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "carrier", carrier)
        init(self, "carrier_order", carrier_order)
        init(self, "abstract", abstract)
        init(self, "gamma", FrozenDict(
            (d, frozenset(s)) for d, s in gamma.items()))
        init(self, "alpha_table", None if alpha_table is None else FrozenDict(
            (frozenset(k), v) for k, v in alpha_table.items()))
        init(self, "_atoms", None)
        init(self, "_classified", None)
        init(self, "_additive", None)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"GaloisConn is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaloisConn is immutable: cannot delete {name!r}")

    def _validate(self):
        poset = _abstract_poset(self.abstract)
        universe = self.carrier.value_set()
        for d in poset.elements:
            if d not in self.gamma:
                raise ShapeMismatch(f"gamma not total: missing {d!r}")
            if self.gamma[d] - universe:
                raise ShapeMismatch(f"gamma({d!r}) leaves the carrier")
        _reject_stray_keys("gamma", self.gamma, poset, "abstract poset")
        order = self.carrier_order
        if order is not None and set(order.elements) != set(self.carrier.values):
            raise ShapeMismatch("carrier order does not match carrier")
        for X, d in (self.alpha_table or {}).items():
            if not X <= universe or (
                    order is not None and not order.is_down_closed(X)):
                raise ShapeMismatch("alpha_table has a key outside the "
                                    f"concrete domain: {set_name(X)!r}")
            if d not in poset:
                raise ShapeMismatch(
                    f"alpha_table({set_name(X)}) = {d!r} not abstract")

    @property
    def abstract_poset(self) -> FinPoset:
        return _abstract_poset(self.abstract)

    @property
    def abstract_lattice(self) -> FinLattice:
        if not isinstance(self.abstract, FinLattice):
            raise ShapeMismatch("abstract side is not a complete lattice")
        return self.abstract

    def carrier_poset(self) -> FinPoset:
        if self.carrier_order is not None:
            return self.carrier_order
        return FinPoset.discrete(self.carrier.values)

    def atoms(self) -> dict:
        """x -> a_x for every carrier value x whose holder set
        H(x) = {d | x in gamma(d)} is up(a_x), read from one pass over
        gamma and kept on the connection.

        Then x in gamma(d) <=> a_x <= d, so the least d with X <= gamma(d)
        is the lub of the a_x, x in X: that is alpha(X).  A value missing
        from the map has no best abstraction.
        """
        if self._atoms is None:
            poset = self.abstract_poset
            atoms = {}
            for x, hs in _holders(self, self.gamma).items():
                a = _least(poset, hs)
                if a is not None and len(poset.up(a)) == len(hs):
                    atoms[x] = a
            object.__setattr__(self, "_atoms", atoms)
        return self._atoms

    def alpha(self, members: Iterable[str]) -> str:
        X = frozenset(members)
        if self.alpha_table is not None and X in self.alpha_table:
            return self.alpha_table[X]
        atoms = self.atoms()
        if not X.issubset(atoms):
            raise ShapeMismatch(
                f"no best abstraction for {set_name(X)}: not a Galois connection"
            )
        return self.abstract_lattice.lub(atoms[x] for x in X)

    def gamma_image(self) -> frozenset:
        """The extensional image of the induced closure, {gamma(d) | d}."""
        return frozenset(self.gamma.values())

    def iter_concrete(self):
        """All concrete elements (downsets of the carrier order) in a
        deterministic (size, members) order."""
        poset = self.carrier_poset()
        if poset.is_discrete():
            values = sorted_elems(self.carrier.values)
            if 2 ** len(values) > DOWNSETS_GUARD:
                raise TooLarge("carrier too big for exhaustive enumeration")
            for combo in subsets_by_size(values):
                yield frozenset(combo)
        else:
            subs = sorted(
                iter_downsets(poset),
                key=lambda s: (len(s), tuple(map(sort_key, sorted_elems(s)))))
            yield from subs

    def __repr__(self):
        return (f"GaloisConn(|A|={len(self.carrier)}, "
                f"|D|={len(self.abstract_poset)})")


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


def check_gc(G: GaloisConn) -> GCReport:
    """The adjunction alpha(X) <= d <=> X <= gamma(d), for every concrete X
    and abstract d; also report insertion and disjunctivity status.

    Read off gamma in O(|A| + sum |gamma| + sum |X| over ``alpha_table``)
    steps, plus one down-set inclusion per member of each gamma(d) under a
    carrier order, it holds exactly when:

    * (i) every gamma(d) is a downset of the carrier order, as a map into
      the concrete domain must be (witness ``("gamma-downclosed", d)``,
      d in element order);
    * (ii) every holder set H(x) = {d | x in gamma(d)} is up(a_x) for an
      atom a_x (see :meth:`GaloisConn.atoms`);
    * (iii) every ``alpha_table`` entry is the lub of its key's atoms.

    Sufficiency: alpha(X) <= d <=> every a_x <= d <=> X <= gamma(d).
    Necessity: given (i), H(x) is the set of upper bounds of alpha(down(x)),
    and a table entry must be the least upper bound of its key's atoms.
    Then alpha is onto exactly when gamma is injective, so that is
    ``is_gi``.  When (ii) or (iii) fails, :func:`_adjunction_failure` scans
    the concrete elements for the first failing (X, d).
    """
    poset = G.abstract_poset
    order = G.carrier_order
    if order is not None:
        wit = _first_failure(
            poset.elements, sorted_elems,
            lambda d: (None if order.is_down_closed(G.gamma[d])
                       else ("gamma-downclosed", d)))
        if wit is not None:
            return GCReport(False, False, False, wit)
    atoms = G.atoms()
    if len(atoms) < len(G.carrier.values) or any(
            G.abstract_lattice.lub(atoms[x] for x in X) != d
            for X, d in (G.alpha_table or {}).items()):
        return GCReport(False, False, False, _adjunction_failure(G))
    is_gi = len(set(G.gamma.values())) == len(G.gamma)
    is_disj, wit = _gamma_additive(G)
    return GCReport(True, is_gi, is_disj, wit)


def _least(poset: FinPoset, S):
    """The least element of S, or None.  If S has a least element l, every
    other s in S lies strictly above l and so has a smaller up-set: l is
    the element of S whose up-set is largest.  The first element is tried
    before that search, because a holder list built in a linear extension
    of the order, such as a powerset lattice's by-size order, starts with
    it."""
    if not S:
        return None
    first = next(iter(S))
    if poset.up(first).issuperset(S):
        return first
    a = max(S, key=lambda d: len(poset.up(d)))
    return a if poset.up(a).issuperset(S) else None


def _adjunction_failure(G: GaloisConn):
    """The first (X, d), X in :meth:`GaloisConn.iter_concrete` order and d
    in element order, at which alpha(X) <= d <=> X <= gamma(d) fails, by
    the literal definition: alpha(X) is the ``alpha_table`` entry or else
    the least d with X <= gamma(d), and (X, None) when there is none.
    Enumerates the concrete side, so it raises TooLarge beyond
    ``DOWNSETS_GUARD`` elements."""
    poset = G.abstract_poset
    table = G.alpha_table or {}
    for X in G.iter_concrete():
        covers = {d for d in poset.elements if X <= G.gamma[d]}
        aX = table[X] if X in table else _least(poset, covers)
        if aX is None:
            return (set_name(X), None)
        bad = poset.up(aX) ^ covers
        if bad:
            return (set_name(X), next(d for d in sorted_elems(poset.elements)
                                      if d in bad))


def _gamma_additive(G: GaloisConn):
    """gamma preserves all lubs: ``(verdict, witness)``, computed once per
    connection and kept on it, so that :func:`check_gc` and
    :func:`classify_partitioning` share one scan."""
    if G._additive is None:
        object.__setattr__(G, "_additive", _scan_additive(G))
    return G._additive


def _scan_additive(G: GaloisConn):
    """gamma preserves all lubs.

    For a finite lattice this is the empty lub plus all pairwise lubs, and
    it suffices to check gamma(bottom) = {} and gamma(x v j) = gamma(x) |
    gamma(j) for every element x and every join-irreducible j: n * |J|
    joins instead of n * (n - 1) / 2.  Proof sketch: every y is the lub
    j1 v ... v jk of the join-irreducibles below it (k = 0 gives the
    bottom), so by induction on k, gamma(x v y) = gamma(x) | gamma(j1) |
    ... | gamma(jk); taking x = bottom shows the union of the gamma(ji) is
    gamma(y).  No distributivity is needed, so this holds in M3 and N5 too,
    where join-irreducibles are not join-prime.  Conversely the pairwise
    law implies the reduced one.

    When the reduced check fails, or meets a join the lattice lacks, the
    pairwise scan runs, so the verdict, the witness (the first failing pair
    in element order) and any error are those of the pairwise definition.
    """
    lat = G.abstract_lattice
    gamma = G.gamma
    if gamma[lat.bottom]:
        return False, (lat.bottom,)
    join = lat.join
    # element order: the joins made before a failure must not depend on hashing
    jirr = [j for j in lat.elements if j in lat.join_irreducibles()]
    try:
        if all(gamma[join(x, j)] == gamma[x] | gamma[j]
               for x in lat.elements for j in jirr):
            return True, None
    except NotCompleteLattice:
        pass
    for x, y in combinations(sorted_elems(lat.elements), 2):
        if gamma[join(x, y)] != gamma[x] | gamma[y]:
            return False, (x, y)
    return True, None


# The carrier checkers below test laws between eta and mu that the paper
# states pairwise.  Fixing x, each law is an equation between the holder set
# H(x) = {y | x in mu(y)} and a set read off eta(x), so one pass over mu,
# building every H(x), replaces the pair scans.  A witness is still the
# first failing pair of the pairwise loop: its x is the first, in that
# loop's order, whose set of failing y is nonempty, and its y is the first
# of those in the inner loop's order.  Only a failing check sorts.


def _holders(C, table: Mapping) -> dict:
    """H(x) = {y in B | x in table[y]} for every carrier value x of the
    connection C, with ``table`` its mu or its gamma, read at the abstract
    poset's elements (as the pairwise laws read it) in |A| + sum |table[y]|
    steps.  Each y lands in a list once; lists keep this transient table
    several times smaller than sets would."""
    H = {x: [] for x in C.carrier.values}
    for y in C.abstract_poset.elements:
        for x in table[y]:
            H[x].append(y)
    return H


def _first_failure(xs, order, witness):
    """``witness(x)`` for the first x of ``order(xs)`` at which it is not
    None, or None.  The accepting pass visits ``xs`` as given, so ``order``
    (a sort) runs only once something fails."""
    if all(witness(x) is None for x in xs):
        return None
    return next(w for x in order(xs) if (w := witness(x)) is not None)


def _first_pair(xs, order, bad, ys):
    """The pair (x, y) that the loop "for x in order(xs): for y in ys(x)"
    meets first with y in ``bad(x)``, or None when every ``bad(x)`` is
    empty."""
    def witness(x):
        failing = bad(x)
        return (x, next(y for y in ys(x) if y in failing)) if failing else None
    return _first_failure(xs, order, witness)


def _order_law_failure(C: CarrierConn, H: dict):
    """The first pair (x, y), x in scan order and y in element order,
    breaking x in mu(y) <=> eta(x) <= y.  Fixing x, the law is exactly
    H(x) = up(eta(x)), so the failing y are H(x) ^ up(eta(x))."""
    bp = C.abstract_poset
    return _first_pair(C.carrier.values, scan_order,
                       lambda x: bp.up(C.eta[x]).symmetric_difference(H[x]),
                       lambda x: sorted_elems(bp.elements))


def _eta_monotone_failure(C: CarrierConn, cp: FinPoset, xs, order):
    """The first ("eta-monotone", x, x2), x in ``order(xs)`` and x2 in
    element order, with x <= x2 in ``cp`` but not eta(x) <= eta(x2), that
    is, with eta(x2) outside up(eta(x))."""
    up = C.abstract_poset.up
    wit = _first_pair(
        xs, order,
        lambda x: {x2 for x2 in cp.up(x) if C.eta[x2] not in up(C.eta[x])},
        lambda x: sorted_elems(cp.up(x)))
    return wit and ("eta-monotone", *wit)


def _once_per_connection(check):
    """``check`` as a memo: its report is computed once per
    :class:`CarrierConn`, whose contents cannot change, and kept on the
    instance keyed by the checker, so a repeat call returns the same report
    object.  ``__wrapped__`` is the uncached check."""
    @wraps(check)
    def memoised(C):
        report = C._verdicts.get(check)
        if report is None:
            report = C._verdicts[check] = check(C)
        return report
    return memoised


@_once_per_connection
def check_cgc(C: CarrierConn) -> CheckResult:
    """x in mu(y) <=> eta(x) = y, for every pair.

    Fixing x, "for all y: x in mu(y) <=> eta(x) = y" says exactly
    H(x) = {eta(x)}.  The witness is the pair the pairwise loop (x in scan
    order, y in element order) meets first: the first x whose
    H(x) ^ {eta(x)} is nonempty, and the first y of that set.  Cost
    O(|A| + sum |mu|) on success.
    """
    H, elements = _holders(C, C.mu), C.abstract_poset.elements
    wit = _first_pair(C.carrier.values, scan_order,
                      lambda x: {C.eta[x]}.symmetric_difference(H[x]),
                      lambda x: sorted_elems(elements))
    return CheckResult(wit is None, wit)


@_once_per_connection
def check_cgp(C: CarrierConn) -> CheckResult:
    """eta, mu monotone, mu lands in downward-closed sets, and
    x in mu(y) <=> eta(x) <= y.

    The phases run in that order and report the first failure of the
    pairwise definition.  eta is monotone when eta(x2) lies in up(eta(x))
    for every x2 in up(x), x in element order.  mu is checked per b in
    element order: mu(b) downward closed, then mu(b) <= mu(b2) for b2 in
    up(b).  The last law, fixing x, is H(x) = up(eta(x)) (see
    :func:`check_pcgc`).  No phase calls ``leq`` or sorts on success.
    """
    cp = C.carrier_poset()
    bp = C.abstract_poset

    def mu_witness(b):
        if not cp.is_down_closed(C.mu[b]):
            return ("mu-downclosed", b)
        bad = {b2 for b2 in bp.up(b) if not C.mu[b] <= C.mu[b2]}
        return ("mu-monotone", b, next(
            b2 for b2 in sorted_elems(bp.up(b)) if b2 in bad)) if bad else None

    wit = (_eta_monotone_failure(C, cp, cp.elements, sorted_elems)
           or _first_failure(bp.elements, sorted_elems, mu_witness)
           or _order_law_failure(C, _holders(C, C.mu)))
    return CheckResult(wit is None, wit)


@_once_per_connection
def check_pcgc(C: CarrierConn) -> PCGCReport:
    """Condition (1): x in mu(eta(x')) <=> eta(x) = eta(x').
    Condition (2): x in mu(y) <=> eta(x) <= y.  Checked independently.

    Both are read from the holder sets H(x) = {y | x in mu(y)}, built in one
    pass over mu, so the check costs O(|A| + sum |mu|) and no ``leq``:

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
    H = _holders(C, C.mu)
    values = C.carrier.values
    image = {C.eta[x] for x in values}
    wit1 = _first_pair(values, scan_order,
                       lambda x: image.intersection(H[x]) ^ {C.eta[x]},
                       lambda x: (C.eta[x2] for x2 in scan_order(values)))
    wit2 = _order_law_failure(C, H)
    # condition (2) subsumes monotonicity of mu; eta-monotonicity is only a
    # constraint when a non-discrete carrier order is supplied
    if wit1 is None and wit2 is None and C.carrier_order is not None:
        mono = _eta_monotone_failure(C, C.carrier_order, values, scan_order)
        if mono is not None:
            return PCGCReport(False, True, mono)
    return PCGCReport(wit1 is None, wit2 is None, wit1 or wit2)


def check_cco(phi) -> CheckResult:
    """x in phi(y) <=> phi(x) = phi(y), for every pair."""
    table = phi.phi if isinstance(phi, ClosureOp) else {
        a: frozenset(s) for a, s in phi.items()
    }
    keys = sorted_elems(table)
    for x in keys:
        for y in keys:
            if (x in table[y]) != (table[x] == table[y]):
                return CheckResult(False, (x, y))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# partitioning structure


def prt(G: GaloisConn) -> list[frozenset]:
    """The family {gamma(alpha({a}))} over the carrier, deduplicated in
    deterministic order."""
    if G.carrier_order is not None and not G.carrier_order.is_discrete():
        raise ShapeMismatch("prt needs a plain powerset concrete domain")
    return list(dict.fromkeys(
        G.gamma[G.alpha([a])] for a in sorted_elems(G.carrier.values)))


def classify_partitioning(G: GaloisConn) -> ClassifyReport:
    """PGC when the singleton concretizations partition the carrier and gamma
    is additive; PPGC when only the partition holds; neither otherwise.

    ``alt2prime`` reports, as a diagnostic only, whether the lub of every
    uncomparable abstract pair concretizes to the whole carrier.

    The check runs on the connection's contents, never on its kind tag.
    Because a :class:`GaloisConn` is immutable, the report is computed once
    and kept on the instance; later calls on the same connection return
    that same report object.
    """
    if G._classified is not None:
        return G._classified
    family = prt(G)
    part = check_partition(G.carrier, family)
    lat = G.abstract_lattice
    additive, wit = _gamma_additive(G)
    poset = lat.base
    universe = G.carrier.value_set()
    alt2prime = True
    elems = lat.elements
    for i, x in enumerate(elems):
        comparable = poset.up(x) | poset.down(x)
        if any(G.gamma[lat.join(x, y)] != universe
               for y in elems[i + 1:] if y not in comparable):
            alt2prime = False
            break
    if part.ok and additive:
        report = ClassifyReport("PGC", alt2prime, part)
    elif part.ok:
        report = ClassifyReport("PPGC", alt2prime, part, wit)
    else:
        report = ClassifyReport("neither", alt2prime, part, part.witness)
    # the only attribute set after construction: a memo of a function of
    # the connection's immutable contents
    object.__setattr__(G, "_classified", report)
    return report


# ---------------------------------------------------------------------------
# precision and isomorphism


def union_closure(blocks: Iterable[frozenset], guard: int = 2 ** 14) -> frozenset:
    """All unions of the given family, including the empty union."""
    blocks = list(dict.fromkeys(blocks))
    if 2 ** len(blocks) > guard:
        raise TooLarge("too many blocks for union closure")
    closed = {frozenset()}
    for b in blocks:
        closed |= {c | b for c in closed}
    return frozenset(closed)


def _precision_images(X) -> frozenset:
    if isinstance(X, GaloisConn):
        return frozenset(X.gamma_image() | {frozenset()})
    if isinstance(X, CarrierConn):
        # a carrier-level connection implicitly represents every union of its
        # concretization images; compare those extensional families
        return union_closure(X.mu_image())
    raise ShapeMismatch(f"cannot compare {type(X).__name__}")


def precision_cmp(X1, X2) -> str:
    """Compare two connections over the same concrete side.

    Returns one of ``strictly_finer`` (X1 is more precise), ``strictly_coarser``,
    ``isomorphic`` or ``incomparable``.
    """
    if type(X1) is not type(X2):
        raise ShapeMismatch("cannot compare connections of different shapes")
    if X1.carrier.value_set() != X2.carrier.value_set():
        raise ShapeMismatch("connections have different carriers")
    img1 = _precision_images(X1)
    img2 = _precision_images(X2)
    if img1 == img2:
        return "isomorphic"
    if img2 < img1:
        return "strictly_finer"
    if img1 < img2:
        return "strictly_coarser"
    return "incomparable"


def nonempty_iso(C1: CarrierConn, C2: CarrierConn) -> bool:
    """Equality of the concretization images, ignoring empty sets."""
    if C1.carrier.value_set() != C2.carrier.value_set():
        raise ShapeMismatch("connections have different carriers")
    empty = frozenset([frozenset()])
    return C1.mu_image() | empty == C2.mu_image() | empty


def _renaming(C1: CarrierConn, C2: CarrierConn) -> dict:
    """Each eta(a) of C1 -> the first element of C2 with the same block."""
    out = {}
    for a in sorted_elems(C1.carrier.values):
        blk = C1.mu[C1.eta[a]]
        out[C1.eta[a]] = next(b for b in sorted_elems(C2.abstract_poset.elements)
                              if C2.mu[b] == blk)
    return out


def renaming_witnesses(C1: CarrierConn, C2: CarrierConn):
    """Mutually inverse renamings between the eta-images of two isomorphic
    connections, built by matching concretization blocks."""
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
    out = CarrierConn(
        "cgp", C.carrier, C.abstract, C.eta, C.mu,
        carrier_order=FinPoset.discrete(C.carrier.values),
    )
    if not check_cgp(out):
        raise NotInClass("embedding produced an invalid connection")
    return out
