"""Connection records and class checkers with counterexample witnesses.

Two record shapes cover every connection class:

* :class:`CarrierConn` holds a representation function ``eta`` from a finite
  carrier into an abstract poset and a concretization ``mu`` back to carrier
  subsets.  Tagged ``cgc`` (discrete abstract side), ``cgp`` (ordered carrier
  and abstract side) or ``pcgc`` (unordered carrier, ordered abstract side).
* :class:`GaloisConn` holds an adjunction whose concrete domain is the
  (downward) powerset of a carrier.  The concrete lattice stays implicit:
  ``gamma`` is an explicit table and ``alpha`` is either an explicit table,
  a supplied function, or derived as the least ``gamma``-cover.  This keeps
  large carriers usable for best-correct-approximation queries while
  exhaustive checking remains available for small carriers.

All checkers return the first counterexample in a deterministic element
order, and transforms re-run the target checker on their outputs instead of
trusting kind tags.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    iter_downsets,
    set_name,
    sorted_elems,
    subsets_by_size,
)
from .setops import FinCarrier, PartitionReport, check_partition


def _abstract_poset(abstract) -> FinPoset:
    return abstract.base if isinstance(abstract, FinLattice) else abstract


class CarrierConn:
    """A connection given by eta/mu tables over a finite carrier."""

    __slots__ = ("kind", "carrier", "carrier_order", "abstract", "eta", "mu")

    def __init__(self, kind, carrier, abstract, eta, mu, carrier_order=None):
        self.kind = kind
        self.carrier = carrier
        self.carrier_order = carrier_order
        self.abstract = abstract
        self.eta = dict(eta)
        self.mu = {b: frozenset(s) for b, s in mu.items()}
        self._validate()

    def _validate(self):
        poset = _abstract_poset(self.abstract)
        for v in self.carrier.values:
            if v not in self.eta:
                raise ShapeMismatch(f"eta not total: missing {v!r}")
            if self.eta[v] not in poset:
                raise ShapeMismatch(f"eta({v!r}) = {self.eta[v]!r} not abstract")
        for b in poset.elements:
            if b not in self.mu:
                raise ShapeMismatch(f"mu not total: missing {b!r}")
            extra = self.mu[b] - self.carrier.value_set()
            if extra:
                raise ShapeMismatch(f"mu({b!r}) leaves the carrier: {sorted(extra)[:3]}")
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
        out = []
        seen = set()
        for a in sorted_elems(self.carrier.values):
            blk = self.mu[self.eta[a]]
            if blk not in seen:
                seen.add(blk)
                out.append(blk)
        return out

    def mu_image(self) -> frozenset:
        return frozenset(self.mu.values())

    def __repr__(self):
        return f"CarrierConn({self.kind}, |A|={len(self.carrier)}, |B|={len(self.abstract_poset)})"


class ClosureOp:
    """A set-valued map phi: A -> P(A) satisfying the closure law.

    The law x in phi(y) <=> phi(x) = phi(y) is checked at construction.
    """

    __slots__ = ("carrier", "phi")

    def __init__(self, carrier: FinCarrier, phi: Mapping[str, frozenset]):
        self.carrier = carrier
        self.phi = {a: frozenset(s) for a, s in phi.items()}
        for v in carrier.values:
            if v not in self.phi:
                raise ShapeMismatch(f"phi not total: missing {v!r}")
            extra = self.phi[v] - carrier.value_set()
            if extra:
                raise ShapeMismatch(f"phi({v!r}) leaves the carrier")
        report = check_cco(self)
        if not report.ok:
            raise NotInClass(f"closure law fails at {report.witness}")


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


class GaloisConn:
    """An adjunction over the (downward) powerset of a carrier.

    ``gamma`` maps abstract elements to carrier subsets.  ``alpha`` resolves
    through, in order: an explicit subset-keyed table, a supplied callable,
    or the least abstract element whose concretization covers the argument.

    A connection is immutable: setting an attribute raises AttributeError,
    and ``gamma`` and ``alpha_table`` are read-only mappings whose writes
    raise TypeError.  So :func:`classify_partitioning` keeps its report on
    the instance and answers repeat calls from it.
    """

    __slots__ = ("kind", "carrier", "carrier_order", "abstract", "gamma",
                 "alpha_table", "alpha_fn", "_alpha_cache", "_classified")

    def __init__(self, carrier, abstract, gamma, carrier_order=None,
                 alpha_table=None, alpha_fn=None, kind="gc"):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "carrier", carrier)
        init(self, "carrier_order", carrier_order)
        init(self, "abstract", abstract)
        init(self, "gamma", FrozenDict(
            (d, frozenset(s)) for d, s in gamma.items()))
        init(self, "alpha_table", None if alpha_table is None else FrozenDict(
            (frozenset(k), v) for k, v in alpha_table.items()))
        init(self, "alpha_fn", alpha_fn)
        init(self, "_alpha_cache", {})
        init(self, "_classified", None)
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
        if self.carrier_order is not None:
            if set(self.carrier_order.elements) != set(self.carrier.values):
                raise ShapeMismatch("carrier order does not match carrier")

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

    def alpha(self, members: Iterable[str]) -> str:
        X = frozenset(members)
        if self.alpha_table is not None and X in self.alpha_table:
            return self.alpha_table[X]
        if self.alpha_fn is not None:
            return self.alpha_fn(X)
        try:
            return self._alpha_cache[X]
        except KeyError:
            pass
        poset = self.abstract_poset
        candidates = [d for d in poset.elements if X <= self.gamma[d]]
        least = next(
            (d for d in candidates if all(poset.leq(d, e) for e in candidates)),
            None,
        )
        if least is None:
            raise ShapeMismatch(
                f"no best abstraction for {set_name(X)}: not a Galois connection"
            )
        self._alpha_cache[X] = least
        return least

    def gamma_image(self) -> frozenset:
        """The extensional image of the induced closure, {gamma(d) | d}."""
        return frozenset(self.gamma.values())

    def iter_concrete(self, guard: int = DOWNSETS_GUARD):
        """All concrete elements (downsets of the carrier order) in a
        deterministic (size, members) order."""
        poset = self.carrier_poset()
        if poset.is_discrete():
            values = sorted_elems(self.carrier.values)
            if 2 ** len(values) > guard:
                raise TooLarge("carrier too big for exhaustive enumeration")
            for combo in subsets_by_size(values):
                yield frozenset(combo)
        else:
            subs = sorted(iter_downsets(poset, guard),
                          key=lambda s: (len(s), tuple(sorted_elems(s))))
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


def check_gc(G: GaloisConn, guard: int = DOWNSETS_GUARD) -> GCReport:
    """Exhaustively verify the adjunction; also report insertion and
    disjunctivity status.  Only feasible for small carriers."""
    poset = G.abstract_poset
    abs_elems = sorted_elems(poset.elements)
    seen_alpha = set()
    for X in G.iter_concrete(guard):
        try:
            aX = G.alpha(X)
        except ShapeMismatch:
            return GCReport(False, False, False, (set_name(X), None))
        seen_alpha.add(aX)
        for d in abs_elems:
            if poset.leq(aX, d) != (X <= G.gamma[d]):
                return GCReport(False, False, False, (set_name(X), d))
    is_gi = seen_alpha >= set(abs_elems)
    is_disj, wit = _gamma_additive(G)
    return GCReport(True, is_gi, is_disj, wit)


def _gamma_additive(G: GaloisConn):
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
    jirr = lat.join_irreducibles()
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


def check_cgc(C: CarrierConn) -> CheckResult:
    """x in mu(y) <=> eta(x) = y, for every pair."""
    for x in scan_order(C.carrier.values):
        ex = C.eta[x]
        for y in sorted_elems(C.abstract_poset.elements):
            if (x in C.mu[y]) != (ex == y):
                return CheckResult(False, (x, y))
    return CheckResult(True)


def check_cgp(C: CarrierConn) -> CheckResult:
    """eta, mu monotone, mu lands in downward-closed sets, and
    x in mu(y) <=> eta(x) <= y."""
    cp = C.carrier_poset()
    bp = C.abstract_poset
    for x in sorted_elems(cp.elements):
        for x2 in sorted_elems(cp.up(x)):
            if not bp.leq(C.eta[x], C.eta[x2]):
                return CheckResult(False, ("eta-monotone", x, x2))
    for b in sorted_elems(bp.elements):
        if not cp.is_down_closed(C.mu[b]):
            return CheckResult(False, ("mu-downclosed", b))
        for b2 in sorted_elems(bp.up(b)):
            if not C.mu[b] <= C.mu[b2]:
                return CheckResult(False, ("mu-monotone", b, b2))
    for x in scan_order(C.carrier.values):
        ex = C.eta[x]
        for y in sorted_elems(bp.elements):
            if (x in C.mu[y]) != bp.leq(ex, y):
                return CheckResult(False, (x, y))
    return CheckResult(True)


def check_pcgc(C: CarrierConn) -> PCGCReport:
    """Condition (1): x in mu(eta(x')) <=> eta(x) = eta(x').
    Condition (2): x in mu(y) <=> eta(x) <= y.  Checked independently."""
    bp = C.abstract_poset
    values = scan_order(C.carrier.values)
    cond1, wit1 = True, None
    for x in values:
        if not cond1:
            break
        for x2 in values:
            if (x in C.mu[C.eta[x2]]) != (C.eta[x] == C.eta[x2]):
                cond1, wit1 = False, (x, C.eta[x2])
                break
    cond2, wit2 = True, None
    for x in values:
        if not cond2:
            break
        for y in sorted_elems(bp.elements):
            if (x in C.mu[y]) != bp.leq(C.eta[x], y):
                cond2, wit2 = False, (x, y)
                break
    # condition (2) subsumes monotonicity of mu; eta-monotonicity is only a
    # constraint when a non-discrete carrier order is supplied
    if cond1 and cond2 and C.carrier_order is not None:
        cp = C.carrier_order
        for x in values:
            for x2 in sorted_elems(cp.up(x)):
                if not bp.leq(C.eta[x], C.eta[x2]):
                    return PCGCReport(False, cond2, ("eta-monotone", x, x2))
    return PCGCReport(cond1, cond2, wit1 if wit1 is not None else wit2)


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
    out = []
    seen = set()
    for a in sorted_elems(G.carrier.values):
        blk = G.gamma[G.alpha([a])]
        if blk not in seen:
            seen.add(blk)
            out.append(blk)
    return out


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


def renaming_witnesses(C1: CarrierConn, C2: CarrierConn):
    """Mutually inverse renamings between the eta-images of two isomorphic
    connections, built by matching concretization blocks."""
    if precision_cmp(C1, C2) != "isomorphic":
        raise NotIsomorphic("connections are not isomorphic")
    f12 = {}
    f21 = {}
    for a in sorted_elems(C1.carrier.values):
        blk = C1.mu[C1.eta[a]]
        match = next(
            b2 for b2 in sorted_elems(C2.abstract_poset.elements)
            if C2.mu[b2] == blk
        )
        f12[C1.eta[a]] = match
    for a in sorted_elems(C2.carrier.values):
        blk = C2.mu[C2.eta[a]]
        match = next(
            b1 for b1 in sorted_elems(C1.abstract_poset.elements)
            if C1.mu[b1] == blk
        )
        f21[C2.eta[a]] = match
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
