"""Concrete/abstract operation pairs: best correct approximations, the four
soundness and four completeness conditions at carrier level, lattice-level
pair properties, and the pair transforms between the two levels.

Binary operations are handled pointwise on argument tuples under the
componentwise product order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping

from .errors import (
    GalkitError,
    NotBlockPreserving,
    NotGI,
    NotSound,
    ShapeMismatch,
)
from .galois import (
    CarrierConn,
    CheckResult,
    GaloisConn,
    _require,
    _singleton_alpha,
    check_cgc,
    check_pcgc,
    classify_partitioning,
)
from .order import set_name, sort_key, sorted_elems
from .setops import lift_diamond
from .transforms import t_cgc_of_pgc, t_pgc

SOUND_VARIANTS = ("ημ", "μμ", "ηη", "μη")
GC_KINDS = ("sound", "optimal", "backward_complete", "forward_complete", "precise")


@dataclass(frozen=True)
class TableFn:
    """A total operation given by its table; binary tables are keyed by
    argument tuples."""

    arity: int
    table: Mapping

    def __post_init__(self):
        if self.arity not in (1, 2):
            raise ShapeMismatch(f"unsupported arity {self.arity}")

    def __call__(self, *args):
        key = args[0] if self.arity == 1 else tuple(args)
        try:
            return self.table[key]
        except KeyError:
            raise ShapeMismatch(f"operation undefined at {key!r}") from None


class ConcreteFn(TableFn):
    """A total operation on carrier values."""

    def image(self, *sets) -> set:
        """{f(x⃗) | x⃗ ∈ sets[0] × … × sets[arity-1]}.

        A table that defines ``image(*sets)`` computes it itself, as the
        analyzer's integer arithmetic does. Otherwise the argument tuples
        are visited in sorted order, so an undefined key raises
        ``ShapeMismatch`` naming the first one.
        """
        if len(sets) != self.arity:
            raise ShapeMismatch(f"{len(sets)} argument sets for arity {self.arity}")
        own = getattr(self.table, "image", None)
        if own is not None:
            return own(*sets)
        return {self(*xs) for xs in product(*map(sorted_elems, sets))}

    def validate(self, carrier):
        for args in _tuples(carrier.values, self.arity):
            out = self(*args)
            if out not in carrier:
                raise ShapeMismatch(f"result {out!r} leaves the carrier")


class AbstractFn(TableFn):
    """A total operation on abstract elements."""

    def validate(self, elements):
        universe = set(elements)
        for args in _tuples(sorted_elems(universe), self.arity):
            if self(*args) not in universe:
                raise ShapeMismatch(f"result {self(*args)!r} not abstract")


@dataclass(frozen=True)
class FnPair:
    """A concrete operation paired with a candidate abstract operation over
    one carrier-level connection."""

    conn: CarrierConn
    concrete: ConcreteFn
    abstract: AbstractFn

    def __post_init__(self):
        if self.concrete.arity != self.abstract.arity:
            raise ShapeMismatch("arities of the pair differ")
        self.concrete.validate(self.conn.carrier)
        self.abstract.validate(self.conn.abstract_poset.elements)

    @property
    def arity(self):
        return self.concrete.arity


@dataclass(frozen=True)
class GCPair:
    """A pair at lattice level: the concrete side consumes and produces
    carrier subsets (tuples of subsets for arity 2)."""

    conn: GaloisConn
    concrete: Callable
    abstract: AbstractFn

    @property
    def arity(self):
        return self.abstract.arity


def _tuples(values, arity):
    ordered = sorted_elems(values)
    if arity == 1:
        return [(v,) for v in ordered]
    return [(a, b) for a in ordered for b in ordered]


def _eta_tuple(C: CarrierConn, xs):
    return tuple(C.eta[x] for x in xs)


# ---------------------------------------------------------------------------
# best correct approximations


def bca_gc(G: GaloisConn, f) -> AbstractFn:
    """alpha after f after gamma, tabulated over the abstract elements.

    ``f`` is either a callable on carrier subsets or a unary ConcreteFn,
    which is lifted pointwise.
    """
    _require(GaloisConn, "bca_gc", G)
    if isinstance(f, ConcreteFn):
        if f.arity != 1:
            raise ShapeMismatch("lattice-level tabulation needs a unary map")
        g = lambda X: lift_diamond(f.table, X)
    else:
        g = f
    table = {d: G.alpha(g(G.gamma[d])) for d in G.abstract_poset.elements}
    return AbstractFn(1, table)


def bca_pcgc_entry(C: CarrierConn, f: ConcreteFn, *ys) -> str:
    """One entry of the purely constructive best correct approximation,
    f♯(y⃗) = ⊔{η(o) | o ∈ f.image(μ(y1), …)}: the join of eta over the image
    of the concretized arguments.

    The image is ``ConcreteFn.image``, so a table that supplies its own
    ``image`` (the analyzer's arithmetic) is never read entry by entry. A
    result outside the carrier raises ``ShapeMismatch`` naming it.
    """
    lat = C.abstract_lattice
    outs = f.image(*(C.mu[y] for y in ys))
    eta = C.eta
    stray = [o for o in outs if o not in eta]
    if stray:
        bad = min(stray, key=lambda o: sort_key(str(o)))
        raise ShapeMismatch(f"result {bad!r} leaves the carrier")
    return lat.lub(eta[o] for o in outs)


def bca_pcgc(C: CarrierConn, f: ConcreteFn) -> AbstractFn:
    """The full best-correct-approximation table over a purely constructive
    connection with a complete-lattice abstract side."""
    rep = check_pcgc(C)
    if not rep.ok:
        raise ShapeMismatch(f"connection fails its conditions at {rep.witness}")
    elems = C.abstract_poset.elements
    table = {}
    for ys in _tuples(elems, f.arity):
        key = ys[0] if f.arity == 1 else ys
        table[key] = bca_pcgc_entry(C, f, *ys)
    return AbstractFn(f.arity, table)


# ---------------------------------------------------------------------------
# lattice-level pair properties


def gc_pair_property(G: GaloisConn, pair: GCPair, kind: str) -> CheckResult:
    """Check one of sound / optimal / backward_complete / forward_complete /
    precise for a lattice-level pair, exhaustively."""
    _require(GaloisConn, "gc_pair_property", G)
    if kind not in GC_KINDS:
        raise ShapeMismatch(f"unknown property {kind!r}")
    poset = G.abstract_poset
    f, fs = pair.concrete, pair.abstract
    arity = pair.arity

    def conc(ds):
        gs = tuple(G.gamma[d] for d in ds)
        return f(*gs) if arity == 2 else f(gs[0])

    if kind in ("sound", "optimal", "forward_complete"):
        for ds in _tuples(poset.elements, arity):
            fX = conc(ds)
            if kind == "forward_complete":
                if fX != G.gamma[fs(*ds)]:
                    return CheckResult(False, (ds, set_name(fX), fs(*ds)))
                continue
            lhs = G.alpha(fX)
            rhs = fs(*ds)
            good = poset.leq(lhs, rhs) if kind == "sound" else lhs == rhs
            if not good:
                return CheckResult(False, (ds, set_name(fX), lhs, rhs))
        return CheckResult(True)

    # backward_complete and precise quantify over concrete subsets
    subsets = list(G.iter_concrete())
    for Xs in product(subsets, repeat=arity):
        fX = f(*Xs) if arity == 2 else f(Xs[0])
        aXs = tuple(G.alpha(X) for X in Xs)
        if kind == "backward_complete":
            if G.alpha(fX) != fs(*aXs):
                return CheckResult(
                    False,
                    (tuple(set_name(X) for X in Xs), G.alpha(fX), fs(*aXs)),
                )
        else:  # precise
            if fX != G.gamma[fs(*aXs)]:
                return CheckResult(
                    False,
                    (tuple(set_name(X) for X in Xs), set_name(fX), fs(*aXs)),
                )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# carrier-level soundness and completeness


def _cgc_condition(C: CarrierConn, pair: FnPair, variant: str, complete: bool) -> CheckResult:
    f, fs = pair.concrete, pair.abstract
    arity = pair.arity
    elems = C.abstract_poset.elements
    if variant == "ηη":
        for xs in _tuples(C.carrier.values, arity):
            lhs = C.eta[f(*xs)]
            rhs = fs(*_eta_tuple(C, xs))
            if lhs != rhs:
                return CheckResult(False, (xs, f(*xs), lhs, rhs))
        return CheckResult(True)
    if variant == "μη":
        for xs in _tuples(C.carrier.values, arity):
            fx = f(*xs)
            img = C.mu[fs(*_eta_tuple(C, xs))]
            if complete:
                if img != frozenset([fx]):
                    return CheckResult(False, (xs, fx, set_name(img)))
            elif fx not in img:
                return CheckResult(False, (xs, fx, set_name(img)))
        return CheckResult(True)
    if variant == "ημ":
        for ys in _tuples(elems, arity):
            target = fs(*ys)
            hit = {C.eta[o] for o in f.image(*(C.mu[y] for y in ys))}
            if complete:
                if hit != {target}:
                    return CheckResult(False, (ys, sorted_elems(hit), target))
            elif not hit <= {target}:
                bad = sorted_elems(hit - {target})[0]
                return CheckResult(False, (ys, bad, target))
        return CheckResult(True)
    if variant == "μμ":
        for ys in _tuples(elems, arity):
            img = C.mu[fs(*ys)]
            outs = f.image(*(C.mu[y] for y in ys))
            if complete:
                if outs != img:
                    return CheckResult(
                        False, (ys, sorted_elems(outs), set_name(img))
                    )
            elif not outs <= img:
                bad = sorted_elems(outs - img)[0]
                return CheckResult(False, (ys, bad, set_name(img)))
        return CheckResult(True)
    raise ShapeMismatch(f"unknown variant {variant!r}")


def cgc_soundness(C: CarrierConn, pair: FnPair, variant: str = "all") -> CheckResult:
    """The four equivalent soundness conditions; variant "all" evaluates
    every one and asserts that they agree on this instance."""
    rep = check_cgc(C)
    if not rep:
        raise ShapeMismatch(f"connection fails its law at {rep.witness}")
    if variant != "all":
        return _cgc_condition(C, pair, variant, complete=False)
    results = {v: _cgc_condition(C, pair, v, complete=False) for v in SOUND_VARIANTS}
    verdicts = {v: r.ok for v, r in results.items()}
    if len(set(verdicts.values())) != 1:
        raise GalkitError(f"soundness variants disagree: {verdicts}")
    first = results[SOUND_VARIANTS[0]]
    return CheckResult(first.ok, first.witness)


def cgc_completeness(C: CarrierConn, pair: FnPair, variant: str) -> CheckResult:
    """The four (non-equivalent) completeness conditions: the biconditional
    strengthenings of the soundness conditions."""
    rep = check_cgc(C)
    if not rep:
        raise ShapeMismatch(f"connection fails its law at {rep.witness}")
    if variant not in SOUND_VARIANTS:
        raise ShapeMismatch(f"unknown variant {variant!r}")
    return _cgc_condition(C, pair, variant, complete=True)


# ---------------------------------------------------------------------------
# purely constructive pairs


def pcgc_sound(C: CarrierConn, pair: FnPair) -> CheckResult:
    """Order-theoretic soundness for a purely constructive connection,
    evaluated in both its pointwise and best-approximation forms; the two
    must agree."""
    rep = check_pcgc(C)
    if not rep.ok:
        raise ShapeMismatch(f"connection fails its conditions at {rep.witness}")
    bp = C.abstract_poset
    f, fs = pair.concrete, pair.abstract
    arity = pair.arity
    pointwise = CheckResult(True)
    for xs in _tuples(C.carrier.values, arity):
        exs = _eta_tuple(C, xs)
        for ys in _tuples(bp.elements, arity):
            if all(bp.leq(e, y) for e, y in zip(exs, ys)):
                if not bp.leq(C.eta[f(*xs)], fs(*ys)):
                    pointwise = CheckResult(
                        False, (xs, ys, C.eta[f(*xs)], fs(*ys))
                    )
                    break
        if not pointwise.ok:
            break
    via_bca = CheckResult(True)
    for ys in _tuples(bp.elements, arity):
        best = bca_pcgc_entry(C, f, *ys)
        if not bp.leq(best, fs(*ys)):
            via_bca = CheckResult(False, (ys, best, fs(*ys)))
            break
    if pointwise.ok != via_bca.ok:
        raise GalkitError(
            f"soundness formulations disagree: pointwise={pointwise.ok} "
            f"bca={via_bca.ok}"
        )
    return pointwise if not pointwise.ok else via_bca


def _backward_tuples(C: CarrierConn, arity: int) -> list:
    """The tuples of carrier subsets on which backward completeness,
    lub η(f(X⃗)) = f♯(α(X⃗)) with α(X) = lub η(X), is decided.

    Breadth first from ∅, ``reps`` keeps one smallest subset R with
    α(R) = y for every y in α's image (at most |B| of them), and ``grown``
    lists ∅ and every R ∪ {x} by size.  The tuples are those of
    representatives with one position running through ``grown``, position
    by position, then every tuple of singletons: at most
    arity·|B|^(arity-1)·(1 + |B|·|A|) + |A|^arity of them, instead of
    2^(|A|·arity).

    Proof sketch.  The left side is ⊥ when an argument is ∅, and additive
    in each argument: at X ∪ X' it is the lub of its values at X and at X'.
    With the other arguments at representatives, the law on the tuples
    where one position runs through ``grown`` gives strictness of f♯ (∅
    there) and f♯(…, y ⊔ η(x), …) = f♯(…, y, …) ⊔ f♯(…, η(x), …) for y in
    α's image (R, {x} and R ∪ {x} there, R the representative of y).  The
    singleton tuples give f♯(η(x⃗)) = η(f(x⃗)).  By induction on the sizes
    of X⃗, these give f♯(α(X⃗)) = lub {f♯(η(x⃗)) | x⃗ ∈ ∏X⃗}, which is the
    left side.  Conversely the law on every tuple holds on these.

    At arity 2 the singleton tuples are needed: a pair of values that are
    no representatives lies in no other tuple.  At arity 1 they are in
    ``grown``, and the first failure is a smallest failing subset: a
    smallest X = X' ∪ {x} fails with R ∪ {x}, R representing α(X').
    """
    lat, eta = C.abstract, C.eta
    values = sorted_elems(C.carrier.values)
    reps = {lat.bottom: frozenset()}
    queue = [lat.bottom]
    grown = dict.fromkeys([frozenset()])
    for y in queue:  # the scan reaches what it appends
        for x in values:
            G = reps[y] | {x}
            grown.setdefault(G)
            z = lat.join(y, eta[x])
            if z not in reps:
                reps[z] = G
                queue.append(z)
    tuples = dict.fromkeys(
        (*rest[:i], G, *rest[i:])
        for i in range(arity)
        for rest in product(reps.values(), repeat=arity - 1)
        for G in grown
    )
    singletons = [frozenset([x]) for x in values]
    tuples.update(dict.fromkeys(product(singletons, repeat=arity)))
    return list(tuples)


def pcgc_pair_property(C: CarrierConn, pair: FnPair, kind: str) -> CheckResult:
    """optimal, forward_complete or backward_complete for a purely
    constructive pair.

    Backward completeness quantifies over tuples of carrier subsets; it is
    decided exactly on the polynomial family of :func:`_backward_tuples`,
    and a witness is a tuple of that family on which the law fails.
    """
    rep = check_pcgc(C)
    if not rep.ok:
        raise ShapeMismatch(f"connection fails its conditions at {rep.witness}")
    lat = C.abstract_lattice
    f, fs = pair.concrete, pair.abstract
    arity = pair.arity
    if kind == "optimal":
        for ys in _tuples(lat.elements, arity):
            best = bca_pcgc_entry(C, f, *ys)
            if best != fs(*ys):
                return CheckResult(False, (ys, best, fs(*ys)))
        return CheckResult(True)
    if kind == "forward_complete":
        for ys in _tuples(lat.elements, arity):
            outs = f.image(*(C.mu[y] for y in ys))
            img = C.mu[fs(*ys)]
            if outs != img:
                return CheckResult(False, (ys, set_name(outs), set_name(img)))
        return CheckResult(True)
    if kind != "backward_complete":
        raise ShapeMismatch(f"unknown property {kind!r}")
    for Xs in _backward_tuples(C, arity):
        outs = f.image(*Xs)
        lhs = lat.lub(C.eta[o] for o in outs)
        rhs = fs(*(lat.lub(C.eta[x] for x in X) for X in Xs))
        if lhs != rhs:
            return CheckResult(
                False, (tuple(set_name(X) for X in Xs), lhs, rhs)
            )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# block preservation and pair transforms


def is_block_preserving(G: GaloisConn, g_sharp: AbstractFn) -> CheckResult:
    """Every abstracted singleton maps, under g_sharp, to some abstracted
    singleton."""
    if classify_partitioning(G).category != "PGC":
        raise ShapeMismatch("connection is not partitioning")
    if g_sharp.arity != 1:
        raise ShapeMismatch("block preservation is defined for unary maps")
    reps = _singleton_alpha(G, sorted_elems(G.carrier.values))
    images = set(reps.values())
    for a in sorted_elems(reps):
        if g_sharp(reps[a]) not in images:
            return CheckResult(False, (a, reps[a], g_sharp(reps[a])))
    return CheckResult(True)


def pair_to_pgc(pair: FnPair) -> GCPair:
    """Lift a carrier-level pair pointwise to the powerset connection."""
    C = pair.conn
    G = t_pgc(C)
    lat = G.abstract_lattice
    f, fs = pair.concrete, pair.abstract
    if pair.arity == 1:
        conc = lambda X: frozenset(f(x) for x in X)
        table = {
            d: lat.name_of({fs(y) for y in lat.members[d]})
            for d in lat.elements
        }
    else:
        conc = lambda X1, X2: frozenset(f(x1, x2) for x1 in X1 for x2 in X2)
        table = {
            (d1, d2): lat.name_of({
                fs(y1, y2)
                for y1 in lat.members[d1]
                for y2 in lat.members[d2]
            })
            for d1 in lat.elements
            for d2 in lat.elements
        }
    return GCPair(G, conc, AbstractFn(pair.arity, table))


def pair_to_cgc(G: GaloisConn, g: ConcreteFn, g_sharp: AbstractFn) -> FnPair:
    """Restrict a sound, block-preserving abstract map on a partitioning
    insertion to the block representatives: the restriction sends the
    abstraction of {a} to the abstraction of {g(a)}."""
    if classify_partitioning(G).category != "PGC":
        raise ShapeMismatch("connection is not partitioning")
    if g.arity != 1 or g_sharp.arity != 1:
        raise ShapeMismatch("restriction is defined for unary maps")
    poset = G.abstract_poset
    for d in poset.elements:
        if G.alpha(G.gamma[d]) != d:
            raise NotGI(f"abstraction not surjective at {d!r}")
    for d in poset.elements:
        lifted = frozenset(g(x) for x in G.gamma[d])
        if not poset.leq(G.alpha(lifted), g_sharp(d)):
            raise NotSound(f"lifted pair unsound at {d!r}")
    bp = is_block_preserving(G, g_sharp)
    if not bp:
        raise NotBlockPreserving(f"block preservation fails at {bp.witness}")
    C = t_cgc_of_pgc(G)
    table = {}
    for a in sorted_elems(G.carrier.values):
        table[C.eta[a]] = G.alpha([g(a)])
    return FnPair(C, g, AbstractFn(1, table))


def _composite(C: CarrierConn, pair: FnPair, xs):
    return C.mu[pair.abstract(*_eta_tuple(C, xs))]


def pair_iso(C1: CarrierConn, p1: FnPair, C2: CarrierConn, p2: FnPair) -> bool:
    """Two sound pairs are isomorphic when the concrete projections of their
    abstract operations coincide over the shared carrier."""
    if C1.carrier.value_set() != C2.carrier.value_set():
        raise ShapeMismatch("pairs live over different carriers")
    if p1.arity != p2.arity:
        raise ShapeMismatch("arities differ")
    for C, p in ((C1, p1), (C2, p2)):
        snd = cgc_soundness(C, p, "all")
        if not snd:
            raise NotSound(f"pair is unsound at {snd.witness}")
    for xs in _tuples(C1.carrier.values, p1.arity):
        if _composite(C1, p1, xs) != _composite(C2, p2, xs):
            return False
    return True
