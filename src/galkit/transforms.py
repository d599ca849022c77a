"""Transforms between the connection classes, with fail-closed verification.

Every transform re-checks its input precondition and re-runs a checker on its
output: a class is decided by its checker, never by a tag.  Synthesized abstract elements get
deterministic names: powerset elements are canonical sorted member lists,
block representatives are named after their least carrier member.
"""
from __future__ import annotations

from .errors import NotInClass, TooLarge
from .galois import (
    CarrierConn,
    ClosureOp,
    GaloisConn,
    _lift_powerset,
    _require,
    _singleton_alpha,
    check_cco,
    check_cgc,
    check_cgp,
    check_gc,
    check_pcgc,
    classify_partitioning,
    prt,
)
from .order import (
    FinLattice,
    FinPoset,
    SetLattice,
    meet_closure,
    set_name,
    sorted_elems,
    subsets_by_size,
)


def _as_lattice(abstract) -> FinLattice:
    if isinstance(abstract, FinLattice):
        return abstract
    return FinLattice.from_poset(abstract)


def _checked_gc(G: GaloisConn) -> GaloisConn:
    report = check_gc(G)
    if not report.is_gc:
        raise NotInClass(f"transform output fails adjunction at {report.witness}")
    return G


def t_pgc(C: CarrierConn) -> GaloisConn:
    """Lift a constructive connection to the partitioning connection
    between the powersets of its carrier and abstract values.

    The lift is built by :func:`galkit.galois._lift_powerset`, whose gamma
    is gamma(S) = the union of mu(b) over b in S, by construction.  So
    gamma is additive and gives each x the atom {eta(x)}, and the lift
    keeps both facts instead of checking them again; the proofs are in
    that function's docstring.  The input still runs ``check_cgc``, and
    the output :func:`classify_partitioning`, which checks that the blocks
    partition the carrier: a lift that fails raises instead of being
    returned.
    """
    if not check_cgc(C):
        raise NotInClass("input fails the constructive-connection law")
    G = _lift_powerset(C)
    if classify_partitioning(G).category != "PGC":
        raise NotInClass("lifted connection is not partitioning")
    return G


def t_cgc_of_pgc(G: GaloisConn) -> CarrierConn:
    """Collapse a partitioning connection to the constructive connection on
    its block representatives."""
    if classify_partitioning(G).category != "PGC":
        raise NotInClass("input is not a partitioning connection")
    eta = _singleton_alpha(G, sorted_elems(G.carrier.values))
    elements = sorted_elems(set(eta.values()))
    mu = {d: G.gamma[d] for d in elements}
    out = CarrierConn("cgc", G.carrier, FinPoset.discrete(elements), eta, mu)
    rep = check_cgc(out)
    if not rep:
        raise NotInClass(f"collapsed connection fails at {rep.witness}")
    return out


def t_cco(C: CarrierConn) -> ClosureOp:
    """The closure operator mu after eta of a constructive connection."""
    if not check_cgc(C):
        raise NotInClass("input fails the constructive-connection law")
    return ClosureOp(C.carrier, {a: C.mu[C.eta[a]] for a in C.carrier.values})


def t_cgc_of_cco(phi: ClosureOp) -> CarrierConn:
    """The constructive connection whose abstract values are the closure's
    images, concretized by themselves."""
    rep = check_cco(phi)
    if not rep:
        raise NotInClass(f"closure law fails at {rep.witness}")
    eta = {a: set_name(phi.phi[a]) for a in phi.carrier.values}
    mu = {set_name(s): s for s in phi.phi.values()}
    out = CarrierConn(
        "cgc", phi.carrier, FinPoset.discrete(sorted_elems(mu)), eta, mu,
    )
    rep = check_cgc(out)
    if not rep:
        raise NotInClass(f"induced connection fails at {rep.witness}")
    return out


def t_gc(C: CarrierConn) -> GaloisConn:
    """Turn an ordered constructive connection into the adjunction between
    the downsets of its carrier and its (complete-lattice) abstract side."""
    if not check_cgp(C):
        raise NotInClass("input fails the ordered-connection laws")
    return _checked_gc(GaloisConn(
        C.carrier, _as_lattice(C.abstract), C.mu, carrier_order=C.carrier_order))


def t_cgp(G: GaloisConn) -> CarrierConn:
    """Restrict an adjunction over downsets back to carrier level via
    principal downsets: eta(a) = alpha(down(a)).

    The input must pass :func:`check_gc`.  Then alpha(down(a)) is the atom
    a_a, read off :meth:`GaloisConn.atoms`: if x <= a, then a lies in
    gamma(a_a), which is down-closed, so x does too and a_x <= a_a.
    """
    _require(GaloisConn, "t_cgp", G)
    report = check_gc(G)
    if not report.is_gc:
        raise NotInClass(f"input fails the adjunction at {report.witness}")
    out = CarrierConn(
        "cgp", G.carrier, G.abstract, G.atoms(), G.gamma, carrier_order=G.carrier_order,
    )
    rep = check_cgp(out)
    if not rep:
        raise NotInClass(f"restriction fails at {rep.witness}")
    return out


def t_ppgc(C: CarrierConn) -> GaloisConn:
    """Lift a purely constructive connection to the pre-partitioning
    adjunction over the powerset of its carrier."""
    if not check_pcgc(C).ok:
        raise NotInClass("input fails the purely-constructive conditions")
    G = GaloisConn(C.carrier, _as_lattice(C.abstract), C.mu)
    if classify_partitioning(G).category not in ("PGC", "PPGC"):
        raise NotInClass("lifted connection is not pre-partitioning")
    return _checked_gc(G)


def t_pcgc(G: GaloisConn) -> CarrierConn:
    """Restrict a pre-partitioning adjunction to carrier level via
    singleton abstraction."""
    if classify_partitioning(G).category not in ("PGC", "PPGC"):
        raise NotInClass("input is not pre-partitioning")
    eta = _singleton_alpha(G, G.carrier.values)
    out = CarrierConn("pcgc", G.carrier, G.abstract, eta, G.gamma)
    rep = check_pcgc(out)
    if not rep.ok:
        raise NotInClass(f"restriction fails at {rep.witness}")
    return out


def least_disjunctive_basis(G: GaloisConn) -> frozenset:
    """The smallest family whose disjunctive completion recovers the whole
    powerset abstract domain: the meet-closure of its join-irreducibles."""
    _require(GaloisConn, "least_disjunctive_basis", G)
    lat = G.abstract_lattice
    if not (isinstance(lat, SetLattice)
            and len(lat.elements) == 2 ** len(lat.members[lat.top])):
        raise NotInClass("abstract lattice is not a powerset")
    return meet_closure(lat, lat.join_irreducibles())


def disjunctive_completion(G: GaloisConn) -> GaloisConn:
    """Close the concretization images under unions, yielding a partitioning
    connection over all unions of blocks.

    The blocks gamma(alpha({a})) partition the carrier, so the union and
    the intersection of two block unions are block unions again: the family
    of all block unions is closed under both and holds the carrier, and its
    lattice needs no closure pass.  Every gamma(d) lies in it, since alpha
    is read off gamma: alpha({x}) is the atom a_x of x, and x is in
    gamma(d) exactly when a_x <= d.  For y in the block gamma(a_x) that
    gives a_y <= a_x <= d, so gamma(a_x) <= gamma(d) for every x in
    gamma(d), and gamma(d) is the union of those blocks.
    """
    cls = classify_partitioning(G)
    if cls.category not in ("PGC", "PPGC"):
        raise NotInClass("input is not pre-partitioning")
    blocks = prt(G)
    if len(blocks) > 12:
        raise TooLarge("too many blocks for union closure")
    values = G.carrier.values
    bit = {v: 1 << i for i, v in enumerate(values)}
    # blocks are disjoint, so each set of them has its own union, its sum
    family = map(sum, subsets_by_size([sum(map(bit.__getitem__, b)) for b in blocks]))
    lat = SetLattice(values, family, by_name=True)
    out = GaloisConn(G.carrier, lat, lat.members)
    if classify_partitioning(out).category != "PGC":
        raise NotInClass("completion failed to produce a partitioning connection")
    return out
