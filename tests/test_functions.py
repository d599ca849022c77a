"""Operation pairs, best correct approximations and the soundness and
completeness checkers."""
from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkit import catalog
from galkit.errors import (
    NotBlockPreserving,
    NotSound,
    ShapeMismatch,
)
from galkit.functions import (
    AbstractFn,
    ConcreteFn,
    FnPair,
    bca_gc,
    bca_pcgc,
    bca_pcgc_entry,
    cgc_completeness,
    cgc_soundness,
    gc_pair_property,
    is_block_preserving,
    pair_iso,
    pair_to_cgc,
    pair_to_pgc,
    pcgc_pair_property,
    pcgc_sound,
)
from galkit.galois import CarrierConn, CheckResult
from galkit.order import powerset_lattice
from galkit.setops import FinCarrier

SOUND_VARIANTS = ("ημ", "μμ", "ηη", "μη")


def sign8():
    return catalog.builtin("sign_pgi", 8)


def neg_fn(carrier) -> ConcreteFn:
    return ConcreteFn(1, {v: carrier.clamp(-int(v)) for v in carrier.values})


def square_fn(carrier) -> ConcreteFn:
    return ConcreteFn(1, {v: carrier.clamp(int(v) ** 2) for v in carrier.values})


def mul_fn(carrier) -> ConcreteFn:
    return ConcreteFn(2, {
        (a, b): carrier.clamp(int(a) * int(b))
        for a in carrier.values
        for b in carrier.values
    })


def first_fn(carrier) -> ConcreteFn:
    return ConcreteFn(2, {(a, b): a for a in carrier.values for b in carrier.values})


def bca_pair(C, f: ConcreteFn) -> FnPair:
    return FnPair(C, f, bca_pcgc(C, f))


def inclusion_pcgc(values, lat, eta) -> CarrierConn:
    """A purely constructive connection over ``lat`` whose mu is inclusion:
    mu(y) holds every value whose eta lies below y."""
    mu = {y: frozenset(v for v in values if lat.leq(eta[v], y)) for y in lat.elements}
    return CarrierConn("pcgc", FinCarrier.atoms(values), lat, eta, mu)


# ---------------------------------------------------------------------------
# table records


def test_concrete_fn_validates_totality():
    c = catalog.sign_cgc(2).carrier
    f = ConcreteFn(1, {v: "0" for v in c.values})
    f.validate(c)
    with pytest.raises(Exception):
        ConcreteFn(1, {"0": "0"}).validate(c)


def test_fn_pair_requires_matching_arities():
    C = catalog.sign_cgc(2)
    f = ConcreteFn(1, {v: "0" for v in C.carrier.values})
    g2 = AbstractFn(
        2,
        {(x, y): "0" for x in C.abstract_poset.elements
         for y in C.abstract_poset.elements},
    )
    with pytest.raises(ShapeMismatch):
        FnPair(C, f, g2)


# ---------------------------------------------------------------------------
# best correct approximations


def test_bca_gc_negation_swaps_signs():
    G = sign8()
    table = bca_gc(G, neg_fn(G.carrier))
    assert table("<0") == ">0" and table(">0") == "<0"
    assert table("≤0") == "≥0" and table("≥0") == "≤0"
    assert table("=0") == "=0" and table("∅") == "∅" and table("Z") == "Z"


def test_bca_pcgc_unary_table():
    C = catalog.builtin("interval_pcgc", 12)
    f = neg_fn(C.carrier)
    table = bca_pcgc(C, f)
    assert table("[1,9]") == "[-9,-1]"
    assert table("[0,0]") == "[0,0]"
    assert table("[10,+∞)") == "(-∞,-10]"
    assert table("∅") == "∅"


def test_bca_pcgc_entry_matches_full_table():
    C = catalog.builtin("interval_pcgc", 12)
    f = neg_fn(C.carrier)
    table = bca_pcgc(C, f)
    for y in C.abstract_poset.elements:
        assert table(y) == bca_pcgc_entry(C, f, y)


def test_bca_pcgc_names_a_result_outside_the_carrier():
    C = catalog.builtin("interval_pcgc", 12)
    f = ConcreteFn(1, {v: "zzz" if v == "3" else v for v in C.carrier.values})
    with pytest.raises(ShapeMismatch, match="result 'zzz' leaves the carrier"):
        bca_pcgc_entry(C, f, C.abstract.top)
    with pytest.raises(ShapeMismatch, match="'zzz'"):
        bca_pcgc(C, f)


# ---------------------------------------------------------------------------
# lattice-level properties


def test_gc_pair_property_kinds_on_exact_pair():
    G = sign8()
    f = neg_fn(G.carrier)
    fs = bca_gc(G, f)
    from galkit.functions import GCPair

    conc = lambda X: frozenset(f.table[x] for x in X)
    pair = GCPair(G, conc, fs)
    assert gc_pair_property(G, pair, "sound").ok
    assert gc_pair_property(G, pair, "optimal").ok
    with pytest.raises(ShapeMismatch):
        gc_pair_property(G, pair, "bogus")


def test_gc_pair_property_detects_unsoundness():
    G = sign8()
    f = neg_fn(G.carrier)
    bad = AbstractFn(1, {d: "=0" for d in G.abstract_poset.elements})
    from galkit.functions import GCPair

    conc = lambda X: frozenset(f.table[x] for x in X)
    pair = GCPair(G, conc, bad)
    rep = gc_pair_property(G, pair, "sound")
    assert not rep.ok and rep.witness is not None


# ---------------------------------------------------------------------------
# carrier-level soundness and completeness


def test_sound_pair_passes_all_variants():
    C, pair = catalog.gen_sound_pair(7)
    res = cgc_soundness(C, pair, "all")
    assert res.ok
    for v in SOUND_VARIANTS:
        assert cgc_soundness(C, pair, v).ok


def sign3(bound: int):
    # the sign blocks without the unused bottom value, so every abstract
    # element has a nonempty concretization
    from galkit.galois import CarrierConn
    from galkit.order import FinPoset

    C = catalog.sign_cgc(bound)
    return CarrierConn(
        "cgc", C.carrier, FinPoset.discrete(["-", "0", "+"]),
        C.eta, {b: C.mu[b] for b in ("-", "0", "+")},
    )


def test_negation_pair_completeness_profile():
    C = sign3(4)
    f = neg_fn(C.carrier)
    table = {"-": "+", "0": "0", "+": "-"}
    pair = FnPair(C, f, AbstractFn(1, table))
    for v in SOUND_VARIANTS:
        assert cgc_soundness(C, pair, v).ok
    assert cgc_completeness(C, pair, "ημ").ok
    assert cgc_completeness(C, pair, "μμ").ok
    assert cgc_completeness(C, pair, "ηη").ok
    # the pointwise variant demands singleton blocks, which sign lacks
    assert not cgc_completeness(C, pair, "μη").ok


def test_singleton_partition_is_complete_in_every_variant():
    from galkit.galois import CarrierConn
    from galkit.order import FinPoset
    from galkit.setops import FinCarrier

    values = ["a", "b"]
    C = CarrierConn(
        "cgc", FinCarrier.atoms(values), FinPoset.discrete(values),
        {v: v for v in values},
        {v: frozenset([v]) for v in values},
    )
    f = ConcreteFn(1, {"a": "b", "b": "a"})
    pair = FnPair(C, f, AbstractFn(1, {"a": "b", "b": "a"}))
    for v in SOUND_VARIANTS:
        assert cgc_soundness(C, pair, v).ok
        assert cgc_completeness(C, pair, v).ok


def test_unsound_pair_fails_with_witness():
    C = catalog.sign_cgc(4)
    f = neg_fn(C.carrier)
    table = {"-": "+", "0": "0", "+": "+", "⊥": "⊥"}
    pair = FnPair(C, f, AbstractFn(1, table))
    res = cgc_soundness(C, pair, "all")
    assert not res.ok and res.witness is not None


def test_squaring_is_sound_but_not_precise():
    # squaring collapses the sign of negatives, so the eta-mu and mu-mu
    # completeness variants hold while the pointwise mu-eta variant fails
    C = sign3(4)
    sq = ConcreteFn(
        1, {v: C.carrier.clamp(int(v) ** 2) for v in C.carrier.values}
    )
    table = {"-": "+", "0": "0", "+": "+"}
    pair = FnPair(C, sq, AbstractFn(1, table))
    assert cgc_soundness(C, pair, "all").ok
    assert cgc_completeness(C, pair, "ημ").ok
    assert not cgc_completeness(C, pair, "μη").ok


# ---------------------------------------------------------------------------
# purely constructive soundness


def test_pcgc_sound_and_optimal_for_bca():
    C = catalog.builtin("interval_pcgc", 12)
    f = neg_fn(C.carrier)
    pair = FnPair(C, f, bca_pcgc(C, f))
    assert pcgc_sound(C, pair).ok
    assert pcgc_pair_property(C, pair, "optimal").ok


def test_pcgc_sound_rejects_too_small_outputs():
    C = catalog.builtin("interval_pcgc", 12)
    f = neg_fn(C.carrier)
    table = dict(bca_pcgc(C, f).table)
    table["Z"] = "∅"
    pair = FnPair(C, f, AbstractFn(1, table))
    res = pcgc_sound(C, pair)
    assert not res.ok


def test_signconst_multiplication_bca_is_optimal(signconst):
    carrier = signconst.carrier
    mul = mul_fn(carrier)
    table = {
        (b1, b2): bca_pcgc_entry(signconst, mul, b1, b2)
        for b1 in ("∅", "<0", "≤0", ">0", "≥0", "≠0", "Z", "0", "2", "-2")
        for b2 in ("∅", "<0", "≤0", ">0", "≥0", "≠0", "Z", "0", "2", "-2")
    }
    # on a square of the 71-element domain, each entry is the lub of the
    # products; on the 28-element domain, the full table is optimal
    for (b1, b2), out in table.items():
        prods = {
            carrier.clamp(int(x) * int(y))
            for x in signconst.mu[b1]
            for y in signconst.mu[b2]
        }
        assert signconst.abstract.lub(
            signconst.eta[p] for p in prods
        ) == out
    C = catalog.builtin("signconst_pcgc", 10)
    assert pcgc_pair_property(C, bca_pair(C, mul_fn(C.carrier)), "optimal").ok


def test_saturating_multiplication_is_not_backward_complete():
    C = catalog.builtin("signconst_pcgc", 10)
    pair = bca_pair(C, mul_fn(C.carrier))
    res = pcgc_pair_property(C, pair, "backward_complete")
    assert res == CheckResult(False, (("{-10,-9}", "{-9}"), "10", ">0"))
    # both literal sides: -10 * -9 and -9 * -9 saturate to 10, while
    # alpha({-10,-9}) = <0 also holds -1, and -1 * -9 = 9
    lat = C.abstract
    Xs = (frozenset({"-10", "-9"}), frozenset({"-9"}))
    lhs = lat.lub(C.eta[o] for o in pair.concrete.image(*Xs))
    rhs = pair.abstract(*(lat.lub(C.eta[x] for x in X) for X in Xs))
    assert (lhs, rhs) == ("10", ">0")


def test_binary_backward_completeness_on_21_values_is_decided_quickly():
    C = catalog.builtin("signconst_pcgc", 10)
    pair = bca_pair(C, first_fn(C.carrier))
    start = time.perf_counter()
    assert pcgc_pair_property(C, pair, "backward_complete").ok
    assert time.perf_counter() - start < 1.0


def test_backward_completeness_is_decided_past_twelve_values():
    # f# differs from the identity only at top, and alpha(X) is top only
    # when X holds a0..a7 and one of a8..a12: every failing subset has 9
    # values, more than any sample of at most 8 could hold
    lat = powerset_lattice([f"r{j}" for j in range(9)])
    values = [f"a{i}" for i in range(13)]
    eta = {f"a{i}": lat.name_of([f"r{min(i, 8)}"]) for i in range(13)}
    C = inclusion_pcgc(values, lat, eta)
    ident = ConcreteFn(1, {v: v for v in values})
    same = AbstractFn(1, {y: y for y in lat.elements})
    assert pcgc_pair_property(C, FnPair(C, ident, same), "backward_complete").ok
    drop_top = AbstractFn(
        1, {y: lat.bottom if y == lat.top else y for y in lat.elements})
    res = pcgc_pair_property(C, FnPair(C, ident, drop_top), "backward_complete")
    assert not res.ok
    (X,), lhs, rhs = res.witness
    assert X.count(",") + 1 == 9 and (lhs, rhs) == (lat.top, lat.bottom)


def test_backward_completeness_reaches_pairs_of_non_representatives():
    # x1 and y1 represent p and q; f leaves {p} only at (x2, y2), and no
    # tuple that holds a representative holds that pair
    lat = powerset_lattice(["p", "q"])
    p, q = lat.name_of(["p"]), lat.name_of(["q"])
    values = ["x1", "x2", "y1", "y2"]
    C = inclusion_pcgc(values, lat, {"x1": p, "x2": p, "y1": q, "y2": q})
    f = ConcreteFn(2, {
        (a, b): "y1" if (a, b) == ("x2", "y2") else "x1"
        for a in values for b in values
    })
    fs = AbstractFn(2, {
        (a, b): lat.bottom if lat.bottom in (a, b) else p
        for a in lat.elements for b in lat.elements
    })
    res = pcgc_pair_property(C, FnPair(C, f, fs), "backward_complete")
    assert res == CheckResult(False, (("{x2}", "{y2}"), q, p))


@pytest.mark.parametrize("make, expected", [
    (neg_fn, CheckResult(True)),
    (square_fn, CheckResult(
        False, (("<0",), "{1,4,9,10}", "{1,2,3,4,5,6,7,8,9,10}"))),
    (first_fn, CheckResult(True)),
    (mul_fn, CheckResult(False, (
        ("-10", "Z"), "{-10,0,10}", "{" + ",".join(map(str, range(-10, 11))) + "}"))),
])
def test_pcgc_forward_completeness(make, expected):
    C = catalog.builtin("signconst_pcgc", 10)
    assert pcgc_pair_property(C, bca_pair(C, make(C.carrier)), "forward_complete") == expected


@pytest.mark.parametrize("kind", ["sound", "precise", "backward-complete", ""])
@pytest.mark.parametrize("make", [neg_fn, mul_fn])
def test_pcgc_pair_property_rejects_an_unknown_kind(make, kind):
    C = catalog.builtin("signconst_pcgc", 10)
    with pytest.raises(ShapeMismatch, match="unknown property"):
        pcgc_pair_property(C, bca_pair(C, make(C.carrier)), kind)


# ---------------------------------------------------------------------------
# block preservation and pair transforms


def test_is_block_preserving():
    G = sign8()
    f = neg_fn(G.carrier)
    assert is_block_preserving(G, bca_gc(G, f)).ok
    smear = AbstractFn(1, {d: "≥0" for d in G.abstract_poset.elements})
    rep = is_block_preserving(G, smear)
    assert not rep.ok


def test_pair_to_cgc_restricts_to_blocks():
    G = sign8()
    f = neg_fn(G.carrier)
    pair = pair_to_cgc(G, f, bca_gc(G, f))
    assert cgc_soundness(pair.conn, pair, "all").ok
    assert pair.abstract(pair.conn.eta["3"]) == pair.conn.eta["-3"]


def test_pair_to_cgc_rejects_unsound_and_non_block_preserving():
    G = sign8()
    f = neg_fn(G.carrier)
    with pytest.raises(NotSound):
        pair_to_cgc(G, f, AbstractFn(1, {d: "∅" for d in G.abstract_poset.elements}))
    smear = AbstractFn(1, {d: "Z" for d in G.abstract_poset.elements})
    with pytest.raises(NotBlockPreserving):
        pair_to_cgc(G, f, smear)


def test_pair_roundtrip_through_powerset_is_isomorphic():
    # successor flips parity; its lifting restricts back to the same pair
    C = catalog.builtin("parity", 8)
    f = ConcreteFn(
        1, {v: C.carrier.clamp(int(v) + 1) for v in C.carrier.values}
    )
    pair = FnPair(C, f, AbstractFn(1, {"even": "odd", "odd": "even"}))
    lifted = pair_to_pgc(pair)
    back = pair_to_cgc(lifted.conn, f, lifted.abstract)
    assert pair_iso(C, pair, back.conn, back)


def test_pair_iso_requires_soundness():
    C = catalog.sign_cgc(4)
    f = neg_fn(C.carrier)
    bad = FnPair(
        C, f, AbstractFn(1, {"-": "-", "0": "0", "+": "+", "⊥": "⊥"})
    )
    with pytest.raises(NotSound):
        pair_iso(C, bad, C, bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_sound_pairs_stay_sound_when_lifted(seed):
    C, pair = catalog.gen_sound_pair(seed)
    lifted = pair_to_pgc(pair)
    assert cgc_soundness(C, pair, "all").ok
    assert gc_pair_property(lifted.conn, lifted, "sound").ok
