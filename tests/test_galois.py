"""Connection records, class checkers, classification, precision and
isomorphism."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import downsets_lattice
from oracles import literal_precision_cmp, literal_renaming
from strategies import carrier_conns

from galkit import catalog, fileio
from galkit.errors import NotInClass, NotIsomorphic, ShapeMismatch, UnknownElement
from galkit.functions import AbstractFn, GCPair, bca_gc, gc_pair_property
from galkit.galois import (
    CarrierConn,
    ClosureOp,
    GaloisConn,
    _renaming,
    check_cco,
    check_cgc,
    check_cgp,
    check_gc,
    check_pcgc,
    classify_partitioning,
    embed_cgc_to_pcgc,
    embed_pcgc_to_cgp,
    is_cgi,
    nonempty_iso,
    precision_cmp,
    prt,
    renaming_witnesses,
)
from galkit.order import (
    FinLattice,
    FinPoset,
    build_poset,
    set_name,
)
from galkit.setops import FinCarrier
from galkit.transforms import least_disjunctive_basis, t_cco, t_cgc_of_pgc, t_cgp, t_pgc


def tiny_cgc() -> CarrierConn:
    return CarrierConn(
        "cgc",
        FinCarrier.atoms(["a", "b", "c"]),
        FinPoset.discrete(["x", "y", "junk"]),
        {"a": "x", "b": "x", "c": "y"},
        {"x": frozenset({"a", "b"}), "y": frozenset({"c"}), "junk": frozenset()},
    )


def one_block(values) -> CarrierConn:
    return CarrierConn(
        "cgc",
        FinCarrier.atoms(values),
        FinPoset.discrete(["all"]),
        {v: "all" for v in values},
        {"all": frozenset(values)},
    )


# ---------------------------------------------------------------------------
# record validation


def test_carrier_conn_rejects_partial_eta():
    with pytest.raises(ShapeMismatch):
        CarrierConn(
            "cgc",
            FinCarrier.atoms(["a", "b"]),
            FinPoset.discrete(["x"]),
            {"a": "x"},
            {"x": frozenset({"a", "b"})},
        )


def test_carrier_conn_rejects_unknown_targets():
    with pytest.raises(Exception):
        CarrierConn(
            "cgc",
            FinCarrier.atoms(["a"]),
            FinPoset.discrete(["x"]),
            {"a": "zzz"},
            {"x": frozenset({"a"})},
        )


def test_carrier_conn_rejects_stray_keys():
    # a stray mu entry would leak into mu_image and so into precision and
    # isomorphism verdicts
    C = tiny_cgc()
    with pytest.raises(ShapeMismatch, match="ghost"):
        CarrierConn("cgc", C.carrier, C.abstract, C.eta,
                    {**C.mu, "ghost": frozenset({"a"})})
    with pytest.raises(ShapeMismatch, match="ghost"):
        CarrierConn("cgc", C.carrier, C.abstract, {**C.eta, "ghost": "x"},
                    C.mu)


def test_galois_conn_rejects_stray_gamma_keys(sign_pgi):
    gamma = {**sign_pgi.gamma, "ghost": frozenset()}
    with pytest.raises(ShapeMismatch, match="ghost"):
        GaloisConn(sign_pgi.carrier, sign_pgi.abstract, gamma)


AB, X_ONLY = FinCarrier.atoms(["a", "b"]), FinPoset.discrete(["x"])


@pytest.mark.parametrize("value", ["ab", None, [["a"]], 3],
                         ids=["string", "None", "list-member", "int"])
def test_a_table_value_that_is_no_set_of_values_is_refused_by_key(value):
    # a string would be split into its characters: mu(x) = "ab" read as {a, b}
    with pytest.raises(ShapeMismatch, match=r"^mu\('x'\) is no set of carrier values: "):
        CarrierConn("cgc", AB, X_ONLY, {"a": "x", "b": "x"}, {"x": value})
    with pytest.raises(ShapeMismatch, match=r"^gamma\('x'\) is no set of carrier values: "):
        GaloisConn(AB, FinLattice.from_poset(X_ONLY), {"x": value})


@pytest.mark.parametrize("value", [["x"], {"x"}], ids=["list", "set"])
def test_an_unhashable_eta_value_is_no_abstract_element(value):
    # as for a carrier, an unhashable value is no element of a poset
    assert value not in X_ONLY
    with pytest.raises(UnknownElement):
        X_ONLY.require(value)
    with pytest.raises(ShapeMismatch, match=re.escape(f"eta('a') = {value!r} not abstract")):
        CarrierConn("cgc", AB, X_ONLY, {"a": value, "b": "x"}, {"x": ["a", "b"]})


def test_a_table_value_may_be_any_iterable_of_values():
    C = CarrierConn("cgc", AB, X_ONLY, {"a": "x", "b": "x"}, {"x": ["a", "b"]})
    assert C.mu == {"x": frozenset("ab")} and check_cgc(C).ok


# ---------------------------------------------------------------------------
# class checkers


def test_check_cgc_accepts_parity(parity):
    assert check_cgc(parity).ok


def test_check_cgc_witness_on_broken_mu():
    C = tiny_cgc()
    broken = CarrierConn(
        "cgc", C.carrier, C.abstract_poset, C.eta,
        {"x": frozenset({"a", "b", "c"}), "y": frozenset({"c"}),
         "junk": frozenset()},
    )
    rep = check_cgc(broken)
    assert not rep.ok and rep.witness == ("c", "x")


def test_plustop_is_cgp_but_not_cgc():
    plustop = catalog.builtin("plustop_cgp", 16)
    assert check_cgp(plustop).ok
    rep = check_cgc(plustop)
    assert not rep.ok and rep.witness == ("1", "⊤")


def test_check_pcgc_on_interval_domains():
    assert check_pcgc(catalog.builtin("interval_pcgc", 32)).ok
    rep = check_pcgc(catalog.builtin("interval_bprime", 32))
    assert rep.cond1 and not rep.cond2
    assert rep.witness == ("10", "[-10,10]")


def test_check_cco():
    phi = t_cco(tiny_cgc())
    assert check_cco(phi).ok
    bad = ClosureOp.__new__(ClosureOp)
    object.__setattr__(bad, "carrier", FinCarrier.atoms(["a", "b"]))
    object.__setattr__(
        bad, "phi", {"a": frozenset({"a", "b"}), "b": frozenset({"b"})}
    )
    rep = check_cco(bad)
    assert not rep.ok


@pytest.mark.parametrize("phi", [{"a": "ab", "b": "ab"}, {"a": None, "b": ["b"]}],
                         ids=["string", "none"])
def test_a_closure_value_must_be_a_set_of_carrier_values(phi):
    # "ab" would split into {a, b} and make a valid closure operator
    name = next(a for a, s in phi.items() if not isinstance(s, list))
    match = f"phi\\({name!r}\\) is no set of carrier values"
    with pytest.raises(ShapeMismatch, match=match):
        ClosureOp(FinCarrier.atoms(["a", "b"]), phi)
    with pytest.raises(ShapeMismatch, match=match):
        check_cco(phi)


def test_check_gc_flags_on_sign():
    rep = check_gc(catalog.builtin("sign_pgi", 7))
    assert rep.is_gc and rep.is_gi and rep.is_disjunctive


def test_a_failing_gc_report_is_false():
    chain = FinLattice.from_poset(build_poset(["⊥", "x", "⊤"], [("⊥", "x"), ("x", "⊤")]))
    # a lies in gamma(x) but not in gamma(⊤): gamma is not monotone
    bad = GaloisConn(FinCarrier.atoms(["a", "b"]), chain,
                     {"⊥": set(), "x": {"a"}, "⊤": {"b"}})
    rep = check_gc(bad)
    assert not rep.is_gc and not rep
    assert check_gc(catalog.builtin("sign_pgi", 7))


@pytest.mark.parametrize("check", [check_cgc, check_cgp, check_pcgc],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", ["sign_pgi", "sign_minus_ppgc", "interval_gi_d"])
def test_carrier_checkers_refuse_a_galois_connection(check, name):
    with pytest.raises(ShapeMismatch, match=f"{check.__name__} needs a CarrierConn, "
                                            "not a GaloisConn"):
        check(catalog.builtin(name, 10))


def test_checkers_refuse_the_other_connection_classes(parity):
    closure = t_cco(parity)
    assert isinstance(closure, ClosureOp)
    with pytest.raises(ShapeMismatch, match="not a ClosureOp"):
        check_pcgc(closure)
    for conn in (parity, closure):
        with pytest.raises(ShapeMismatch, match=f"not a {type(conn).__name__}"):
            check_gc(conn)


def _pair_property(conn):
    pair = GCPair(conn, lambda X: X, AbstractFn(1, {b: b for b in conn.abstract_poset.elements}))
    return gc_pair_property(conn, pair, "sound")


# each function, called on a connection of the wrong class, the class it
# needs and the builtin it is given
WRONG_CLASS = {
    "nonempty_iso": (lambda G: nonempty_iso(G, G), "CarrierConn", "sign_pgi"),
    "renaming_witnesses": (lambda G: renaming_witnesses(G, G), "CarrierConn", "sign_pgi"),
    "bca_gc": (lambda C: bca_gc(C, lambda X: X), "GaloisConn", "parity"),
    "gc_pair_property": (_pair_property, "GaloisConn", "parity"),
    "least_disjunctive_basis": (least_disjunctive_basis, "GaloisConn", "parity"),
    "t_cgp": (t_cgp, "GaloisConn", "parity"),
}


@pytest.mark.parametrize("fn", WRONG_CLASS)
def test_public_functions_refuse_the_wrong_connection_class(fn):
    call, needs, given = WRONG_CLASS[fn]
    conn = catalog.builtin(given, 8)
    with pytest.raises(ShapeMismatch, match=f"^{fn} needs a {needs}, "
                                            f"not a {type(conn).__name__}$"):
        call(conn)


@pytest.mark.parametrize("check, needs, refused", [
    (check_cco, "a ClosureOp or a mapping", ["parity", "sign_pgi"]),
    (classify_partitioning, "a GaloisConn", ["parity", "closure"]),
    (prt, "a GaloisConn", ["parity", "closure"]),
    (is_cgi, "a CarrierConn", ["sign_pgi", "closure"]),
], ids=["check_cco", "classify_partitioning", "prt", "is_cgi"])
def test_the_other_checkers_refuse_the_wrong_connection_class(check, needs, refused):
    parity = catalog.builtin("parity", 8)
    conns = {"parity": parity, "sign_pgi": catalog.builtin("sign_pgi", 8),
             "closure": t_cco(parity)}
    for name in refused:
        conn = conns[name]
        with pytest.raises(ShapeMismatch, match=f"^{check.__name__} needs {needs}, "
                                                f"not a {type(conn).__name__}$"):
            check(conn)
    # the classes each accepts still pass
    assert check_cco(conns["closure"]) and check_cco(dict(conns["closure"].phi))


def test_interval_gi_adjunction_sampled():
    # the carrier is too large to scan every subset, so probe the adjunction
    # literally on a deterministic sample of them
    gi_d = catalog.builtin("interval_gi_d", 16)
    poset = gi_d.abstract_poset
    values = [str(n) for n in range(-16, 17)]
    samples = [frozenset(), frozenset(values)]
    samples += [frozenset([v]) for v in values]
    samples += [frozenset(values[i : i + 5]) for i in range(0, len(values), 5)]
    for X in samples:
        aX = gi_d.alpha(X)
        for y in poset.elements:
            assert poset.leq(aX, y) == (X <= gi_d.gamma[y]), (X, y)
    for d in poset.elements:
        assert gi_d.alpha(gi_d.gamma[d]) == d


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("make", [
    lambda: catalog.builtin("sign_pgi", 3),
    lambda: t_pgc(catalog.gen_cgc(3)),
], ids=["sign_pgi", "t_pgc"])
def test_alpha_of_a_value_outside_the_carrier_names_it(make):
    G = make()
    assert check_gc(G).is_gc
    with pytest.raises(UnknownElement, match="'zzz'"):
        G.alpha(["zzz"])
    # the first value outside the carrier in sorted order, whatever else X holds
    with pytest.raises(UnknownElement, match="'yyy'"):
        G.alpha(["zzz", sorted(G.carrier.values)[0], "yyy"])


def test_classify_builtins():
    assert classify_partitioning(catalog.builtin("sign_pgi", 16)).category == "PGC"
    rep = classify_partitioning(catalog.builtin("sign_minus_ppgc", 16))
    assert rep.category == "PPGC"
    assert classify_partitioning(
        catalog.builtin("interval_gi_d", 16)
    ).category == "neither"


def test_prt_of_sign_has_three_blocks(sign_pgi):
    blocks = prt(sign_pgi)
    assert len(blocks) == 3
    universe = set()
    for b in blocks:
        universe |= b
    assert universe == sign_pgi.carrier.value_set()


# ---------------------------------------------------------------------------
# precision and isomorphism


def test_parity_is_strictly_finer_than_one_block(parity):
    coarse = one_block(parity.carrier.values)
    assert precision_cmp(parity, coarse) == "strictly_finer"
    assert precision_cmp(coarse, parity) == "strictly_coarser"


def test_incomparable_partitions():
    values = ["a", "b", "c", "d"]

    def split(pairs):
        eta = {}
        mu = {}
        for i, blk in enumerate(pairs):
            mu[f"b{i}"] = frozenset(blk)
            for v in blk:
                eta[v] = f"b{i}"
        return CarrierConn(
            "cgc", FinCarrier.atoms(values), FinPoset.discrete(sorted(mu)),
            eta, mu,
        )

    C1 = split([("a", "b"), ("c", "d")])
    C2 = split([("a", "c"), ("b", "d")])
    assert precision_cmp(C1, C2) == "incomparable"
    assert precision_cmp(C1, C1) == "isomorphic"


VALUES = ("a", "b", "c", "d")


@settings(max_examples=300, deadline=None)
@given(carrier_conns(VALUES), carrier_conns(VALUES))
def test_precision_cmp_agrees_with_the_union_closures(C1, C2):
    for X, Y in ((C1, C2), (C2, C1), (C1, C1)):
        assert precision_cmp(X, Y) == literal_precision_cmp(X, Y)


@pytest.mark.parametrize("n", [16, 64])
def test_precision_decides_identity_connections_of_many_blocks(n):
    values = [str(i) for i in range(n)]
    C = CarrierConn("cgc", FinCarrier.atoms(values), FinPoset.discrete(values),
                    {v: v for v in values}, {v: frozenset([v]) for v in values})
    assert check_cgc(C)
    assert precision_cmp(C, C) == "isomorphic"
    f12, f21 = renaming_witnesses(C, C)
    assert f12 == f21 == {v: v for v in values}
    assert precision_cmp(C, one_block(values)) == "strictly_finer"
    assert precision_cmp(one_block(values), C) == "strictly_coarser"


@pytest.mark.parametrize("kind", ["cgc", "cgp"])
def test_renamings_agree_with_the_per_value_search(kind):
    for seed in range(60):
        C = catalog.gen(kind, seed)
        # the same blocks under other names, in another element order
        D = t_cgc_of_pgc(t_pgc(C)) if kind == "cgc" else C
        for X, Y in ((C, D), (D, C)):
            assert list(_renaming(X, Y).items()) == list(literal_renaming(X, Y).items())
        assert renaming_witnesses(C, D) == (literal_renaming(C, D), literal_renaming(D, C))


def test_a_renaming_picks_the_first_element_with_the_block():
    # p and q share the block {a}: C1's x goes to p, though eta2(a) = q
    values = FinCarrier.atoms(["a", "b"])
    C1 = CarrierConn("cgc", values, FinPoset.discrete(["x", "y"]),
                     {"a": "x", "b": "y"}, {"x": {"a"}, "y": {"b"}})
    C2 = CarrierConn("pcgc", values, FinPoset.discrete(["q", "r", "p"]),
                     {"a": "q", "b": "r"}, {"p": {"a"}, "q": {"a"}, "r": {"b"}})
    assert _renaming(C1, C2) == literal_renaming(C1, C2) == {"x": "p", "y": "r"}


def test_renaming_refuses_a_block_the_other_side_lacks():
    # {a, b} is the union of the blocks {a} and {b}, so the two are
    # isomorphic, yet no element of the first has the block {a, b}
    values = FinCarrier.atoms(["a", "b"])
    C1 = CarrierConn("cgc", values, FinPoset.discrete(["x", "y"]),
                     {"a": "x", "b": "y"}, {"x": {"a"}, "y": {"b"}})
    C2 = CarrierConn("pcgc", values, FinPoset.discrete(["x", "y", "z"]),
                     {"a": "z", "b": "y"}, {"x": {"a"}, "y": {"b"}, "z": {"a", "b"}})
    assert precision_cmp(C1, C2) == "isomorphic"
    with pytest.raises(NotIsomorphic, match="no block of the other"):
        renaming_witnesses(C1, C2)


def test_precision_requires_shared_carrier():
    with pytest.raises(ShapeMismatch):
        precision_cmp(tiny_cgc(), one_block(["p", "q"]))


def test_nonempty_iso_ignores_junk():
    C = tiny_cgc()
    lean = CarrierConn(
        "cgc", C.carrier, FinPoset.discrete(["x", "y"]),
        C.eta, {"x": C.mu["x"], "y": C.mu["y"]},
    )
    assert nonempty_iso(C, lean)
    f12, f21 = renaming_witnesses(C, lean)
    assert f12 == {"x": "x", "y": "y"} and f21 == f12


def test_renaming_witnesses_requires_isomorphism(parity):
    with pytest.raises(NotIsomorphic):
        renaming_witnesses(parity, one_block(parity.carrier.values))


def test_is_cgi():
    assert not is_cgi(tiny_cgc())
    assert is_cgi(catalog.builtin("parity", 8))


# ---------------------------------------------------------------------------
# embeddings


def test_embeddings_preserve_tables():
    C = tiny_cgc()
    P = embed_cgc_to_pcgc(C)
    assert P.kind == "pcgc" and check_pcgc(P).ok
    assert P.eta == C.eta and P.mu == C.mu
    G = embed_pcgc_to_cgp(P)
    assert G.kind == "cgp" and check_cgp(G).ok
    assert G.eta == C.eta and G.mu == C.mu


def rebuilt_over(X, order):
    """X rebuilt over a fresh table with the carrier order ``order``."""
    if isinstance(X, CarrierConn):
        return CarrierConn(X.kind, X.carrier, X.abstract, X.eta, dict(X.mu),
                           carrier_order=order)
    return GaloisConn(X.carrier, X.abstract, dict(X.gamma), carrier_order=order)


UNORDERED = [(name, lambda name=name: catalog.builtin(name, 12)) for name in catalog.BUILTIN_NAMES]
UNORDERED += [(f"{kind}-{seed}", lambda kind=kind, seed=seed: catalog.gen(kind, seed))
              for kind in ("cgc", "pgc", "ppgc") for seed in range(4)]


@pytest.mark.parametrize("make", [m for _, m in UNORDERED], ids=[n for n, _ in UNORDERED])
def test_a_discrete_carrier_order_is_no_order(make):
    X = make()
    plain = rebuilt_over(X, None)
    discrete = rebuilt_over(X, FinPoset.discrete(reversed(X.carrier.values)))
    assert X.carrier_order is None and discrete.carrier_order is None
    checks = ((check_cgc, check_cgp, check_pcgc) if isinstance(X, CarrierConn)
              else (check_gc, classify_partitioning, prt))
    for check in checks:
        assert check(discrete) == check(plain), check.__name__
    assert fileio.domain_to_dict(discrete) == fileio.domain_to_dict(plain)


def test_a_carrier_order_is_checked_after_the_table():
    C = tiny_cgc()
    wrong = FinPoset.discrete(["a", "b"])
    with pytest.raises(ShapeMismatch, match="carrier order does not match carrier"):
        CarrierConn("cgp", C.carrier, C.abstract, C.eta, C.mu, carrier_order=wrong)
    with pytest.raises(ShapeMismatch, match="mu not total"):
        CarrierConn("cgp", C.carrier, C.abstract, C.eta, {"x": C.mu["x"]},
                    carrier_order=wrong)


def test_embedding_rejects_non_members():
    plustop = catalog.builtin("plustop_cgp", 8)
    with pytest.raises(NotInClass):
        embed_cgc_to_pcgc(plustop)


# ---------------------------------------------------------------------------
# properties over generated instances


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_cgcs_pass_checker_and_representation_law(seed):
    C = catalog.gen_cgc(seed)
    assert check_cgc(C).ok
    for a in C.carrier.values:
        assert a in C.mu[C.eta[a]]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_downset_gcs_pass_check_gc(seed):
    G = catalog.gen_downsets_gc(seed, amax=5)
    rep = check_gc(G)
    assert rep.is_gc


def test_concrete_elements_of_an_ordered_carrier_list_by_size_then_value():
    # as strings "10" < "3" and "3,10" < "3,9"; the order compares values
    poset = build_poset(["9", "10", "3"], [("3", "9")])
    lat = downsets_lattice(poset)
    G = GaloisConn(FinCarrier.atoms(["9", "10", "3"]), lat, dict(lat.members),
                   carrier_order=poset)
    assert [set_name(X) for X in G.iter_concrete()] == [
        "{}", "{3}", "{10}", "{3,9}", "{3,10}", "{3,9,10}",
    ]
