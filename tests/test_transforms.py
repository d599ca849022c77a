"""Conversions between connection classes and disjunctive completions."""
from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkit import catalog, cli, fileio, transforms
from galkit.errors import NotInClass, ShapeMismatch, TooLarge
from galkit.galois import (
    GaloisConn,
    GCReport,
    check_gc,
    check_cco,
    check_cgc,
    check_cgp,
    check_pcgc,
    classify_partitioning,
    nonempty_iso,
    precision_cmp,
)
from galkit.order import moore_lattice_of_masks, powerset_lattice, set_name
from galkit.setops import FinCarrier
from galkit.transforms import (
    disjunctive_completion,
    least_disjunctive_basis,
    t_cco,
    t_cgc_of_cco,
    t_cgc_of_pgc,
    t_cgp,
    t_gc,
    t_pcgc,
    t_pgc,
    t_ppgc,
)


def test_t_pgc_builds_the_powerset_lifting():
    C = catalog.sign_cgc(8)
    G = t_pgc(C)
    assert classify_partitioning(G).category == "PGC"
    # the abstraction of a singleton is the singleton of its block name
    for a in C.carrier.values:
        assert G.alpha([a]) == set_name([C.eta[a]])
    # gamma of a set of blocks is the union of their concretizations
    for d in G.abstract_poset.elements:
        expected = set()
        for b in G.abstract_lattice.members[d]:
            expected |= C.mu[b]
        assert G.gamma[d] == frozenset(expected)


def test_pgc_roundtrip_is_nonempty_isomorphic():
    C = catalog.sign_cgc(8)
    back = t_cgc_of_pgc(t_pgc(C))
    assert check_cgc(back).ok
    assert nonempty_iso(back, C)


def test_t_cgc_of_pgc_rejects_non_partitioning_inputs():
    with pytest.raises(NotInClass):
        t_cgc_of_pgc(catalog.builtin("interval_gi_d", 10))


def test_cco_roundtrip():
    C = catalog.sign_cgc(8)
    phi = t_cco(C)
    assert check_cco(phi).ok
    for a in C.carrier.values:
        assert phi.phi[a] == C.mu[C.eta[a]]
    back = t_cgc_of_cco(phi)
    assert check_cgc(back).ok
    assert nonempty_iso(back, C)


def test_gc_cgp_roundtrip_on_seeded_instances():
    for seed in range(25):
        G = catalog.gen_downsets_gc(seed, amax=5)
        C = t_cgp(G)
        assert check_cgp(C).ok
        G2 = t_gc(C)
        assert precision_cmp(G2, G) == "isomorphic"
        back = t_cgp(G2)
        assert back.eta == C.eta and back.mu == C.mu


def test_ppgc_pcgc_roundtrip_on_seeded_instances():
    for seed in range(25):
        G = catalog.gen_ppgc(seed)
        C = t_pcgc(G)
        assert check_pcgc(C).ok
        assert precision_cmp(t_ppgc(C), G) == "isomorphic"


@pytest.mark.parametrize("transform, make", [
    (t_gc, lambda: catalog.gen_cgp(3)),
    (t_ppgc, lambda: catalog.builtin("signconst_pcgc", 64)),
], ids=["t_gc", "t_ppgc"])
def test_lifts_refuse_an_output_check_gc_rejects(transform, make, monkeypatch):
    C = make()
    monkeypatch.setattr(transforms, "check_gc",
                        lambda G: GCReport(False, False, False, ("{}", "x")))
    with pytest.raises(NotInClass, match="adjunction"):
        transform(C)


def test_t_pcgc_abstraction_is_eta_on_singletons():
    G = catalog.builtin("sign_minus_ppgc", 8)
    C = t_pcgc(G)
    for a in C.carrier.values:
        assert set_name([a]) != ""  # carrier values are plain names
        assert C.eta[a] == G.alpha([a])


def test_disjunctive_completion_of_ppgc_is_pgc():
    G = catalog.builtin("sign_minus_ppgc", 8)
    assert classify_partitioning(G).category == "PPGC"
    D = disjunctive_completion(G)
    assert classify_partitioning(D).category == "PGC"
    # completion adds exactly the missing unions of blocks
    blocks = {G.gamma[G.alpha([a])] for a in G.carrier.values}
    closed = {frozenset()}
    for b in blocks:
        closed |= {c | b for c in closed}
    assert D.gamma_image() == frozenset(closed)


def two_blocks_in_one() -> dict:
    """A file whose alpha puts x and y in one block, {p,q}, though
    gamma({p}) = {x} and gamma({q}) = {y}: no Galois connection.  Its
    blocks would partition the carrier and its gamma is additive."""
    return {
        "kind": "gc",
        "carrier": {"atoms": ["x", "y"]},
        "abstract": {"elements": ["{}", "{p}", "{q}", "{p,q}"],
                     "leq": [["{}", "{p}"], ["{}", "{q}"], ["{p}", "{p,q}"], ["{q}", "{p,q}"]]},
        "alpha": {"{}": "{}", "{x}": "{p,q}", "{y}": "{p,q}", "{x,y}": "{p,q}"},
        "gamma": {"{}": [], "{p}": ["x"], "{q}": ["y"], "{p,q}": ["x", "y"]},
    }


def test_loading_refuses_an_alpha_that_puts_two_blocks_in_one():
    with pytest.raises(ShapeMismatch, match=re.escape(
            "alpha({x}) = '{p,q}', but gamma gives '{p}'")):
        fileio.domain_from_dict(two_blocks_in_one())


def test_transform_pgc_cgc_refuses_an_alpha_that_puts_two_blocks_in_one(tmp_path, capsys):
    # the loaded alpha once made this a 1-block PGC, collapsed to
    # eta = {x: {p,q}, y: {p,q}}
    path = tmp_path / "two_blocks.json"
    path.write_text(json.dumps(two_blocks_in_one()))
    assert cli.main(["transform", "pgc-cgc", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha({x})" in captured.err


def test_disjunctive_completion_refuses_more_than_12_blocks():
    # the singletons of 13 values, their intersections and the whole set:
    # 13 blocks, whose unions would be 2^13 elements
    values = [f"v{i:02}" for i in range(13)]
    lat = moore_lattice_of_masks(values, [1 << i for i in range(13)])
    G = GaloisConn(FinCarrier.atoms(values), lat, lat.members)
    assert classify_partitioning(G).category == "PPGC"
    with pytest.raises(TooLarge, match="too many blocks for union closure"):
        disjunctive_completion(G)


def test_disjunctive_completion_fixes_disjunctive_domains():
    G = catalog.builtin("sign_pgi", 8)
    D = disjunctive_completion(G)
    assert D.gamma_image() == G.gamma_image()


def test_least_disjunctive_basis_of_lifted_sign():
    G = t_pgc(catalog.sign_cgc(8))
    basis = least_disjunctive_basis(G)
    # singletons are the join-irreducibles; meet-closing adds the empty set
    # and the top of the block powerset
    expected = {set_name([b]) for b in ("-", "0", "+", "⊥")}
    expected |= {set_name([]), set_name(["-", "0", "+", "⊥"])}
    assert basis == frozenset(expected)


def test_least_disjunctive_basis_needs_a_powerset_domain():
    with pytest.raises(NotInClass):
        least_disjunctive_basis(catalog.builtin("sign_pgi", 8))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pgc_roundtrip_property(seed):
    C = catalog.gen_cgc(seed, amax=6, bmax=6)
    G = t_pgc(C)
    assert classify_partitioning(G).category == "PGC"
    assert nonempty_iso(t_cgc_of_pgc(G), C)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cco_roundtrip_property(seed):
    C = catalog.gen_cgc(seed, amax=6, bmax=6)
    back = t_cgc_of_cco(t_cco(C))
    assert nonempty_iso(back, C)
