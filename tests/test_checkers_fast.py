"""The fast paths against the literal definitions in ``oracles.py``, and
the per-connection memos.

Each differential test draws inputs from ``strategies.py`` (names that tie
as ints or hold ``,{}``, random, M3, N5 and discrete posets, closure
systems, set families and the generators' Moore lattices, connections
that pass, nearly pass or are arbitrary) and compares a fast path with its
literal definition, verdict and witness:
- the carrier checkers, which read each law off the holder masks
  H(x) = {y | x in mu(y)}, and the eta-monotone scan in both checkers'
  orders, with the pair scans;
- ``_scan_additive``, which decides additivity per carrier value and scans
  pairs only for a failing witness, calling no ``join``, and
  ``classify_partitioning``, with pairwise additivity and the literal
  classification; ``check_partition`` with the sorted loop;
- ``check_gc``, which reads the adjunction off the holder masks and names
  its witness without enumerating, with the pair scan over every concrete
  X, alpha being the least gamma-cover; ``atoms``, alpha and
  ``_singleton_alpha`` with the atoms and alpha by definition, errors
  included;
- the join-irreducibles, ``lub``/``glb`` folds and ``FinLattice.from_poset``
  with bounds by definition, the pair and direction of
  ``NotCompleteLattice`` included; ``moore_lattice_of_masks`` with the
  intersection closure; ``build_poset``, the ``FinPoset`` queries,
  ``iter_downsets`` and ``meet_closure`` with the order a relation
  generates, the downsets and the glb closure;
- set images, best-correct-approximation entries, backward completeness,
  ``concrete_run`` and ``AbstractSemantics.eval`` with their definitions.

The memo tests check that every value a poset, lattice, connection or
table keeps in its ``_kept`` dict equals its computation on a fresh copy;
that a table and a connection's record are shared only over the same
carrier, abstract poset, class, kind, order and eta; and, by counting,
that warm round trips compute no report, no holder masks and no alpha,
that accepting checks decode no name sets, and that join counts and
witnesses do not depend on the hash seed.
"""
from __future__ import annotations

import functools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import downsets_lattice, program_names, program_text, slot_names
from oracles import (
    assert_lattice_of_sets,
    literal_abstract_eval,
    literal_additive,
    literal_alpha,
    literal_atoms,
    literal_backward_complete,
    literal_bca_entry,
    literal_bound,
    literal_cgc,
    literal_cgp,
    literal_classify,
    literal_closure,
    literal_concrete_run,
    literal_cover,
    literal_downsets,
    literal_eta_monotone,
    literal_fold,
    literal_gc,
    literal_image,
    literal_join_irreducibles,
    literal_least,
    literal_leq,
    literal_meet_closure,
    literal_partition,
    literal_pcgc,
    literal_set_family,
)
from strategies import (
    ADDITIVITY_LATTICES,
    LATTICES,
    NAMES,
    atom_lists,
    carrier_conns,
    connections,
    gc_conns,
    lattice_of,
    m3,
    named_poset,
    n5,
    posets,
    relations,
    sparse,
    subsets,
)

from galkit import analyzer, catalog, fileio, galois, order, transforms
from galkit.analyzer import (
    CMP_OPS,
    AbstractSemantics,
    Assign,
    BinOp,
    Cmp,
    If,
    Lit,
    Program,
    Skip,
    Var,
    While,
    _ArithTable,
    analyze,
    concrete_run,
    parse_program,
)
from galkit.errors import (
    CycleDetected,
    DomainMismatch,
    DuplicateElement,
    GalkitError,
    NotCompleteLattice,
    NotInClass,
    ShapeMismatch,
    UnknownElement,
    UnknownVariable,
)
from galkit.functions import (
    AbstractFn,
    ConcreteFn,
    FnPair,
    _backward_tuples,
    bca_pcgc,
    bca_pcgc_entry,
    pcgc_pair_property,
)
from galkit.galois import (
    CarrierConn,
    CheckResult,
    Eta,
    GaloisConn,
    GCReport,
    PCGCReport,
    Table,
    _scan_additive,
    check_cgc,
    check_cgp,
    check_gc,
    check_pcgc,
    classify_partitioning,
    nonempty_iso,
    precision_cmp,
)
from galkit.order import (
    FinLattice,
    FinPoset,
    SetLattice,
    build_poset,
    iter_downsets,
    meet_closure,
    moore_lattice_of_masks,
    powerset_lattice,
    scan_order,
    set_name,
    sorted_elems,
    subsets_by_size,
)
from galkit.setops import (
    MODULAR,
    SATURATING,
    FinCarrier,
    PartitionReport,
    check_partition,
    lift_star,
)
from galkit.transforms import t_cco, t_cgc_of_pgc, t_cgp, t_gc, t_pcgc, t_pgc, t_ppgc


class CountingLattice(FinLattice):
    """A lattice that counts the joins and lubs asked of it; its bounds are
    those of ``lat``, and its poset is ``base``, a copy of that of ``lat``,
    when given."""

    __slots__ = ("joins", "lubs")

    def __init__(self, lat: FinLattice, base: FinPoset | None = None):
        super().__init__(base or lat.base, lat._of_dn)
        self.joins = self.lubs = 0

    def join(self, x, y):
        self.joins += 1
        return super().join(x, y)

    def lub(self, members):
        self.lubs += 1
        return super().lub(members)


class CountingArithTable(_ArithTable):
    """An arithmetic table that counts the entries read from it."""

    def __init__(self, carrier, op):
        super().__init__(carrier, op)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def assert_carrier_checkers_agree(C: CarrierConn):
    assert check_cgc(C) == literal_cgc(C)
    assert check_cgp(C) == literal_cgp(C)
    assert check_pcgc(C) == literal_pcgc(C)


class CountingPoset(FinPoset):
    """A poset that counts the ``leq`` calls made on it, and the ``up`` and
    ``down`` calls, each of which returns a set of names."""

    __slots__ = ("leqs", "name_sets")

    def __init__(self, poset: FinPoset):
        super().__init__(poset.elements, poset._upm)
        self.leqs = self.name_sets = 0

    def leq(self, x, y):
        self.leqs += 1
        return super().leq(x, y)

    def up(self, x):
        self.name_sets += 1
        return super().up(x)

    def down(self, x):
        self.name_sets += 1
        return super().down(x)


def counted(X):
    """The connection X over counting copies of its abstract poset and of
    its carrier order, and the list of those copies."""
    bp = CountingPoset(X.abstract_poset)
    abstract = CountingLattice(X.abstract, bp) if isinstance(X.abstract, FinLattice) else bp
    order = X.carrier_order and CountingPoset(X.carrier_order)
    posets = [bp] + [order] * (order is not None)
    if isinstance(X, CarrierConn):
        return CarrierConn(X.kind, X.carrier, abstract, X.eta, X.mu,
                           carrier_order=order), posets
    return GaloisConn(X.carrier, abstract, X.gamma, carrier_order=order), posets


# ---------------------------------------------------------------------------
# differential tests


@settings(max_examples=600, deadline=None)
@given(carrier_conns())
def test_carrier_checkers_agree_with_the_pair_scans(C):
    # each report is kept on the connection, as are the holder masks, in
    # carrier order, and each kept value is that of a fresh copy
    assert list(C.mu.holder_masks()) == list(C.carrier.values)
    for check in (check_cgc, check_cgp, check_pcgc):
        report = check(C)
        assert check(C) is report
    assert_carrier_checkers_agree(C)
    assert_kept_values_are_recomputed(C)
    # the eta-monotone witness in check_cgp's element order and in
    # check_pcgc's scan order, whatever the other clauses say
    cp = C.carrier_poset()
    for xs, order in [(cp.elements, sorted_elems), (C.carrier.values, scan_order)]:
        assert galois._eta_monotone_failure(C, cp, xs, order) == literal_eta_monotone(
            C, cp, xs, order)


@pytest.mark.parametrize("name", [
    "parity", "plustop_cgp", "interval_pcgc", "interval_bprime", "signconst_pcgc",
])
def test_carrier_checkers_agree_on_the_builtins(name):
    assert_carrier_checkers_agree(catalog.builtin(name, 16))


@pytest.mark.parametrize("kind", ["cgc", "cgp"])
def test_carrier_checkers_agree_on_generated_connections(kind):
    for seed in range(40):
        assert_carrier_checkers_agree(catalog.gen(kind, seed))


def test_monotone_witnesses_follow_each_checker_s_scan():
    # eta-monotonicity fails at -1 and at 0: check_pcgc scans the carrier
    # small magnitudes first, check_cgp in element order
    carrier = FinCarrier.atoms(["-1", "0", "1"])
    C = CarrierConn(
        "pcgc", carrier, FinPoset.discrete(["a", "b"]),
        {"-1": "a", "0": "a", "1": "b"}, {"a": {"-1", "0"}, "b": {"1"}},
        carrier_order=build_poset(carrier.values, [("-1", "1"), ("0", "1")]),
    )
    assert check_pcgc(C) == literal_pcgc(C) == PCGCReport(
        False, True, ("eta-monotone", "0", "1"))
    assert check_cgp(C) == literal_cgp(C) == CheckResult(
        False, ("eta-monotone", "-1", "1"))


def name_sets_of_accepting_runs(X) -> dict:
    """The ``up``/``down`` calls each accepting check of X makes, by check:
    every carrier checker that accepts X, or ``atoms``, ``check_gc`` and
    ``classify_partitioning`` on a Galois connection, each on a fresh
    copy."""
    if isinstance(X, CarrierConn):
        checks = {f.__name__: f.__wrapped__ for f in (check_cgc, check_cgp, check_pcgc)}
    else:
        checks = {"atoms": lambda G: len(G.atoms()) == len(G.carrier),
                  "check_gc": lambda G: check_gc(G).is_gc,
                  "classify_partitioning": classify_partitioning}
    counts = {}
    for name, check in checks.items():
        copy, posets = counted(X)
        try:
            accepted = check(copy)
        except ShapeMismatch:  # classification of an ordered carrier
            continue
        if accepted:
            counts[name] = sum(p.name_sets for p in posets)
    return counts


def accepting_runs(connections) -> list:
    """The connections' accepting runs, among which every check occurs."""
    runs = [run for X in connections if (run := name_sets_of_accepting_runs(X))]
    assert {name for run in runs for name in run} == {
        "check_cgc", "check_cgp", "check_pcgc", "atoms", "check_gc",
        "classify_partitioning"}
    return runs


def test_accepting_checks_of_the_builtins_decode_no_name_sets():
    runs = accepting_runs(catalog.builtin(name, 16) for name in catalog.BUILTIN_NAMES)
    assert runs == [dict.fromkeys(run, 0) for run in runs]


def test_accepting_checks_of_generated_connections_decode_no_name_sets():
    runs = accepting_runs(
        X for seed in range(40) for X in (
            catalog.gen("cgc", seed), catalog.gen("cgp", seed),
            catalog.gen("pgc", seed), catalog.gen("ppgc", seed),
            catalog.gen_downsets_gc(seed), t_pcgc(catalog.gen_ppgc(seed))))
    assert runs == [dict.fromkeys(run, 0) for run in runs]


def test_accepting_pcgc_makes_no_leq_calls():
    C = catalog.builtin("signconst_pcgc", 64)
    counting = CountingPoset(C.abstract_poset)
    D = CarrierConn("pcgc", C.carrier, counting, C.eta, C.mu)
    assert check_pcgc(D).ok
    assert counting.leqs == 0
    assert literal_pcgc(D).ok and counting.leqs > 0


M3, N5 = m3(), n5()
XYZ = FinCarrier.atoms(["x", "y", "z"])


@settings(max_examples=400, deadline=None)
@given(connections(ADDITIVITY_LATTICES))
# a v b = 1 in both, but gamma(1) holds z as well, and z's misses
# {0, a, b} are no principal downset
@example((XYZ, M3, {"0": frozenset(), "a": frozenset("x"), "b": frozenset("y"),
                    "c": frozenset("z"), "1": frozenset("xyz")}))
@example((XYZ, N5, {"0": frozenset(), "a": frozenset("x"), "b": frozenset("y"),
                    "c": frozenset("xz"), "1": frozenset("xyz")}))
# a constant gamma: gamma(bottom) = {} alone rejects it
@example((XYZ, powerset_lattice(["b0", "b1"]),
          dict.fromkeys(["{}", "{b0}", "{b1}", "{b0,b1}"], frozenset("x"))))
# gamma is not monotone: x's misses {0, 1, b, c} are no downset, and the
# first failing pair is (1, a)
@example((XYZ, M3, {"0": frozenset(), "a": frozenset("x"), "b": frozenset(),
                    "c": frozenset(), "1": frozenset()}))
# additive, with y and z in no gamma(d): their misses are down(1), and x's
# are down(b)
@example((XYZ, M3, {"0": frozenset(), "a": frozenset("x"), "b": frozenset(),
                    "c": frozenset("x"), "1": frozenset("x")}))
# the generator's first PPGC, whose gamma is not additive on its Moore lattice
@example((catalog.gen_ppgc(0).carrier, catalog.gen_ppgc(0).abstract,
          dict(catalog.gen_ppgc(0).gamma)))
def test_gamma_additive_agrees_with_the_pairwise_scan(case):
    carrier, lat, gamma = case
    expected = literal_additive(GaloisConn(carrier, lat, gamma))
    # the per-value verdict, and the witness scan when it fails, make no join
    counting = CountingLattice(lat)
    assert _scan_additive(GaloisConn(carrier, counting, gamma).gamma) == expected
    assert counting.joins == counting.lubs == 0


@pytest.mark.parametrize("make", [catalog.gen_ppgc, catalog.gen_downsets_gc],
                         ids=["gen_ppgc", "gen_downsets_gc"])
def test_generator_additivity_agrees_with_the_pairwise_scan(make):
    verdicts = set()
    for seed in range(300):
        G = make(seed)
        verdict = galois._scan_additive(G.gamma)
        assert verdict == literal_additive(G), seed
        verdicts.add(verdict[0])
    assert verdicts == {True, False}


@settings(max_examples=200, deadline=None)
@given(connections())
def test_classify_agrees_with_the_literal_classification(case):
    # alpha is read off gamma, so a value without an atom has no block:
    # classification raises alpha's error at the first such value.  So no
    # connection hands check_partition an empty or a missing block; the
    # "cover" and "empty_block" clauses are covered by
    # test_check_partition_agrees_with_the_sorted_loop and by
    # test_setops.py::test_check_partition_clauses.
    G = GaloisConn(*case)
    missing = [x for x in sorted_elems(G.carrier.values) if x not in literal_atoms(G)]
    if missing:
        with pytest.raises(ShapeMismatch, match=f"^no best abstraction for {{{missing[0]}}}"):
            classify_partitioning(G)
    else:
        assert classify_partitioning(G) == literal_classify(G)


@st.composite
def block_families(draw):
    """Carrier values (some equal as ints, such as 1 and 01) and a family
    of blocks: a partition, a partition with one value moved, copied or
    dropped, or arbitrary subsets; empty blocks and repeated blocks
    included."""
    values = draw(NAMES)[:draw(st.integers(1, 8))]
    carrier = FinCarrier.atoms(draw(st.permutations(values)))
    shape = draw(st.sampled_from(["partition", "perturbed", "arbitrary"]))
    if shape == "arbitrary":
        blocks = draw(st.lists(subsets(values), max_size=5))
    else:
        k = draw(st.integers(1, len(values)))
        blocks = [set() for _ in range(k)]
        for v in values:
            blocks[draw(st.integers(0, k - 1))].add(v)
        if shape == "perturbed":
            v = draw(st.sampled_from(values))
            i = draw(st.integers(0, k - 1))
            if draw(st.booleans()):
                for b in blocks:
                    b.discard(v)
            blocks[i].add(v)
        if draw(st.booleans()):
            blocks = [b for b in blocks if b]
        if blocks and draw(st.booleans()):
            blocks.append(set(draw(st.sampled_from(blocks))))
    return carrier, [frozenset(b) for b in draw(st.permutations(blocks))]


TIED = FinCarrier.atoms(["1", "01", "2", "x"])


@settings(max_examples=600, deadline=None)
@given(block_families())
@example((TIED, [frozenset({"1", "x"}), frozenset(), frozenset({"01", "2"})]))
@example((TIED, [frozenset({"x", "1", "01"}), frozenset({"01", "1", "2"})]))
@example((TIED, [frozenset({"1", "x"}), frozenset({"01"})]))
def test_check_partition_agrees_with_the_sorted_loop(case):
    carrier, blocks = case
    assert check_partition(carrier, blocks) == literal_partition(carrier, blocks)


def test_check_partition_sorts_only_on_failure(monkeypatch):
    sorts = []
    monkeypatch.setattr("galkit.setops.sorted_elems",
                        lambda xs: sorts.append(xs) or sorted_elems(xs))
    assert check_partition(TIED, [{"1", "x"}, {"01"}, {"2"}])
    assert sorts == []
    # 1 and 01 tie as ints, and the string breaks the tie: 01 comes first
    blocks = [{"x", "1", "01"}, {"01", "1", "2"}]
    assert check_partition(TIED, blocks) == PartitionReport(False, "overlap", "01")
    assert sorts


def test_join_irreducibles_of_non_distributive_lattices():
    # neither is join-prime: in M3, a <= b v c = 1 but a is below neither;
    # in N5 (a < c), c <= a v b = 1 but c is below neither
    assert m3().join_irreducibles() == frozenset("abc")
    assert n5().join_irreducibles() == frozenset("abc")


def test_the_256_element_powerset_decides_additivity_with_no_join():
    atoms = [f"b{i}" for i in range(8)]
    lat = powerset_lattice(atoms)
    counting = CountingLattice(lat)
    G = GaloisConn(FinCarrier.atoms(atoms), counting, lat.members)
    assert _scan_additive(G.gamma) == (True, None)
    # b0 in gamma({b1}) too: the first pair in sorted order whose join
    # lacks b0 and that holds {b1} fails
    gamma = {**lat.members, "{b1}": frozenset({"b0", "b1"})}
    M = GaloisConn(FinCarrier.atoms(atoms), counting, gamma)
    expected = (False, ("{b1,b2,b3,b4,b5,b6,b7}", "{b1}"))
    assert _scan_additive(M.gamma) == literal_additive(GaloisConn(M.carrier, lat, gamma)) == expected
    assert counting.joins == counting.lubs == 0


@settings(max_examples=300, deadline=None)
@given(ADDITIVITY_LATTICES)
@example(M3)
@example(N5)
def test_the_join_irreducibles_from_up_masks_are_the_literal_ones(lat):
    assert lat.join_irreducibles() == literal_join_irreducibles(lat)
    assert_kept_values_are_recomputed(lat)


@pytest.mark.parametrize("make", [catalog.gen_ppgc, catalog.gen_downsets_gc],
                         ids=["gen_ppgc", "gen_downsets_gc"])
def test_generator_join_irreducibles_are_the_literal_ones(make):
    for seed in range(500):
        lat = make(seed).abstract
        assert lat.join_irreducibles() == literal_join_irreducibles(lat)


def bound_outcome(f, *args):
    """``f(*args)``, or the pair and direction of the NotCompleteLattice it
    raises, or the class of any other GalkitError."""
    try:
        return f(*args)
    except NotCompleteLattice as exc:
        return exc.pair, exc.direction
    except GalkitError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(ADDITIVITY_LATTICES, st.data())
def test_lub_and_glb_agree_with_the_literal_pairwise_fold(lat, data):
    members = data.draw(st.lists(st.sampled_from([*lat.elements, "zz"]), max_size=6))
    for direction, fold, pair in (("lub", lat.lub, lat.join), ("glb", lat.glb, lat.meet)):
        assert bound_outcome(fold, members) == bound_outcome(
            literal_fold, lat, members, direction)
        for x, y in zip(members, members[1:]):
            assert bound_outcome(pair, x, y) == bound_outcome(
                literal_fold, lat, [x, y], direction)


@pytest.mark.parametrize("name", ["sign_pgi", "sign_minus_ppgc"])
def test_check_gc_reports_disjunctivity_as_the_pairwise_scan(name):
    G = catalog.builtin(name, 3)
    rep = check_gc(G)
    assert rep.is_gc
    assert (rep.is_disjunctive, rep.witness) == literal_additive(G)


# ---------------------------------------------------------------------------
# the adjunction read off gamma


DIAMOND = powerset_lattice(["p", "q"])


def diamond_gc(values, pairs, gamma) -> GaloisConn:
    """A connection into the powerset of {p, q}, gamma given by name."""
    return GaloisConn(FinCarrier.atoms(values), DIAMOND, gamma,
                      carrier_order=build_poset(values, pairs))


ALL_ABC = frozenset("abc")


@settings(max_examples=600, deadline=None)
@given(gc_conns())
# b has no atom, and down(b) = {a, b} is the first failing X
@example(diamond_gc(["a", "b"], [("a", "b")], {
    "{}": {"a"}, "{p}": {"a", "b"}, "{q}": {"a", "b"}, "{p,q}": {"a", "b"}}))
# no least abstract element: {} fails first
@example(GaloisConn(FinCarrier.atoms(["x"]), build_poset(["p", "q"], []),
                    {"p": {"x"}, "q": {"x"}}))
# b and c have no atom; c comes after b, but down(c) = {c} is smaller than
# down(b) = {a, b}
@example(diamond_gc(["a", "b", "c"], [("a", "b")], {
    "{}": {"a"}, "{p}": ALL_ABC, "{q}": ALL_ABC, "{p,q}": ALL_ABC}))
# b's least cover {p} has an up-set other than its holder set: the witness
# names {p,q}, which does not hold b
@example(diamond_gc(["a", "b"], [("a", "b")], {
    "{}": {"a"}, "{p}": {"a", "b"}, "{q}": {"a"}, "{p,q}": {"a"}}))
def test_check_gc_agrees_with_the_literal_scan(G):
    rep = result(check_gc, G)
    assert rep == result(literal_gc, G)
    if isinstance(rep, GCReport) and rep.is_gc:
        # alpha is the least gamma-cover of every carrier subset, concrete
        # or not
        for X in map(frozenset, subsets_by_size(G.carrier.values)):
            assert G.alpha(X) == literal_cover(G, X)


def test_check_gc_needs_a_lattice_to_name_a_value_s_witness():
    # the bare poset bot < p, q has no top, so p and q have no lub: d has
    # no atom, yet {a, b}, whose atoms are p and q, fails before
    # down(d) = {c, d}
    poset = build_poset(["bot", "p", "q"], [("bot", "p"), ("bot", "q")])
    G = GaloisConn(FinCarrier.atoms(["a", "b", "c", "d"]), poset,
                   {"bot": {"c"}, "p": {"a", "c", "d"}, "q": {"b", "c", "d"}},
                   carrier_order=build_poset(["a", "b", "c", "d"], [("c", "d")]))
    assert literal_gc(G).witness == ("{a,b}", None)
    with pytest.raises(NotCompleteLattice, match="no top"):
        check_gc(G)


def test_a_galois_connection_takes_no_alpha_table():
    lat = powerset_lattice(["x"])
    with pytest.raises(TypeError):
        GaloisConn(FinCarrier.atoms(["x"]), lat, lat.members, alpha_table={})


def gamma_mutants(G: GaloisConn):
    """G with each single membership of gamma flipped."""
    values = sorted_elems(G.carrier.values)
    for d in sorted_elems(G.gamma):
        for x in values:
            yield GaloisConn(
                G.carrier, G.abstract, {**G.gamma, d: G.gamma[d] ^ {x}},
                carrier_order=G.carrier_order)


MUTATED = {
    "sign_pgi": lambda: catalog.builtin("sign_pgi", 3),
    "sign_minus_ppgc": lambda: catalog.builtin("sign_minus_ppgc", 3),
    "t_pgc": lambda: t_pgc(catalog.gen_cgc(3, amax=5, bmax=3)),
    "loaded_sign_pgi": lambda: fileio.domain_from_dict(
        fileio.domain_to_dict(catalog.builtin("sign_pgi", 2))),
    **{f"downsets_gc_{s}": lambda s=s: catalog.gen_downsets_gc(s, amax=5)
       for s in range(4)},
    **{f"ppgc_{s}": lambda s=s: catalog.gen_ppgc(s) for s in range(4)},
}


@pytest.mark.parametrize("name", MUTATED)
def test_check_gc_agrees_with_the_literal_scan_on_mutants(name):
    G = MUTATED[name]()
    assert check_gc(G) == literal_gc(G)
    for M in gamma_mutants(G):
        assert check_gc(M) == literal_gc(M)


def test_the_first_gamma_that_is_no_downset_in_element_order_is_named():
    # gamma(1) and gamma(01) are both no downset of u < v: 1 and 01 tie as
    # ints, and 01 comes first
    G = GaloisConn(
        FinCarrier.atoms(["u", "v"]),
        lattice_of(["bot", "1", "01", "top"],
                   [("bot", "1"), ("bot", "01"), ("1", "top"), ("01", "top")]),
        {"bot": set(), "1": {"v"}, "01": {"v"}, "top": {"u", "v"}},
        carrier_order=build_poset(["u", "v"], [("u", "v")]))
    assert check_gc(G) == literal_gc(G) == GCReport(
        False, False, False, ("gamma-downclosed", "01"))


@pytest.mark.parametrize("make", [
    lambda: catalog.builtin("sign_pgi", 2),
    lambda: t_pgc(catalog.gen_cgc(3, amax=5, bmax=3)),
], ids=["sign_pgi", "t_pgc"])
def test_moving_any_alpha_entry_of_a_saved_file_fails_its_load(make):
    data = fileio.domain_to_dict(make())
    fileio.domain_from_dict(data)
    elems = data["abstract"]["elements"]
    for key, d in data["alpha"].items():
        moved = elems[(elems.index(d) + 1) % len(elems)]
        message = f"alpha({key}) = {moved!r}, but gamma gives {d!r}"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            fileio.domain_from_dict({**data, "alpha": {**data["alpha"], key: moved}})


@pytest.mark.parametrize("step", [1, -1], ids=["saved", "reversed"])
def test_a_load_names_the_first_alpha_key_without_a_best_abstraction(step):
    # dropped from every gamma(d), x has no atom: the first key in file
    # order that holds x raises alpha's own error
    data = fileio.domain_to_dict(t_pgc(catalog.gen_cgc(3, amax=5, bmax=3)))
    values = data["carrier"]["atoms"]
    x = values[0]
    gamma = {d: [v for v in s if v != x] for d, s in data["gamma"].items()}
    alpha = dict(list(data["alpha"].items())[::step])
    first = next(key for key in alpha if x in fileio._split_set(key))
    assert len(values) > 2 and first == (f"{{{x}}}" if step == 1 else set_name(values))
    message = f"no best abstraction for {first}: not a Galois connection"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        fileio.domain_from_dict({**data, "gamma": gamma, "alpha": alpha})


def a_below_b(gamma_bot) -> GaloisConn:
    """The carrier a <= b under the chain bot < top, gamma(top) = {a, b}."""
    return GaloisConn(
        FinCarrier.atoms(["a", "b"]), lattice_of(["bot", "top"], [("bot", "top")]),
        {"bot": gamma_bot, "top": {"a", "b"}},
        carrier_order=build_poset(["a", "b"], [("a", "b")]),
    )


def test_check_gc_rejects_a_gamma_outside_the_downsets():
    # {b} is no downset of a <= b; a scan of the downsets X never meets it,
    # since only {} lies inside it, and so accepted this gamma
    assert check_gc(a_below_b({"b"})) == GCReport(
        False, False, False, ("gamma-downclosed", "bot"))
    assert check_gc(a_below_b({"a"})) == GCReport(True, True, False, ("bot",))
    assert check_gc(a_below_b(set())) == GCReport(True, True, True)


@pytest.mark.parametrize("name, bound, expected", [
    ("sign_pgi", 64, GCReport(True, True, True)),
    ("interval_gi_d", 16, GCReport(True, True, False, ("[-5,-1]", "[1,5]"))),
], ids=["sign_pgi", "interval_gi_d"])
def test_check_gc_decides_connections_too_large_to_scan(name, bound, expected):
    # 2^129 and 2^33 concrete subsets
    G = catalog.builtin(name, bound)
    assert check_gc(G) == expected
    assert (expected.is_disjunctive, expected.witness) == literal_additive(G)


def test_check_gc_guards_the_witness_scan_of_oversized_carriers(sign_pgi):
    # without -1 in gamma(<0), -1 is held by ≤0, ≠0 and Z, which have no
    # least element; the witness is down(-1) = {-1}, found without
    # enumerating the 2^17 or 2^129 concrete subsets
    for G in (catalog.builtin("sign_pgi", 8), sign_pgi):
        gamma = {**G.gamma, "<0": G.gamma["<0"] - {"-1"}}
        G = GaloisConn(G.carrier, G.abstract, gamma)
        assert check_gc(G) == GCReport(False, False, False, ("{-1}", None))
        with pytest.raises(ShapeMismatch, match="no best abstraction"):
            G.alpha(["-1"])


# ---------------------------------------------------------------------------
# atoms by up-mask lookup, and alpha of one member


def result(f, *args):
    """``f(*args)``, or the type and message of the GalkitError it raises."""
    try:
        return f(*args)
    except GalkitError as exc:
        return type(exc), str(exc)


SIGN_ATOMS = FinCarrier.atoms(["-1", "0", "1"])
SIGN_GAMMA = {"bot": set(), "-": {"-1"}, "0": {"0"}, "+": {"1"}, "top": {"-1", "0", "1"}}
FLAT_SIGNS = lattice_of(["bot", "-", "0", "+", "top"],
                        [("bot", x) for x in "-0+"] + [(x, "top") for x in "-0+"])


def test_alpha_of_one_member_raises_as_the_lub_path():
    sign = GaloisConn(SIGN_ATOMS, FLAT_SIGNS, SIGN_GAMMA)
    with pytest.raises(UnknownElement, match="'zzz'"):
        sign.alpha(["zzz"])
    holed = GaloisConn(SIGN_ATOMS, FLAT_SIGNS, {**SIGN_GAMMA, "0": set(),
                                                "-": {"-1", "0"}, "+": {"0", "1"}})
    with pytest.raises(ShapeMismatch, match="no best abstraction for {0}"):
        holed.alpha(["0"])
    assert holed.alpha(["1"]) == "+"
    bare = GaloisConn(SIGN_ATOMS, FLAT_SIGNS.base, SIGN_GAMMA)
    assert bare.atoms() == {"-1": "-", "0": "0", "1": "+"}
    with pytest.raises(ShapeMismatch, match="not a complete lattice"):
        bare.alpha(["0"])
    with pytest.raises(UnknownElement, match="'zzz'"):
        bare.alpha(["zzz"])


def items_or_error(f, *args):
    """The items of the dict ``f(*args)``, in order, or the type and message
    of the GalkitError it raises."""
    out = result(f, *args)
    return list(out.items()) if isinstance(out, dict) else out


def alpha_of_each(G: GaloisConn, values) -> dict:
    return {a: literal_alpha(G, [a]) for a in values}


# a connection of gc_conns, whose values are named from NAMES, and its
# values in a random order
SINGLETON_CASES = gc_conns().flatmap(
    lambda G: st.tuples(st.just(G), st.permutations(G.carrier.values)))


# -1 and 1 are each held by - and +, which have no least element: neither
# has an atom
TWO_HOLES = GaloisConn(SIGN_ATOMS, FLAT_SIGNS, {
    **SIGN_GAMMA, "-": {"-1", "1"}, "+": {"-1", "1"}})


@settings(max_examples=500, deadline=None)
@given(SINGLETON_CASES)
# two values without an atom: the first in the caller's order raises
@example((TWO_HOLES, ["1", "0", "-1"]))
@example((TWO_HOLES, ["-1", "0", "1"]))
# 0 is held by - and + alone, which have no least element: no atom
@example((GaloisConn(SIGN_ATOMS, FLAT_SIGNS, {**SIGN_GAMMA, "0": set(), "-": {"-1", "0"},
                                              "+": {"0", "1"}}), ["-1", "0", "1"]))
# every value has an atom, but there is no lattice to take a lub in
@example((GaloisConn(SIGN_ATOMS, FLAT_SIGNS.base, SIGN_GAMMA), ["0", "1", "-1"]))
def test_singleton_alpha_agrees_with_alpha_of_each_value(case):
    # the atoms, alpha of one member (or of a value outside the carrier)
    # and of all of them, and alpha of each value in three orders
    G, values = case
    assert G.atoms() == literal_atoms(G)
    for x in (*values, "zzz"):
        assert result(G.alpha, [x]) == result(literal_alpha, G, [x])
    assert result(G.alpha, values) == result(literal_alpha, G, values)
    for order in (values, values[::-1], sorted_elems(values)):
        assert (items_or_error(galois._singleton_alpha, G, order)
                == items_or_error(alpha_of_each, G, order))


def test_alpha_of_each_value_names_the_first_value_without_an_atom():
    assert TWO_HOLES.atoms() == {"0": "0"}
    for values, first in ((["1", "0", "-1"], "1"), (["-1", "0", "1"], "-1")):
        with pytest.raises(ShapeMismatch, match=f"^no best abstraction for {{{first}}}"):
            galois._singleton_alpha(TWO_HOLES, values)


# abstract values that tie as ints, but hold no separator: a lift names
# each set of them
ABSTRACT_NAMES = NAMES.filter(lambda names: not any(set(",{}") & set(x) for x in names))


@st.composite
def junk_cgcs(draw):
    """A constructive connection over carrier values from :data:`NAMES`:
    eta onto some of its abstract values and mu eta's fibres, so the other
    abstract values are junk, concretized to nothing."""
    values = draw(NAMES)[:draw(st.integers(1, 6))]
    elements = draw(ABSTRACT_NAMES)[:draw(st.integers(1, 6))]
    eta = {a: draw(st.sampled_from(elements)) for a in values}
    mu = {b: {a for a in values if eta[a] == b} for b in elements}
    return CarrierConn("cgc", FinCarrier.atoms(draw(st.permutations(values))),
                       FinPoset.discrete(draw(st.permutations(elements))), eta, mu)


def assert_the_lift_keeps_what_its_gamma_gives(C: CarrierConn):
    """The powerset lift of C against lift_star and against its gamma
    rebuilt through the validated constructor: gamma(S) is the union of
    mu(b) over b in S, at every subset in element order, the kept
    additivity verdict is that of the per-value scan and of the pairwise
    definition, and the kept atoms are those gamma gives."""
    G = galois._lift_powerset(C)
    lat = G.abstract_lattice
    assert list(G.gamma.items()) == [(x, lift_star(C.mu, lat.members[x])) for x in lat.elements]
    assert _scan_additive(G.gamma) == _scan_additive(rebuilt(G).gamma) == literal_additive(G) == (True, None)
    assert_kept_values_are_recomputed(G)


def test_the_lift_of_each_criterion_4_connection_keeps_what_its_gamma_gives():
    for seed in range(500):
        assert_the_lift_keeps_what_its_gamma_gives(catalog.gen_cgc(seed, amax=8, bmax=8))


@settings(max_examples=200, deadline=None)
@given(junk_cgcs())
def test_lift_powerset_agrees_with_lift_star(C):
    assert_the_lift_keeps_what_its_gamma_gives(C)


# the powerset {p, q} over one value z: gamma is no lift, and gets every
# check of a gamma given by hand
PQ = powerset_lattice(["p", "q"])
Z_GAMMA = {"{}": set(), "{p}": set(), "{q}": set(), "{p,q}": {"z"}}


def test_a_hand_given_gamma_over_a_powerset_is_checked_for_additivity():
    # z's atom is {p,q}: its block {z} partitions the carrier, but
    # gamma({p} v {q}) = {z} is no union of gamma({p}) and gamma({q})
    G = GaloisConn(FinCarrier.atoms(["z"]), PQ, Z_GAMMA)
    rep = classify_partitioning(G)
    assert rep == literal_classify(G)
    assert (rep.category, rep.witness) == ("PPGC", ("{p}", "{q}"))


def test_a_hand_given_gamma_over_a_powerset_must_stay_inside_the_carrier():
    with pytest.raises(ShapeMismatch, match=re.escape("gamma('{p,q}') leaves the carrier")):
        GaloisConn(FinCarrier.atoms(["z"]), PQ, {**Z_GAMMA, "{p,q}": {"z", "w"}})


def test_the_lift_of_each_criterion_4_connection_keeps_its_gamma_s_atoms():
    # the atoms and the additivity verdict that the lift keeps are among
    # its kept values
    for seed in range(500):
        G = t_pgc(catalog.gen_cgc(seed, amax=8, bmax=8))
        assert list(G.gamma._kept)[:2] == [Table.atoms.__wrapped__, _scan_additive.__wrapped__]
        assert_kept_values_are_recomputed(G)


@settings(max_examples=300, deadline=None)
@given(junk_cgcs())
def test_the_lift_keeps_its_gamma_s_atoms(C):
    G = t_pgc(C)
    assert_kept_values_are_recomputed(G)
    assert_kept_values_are_recomputed(C)
    assert list(G.atoms()) == list(C.carrier.values)


def count_calls(monkeypatch, targets: dict) -> dict:
    """Counts of the calls to each ``getattr(owner, name)`` of ``targets``,
    a dict name -> (owner, name), patched for the test.  A :func:`kept`
    value is counted when it is computed, not when it is read: its memo is
    patched with one that counts its misses and keeps its values under the
    same key, so a value kept before the patch, or stored by a lift, is a
    hit."""
    calls = dict.fromkeys(targets, 0)
    for key, (owner, name) in targets.items():
        fn = getattr(owner, name)
        plain = getattr(fn, "__wrapped__", fn)

        def counting(*args, key=key, plain=plain):
            calls[key] += 1
            return plain(*args)

        def counting_memo(self, key=key, plain=plain, fn=fn):
            if plain not in self._kept:
                calls[key] += 1
            return fn(self)
        monkeypatch.setattr(owner, name, counting if plain is fn else functools.wraps(plain)(counting_memo))
    return calls


def test_a_warm_powerset_round_trip_reads_each_atom_off_eta(monkeypatch):
    C = catalog.gen_cgc(11, amax=8, bmax=8)
    assert len(C.carrier.values) > 2

    def round_trip():
        G = t_pgc(C)
        classify_partitioning(G)
        back = t_cgc_of_pgc(G)
        assert nonempty_iso(back, C)
        return G, back

    round_trip()  # keeps check_cgc's report on C
    built, holder_masks = [], Table.holder_masks

    def recording(T):
        if holder_masks.__wrapped__ not in T._kept:
            built.append(T)
        return holder_masks(T)
    monkeypatch.setattr(Table, "holder_masks", recording)
    calls = count_calls(monkeypatch, {
        "alpha": (GaloisConn, "alpha"), "table builds": (Table, "__init__"),
        "eta validations": (Eta, "__init__"),
        "additivity scan": (galois, "_scan_additive")})
    G, back = round_trip()
    # the lift builds gamma and keeps its atoms and its additivity verdict,
    # so only the collapsed connection's mu has its holder masks built, for
    # check_cgc; its eta, over a new abstract poset, is validated
    assert calls == {"alpha": 0, "table builds": 2, "eta validations": 1,
                     "additivity scan": 0}
    assert built == [back.mu] and back.mu is not G.gamma


def ordered_round_trip(G: GaloisConn, P: GaloisConn) -> list:
    """The GC <-> CGP and PPGC <-> PCGC round trips of criteria 7 and 8,
    each step as perfbench's ``ordered_op`` takes it: six new connections,
    returned."""
    C = t_cgp(G)
    check_cgp(C)
    G2 = t_gc(C)
    precision_cmp(G2, G)
    gc_back = t_cgp(G2)
    D = t_pcgc(P)
    check_pcgc(D)
    P2 = t_ppgc(D)
    precision_cmp(P2, P)
    return [C, G2, gc_back, D, P2, t_pcgc(P2)]


def count_round_trip(monkeypatch, make) -> dict:
    """What ``make()``, which gives G and P, and an ordered round trip over
    them compute, counted."""
    calls = count_calls(monkeypatch, {
        "table builds": (Table, "__init__"),
        "holder masks": (Table, "holder_masks"),
        "atoms": (Table, "atoms"),
        "additivity scans": (galois, "_scan_additive"),
        "eta validations": (Eta, "__init__"),
        "images": (Table, "image"),
        "down-closed tests": (FinPoset, "is_down_closed"),
        "alpha": (GaloisConn, "alpha")})
    G, P = make()
    outputs = ordered_round_trip(G, P)
    counted = dict(calls)
    # every new connection keeps its input's table: gamma and mu are one
    # table, validated when G or P was built; each carrier connection keeps
    # the eta that its table keeps as its atom map, and each connection
    # reads the image its table keeps
    conns = [G, P, *outputs]
    tables = [X.gamma if isinstance(X, GaloisConn) else X.mu for X in conns]
    expected = [G.gamma, P.gamma] + [G.gamma] * 3 + [P.gamma] * 3
    assert list(map(id, tables)) == list(map(id, expected))
    for X, table in zip(conns, tables):
        if isinstance(X, GaloisConn):
            assert X.gamma_image() is table.image()
        else:
            assert X.mu_image() is table.image() and X.eta is table.atom_eta()
    return counted


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_warm_ordered_round_trip_reads_each_table_once(monkeypatch, seed):
    G, P = catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed)
    ordered_round_trip(G, P)  # keeps the reports of G and P, and what their tables keep
    # no table or eta is validated or scanned again, and no image built
    assert count_round_trip(monkeypatch, lambda: (G, P)) == {
        "table builds": 0, "holder masks": 0, "atoms": 0, "additivity scans": 0,
        "eta validations": 0, "images": 0, "down-closed tests": 0, "alpha": 0}


def test_the_ordered_round_trip_outputs_keep_what_their_tables_give():
    for seed in range(12):
        G, P = catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed)
        for X in [G, P, *ordered_round_trip(G, P)]:
            assert_kept_values_are_recomputed(X)


def reordered(lat: FinLattice) -> FinLattice:
    """The lattice of ``lat``'s poset with its elements in reverse order:
    the same names, at other bit positions."""
    poset = lat.base
    return FinLattice.from_poset(build_poset(poset.elements[::-1], [
        (x, y) for x in poset.elements for y in poset.up(x)]))


def shape_error(make) -> str:
    with pytest.raises(ShapeMismatch) as exc:
        make()
    return str(exc.value)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_a_table_is_kept_only_over_its_own_carrier_and_abstract_poset(monkeypatch, seed):
    D = t_pcgc(catalog.gen_ppgc(seed))
    T = D.mu
    assert check_pcgc(D).ok  # T keeps its holder masks
    assert CarrierConn("pcgc", D.carrier, D.abstract, D.eta, T).mu is T
    # one value more, the same names in another order, and the same names
    # in the same order under another order: each table is validated again
    # and gets its own masks and atoms
    wider = FinCarrier.atoms([*D.carrier.values, "extra"])
    lat = reordered(D.abstract)
    flat = FinPoset.discrete(D.abstract_poset.elements)
    calls = count_calls(monkeypatch, {"table builds": (Table, "__init__")})
    moved = [CarrierConn("pcgc", wider, D.abstract, {**D.eta, "extra": D.abstract.top}, T),
             CarrierConn("pcgc", D.carrier, lat, D.eta, T),
             GaloisConn(wider, D.abstract, T), GaloisConn(D.carrier, lat, T),
             CarrierConn("cgc", D.carrier, flat, D.eta, T)]
    assert calls == {"table builds": 5}
    for X in moved:
        table = X.mu if isinstance(X, CarrierConn) else X.gamma
        fresh = Table("table", X.carrier, X.abstract_poset, dict(T))
        assert table is not T and table == T
        assert (table.holder_masks(), table.atoms()) == (fresh.holder_masks(), fresh.atoms())
        assert (table.holder_masks(), table.atoms()) != (T.holder_masks(), T.atoms())
    # the reordered connections are the same connections, and the wider
    # ones' extra value lies in no mu(b); every report is that of a fresh
    # copy over a new table
    assert [check_pcgc(X).ok for X in moved[:2]] == [False, True]
    assert [check_gc(X).is_gc for X in moved[2:4]] == [False, True]
    assert not check_cgc(moved[4]).ok
    for X in moved:
        assert_kept_values_are_recomputed(X)
    # a table over another carrier or abstract poset is checked as any
    # mapping is: the same message, naming the same fault first
    values, elements = D.carrier.values, D.abstract_poset.elements
    for carrier, abstract in [
            (FinCarrier.atoms(values[1:]), D.abstract),  # mu leaves the carrier
            (D.carrier, FinPoset.discrete([*elements, "ghost"])),  # mu not total
            (D.carrier, FinPoset.discrete(elements[1:]))]:  # a stray key
        poset = abstract.base if isinstance(abstract, FinLattice) else abstract
        eta = dict.fromkeys(carrier.values, poset.elements[0])
        for make in (lambda t: CarrierConn("pcgc", carrier, abstract, eta, t),
                     lambda t: GaloisConn(carrier, abstract, t)):
            assert shape_error(lambda: make(T)) == shape_error(lambda: make(dict(T)))


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_an_eta_is_kept_only_over_its_own_carrier_and_abstract_poset(monkeypatch, seed):
    D = t_pcgc(catalog.gen_ppgc(seed))
    E = D.eta
    assert type(E) is Eta and E is D.mu.atom_eta()
    assert CarrierConn("pcgc", D.carrier, D.abstract, E, D.mu).eta is E
    # the same names in another order, and the same names in the same order
    # under another order: each connection validates an eta of its own
    lat = reordered(D.abstract)
    flat = FinPoset.discrete(D.abstract_poset.elements)
    calls = count_calls(monkeypatch, {"eta validations": (Eta, "__init__")})
    moved = [CarrierConn("pcgc", D.carrier, lat, E, D.mu),
             CarrierConn("cgc", D.carrier, flat, E, D.mu)]
    assert calls == {"eta validations": 2}
    for X in moved:
        assert X.eta is not E and X.eta == E and list(X.eta) == list(E)
        assert X.eta.carrier is X.carrier and X.eta.poset is X.abstract_poset
        assert_kept_values_are_recomputed(X)
    # the reordered connection is the same connection; every report is
    # that of a fresh copy
    assert check_pcgc(moved[0]).ok and not check_cgc(moved[1]).ok
    # an eta over another carrier or abstract poset is checked as any
    # mapping is: the same message, naming the same fault first
    values, top = D.carrier.values, D.abstract.top
    wider = FinCarrier.atoms([*values, "extra"])
    ghost = FinPoset.discrete(["ghost"])
    for carrier, eta in [
            (wider, E),  # eta not total
            (D.carrier, Eta(D.carrier, ghost, dict.fromkeys(values, "ghost"))),  # not abstract
            (D.carrier, Eta(wider, D.abstract_poset, {**E, "extra": top}))]:  # a stray key
        def make(e, carrier=carrier):
            return CarrierConn("pcgc", carrier, D.abstract, e, {})
        assert shape_error(lambda: make(eta)) == shape_error(lambda: make(dict(eta)))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_cold_ordered_round_trip_reads_each_table_once(monkeypatch, seed):
    # G's and P's tables are validated once, when built, and each derived
    # value, the eta read off its atoms and its image included, is built
    # once per table, whether gen_ppgc's own classification or the round
    # trip asks for it first
    assert count_round_trip(monkeypatch, lambda: (
            catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed))) == {
        "table builds": 2, "holder masks": 2, "atoms": 2, "additivity scans": 2,
        "eta validations": 2, "images": 2, "down-closed tests": 0, "alpha": 0}


REPORTS = ("check_gc", "check_cgp", "check_pcgc", "classify_partitioning")


def count_reports(monkeypatch, run) -> dict:
    """The reports that ``run()`` computes, by checker: each counted at its
    kept miss (see :func:`count_calls`), whether the library, a transform
    or a generator asks for it."""
    modules = (galois, transforms, catalog)
    calls = count_calls(monkeypatch, {(name, module): (module, name) for name in REPORTS
                                      for module in modules if hasattr(module, name)})
    run()
    return {name: sum(calls.get((name, module), 0) for module in modules) for name in REPORTS}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_warm_ordered_round_trip_computes_no_report(monkeypatch, seed):
    # every new connection has the contents of an earlier one over the same
    # table, so it reads that connection's reports
    G, P = catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed)
    ordered_round_trip(G, P)
    assert count_reports(monkeypatch, lambda: ordered_round_trip(G, P)) == dict.fromkeys(REPORTS, 0)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_cold_ordered_round_trip_computes_each_report_once_per_content(monkeypatch, seed):
    # check_gc once for G and G2, check_cgp once for C and C2; on the P
    # side check_gc, check_pcgc and the classification (gen_ppgc's own)
    # once each
    assert count_reports(monkeypatch, lambda: ordered_round_trip(
        catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed))) == {
        "check_gc": 2, "check_cgp": 1, "check_pcgc": 1, "classify_partitioning": 1}


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_a_round_trip_output_keeps_the_record_of_the_connection_it_equals(seed):
    G, P = catalog.gen_downsets_gc(seed, amax=6), catalog.gen_ppgc(seed)
    C, D = t_cgp(G), t_pcgc(P)
    assert t_gc(C)._kept is G._kept and t_cgp(t_gc(C))._kept is C._kept
    assert t_ppgc(D)._kept is P._kept and t_pcgc(t_ppgc(D))._kept is D._kept
    # one record per content: G's and C's on G's gamma, P's and D's on P's
    assert [r[-1] for r in G.gamma._records] == [G._kept, C._kept]
    assert [r[-1] for r in P.gamma._records] == [P._kept, D._kept]
    for X in (G, P):
        assert_kept_values_are_recomputed(X.gamma)


class TaggedGaloisConn(GaloisConn):
    """A GaloisConn of another class: its reports are its own."""

    __slots__ = ()


def test_a_connection_of_other_contents_gets_its_own_record():
    G = catalog.gen_downsets_gc(3, amax=6)
    D = t_pcgc(catalog.gen_ppgc(3))
    lat, T = D.abstract, D.mu
    order = G.carrier_order
    assert order is not None and check_gc(G) and check_pcgc(D)
    top = {**D.eta, D.carrier.values[0]: lat.top}
    same_d = CarrierConn("pcgc", D.carrier, lat, dict(D.eta), T)
    same_g = GaloisConn(G.carrier, G.abstract, G.gamma, carrier_order=order)
    assert same_d._kept is D._kept and same_g._kept is G._kept
    others = [
        CarrierConn("pcgc", D.carrier, lat, top, T),  # another eta value
        CarrierConn("cgp", D.carrier, lat, D.eta, T),  # another kind
        TaggedGaloisConn(G.carrier, G.abstract, G.gamma, carrier_order=order),  # class
        GaloisConn(G.carrier, G.abstract, G.gamma,  # an equal order, not the same
                   carrier_order=FinPoset(order.elements, order._upm)),
        GaloisConn(G.carrier, G.abstract, G.gamma),  # no order
        GaloisConn(G.carrier, FinLattice(G.abstract.base, G.abstract._of_dn), G.gamma,
                   carrier_order=order),  # an equal lattice, not the same
        GaloisConn(D.carrier, lat.base, T),  # the poset of D's lattice
        rebuilt(G),  # the same contents over another table
    ]
    for X in others:
        assert X._kept is not D._kept and X._kept is not G._kept and not X._kept
    # T holds P's and D's records and three more, G's gamma G's and four more
    assert len(T._records) == len(G.gamma._records) == 5
    # a shared record would hand over a report of other contents
    assert check_pcgc(others[0]) == literal_pcgc(others[0]) != check_pcgc(D)
    with pytest.raises(ShapeMismatch, match="not a complete lattice"):
        check_gc(others[6])
    for X in others:
        assert_kept_values_are_recomputed(X)


def test_the_additivity_witness_of_signconst_is_found_at_its_first_pair(monkeypatch):
    # the PPGC witness of t_ppgc's output is its first pair in sorted order,
    # at every bound: deciding additivity builds nothing of size n * |J|
    pairs = []

    def counting_pairs(xs, k):
        for pair in combinations(xs, k):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(galois, "combinations", counting_pairs)
    calls = count_calls(monkeypatch, {"join-irreducibles": (FinLattice, "join_irreducibles")})
    for bound in (64, 128):
        pairs.clear()
        G = t_ppgc(catalog.builtin("signconst_pcgc", bound))
        assert classify_partitioning(G).witness == (f"-{bound}", f"-{bound - 1}")
        assert len(pairs) == 1 and calls == {"join-irreducibles": 0}


# ---------------------------------------------------------------------------
# the memos and immutability


def rebuilt(G: GaloisConn) -> GaloisConn:
    return GaloisConn(G.carrier, G.abstract, dict(G.gamma), carrier_order=G.carrier_order)


def fresh_copy(X):
    """X rebuilt by its constructor, which keeps nothing X's did not; a
    lattice as a plain FinLattice over a fresh copy of its poset, and a
    connection over a new table built from a plain dict."""
    if isinstance(X, FinPoset):
        return FinPoset(X.elements, X._upm)
    if isinstance(X, FinLattice):
        return FinLattice(fresh_copy(X.base), X._of_dn)
    if isinstance(X, Table):
        return Table("table", X.carrier, X.poset, dict(X))
    if isinstance(X, CarrierConn):
        return CarrierConn(X.kind, X.carrier, X.abstract, X.eta, dict(X.mu),
                           carrier_order=X.carrier_order)
    return rebuilt(X)


def of_record(table: Table, record: tuple):
    """The connection of a record of ``table``: built over the table from
    the record's key, it takes the record's ``_kept`` dict."""
    cls, kind, abstract, order, eta, _ = record
    if eta is None:
        return cls(table.carrier, abstract, table, carrier_order=order)
    return cls(kind, table.carrier, abstract, eta, table, carrier_order=order)


def assert_kept_values_are_recomputed(X):
    """Every value kept in ``X._kept`` equals its computation on a fresh
    copy of X, and so does every value its posets, lattices and table
    keep, and every value kept by each connection recorded on a table;
    the analyzer's entries, kept under :class:`AbstractSemantics`, equal
    ``bca_pcgc_entry`` on the fresh copy.  A connection's table, and a
    carrier connection's eta, is one over its own carrier and abstract
    poset, and the table holds its record."""
    if isinstance(X, (CarrierConn, GaloisConn)):
        table = X.mu if isinstance(X, CarrierConn) else X.gamma
        assert table.carrier is X.carrier and table.poset is X.abstract_poset
        if isinstance(X, CarrierConn):
            assert X.eta.carrier is X.carrier and X.eta.poset is X.abstract_poset
        assert any(r[-1] is X._kept for r in table._records)
    if isinstance(X, Table):
        for record in X._records:
            Y = of_record(X, record)
            assert Y._kept is record[-1]
            assert_kept_values_equal_their_computations(Y)
    assert_kept_values_equal_their_computations(X)
    parts = ([X.base] if isinstance(X, FinLattice) else [] if isinstance(X, (FinPoset, Table))
             else [X.abstract, X.carrier_order, table])
    for part in parts:
        if part is not None:
            assert_kept_values_are_recomputed(part)


def assert_kept_values_equal_their_computations(X):
    """Every value kept in ``X._kept`` equals its computation on a fresh
    copy of X."""
    fresh = fresh_copy(X)
    for compute, value in X._kept.items():
        if compute is AbstractSemantics:
            for (op, b1, b2), entry in value.items():
                fn = ConcreteFn(2, _ArithTable(fresh.carrier, op))
                assert entry == bca_pcgc_entry(fresh, fn, b1, b2), (op, b1, b2)
        else:
            assert value == compute(fresh), compute.__qualname__


@pytest.mark.parametrize("make", [
    lambda: t_pgc(catalog.gen_cgc(7, amax=5, bmax=4)),
    lambda: catalog.gen_ppgc(3),
    lambda: catalog.builtin("interval_gi_d", 10),
])
def test_classify_is_computed_once_per_connection(make):
    G = make()
    rep = classify_partitioning(G)
    assert classify_partitioning(G) is rep
    fresh = classify_partitioning(rebuilt(G))
    assert fresh == rep and fresh is not rep


@pytest.mark.parametrize("make", [
    lambda: t_pgc(catalog.gen_cgc(7, amax=5, bmax=4)),
    lambda: catalog.builtin("sign_minus_ppgc", 3),
])
def test_additivity_is_computed_once_per_connection(make, monkeypatch):
    # classify_partitioning and check_gc share one additivity scan, also on
    # a PPGC, where the scan goes on to the pairwise witness
    G = make()
    H = GaloisConn(G.carrier, G.abstract, dict(G.gamma), carrier_order=G.carrier_order)
    calls = count_calls(monkeypatch, {"scans": (galois, "_scan_additive")})
    classify_partitioning(H)
    rep = check_gc(H)
    assert calls == {"scans": 1}
    assert (rep.is_disjunctive, rep.witness) == literal_additive(H)
    assert check_gc(H) is rep
    assert list(H._kept) == [classify_partitioning.__wrapped__, check_gc.__wrapped__]
    assert list(H.gamma._kept) == [Table.holder_masks.__wrapped__, Table.atoms.__wrapped__,
                                   galois._scan_additive.__wrapped__]


def test_classify_decides_an_untagged_record_by_its_contents():
    # every GaloisConn comes from one constructor with no class tag: a lift
    # is classified PGC and interval_gi_d, rebuilt the same way, is not
    assert classify_partitioning(t_pgc(catalog.sign_cgc(4))).category == "PGC"
    G = catalog.builtin("interval_gi_d", 10)
    plain = GaloisConn(G.carrier, G.abstract, dict(G.gamma))
    assert classify_partitioning(plain).category != "PGC"
    with pytest.raises(NotInClass):
        t_cgc_of_pgc(plain)


def test_a_galois_connection_takes_no_kind():
    G = catalog.builtin("sign_pgi", 4)
    with pytest.raises(TypeError):
        GaloisConn(G.carrier, G.abstract, dict(G.gamma), kind="pgc")
    assert not hasattr(G, "kind")


def test_connections_are_immutable():
    G = t_pgc(catalog.sign_cgc(4))
    d = next(iter(G.gamma))
    names = slot_names(GaloisConn)
    assert {"gamma", "carrier_order", "abstract", "_kept"} <= set(names)
    assert "kind" not in names
    for name in names:
        assert hasattr(G, name)
        with pytest.raises(AttributeError):
            setattr(G, name, None)
        with pytest.raises(AttributeError):
            delattr(G, name)
    with pytest.raises(TypeError):
        G.gamma[d] = frozenset()
    with pytest.raises(TypeError):
        del G.gamma[d]
    with pytest.raises(TypeError):
        G.gamma.update({d: frozenset()})
    with pytest.raises(TypeError):
        G.gamma |= {}
    table_names = slot_names(Table)
    assert {"carrier", "poset", "_kept"} <= set(table_names)
    for name in table_names:
        assert hasattr(G.gamma, name)
        with pytest.raises(AttributeError):
            setattr(G.gamma, name, None)
    # still a dict to readers such as JSON encoders
    assert isinstance(G.gamma, dict)
    assert json.loads(json.dumps(G.gamma, default=sorted)) == {
        k: sorted(v) for k, v in G.gamma.items()}


def test_carrier_connections_and_closure_operators_are_immutable():
    C = catalog.builtin("parity", 4)
    a, b = next(iter(C.eta.items()))
    names = slot_names(CarrierConn)
    assert {"eta", "mu", "kind", "abstract", "carrier_order", "_kept"} <= set(names)
    for name in names:
        assert hasattr(C, name)
        with pytest.raises(AttributeError):
            setattr(C, name, None)
        with pytest.raises(AttributeError):
            delattr(C, name)
    with pytest.raises(TypeError):
        C.eta[a] = b
    with pytest.raises(TypeError):
        C.mu[b] = frozenset()
    with pytest.raises(TypeError):
        C.mu.update({"ghost": frozenset()})
    phi = t_cco(C)
    for name in slot_names(type(phi)):
        assert hasattr(phi, name)
        with pytest.raises(AttributeError):
            setattr(phi, name, None)
        with pytest.raises(AttributeError):
            delattr(phi, name)
    with pytest.raises(TypeError):
        phi.phi[a] = frozenset()
    # still dicts to readers such as JSON encoders
    assert isinstance(C.mu, dict) and isinstance(phi.phi, dict)


# ---------------------------------------------------------------------------
# best-correct-approximation entries as a set image


@st.composite
def arith_images(draw):
    """An integer carrier, an operator and two mu-style argument sets: empty,
    a singleton, a contiguous range, the whole carrier or any subset."""
    mode = draw(st.sampled_from([SATURATING, MODULAR]))
    lo = draw(st.integers(-9, 4))
    size = draw(st.integers(1, 7)) * 2 if mode == MODULAR else draw(st.integers(1, 14))
    carrier = FinCarrier.ints(lo, lo + size - 1, mode)
    values = carrier.values

    def subset():
        i = draw(st.integers(0, size - 1))
        j = draw(st.integers(i, size - 1))
        return draw(st.sampled_from([
            frozenset(),
            frozenset([values[i]]),
            frozenset(values[i:j + 1]),
            carrier.value_set(),
            draw(subsets(values)),
        ]))

    return carrier, draw(st.sampled_from("+-*")), subset(), subset()


@settings(max_examples=500, deadline=None)
@given(arith_images())
@example((FinCarrier.ints(-4, 3, MODULAR), "*", frozenset(), frozenset({"3"})))
@example((FinCarrier.ints(-4, 4), "-", frozenset({"-4", "4"}), frozenset()))
def test_arith_image_agrees_with_the_literal_product(case):
    carrier, op, xs, ys = case
    table = CountingArithTable(carrier, op)
    f = ConcreteFn(2, table)
    image = f.image(xs, ys)
    assert table.reads == 0
    assert image == table.image(xs, ys) == literal_image(f, xs, ys)
    assert table.reads == len(xs) * len(ys)


def parity_pcgc():
    """parity(8) with a bottom and a top: a PCGC over a modular carrier."""
    return t_pcgc(t_pgc(catalog.builtin("parity", 8)))


@pytest.mark.parametrize("make", [
    lambda: catalog.builtin("signconst_pcgc", 16), parity_pcgc,
], ids=["signconst_pcgc", "parity"])
def test_bca_entries_agree_with_the_literal_lub(make):
    C = make()
    ops = AbstractSemantics(C).ops
    elems = C.abstract.elements
    for op, y1, y2 in product("+-*", elems, elems):
        f = ops[op]
        assert bca_pcgc_entry(C, f, y1, y2) == literal_bca_entry(C, f, y1, y2)


def test_bca_entries_read_no_arithmetic_table_entry():
    C = catalog.builtin("signconst_pcgc", 16)
    elems = C.abstract.elements
    for op in "+-*":
        table = CountingArithTable(C.carrier, op)
        f = ConcreteFn(2, table)
        for y1, y2 in product(elems, elems):
            bca_pcgc_entry(C, f, y1, y2)
        assert table.reads == 0
        literal_bca_entry(C, f, "Z", "<0")
        assert table.reads == len(C.mu["Z"]) * len(C.mu["<0"])


def test_generic_image_names_the_first_undefined_key_in_sorted_order():
    values = [str(n) for n in range(-3, 12)]
    # undefined wherever a + b > 8: in the sorted scan ("-2", "11") comes
    # first; a lexical scan would meet ("-1", "10") first
    f = ConcreteFn(2, {
        (a, b): a for a in values for b in values if int(a) + int(b) <= 8
    })
    for xs in (values, values[::-1], set(values)):
        with pytest.raises(ShapeMismatch, match=r"\('-2', '11'\)"):
            f.image(xs, xs)
    g = ConcreteFn(1, {v: v for v in values if int(v) < 2})
    with pytest.raises(ShapeMismatch, match="'2'"):
        g.image(set(values))
    with pytest.raises(ShapeMismatch):
        f.image(values)


# ---------------------------------------------------------------------------
# backward completeness of purely constructive pairs


def backward_cases(seed: int, arity: int):
    """Over t_pcgc(gen_ppgc(seed)): a random f with a random f♯ and with its
    best correct approximation, and the best correct approximation of an f
    constant on blocks (on pairs of blocks at arity 2)."""
    C = t_pcgc(catalog.gen_ppgc(seed))
    rng = random.Random(f"backward:{seed}:{arity}")
    elems = sorted_elems(C.abstract.elements)
    values = sorted_elems(C.carrier.values)
    key = (lambda t: t[0]) if arity == 1 else (lambda t: t)
    f = catalog.gen_fn(rng, C.carrier, arity)
    yield FnPair(C, f, AbstractFn(
        arity, {key(ys): rng.choice(elems) for ys in product(elems, repeat=arity)}))
    yield FnPair(C, f, bca_pcgc(C, f))
    blocks = C.blocks()
    out = {bs: rng.choice(values) for bs in product(blocks, repeat=arity)}
    g = ConcreteFn(arity, {
        key(xs): out[tuple(C.mu[C.eta[x]] for x in xs)]
        for xs in product(values, repeat=arity)
    })
    yield FnPair(C, g, bca_pcgc(C, g))


def members(name: str) -> frozenset:
    """The subset that ``set_name`` names, for comma-free member names."""
    return frozenset(x for x in name[1:-1].split(",") if x)


@pytest.mark.parametrize("arity", [1, 2])
def test_backward_completeness_agrees_with_every_tuple_of_subsets(arity):
    verdicts = []
    for seed in range(200):
        for pair in backward_cases(seed, arity):
            C, lat = pair.conn, pair.conn.abstract
            res = pcgc_pair_property(C, pair, "backward_complete")
            lit = literal_backward_complete(C, pair)
            assert res.ok == lit.ok, (seed, res, lit)
            n, b = len(C.carrier), len(lat.elements)
            bound = arity * b ** (arity - 1) * (1 + b * n) + n ** arity
            assert len(_backward_tuples(C, arity)) <= bound
            verdicts.append(res.ok)
            if res.ok:
                continue
            # the witness fails the literal law, and at arity 1 no smaller
            # subset does
            names, lhs, rhs = res.witness
            Xs = [members(X) for X in names]
            assert lhs == lat.lub(C.eta[o] for o in pair.concrete.image(*Xs)) != rhs
            assert rhs == pair.abstract(*(lat.lub(C.eta[x] for x in X) for X in Xs))
            if arity == 1:
                assert len(Xs[0]) == len(members(lit.witness[0][0]))
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# compiled programs: the concrete oracle and the abstract evaluator


VARS = ("x", "y", "z")
ORACLE_CAP = 300


def int_carriers():
    """Saturating ranges of any size and modular ranges of even size."""
    return st.builds(
        lambda mode, lo, half, odd: FinCarrier.ints(
            lo, lo + 2 * half - 1 - (odd and mode == SATURATING), mode),
        st.sampled_from([SATURATING, MODULAR]), st.integers(-9, 2),
        st.integers(1, 8), st.booleans(),
    )


LITERALS = st.integers(-40, 40)  # well beyond any carrier bound drawn here
LABELS = st.integers(1, 6)  # labels may repeat and need not follow the syntax
VAR_NAMES = st.sampled_from(VARS)
ARITH = st.sampled_from("+-*")
COMPARISONS = st.sampled_from(CMP_OPS)
KINDS = st.integers(0, 3)


def draw_expr(draw, depth: int):
    """A literal, a variable or, above depth 0, an operation."""
    kind = draw(KINDS) if depth else draw(KINDS) % 2
    if kind == 0:
        return Lit(draw(LITERALS))
    if kind == 1:
        return Var(draw(VAR_NAMES))
    return BinOp(draw(ARITH), draw_expr(draw, depth - 1), draw_expr(draw, depth - 1))


def draw_block(draw, depth: int) -> tuple:
    return tuple(draw_stmt(draw, depth) for _ in range(draw(KINDS)))


def draw_stmt(draw, depth: int):
    """An assignment, a skip or, above depth 0, an if or a while."""
    kind = draw(KINDS) if depth else draw(KINDS) % 2
    if kind == 0:
        return Assign(draw(VAR_NAMES), draw_expr(draw, 2), draw(LABELS))
    if kind == 1:
        return Skip(draw(LABELS))
    cond = Cmp(draw(COMPARISONS), draw_expr(draw, 1), draw_expr(draw, 1))
    if kind == 2:
        return If(cond, draw_block(draw, depth - 1), draw_block(draw, depth - 1),
                  draw(LABELS))
    return While(cond, draw_block(draw, depth - 1), draw(LABELS))


st_expr = st.composite(lambda draw: draw_expr(draw, 3))


@st.composite
def oracle_cases(draw):
    """A carrier and a program of nested statements that assigns every
    variable first."""
    init = tuple(Assign(v, Lit(draw(LITERALS)), draw(LABELS)) for v in VARS)
    body = init + tuple(draw_stmt(draw, 2) for _ in range(draw(KINDS) + 1))
    return draw(int_carriers()), Program(body, 6)


def observations(seen: dict) -> int:
    return sum(len(envs) for label, envs in seen.items() if label != "end")


SPINNER = parse_program(program_text("p08_budget_spinner.while"))


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
@example((FinCarrier.ints(-4, 4), SPINNER))
@example((FinCarrier.ints(-4, 3, MODULAR), parse_program(
    "x := 3; y := 0; while x != 0 do { x := x * 2 - 1; if x >= y then { skip; }"
    " else { y := y - 9; } }")))
def test_concrete_run_agrees_with_the_literal_oracle(case):
    carrier, program = case
    full = literal_concrete_run(program, carrier, ORACLE_CAP)
    need = observations(full) if "end" in full else None
    budgets = set(range(25)) | {ORACLE_CAP}
    if need is not None:
        budgets |= {need - 1, need, need + 1}
    for budget in sorted(b for b in budgets if b >= 0):
        seen = concrete_run(program, carrier, budget)
        expected = literal_concrete_run(program, carrier, budget)
        assert seen == expected
        assert list(seen) == list(expected)
        finished = need is not None and need <= budget
        assert ("end" in seen) == finished
        assert observations(seen) == (need if finished else budget)


@pytest.mark.parametrize("name", program_names())
def test_the_oracle_never_mutates_a_recorded_environment(name, signconst):
    # the literal oracle records a copy of each environment when it is seen,
    # so equal results mean nothing the oracle recorded changed afterwards
    program = parse_program(program_text(name))
    seen = concrete_run(program, signconst.carrier, 10_000)
    assert seen == literal_concrete_run(program, signconst.carrier, 10_000)


def test_recorded_environments_are_shared_not_copied(signconst):
    program = parse_program("x := 1; skip; skip;")
    seen = concrete_run(program, signconst.carrier)
    assert seen["L2"][0] is seen["L3"][0] is seen["end"][0]


def relabel(program: Program) -> tuple:
    """A copy of the program in which every statement occurrence has a label
    of its own (a node used twice gets two), so that (label, environment) is
    one state of the run; and the labels of its loops."""
    labels = count(1)
    loops: set = set()

    def block(stmts):
        return tuple(stmt(s) for s in stmts)

    def stmt(s):
        label = next(labels)
        if isinstance(s, While):
            loops.add(f"L{label}")
            return While(s.cond, block(s.body), label)
        if isinstance(s, If):
            return If(s.cond, block(s.then), block(s.els), label)
        return replace(s, label=label)

    body = block(program.body)
    return Program(body, next(labels) - 1), loops


def first_loop_repeat(program: Program, carrier, cap: int):
    """(s1, P) for the first state at a loop head that the literal run meets
    twice within ``cap`` steps, at steps s1 and s1 + P; None if there is none."""
    unique, loops = relabel(program)
    trail: list = []
    literal_concrete_run(unique, carrier, cap, trail)
    first: dict = {}
    for step, (label, env) in enumerate(trail, 1):
        if label in loops:
            state = (label, frozenset(env.items()))
            if state in first:
                return first[state], step - first[state]
            first[state] = step
    return None


@st.composite
def spinning_cases(draw):
    """A carrier and a program that never terminates: after assigning every
    variable it loops on ``v = v``, and that loop's body runs one drawn loop
    twice, as the same ``While`` node, between drawn statements."""
    init = tuple(Assign(v, Lit(draw(LITERALS)), draw(LABELS)) for v in VARS)
    inner = While(Cmp(draw(COMPARISONS), draw_expr(draw, 1), draw_expr(draw, 1)),
                  draw_block(draw, 1), draw(LABELS))
    body = (draw_block(draw, 1) + (inner,) + draw_block(draw, 1) + (inner,)
            + draw_block(draw, 1))
    var = draw(VAR_NAMES)
    spin = While(Cmp("=", Var(var), Var(var)), body, draw(LABELS))
    return draw(int_carriers()), Program(init + draw_block(draw, 1) + (spin,), 6)


REUSED = While(Cmp("<", Var("y"), Lit(2)),
               (Assign("y", BinOp("+", Var("y"), Lit(1)), 4),), 3)


@settings(max_examples=150, deadline=None)
@given(spinning_cases())
@example((FinCarrier.ints(-4, 4), SPINNER))
# x climbs to the top of the carrier before the states at the head repeat
@example((FinCarrier.ints(-4, 4), parse_program(
    "x := 0; y := 0; while y = y do { x := x + 1; }")))
# the inner loop meets its state again first, one outer iteration later, and
# its period spans the ``skip`` compiled after it
@example((FinCarrier.ints(-4, 4), parse_program(
    "x := 0; while x = x do { j := 0; while j < 2 do { j := j + 1; } skip; }")))
# one While node at two places: the first exits in the state the second
# enters in, which is no repeat
@example((FinCarrier.ints(-4, 4), Program((Assign("x", Lit(0), 1), While(
    Cmp("=", Var("x"), Var("x")), (Assign("y", Lit(0), 2), REUSED, REUSED), 2)), 4)))
def test_concrete_run_skips_whole_periods_of_a_spinning_run(case):
    carrier, program = case
    budgets = {ORACLE_CAP}
    repeat = first_loop_repeat(program, carrier, ORACLE_CAP)
    if repeat is not None:
        s1, period = repeat
        budgets |= {s1 + k * period + d for k in range(1, 6) for d in (-1, 0, 1)}
    for budget in sorted(b for b in budgets if b <= ORACLE_CAP):
        seen = concrete_run(program, carrier, budget)
        expected = literal_concrete_run(program, carrier, budget)
        assert seen == expected
        assert list(seen) == list(expected)
        assert observations(seen) == budget and "end" not in seen


class CountingCarrier(FinCarrier):
    """A carrier that counts its ``clamp_int`` calls."""

    clamps = 0

    def clamp_int(self, n: int) -> int:
        object.__setattr__(self, "clamps", self.clamps + 1)
        return super().clamp_int(n)


# the clamp_int calls of a run that executes every step: one per literal when
# the program is compiled, and one per + - * it evaluates
STEP_BY_STEP_CLAMPS = {
    "p01_doubling_loop.while": 6,
    "p02_straightline.while": 9,
    "p03_sign_split.while": 5,
    "p04_nested_loops.while": 36,
    "p05_countdown.while": 24,
    "p06_accumulate_product.while": 14,
    "p07_skip_and_comments.while": 3,
    "p09_branch_join.while": 5,
    "p10_loop_with_branch.while": 13,
}


@pytest.mark.parametrize("name", program_names())
def test_only_a_spinning_run_skips_steps(name, signconst):
    program = parse_program(program_text(name))
    c = signconst.carrier
    clamps = []
    for budget in (10_000, 1_000_000):
        carrier = CountingCarrier(c.values, c.mode, c.lo, c.hi)
        seen = concrete_run(program, carrier, budget)
        clamps.append(carrier.clamps)
    if "end" in seen:
        assert clamps == [STEP_BY_STEP_CLAMPS[name]] * 2
    else:
        # p08: its three literals, and x + 0 in each of the two periods run
        # before the second repeat at the loop head, whatever the budget
        assert name == "p08_budget_spinner.while"
        assert clamps == [5, 5]


class LoggingSemantics(AbstractSemantics):
    """Abstract semantics that logs every ``op_entry`` call."""

    def __init__(self, domain):
        super().__init__(domain)
        self.log: list = []

    def op_entry(self, op, b1, b2):
        self.log.append((op, b1, b2))
        return super().op_entry(op, b1, b2)


EVAL_DOMAINS = {
    "signconst_pcgc": catalog.builtin("signconst_pcgc", 10),
    "parity": parity_pcgc(),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(EVAL_DOMAINS)),
       st.lists(st_expr(), min_size=1, max_size=3), st.data())
def test_abstract_eval_agrees_with_the_literal_chain(name, exprs, data):
    # each expression twice, in fresh states, so compiled ones are reused
    C = EVAL_DOMAINS[name]
    sem = LoggingSemantics(C)
    for expr in exprs + exprs:
        state = data.draw(st.dictionaries(
            st.sampled_from(VARS), st.sampled_from(C.abstract.elements)))
        sem.log = []
        try:
            expected = literal_abstract_eval(sem, expr, state)
        except UnknownVariable as exc:
            with pytest.raises(UnknownVariable, match=re.escape(str(exc))):
                sem.eval(expr, state)
            continue
        literal_log, sem.log = sem.log, []
        assert sem.eval(expr, state) == expected
        assert sem.log == literal_log


@settings(max_examples=500, deadline=None)
@given(int_carriers(), st.one_of(st.integers(-60, 60), st.integers()))
def test_clamp_int_agrees_with_its_formulas(carrier, n):
    lo, hi = carrier.lo, carrier.hi
    if carrier.mode == MODULAR:
        expected = lo + (n - lo) % (hi - lo + 1)
    else:
        expected = min(max(n, lo), hi)
    assert carrier.clamp_int(n) == expected
    assert carrier.clamp(n) == str(expected)


# ---------------------------------------------------------------------------
# best-correct-approximation entries kept on the connection


KEPT_DOMAINS = {
    "signconst_pcgc(64)": lambda: catalog.builtin("signconst_pcgc", 64),
    "signconst_pcgc(10)": lambda: catalog.builtin("signconst_pcgc", 10),
}


class UnkeptSemantics(AbstractSemantics):
    """Abstract semantics that computes every operator entry afresh."""

    def op_entry(self, op, b1, b2):
        return bca_pcgc_entry(self.domain, self.ops[op], b1, b2)


def result_items(result):
    """An analysis result as lists, so that label and variable order count."""
    points = [(label, list(state.items())) for label, state in result.points.items()]
    return points, result.iterations


@functools.lru_cache(maxsize=None)
def unkept_result(domain: str, name: str):
    """``name`` analyzed over a freshly built ``domain``, every entry
    computed by ``bca_pcgc_entry`` where it is needed and none kept."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, "AbstractSemantics", UnkeptSemantics)
        result = analyze(parse_program(program_text(name)), KEPT_DOMAINS[domain]())
    return result_items(result)


@settings(max_examples=25, deadline=None)
@given(st.permutations([(d, n) for d in KEPT_DOMAINS for n in program_names()]))
def test_kept_entries_change_no_analysis(order):
    # two connections that keep their entries across the analyses, in an
    # interleaved order, twice over: the second pass reads every entry
    shared = {d: make() for d, make in KEPT_DOMAINS.items()}
    for d, name in order + order:
        result = analyze(parse_program(program_text(name)), shared[d])
        assert result_items(result) == unkept_result(d, name)


def corpus_entry_calls(monkeypatch, domain):
    """The entries ``op_entry`` asks for and the ``bca_pcgc_entry`` calls
    made, as (connection, op, b1, b2), while the corpus is analyzed over
    ``domain``."""
    asked, computed = [], []
    op_entry, compute = AbstractSemantics.op_entry, analyzer.bca_pcgc_entry

    def logged_op_entry(self, op, b1, b2):
        asked.append((op, b1, b2))
        return op_entry(self, op, b1, b2)

    def logged_compute(C, f, b1, b2):
        computed.append((C, f.table.op, b1, b2))
        return compute(C, f, b1, b2)

    with monkeypatch.context() as mp:
        mp.setattr(AbstractSemantics, "op_entry", logged_op_entry)
        mp.setattr(analyzer, "bca_pcgc_entry", logged_compute)
        for name in program_names():
            analyze(parse_program(program_text(name)), domain)
    return asked, computed


def test_each_entry_is_computed_once_per_connection(monkeypatch):
    C = catalog.builtin("signconst_pcgc", 64)
    asked, computed = corpus_entry_calls(monkeypatch, C)
    assert sorted(computed) == sorted((C, *key) for key in set(asked))
    again, recomputed = corpus_entry_calls(monkeypatch, C)
    assert again == asked
    assert recomputed == []
    # a connection built by another builtin call computes every entry again
    C2 = catalog.builtin("signconst_pcgc", 64)
    assert corpus_entry_calls(monkeypatch, C2)[1] == [(C2, *k[1:]) for k in computed]
    assert_kept_values_are_recomputed(C2)


def refused_domains():
    """A lattice domain that fails ``check_pcgc``, as eta moves 1 to >0,
    and a purely constructive one over a carrier of atoms, which has no
    arithmetic."""
    C = catalog.builtin("signconst_pcgc", 10)
    bad = CarrierConn(C.kind, C.carrier, C.abstract, {**C.eta, "1": ">0"}, C.mu)
    chain = FinLattice.from_poset(build_poset(["⊥", "x", "⊤"], [("⊥", "x"), ("x", "⊤")]))
    atoms = CarrierConn(
        "pcgc", FinCarrier(("a", "b")), chain, {"a": "x", "b": "x"},
        {"⊥": set(), "x": {"a", "b"}, "⊤": {"a", "b"}},
    )
    return bad, atoms


def test_a_refused_domain_keeps_no_entries():
    program = parse_program("x := 1; y := x + x;")
    for domain, ok in zip(refused_domains(), (False, True)):
        assert check_pcgc(domain).ok is ok
        for _ in range(2):
            with pytest.raises(DomainMismatch):
                analyze(program, domain)
        assert list(domain._kept) == [check_pcgc.__wrapped__]


# ---------------------------------------------------------------------------
# bound tables and Moore families


@st.composite
def bounded_posets(draw):
    """A random poset on up to 8 elements, often with a least and a greatest
    element added and often with a planted bowtie (a, b < c, d), so that
    many are lattices and many others lack a pairwise lub or glb; half the
    time with twins planted: up to three of its elements get 1-4 copies
    each, which share that element's strict up-set and strict down-set, so
    each class of twins holds 2-5 members.  Listed in a random order."""
    n = draw(st.integers(1, 8))
    rank = draw(st.permutations(range(n)))
    pairs = sparse(draw, [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]])
    if n >= 4 and draw(st.booleans()):
        a, b, c, d = sorted(draw(st.permutations(range(n)))[:4], key=rank.__getitem__)
        pairs += [(a, c), (a, d), (b, c), (b, d)]
    names = [str(i) for i in range(n)]
    pairs = [(str(i), str(j)) for i, j in pairs]
    if draw(st.integers(0, 3)):
        pairs += [("⊥", x) for x in names] + [(x, "⊤") for x in names]
        names += ["⊥", "⊤"]
    if draw(st.booleans()):
        poset = build_poset(names, pairs)
        for x in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
            for c in range(draw(st.integers(1, 4))):
                twin = f"{x}'{c}"
                names.append(twin)
                pairs += [(y, twin) for y in poset.down(x) if y != x]
                pairs += [(twin, y) for y in poset.up(x) if y != x]
    return build_poset(draw(st.permutations(names)), pairs)


def twins_between(k: int) -> FinPoset:
    """M_k: an antichain of k twins between a bottom and a top."""
    mids = [f"m{i}" for i in range(k)]
    return build_poset(["⊥", *mids, "⊤"],
                       [("⊥", m) for m in mids] + [(m, "⊤") for m in mids])


def u_above_p_and_q(elements) -> FinPoset:
    """u1 and u2 are twins above p and q, which are no twins as e < p: p
    and q lack a lub, and u1 and u2 a glb."""
    return build_poset(elements, [("⊥", "e"), ("e", "p"), ("⊥", "q")]
                       + [(lo, u) for lo in "pq" for u in ("u1", "u2")]
                       + [("u1", "⊤"), ("u2", "⊤")])


# the twins l1, l2 below the twins a, b: neither pair has an inner bound
TWIN_BOWTIE = build_poset(
    ["⊥", "l1", "l2", "a", "b", "⊤"],
    [("⊥", "l1"), ("⊥", "l2"), ("a", "⊤"), ("b", "⊤")]
    + [(lo, hi) for lo in ("l1", "l2") for hi in "ab"],
)
# the first pair that lacks a bound is (u2, u1), and u1 is not the first
# member of its class
TWIN_WITNESS = u_above_p_and_q(["u2", "p", "u1", "q", "e", "⊥", "⊤"])
# the first pair that lacks a bound, (p, q), is not one the twin check tests
UNTESTED_WITNESS = u_above_p_and_q(["p", "q", "u1", "u2", "e", "⊥", "⊤"])
SIGNCONST_16 = catalog.builtin("signconst_pcgc", 16).abstract.base


# x and y have neither a lub nor a glb, and they are the first pair
DOUBLE_BOWTIE = build_poset(
    ["x", "y", "l1", "l2", "u1", "u2", "⊥", "⊤"],
    [(lo, hi) for lo, his in [("⊥", ["l1", "l2"]), ("l1", "xy"), ("l2", "xy"),
                             ("x", ["u1", "u2"]), ("y", ["u1", "u2"]),
                             ("u1", ["⊤"]), ("u2", ["⊤"])]
     for hi in his],
)


@settings(max_examples=600, deadline=None)
@given(bounded_posets())
@example(DOUBLE_BOWTIE)
@example(m3().base)
@example(n5().base)
@example(build_poset(["x"], []))
@example(FinPoset((), ()))
@example(SIGNCONST_16)
@example(twins_between(5))
@example(TWIN_BOWTIE)
@example(TWIN_WITNESS)
@example(UNTESTED_WITNESS)
def test_from_poset_agrees_with_the_pairwise_search(poset):
    elems = poset.elements
    top, bottom = literal_least(poset.down, elems), literal_least(poset.up, elems)
    bound = {(x, y, d): literal_bound(poset, x, y, d)
             for x, y in combinations_with_replacement(elems, 2) for d in ("lub", "glb")}
    # the first bound missing: an element, a top, a bottom, then each pair
    # in combinations order, its lub before its glb
    missing = (((), "element") if not elems else ((), "top") if top is None
               else ((), "bottom") if bottom is None
               else next((((x, y), d) for (x, y, d), b in bound.items() if b is None), None))
    if missing is not None:
        with pytest.raises(NotCompleteLattice) as got:
            FinLattice.from_poset(poset)
        assert (got.value.pair, got.value.direction) == missing
        return
    lat = FinLattice.from_poset(poset)
    assert (lat.top, lat.bottom) == (top, bottom)
    for (x, y, d), b in bound.items():
        op = lat.join if d == "lub" else lat.meet
        assert op(x, y) == op(y, x) == b


@pytest.mark.parametrize("poset, missing", [
    (TWIN_BOWTIE, (("l1", "l2"), "lub")),
    (TWIN_WITNESS, (("u2", "u1"), "glb")),
    (UNTESTED_WITNESS, (("p", "q"), "lub")),
], ids=["bowtie", "twin-witness", "untested-witness"])
def test_from_poset_names_the_first_pair_without_a_bound(poset, missing):
    with pytest.raises(NotCompleteLattice) as got:
        FinLattice.from_poset(poset)
    assert (got.value.pair, got.value.direction) == missing


def test_twins_share_their_strict_up_set_and_down_set():
    # p and q share their strict up-set, not their strict down-set, so
    # they are no twins; u1 and u2 are
    poset = UNTESTED_WITNESS
    pairs = order._twin_pairs(poset._upm, poset._down_masks())
    names = [(poset.elements[i], poset.elements[j]) for i, j in pairs]
    assert names == [("u1", "u2"), *combinations(["p", "q", "u1", "e", "⊥", "⊤"], 2)]


def test_the_accepting_check_tests_as_many_pairs_at_every_bound(monkeypatch):
    tested = []
    plain = order._twin_pairs

    def counting(upm, dnm):
        pairs = plain(upm, dnm)
        tested.append((len(upm), len(pairs)))
        return pairs

    monkeypatch.setattr(order, "_twin_pairs", counting)
    for bound in (16, 256):
        catalog.builtin("signconst_pcgc", bound)
    # ten classes: 45 pairs of them, and one pair in each of the two that
    # hold more than one element
    assert tested == [(40, 47), (520, 47)]


@pytest.mark.parametrize("bound", [
    lambda lat: lat.join("a", "ghost"),
    lambda lat: lat.join("ghost", "a"),
    lambda lat: lat.meet("a", "ghost"),
    lambda lat: lat.meet("ghost", "a"),
    lambda lat: lat.lub(["a", "ghost"]),
    lambda lat: lat.glb(["ghost"]),
], ids=["join-right", "join-left", "meet-right", "meet-left", "lub", "glb"])
@pytest.mark.parametrize("make", [m3, n5])
def test_bounds_of_an_unknown_name_raise_unknown_element(make, bound):
    with pytest.raises(UnknownElement, match="ghost"):
        bound(make())


def ppgc_family(seed: int) -> list:
    """The family of block unions ``gen_ppgc(seed)`` draws, closed under
    intersection on block indices as the generator closed it."""
    rng = random.Random(f"ppgc:{seed}")
    values = [f"a{i}" for i in range(rng.randint(2, 8))]
    blocks = catalog._random_partition(rng, values, 5)
    k = len(blocks)
    family = {frozenset([i]) for i in range(k)} | {frozenset(range(k)), frozenset()}
    for _ in range(rng.randint(0, 3)):
        family.add(frozenset(rng.sample(range(k), rng.randint(1, k))))
    return [frozenset().union(*(blocks[i] for i in ix))
            for ix in literal_closure(family, frozenset.__and__)]


def downsets_family(seed: int) -> list:
    """The downsets ``gen_downsets_gc(seed)`` draws, with the whole carrier."""
    rng = random.Random(f"gc:{seed}")
    n = rng.randint(2, 6)
    values = [f"a{i}" for i in range(n)]
    pairs = [(values[i], values[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    poset = build_poset(values, pairs)
    downsets = by_maximal_elements(poset, literal_downsets(poset))
    return [frozenset(values)] + [ds for ds in downsets if rng.random() < 0.4]


@pytest.mark.parametrize("make, family", [
    (catalog.gen_ppgc, ppgc_family),
    (catalog.gen_downsets_gc, downsets_family),
], ids=["gen_ppgc", "gen_downsets_gc"])
def test_moore_lattices_match_the_closure_loop(make, family):
    for seed in range(500):
        G = make(seed)
        ref = literal_set_family(literal_closure(family(seed), frozenset.__and__))
        assert type(G.abstract) is SetLattice
        assert G.abstract.elements == tuple(x for x, _ in ref)
        assert {x: G.abstract.base.up(x) for x, _ in ref} == supersets(ref)
        assert dict(G.gamma) == dict(ref)


def test_a_moore_lattice_joins_to_the_least_member_above_the_union():
    lat = moore_lattice_of_masks("abc", [0b001, 0b010])
    assert lat.elements == ("{a,b,c}", "{a}", "{b}", "{}")
    assert lat.members == {"{a,b,c}": frozenset("abc"), "{a}": frozenset("a"),
                           "{b}": frozenset("b"), "{}": frozenset()}
    assert lat.join("{a}", "{b}") == lat.lub(["{a}", "{b}"]) == "{a,b,c}"
    assert lat.meet("{a}", "{b}") == "{}"
    with pytest.raises(UnknownElement, match="outside the 3 atoms"):
        moore_lattice_of_masks("abc", [0b1000])


def supersets(ref) -> dict:
    """Each name of ``ref``, (name, members) pairs, to the names of the
    supersets of its members."""
    return {x: frozenset(y for y, t in ref if s <= t) for x, s in ref}


@settings(max_examples=200, deadline=None)
@given(atom_lists(5).flatmap(lambda atoms: st.tuples(
    st.just(atoms), st.permutations(atoms),
    st.lists(st.integers(0, 2 ** len(atoms) - 1), max_size=5))))
@example((["a", "b", "a,b"], ["a,b", "b", "a"], [0b011, 0b100]))
@example((["1", "01", "é"], ["é", "01", "1"], [0b001, 0b010]))
def test_a_moore_lattice_is_built_once_and_agrees_with_the_closure_loop(case):
    atoms, order, masks = case
    family = [frozenset(a for i, a in enumerate(order) if m >> i & 1) for m in masks]
    ref = literal_set_family(literal_closure([frozenset(atoms), *family], frozenset.__and__))
    if len({x for x, _ in ref}) < len(ref):  # two sets share a name
        with pytest.raises(DuplicateElement, match="two subsets are both named"):
            moore_lattice_of_masks(order, masks)
        return
    lat = moore_lattice_of_masks(order, masks)
    assert type(lat) is SetLattice
    assert_lattice_of_sets(lat, ref)
    assert {x: lat.base.up(x) for x, _ in ref} == supersets(ref)
    # the validation the build skips accepts it, and finds the same structure
    checked = FinLattice.from_poset(lat.base)
    assert (checked.top, checked.bottom) == (lat.top, lat.bottom)
    assert checked.join_irreducibles() == lat.join_irreducibles()


def test_a_moore_lattice_refuses_masks_outside_its_atoms():
    for masks in ([0b100], [-1]):
        with pytest.raises(UnknownElement, match="outside the 2 atoms"):
            moore_lattice_of_masks(["a", "b"], masks)


def test_the_generators_build_one_plain_lattice_per_moore_family(monkeypatch):
    # plain: one SetLattice per family, and no validation by from_poset
    built, checked = [], []
    plain_init, plain_from_poset = FinLattice.__init__, FinLattice.from_poset

    def counting_init(self, *args):
        built.append(type(self))
        plain_init(self, *args)

    def counting_from_poset(poset):
        checked.append(poset)
        return plain_from_poset(poset)

    monkeypatch.setattr(FinLattice, "__init__", counting_init)
    monkeypatch.setattr(FinLattice, "from_poset", staticmethod(counting_from_poset))
    for seed in range(40):
        catalog.gen_ppgc(seed)
        catalog.gen_downsets_gc(seed)
    assert checked == []
    assert built == [SetLattice] * 80


# ---------------------------------------------------------------------------
# posets from up-masks, and the one closure worklist


@st.composite
def relation_cases(draw):
    """A relation of :func:`relations`, four sets of its names, and the
    names in another order with some of its pairs, which may or may not
    generate the same order."""
    names, pairs = draw(relations())
    sets = [draw(subsets(names)) for _ in range(4)]
    return names, pairs, sets, (draw(st.permutations(names)), sorted(draw(subsets(pairs))))


@settings(max_examples=600, deadline=None)
@given(relation_cases())
@example((list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], [], ([], [])))
@example((["1", "01", "a,b"], [("01", "a,b"), ("a,b", "1")], [frozenset({"01", "a,b"})],
          (["a,b", "1", "01"], [("01", "a,b")])))
def test_build_poset_agrees_with_the_name_set_closure(case):
    names, pairs, subsets, (relisted, some) = case
    leq = literal_leq(names, pairs)
    cycle = next(((x, y) for i, x in enumerate(names) for y in names[i + 1:]
                  if leq[x, y] and leq[y, x]), None)
    if cycle is not None:
        # the witness is the first pair in element order on one cycle
        with pytest.raises(CycleDetected) as got:
            build_poset(names, pairs)
        assert str(got.value) == f"antisymmetry violated by {cycle[0]!r} and {cycle[1]!r}"
        return
    built = build_poset(names, pairs)
    assert built.elements == tuple(names)
    assert built == FinPoset(names, built._upm)
    # leq, is_discrete, is_down_closed and == over the same element tuple
    # answer on the masks of a fresh copy, decoding no name set; up, down
    # and == over another element order decode them
    poset = FinPoset(names, built._upm)
    assert {(x, y): poset.leq(x, y) for x in names for y in names} == leq
    assert poset.is_discrete() == (leq == literal_leq(names, []))
    for S in subsets:
        assert poset.is_down_closed(S) == all(y in S for x in S for y in names if leq[y, x])
    assert (poset == build_poset(names, some)) == (leq == literal_leq(names, some))
    assert poset._kept.keys() <= {FinPoset._down_masks.__wrapped__}
    assert (poset == build_poset(relisted, some)) == (leq == literal_leq(names, some))
    assert {x: poset.up(x) for x in names} == {
        x: frozenset(y for y in names if leq[x, y]) for x in names}
    assert {x: poset.down(x) for x in names} == {
        x: frozenset(y for y in names if leq[y, x]) for x in names}
    assert_kept_values_are_recomputed(poset)


@st.composite
def poset_pairs(draw):
    """A poset of :func:`posets` and another on the same names, in the same
    order or another: its own order relisted, with a pair taken out or
    not, or a random order."""
    P = draw(posets())
    names = list(P.elements)
    relisted = draw(st.one_of(st.just(names), st.permutations(names)))
    pairs = [(x, y) for x in names for y in names if x != y and P.leq(x, y)]
    if pairs and draw(st.booleans()):
        pairs.remove(draw(st.sampled_from(pairs)))
    Q = draw(st.one_of(st.just(build_poset(relisted, pairs)), named_poset(relisted)))
    return FinPoset(P.elements, P._upm), Q


@settings(max_examples=500, deadline=None)
@given(poset_pairs())
def test_poset_equality_agrees_with_the_name_set_comparison(pair):
    P, Q = pair
    # the same names under the same order: the same up-set of each name
    up = [{x: frozenset(y for y in R.elements if R.leq(x, y)) for x in R.elements}
          for R in (P, Q)]
    assert (P == Q) == (Q == P) == (up[0] == up[1])
    if P.elements == Q.elements:
        # over one element tuple neither side decodes a name set
        assert P._kept.keys() <= {FinPoset._down_masks.__wrapped__}
        assert FinPoset._name_sets.__wrapped__ not in Q._kept


def by_maximal_elements(poset, family) -> list:
    """``family``, sets of the poset's elements, listed by their number of
    maximal elements, then by those elements' positions in sorted order,
    compared in turn."""
    rank = {x: i for i, x in enumerate(sorted_elems(poset.elements))}

    def key(S):
        tops = sorted(rank[x] for x in S if not any(y != x and poset.leq(x, y) for y in S))
        return len(tops), tops
    return sorted(family, key=key)


@settings(max_examples=300, deadline=None)
@given(posets())
def test_iter_downsets_lists_the_literal_downsets_by_their_maximal_elements(poset):
    # breadth first from {}: a downset is first reached by growing the one
    # without its last maximal element by that element's down-set
    assert list(iter_downsets(poset)) == by_maximal_elements(poset, literal_downsets(poset))


# over atoms a, b and a,b the downsets {a, b} and {"a,b"} share a name
COMMA_FREE_POSETS = posets().filter(lambda p: all("," not in x for x in p.elements))


@settings(max_examples=300, deadline=None)
@given(st.one_of(LATTICES, COMMA_FREE_POSETS.map(downsets_lattice)).flatmap(
    lambda lat: st.tuples(st.just(lat), st.lists(st.sampled_from(lat.elements), max_size=5))))
def test_meet_closure_agrees_with_the_pairwise_loop(case):
    lat, members = case
    assert meet_closure(lat, members) == literal_meet_closure(lat, members)
    jirr = sorted(lat.join_irreducibles())
    assert meet_closure(lat, jirr) == literal_meet_closure(lat, jirr)


# One slice of each round trip, as perfbench's ``ordered_op`` and
# ``powerset_op`` run them, counting the joins and lubs of each seed (the
# additivity verdicts are read on the way), and the witness of a 4-cycle.
HASH_SEED_SLICE = """
import json
from galkit import catalog, galois, transforms
from galkit.errors import CycleDetected
from galkit.order import FinLattice, build_poset

joins = lubs = 0
plain_join, plain_lub = FinLattice.join, FinLattice.lub

def counting_join(self, x, y):
    global joins
    joins += 1
    return plain_join(self, x, y)

def counting_lub(self, members):
    global lubs
    lubs += 1
    return plain_lub(self, members)

FinLattice.join, FinLattice.lub = counting_join, counting_lub
counts = []
for seed in range(40):
    joins = lubs = 0
    G = transforms.t_pgc(catalog.gen_cgc(seed, amax=8, bmax=8))
    transforms.t_cgc_of_pgc(G)
    G = catalog.gen_downsets_gc(seed, amax=6)
    P = catalog.gen_ppgc(seed)
    C = transforms.t_cgp(G)
    galois.check_cgp(C)
    galois.precision_cmp(transforms.t_gc(C), G)
    D = transforms.t_pcgc(P)
    galois.check_pcgc(D)
    galois.precision_cmp(transforms.t_ppgc(D), P)
    counts.append([joins, lubs])
try:
    build_poset("abcd", ["ab", "bc", "cd", "da"])
except CycleDetected as exc:
    cycle = str(exc)
print(json.dumps([counts, cycle]))
"""


def test_join_counts_and_cycle_witnesses_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SLICE],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][1] == "antisymmetry violated by 'a' and 'b'"
