"""JSON round trips for domains and operation tables."""
from __future__ import annotations

import json
import re

import pytest

from galkit import catalog, fileio
from galkit.errors import FormatError, ShapeMismatch
from galkit.functions import AbstractFn, ConcreteFn
from galkit.galois import CarrierConn, ClosureOp, GaloisConn, check_cgc
from galkit.order import FinLattice, FinPoset, build_poset
from galkit.setops import FinCarrier
from galkit.transforms import t_cco, t_pgc


def roundtrip(conn):
    return fileio.domain_from_dict(
        json.loads(json.dumps(fileio.domain_to_dict(conn)))
    )


def test_cgc_roundtrip(parity):
    back = roundtrip(parity)
    assert isinstance(back, CarrierConn) and back.kind == "cgc"
    assert back.eta == parity.eta and back.mu == parity.mu
    assert back.carrier.mode == "modular"
    assert check_cgc(back).ok


def test_cgp_roundtrip():
    C = catalog.builtin("plustop_cgp", 8)
    back = roundtrip(C)
    assert back.kind == "cgp"
    assert back.eta == C.eta and back.mu == C.mu
    assert back.abstract_poset.leq("+", "⊤")


def test_pcgc_roundtrip(signconst):
    back = roundtrip(signconst)
    assert back.kind == "pcgc"
    assert back.eta == signconst.eta and back.mu == signconst.mu


def test_gc_roundtrip_small():
    G = catalog.builtin("sign_pgi", 5)
    back = roundtrip(G)
    assert isinstance(back, GaloisConn)
    assert back.gamma == G.gamma
    # the stored table covers every subset at this size
    for X in G.iter_concrete():
        assert back.alpha(X) == G.alpha(X)


def test_gc_roundtrip_large_falls_back_to_derived_alpha(sign_pgi):
    data = fileio.domain_to_dict(sign_pgi)
    # only the empty set and the singletons are stored for large carriers
    assert len(data["alpha"]) == len(sign_pgi.carrier.values) + 1
    back = fileio.domain_from_dict(data)
    assert back.gamma == sign_pgi.gamma
    assert back.alpha(["3", "5"]) == sign_pgi.alpha(["3", "5"])
    assert back.alpha(["-2", "2"]) == sign_pgi.alpha(["-2", "2"])


def test_a_large_ordered_carrier_saves_principal_downsets_and_loads_back():
    # 17 values with a00 <= a01 have 3 * 2^15 downsets, past the guard, so
    # the table falls back to one key per value; {a01} is no downset
    values = [f"a{i:02}" for i in range(17)]
    G = GaloisConn(
        FinCarrier.atoms(values),
        FinLattice.from_poset(build_poset(["lo", "hi"], [("lo", "hi")])),
        {"lo": set(), "hi": set(values)},
        carrier_order=build_poset(values, [("a00", "a01")]))
    data = fileio.domain_to_dict(G)
    back = fileio.domain_from_dict(json.loads(json.dumps(data)))
    assert back.gamma == G.gamma and back.carrier_order == G.carrier_order
    assert list(data["alpha"]) == ["{}", "{a00}", "{a00,a01}", *(f"{{{v}}}" for v in values[2:])]


def test_cco_roundtrip():
    phi = t_cco(catalog.sign_cgc(4))
    back = roundtrip(phi)
    assert isinstance(back, ClosureOp)
    assert back.phi == phi.phi


def test_save_and_load_files(tmp_path, parity):
    path = tmp_path / "parity.json"
    fileio.save_domain(parity, str(path))
    back = fileio.load_domain(str(path))
    assert back.eta == parity.eta

    fpath = tmp_path / "fn.json"
    fn = ConcreteFn(1, {v: v for v in parity.carrier.values})
    fileio.save_fn("concrete", fn, str(fpath))
    over, loaded = fileio.load_fn(str(fpath))
    assert over == "concrete" and loaded.table == fn.table


def test_binary_fn_roundtrip():
    fn = AbstractFn(2, {("a", "b"): "c", ("b", "a"): "c"})
    data = fileio.fn_to_dict("abstract", fn)
    assert data["table"] == {"a,b": "c", "b,a": "c"}
    over, back = fileio.fn_from_dict(data)
    assert over == "abstract" and back.table == fn.table


def test_format_errors():
    with pytest.raises(FormatError):
        fileio.domain_from_dict({"carrier": {"atoms": ["a"]}})
    with pytest.raises(FormatError):
        fileio.domain_from_dict({"kind": "nope", "carrier": {"atoms": ["a"]}})
    with pytest.raises(FormatError):
        fileio.domain_from_dict(
            {
                "kind": "cgc",
                "carrier": {"atoms": ["a"]},
                "abstract": {"elements": ["x"], "leq": []},
                "eta": {"a": "x"},
                "mu": {"x": ["a"]},
                "extra": 1,
            }
        )
    with pytest.raises(FormatError):
        fileio.fn_from_dict({"arity": 3, "over": "concrete", "table": {}})
    with pytest.raises(FormatError):
        fileio.fn_from_dict({"arity": 1, "over": "nope", "table": {}})
    with pytest.raises(FormatError):
        fileio.fn_from_dict(
            {"arity": 2, "over": "concrete", "table": {"a": "b"}}
        )


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        fileio.load_domain(str(path))
    with pytest.raises(FormatError):
        fileio.load_fn(str(path))


def test_alpha_keys_must_be_canonical_subset_strings():
    with pytest.raises(FormatError):
        fileio.domain_from_dict(
            {
                "kind": "gc",
                "carrier": {"atoms": ["a"]},
                "abstract": {"elements": ["x"], "leq": []},
                "alpha": {"a": "x"},
                "gamma": {"x": ["a"]},
            }
        )


@pytest.mark.parametrize("kind, table", [
    ("cgc", "mu"), ("cgc", "eta"), ("pcgc", "mu"), ("gc", "gamma"),
])
def test_loading_rejects_stray_table_keys(kind, table):
    data = {
        "kind": kind,
        "carrier": {"atoms": ["a", "b"]},
        "abstract": {"elements": ["x", "y"], "leq": []},
    }
    if kind == "gc":
        data["abstract"]["leq"] = [["x", "y"]]
        data["alpha"] = {"{}": "x", "{a}": "y", "{b}": "y", "{a,b}": "y"}
        data["gamma"] = {"x": [], "y": ["a", "b"]}
    else:
        data["eta"] = {"a": "x", "b": "y"}
        data["mu"] = {"x": ["a"], "y": ["b"]}
    fileio.domain_from_dict(json.loads(json.dumps(data)))
    data[table]["ghost"] = "x" if table == "eta" else ["a"]
    with pytest.raises(ShapeMismatch, match="ghost"):
        fileio.domain_from_dict(data)


def gc_file(order=()) -> dict:
    """x <= y over the carrier {a, b}, under ``order``, with a partial alpha
    table."""
    return {
        "kind": "gc",
        "carrier": {"atoms": ["a", "b"]},
        "carrier_order": list(order),
        "abstract": {"elements": ["x", "y"], "leq": [["x", "y"]]},
        "alpha": {"{}": "x", "{a}": "y", "{a,b}": "y"},
        "gamma": {"x": [], "y": ["a", "b"]},
    }


@pytest.mark.parametrize("key, value, order, named", [
    ("{a}", "nope", (), "'nope'"),
    ("{c}", "y", (), "'{c}'"),
    ("{b}", "y", (["a", "b"],), "'{b}'"),
], ids=["value-outside-the-abstract-side", "key-outside-the-carrier",
        "key-not-down-closed"])
def test_loading_rejects_alpha_entries_outside_the_domains(key, value, order, named):
    data = gc_file(order)
    fileio.domain_from_dict(json.loads(json.dumps(data)))
    data["alpha"][key] = value
    with pytest.raises(ShapeMismatch, match=re.escape(named)):
        fileio.domain_from_dict(data)


def test_loading_rejects_an_alpha_table_over_split_names(tmp_path):
    # the subset {"a,b"} is saved under the key "{a,b}", which reads back as
    # {a, b}: atoms the carrier does not have
    C = CarrierConn(
        "cgc", FinCarrier.atoms(["a,b", "c1", "c2"]), FinPoset.discrete(["x", "y"]),
        {"a,b": "x", "c1": "y", "c2": "y"}, {"x": {"a,b"}, "y": {"c1", "c2"}},
    )
    path = tmp_path / "pgc.json"
    fileio.save_domain(t_pgc(C), str(path))
    with pytest.raises(ShapeMismatch, match=re.escape("'{a,b}'")):
        fileio.load_domain(str(path))


def cgc_file() -> dict:
    """The discrete connection a -> x, b -> y."""
    return {
        "kind": "cgc",
        "carrier": {"atoms": ["a", "b"]},
        "abstract": {"elements": ["x", "y"], "leq": []},
        "eta": {"a": "x", "b": "y"},
        "mu": {"x": ["a"], "y": ["b"]},
    }


@pytest.mark.parametrize("kind", ["cgp", "pcgc"])
def test_ordered_carrier_files_keep_a_poset_that_is_no_lattice(kind):
    # x and y have no upper bound: the loaded side stays a poset
    data = {**cgc_file(), "kind": kind}
    assert type(fileio.domain_from_dict(data).abstract) is FinPoset
    data["abstract"] = {"elements": ["x", "y"], "leq": [["x", "y"]]}
    lat = fileio.domain_from_dict(data).abstract
    assert isinstance(lat, FinLattice) and (lat.bottom, lat.top) == ("x", "y")


@pytest.mark.parametrize("load, data, field", [
    (fileio.domain_from_dict, {**gc_file(), "abstract": 5}, "abstract"),
    (fileio.domain_from_dict, {**gc_file(), "gamma": []}, "gamma"),
    (fileio.fn_from_dict,
     {"arity": 1, "over": "concrete", "table": {"a": ["x"]}}, "table['a']"),
    (fileio.domain_from_dict, {**cgc_file(), "carrier": {"atoms": 5}},
     "carrier.atoms"),
    (fileio.domain_from_dict,
     {**cgc_file(), "abstract": {"elements": ["x"], "leq": 5}}, "abstract.leq"),
    (fileio.domain_from_dict, {**cgc_file(), "mu": {"x": 5, "y": ["b"]}},
     "mu['x']"),
    (fileio.domain_from_dict, {**gc_file(), "gamma": {"x": [], "y": 5}},
     "gamma['y']"),
    (fileio.domain_from_dict, {**gc_file(), "carrier_order": [5]},
     "carrier_order[0]"),
    (fileio.domain_from_dict,
     {**cgc_file(), "carrier": {"ints": {"lo": "q", "hi": 1, "mode": "saturating"}}},
     "carrier.ints.lo"),
    (fileio.domain_from_dict,
     {**cgc_file(), "abstract": {"elements": ["x", "y"], "leq": [["x"]]}},
     "abstract.leq[0]"),
    (fileio.domain_from_dict, {**cgc_file(), "eta": {"a": ["x"], "b": "y"}},
     "eta['a']"),
    (fileio.domain_from_dict, {**cgc_file(), "mu": {"x": [["a"]], "y": ["b"]}},
     "mu['x'][0]"),
], ids=["abstract", "gamma", "result", "atoms", "leq", "mu-value",
        "gamma-value", "order-pair", "ints-bound", "leq-pair-arity",
        "eta-value", "mu-member"])
def test_malformed_fields_raise_format_errors_naming_them(load, data, field):
    with pytest.raises(FormatError, match=re.escape(field)):
        load(data)


def test_an_ints_carrier_with_a_null_mode_does_not_load():
    data = {**cgc_file(), "carrier": {"ints": {"lo": 0, "hi": 1, "mode": None}}}
    with pytest.raises(ShapeMismatch, match="unknown arithmetic mode None"):
        fileio.domain_from_dict(data)


def ints_file(lo, hi) -> dict:
    return {**cgc_file(), "carrier": {"ints": {"lo": lo, "hi": hi, "mode": "saturating"}}}


@pytest.mark.parametrize("load, data, field", [
    (fileio.fn_from_dict, {"arity": True, "over": "concrete", "table": {}}, "arity"),
    (fileio.fn_from_dict, {"arity": 2.0, "over": "concrete", "table": {}}, "arity"),
    (fileio.domain_from_dict, ints_file(0.9, 1), "carrier.ints.lo"),
    (fileio.domain_from_dict, ints_file(0, True), "carrier.ints.hi"),
    (fileio.domain_from_dict, ints_file(False, 1), "carrier.ints.lo"),
    (fileio.domain_from_dict, ints_file(0, 1.0), "carrier.ints.hi"),
    (fileio.domain_from_dict, ints_file("0", 1), "carrier.ints.lo"),
], ids=["arity-bool", "arity-float", "lo-float", "hi-bool", "lo-bool", "hi-float",
        "lo-string"])
def test_json_booleans_and_non_integers_are_no_integers(load, data, field):
    # Python counts true as 1 and int() truncates 0.9: either would load,
    # and save back as another file
    with pytest.raises(FormatError, match=re.escape(f"{field} must be")):
        load(data)
