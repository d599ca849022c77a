"""JSON serialization of connections and operation tables.

Domain files:
{
  "kind": "cgc" | "cgp" | "pcgc" | "gc" | "cco",
  "carrier": {"ints": {"lo": -8, "hi": 8, "mode": "saturating"}}
             or {"atoms": ["a", "b"]},
  "carrier_order": [["a","b"], ...]        (optional; absent = discrete),
  "abstract": {"elements": [...], "leq": [["x","y"], ...]},
  "eta": {"<concrete>": "<abstract>", ...},
  "mu": {"<abstract>": ["<concrete>", ...], ...}
}
Every name is a JSON string.  Kind "gc" replaces "eta"/"mu" with "alpha"
and "gamma"; kind "cco" replaces them with "phi" and has no
"carrier_order".  Unknown keys are rejected.  "alpha" is keyed by canonical
sorted subset strings, {"{a,b}": "<abstract>", ...}, when every carrier
value is nonempty and holds no ",", "{" or "}"; otherwise it is a list of
[members, value] pairs, [[["a", "b"], "<abstract>"], ...].  The loader
reads both forms.  gamma alone fixes a Galois connection, so each "alpha"
entry must be alpha of its key as gamma gives it, or the load raises
ShapeMismatch.

Function files: {"arity": 1|2, "over": "concrete"|"abstract",
"table": {"<arg>" or "<arg1>,<arg2>": "<result>", ...}}; a binary table
with an empty argument or one that holds ",", "{" or "}" is a list of
[[arg1, arg2], result] pairs instead.
"""
from __future__ import annotations

import json

from .errors import FormatError, NotCompleteLattice, ShapeMismatch, TooLarge
from .functions import AbstractFn, ConcreteFn
from .galois import CarrierConn, ClosureOp, GaloisConn
from .order import FinLattice, FinPoset, build_poset, set_name, sorted_elems
from .setops import FinCarrier

# a name holding one of these makes a joined key ambiguous, as does the
# empty name: {""} and {} are both named "{}"
SEPARATORS = frozenset(",{}")


def _require_keys(obj: dict, required: set, what: str) -> None:
    _require_object(obj, what)
    keys = set(obj)
    if keys != required:
        unknown = keys - required
        missing = required - keys
        parts = []
        if unknown:
            parts.append(f"unknown keys {sorted(unknown)}")
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        raise FormatError(f"{what}: " + ", ".join(parts))


def _require_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be an object, got {type(obj).__name__}")
    return obj


def _require_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise FormatError(f"{what} must be a list, got {type(obj).__name__}")
    return obj


def _name(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise FormatError(f"{what} must be a name, got {type(obj).__name__}")
    return obj


def _name_list(obj, what: str, arity=None) -> list:
    names = [_name(x, f"{what}[{i}]") for i, x in enumerate(_require_list(obj, what))]
    if arity is not None and len(names) != arity:
        raise FormatError(f"{what} must hold {arity} names, got {len(names)}")
    return names


def _pairs(obj, what: str) -> list:
    return [tuple(_name_list(p, f"{what}[{i}]", 2))
            for i, p in enumerate(_require_list(obj, what))]


def _keyed(entries, names, key):
    """``entries``, (members, value) pairs, as an object keyed by
    ``key(members)`` when every name is nonempty and holds no separator,
    so that each key splits back into its members; else as a list of
    [members, value] pairs."""
    if any(not x or SEPARATORS.intersection(x) for x in names):
        return [[list(members), value] for members, value in entries]
    return {key(members): value for members, value in entries}


def _unkeyed(obj, what: str, split, arity=None) -> list:
    """The (members, value) pairs that :func:`_keyed` wrote: an object's
    keys split by ``split``, or a list of [members, value] pairs, each of
    ``arity`` members when given."""
    if not isinstance(obj, list):
        return [(split(k), _name(v, f"{what}[{k!r}]"))
                for k, v in _require_object(obj, what).items()]
    pairs = []
    for i, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"{what}[{i}] must be a [members, value] pair")
        pairs.append((_name_list(pair[0], f"{what}[{i}][0]", arity),
                      _name(pair[1], f"{what}[{i}][1]")))
    return pairs


def _set_table(table: dict, what: str) -> dict:
    return {k: frozenset(_name_list(s, f"{what}[{k!r}]")) for k, s in table.items()}


def _int(obj, what: str) -> int:
    """A JSON integer: not a bool, which Python counts as an int, and not a
    float or a string, which ``int`` would truncate or parse."""
    if type(obj) is not int:
        raise FormatError(f"{what} must be an integer, got {obj!r}")
    return obj


def _parse_carrier(obj) -> FinCarrier:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise FormatError("carrier must be an ints or atoms object")
    if "ints" in obj:
        spec = obj["ints"]
        _require_keys(spec, {"lo", "hi", "mode"}, "carrier.ints")
        return FinCarrier.ints(_int(spec["lo"], "carrier.ints.lo"),
                               _int(spec["hi"], "carrier.ints.hi"), spec["mode"])
    if "atoms" in obj:
        return FinCarrier.atoms(_name_list(obj["atoms"], "carrier.atoms"))
    raise FormatError("carrier must be an ints or atoms object")


def _parse_abstract(obj) -> FinPoset:
    _require_keys(obj, {"elements", "leq"}, "abstract")
    return build_poset(
        _name_list(obj["elements"], "abstract.elements"),
        _pairs(obj["leq"], "abstract.leq"),
    )


def _parse_order(carrier: FinCarrier, pairs) -> FinPoset:
    return build_poset(list(carrier.values), _pairs(pairs, "carrier_order"))


def load_domain(path: str):
    """Read a domain file; returns a CarrierConn, GaloisConn or ClosureOp."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from None
    return domain_from_dict(data)


def domain_from_dict(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("domain object must declare a kind")
    kind = data["kind"]
    base = {"kind", "carrier"}
    optional = set() if kind == "cco" else {"carrier_order"}
    if kind in ("cgc", "cgp", "pcgc"):
        required = base | {"abstract", "eta", "mu"}
    elif kind == "gc":
        required = base | {"abstract", "alpha", "gamma"}
    elif kind == "cco":
        required = base | {"phi"}
    else:
        raise FormatError(f"unknown kind {kind!r}")
    keys = set(data)
    if not required <= keys or keys - required - optional:
        _require_keys(
            {k: None for k in keys - optional}, required, f"kind {kind!r}"
        )
    carrier = _parse_carrier(data["carrier"])
    order = (
        _parse_order(carrier, data["carrier_order"])
        if "carrier_order" in data
        else None
    )
    if kind == "cco":
        phi = _require_object(data["phi"], "phi")
        return ClosureOp(carrier, _set_table(phi, "phi"))
    poset = _parse_abstract(data["abstract"])
    if kind == "gc":
        lat = FinLattice.from_poset(poset)
        gamma = _set_table(_require_object(data["gamma"], "gamma"), "gamma")
        alpha = {frozenset(X): d for X, d in _unkeyed(data["alpha"], "alpha", _split_set)}
        G = GaloisConn(carrier, lat, gamma, carrier_order=order)
        # keys and entries in their domains first; then gamma alone fixes
        # each entry (a key over a value without an atom raises alpha's error)
        for X, d in alpha.items():
            if not X <= carrier.value_set() or (
                    order is not None and not order.is_down_closed(X)):
                raise ShapeMismatch(f"alpha has a key outside the concrete domain: {set_name(X)!r}")
            if d not in poset:
                raise ShapeMismatch(f"alpha({set_name(X)}) = {d!r} not abstract")
        for X, d in alpha.items():
            if (least := G.alpha(X)) != d:
                raise ShapeMismatch(f"alpha({set_name(X)}) = {d!r}, but gamma gives {least!r}")
        return G
    abstract = poset
    if kind in ("cgp", "pcgc"):
        try:
            abstract = FinLattice.from_poset(poset)
        except NotCompleteLattice:
            abstract = poset
    mu = _set_table(_require_object(data["mu"], "mu"), "mu")
    eta = {x: _name(b, f"eta[{x!r}]")
           for x, b in _require_object(data["eta"], "eta").items()}
    return CarrierConn(kind, carrier, abstract, eta, mu, carrier_order=order)


def _split_set(name: str):
    if not (name.startswith("{") and name.endswith("}")):
        raise FormatError(f"{name!r} is not a canonical subset string")
    inner = name[1:-1]
    return inner.split(",") if inner else []


def _carrier_dict(carrier: FinCarrier):
    if carrier.lo is not None:
        return {"ints": {"lo": carrier.lo, "hi": carrier.hi, "mode": carrier.mode}}
    return {"atoms": list(carrier.values)}


def _order_pairs(poset: FinPoset):
    return sorted(
        [x, y] for x in poset.elements for y in poset.up(x) if x != y
    )


def _alpha_entries(conn: GaloisConn) -> dict:
    """Tabulated abstraction, X -> alpha(X).  Exhaustive for small carriers;
    for large ones the table covers the empty set and the principal
    downsets, which the loader checks against gamma as it checks every
    entry."""
    if conn.carrier_order is not None or 2 ** len(conn.carrier) <= 4096:
        try:
            return {X: conn.alpha(X) for X in conn.iter_concrete()}
        except (TooLarge, ShapeMismatch):
            pass
    down = conn.carrier_poset().down
    table = {frozenset(): conn.alpha(())}
    for a in conn.carrier.values:
        table[down(a)] = conn.alpha(down(a))
    return table


def domain_to_dict(conn) -> dict:
    if isinstance(conn, ClosureOp):
        return {
            "kind": "cco",
            "carrier": _carrier_dict(conn.carrier),
            "phi": {a: sorted_elems(s) for a, s in sorted(conn.phi.items())},
        }
    if isinstance(conn, GaloisConn):
        out = {
            "kind": "gc",
            "carrier": _carrier_dict(conn.carrier),
            "abstract": {
                "elements": list(conn.abstract_poset.elements),
                "leq": _order_pairs(conn.abstract_poset),
            },
            "alpha": _keyed(((sorted_elems(X), d) for X, d in _alpha_entries(conn).items()),
                            conn.carrier.values, set_name),
            "gamma": {d: sorted_elems(s) for d, s in sorted(conn.gamma.items())},
        }
        if conn.carrier_order is not None:
            out["carrier_order"] = _order_pairs(conn.carrier_order)
        return out
    if isinstance(conn, CarrierConn):
        out = {
            "kind": conn.kind,
            "carrier": _carrier_dict(conn.carrier),
            "abstract": {
                "elements": list(conn.abstract_poset.elements),
                "leq": _order_pairs(conn.abstract_poset),
            },
            "eta": dict(sorted(conn.eta.items())),
            "mu": {b: sorted_elems(s) for b, s in sorted(conn.mu.items())},
        }
        if conn.carrier_order is not None:
            out["carrier_order"] = _order_pairs(conn.carrier_order)
        return out
    raise FormatError(f"cannot serialize {type(conn).__name__}")


def save_domain(conn, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(domain_to_dict(conn), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# function files


def load_fn(path: str):
    """Read a function file; returns (over, ConcreteFn or AbstractFn)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from None
    return fn_from_dict(data)


def fn_from_dict(data: dict):
    _require_keys(data, {"arity", "over", "table"}, "function file")
    arity = _int(data["arity"], "arity")
    if arity not in (1, 2):
        raise FormatError(f"arity must be 1 or 2, got {arity!r}")
    over = data["over"]
    if over not in ("concrete", "abstract"):
        raise FormatError(f"over must be concrete or abstract, got {over!r}")
    def split(key: str) -> list:
        parts = key.split(",") if arity == 2 else [key]
        if len(parts) != arity:
            raise FormatError(f"binary key {key!r} must be 'a,b'")
        return parts

    table = {args[0] if arity == 1 else tuple(args): result
             for args, result in _unkeyed(data["table"], "table", split, arity)}
    cls = ConcreteFn if over == "concrete" else AbstractFn
    return over, cls(arity, table)


def fn_to_dict(over: str, fn) -> dict:
    """A function file; a binary table is keyed as :func:`_keyed` keys it,
    a unary one by its arguments."""
    if fn.arity == 1:
        table = dict(fn.table)
    else:
        table = _keyed(fn.table.items(), (x for key in fn.table for x in key), ",".join)
    return {"arity": fn.arity, "over": over, "table": table}


def save_fn(over: str, fn, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fn_to_dict(over, fn), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
