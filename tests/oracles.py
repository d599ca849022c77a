"""The literal definition of each law that a fast path of galkit must agree
with, each written once, for clarity and not for speed.  A test compares a
fast path with the definition here, never with an earlier fast path, and
no definition here calls the fast path it is the oracle of.

Where a definition fixes an order that outputs depend on (element order,
scan order, the first witness), its docstring says so.
"""
from __future__ import annotations

from itertools import combinations, product

from galkit.analyzer import Assign, If, Lit, Skip, Token, Var, While
from galkit.errors import (
    NotCompleteLattice,
    ShapeMismatch,
    UnknownElement,
    UnknownVariable,
    WhileSyntaxError,
)
from galkit.galois import CheckResult, ClassifyReport, GCReport, PCGCReport, prt
from galkit.order import FinLattice, scan_order, set_name, sorted_elems, subsets_by_size
from galkit.setops import PartitionReport, check_partition

# ---------------------------------------------------------------------------
# orders, bounds and closures


def literal_leq(elements, pairs) -> dict:
    """x <= y for every two of ``elements``: the reflexive and transitive
    closure of ``pairs``, by Warshall's rule (x <= y when x <= z <= y for
    some z), keyed by (x, y)."""
    given = set(pairs)
    leq = {(x, y): x == y or (x, y) in given for x in elements for y in elements}
    for z in elements:
        for x in elements:
            if leq[x, z]:
                for y in elements:
                    leq[x, y] = leq[x, y] or leq[z, y]
    return leq


def literal_least(near, S):
    """The least element of S: the one whose up-set ``near(z)`` holds all
    of S (with down-sets, the greatest), or None."""
    S = frozenset(S)
    return next((z for z in S if near(z) >= S), None)


def literal_bound(poset, x: str, y: str, direction: str):
    """The lub (glb) of x and y by definition: the least common upper bound
    (the greatest common lower bound), or None; an unknown name raises."""
    poset.require(x)
    poset.require(y)
    near = poset.up if direction == "lub" else poset.down
    return literal_least(near, near(x) & near(y))


def literal_fold(lat, members, direction: str) -> str:
    """The lub (glb) of ``members``, one member at a time from the bottom
    (the top), raising NotCompleteLattice at the first pair without a
    bound."""
    poset = lat.base
    acc = literal_least(poset.up if direction == "lub" else poset.down, poset.elements)
    for x in members:
        bound = literal_bound(poset, acc, x, direction)
        if bound is None:
            raise NotCompleteLattice((acc, x), direction)
        acc = bound
    return acc


def literal_join_irreducibles(lat) -> frozenset:
    """The elements that differ from the lub of the elements strictly below
    them (so not the bottom, the lub of nothing)."""
    down = lat.base.down
    return frozenset(x for x in lat.elements
                     if literal_fold(lat, (y for y in down(x) if y != x), "lub") != x)


def literal_closure(family, *ops) -> set:
    """The least family that holds ``family`` and is closed under the
    binary ``ops``: add op(s, t) for every pair until nothing is new."""
    closed = set(family)
    changed = True
    while changed:
        changed = False
        for s, t in combinations(list(closed), 2):
            for u in (op(s, t) for op in ops):
                if u not in closed:
                    closed.add(u)
                    changed = True
    return closed


def literal_meet_closure(lat, members) -> set:
    """The least set that holds ``members`` and the top and is closed under
    the glb of two elements."""
    return literal_closure({lat.top, *members}, lambda x, y: literal_bound(lat.base, x, y, "glb"))


def literal_downsets(poset) -> set:
    """Every subset of the poset that holds whatever lies below a member."""
    down = poset.down
    return {S for S in map(frozenset, subsets_by_size(poset.elements))
            if all(down(x) <= S for x in S)}


def literal_set_family(family) -> list:
    """A lattice of sets as (name, members) pairs: each distinct set named
    by ``set_name``, listed by name."""
    return sorted(((set_name(s), s) for s in set(family)), key=lambda pair: pair[0])


def literal_powerset(values) -> list:
    """Every subset of ``values`` as (name, members) pairs, by size, each
    size in combinations order of the sorted values."""
    return [(set_name(c), frozenset(c)) for c in subsets_by_size(sorted_elems(values))]


def literal_completion(G):
    """The disjunctive completion of G by definition: every union of its
    blocks, and every gamma(d)."""
    unions = literal_closure({frozenset(), *prt(G)}, frozenset.__or__)
    return literal_set_family(unions | set(G.gamma.values()))


def assert_lattice_of_sets(lat, ref) -> None:
    """The laws of a lattice of an intersection-closed family: join is the
    least member above the union, meet the intersection, ``lub`` and
    ``glb`` of a pair the same, the order inclusion, top and bottom the
    union and the intersection of all members, the join-irreducibles the
    members that are no join of the members below them; and the element
    order and members are those of ``ref``, (name, members) pairs, unless
    two of its sets share a name."""
    members, elems = lat.members, lat.elements
    assert set(members) == set(elems)
    sets = list(members.values())
    name = {s: x for x, s in members.items()}
    assert len(name) == len(elems)
    assert members[lat.top] == frozenset().union(*sets)
    assert members[lat.bottom] == frozenset.intersection(*sets)

    def least_above(s):
        return name.get(s) or name[frozenset.intersection(*(t for t in sets if s <= t))]

    for x in elems:
        for y in elems:
            join = least_above(members[x] | members[y])
            assert lat.join(x, y) == lat.lub([x, y]) == join
            assert lat.meet(x, y) == lat.glb([x, y]) == name[members[x] & members[y]]
            assert lat.leq(x, y) == (members[x] <= members[y])
    jirr = {x for x in elems if least_above(frozenset().union(
        *(s for s in sets if s < members[x]))) != x}
    assert lat.join_irreducibles() == jirr
    names = [n for n, _ in ref]
    if len(set(names)) == len(names):
        assert elems == tuple(names)
        assert all(members[n] == s for n, s in ref)


# ---------------------------------------------------------------------------
# Galois connections


def literal_additive(G):
    """gamma(bottom) = {} and gamma(x v y) = gamma(x) | gamma(y) for every
    pair, scanned in element order; the first failure is the witness."""
    lat = G.abstract_lattice
    if G.gamma[lat.bottom]:
        return False, (lat.bottom,)
    for x, y in combinations(sorted_elems(lat.elements), 2):
        if G.gamma[lat.join(x, y)] != G.gamma[x] | G.gamma[y]:
            return False, (x, y)
    return True, None


def literal_partition(carrier, blocks) -> PartitionReport:
    """The partition clauses in turn, each block's members visited in
    sorted order."""
    blocks = [frozenset(b) for b in blocks]
    universe = carrier.value_set()
    if not blocks:
        return PartitionReport(False, "cover", None)
    for b in blocks:
        extra = b - universe
        if extra:
            raise UnknownElement(f"block value {next(iter(extra))!r} not in carrier")
        if not b:
            return PartitionReport(False, "empty_block", b)
    seen: dict = {}
    for b in blocks:
        for v in sorted_elems(b):
            if v in seen and seen[v] != b:
                return PartitionReport(False, "overlap", v)
            seen[v] = b
    missing = universe - set(seen)
    if missing:
        return PartitionReport(False, "cover", sorted_elems(missing)[0])
    return PartitionReport(True)


def literal_classify(G) -> ClassifyReport:
    """PGC when prt(G) partitions the carrier and gamma is additive, PPGC
    when only the partition holds; alt2prime when every two uncomparable
    elements join to a gamma of the whole carrier."""
    part = check_partition(G.carrier, prt(G))
    additive, wit = literal_additive(G)
    lat = G.abstract_lattice
    universe = frozenset(G.carrier.values)
    alt2prime = all(
        G.gamma[lat.join(x, y)] == universe
        for x, y in combinations(sorted_elems(lat.elements), 2)
        if not lat.leq(x, y) and not lat.leq(y, x)
    )
    if part.ok and additive:
        return ClassifyReport("PGC", alt2prime, part)
    if part.ok:
        return ClassifyReport("PPGC", alt2prime, part, wit)
    return ClassifyReport("neither", alt2prime, part, part.witness)


def literal_cover(G, X):
    """The least d with X <= gamma(d), or None."""
    return literal_least(G.abstract_poset.up, (d for d in G.abstract_poset.elements
                                               if X <= G.gamma[d]))


def literal_atoms(G) -> dict:
    """x -> a_x for each value x that has an atom: an element whose up-set
    is x's holder set {d | x in gamma(d)}, in carrier order."""
    poset = G.abstract_poset
    atoms = {}
    for x in G.carrier.values:
        holders = frozenset(d for d in poset.elements if x in G.gamma[d])
        a = literal_least(poset.up, holders)
        if a is not None and poset.up(a) == holders:
            atoms[x] = a
    return atoms


def literal_alpha(G, members) -> str:
    """alpha(X), the least gamma-cover of X, which is the lub of its
    members' atoms: defined when every member has an atom and the abstract
    side is a lattice.  Else the first member outside the carrier (in
    sorted order) raises UnknownElement, a member without an atom
    ShapeMismatch, and then a side that is no lattice ShapeMismatch."""
    X = frozenset(members)
    atoms = literal_atoms(G)
    for x in sorted_elems(X - atoms.keys()):
        G.carrier.require(x)
    if not X <= atoms.keys():
        raise ShapeMismatch(f"no best abstraction for {set_name(X)}: not a Galois connection")
    if not isinstance(G.abstract, FinLattice):
        raise ShapeMismatch("abstract side is not a complete lattice")
    return literal_cover(G, X)


def literal_gc(G) -> GCReport:
    """gamma lands in the downsets of the carrier order, then
    alpha(X) <= d <=> X <= gamma(d) for every concrete X and abstract d,
    alpha(X) being the least gamma-cover, scanned pair by pair with X in
    ``iter_concrete`` order and d in element order; alpha onto for
    ``is_gi``; the additivity verdict is :func:`literal_additive`'s."""
    poset = G.abstract_poset
    elems = sorted_elems(poset.elements)
    cp = G.carrier_poset()
    for d in elems:
        if not cp.is_down_closed(G.gamma[d]):
            return GCReport(False, False, False, ("gamma-downclosed", d))
    seen = set()
    for X in G.iter_concrete():
        aX = literal_cover(G, X)
        if aX is None:
            return GCReport(False, False, False, (set_name(X), None))
        seen.add(aX)
        for d in elems:
            if poset.leq(aX, d) != (X <= G.gamma[d]):
                return GCReport(False, False, False, (set_name(X), d))
    return GCReport(True, seen == set(elems), *literal_additive(G))


# ---------------------------------------------------------------------------
# carrier connections


def literal_eta_monotone(C, cp, xs, order):
    """The first ("eta-monotone", x, x2), x in ``order(xs)`` and x2 in
    element order, with x <= x2 in ``cp`` and not eta(x) <= eta(x2),
    scanned pair by pair; or None."""
    bp = C.abstract_poset
    return next((("eta-monotone", x, x2) for x in order(xs) for x2 in sorted_elems(cp.up(x))
                 if not bp.leq(C.eta[x], C.eta[x2])), None)


def literal_cgc(C) -> CheckResult:
    """x in mu(y) <=> eta(x) = y, scanned pair by pair."""
    for x in scan_order(C.carrier.values):
        ex = C.eta[x]
        for y in sorted_elems(C.abstract_poset.elements):
            if (x in C.mu[y]) != (ex == y):
                return CheckResult(False, (x, y))
    return CheckResult(True)


def literal_cgp(C) -> CheckResult:
    """eta and mu monotone, mu downward closed, x in mu(y) <=> eta(x) <= y,
    scanned pair by pair, eta in the carrier order's element order."""
    cp = C.carrier_poset()
    bp = C.abstract_poset
    wit = literal_eta_monotone(C, cp, cp.elements, sorted_elems)
    if wit is not None:
        return CheckResult(False, wit)
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


def literal_pcgc(C) -> PCGCReport:
    """Conditions (1) and (2) and, under a carrier order, eta-monotonicity
    in the carrier's scan order, scanned pair by pair."""
    bp = C.abstract_poset
    values = scan_order(C.carrier.values)
    wit1 = next(
        ((x, C.eta[x2]) for x in values for x2 in values
         if (x in C.mu[C.eta[x2]]) != (C.eta[x] == C.eta[x2])),
        None,
    )
    wit2 = next(
        ((x, y) for x in values for y in sorted_elems(bp.elements)
         if (x in C.mu[y]) != bp.leq(C.eta[x], y)),
        None,
    )
    if wit1 is None and wit2 is None and C.carrier_order is not None:
        wit = literal_eta_monotone(C, C.carrier_order, C.carrier.values, scan_order)
        if wit is not None:
            return PCGCReport(False, True, wit)
    return PCGCReport(wit1 is None, wit2 is None,
                      wit1 if wit1 is not None else wit2)


def literal_precision_cmp(C1, C2) -> str:
    """The precision order as the comparison of the union closures of the
    concretization images, the empty union included."""
    img1, img2 = (literal_closure({frozenset(), *C.mu_image()}, frozenset.__or__)
                  for C in (C1, C2))
    if img1 == img2:
        return "isomorphic"
    if img2 < img1:
        return "strictly_finer"
    if img1 < img2:
        return "strictly_coarser"
    return "incomparable"


def literal_renaming(C1, C2) -> dict:
    """Each eta1(a), keyed in the order of the sorted carrier values a, to
    the first element of C2 in element order whose mu is a's block."""
    elems2 = sorted_elems(C2.abstract_poset.elements)
    return {C1.eta[a]: next(b for b in elems2 if C2.mu[b] == C1.mu[C1.eta[a]])
            for a in sorted_elems(C1.carrier.values)}


# ---------------------------------------------------------------------------
# functions


def literal_image(f, *sets) -> set:
    """f applied to every tuple of the product, one table read each."""
    return {f(*xs) for xs in product(*sets)}


def literal_bca_entry(C, f, *ys) -> str:
    """The lub of eta over the image of the argument concretizations."""
    outs = literal_image(f, *(C.mu[y] for y in ys))
    return C.abstract.lub(C.eta[o] for o in outs)


def literal_backward_complete(C, pair) -> CheckResult:
    """lub eta(f(X⃗)) = f♯(alpha(X⃗)) on every tuple of carrier subsets, the
    subsets listed by size and the tuples in product order, first failure.

    Each lub over a subset is kept in a table indexed by the subset's mask,
    as the lub over the subset less its lowest value joined with that
    value's term, so that a tuple costs one join and one f♯ lookup and all
    4^8 pairs over 8 values fit in the time of a unit test."""
    lat, eta = C.abstract, C.eta
    f, fs = pair.concrete, pair.abstract
    values = sorted_elems(C.carrier.values)
    bit = {v: 1 << i for i, v in enumerate(values)}
    subsets = [(sum(bit[v] for v in c), set_name(c)) for c in subsets_by_size(values)]

    def lubs(term) -> list:
        """lub {term(v) | v in X} for every mask X."""
        out = [lat.bottom]
        for m in range(1, 1 << len(values)):
            low = m & -m
            out.append(lat.join(out[m ^ low], term(values[low.bit_length() - 1])))
        return out

    alpha = lubs(eta.__getitem__)
    if pair.arity == 1:
        left = lubs(lambda x: eta[f(x)])
        for m, X in subsets:
            if left[m] != fs(alpha[m]):
                return CheckResult(False, ((X,), left[m], fs(alpha[m])))
        return CheckResult(True)
    rows = [lubs(lambda y: eta[f(x, y)]) for x in values]
    left = {0: [lat.bottom] * len(alpha)}  # left[m1][m2], filled as m1 is reached
    for m1, X1 in subsets:
        if m1:
            low = m1 & -m1
            left[m1] = list(map(lat.join, left[m1 ^ low], rows[low.bit_length() - 1]))
        for m2, X2 in subsets:
            lhs, rhs = left[m1][m2], fs(alpha[m1], alpha[m2])
            if lhs != rhs:
                return CheckResult(False, ((X1, X2), lhs, rhs))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# while programs


def literal_concrete_run(program, carrier, budget: int, trail: list | None = None) -> dict:
    """The bounded concrete oracle as an AST walk that copies every
    environment it records; ``trail``, when given, also receives each
    observation as a (label, environment) pair, in step order."""
    seen: dict = {}
    steps = 0

    def note(label, env):
        seen.setdefault(label, []).append(dict(env))
        if trail is not None:
            trail.append((label, dict(env)))

    clamp = carrier.clamp_int

    def ev(expr, env):
        if isinstance(expr, Lit):
            return clamp(expr.value)
        if isinstance(expr, Var):
            return env[expr.name]
        l, r = ev(expr.left, env), ev(expr.right, env)
        if expr.op == "+":
            return clamp(l + r)
        if expr.op == "-":
            return clamp(l - r)
        return clamp(l * r)

    def test(cond, env):
        l, r = ev(cond.left, env), ev(cond.right, env)
        return {
            "<": l < r, "<=": l <= r, "=": l == r,
            "!=": l != r, ">": l > r, ">=": l >= r,
        }[cond.op]

    def run(stmts, env):
        nonlocal steps
        for st in stmts:
            if steps >= budget:
                return env, False
            steps += 1
            note(f"L{st.label}", env)
            if isinstance(st, Assign):
                env = dict(env)
                env[st.var] = ev(st.expr, env)
            elif isinstance(st, Skip):
                pass
            elif isinstance(st, If):
                branch = st.then if test(st.cond, env) else st.els
                env, ok = run(branch, env)
                if not ok:
                    return env, False
            elif isinstance(st, While):
                while test(st.cond, env):
                    env, ok = run(st.body, env)
                    if not ok:
                        return env, False
                    if steps >= budget:
                        return env, False
                    steps += 1
                    note(f"L{st.label}", env)
        return env, True

    env, finished = run(program.body, {})
    if finished:
        note("end", env)
    return seen


def literal_abstract_eval(sem, expr, state: dict) -> str:
    """An expression's abstract value by an ``isinstance`` chain: eta of
    a clamped literal, a variable's state, ``op_entry`` of an operation."""
    if isinstance(expr, Lit):
        return sem.domain.eta[sem.domain.carrier.clamp(expr.value)]
    if isinstance(expr, Var):
        if expr.name not in state:
            raise UnknownVariable(f"variable {expr.name!r} has no value")
        return state[expr.name]
    left = literal_abstract_eval(sem, expr.left, state)
    right = literal_abstract_eval(sem, expr.right, state)
    return sem.op_entry(expr.op, left, right)


SYMBOLS = (":=", "<=", ">=", "!=", ";", "{", "}", "(", ")", "+", "-", "*", "<", ">", "=")


def literal_tokenize(text: str) -> list[Token]:
    """The while language's tokens with their 1-based line and column,
    ending in "eof": blanks and ``#`` comments separate tokens; an int is a
    run of decimal digits, with a leading ``-`` when a digit follows and
    the token before is no int, name or ``)``; a name starts with a letter
    or ``_`` and goes on with letters, digits or ``_``; a symbol is the
    longest of :data:`SYMBOLS` that the text goes on with.  Any other
    character is a syntax error at its position."""
    tokens, line, col, i, n = [], 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal() or (
            ch == "-" and i + 1 < n and text[i + 1].isdecimal()
            and (not tokens or tokens[-1].kind not in ("int", "ident")
                 and tokens[-1].text != ")")
        ):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col, i = col + j - i, j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col, i = col + j - i, j
            continue
        sym = max((s for s in SYMBOLS if text.startswith(s, i)), key=len, default=None)
        if sym is None:
            raise WhileSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token("op", sym, line, col))
        col, i = col + len(sym), i + len(sym)
    tokens.append(Token("eof", "", line, col))
    return tokens
