"""Hypothesis strategies and small fixtures shared by the test modules.

Two pools of names: :data:`NAMES`, fixed lists whose structure the
checkers' witnesses depend on (all ints, ints that tie, set-like names),
and :func:`atom_lists`, free atoms that may clash when a set of them is
named.
"""
from __future__ import annotations

from hypothesis import strategies as st

from conftest import downsets_lattice
from oracles import literal_closure

from galkit import catalog
from galkit.galois import CarrierConn, GaloisConn
from galkit.order import FinLattice, FinPoset, SetLattice, build_poset, powerset_lattice, sorted_elems
from galkit.setops import FinCarrier

# names that parse as ints (1, 01 and +1 are equal as ints, so sort_key ties
# them and the stable sort decides), negative ints, plain names, and names
# that look like set names or hold a comma
NAMES = st.sampled_from([
    [str(i) for i in range(8)],
    [str(i) for i in range(-3, 5)],
    ["1", "01", "+1", "2", "x", "y", "-1", "0"],
    [f"b{i}" for i in range(8)],
    ["a", "b", "a,b", "{a}", "1", "01", "{}", "c"],
])

# atoms that tie as ints, hold a comma or a brace, or are not ASCII
ATOMS = st.one_of(
    st.integers(min_value=-12, max_value=12).map(str),
    st.sampled_from(["01", "+1", "10", "1_0", " 10", "-01", "a,b", "{}", "é", "∅", "⊤"]),
    st.text(alphabet="abxy", min_size=1, max_size=2),
    st.text(alphabet="ab{},", min_size=1, max_size=3),
    st.text(max_size=2),
)


@st.composite
def atom_lists(draw, max_size):
    """Up to ``max_size`` distinct atoms, sometimes with one spelled like
    the set of two others: "{x,y}" is then ambiguous."""
    atoms = draw(st.lists(ATOMS, max_size=max_size - 1, unique=True))
    if len(atoms) >= 2 and draw(st.booleans()):
        x, y = sorted_elems(draw(st.permutations(atoms))[:2])
        if f"{x},{y}" not in atoms:
            atoms.append(f"{x},{y}")
    return atoms


def subsets(values):
    """A subset of ``values``, drawn as one int mask: cheaper to draw than
    a set of members."""
    return st.integers(0, (1 << len(values)) - 1).map(
        lambda m: frozenset(v for i, v in enumerate(values) if m >> i & 1))


def sparse(draw, items) -> list:
    """Some of ``items``, about one in four: the common part of two
    subsets."""
    return sorted(draw(subsets(items)) & draw(subsets(items)))


# ---------------------------------------------------------------------------
# orders and lattices


def lattice_of(elements, below) -> FinLattice:
    return FinLattice.from_poset(build_poset(elements, below))


def m3() -> FinLattice:
    return lattice_of(["0", "a", "b", "c", "1"],
                      [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def n5() -> FinLattice:
    return lattice_of(["0", "a", "b", "c", "1"],
                      [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])


@st.composite
def relations(draw, names=NAMES, max_size=8):
    """Up to ``max_size`` names in a random order and random pairs between
    them, along a random ranking (so acyclic) or anywhere (so often
    cyclic)."""
    names = draw(st.permutations(draw(names)[:draw(st.integers(0, max_size))]))
    if not names:
        return names, []
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=12))
    if draw(st.booleans()):
        rank = {x: i for i, x in enumerate(draw(st.permutations(names)))}
        pairs = [(x, y) for x, y in pairs if rank[x] <= rank[y]]
    return names, pairs


@st.composite
def named_poset(draw, names):
    """A random order on ``names``, or M3/N5 renamed, or the discrete one."""
    n = len(names)
    shape = draw(st.sampled_from(["random", "m3n5", "discrete"]))
    if shape == "m3n5" and n >= 5:
        # any names past the fifth stay uncomparable to the rest
        base = draw(st.sampled_from([m3(), n5()])).base
        rename = dict(zip(base.elements, draw(st.permutations(names))))
        return build_poset(
            names,
            [(rename[x], rename[y]) for x in base.elements for y in base.up(x)],
        )
    if shape == "discrete":
        return FinPoset.discrete(names)
    order = draw(st.permutations(range(n)))
    pairs = sparse(draw, [(names[order[i]], names[order[j]])
                          for i in range(n) for j in range(i + 1, n)])
    return build_poset(draw(st.permutations(names)), pairs)


@st.composite
def posets(draw, names=NAMES, min_size=1, max_size=8):
    """A poset of :func:`named_poset` on a drawn list of names, in a random
    order."""
    names = draw(names)[:draw(st.integers(min_size, max_size))]
    return draw(named_poset(draw(st.permutations(names))))


def closure_system(masks, width) -> FinLattice:
    """The lattice of an intersection-closed family of subsets of
    range(width), with the full set added: every finite lattice is one."""
    family = literal_closure([(1 << width) - 1, *masks], int.__and__)
    names = {s: f"s{s}" for s in family}
    return lattice_of(
        list(names.values()),
        [(names[s], names[t]) for s in family for t in family if s & ~t == 0],
    )


def set_family(masks, width) -> SetLattice:
    """The lattice of the union- and intersection-closure of a nonempty
    family of subsets of width atoms; its bottom need not be empty."""
    family = literal_closure(masks, int.__or__, int.__and__)
    return SetLattice([f"b{i}" for i in range(width)], sorted(family))


LATTICES = st.one_of(
    st.integers(0, 4).map(lambda k: powerset_lattice([f"b{i}" for i in range(k)])),
    posets(names=st.just([str(i) for i in range(4)])).map(downsets_lattice),
    st.sampled_from([m3(), n5()]),
    st.lists(st.integers(0, 15), max_size=6).map(lambda ms: closure_system(ms, 4)),
    st.lists(st.integers(0, 15), min_size=1, max_size=4).map(lambda ms: set_family(ms, 4)),
)

# and the Moore lattices of the generators (their abstract sides)
ADDITIVITY_LATTICES = st.one_of(
    LATTICES,
    st.integers(0, 499).map(lambda seed: catalog.gen_ppgc(seed).abstract),
    st.integers(0, 499).map(lambda seed: catalog.gen_downsets_gc(seed, amax=6).abstract),
)


# ---------------------------------------------------------------------------
# connections


@st.composite
def connections(draw, lattices=LATTICES):
    """(carrier, lattice, gamma) with an additive, a nearly additive, an
    arbitrary or a Galois gamma.  Additive gammas are exactly
    gamma(x) = {c | not x <= cap(c)} for some cap: carrier -> lattice;
    Galois ones are gamma(x) = {c | atom(c) <= x} for some atom: carrier ->
    lattice, so that every value has an atom."""
    lat = draw(lattices)
    carrier = FinCarrier.atoms([f"c{i}" for i in range(draw(st.integers(1, 4)))])
    elems = sorted_elems(lat.elements)
    shape = draw(st.sampled_from(["additive", "perturbed", "arbitrary", "galois"]))
    if shape == "arbitrary":
        gamma = {x: draw(subsets(carrier.values)) for x in elems}
        if draw(st.integers(0, 3)):  # mostly past the bottom check
            gamma[lat.bottom] = frozenset()
    elif shape == "galois":
        atom = {c: draw(st.sampled_from(elems)) for c in carrier.values}
        gamma = {x: frozenset(c for c in carrier.values if lat.leq(atom[c], x))
                 for x in elems}
    else:
        cap = {c: draw(st.sampled_from(elems)) for c in carrier.values}
        gamma = {
            x: frozenset(c for c in carrier.values if not lat.leq(x, cap[c]))
            for x in elems
        }
        if shape == "perturbed":
            x = draw(st.sampled_from(elems))
            gamma[x] ^= {draw(st.sampled_from(carrier.values))}
    return carrier, lat, gamma


@st.composite
def gc_conns(draw):
    """A connection from up to five carrier values named from
    :data:`NAMES`, unordered, discretely ordered or (mostly) ordered, into a
    lattice, its elements sometimes renamed from :data:`NAMES` too: a
    Galois connection, gamma(d) = {x | a_x <= d} for a monotone atom map a,
    that connection with up to three memberships flipped, or an arbitrary
    gamma; sometimes over its bare abstract poset, so with no lattice to
    take a lub in."""
    lat = draw(LATTICES)
    if len(lat.elements) <= 8 and draw(st.booleans()):
        rename = dict(zip(lat.elements, draw(st.permutations(draw(NAMES)))))
        lat = lattice_of([rename[x] for x in lat.elements],
                         [(rename[x], rename[y]) for x in lat.elements for y in lat.base.up(x)])
    values = draw(st.permutations(draw(NAMES)))[:draw(st.integers(1, 5))]
    order = draw(st.sampled_from(["none", "discrete", "ordered", "ordered"]))
    if order == "ordered":
        order = draw(named_poset(values))
    else:
        order = FinPoset.discrete(values) if order == "discrete" else None
    elems = sorted_elems(lat.elements)
    shape = draw(st.sampled_from(["gc", "perturbed", "arbitrary"]))
    if shape == "arbitrary":
        gamma = {d: draw(subsets(values)) for d in elems}
    else:
        cap = {x: draw(st.sampled_from(elems)) for x in values}
        below = (order or FinPoset.discrete(values)).down
        atom = {x: lat.lub(cap[y] for y in below(x)) for x in values}
        gamma = {d: frozenset(x for x in values if lat.leq(atom[x], d)) for d in elems}
        for _ in range(draw(st.integers(0, 3)) if shape == "perturbed" else 0):
            gamma[draw(st.sampled_from(elems))] ^= {draw(st.sampled_from(values))}
    abstract = lat.base if draw(st.integers(0, 3)) == 0 else lat
    return GaloisConn(FinCarrier.atoms(values), abstract, gamma, carrier_order=order)


@st.composite
def carrier_conns(draw, values=None):
    """A carrier connection over ``values`` (else some of :data:`NAMES`)
    whose mu is eta's fibres (a CGC), eta's lower preimages (a PCGC), or
    arbitrary; then, sometimes, one membership is flipped, so most cases
    pass or nearly pass.  Its kind is drawn, and it has no carrier order, a
    discrete one or (half the time) one of :func:`named_poset`."""
    values = list(values or draw(NAMES)[:draw(st.integers(1, 6))])
    elements = draw(NAMES)[:draw(st.integers(1, 6))]
    bp = draw(named_poset(elements))
    carrier = FinCarrier.atoms(draw(st.permutations(values)))
    eta = {a: draw(st.sampled_from(elements)) for a in values}
    shape = draw(st.sampled_from(["fibres", "lower", "arbitrary"]))
    if shape == "fibres":
        mu = {b: {a for a in values if eta[a] == b} for b in elements}
    elif shape == "lower":
        mu = {b: {a for a in values if bp.leq(eta[a], b)} for b in elements}
    else:
        mu = {b: set(draw(subsets(values))) for b in elements}
    if draw(st.booleans()):
        mu[draw(st.sampled_from(elements))] ^= {draw(st.sampled_from(values))}
    order = draw(st.one_of(
        st.none(), st.just(FinPoset.discrete(values)), named_poset(values), named_poset(values)))
    return CarrierConn(draw(st.sampled_from(["cgp", "pcgc"])), carrier, bp, eta, mu,
                       carrier_order=order)
