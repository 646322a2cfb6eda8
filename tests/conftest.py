import itertools
import os
import sys
from fractions import Fraction

from hypothesis import assume, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from ssetkit.forms import PolyForm, QTau  # noqa: E402
from ssetkit.io_text import relabel_as_strings  # noqa: E402
from ssetkit.simplicial import (  # noqa: E402
    SimplicialMap,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    quotient,
    restrict,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
    standard_horn,
    truncate,
)
from ssetkit.sheaves import Presheaf  # noqa: E402
from ssetkit.site_corpus import constant_presheaf, representable_to_delta1, vertex_functions  # noqa: E402

# Every property test is derandomized and keeps no example database, so a
# run depends on the code alone; each module sets its own max_examples.
# The "fresh" profile, chosen with --hypothesis-profile=fresh, draws the
# examples from a random seed instead (fix one with --hypothesis-seed=N).
settings.register_profile("ssetkit", deadline=None, derandomize=True, database=None)
settings.register_profile("fresh", deadline=None, derandomize=False, database=None, print_blob=True)
settings.load_profile("ssetkit")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def fixture_text(name):
    with open(fixture_path(name)) as fh:
        return fh.read()


# A .site or .cover fixture is read against the simplicial set it was
# written for.
BASES = {
    "site_path_representable.site": "path.sset",
    "site_two_points_constant.site": "two_points.sset",
    "bd_delta3_star.cover": "bd_delta3.sset",
    "circle2.cover": "circle2.sset",
}


def columns(cap, simplices, face, deg):
    """The raw tables (cap, simplices, faces, degs) the SimplicialSet
    constructor takes, each column read off the function face(n, i, x) or
    deg(n, i, x) one listed simplex at a time."""
    def column(f, n, i):
        return [f(n, i, x) for x in simplices.get(n, ())]

    return (
        cap,
        simplices,
        {(n, i): column(face, n, i) for n in range(1, cap + 1) for i in range(n + 1)},
        {(n, i): column(deg, n, i) for n in range(cap) for i in range(n + 1)},
    )


def tables(x):
    """The raw tables of a set, read through its d and s."""
    return columns(x.dim_cap, x.simplices, x.d, x.s)


def map_tables(f):
    """The raw tables (source, target, level_map) of a map, as the
    SimplicialMap constructor takes them."""
    return f.source, f.target, {n: {s: f(n, s) for s in f.source.simplices[n]} for n in range(f.dim_cap + 1)}


def swapped_delta2(dim_cap=2):
    """The raw tables of the standard 2-simplex with d_0 and d_1 of (0, 1, 2)
    swapped, which break d_i d_j = d_{j-1} d_i."""
    d2 = standard_delta(2, dim_cap)

    def face(n, i, t):
        if t == (0, 1, 2) and i < 2:
            i = 1 - i
        return d2.d(n, i, t)

    return columns(d2.dim_cap, d2.simplices, face, d2.s)


def with_replaced_entries(x, changes):
    """The raw tables of x with some entries replaced: changes maps ("d" or
    "s", n, i, simplex) to another listed simplex of the adjacent dimension."""
    return columns(
        x.dim_cap,
        x.simplices,
        lambda n, i, s: changes.get(("d", n, i, s), x.d(n, i, s)),
        lambda n, i, s: changes.get(("s", n, i, s), x.s(n, i, s)),
    )


def face_map(n, i):
    """Vertex map of the face embedding delta_i : Delta^{n-1} -> Delta^n."""
    return tuple(v for v in range(n + 1) if v != i)


# -- hypothesis strategies shared by the test modules ---------------------------


@st.composite
def simplicial_sets(draw):
    """Random ordered complexes, nerves, products and quotients, caps 1-3."""
    cap = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["complex", "nerve", "product", "quotient"]))
    if kind == "nerve":
        return nerve(cyclic_table(draw(st.integers(1, 3))), cap)
    if kind == "product":
        cap = min(cap, 2)
        left = draw(st.sampled_from([standard_delta(1, cap), nerve(cyclic_table(2), cap)]))
        return product(left, draw(st.sampled_from([standard_boundary(2, cap), sphere_quotient(1, cap)])))
    facets = draw(st.lists(st.sets(st.integers(0, 4), min_size=1, max_size=3), min_size=1, max_size=4))
    x = simplicial_complex(facets, cap)
    if kind == "complex":
        return x
    seeds = draw(st.lists(st.sampled_from(x.simplices[1]), min_size=1, max_size=2))
    return quotient(x, close_subcomplex(x, {1: seeds}))


@st.composite
def two_part_covers(draw, as_strings=False):
    """A set from simplicial_sets(), with its identifiers rendered as strings
    when as_strings, and each nondegenerate simplex put in A, in B or in
    both, each part closed; both parts are nonempty."""
    x = draw(simplicial_sets())
    if as_strings:
        x = relabel_as_strings(x)
    simplices = [(n, s) for n in x.dims() for s in x.nondegenerate(n)]
    sides = draw(st.lists(st.sampled_from(("A", "B", "AB")), min_size=len(simplices), max_size=len(simplices)))
    seeds = {"A": {}, "B": {}}
    for (n, s), side in zip(simplices, sides):
        for part in side:
            seeds[part].setdefault(n, []).append(s)
    assume(seeds["A"] and seeds["B"])
    return x, close_subcomplex(x, seeds["A"]), close_subcomplex(x, seeds["B"])


@st.composite
def small_complexes(draw):
    """Random graphs and 2-complexes on at most five vertices, with a cap
    above their dimension half the time."""
    top = draw(st.integers(1, 2))
    vertices = draw(st.integers(top + 1, 5))
    candidates = list(itertools.combinations(range(vertices), top + 1))
    facets = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))
    facets += [(v,) for v in range(vertices)]
    return simplicial_complex(facets, top + draw(st.integers(0, 1)))


def _delta_family(draw, cap):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["delta", "boundary", "horn"]))
    if kind == "delta":
        return standard_delta(n, cap)
    if kind == "boundary":
        return standard_boundary(n, cap)
    return standard_horn(n, draw(st.integers(0, n)), cap)


@st.composite
def kan_sets(draw):
    """Nerves, products, boundaries, horns, truncations and sphere quotients,
    all small enough to scan."""
    cap = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["nerve", "simplex", "product", "truncation", "sphere"]))
    if kind == "nerve":
        return nerve(cyclic_table(draw(st.integers(1, 3))), cap)
    if kind == "simplex":
        return _delta_family(draw, cap)
    if kind == "product":
        cap = min(cap, 2)
        left = nerve(cyclic_table(draw(st.integers(1, 2))), cap)
        return product(draw(st.sampled_from([left, standard_delta(1, cap)])), _delta_family(draw, cap))
    if kind == "truncation":
        return truncate(nerve(cyclic_table(draw(st.integers(2, 3))), 3), cap)
    return sphere_quotient(draw(st.integers(1, 3)), cap)


def projection(x, y):
    """The projection X x Y -> X."""
    xy = product(x, y)
    return SimplicialMap(xy, x, {n: {s: s[0] for s in xy.simplices[n]} for n in xy.dims()})


def inclusion(sub, x):
    """The inclusion of a set whose simplices are simplices of x."""
    return SimplicialMap(sub, x, {n: {s: s for s in sub.simplices[n]} for n in sub.dims()})


def identity_map(x):
    """The identity X -> X."""
    return inclusion(x, x)


def homomorphism(m, q, image, cap):
    """Nerve of Z/m -> Z/q, a -> a * image mod q (a homomorphism when q | m * image)."""
    source = nerve(cyclic_table(m), cap)
    level = {n: {g: tuple(a * image % q for a in g) for g in source.simplices[n]} for n in source.dims()}
    return SimplicialMap(source, nerve(cyclic_table(q), cap), level)


@st.composite
def kan_maps(draw):
    """Identities of kan_sets, projections, boundary and horn inclusions, and
    nerve homomorphisms."""
    kind = draw(st.sampled_from(["identity", "projection", "inclusion", "homomorphism"]))
    if kind == "identity":
        return identity_map(draw(kan_sets()))
    cap = draw(st.integers(1, 2))
    if kind == "projection":
        return projection(
            draw(st.sampled_from([standard_delta(1, cap), standard_boundary(2, cap)])),
            nerve(cyclic_table(draw(st.integers(1, 2))), cap),
        )
    if kind == "inclusion":
        n = draw(st.integers(1, 3))
        sub = draw(
            st.sampled_from([standard_boundary(n, cap), standard_horn(n, draw(st.integers(0, n)), cap)])
        )
        return inclusion(sub, standard_delta(n, cap))
    m, q, image = draw(st.sampled_from([(4, 2, 1), (2, 4, 2), (3, 3, 2), (2, 2, 0), (3, 1, 0)]))
    return homomorphism(m, q, image, cap)


@st.composite
def corrupted_sets(draw):
    """The raw tables of a drawn set with up to six face or degeneracy entries
    replaced by other listed simplices of the adjacent dimension."""
    x = draw(simplicial_sets())
    changes = {}
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["d", "s"]))
        n = draw(st.integers(1, x.dim_cap) if kind == "d" else st.integers(0, x.dim_cap - 1))
        step = -1 if kind == "d" else 1
        s = draw(st.sampled_from(x.simplices[n]))
        i = draw(st.integers(0, n))
        changes[(kind, n, i, s)] = draw(st.sampled_from(x.simplices[n + step]))
    return with_replaced_entries(x, changes)


@st.composite
def corrupted_maps(draw):
    """Raw (source, target, level_map) tables of identities, projections,
    subcomplex inclusions and nerve homomorphisms with some values replaced
    by other target simplices, and at times one value dropped, one sent to
    an identifier the target does not list, or one key added that is not a
    source simplex of its dimension (at times a negative one, or one above
    the cap, which the map ignores)."""
    kind = draw(st.sampled_from(["identity", "projection", "inclusion", "homomorphism"]))
    if kind == "identity":
        x = draw(simplicial_sets())
        source = target = x
        level = {n: {s: s for s in x.simplices[n]} for n in x.dims()}
    elif kind == "projection":
        cap = draw(st.integers(1, 2))
        target = draw(st.sampled_from([standard_delta(1, cap), standard_boundary(2, cap)]))
        source = product(target, nerve(cyclic_table(draw(st.integers(1, 2))), cap))
        level = {n: {s: s[0] for s in source.simplices[n]} for n in source.dims()}
    elif kind == "inclusion":
        n = draw(st.integers(1, 3))
        target = standard_delta(n, draw(st.integers(max(1, n - 1), 3)))
        source = restrict(target, close_subcomplex(target, {n - 1: [tuple(range(n))]}))
        level = {m: {s: s for s in source.simplices[m]} for m in source.dims()}
    else:
        cap = draw(st.integers(1, 3))
        m, q, image = draw(st.sampled_from([(4, 2, 1), (2, 4, 2), (3, 3, 2), (2, 2, 0)]))
        source, target = nerve(cyclic_table(m), cap), nerve(cyclic_table(q), cap)
        level = {n: {g: tuple(a * image % q for a in g) for g in source.simplices[n]} for n in source.dims()}
    cap = min(source.dim_cap, target.dim_cap)
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, cap))
        level[n][draw(st.sampled_from(source.simplices[n]))] = draw(st.sampled_from(target.simplices[n]))
    fault = draw(st.sampled_from([None, None, "undefined", "unknown", "stray"]))
    if fault == "stray":
        n = draw(st.integers(-1, cap + 1))
        others = [s for m in source.dims() if m != n for s in source.simplices[m]]
        key = draw(st.sampled_from(["not a simplex"] + others))
        level.setdefault(n, {})[key] = draw(st.sampled_from(target.simplices[min(max(n, 0), cap)]))
    elif fault is not None:
        n = draw(st.integers(0, cap))
        s = draw(st.sampled_from(source.simplices[n]))
        if fault == "undefined":
            del level[n][s]
        else:
            level[n][s] = "not a simplex"
    return source, target, level


@st.composite
def finite_sites(draw):
    """(base, objects, covers) of a random finite site on a small ordered
    complex. The objects are two to four generated subcomplexes, each
    reaching a simplex outside the ones before while any is left, unions of
    some of them (at times of two disjoint ones, so that the empty
    subcomplex is the meet of two covering members) and every intersection,
    the empty one kept only at times;
    some values get a second name, and some objects leave out dimensions
    in which they are empty or list an empty one above the cap. Each union
    is covered by its generators, or at times, for three or more, by the
    first and the union of the rest, itself covered by the rest, and most
    sites also get a tower: the union of the first k + 1 generators covered
    by the union of the first k and generator k + 1. So covers compose; other
    covers are drawn from the objects below. The derandomized draw favours
    the first choice of sampled_from, so the likelier counts and branches
    are listed first."""
    facets = draw(st.lists(st.sets(st.integers(0, 4), min_size=1, max_size=3), min_size=1, max_size=4))
    base = simplicial_complex(facets, draw(st.integers(1, 2)))
    simplices = [(n, s) for n in base.dims() for s in base.simplices[n]]

    def value(sub):
        return tuple(sub[n] for n in base.dims())

    def union(vs):
        return tuple(frozenset().union(*levels) for levels in zip(*vs))

    generators = []
    for _ in range(draw(st.sampled_from([3, 2, 4]))):
        seen = union(generators) if generators else None
        fresh = [(n, s) for n, s in simplices if seen is None or s not in seen[n]]
        seeds = {}
        for n, s in draw(st.lists(st.sampled_from(fresh or simplices), min_size=1, max_size=2)):
            seeds.setdefault(n, []).append(s)
        generators.append(value(close_subcomplex(base, seeds)))
    values = list(dict.fromkeys(generators))
    unions = []
    groups = draw(st.lists(st.sets(st.sampled_from(range(len(generators))), min_size=2), max_size=3))
    disjoint = [
        {i, j}
        for i, j in itertools.combinations(range(len(generators)), 2)
        if not any(x & y for x, y in zip(generators[i], generators[j]))
    ]
    if disjoint and draw(st.booleans()):
        groups.append(draw(st.sampled_from(disjoint)))
    for group in groups:
        members = [generators[i] for i in sorted(group)]
        if len(members) > 2 and draw(st.booleans()):
            rest = union(members[1:])
            unions.append((rest, members[1:]))
            values.append(rest)
            members = [members[0], rest]
        unions.append((union(members), members))
        values.append(unions[-1][0])
    if draw(st.sampled_from([True, True, False])):
        tower = generators[0]
        for b in generators[1:]:
            up = union([tower, b])
            if up not in (tower, b):
                unions.append((up, [tower, b]))
                values.append(up)
            tower = up
    closed = False
    while not closed:
        meets = [tuple(x & y for x, y in zip(a, b)) for a in values for b in values]
        closed = all(m in values for m in meets)
        values = list(dict.fromkeys(values + meets))
    if not draw(st.booleans()):
        values = [v for v in values if any(v)]
    labels = draw(st.permutations(range(len(values) + 2)))
    named = [("U%d" % labels[i], v) for i, v in enumerate(values)]
    for i in range(2):
        if draw(st.booleans()):
            named.append(("U%d" % labels[len(values) + i], draw(st.sampled_from(values))))
    objects = {}
    for name, v in named:
        sub = dict(zip(base.dims(), v))
        edit = draw(st.sampled_from(["none", "drop empty", "add empty"]))
        if edit == "drop empty":
            sub = {n: members for n, members in sub.items() if members}
        elif edit == "add empty":
            sub[base.dim_cap + 1] = frozenset()
        objects[name] = sub
    first = {}
    for name, v in named:
        first.setdefault(v, name)
    covers = {}
    for v, members in unions:
        if v in first:
            covers.setdefault(first[v], []).append(tuple(first[m] for m in members))
    for name, v in draw(st.lists(st.sampled_from(named), max_size=3)):
        below = [m for m, w in named if all(x <= y for x, y in zip(w, v))]
        fam = draw(st.lists(st.sampled_from(below), min_size=1, max_size=3))
        if union(dict(named)[m] for m in fam) == v:
            covers.setdefault(name, []).append(tuple(fam))
    return base, objects, covers


@st.composite
def site_presheaves(draw, site):
    """A presheaf on site: constant, vertex functions or maps to Delta^1, at
    times cut down to sections closed under restriction, and at times with
    extra sections that restrict like a given section of their object (so
    the result need not be separated)."""
    kind = draw(st.sampled_from(["constant", "vertex", "representable"]))
    if kind == "constant":
        start = constant_presheaf(site, ["a%d" % i for i in range(draw(st.integers(1, 3)))])
    elif kind == "vertex":
        start = vertex_functions(site)
    else:
        start = representable_to_delta1(site)
    arrows = site.arrows()
    sections = {name: list(start.sections[name]) for name in site.names()}
    if draw(st.booleans()):
        chosen = {name: set(draw(st.lists(st.sampled_from(ss), max_size=3))) if ss else set()
                  for name, ss in sections.items()}
        kept = {name: set(chosen[name]) for name in chosen}
        for a, b in arrows:
            kept[b] |= {start.restrict(a, b, s) for s in chosen[a]}
        sections = {name: [s for s in ss if s in kept[name]] for name, ss in sections.items()}
    restrictions = {(a, b): {s: start.restrict(a, b, s) for s in sections[a]} for a, b in arrows}
    # an object with a second name restricts to it and back, so it gets none
    alone = [a for a in site.names() if not any(b != a and site.leq(a, b) for b in site.names() if site.leq(b, a))]
    for k in range(draw(st.integers(0, 3)) if alone else 0):
        name = draw(st.sampled_from(alone))
        if not sections[name]:
            continue
        like = draw(st.sampled_from(sections[name]))
        sections[name].append("g%d" % k)
        for a, b in arrows:
            if a == name:
                restrictions[(a, b)]["g%d" % k] = restrictions[(a, b)][like]
    return Presheaf(site, sections, restrictions)


@st.composite
def forms(draw, n=None, p=None, tau=True):
    """Forms on Delta^n with Fraction or, if tau, possibly QTau coefficients."""
    n = draw(st.integers(0, 3)) if n is None else n
    p = draw(st.integers(0, n)) if p is None else p
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    scalars = st.builds(QTau, fractions, fractions) if tau and draw(st.booleans()) else fractions
    monomials = st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
        st.sampled_from(list(itertools.combinations(range(1, n + 1), p))),
    )
    return PolyForm(n, p, draw(st.lists(st.tuples(monomials, scalars), max_size=4)))


# Mostly zeros, so rows and columns are sparse and often entirely zero.
INTEGERS = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 6])
RATIONALS = st.one_of(INTEGERS, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrices(draw, entries=RATIONALS, max_rows=6, max_cols=7, nrows=None, ncols=None):
    """(dense rows, ncols); nrows or ncols fixes that dimension."""
    if ncols is None:
        ncols = draw(st.integers(0, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    if nrows is None:
        return draw(st.lists(row, max_size=max_rows)), ncols
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols
