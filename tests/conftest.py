import itertools
import os
import sys
from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from ssetkit.forms import PolyForm, QTau  # noqa: E402
from ssetkit.simplicial import (  # noqa: E402
    SimplicialSet,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    quotient,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
)

# Every property test is derandomized and keeps no example database, so a
# run depends on the code alone; each module sets its own max_examples.
settings.register_profile("ssetkit", deadline=None, derandomize=True, database=None)
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


def swapped_delta2(dim_cap=2):
    """The standard 2-simplex with d_0 and d_1 of (0, 1, 2) swapped, which
    breaks d_i d_j = d_{j-1} d_i."""
    d2 = standard_delta(2, dim_cap)

    def face(n, i, t):
        if t == (0, 1, 2) and i < 2:
            i = 1 - i
        return d2.d(n, i, t)

    return SimplicialSet(d2.dim_cap, d2.simplices, face, d2.s)


def with_replaced_entries(x, changes):
    """x with some table entries replaced: changes maps ("d" or "s", n, i,
    simplex) to another listed simplex of the adjacent dimension."""
    return SimplicialSet(
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
