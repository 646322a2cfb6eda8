"""The subdivision operator, its chain homotopy, and diameter shrinking."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssetkit.errors import ParameterError
from ssetkit.randomsuite import random_affine_simplex, subdivision_suite
from ssetkit.subdivision import (
    AffineChain,
    AffineSimplex,
    boundary,
    cone,
    homotopy,
    iterate_subdivision,
    iterated_diameter,
    standard_affine_simplex,
    subdivide,
)

from oracles import (
    reference_barycenter,
    reference_boundary,
    reference_chain,
    reference_cone,
    reference_diameter_squared,
    reference_homotopy,
    reference_iterate_subdivision,
    reference_iterated_diameter,
    reference_subdivide,
)


def seg(a=0, b=1):
    return AffineSimplex([(a,), (b,)])


def test_boundary_of_segment():
    c = boundary(AffineChain.of(seg()))
    assert c.terms == {AffineSimplex([(1,)]): Fraction(1), AffineSimplex([(0,)]): Fraction(-1)}


def test_boundary_squared_zero():
    tri = AffineSimplex([(0, 0), (1, 0), (0, 1)])
    assert boundary(boundary(AffineChain.of(tri))).is_zero()


def test_boundary_linearity():
    c = AffineChain([(seg(0, 1), Fraction(2)), (seg(1, 2), Fraction(1))])
    b = boundary(c)
    assert b.terms[AffineSimplex([(2,)])] == 1
    assert b.terms[AffineSimplex([(0,)])] == -2
    assert b.terms[AffineSimplex([(1,)])] == 1  # 2 - 1 from the two segments


def test_subdivide_segment_midpoint():
    s = subdivide(AffineChain.of(seg()))
    mid = (Fraction(1, 2),)
    assert s.terms == {
        AffineSimplex([mid, (1,)]): Fraction(1),
        AffineSimplex([mid, (0,)]): Fraction(-1),
    }


def test_subdivide_triangle_six_pieces():
    tri = AffineSimplex([(0, 0), (1, 0), (0, 1)])
    s = subdivide(AffineChain.of(tri))
    assert len(s.terms) == 6
    assert all(abs(c) == 1 for c in s.terms.values())


def test_homotopy_base_cases():
    v = AffineSimplex([(0,)])
    assert homotopy(AffineChain.of(v)).is_zero()
    t = homotopy(AffineChain.of(seg()))
    # one 2-simplex through the midpoint whose boundary telescopes to S - id
    assert t.dimension == 2
    lhs = boundary(t)
    rhs = subdivide(AffineChain.of(seg())) - AffineChain.of(seg())
    assert lhs == rhs


def test_identities_random_exact():
    rng = random.Random(17)
    for n in range(1, 5):
        for _ in range(10):
            c = AffineChain.of(random_affine_simplex(rng, n))
            assert (boundary(subdivide(c)) - subdivide(boundary(c))).is_zero()
            assert boundary(homotopy(c)) + homotopy(boundary(c)) == subdivide(c) - c


def test_augmentation_preserved():
    # S is the identity on 0-chains, so pushing any chain down to points by
    # the boundary and comparing coefficient sums sees no difference.
    rng = random.Random(3)
    for _ in range(20):
        s = random_affine_simplex(rng, rng.randint(1, 3))
        chain = AffineChain.of(s, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        zero_chain = chain
        while zero_chain.dimension and zero_chain.dimension > 0:
            zero_chain = boundary(zero_chain)
        assert subdivide(zero_chain) == zero_chain
    for _ in range(20):
        s = random_affine_simplex(rng, 1)
        c = AffineChain.of(s, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        assert boundary(subdivide(c)) == boundary(c)


def test_diameter_unit_segment():
    assert iterated_diameter(seg(), 1) == Fraction(1, 4)


def test_diameter_identity_iteration():
    tri = standard_affine_simplex(2)
    assert iterated_diameter(tri, 0) == tri.diameter_squared()


def test_diameter_contraction_bound_dims_1_to_3():
    for n in (1, 2, 3):
        s = standard_affine_simplex(n)
        for m in (1, 2):
            got = iterated_diameter(s, m)
            bound = Fraction(n, n + 1) ** (2 * m) * s.diameter_squared()
            assert got <= bound


def test_six_pieces_diameter_enumeration():
    tri = standard_affine_simplex(2)
    chain = iterate_subdivision(tri, 1)
    assert len(chain.terms) == 6
    worst = max(s.diameter_squared() for s in chain.terms)
    assert worst <= Fraction(4, 9) * tri.diameter_squared()


def test_negative_iteration_refused():
    with pytest.raises(ParameterError):
        iterated_diameter(seg(), -1)


def test_suite_runner_reports_pass():
    rng = random.Random(0)
    rows = subdivision_suite(rng, trials=5)
    assert all(passed for _, passed, _ in rows)


def test_cone_boundary_formula():
    rng = random.Random(5)
    for _ in range(10):
        s = random_affine_simplex(rng, 2)
        c = AffineChain.of(s)
        b = (Fraction(1, 3), Fraction(1, 7))
        lhs = boundary(cone(b, c))
        rhs = c - cone(b, boundary(c))
        assert lhs == rhs


def test_cone_refuses_vertex_of_other_ambient_space():
    with pytest.raises(ParameterError):
        cone((Fraction(1, 2),), AffineChain.of(AffineSimplex([(0, 0), (1, 0)])))


# -- integer point keys against the Fraction-point reference ------------------------

DIFFERENTIAL_SETTINGS = settings(max_examples=60)

COORDINATES = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4)))


@st.composite
def point_lists(draw, n=None, ambient=None):
    """n + 1 points in R^ambient: independent draws, or drawn with repeats
    from a smaller pool (a degenerate simplex); ambient may exceed n."""
    n = draw(st.integers(0, 3)) if n is None else n
    ambient = draw(st.integers(0, n + 1)) if ambient is None else ambient
    point = st.lists(COORDINATES, min_size=ambient, max_size=ambient).map(tuple)
    if draw(st.booleans()):
        return draw(st.lists(point, min_size=n + 1, max_size=n + 1))
    pool = draw(st.lists(point, min_size=1, max_size=n + 1))
    return draw(st.lists(st.sampled_from(pool), min_size=n + 1, max_size=n + 1))


@st.composite
def chains(draw, n=None, ambient=None):
    """Multi-term chains with Fraction coefficients, integral or not."""
    n = draw(st.integers(0, 3)) if n is None else n
    ambient = draw(st.integers(0, n + 1)) if ambient is None else ambient
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = draw(st.lists(st.tuples(point_lists(n, ambient), coeffs), min_size=1, max_size=3))
    return AffineChain([(AffineSimplex(points), c) for points, c in terms])


def rewritten(value, k, as_text):
    """value as an equal coordinate of another type or unreduced form."""
    q = Fraction(value)
    if as_text:
        return "%d/%d" % (q.numerator * k, q.denominator * k)
    if q.denominator == 1 and k == 1:
        return int(q)
    return Fraction(q.numerator * k, q.denominator * k)


def assert_exact_and_canonical(chain):
    """Fraction coefficients and points, and keys in lowest terms."""
    assert all(type(c) is Fraction for c in chain.terms.values())
    assert all(type(x) is Fraction for s in chain.terms for p in s.points for x in p)
    assert all(AffineSimplex(s.points).key == s.key for s in chain.terms)


@DIFFERENTIAL_SETTINGS
@given(chains(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_operators_match_reference(chain, q):
    ref = reference_chain(chain)
    pairs = ((subdivide, reference_subdivide), (homotopy, reference_homotopy), (boundary, reference_boundary))
    for op, reference in pairs:
        got = op(chain)
        assert_exact_and_canonical(got)
        assert reference_chain(got) == reference(ref)
    vertex = next(iter(chain.terms)).barycenter() if chain.terms else ()
    got = cone(vertex, chain)
    assert_exact_and_canonical(got)
    assert reference_chain(got) == reference_cone(vertex, ref)
    other = subdivide(chain).scale(q)
    assert_exact_and_canonical(other)
    assert reference_chain(other) == {p: c * q for p, c in reference_subdivide(ref).items() if q}
    for got, sign in ((chain + other, 1), (chain - other, -1)):
        assert_exact_and_canonical(got)
        want = dict(ref)
        for points, c in reference_chain(other).items():
            want[points] = want.get(points, 0) + sign * c
        assert reference_chain(got) == {p: c for p, c in want.items() if c}


@DIFFERENTIAL_SETTINGS
@given(point_lists())
def test_simplex_geometry_matches_reference(points):
    s = AffineSimplex(points)
    ref = tuple(tuple(map(Fraction, p)) for p in points)
    assert s.points == ref
    assert s.barycenter() == reference_barycenter(ref)
    assert all(type(x) is Fraction for x in s.barycenter())
    assert s.diameter_squared() == reference_diameter_squared(ref)
    assert type(s.diameter_squared()) is Fraction
    for p in s.key:
        assert p[0] > 0 and gcd(*p) == 1
    # the table of S(s) holds the points of s and the barycenters of its faces
    for p in subdivide(AffineChain.of(s))._table.points:
        assert p[0] > 0 and gcd(*p) == 1


@DIFFERENTIAL_SETTINGS
@given(st.data())
def test_iterated_subdivision_matches_reference(data):
    points = data.draw(point_lists(data.draw(st.integers(0, 2))))
    m = data.draw(st.integers(0, 2))
    s = AffineSimplex(points)
    ref = tuple(tuple(map(Fraction, p)) for p in points)
    chain = iterate_subdivision(s, m)
    assert_exact_and_canonical(chain)
    assert reference_chain(chain) == reference_iterate_subdivision(ref, m)
    assert iterated_diameter(s, m) == reference_iterated_diameter(ref, m)


@DIFFERENTIAL_SETTINGS
@given(st.data())
def test_equal_points_give_equal_simplices(data):
    points = data.draw(point_lists())
    k = data.draw(st.integers(1, 3))
    as_text = data.draw(st.booleans())
    other = [tuple(rewritten(c, k, as_text) for c in p) for p in points]
    a, b = AffineSimplex(points), AffineSimplex(other)
    assert a == b and hash(a) == hash(b)
    assert a.points == b.points
    assert AffineChain.of(a, Fraction(1, 3)) == AffineChain.of(b, Fraction(2, 6))
    assert subdivide(AffineChain.of(a)) == subdivide(AffineChain.of(b))


# -- int numerators over one denominator -------------------------------------------


def assert_lowest_terms(chain):
    """One positive denominator, coprime to the numerators; every point of
    the vertex table in lowest terms with a positive denominator, under the
    id the index gives it; and the derived terms equal to numerator over
    denominator on the table's points."""
    den, num, points = chain._den, chain._num, chain._table.points
    assert den > 0 and gcd(den, *num.values()) == 1 and all(num.values())
    assert all(p[0] > 0 and gcd(*p) == 1 for p in points)
    assert chain._table.ids == {p: i for i, p in enumerate(points)}
    want = {tuple(points[i] for i in ids): Fraction(v, den) for ids, v in num.items()}
    assert {s.key: c for s, c in chain.terms.items()} == want


@settings(max_examples=30)
@given(chains(), chains(), st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_equal_chains_built_different_ways_compare_equal(a, b, q):
    if b.dimension != a.dimension:
        b = AffineChain()
    for got in (a + b, a - b, a.scale(q), boundary(a), subdivide(a), homotopy(a)):
        assert_lowest_terms(got)
    assert (a + b) - b == a
    assert a.scale(q) + a.scale(1 - q) == a
    assert (a - a).is_zero() and a - a == AffineChain() == a.scale(0)
    assert AffineChain(list(a.terms.items()) + list(b.terms.items())) == a + b
    assert AffineChain([(s, c * 2) for s, c in a.terms.items()]) == a + a
    if q:
        assert a.scale(q).scale(1 / q) == a
    ref = reference_chain(a)
    assert AffineChain([(AffineSimplex(points), c) for points, c in ref.items()]) == a
    assert reference_chain(boundary(a + b)) == reference_chain(boundary(a) + boundary(b))


def test_zero_results_keep_their_degree():
    vertex = AffineChain.of(AffineSimplex([(0,)]))
    assert homotopy(vertex).is_zero() and homotopy(vertex).dimension == 1
    for k in (1, 2):
        zero = AffineChain([], dimension=k)
        assert subdivide(zero).dimension == k
        assert homotopy(zero).dimension == k + 1
        assert boundary(zero).dimension == k - 1
        assert cone((Fraction(1, 2),), zero).dimension == k + 1
        assert all(op(zero).is_zero() for op in (subdivide, homotopy, boundary))


# -- the shared vertex table -----------------------------------------------------


def rebuilt(chain):
    """chain built again from its terms, on a fresh vertex table."""
    return AffineChain(list(chain.terms.items()), dimension=chain.dimension)


@settings(max_examples=40)
@given(st.data())
def test_chains_on_different_tables_agree(data):
    n = data.draw(st.integers(0, 3))
    ambient = data.draw(st.integers(0, n + 1))
    a, b = data.draw(chains(n, ambient)), data.draw(chains(n, ambient))
    fresh = rebuilt(a)
    assert fresh._table is not a._table and fresh == a and a == fresh
    assert (a - fresh).is_zero() and (fresh - a).is_zero()
    for got, sign in ((a + b, 1), (a - b, -1)):
        assert got._table is a._table
        assert_lowest_terms(got)
        want = reference_chain(a)
        for points, c in reference_chain(b).items():
            want[points] = want.get(points, 0) + sign * c
        assert reference_chain(got) == {p: c for p, c in want.items() if c}
    assert (a - b) + b == a and b + (a - b) == a
    assert (a == b) == (b == a) == (reference_chain(a) == reference_chain(b))
    terms = list(a.terms.items())
    if terms:
        # the last term scaled by 2: equal in all but one term
        other = AffineChain(terms[:-1] + [(terms[-1][0], 2 * terms[-1][1])])
        assert other != a and a != other


@settings(max_examples=40)
@given(chains(), chains())
def test_operators_ignore_what_the_table_already_holds(a, b):
    ops = ((subdivide, reference_subdivide), (homotopy, reference_homotopy), (boundary, reference_boundary))
    for op, reference in ops:
        want = reference(reference_chain(b))
        fresh = op(rebuilt(b))
        for op_first in (False, True):
            # b's terms on the table of a copy of a, which already holds the
            # copy's points, barycenters and S and T memos
            host = rebuilt(a)
            subdivide(host), homotopy(host)
            shared = (host - host) + b
            assert shared._table is host._table and shared == b
            if op_first:
                got = op(shared)
                other = op(host)
            else:
                other = op(host)
                got = op(shared)
            assert_lowest_terms(got)
            assert got == fresh and fresh == got
            assert reference_chain(got) == want
            assert reference_chain(other) == reference(reference_chain(a))
