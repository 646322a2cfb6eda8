"""Chain complexes, homology with torsion, cup products, Mayer-Vietoris."""

import io
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssetkit.cli import main
from ssetkit.errors import ParameterError, StructureError
from ssetkit.homology import (
    chain_complex,
    cohomology_ring,
    homology,
    induced_map,
    mayer_vietoris,
    unit_class_coords,
)
from ssetkit.io_text import parse_complex
from ssetkit.linalg import Matrix, rank
from ssetkit.simplicial import (
    SimplicialMap,
    circle_two_edges,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    restrict,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
    truncate,
)

from conftest import RATIONALS, fixture_path, fixture_text, map_tables, simplicial_sets, two_part_covers
from oracles import (
    betti_from_matrices,
    dense_rank,
    elementwise_coboundary,
    reference_cup,
    scan_map_violations,
    snf_diagonal,
    triples,
    unnormalized_betti,
)

RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def torus():
    s1 = sphere_quotient(1, 3)
    return product(s1, s1)


def test_delta2_boundary_matrix_entries():
    d2 = standard_delta(2)
    c = chain_complex(d2)
    col = {s: i for i, s in enumerate(c.basis[2])}[(0, 1, 2)]
    rows = {s: i for i, s in enumerate(c.basis[1])}
    # faces in index order 0,1,2 are (1,2), (0,2), (0,1) with signs +,-,+
    assert c.boundary[2][rows[(1, 2)], col] == 1
    assert c.boundary[2][rows[(0, 2)], col] == -1
    assert c.boundary[2][rows[(0, 1)], col] == 1


def test_sphere_quotient_chain_complex():
    s2 = sphere_quotient(2)
    c = chain_complex(s2)
    assert c.dim(1) == 0
    assert c.boundary[2].is_zero()


def test_boundary_delta3_rank():
    c = chain_complex(standard_boundary(3))
    m = c.boundary[2]
    assert (m.nrows, m.ncols) == (6, 4)
    assert rank(m) == 3


def test_homology_examples_against_serialized_snf_oracle():
    cases = [
        (standard_delta(0, 2), (1, 0, 0), {}),
        (standard_boundary(3), (1, 0, 1), {}),
        (simplicial_complex(RP2_FACETS, 3), (1, 0, 0, 0), {1: (2,)}),
        (torus(), (1, 2, 1, 0), {}),
    ]
    for x, betti, torsion in cases:
        c = chain_complex(x)
        summary = homology(c)
        assert summary.betti == betti
        for n, t in torsion.items():
            assert summary.torsion.get(n, ()) == t
        # oracle run on the boundary matrices
        boundaries = {n: triples(c.boundary_or_zero(n)) for n in range(c.top + 2)}
        dims = [c.dim(n) for n in range(c.top + 1)]
        assert betti_from_matrices(dims, boundaries) == betti
        for n in range(c.top + 1):
            entries, nrows, ncols = boundaries[n + 1]
            divisors = [d for d in snf_diagonal(entries, nrows, ncols) if d > 1]
            assert tuple(divisors) == summary.torsion.get(n, ())


@settings(max_examples=100)
@given(st.one_of(simplicial_sets(), st.builds(lambda m, cap: nerve(cyclic_table(m), cap),
                                              st.integers(2, 4), st.integers(1, 3))))
def test_homology_matches_sympy_smith_normal_form_on_random_sets(x):
    """In every degree n, the betti number is dim C_n less the ranks of d_n
    and d_{n+1}, and the torsion is the invariant factors of d_{n+1} above
    1, each read off sympy's Smith normal form of the boundary matrices
    (the nerves of Z/2 to Z/4 give torsion in H_1)."""
    c = chain_complex(x)
    summary = homology(c)
    diagonals = [snf_diagonal(*triples(c.boundary_or_zero(n))) for n in range(c.top + 2)]
    assert len(summary.betti) == len(summary.torsion) == c.top + 1
    for n in range(c.top + 1):
        assert summary.betti[n] == c.dim(n) - len(diagonals[n]) - len(diagonals[n + 1])
        assert summary.torsion[n] == tuple(d for d in diagonals[n + 1] if d > 1)


def test_unnormalized_complex_agrees_below_cap():
    x = torus()
    norm = homology(chain_complex(x)).betti
    unnorm = unnormalized_betti(x)
    # above the cap the unnormalized complex is missing its incoming boundary
    assert norm[: x.dim_cap] == unnorm[: x.dim_cap]


def test_euler_characteristic_matches_betti_sum():
    for x in (standard_boundary(3), simplicial_complex(RP2_FACETS, 3), torus()):
        c = chain_complex(x)
        chi = sum((-1) ** n * len(x.nondegenerate(n)) for n in x.dims())
        assert chi == sum((-1) ** n * c.dim(n) for n in range(c.top + 1))
        betti = homology(c).betti
        assert chi == sum((-1) ** n * b for n, b in enumerate(betti))


@settings(max_examples=50)
@given(simplicial_sets())
def test_chain_complex_boundary_squares_to_zero(x):
    """chain_complex does not multiply out d^2: the simplicial identities,
    which the set's constructor checked, make every product of consecutive
    boundaries zero."""
    c = chain_complex(x)
    for n in range(2, c.top + 1):
        assert (c.boundary[n - 1] @ c.boundary[n]).is_zero()


@settings(max_examples=50)
@given(simplicial_sets())
def test_euler_characteristic_is_the_alternating_betti_sum(x):
    chi = sum((-1) ** n * len(x.nondegenerate(n)) for n in x.dims())
    assert chi == sum((-1) ** n * b for n, b in enumerate(homology(chain_complex(x)).betti))


def elementary_divisors(factors):
    """The prime powers of the cyclic groups Z/t, t in factors, as a sorted
    list: Z/12 is Z/4 + Z/3."""
    return sorted(p ** k for t in factors for p, k in sympy.factorint(t).items())


def torsion_products(a, b):
    """The prime powers of the torsion of A (x) B or of Tor(A, B), both
    the sum of Z/gcd over the pairs of elementary divisors of A and B."""
    return [math.gcd(s, t) for s in a for t in b if math.gcd(s, t) > 1]


@settings(max_examples=25)
@given(simplicial_sets(), simplicial_sets())
@example(nerve(cyclic_table(2), 4), nerve(cyclic_table(2), 4))
@example(nerve(cyclic_table(2), 4), nerve(cyclic_table(3), 4))
def test_kunneth_over_q_for_products(x, y):
    """The integer Kunneth formula for X x Y in every degree below the cap,
    where the truncation leaves the homology exact: the betti numbers are
    the convolution of the factors', and the torsion of H_n is that of
    H_i(X) (x) H_j(Y) over i + j = n plus Tor(H_i(X), H_j(Y)) over
    i + j = n - 1, compared as elementary divisors. N(Z/2) x N(Z/2) at cap
    4 has H_2 = Z/2 and H_3 = (Z/2)^3, one Z/2 of it a Tor term."""
    cap = min(x.dim_cap, y.dim_cap)
    hx, hy, hxy = (homology(chain_complex(z)) for z in (truncate(x, cap), truncate(y, cap), product(x, y, cap)))
    bx, by = hx.betti, hy.betti
    ex, ey = ([elementary_divisors(h.torsion.get(n, ())) for n in range(cap)] for h in (hx, hy))
    for p in range(cap):
        assert hxy.betti[p] == sum(bx[i] * by[p - i] for i in range(p + 1))
        tensor = [t for i in range(p + 1) for t in bx[i] * ey[p - i] + by[p - i] * ex[i]
                  + torsion_products(ex[i], ey[p - i])]
        tor = [t for i in range(p) for t in torsion_products(ex[i], ey[p - 1 - i])]
        assert elementary_divisors(hxy.torsion.get(p, ())) == sorted(tensor + tor)


@pytest.mark.parametrize("name", ["rp2.sset", "torus.sset", "nerve_z3.sset"])
def test_rational_homology_report_is_the_integer_one_without_torsion(name):
    records = {}
    for ring in ("int", "rat"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["homology", "--ring", ring, fixture_path(name)]) == 0
        records[ring] = [ln for ln in out.getvalue().splitlines() if ln.startswith("record ")]
    expected = [ln for ln in records["int"] if not ln.startswith("record torsion.")]
    assert len(expected) < len(records["int"])
    assert [ln.split()[1] for ln in expected] == ["betti", "euler"]
    assert records["rat"] == expected


def test_invalid_input_rejected():
    """Tables that break an identity never become a set, so no chain
    complex, cochain space or de Rham report is computed on them."""
    with pytest.raises(StructureError, match="^simplicial identities fail: ") as err:
        parse_complex(fixture_text("corrupt_identity.sset"))
    assert {name for name, *_ in err.value.violations} == {"d_i d_j = d_{j-1} d_i"}
    for argv in (["homology"], ["ring"], ["derham"], ["derham", "--poly-degree", "1"], ["kan"]):
        with redirect_stdout(io.StringIO()):
            assert main(argv + [fixture_path("corrupt_identity.sset")]) == 2


# -- cohomology ring ---------------------------------------------------------


def cochains(data, cx, p):
    """A random rational degree-p cochain row of the chain complex cx: any
    positions of its basis, none at all included, with values that may be
    explicit zeros."""
    positions = range(len(cx.basis[p]))
    if not positions:
        return {}
    return data.draw(st.dictionaries(st.sampled_from(positions), RATIONALS))


def dense(row, size):
    return [row.get(j, 0) for j in range(size)]


@settings(max_examples=40)
@given(simplicial_sets(), st.data())
def test_cup_matches_the_identifier_walk(x, data):
    cx = chain_complex(x)
    p = data.draw(st.integers(0, x.dim_cap))
    q = data.draw(st.integers(0, x.dim_cap - p))
    # the second pair reads the face positions kept from the first; the rows
    # are sparse, and empty ones are drawn too
    for _ in range(2):
        a, b = cochains(data, cx, p), cochains(data, cx, q)
        assert cx.cup(p, a, q, b) == reference_cup(cx, p, a, q, b)


@settings(max_examples=40)
@given(simplicial_sets(), st.data())
def test_coboundary_matches_the_elementwise_cochain(x, data):
    """ChainComplex.coboundary against oracles.elementwise_coboundary, which
    sums over the faces of each simplex by identifier, read at basis
    positions; it is zero on every representative."""
    cx = chain_complex(x)
    p = data.draw(st.integers(0, x.dim_cap))
    row = cochains(data, cx, p)
    element_wise = elementwise_coboundary(x, p, {cx.basis[p][i]: v for i, v in row.items()})
    values = [element_wise.get(s, 0) for s in cx.basis.get(p + 1, ())]
    expected = {k: v for k, v in enumerate(values) if v}
    assert cx.coboundary(p, row) == expected
    assert not any(cx.coboundary(p, rep) for rep in cx.reps(p))


@settings(max_examples=40)
@given(simplicial_sets(), st.data())
def test_express_refuses_exactly_the_non_cocycles(x, data):
    """Random class combinations plus a random coboundary, and half the time
    a random cochain on top; the coordinates must give back the class. The
    row keeps some explicit zeros, which are ignored, and sometimes has a
    nonzero key off the basis, which makes it no cocycle."""
    cx = chain_complex(x)
    p = data.draw(st.integers(0, x.dim_cap))
    reps, size = cx.reps(p), len(cx.basis[p])
    coeffs = [data.draw(RATIONALS) for _ in reps]
    vec = [sum(c * r.get(j, 0) for c, r in zip(coeffs, reps)) for j in range(size)]
    if p >= 1:
        # the coboundary of u is its combination of the coboundary rows
        u = cochains(data, cx, p - 1)
        rows = cx.boundary_or_zero(p).rows
        vec = [v + sum(c * rows[i].get(j, 0) for i, c in u.items()) for j, v in enumerate(vec)]
    if data.draw(st.booleans()):
        vec = [v + w for v, w in zip(vec, dense(cochains(data, cx, p), size))]
    zeros = data.draw(st.sets(st.sampled_from(range(size)))) if size else set()
    row = {j: v for j, v in enumerate(vec) if v or j in zeros}
    off_basis = data.draw(st.booleans())
    if off_basis:
        row[size + data.draw(st.integers(0, 2))] = data.draw(RATIONALS.filter(bool))
    cocycle = not off_basis and not cx.coboundary(p, row)
    if not cocycle:
        with pytest.raises(ParameterError, match="not a cocycle in degree %d" % p):
            cx.express(p, row)
        return
    coords = cx.express(p, row)
    rest = [v - sum(c * r.get(j, 0) for c, r in zip(coords, reps)) for j, v in enumerate(vec)]
    coboundaries = [[row.get(j, 0) for j in range(size)] for row in cx.boundary_or_zero(p).rows]
    assert dense_rank(coboundaries + [rest], size) == dense_rank(coboundaries, size)


@pytest.mark.parametrize("k", [2, 3])
def test_torus_ring_is_the_exterior_algebra(k):
    """T^k = (S^1)^k: betti numbers k choose p, degree-1 generators that
    anticommute and square to zero, independent products of two, and the
    product of all k spanning the top class."""
    s1 = sphere_quotient(1, k)
    t = s1
    for _ in range(k - 1):
        t = product(t, s1)
    ring = cohomology_ring(t)
    assert ring.betti() == tuple(math.comb(k, p) for p in range(k + 1))
    zero = (Fraction(0),) * math.comb(k, 2)
    for i in range(k):
        assert ring.product(1, i, 1, i) == zero
        for j in range(k):
            assert ring.product(1, i, 1, j) == tuple(-v for v in ring.product(1, j, 1, i))
    pairs = [ring.product(1, i, 1, j) for i in range(k) for j in range(i + 1, k)]
    assert dense_rank(pairs, math.comb(k, 2)) == math.comb(k, 2)
    cx, gens = ring.complex, ring.reps[1]
    top = gens[0]
    for p, g in enumerate(gens[1:], start=1):
        top = cx.cup(p, top, 1, g)
    assert cx.express(k, top) != (Fraction(0),)


def test_boundary_delta3_ring():
    ring = cohomology_ring(standard_boundary(3))
    assert ring.betti() == (1, 0, 1)
    # x cup x lands above the cap; dimension reasons make it zero there
    assert unit_class_coords(ring) == (Fraction(1),)


def test_torus_ring_anticommutes():
    ring = cohomology_ring(torus())
    assert ring.betti() == (1, 2, 1, 0)
    ab = ring.product(1, 0, 1, 1)
    ba = ring.product(1, 1, 1, 0)
    assert ab != (Fraction(0),)
    assert tuple(-v for v in ab) == ba
    assert ring.product(1, 0, 1, 0) == (Fraction(0),)
    assert ring.product(1, 1, 1, 1) == (Fraction(0),)


def test_two_points_ring_idempotents():
    ring = cohomology_ring(simplicial_complex([[0], [1]], 1))
    assert len(ring.reps[0]) == 2
    assert ring.product(0, 0, 0, 0) == (Fraction(1), Fraction(0))
    assert ring.product(0, 1, 0, 1) == (Fraction(0), Fraction(1))
    assert ring.product(0, 0, 0, 1) == (Fraction(0), Fraction(0))


def test_ring_unit_and_associativity_on_basis():
    x = torus()
    ring = cohomology_ring(x)
    cx = ring.complex
    unit = dict.fromkeys(range(len(cx.basis[0])), Fraction(1))
    for p in x.dims():
        for i, rep in enumerate(ring.reps[p]):
            left = cx.cup(0, unit, p, rep)
            assert cx.express(p, left) == cx.express(p, rep)
    # associativity of the table on all basis triples that stay under the cap
    for p in x.dims():
        for q in x.dims():
            for r in x.dims():
                if p + q + r > x.dim_cap:
                    continue
                for i in range(len(ring.reps[p])):
                    for j in range(len(ring.reps[q])):
                        for k in range(len(ring.reps[r])):
                            ab = cx.cup(p, ring.reps[p][i], q, ring.reps[q][j])
                            abc1 = cx.express(
                                p + q + r, cx.cup(p + q, ab, r, ring.reps[r][k])
                            )
                            bc = cx.cup(q, ring.reps[q][j], r, ring.reps[r][k])
                            abc2 = cx.express(
                                p + q + r, cx.cup(p, ring.reps[p][i], q + r, bc)
                            )
                            assert abc1 == abc2


def four_torus():
    s1 = sphere_quotient(1, 4)
    return product(product(s1, s1), product(s1, s1))


def test_graded_commutativity_on_basis():
    """The table keeps the products with p <= q; product gives every ordered
    pair, each equal to the cup product expressed directly, and the two
    orders of a pair differ by the sign (-1)^(pq). On T^4, H^3 times H^1
    gives the odd sign a derived entry."""
    for x in (torus(), four_torus()):
        ring = cohomology_ring(x)
        cx = ring.complex
        assert all(p <= q for p, _, q, _ in ring.table)
        for p in x.dims():
            for q in range(x.dim_cap - p + 1):
                for i, a in enumerate(ring.reps[p]):
                    for j, b in enumerate(ring.reps[q]):
                        coords = ring.product(p, i, q, j)
                        assert coords == cx.express(p + q, cx.cup(p, a, q, b))
                        sign = (-1) ** (p * q)
                        assert tuple(sign * v for v in coords) == ring.product(q, j, p, i)


def test_induced_maps_are_ring_homomorphisms_and_contravariant():
    x = circle_two_edges(2)
    t = product(x, x)
    proj1 = SimplicialMap(t, x, {n: {s: s[0] for s in t.simplices[n]} for n in t.dims()})
    proj2 = SimplicialMap(t, x, {n: {s: s[1] for s in t.simplices[n]} for n in t.dims()})
    assert scan_map_violations(*map_tables(proj1)) == scan_map_violations(*map_tables(proj2)) == []
    st = chain_complex(t)
    rx = cohomology_ring(x)
    rt = cohomology_ring(t)
    for f in (proj1, proj2):
        mats = {p: induced_map(f, p) for p in (0, 1, 2)}
        # multiplicativity on all ordered basis pairs
        for p, i, q, j in ((p, i, q, j) for p in (0, 1, 2) for q in range(3 - p)
                           for i in range(len(rx.reps[p])) for j in range(len(rx.reps[q]))):
            coords = rx.product(p, i, q, j)
            lhs = [Fraction(0)] * max(len(rt.reps[p + q]), 0)
            # f*(a cup b) expressed via the target table
            for k, c in enumerate(coords):
                img = [row.get(k, 0) for row in mats[p + q].rows]
                lhs = [a + c * b for a, b in zip(lhs, img)]
            fa = [row.get(i, 0) for row in mats[p].rows]
            fb = [row.get(j, 0) for row in mats[q].rows]
            va = [Fraction(0)] * len(st.basis[p])
            for k, c in enumerate(fa):
                va = [a + c * b for a, b in zip(va, dense(rt.reps[p][k], len(va)))]
            vb = [Fraction(0)] * len(st.basis[q])
            for k, c in enumerate(fb):
                vb = [a + c * b for a, b in zip(vb, dense(rt.reps[q][k], len(vb)))]
            rhs = st.express(p + q, st.cup(p, dict(enumerate(va)), q, dict(enumerate(vb))))
            assert tuple(lhs) == tuple(rhs)
    # contravariance (g f)* = f* g* on a composable pair
    diag = SimplicialMap(x, t, {n: {s: (s, s) for s in x.simplices[n]} for n in x.dims()})
    assert scan_map_violations(*map_tables(diag)) == []
    comp = proj1.compose(diag)
    for p in (0, 1):
        lhs = induced_map(comp, p)
        mid = induced_map(proj1, p)
        outer = induced_map(diag, p)
        assert lhs == outer @ mid


def test_induced_map_refuses_bad_maps():
    c = circle_two_edges(2)
    d1 = standard_delta(1)
    degenerate_p = c.s(0, 0, "p")
    # both vertices to p and the edge to a, whose face d_0 is q: no map, so
    # induced_map never sees it
    bad = {0: {(0,): "p", (1,): "p"}, 1: {(0, 0): degenerate_p, (0, 1): "a", (1, 1): degenerate_p}}
    with pytest.raises(StructureError, match="^map fails to commute with 1 structure maps$") as err:
        SimplicialMap(d1, c, bad)
    assert err.value.violations == scan_map_violations(d1, c, bad) == [("face", 1, 0, (0, 1))]
    good = SimplicialMap(d1, c, {0: {(0,): "q", (1,): "p"},
                                 1: {(0, 0): c.s(0, 0, "q"), (0, 1): "b", (1, 1): degenerate_p}})
    assert scan_map_violations(*map_tables(good)) == []
    assert induced_map(good, 0).nrows == 1


def test_homotopy_invariance_endpoint_inclusions():
    x = circle_two_edges(2)
    d1 = standard_delta(1, 2)
    cyl = product(x, d1)
    towers = {n: {v: tuple([v] * (n + 1)) for v in (0, 1)} for n in x.dims()}
    incl = {}
    for v in (0, 1):
        incl[v] = SimplicialMap(
            x, cyl, {n: {s: (s, towers[n][v]) for s in x.simplices[n]} for n in x.dims()}
        )
        assert scan_map_violations(*map_tables(incl[v])) == []
    for p in (0, 1):
        assert induced_map(incl[0], p) == induced_map(incl[1], p)


# -- Mayer-Vietoris -----------------------------------------------------------


def test_mv_circle_connecting_rank():
    c = circle_two_edges(2)
    a = close_subcomplex(c, {1: ["a"]})
    b = close_subcomplex(c, {1: ["b"]})
    mv = mayer_vietoris(c, a, b)
    assert mv.betti_x == (1, 1, 0)
    assert mv.betti_ab == (2, 0, 0)
    assert rank(mv.connecting[0]) == 1
    assert mv.exact()


def test_mv_boundary_delta3_star_cover():
    b3 = standard_boundary(3)
    star = close_subcomplex(
        b3, {n: [s for s in b3.nondegenerate(n) if 0 in s] for n in b3.dims()}
    )
    comp = close_subcomplex(
        b3, {n: [s for s in b3.nondegenerate(n) if s not in star.get(n, ())] for n in b3.dims()}
    )
    mv = mayer_vietoris(b3, star, comp)
    assert mv.betti_x == (1, 0, 1)
    assert mv.betti_ab == (1, 1, 0)
    assert mv.exact()


def test_mv_degenerate_cover_splits():
    c = circle_two_edges(2)
    full = {n: frozenset(c.simplices[n]) for n in c.dims()}
    mv = mayer_vietoris(c, full, full)
    assert all(m.is_zero() for m in mv.connecting.values())
    assert mv.exact()


@settings(max_examples=30)
@given(two_part_covers())
def test_mv_is_exact_on_random_two_part_covers(cover):
    """The betti numbers agree with the Smith normal form path, and at every
    node of 0 -> H^0(X) -> ... -> H^cap(A cap B) -> 0 the composite of the
    two maps is zero and rank in + rank out is the dimension of the group,
    from ranks taken here; the certificate's nodes carry these values."""
    x, a, b = cover
    ab = {n: a[n] & b[n] for n in x.dims()}
    mv = mayer_vietoris(x, a, b)
    bx, ba, bb, bab = (homology(chain_complex(z)).betti for z in (x, restrict(x, a), restrict(x, b), restrict(x, ab)))
    assert (mv.betti_x, mv.betti_a, mv.betti_b, mv.betti_ab) == (bx, ba, bb, bab)
    cap = x.dim_cap
    groups, maps = [], [Matrix.zeros(bx[0], 0)]
    for p in range(cap + 1):
        groups += [("H(X)", p, bx[p]), ("H(A)+H(B)", p, ba[p] + bb[p]), ("H(AnB)", p, bab[p])]
        maps += [mv.alpha[p], mv.beta[p], mv.connecting[p] if p < cap else Matrix.zeros(0, bab[cap])]
    expected = []
    for (label, p, dim), incoming, outgoing in zip(groups, maps, maps[1:]):
        assert incoming.nrows == dim == outgoing.ncols
        assert (outgoing @ incoming).is_zero()
        r_in, r_out = rank(incoming), rank(outgoing)
        assert r_in + r_out == dim
        expected.append((label, p, True, r_in, dim - r_out, True))
    assert mv.nodes == expected


def test_mv_passes_each_map_of_the_sequence_to_rank_once(monkeypatch):
    """One rank per map: in mayer_vietoris, and none more in the mv command."""
    seen = []
    monkeypatch.setitem(mayer_vietoris.__globals__, "rank", lambda m: seen.append(m) or rank(m))
    c = circle_two_edges(2)
    mv = mayer_vietoris(c, close_subcomplex(c, {1: ["a"]}), close_subcomplex(c, {1: ["b"]}))
    maps = [*mv.alpha.values(), *mv.beta.values(), *mv.connecting.values()]
    assert len(seen) == len(mv.nodes) == len(maps) + 1
    assert all(sum(m is r for r in seen) == 1 for m in maps)
    seen.clear()
    with redirect_stdout(io.StringIO()):
        assert main(["mv", fixture_path("circle2.sset"), fixture_path("circle2.cover")]) == 0
    assert len(seen) == len(mv.nodes)


def test_mv_cover_condition_names_missing_simplex():
    c = circle_two_edges(2)
    a = close_subcomplex(c, {1: ["a"]})
    with pytest.raises(ParameterError) as err:
        mayer_vietoris(c, a, a)
    assert "b" in str(err.value)
