"""Connection extension, curvature, Chern-Weil forms, abelian Chern numbers,
and the numeric extra degeneracy."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssetkit.connections import (
    EdgeGluing,
    LieValuedForm,
    U1BundleData,
    abelian_line,
    bump_factor,
    check_u1_invariants,
    chern_weil_form,
    curvature,
    extra_degeneracy_value,
    face_extend,
    gl,
    horn_connection_fill,
    sl2,
    u1_chern_number,
)
from ssetkit.errors import CompatibilityError, DomainError, ParameterError, StructureError
from ssetkit.forms import PolyForm, TAU, QTau, elementary_whitney
from ssetkit.randomsuite import random_polyform

from conftest import face_map
from oracles import orthant_inject, reference_face_extend, reference_horn_fill


def from_basis(algebra, n, p, coefficients):
    """Sum of basis matrices weighted by PolyForm coefficients."""
    d = algebra.size
    rows = [[PolyForm.zero(n, p) for _ in range(d)] for _ in range(d)]
    for form, mat in zip(coefficients, algebra.basis):
        for i in range(d):
            for j in range(d):
                if mat[i][j]:
                    rows[i][j] = rows[i][j] + form.scale(mat[i][j])
    return LieValuedForm(algebra, n, p, rows)


def rnd_connection(rng, algebra, n, poly_degree=2):
    coeffs = [random_polyform(rng, n, 1, poly_degree, 3) for _ in algebra.basis]
    return from_basis(algebra, n, 1, coeffs)


# -- algebras -------------------------------------------------------------------


def test_algebra_axioms_checked_once():
    """The commutator is antisymmetric and satisfies the Jacobi identity for
    any matrices, so the constructor does not check them; they are checked
    here once, on basis pairs and triples."""
    def add(*ms):
        return tuple(tuple(sum(xs) for xs in zip(*rows)) for rows in zip(*ms))

    for alg in (abelian_line(), sl2(), gl(2)):
        zero = tuple((Fraction(0),) * alg.size for _ in range(alg.size))
        for a in alg.basis:
            for b in alg.basis:
                assert add(alg.bracket(a, b), alg.bracket(b, a)) == zero
                for c in alg.basis:
                    assert add(alg.bracket(a, alg.bracket(b, c)), alg.bracket(b, alg.bracket(c, a)),
                               alg.bracket(c, alg.bracket(a, b))) == zero


def test_sl2_membership():
    alg = sl2()
    assert alg.contains(((0, 1), (1, 0)))
    assert not alg.contains(((1, 0), (0, 1)))  # identity has trace 2


def test_connection_values_in_algebra():
    rng = random.Random(0)
    a = rnd_connection(rng, sl2(), 2)
    assert a.in_algebra()
    assert a.trace().is_zero()


# -- face extension ----------------------------------------------------------------


def test_face_extend_two_face_example():
    f1 = PolyForm.from_raw(1, 0, [(1, (0, 1), ())])
    f2 = PolyForm.zero(1, 0)
    out = face_extend(2, {1: f1, 2: f2})
    assert out.pullback(face_map(2, 1)) == f1
    assert out.pullback(face_map(2, 2)) == f2


def test_face_extend_zero_and_single():
    assert face_extend(3, {i: PolyForm.zero(2, 0) for i in (1, 2, 3)}).is_zero()
    datum = PolyForm.from_raw(2, 0, [(1, (0, 2, 1), ())])
    out = face_extend(3, {2: datum})
    assert out.pullback(face_map(3, 2)) == datum


def test_face_extend_terminates_in_n_steps_for_n_faces():
    rng = random.Random(1)
    n = 3
    base = random_polyform(rng, n, 0, 3, 4)
    data = {i: base.pullback(face_map(n, i)) for i in range(1, n + 1)}
    out = face_extend(n, data)
    for i in data:
        assert out.pullback(face_map(n, i)) == data[i]


def test_face_extend_incompatible_witness():
    with pytest.raises(CompatibilityError) as err:
        face_extend(2, {1: PolyForm.constant(1, 1), 2: PolyForm.constant(1, 0)})
    i, j, _ = err.value.witness
    assert (i, j) == (1, 2)


def test_face_extend_forms_with_differentials():
    rng = random.Random(2)
    base = random_polyform(rng, 3, 1, 2, 4)
    data = {i: base.pullback(face_map(3, i)) for i in (1, 3)}
    out = face_extend(3, data)
    for i in data:
        assert out.pullback(face_map(3, i)) == data[i]


def test_single_face_extension_is_a_retraction():
    """Extending one face datum pulls it back along the retraction onto that
    face, which the face embedding undoes; in orthant coordinates that is the
    constant extension in the face's own coordinate."""
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        i = rng.randint(1, n)
        f = random_polyform(rng, n - 1, rng.randint(0, n - 2), 3, 3)
        out = face_extend(n, {i: f})
        assert out == orthant_inject(f, i, n)
        assert out.pullback(face_map(n, i)) == f


def test_extension_input_checks():
    c = PolyForm.constant
    bad = [
        (face_extend, (2, {})),
        (face_extend, (2, {0: c(1, 1)})),
        (face_extend, (2, {3: c(1, 1)})),
        (face_extend, (2, {1: c(2, 1)})),
        (face_extend, (2, {1: c(1, 1), 2: PolyForm.zero(1, 1)})),
        (horn_connection_fill, (0, 0, {})),
        (horn_connection_fill, (2, 3, {0: c(1, 1)})),
        (horn_connection_fill, (2, 1, {0: c(1, 1)})),
        (horn_connection_fill, (2, 1, {0: c(1, 1), 2: c(2, 1)})),
    ]
    for fill, args in bad:
        with pytest.raises(ParameterError):
            fill(*args)


def test_horn_witness_names_the_given_faces():
    with pytest.raises(CompatibilityError) as err:
        horn_connection_fill(2, 2, {0: PolyForm.constant(1, 1), 1: PolyForm.constant(1, 0)})
    assert err.value.witness[:2] == (0, 1)
    rng = random.Random(5)
    base = random_polyform(rng, 3, 0, 2, 3)
    data = {i: base.pullback(face_map(3, i)) for i in (0, 2, 3)}
    data[0] = data[0] + PolyForm.constant(2, 1)
    with pytest.raises(CompatibilityError) as err:
        horn_connection_fill(3, 1, data)
    i, j, _ = err.value.witness
    assert i < j and {i, j} <= set(data)


# -- face extension and horn filling against the orthant oracle ---------------------

ALGEBRAS = {"abelian": abelian_line(), "sl2": sl2()}


@st.composite
def face_problems(draw, horn):
    """(n, k, data): restrictions of one random form on Delta^n, a PolyForm or
    an abelian or sl2 LieValuedForm, to the faces of a horn missing d_k (horn)
    or to a nonempty subset of the faces d_1..d_n (k = 0); sometimes one datum
    is perturbed, which usually makes the data incompatible."""
    n = draw(st.integers(2, 4))
    p = draw(st.integers(0, n - 1))
    algebra = ALGEBRAS.get(draw(st.sampled_from(("poly", "abelian", "sl2"))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def random_form(m):
        if algebra is None:
            return random_polyform(rng, m, p, 2, 3)
        coeffs = [random_polyform(rng, m, p, 2, 3) for _ in algebra.basis]
        return from_basis(algebra, m, p, coeffs)

    if horn:
        k = draw(st.integers(0, n))
        faces = [i for i in range(n + 1) if i != k]
    else:
        k = 0
        faces = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    base = random_form(n)
    data = {i: base.pullback(face_map(n, i)) for i in faces}
    if draw(st.booleans()):
        i = draw(st.sampled_from(faces))
        data[i] = data[i] + random_form(n - 1)
    return n, k, data


def _outcome(fill, *args):
    try:
        return fill(*args), None
    except CompatibilityError as exc:
        return None, exc.witness


ORACLE_SETTINGS = settings(max_examples=150)


@ORACLE_SETTINGS
@given(face_problems(horn=False))
def test_face_extend_matches_orthant_oracle(problem):
    n, _, data = problem
    assert _outcome(face_extend, n, data) == _outcome(reference_face_extend, n, data)


@ORACLE_SETTINGS
@given(face_problems(horn=True))
def test_horn_fill_matches_transposition_oracle(problem):
    n, k, data = problem
    filled, witness = _outcome(horn_connection_fill, n, k, data)
    expected, reference_witness = _outcome(reference_horn_fill, n, k, data)
    assert filled == expected
    assert (witness is None) == (reference_witness is None)
    if witness is not None:
        # The oracle names faces in the transposed frame; the fill names given ones.
        i, j, _ = witness
        assert i < j and {i, j} <= set(data)


CASES_12 = [
    (alg_name, n, k)
    for alg_name in ("abelian", "sl2")
    for n, k in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (3, 3))
]


@pytest.mark.parametrize("alg_name,n,k", CASES_12)
def test_horn_fill_twelve_case_corpus(alg_name, n, k):
    rng = random.Random(hash((alg_name, n, k)) % 10000)
    alg = abelian_line() if alg_name == "abelian" else sl2()
    base = rnd_connection(rng, alg, n)
    data = {i: base.pullback(face_map(n, i)) for i in range(n + 1) if i != k}
    filled = horn_connection_fill(n, k, data)
    for i in data:
        assert filled.pullback(face_map(n, i)) == data[i]


def test_horn_fill_rejects_incompatible():
    alg = abelian_line()
    w = elementary_whitney(1, (0, 1))
    good = LieValuedForm(alg, 1, 1, [[w]])
    bad = LieValuedForm(alg, 1, 1, [[PolyForm.from_raw(1, 1, [(7, (0, 3), (1,))])]])
    rng = random.Random(4)
    base = rnd_connection(rng, alg, 2)
    data = {1: base.pullback(face_map(2, 1)), 2: base.pullback(face_map(2, 2))}
    # re-fill of consistent data succeeds; corrupting one face may break the corner
    filled = horn_connection_fill(2, 0, data)
    assert filled.pullback(face_map(2, 1)) == data[1]
    with pytest.raises(CompatibilityError):
        face_extend(2, {1: LieValuedForm(alg, 1, 0, [[PolyForm.constant(1, 1)]]),
                        2: LieValuedForm(alg, 1, 0, [[PolyForm.constant(1, 0)]])})


def test_lie_pullback_is_entrywise():
    a = rnd_connection(random.Random(9), sl2(), 2)
    phi = (2, 0, 0, 1)
    pulled = a.pullback(phi)
    assert (pulled.n, pulled.p) == (3, 1)
    for row, pulled_row in zip(a.entries, pulled.entries):
        assert [f.pullback(phi) for f in row] == list(pulled_row)
    for bad in ((), (0, 3)):
        with pytest.raises(ParameterError):
            a.pullback(bad)


# -- curvature and Chern-Weil -----------------------------------------------------------


def test_abelian_curvature_is_dA():
    rng = random.Random(5)
    a = rnd_connection(rng, abelian_line(), 2)
    assert curvature(a) == a.d()


def test_constant_connection_curvature_is_wedge_square():
    const = PolyForm.coordinate(2, 1).d()
    a = from_basis(sl2(), 2, 1, [const, const, PolyForm.zero(2, 1)])
    f = curvature(a)
    assert a.d().is_zero()
    assert f == a.wedge(a)
    # independent expansion: [e + f] against dt1 ^ dt1 = 0, so F = 0 here
    assert f.is_zero()


def test_constant_two_direction_connection():
    a = from_basis(
        sl2(), 2, 1,
        [PolyForm.coordinate(2, 1).d(), PolyForm.coordinate(2, 2).d(), PolyForm.zero(2, 1)],
    )
    f = curvature(a)
    assert not f.is_zero()
    # entries: [e, f] = h against dt1 ^ dt2
    h_entry = f.entries[0][0]
    assert h_entry.terms == {((0, 0), (1, 2)): Fraction(1)}


def bianchi_defect(connection, f=None):
    """dF - (F ^ A - A ^ F); identically zero for a curvature."""
    f = curvature(connection) if f is None else f
    return f.d() - (f.wedge(connection) - connection.wedge(f))


def test_bianchi_exact_random():
    rng = random.Random(6)
    for _ in range(20):
        a = rnd_connection(rng, sl2(), 2)
        assert bianchi_defect(a).is_zero()


def test_chern_weil_closed_and_natural():
    rng = random.Random(7)
    mat = face_map(3, 2)
    for _ in range(20):
        a = rnd_connection(rng, sl2(), 3, poly_degree=1)
        f = curvature(a)
        assert chern_weil_form(f, 1).d().is_zero()
        assert chern_weil_form(f, 2).d().is_zero()
        lhs = chern_weil_form(f, 2).pullback(mat)
        rhs = chern_weil_form(curvature(a.pullback(mat)), 2)
        assert lhs == rhs


def test_chern_weil_above_dimension_zero():
    rng = random.Random(8)
    a = rnd_connection(rng, sl2(), 2)
    assert chern_weil_form(curvature(a), 2).is_zero()


def test_abelian_first_chern_is_dA():
    rng = random.Random(9)
    a = rnd_connection(rng, abelian_line(), 2)
    assert chern_weil_form(curvature(a), 1) == a.d().trace()


# -- abelian Chern numbers ---------------------------------------------------------------


def tetra_bundle(unit_winding=False):
    tris = ["012", "013", "023", "123"]
    ors = {"012": 1, "013": -1, "023": 1, "123": -1}

    def face_edge(t, i):
        return "".join(v for j, v in enumerate(t) if j != i)

    pairs = {}
    for t in tris:
        for i in range(3):
            pairs.setdefault(face_edge(t, i), []).append((t, i))
    zero_p = PolyForm.zero(1, 0)
    zero_a = PolyForm.zero(2, 1)
    if not unit_winding:
        glu = [EdgeGluing(s[0], s[1], False, zero_p, 0) for s in pairs.values()]
        return U1BundleData(tris, ors, {t: zero_a for t in tris}, glu)
    whitney01 = elementary_whitney(2, (0, 1))
    tau_form = PolyForm(2, 1, {k: TAU * c for k, c in whitney01.terms.items()})
    forms = {t: (tau_form if t == "012" else zero_a) for t in tris}
    glu = []
    for e, sides in pairs.items():
        plus, minus = sides
        winding = 0
        if e == "01":
            winding = 1 if plus[0] == "012" else -1
        glu.append(EdgeGluing(plus, minus, False, zero_p, winding))
    return U1BundleData(tris, ors, forms, glu)


def test_trivial_bundle_degree_zero():
    report = u1_chern_number(tetra_bundle())
    assert report.degree == 0
    assert report.total_integral == QTau(0, 0)
    assert report.integral_vertex_sums


def test_unit_winding_degree_one():
    report = u1_chern_number(tetra_bundle(unit_winding=True))
    assert report.degree == 1
    assert report.total_integral == TAU
    assert report.edge_sum == TAU
    nonzero = [v for v in report.vertex_sums.values() if v != QTau(0, 0)]
    assert nonzero == [TAU]  # one full turn of winding around one vertex
    assert report.integral_vertex_sums


def test_orientation_reversal_negates_degree():
    unit = tetra_bundle(unit_winding=True)
    report = u1_chern_number(
        U1BundleData(unit.triangles, {t: -o for t, o in unit.orientations.items()}, unit.forms, unit.gluings))
    assert report.degree == -1


def test_degree_additive_under_disjoint_union():
    a = tetra_bundle(unit_winding=True)
    b = tetra_bundle(unit_winding=True)
    merged = U1BundleData(
        [t + "L" for t in a.triangles] + [t + "R" for t in b.triangles],
        {**{t + "L": o for t, o in a.orientations.items()},
         **{t + "R": o for t, o in b.orientations.items()}},
        {**{t + "L": f for t, f in a.forms.items()},
         **{t + "R": f for t, f in b.forms.items()}},
        [EdgeGluing((g.plus[0] + "L", g.plus[1]), (g.minus[0] + "L", g.minus[1]), g.flip, g.p, g.winding) for g in a.gluings]
        + [EdgeGluing((g.plus[0] + "R", g.plus[1]), (g.minus[0] + "R", g.minus[1]), g.flip, g.p, g.winding) for g in b.gluings],
    )
    assert u1_chern_number(merged).degree == 2


def test_transition_violation_witnessed():
    bundle = tetra_bundle(unit_winding=True)
    broken = [
        EdgeGluing(g.plus, g.minus, g.flip, g.p, g.winding + (1 if g.plus[0] == "023" else 0))
        for g in bundle.gluings
    ]
    with pytest.raises(CompatibilityError) as err:
        u1_chern_number(U1BundleData(bundle.triangles, bundle.orientations, bundle.forms, broken))
    assert err.value.witness.plus[0] == "023"


def test_flipped_edges_pull_back_reversed():
    """Triangle 031 runs its edge 31 against the 13 of triangle 123. The
    exact 1-form d(sum of c_v t_v) agrees across every edge only if the
    flipped edge is pulled back reversed."""
    weights = {"0": 1, "1": 3, "2": 7, "3": 15}
    tris = ["012", "031", "023", "123"]
    ors = {"012": 1, "031": 1, "023": 1, "123": -1}

    def face_edge(t, i):
        return "".join(v for j, v in enumerate(t) if j != i)

    sides = {}
    for t in tris:
        for i in range(3):
            sides.setdefault(frozenset(face_edge(t, i)), []).append((t, i))
    gluings = [EdgeGluing(plus, minus, face_edge(*plus) != face_edge(*minus), PolyForm.zero(1, 0), 0)
               for plus, minus in sides.values()]
    forms = {t: sum((PolyForm.coordinate(2, j).scale(weights[v]) for j, v in enumerate(t)),
                    PolyForm.zero(2, 0)).d() for t in tris}
    bundle = U1BundleData(tris, ors, forms, gluings)
    assert sum(g.flip for g in gluings) == 1
    assert check_u1_invariants(bundle) is None
    assert u1_chern_number(bundle).degree == 0


def test_unglued_face_rejected():
    bundle = tetra_bundle()
    with pytest.raises(StructureError):
        U1BundleData(bundle.triangles, bundle.orientations, bundle.forms, bundle.gluings[:-1])


# -- numeric extra degeneracy ------------------------------------------------------------


def polyform_evaluator(form):
    """Adapter: a degree-1 PolyForm on Delta^n as a float coefficient callable."""
    if form.p != 1:
        raise ParameterError("expected a 1-form")
    n = form.n

    def evaluate(u):
        vals = form.coefficients_at(tuple(float(t) for t in u))
        return tuple(float(vals.get((j,), 0.0)) for j in range(1, n + 1))

    return evaluate


def test_bump_values():
    assert abs(bump_factor(0.0) - 1.0) < 1e-12
    assert abs(bump_factor(0.25) - math.exp(-12)) / math.exp(-12) < 1e-9
    assert bump_factor(0.5) == 0.0
    assert bump_factor(0.75) == 0.0


def test_zero_on_lower_half():
    w = PolyForm.from_raw(1, 1, [(Fraction(3, 2), (0, 1), (1,)), (1, (1, 0), (1,))])
    ev = polyform_evaluator(w)
    rng = random.Random(10)
    for _ in range(50):
        t0 = 0.5 + rng.random() * 0.499
        rest = rng.random() * (1 - t0)
        val = extra_degeneracy_value(ev, 1, (rest, 1 - t0 - rest))
        assert all(v == 0.0 for v in val)


def test_face_zero_identity_sampled():
    w = PolyForm.from_raw(2, 1, [(1, (0, 1, 0), (1,)), (Fraction(1, 3), (0, 0, 2), (2,))])
    ev = polyform_evaluator(w)
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        u = [rng.random(), rng.random()]
        s = sum(u) + rng.random()
        u = [x / max(s, 1e-9) for x in u]
        u0 = 1.0 - sum(u)
        point = (u0,) + tuple(u)
        up = extra_degeneracy_value(ev, 2, point)
        got = tuple(-up[0] + up[j] for j in range(1, 3))
        want = ev(tuple(u))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    assert worst < 1e-9


def test_seam_flatness():
    w = PolyForm.from_raw(1, 1, [(1, (0, 1), (1,))])
    ev = polyform_evaluator(w)
    rng = random.Random(12)
    for _ in range(20):
        t0 = 0.5 - rng.random() * 1e-3
        rest = rng.random() * (1 - t0)
        val = extra_degeneracy_value(ev, 1, (rest, 1 - t0 - rest))
        assert max(abs(v) for v in val) < 1e-300 or all(v == 0.0 for v in val)


def test_apex_domain_error():
    w = PolyForm.from_raw(1, 1, [(1, (0, 1), (1,))])
    ev = polyform_evaluator(w)
    with pytest.raises(DomainError):
        extra_degeneracy_value(ev, 1, (0.0, 0.0))
