"""Polynomial forms: canonicalization, calculus, integration, Whitney forms,
and the integration comparison map."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssetkit.errors import CompatibilityError, ParameterError
from ssetkit.forms import (
    FormField,
    PolyForm,
    QTau,
    TAU,
    _collect,
    _d_monomial,
    _pull_monomial,
    _whitney_terms,
    derham_map,
    elementary_whitney,
    whitney,
)
from ssetkit.homology import chain_complex, cohomology_ring
from ssetkit.io_text import render_form
from ssetkit.randomsuite import random_polyform, stokes_suite
from ssetkit.simplicial import (
    circle_two_edges,
    cyclic_table,
    nerve,
    product,
    sphere_quotient,
    standard_boundary,
    standard_delta,
)

from conftest import face_map, forms
from oracles import (
    matrix_pullback,
    reference_integral,
    reference_summed,
    simplex_monomial_integral_symbolic,
    sympy_from_raw,
    triangle_quadrature,
    vertex_map_matrix,
)


def torus():
    s1 = sphere_quotient(1, 3)
    return product(s1, s1)


# -- canonicalization ----------------------------------------------------------


def test_dt0_eliminates():
    assert PolyForm.from_raw(1, 1, [(1, (0, 0), (0,))]).terms == {((0,), (1,)): Fraction(-1)}


def test_t0_eliminates():
    t0 = PolyForm.coordinate(2, 0)
    assert t0.terms == {
        ((0, 0), ()): Fraction(1),
        ((1, 0), ()): Fraction(-1),
        ((0, 1), ()): Fraction(-1),
    }


def test_index_sorting_sign():
    f = PolyForm.from_raw(2, 2, [(1, (0, 0, 0), (2, 1))])
    assert f.terms == {((0, 0), (1, 2)): -1}


def test_repeated_index_vanishes():
    assert PolyForm.from_raw(2, 2, [(1, (0, 0, 0), (1, 1))]).is_zero()


def test_degree_above_dimension_is_zero_form():
    z = PolyForm.from_raw(1, 2, [(1, (0, 0), (0, 1))])
    assert z.is_zero() and z.p == 2


@st.composite
def raw_problems(draw):
    """(n, p, raw terms) with indices over 0..n in any order, repeats allowed,
    and Fraction or QTau coefficients."""
    n = draw(st.integers(0, 4))
    p = draw(st.integers(0, n + 1))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    scalars = st.one_of(fractions, st.builds(QTau, fractions, fractions))
    term = st.tuples(
        scalars,
        st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1).map(tuple),
        st.lists(st.integers(0, n), min_size=p, max_size=p).map(tuple),
    )
    return n, p, draw(st.lists(term, max_size=3))


@settings(max_examples=150)
@given(raw_problems())
def test_from_raw_matches_sympy_substitution(problem):
    n, p, raw = problem
    assert PolyForm.from_raw(n, p, raw) == sympy_from_raw(n, p, raw)


@pytest.mark.parametrize(
    "n, p, raw, message",
    [
        (2, 1, [(1, (0, 0, 0), (3,))], "raw wedge indices must lie in 0..n"),
        (2, 1, [(1, (0, 0, 0), (-1,))], "raw wedge indices must lie in 0..n"),
        (2, 2, [(1, (0, 0, 0), (3, 3))], "raw wedge indices must lie in 0..n"),
        (2, 1, [(1, (0, 0), (1,))], "raw exponent tuple must have length n+1, entries >= 0"),
        (2, 1, [(1, (0, -1, 0), (1,))], "raw exponent tuple must have length n+1, entries >= 0"),
        (2, 1, [(1, (0, 0, 0), (1, 2))], "raw index tuple must have length p"),
        (2, 1, [(1, (0, 0, 0), ())], "raw index tuple must have length p"),
    ],
)
def test_from_raw_refuses_malformed_terms(n, p, raw, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        PolyForm.from_raw(n, p, raw)


def test_qtau_equality_with_a_non_number_is_false():
    assert QTau(0, 1) != None  # noqa: E711
    assert not QTau(0, 1) == "tau"
    assert QTau(2, 0) == 2 and QTau(2, 0) == Fraction(2)


def test_qtau_hashes_like_the_number_it_equals():
    assert hash(QTau(1, 0)) == hash(1)
    assert hash(QTau(Fraction(-2, 3), 0)) == hash(Fraction(-2, 3))
    f = PolyForm(1, 0, [(((1,), ()), Fraction(3))])
    g = PolyForm(1, 0, [(((1,), ()), QTau(3, 0))])
    assert f == g and len({f, g}) == 1


def test_canonicalization_idempotent():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        f = random_polyform(rng, n, p)
        again = PolyForm(f.n, f.p, f.terms)
        assert again == f


# -- calculus --------------------------------------------------------------------


def test_d_examples():
    assert PolyForm.coordinate(2, 1).d() == PolyForm.from_raw(2, 1, [(1, (0, 0, 0), (1,))])
    f = PolyForm.from_raw(2, 1, [(1, (0, 1, 1), (1,))])  # t1 t2 dt1
    assert f.d().terms == {((1, 0), (1, 2)): -1}


def test_d_squared_zero_random():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_polyform(rng, n, rng.randint(0, n))
        assert f.d().d().is_zero()


def test_wedge_unit_antisymmetry_bilinearity():
    one = PolyForm.constant(2, 1)
    w = random_polyform(random.Random(3), 2, 1)
    assert one.wedge(w) == w
    dt1 = PolyForm.coordinate(2, 1).d()
    assert dt1.wedge(dt1).is_zero()
    a = PolyForm.from_raw(2, 1, [(1, (0, 1, 0), (1,))])
    b = PolyForm.from_raw(2, 1, [(1, (0, 0, 1), (2,))])
    assert a.wedge(b).terms == {((1, 1), (1, 2)): 1}


def test_leibniz_and_graded_commutativity():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a = random_polyform(rng, n, p)
        b = random_polyform(rng, n, q)
        lhs = a.wedge(b).d()
        sign_term = a.wedge(b.d())
        rhs = a.d().wedge(b) + (sign_term.scale(-1) if p % 2 else sign_term)
        assert lhs == rhs
        assert a.wedge(b) == b.wedge(a).scale((-1) ** (p * q))


def test_pullback_examples_and_laws():
    # face d_0 of the 2-simplex: t_1 becomes 1 - s_1
    pb = PolyForm.coordinate(2, 1).d().pullback(face_map(2, 0))
    assert pb.terms == {((0,), (1,)): Fraction(-1)}
    w = random_polyform(random.Random(5), 2, 1)
    assert w.pullback((0, 1, 2)) == w
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 3)
        p = rng.randint(0, n - 1)
        w = random_polyform(rng, n, p)
        i = rng.randint(0, n)
        assert w.pullback(face_map(n, i)).d() == w.d().pullback(face_map(n, i))
        if n >= 2:
            j = rng.randint(0, n - 1)
            both = tuple(face_map(n, i)[v] for v in face_map(n - 1, j))
            assert w.pullback(face_map(n, i)).pullback(face_map(n - 1, j)) == w.pullback(both)


def test_pullback_rejects_bad_substitution():
    form = PolyForm.coordinate(1, 1).d()
    for bad in ((), (0, 2), (-1, 0), (Fraction(1), 0), (1.0, 0), (True, 0), ("0", 1), (None,)):
        with pytest.raises(ParameterError):
            form.pullback(bad)


# -- the vertex-map pullback against the matrix oracle ------------------------------

PULLBACK_SETTINGS = settings(max_examples=60)


@st.composite
def vertex_maps(draw, n, m=None):
    """Vertex maps Delta^m -> Delta^n: arbitrary (repeats, any order),
    constant, or a permutation when m = n."""
    m = draw(st.integers(0, 3)) if m is None else m
    kind = draw(st.sampled_from(("any", "constant", "permutation")))
    if kind == "constant":
        return (draw(st.integers(0, n)),) * (m + 1)
    if kind == "permutation" and m == n:
        return tuple(draw(st.permutations(range(n + 1))))
    return tuple(draw(st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1)))


@PULLBACK_SETTINGS
@given(st.data())
def test_pullback_matches_matrix_oracle(data):
    form = data.draw(forms())
    phi = data.draw(vertex_maps(form.n))
    assert form.pullback(phi) == matrix_pullback(form, vertex_map_matrix(phi, form.n))


@PULLBACK_SETTINGS
@given(st.data())
def test_pullback_is_functorial(data):
    form = data.draw(forms())
    phi = data.draw(vertex_maps(form.n))
    psi = data.draw(vertex_maps(len(phi) - 1))
    composite = tuple(phi[v] for v in psi)
    assert form.pullback(phi).pullback(psi) == form.pullback(composite)
    assert form.pullback(phi).d() == form.d().pullback(phi)


@PULLBACK_SETTINGS
@given(st.data())
def test_pullback_respects_wedge(data):
    a = data.draw(forms())
    # tau * tau is outside the scalar ring, so b stays rational.
    b = data.draw(forms(a.n, data.draw(st.integers(0, a.n - a.p)), tau=False))
    phi = data.draw(vertex_maps(a.n))
    assert a.wedge(b).pullback(phi) == a.pullback(phi).wedge(b.pullback(phi))


# -- the memoized monomial kernel ------------------------------------------------------


@st.composite
def monomials(draw):
    """(n, exps, idx): a monomial form t^exps dt_idx on Delta^n."""
    n = draw(st.integers(0, 3))
    exps = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    p = draw(st.integers(0, n))
    idx = draw(st.sampled_from(list(itertools.combinations(range(1, n + 1), p))))
    return n, exps, idx


@PULLBACK_SETTINGS
@given(st.data())
def test_cached_kernel_matches_uncached_kernel_and_matrix_oracle(data):
    n, exps, idx = data.draw(monomials())
    phi = data.draw(vertex_maps(n))
    expected = _pull_monomial.__wrapped__(exps, idx, phi)
    oracle = matrix_pullback(PolyForm(n, len(idx), [((exps, idx), 1)]), vertex_map_matrix(phi, n))
    # The second call is answered from the cache.
    for _ in range(2):
        got = _pull_monomial(exps, idx, phi)
        assert got == expected
        assert dict(got) == oracle.terms and len(dict(got)) == len(got)


def test_kernel_results_cannot_be_changed_by_callers():
    exps, idx, phi = (2, 1), (1,), (0, 2, 1, 2)
    expected = _pull_monomial.__wrapped__(exps, idx, phi)
    with pytest.raises(TypeError):
        _pull_monomial(exps, idx, phi)[0] = None
    form = PolyForm(2, 1, [((exps, idx), 1)])
    raw = [(Fraction(1), (0,) + exps, idx)]
    builders = [lambda: form.pullback(phi), form.d, lambda: PolyForm.from_raw(2, 1, raw)]
    for build in builders:
        first = build()
        before = dict(first.terms)
        first.terms.clear()
        first.terms[((9, 9), (1,))] = Fraction(7)
        assert build().terms == before
    assert _pull_monomial(exps, idx, phi) == expected


@PULLBACK_SETTINGS
@given(st.data())
def test_kernel_built_forms_pass_the_checked_constructor(data):
    form = data.draw(forms())
    phi = data.draw(vertex_maps(form.n))
    other = data.draw(forms(form.n, data.draw(st.integers(0, form.n - form.p)), tau=False))
    n, p, raw = data.draw(raw_problems())
    pulled = form.pullback(phi)
    from_raw = PolyForm.from_raw(n, p, raw)
    built = [pulled, form.d(), pulled.d(), from_raw, from_raw.d(),
             form.wedge(other), form + form, form.scale(Fraction(-1, 2))]
    for f in built:
        assert PolyForm(f.n, f.p, f.terms) == f


# -- like terms summed in ints against the Fraction reference -------------------------

SUM_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# QTau(q, 0) is drawn on its own: it equals a rational but keeps the QTau type.
SUM_SCALARS = st.one_of(
    st.integers(-4, 4),
    SUM_FRACTIONS,
    st.builds(QTau, SUM_FRACTIONS, SUM_FRACTIONS),
    st.builds(QTau, SUM_FRACTIONS),
)


@st.composite
def summing_parts(draw):
    """Parts (c, ((key, v), ...)) over a few keys, so like terms meet; at
    times a part is followed by its negation, so that keys cancel to zero."""
    keys = [((e,), ()) for e in range(4)]
    pair = st.tuples(st.sampled_from(keys), st.integers(-3, 3))
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        c = draw(SUM_SCALARS)
        pairs = tuple(draw(st.lists(pair, max_size=4)))
        parts.append((c, pairs))
        if draw(st.booleans()):
            if draw(st.booleans()):
                parts.append((-c, pairs))
            else:
                parts.append((c, tuple((k, -v) for k, v in pairs)))
    return draw(st.permutations(parts))


def assert_summed_like_reference(terms, parts):
    """Same keys in the same order, equal values, and the type rule: QTau
    exactly where a QTau contributed, Fraction elsewhere."""
    ref = reference_summed(parts)
    assert list(terms) == list(ref)
    assert terms == ref
    tau = {key for c, pairs in parts if isinstance(c, QTau) for key, _ in pairs}
    for key, c in terms.items():
        assert type(c) is (QTau if key in tau else Fraction)
        assert isinstance(ref[key], QTau) == (key in tau)


@settings(max_examples=60)
@given(summing_parts())
def test_collector_matches_fraction_summation(parts):
    assert_summed_like_reference(_collect(1, 0, parts).terms, parts)


def test_qtau_with_zero_tau_part_keeps_its_type_and_rendering():
    key = ((0,), ())
    two = PolyForm(1, 0, [(key, QTau(2, 0))])
    assert two.terms[key] == 2 and type(two.terms[key]) is QTau
    assert render_form(two) == "form 1 0 : 2+0*tau | 0 | "
    mixed = PolyForm(1, 0, [(key, 1), (key, QTau(Fraction(1, 2), 0))])
    assert render_form(mixed) == "form 1 0 : 3/2+0*tau | 0 | "
    assert type(PolyForm(1, 0, [(key, 3)]).terms[key]) is Fraction
    assert PolyForm(1, 0, [(key, QTau(1, 1)), (key, QTau(-1, -1))]).is_zero()
    assert (two - PolyForm.constant(1, 2)).is_zero()
    top = PolyForm(1, 1, [(((0,), (1,)), QTau(2, 0))]).scale(3)
    assert top.integrate() == 6 and type(top.integrate()) is QTau


@pytest.mark.parametrize("coeff", [0.5, 0.0, 1j, "1", None, float("nan")])
def test_constructor_refuses_coefficients_outside_the_scalar_ring(coeff):
    with pytest.raises(ParameterError, match="coefficient"):
        PolyForm(1, 0, [(((0,), ()), coeff)])


@settings(max_examples=40)
@given(st.data())
def test_form_operations_match_fraction_summation(data):
    """Each operation's coefficients are the reference sum of its parts: the
    kernels' int outputs scaled by the coefficients, or the coefficients
    themselves."""
    a = data.draw(forms())
    b = data.draw(forms(a.n, a.p))
    rational = data.draw(forms(a.n, data.draw(st.integers(0, a.n - a.p)), tau=False))
    phi = data.draw(vertex_maps(a.n))
    q = data.draw(SUM_SCALARS)
    if isinstance(q, QTau) and any(isinstance(c, QTau) and c.m for c in a.terms.values()):
        q = q.q
    items = a.terms.items()
    cases = [
        (a.pullback(phi), [(c, _pull_monomial(e, i, phi)) for (e, i), c in items]),
        (a.d(), [(c, _d_monomial(e, i).items()) for (e, i), c in items]),
        (a + b, [(c, ((k, 1),)) for k, c in itertools.chain(items, b.terms.items())]),
        (a - b, [(c, ((k, 1),)) for k, c in items] + [(c, ((k, -1),)) for k, c in b.terms.items()]),
        (a.scale(q), [(c * q, ((k, 1),)) for k, c in items]),
        (PolyForm(a.n, a.p, list(items) + list(b.terms.items())),
         [(c, ((k, 1),)) for k, c in itertools.chain(items, b.terms.items())]),
    ]
    wedge = []
    for (e1, i1), c1 in items:
        for (e2, i2), c2 in rational.terms.items():
            if not set(i1) & set(i2):
                sign = -1 if sum(1 for x in i1 for y in i2 if x > y) % 2 else 1
                key = (tuple(x + y for x, y in zip(e1, e2)), tuple(sorted(i1 + i2)))
                wedge.append((c1 * c2, ((key, sign),)))
    cases.append((a.wedge(rational), wedge))
    for got, parts in cases:
        assert_summed_like_reference(got.terms, parts)
    top = PolyForm(a.n, a.n, [((e, tuple(range(1, a.n + 1))), c) for (e, _), c in items])
    assert top.integrate() == reference_integral(top)
    assert isinstance(top.integrate(), QTau) == isinstance(reference_integral(top), QTau)


@settings(max_examples=30)
@given(st.data())
def test_whitney_sums_cochain_values_like_the_reference(data):
    x = standard_boundary(3)
    p = data.draw(st.integers(0, 2))
    size = len(x.nondegenerate(p))
    values = data.draw(st.lists(SUM_FRACTIONS, min_size=size, max_size=size))
    field = whitney(x, p, dict(enumerate(values)))
    value = dict(zip(x.nondegenerate(p), values))
    for (m, s), form in field.forms.items():
        parts = []
        for J in itertools.combinations(range(m + 1), p + 1):
            face = x.face_on(m, s, J)
            if not x.is_degenerate(p, face) and value[face]:
                parts.append((value[face], _whitney_terms(m, J)))
        assert_summed_like_reference(form.terms, parts)
        assert all(type(v) is int for _, pairs in parts for _, v in pairs)


# -- integration --------------------------------------------------------------------


def test_integrate_examples():
    dt12 = PolyForm.from_raw(2, 2, [(1, (0, 0, 0), (1, 2))])
    assert dt12.integrate() == Fraction(1, 2)
    m = PolyForm.from_raw(2, 2, [(1, (0, 1, 1), (1, 2))])
    assert m.integrate() == Fraction(1, 24)
    c = PolyForm.from_raw(1, 1, [(1, (0, 3), (1,))])
    assert c.integrate() == Fraction(1, 4)


def test_integrate_against_quadrature_oracle():
    # the monomial rule is confirmed numerically before being trusted
    val, err = triangle_quadrature(lambda t1, t2: t1 * t2)
    assert abs(val - 1 / 24) <= max(err, 1e-10)
    m = PolyForm.from_raw(2, 2, [(1, (0, 1, 1), (1, 2))])
    assert m.integrate() == Fraction(1, 24)


def test_integrate_against_symbolic_oracle():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 3)
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        form = PolyForm(n, n, [((exps, tuple(range(1, n + 1))), Fraction(1))])
        assert form.integrate() == simplex_monomial_integral_symbolic(exps)


def test_integrate_needs_top_degree():
    with pytest.raises(ParameterError):
        PolyForm.coordinate(2, 1).d().integrate()


# -- Stokes and the comparison map -----------------------------------------------------


def test_stokes_random_suite():
    rows = stokes_suite(random.Random(0), trials=100)
    assert all(passed for _, passed, _ in rows)


def test_fundamental_theorem_on_edge():
    d1 = standard_delta(1)
    field = FormField(
        d1, 0,
        {
            (1, (0, 1)): PolyForm.coordinate(1, 1),
            (0, (0,)): PolyForm.constant(0, 0),
            (0, (1,)): PolyForm.constant(0, 1),
        },
    )
    assert field.validate() == []
    image = derham_map(field)
    assert derham_map(field.d()) == chain_complex(d1).coboundary(0, image)
    assert derham_map(field.d())[d1.nondegenerate(1).index((0, 1))] == 1


def test_derham_map_is_cochain_map_on_fields():
    x = standard_boundary(3)
    rng = random.Random(8)
    cx = chain_complex(x)
    # build a compatible field by pushing a cochain through Whitney forms
    for p in (0, 1):
        values = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(len(x.nondegenerate(p)))}
        field = whitney(x, p, values)
        assert field.validate() == []
        assert derham_map(field.d()) == cx.coboundary(p, derham_map(field))


def test_closed_field_gives_cocycle():
    x = standard_boundary(3)
    field = whitney(x, 2, dict.fromkeys(range(len(x.nondegenerate(2))), Fraction(1)))
    if field.d().p <= x.dim_cap:
        assert not chain_complex(x).coboundary(2, derham_map(field))


def test_whitney_examples():
    # vertex cochain gives the barycentric coordinate function
    d2 = standard_delta(2)
    f = whitney(d2, 0, {d2.nondegenerate(0).index((1,)): 1})
    assert f.forms[(2, (0, 1, 2))] == PolyForm.coordinate(2, 1)
    # edge cochain on [01] inside the 2-simplex
    w = elementary_whitney(2, (0, 1))
    on_edge = w.pullback(face_map(2, 2))
    assert on_edge.integrate() == 1
    other_edge = w.pullback(face_map(2, 0))
    assert other_edge.integrate() == 0


def test_whitney_refuses_keys_off_the_basis():
    x = standard_boundary(3)
    size = len(x.nondegenerate(1))
    assert whitney(x, 1, {size - 1: 1}).validate() == []
    for key in (size, -1, x.nondegenerate(1)[0], 0.0, "0", None):
        with pytest.raises(ParameterError):
            whitney(x, 1, {key: 1})
    # above the cap there is no basis at all
    with pytest.raises(ParameterError):
        whitney(x, x.dim_cap + 1, {0: 1})


def test_derham_map_returns_no_zero_entry():
    d1 = standard_delta(1)
    # tau (1 - 2 t_1) dt_1 integrates to QTau(0, 0), which has no truth
    # value of its own
    form = PolyForm(1, 1, [(((0,), (1,)), TAU), (((1,), (1,)), QTau(0, -2))])
    assert form.integrate() == 0 and type(form.integrate()) is QTau
    assert derham_map(FormField(d1, 1, {(1, (0, 1)): form})) == {}
    tau_dt = PolyForm(1, 1, [(((0,), (1,)), TAU)])
    assert derham_map(FormField(d1, 1, {(1, (0, 1)): tau_dt})) == {0: TAU}


WHITNEY_SETS = {
    "bd_delta3": lambda: standard_boundary(3),
    "torus": torus,
    "nerve_z3_cap3": lambda: nerve(cyclic_table(3), 3),
    "nerve_z2_cap4": lambda: nerve(cyclic_table(2), 4),
    "sphere3": lambda: sphere_quotient(3),
    "circle2_x_circle": lambda: product(circle_two_edges(2), sphere_quotient(1, 2)),
}


@pytest.mark.parametrize("name", WHITNEY_SETS)
def test_derham_whitney_identity(name):
    x = WHITNEY_SETS[name]()
    for p in x.dims():
        for k in range(len(x.nondegenerate(p))):
            field = whitney(x, p, {k: 1})
            assert field.validate() == []
            assert derham_map(field) == {k: 1}


def test_form_field_incompatibility_witnessed():
    d1 = standard_delta(1)
    field = FormField(
        d1, 0,
        {
            (1, (0, 1)): PolyForm.coordinate(1, 1),
            (0, (0,)): PolyForm.constant(0, 5),
            (0, (1,)): PolyForm.constant(0, 1),
        },
    )
    bad = field.validate()
    assert bad and bad[0][0] == 1
    with pytest.raises(CompatibilityError):
        derham_map(field)


def test_degenerate_faces_pull_back_through_collapse():
    s2 = sphere_quotient(2)
    # the only nondegenerate 2-simplex has all faces degenerate; a compatible
    # 1-form field must restrict to 0 on every face
    top = next(iter(s2.nondegenerate(2)))
    w = elementary_whitney(2, (0, 1)) - elementary_whitney(2, (0, 2)) + elementary_whitney(2, (1, 2))
    field = FormField(s2, 1, {(2, top): w})
    assert field.validate() != []  # that particular form does not vanish on faces
    zero_field = FormField(s2, 1, {})
    assert zero_field.validate() == []


def test_wedge_compatible_with_cup_through_comparison():
    """R(Wa ^ Wb) equals half of (a cup b - b cup a) in H^2 of the torus;
    the antisymmetrization is the documented normalization for degree (1,1)."""
    x = torus()
    ring = cohomology_ring(x)
    cx = ring.complex
    a_row, b_row = ring.reps[1]
    wa, wb = whitney(x, 1, a_row), whitney(x, 1, b_row)
    wedge_field = wa.wedge(wb)
    wedge_class = cx.express(2, derham_map(wedge_field))
    ab = cx.express(2, cx.cup(1, a_row, 1, b_row))
    ba = cx.express(2, cx.cup(1, b_row, 1, a_row))
    expected = tuple((u - v) / 2 for u, v in zip(ab, ba))
    assert wedge_class == expected
    assert wedge_class != tuple(0 for _ in wedge_class)
