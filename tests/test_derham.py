"""Truncated de Rham cohomology and the comparison isomorphism."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text, simplicial_sets, small_complexes
from oracles import coface_matrix, collapse_matrix, compose_matrices, derham_reference, matrix_pullback
from ssetkit import derham, forms
from ssetkit.derham import derham_cohomology
from ssetkit.errors import ParameterError, StructureError
from ssetkit.forms import PolyForm
from ssetkit.io_text import parse_complex
from ssetkit.simplicial import (
    cyclic_table,
    nerve,
    product,
    sphere_quotient,
    standard_boundary,
    standard_delta,
)


def test_point_any_degree():
    pt = standard_delta(0, 1)
    for d in (1, 2):
        r = derham_cohomology(pt, d)
        assert r.betti == (1, 0)
        assert r.isomorphism == (True, True)
        assert all(r.stable)


def test_delta2_contractible():
    r = derham_cohomology(standard_delta(2), 3)
    assert r.betti == (1, 0, 0)
    assert r.simplicial_betti == (1, 0, 0)
    assert r.isomorphism == (True, True, True)
    assert all(r.stable)
    # the raw truncation carries transient top-slice classes
    assert r.raw_betti[1] > 0


def test_sphere_model():
    r = derham_cohomology(sphere_quotient(2), 2)
    assert r.betti == (1, 0, 1)
    assert r.comparison_rank == (1, 0, 1)
    assert r.isomorphism == (True, True, True)


def test_degree_cap_validation():
    with pytest.raises(ParameterError):
        derham_cohomology(standard_delta(1), 0)


def test_doubly_degenerate_faces():
    # Every 2-face of the 3-simplex of S^3 = Delta^3 / bd is the doubly
    # degenerate 2-simplex on the point, so the collapse runs through a
    # two-letter degeneracy word.
    r = derham_cohomology(sphere_quotient(3), 2)
    assert r.betti == r.simplicial_betti == r.comparison_rank == (1, 0, 0, 1)
    assert all(r.isomorphism) and all(r.stable)


def test_nerve_of_z2_golden():
    """de Rham's theorem for BG on the nerve model N(Z/2), cap 3."""
    r = derham_cohomology(nerve(cyclic_table(2), 3), 2)
    assert r.dims == (2, 6, 12, 10)
    assert r.raw_betti == (1, 2, 6, 7)
    assert r.betti == r.simplicial_betti == r.comparison_rank == (1, 0, 0, 1)
    assert all(r.isomorphism) and all(r.stable)


def test_second_call_reuses_the_tables(monkeypatch):
    x = nerve(cyclic_table(2), 3)
    first = derham_cohomology(x, 2)
    calls = {"pullback": 0, "truncation": 0}
    pullback, init = PolyForm.pullback, derham._Truncation.__init__

    def counting_pullback(self, matrix):
        calls["pullback"] += 1
        return pullback(self, matrix)

    def counting_init(self, *args):
        calls["truncation"] += 1
        init(self, *args)

    monkeypatch.setattr(PolyForm, "pullback", counting_pullback)
    monkeypatch.setattr(derham._Truncation, "__init__", counting_init)
    # A table built is a miss of the pullback table's cache; a wrapper would
    # count the hits as well.
    built = derham._pullback_rows.cache_info().misses
    assert derham_cohomology(nerve(cyclic_table(2), 3), 2) == first
    assert derham._pullback_rows.cache_info().misses == built
    assert calls == {"pullback": 0, "truncation": 1}


# -- differential tests against the three-stage reference -----------------------

SETTINGS = settings(max_examples=40)


@SETTINGS
@given(small_complexes(), st.integers(1, 3))
def test_report_matches_three_stage_reference(x, degree_cap):
    assert derham_cohomology(x, degree_cap) == derham_reference(x, degree_cap)


@functools.lru_cache(maxsize=None)
def relative_dim(n, p, degree_cap):
    """r(n, p, D): the compatible p-forms of degree <= D on Delta^n that
    vanish on every face, counted as the forms on Delta^n minus the
    compatible forms on its boundary."""
    if p > n:
        return 0
    whole = derham_cohomology(standard_delta(n), degree_cap).dims[p]
    if p == n:
        return whole
    return whole - derham_cohomology(standard_boundary(n), degree_cap).dims[p]


# (simplicial set, degree caps D); N(Z/2) cap 4 also holds but takes seconds.
CLOSED_FORM_SETS = {
    "nerve_z2_cap3": (lambda: nerve(cyclic_table(2), 3), (2,)),
    "sphere3": (lambda: sphere_quotient(3), (1, 2, 3)),
    "circle_x_circle": (lambda: product(sphere_quotient(1, 2), sphere_quotient(1, 2)), (2,)),
}


@pytest.mark.parametrize("name", CLOSED_FORM_SETS)
def test_compatible_dims_are_sums_of_relative_dims(name):
    """A compatible field is built skeleton by skeleton: each nondegenerate
    n-simplex adds the forms on Delta^n that vanish on its boundary, so
    dims[p] = sum_n c_n * r(n, p, D) with c_n the nondegenerate count."""
    build, degree_caps = CLOSED_FORM_SETS[name]
    x = build()
    for degree_cap in degree_caps:
        expected = tuple(
            sum(len(x.nondegenerate(n)) * relative_dim(n, p, degree_cap) for n in x.dims())
            for p in x.dims()
        )
        assert derham_cohomology(x, degree_cap).dims == expected


@settings(max_examples=100)
@given(simplicial_sets(), st.sampled_from((1, 2)))
def test_dims_stability_and_whitney_on_random_sets(x, degree_cap):
    """On random sets at D = 1, 2: dims[p] = sum_n c_n * r(n, p, D), the
    comparison is an isomorphism in every degree where the survivors are
    stable, and the Whitney check inside derham_cohomology passes (a failure
    raises StructureError)."""
    report = derham_cohomology(x, degree_cap)
    assert report.dims == tuple(
        sum(len(x.nondegenerate(n)) * relative_dim(n, p, degree_cap) for n in x.dims())
        for p in x.dims()
    )
    assert all(iso for iso, stable in zip(report.isomorphism, report.stable) if stable)


# nerve_z3 is left out: its reference takes seconds.
@pytest.mark.parametrize("name", [
    "bd_delta3", "circle2", "delta1", "delta2", "nerve_z2", "path", "point", "rp2", "sphere2",
    "torus", "two_points",
])
def test_fixture_reports_match_reference(name):
    x = parse_complex(fixture_text(name + ".sset"))
    assert derham_cohomology(x, 1) == derham_reference(x, 1)


def _with_vertex_bubble(m, J, terms):
    """The 0-form t_j plus the bubble t_j (1 - t_j): still compatible (the
    bubble restricts to itself on the faces containing vertex j and to 0 on
    the others) and still 1 at vertex j and 0 at the others, but not closed."""
    if len(J) != 1:
        return terms
    e = tuple(int(v == J[0]) for v in range(m + 1))
    bubble = PolyForm.from_raw(m, 0, [(1, e, ()), (-1, tuple(2 * a for a in e), ())])
    return tuple((PolyForm(m, 0, terms) + bubble).terms.items())


# Mutations of the cached terms of the elementary Whitney forms, each caught by
# one part of the check: the field's compatibility, its closedness or its
# integrals.
WHITNEY_MUTATIONS = {
    "first_sign": lambda m, J, terms: ((terms[0][0], -terms[0][1]),) + terms[1:],
    # a closed compatible field integrating to minus its cochain
    "every_sign": lambda m, J, terms: tuple((key, -c) for key, c in terms),
    # not compatible: on a p-dimensional face, the field restricts to twice its form there
    "doubled_above_degree": lambda m, J, terms: (
        terms if m == len(J) - 1 else tuple((key, 2 * c) for key, c in terms)),
    "vertex_bubble": _with_vertex_bubble,
}


@pytest.mark.parametrize("mutation", WHITNEY_MUTATIONS)
@pytest.mark.parametrize("name", ["bd_delta3", "nerve_z3", "sphere2", "torus"])
def test_wrong_whitney_field_fails_the_comparison(name, mutation, monkeypatch):
    """The comparison is certified by the Whitney field of each class
    representative: it must be compatible, closed and integrate back to the
    representative. With the elementary Whitney forms mutated, one of these
    fails and the report is refused."""
    x = parse_complex(fixture_text(name + ".sset"))
    terms, change = forms._whitney_terms, WHITNEY_MUTATIONS[mutation]

    def mutated(m, J):
        return change(m, J, terms(m, J))

    monkeypatch.setattr(forms, "_whitney_terms", mutated)
    with pytest.raises(StructureError, match="Whitney field"):
        derham_cohomology(x, 1)


def _unit(n, p, key):
    return PolyForm(n, p, [(key, 1)])


def _table_entries(rows):
    """{(row, column): coefficient} of int table rows."""
    out = {}
    for r, row in enumerate(rows):
        for k, c in row.items():
            assert type(c) is int and c
            out[(r, k)] = c
    return out


def _pulled_entries(images, source_basis, target_index):
    """{(target index, source index): coefficient} of the images of a basis."""
    return {
        (target_index[key], k): c
        for k, b in enumerate(source_basis)
        for key, c in images[b].terms.items()
    }


def _words(base_dim, length):
    """Every degeneracy word of a given length down to base_dim: the t-th
    letter is a witness index of a simplex of dimension base_dim + length - t + 1."""
    if length == 0:
        return [()]
    return [(j,) + rest for j in range(base_dim + length) for rest in _words(base_dim, length - 1)]


TABLE_CAPS = (1, 2, 3, 4)


def test_face_tables_match_pullback():
    for n in range(1, 5):
        for p in range(n + 1):
            for i in range(n + 1):
                # A pullback does not depend on the cap: compute each once.
                images = {b: matrix_pullback(_unit(n, p, b), coface_matrix(n, i))
                          for b in derham._local_basis(n, p, max(TABLE_CAPS))[0]}
                for cap in TABLE_CAPS:
                    expected = _pulled_entries(images, derham._local_basis(n, p, cap)[0],
                                               derham._local_basis(n - 1, p, cap)[1])
                    coface = tuple(v for v in range(n + 1) if v != i)
                    assert _table_entries(derham._pullback_rows(n, p, coface, cap)) == expected


def test_collapse_tables_match_stepwise_pullback():
    for base_dim in range(4):
        for length in range(1, 5 - base_dim):
            top = base_dim + length
            for p in range(base_dim + 1):
                for word in _words(base_dim, length):
                    # The word's vertex map: the row of the 1 in each column of
                    # the composite collapse matrix.
                    composite = collapse_matrix(top - 1, word[0])
                    for t in range(1, length):
                        composite = compose_matrices(collapse_matrix(top - t - 1, word[t]), composite)
                    eta = tuple(next(r for r, row in enumerate(composite) if row[v])
                                for v in range(top + 1))
                    images = {}
                    for b in derham._local_basis(base_dim, p, max(TABLE_CAPS))[0]:
                        # Pull back one collapse at a time, from the base up.
                        form = _unit(base_dim, p, b)
                        for t in range(length - 1, -1, -1):
                            form = matrix_pullback(form, collapse_matrix(top - t - 1, word[t]))
                        images[b] = form
                    for cap in TABLE_CAPS:
                        expected = _pulled_entries(images, derham._local_basis(base_dim, p, cap)[0],
                                                   derham._local_basis(top, p, cap)[1])
                        rows = derham._pullback_rows(base_dim, p, eta, cap)
                        assert _table_entries(rows) == expected


def test_d_tables_match_exterior_derivative():
    for cap in TABLE_CAPS:
        for n in range(5):
            for p in range(n + 1):
                basis, _ = derham._local_basis(n, p, cap)
                _, target_index = derham._local_basis(n, p + 1, cap)
                expected = {
                    (k, target_index[key]): c
                    for k, b in enumerate(basis)
                    for key, c in _unit(n, p, b).d().terms.items()
                }
                assert _table_entries(derham._d_rows(n, p, cap)) == expected


def test_lower_cap_bases_are_prefixes():
    for n in range(4):
        for p in range(n + 1):
            top, _ = derham._local_basis(n, p, 4)
            for cap in range(4):
                low, _ = derham._local_basis(n, p, cap)
                assert top[: len(low)] == low
