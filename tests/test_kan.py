"""Horn enumeration, fibrancy and fibration certificates, extra-degeneracy
contractibility."""

import gc
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ssetkit.errors import ParameterError, StructureError
from ssetkit.homology import chain_complex, homology
from ssetkit.io_text import parse_map
from ssetkit.kan import (
    ExtraDegeneracy,
    check_extra_degeneracy,
    connected_components,
    enumerate_horns,
    is_fibrant,
    is_fibration,
)
from ssetkit.sheaves import FiniteSite, check_status
from ssetkit.simplicial import (
    SimplicialMap,
    SimplicialSet,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
    standard_horn,
)
from ssetkit.site_corpus import constant_presheaf, representable_to_delta1

from conftest import fixture_text, homomorphism, identity_map, inclusion, kan_maps, kan_sets


def test_horn_enumeration_on_delta1():
    d1 = standard_delta(1, 2)
    horns = enumerate_horns(d1, 2, 1)
    # horns correspond to composable edge pairs; brute force over all pairs
    edges = d1.simplices[1]
    composable = [
        (x0, x2) for x0 in edges for x2 in edges if d1.d(1, 0, x2) == d1.d(1, 1, x0)
    ]
    assert len(horns) == len(composable) == 4
    nondeg = [
        h for h in horns if any(not d1.is_degenerate(1, f) for _, f in oracles.given(h))
    ]
    assert len(nondeg) == 2


def test_horn_enumeration_point():
    pt = standard_delta(0, 3)
    for n in (1, 2, 3):
        for k in range(n + 1):
            assert len(enumerate_horns(pt, n, k)) == 1


def test_boundary_delta2_admits_boundary_tuples():
    b2 = standard_boundary(2)
    for k in range(3):
        horns = enumerate_horns(b2, 2, k)
        faces = [(1, 2), (0, 2), (0, 1)]
        expected = tuple(f if i != k else None for i, f in enumerate(faces))
        assert any(h.faces == expected for h in horns)


def test_nerve_fillers_unique_via_division():
    nz2 = nerve(cyclic_table(2), 3)
    for k in range(3):
        for h in enumerate_horns(nz2, 2, k):
            assert len(oracles.scan_fill_horn(nz2, h)) == 1


def test_fibrancy_certificates():
    for order in (2, 3):
        cert = is_fibrant(nerve(cyclic_table(order), 3))
        assert cert.fibrant
        assert all(horns == unique for (n, _), (horns, unique) in cert.counts.items() if n >= 2)
    cert = is_fibrant(standard_delta(1, 2))
    assert not cert.fibrant
    assert cert.witness.n == 2
    assert is_fibrant(standard_delta(0, 3)).fibrant


def test_identity_is_fibration():
    nz2 = nerve(cyclic_table(2), 3)
    assert is_fibration(identity_map(nz2)).fibration


def test_projection_is_fibration():
    nz2 = nerve(cyclic_table(2), 2)
    d1 = standard_delta(1, 2)
    prod = product(d1, nz2)
    proj = SimplicialMap(prod, d1, {n: {s: s[0] for s in prod.simplices[n]} for n in prod.dims()})
    cert = is_fibration(proj)
    assert cert.fibration
    assert cert.problems > 0


def test_inclusion_is_not_fibration():
    b2 = standard_boundary(2, 2)
    d2 = standard_delta(2)
    incl = SimplicialMap(b2, d2, {n: {s: s for s in b2.simplices[n]} for n in b2.dims()})
    cert = is_fibration(incl)
    assert not cert.fibration
    horn, base = cert.witness
    assert base == (0, 1, 2)


def test_extra_degeneracy_cone_on_delta1():
    d1 = standard_delta(1, 3)
    report = check_extra_degeneracy(d1, oracles.cone_extra_degeneracy(d1))
    assert report.valid
    assert report.reduced_homology_trivial
    assert homology(chain_complex(d1)).betti[0] == 1


def test_extra_degeneracy_point_tower():
    pt = standard_delta(0, 2)
    assert check_extra_degeneracy(pt, oracles.cone_extra_degeneracy(pt)).valid


def test_extra_degeneracy_corruption_witnessed():
    d1 = standard_delta(1, 3)
    extra = oracles.cone_extra_degeneracy(d1)
    bad_maps = {n: dict(extra.maps[n]) for n in extra.maps}
    bad_maps[1][(0, 1)] = d1.s(1, 1, (0, 1))  # (0,1,1) instead of (0,0,1)
    report = check_extra_degeneracy(d1, ExtraDegeneracy(d1, bad_maps, (0,)))
    assert not report.valid
    assert report.witness[0] == "d_0 s_{-1} = id"
    assert report.witness[2] == (0, 1)


def test_extra_degeneracy_witness_is_the_first_in_stored_order():
    """(1, 2) comes before (2, 3) in X_1, so its d_1 violation is the
    witness, though d_0 s_{-1} = id is checked first at each simplex."""
    d3 = standard_delta(3, 2)
    maps = {n: dict(table) for n, table in oracles.cone_extra_degeneracy(d3).maps.items()}
    maps[1][(1, 2)] = (1, 1, 2)
    maps[1][(2, 3)] = (0, 1, 2)
    report = check_extra_degeneracy(d3, ExtraDegeneracy(d3, maps, (0,)))
    assert report.witness == ("d_{i+1} s_{-1} = s_{-1} d_i", 1, (1, 2))


def test_extra_degeneracy_table_undefined_one_level_up_is_refused():
    """The s_{-1} table of dimension 1 misses (0, 0), which the identity
    s_1 s_{-1} = s_{-1} s_0 at the vertex (0,) reads."""
    d2 = standard_delta(2, 3)
    extra = oracles.cone_extra_degeneracy(d2)
    del extra.maps[1][(0, 0)]
    with pytest.raises(StructureError, match=r"^s_\{-1\} undefined on \(0, 0\)$"):
        check_extra_degeneracy(d2, extra)


def test_extra_degeneracy_needs_connected():
    from ssetkit.simplicial import simplicial_complex

    two = simplicial_complex([[0], [1]], 2)
    with pytest.raises(ParameterError):
        check_extra_degeneracy(two, oracles.cone_extra_degeneracy(two))


def test_connected_components_in_first_vertex_order():
    from ssetkit.simplicial import simplicial_complex

    x = simplicial_complex([[3, 4], [2], [4, 0], [1]], 1)
    assert connected_components(x) == [[(0,), (3,), (4,)], [(1,)], [(2,)]]


def test_extra_degeneracy_implies_trivial_reduced_homology():
    for x in (standard_delta(1, 3), standard_delta(2, 3)):
        report = check_extra_degeneracy(x, oracles.cone_extra_degeneracy(x))
        assert report.valid
        assert report.reduced_homology_trivial


@st.composite
def corrupted_extra_degeneracies(draw):
    """The cone extra degeneracy of a standard simplex with up to two s_{-1}
    entries replaced by other listed simplices (at times ones with the
    right d_0, so the other identities are reached), and at times one entry
    dropped or sent to an identifier the set does not list; the base is any
    vertex, so s_{-1}(base) = s_0(base) fails off the apex."""
    n = draw(st.integers(0, 3))
    x = standard_delta(n, draw(st.integers(1, 3)))
    maps = {m: dict(table) for m, table in oracles.cone_extra_degeneracy(x).maps.items()}
    for _ in range(draw(st.integers(0, 2))):
        m = x.dim_cap - 1 - draw(st.integers(0, x.dim_cap - 1))  # the top level first
        y = draw(st.sampled_from(x.simplices[m + 1]))
        s = x.d(m + 1, 0, y) if draw(st.booleans()) else draw(st.sampled_from(x.simplices[m]))
        maps[m][s] = y
    fault = draw(st.sampled_from([None, None, None, "undefined", "unknown"]))
    if fault is not None:
        m = draw(st.integers(0, x.dim_cap - 1))
        s = draw(st.sampled_from(x.simplices[m]))
        if fault == "undefined":
            del maps[m][s]
        else:
            maps[m][s] = "not a simplex"
    return x, ExtraDegeneracy(x, maps, draw(st.sampled_from(x.simplices[0])))


def _witness_or_error(check):
    try:
        return check()
    except StructureError as exc:
        return ("StructureError", str(exc))


@settings(max_examples=80)
@given(corrupted_extra_degeneracies())
def test_extra_degeneracy_check_matches_the_element_wise_oracle(drawn):
    x, extra = drawn
    assert _witness_or_error(lambda: check_extra_degeneracy(x, extra).witness) == _witness_or_error(
        lambda: oracles.scan_extra_degeneracy(x, extra)
    )


# -- coface-indexed search against the scanning oracles ------------------------

SETTINGS = settings(max_examples=60)


@SETTINGS
@given(kan_sets())
def test_horns_and_fillers_match_scanning_oracle(x):
    for n in range(1, x.dim_cap + 2):
        for k in range(n + 1):
            assert enumerate_horns(x, n, k) == oracles.scan_enumerate_horns(x, n, k)


@SETTINGS
@given(kan_sets())
def test_fibrancy_certificate_matches_scanning_oracle(x):
    assert is_fibrant(x) == oracles.scan_is_fibrant(x)


@SETTINGS
@given(kan_maps())
def test_fibration_certificate_matches_scanning_oracle(p):
    assert is_fibration(p) == oracles.scan_is_fibration(p)


def _indexed(x, n, positions, faces):
    """The n-simplices that the face-tuple index of (n, positions) lists for
    the given faces at those positions, identifiers in and out."""
    key = tuple(x._index[n - 1][f] for f in faces)
    return tuple(x.simplices[n][q] for q in x._face_index(n, positions).get(key, ()))


@SETTINGS
@given(kan_sets(), st.data())
def test_matching_is_the_stored_simplices_with_those_faces(x, data):
    for n in range(x.dim_cap + 1):
        positions = tuple(data.draw(st.lists(st.integers(0, n), max_size=n + 2))) if n else ()
        if data.draw(st.booleans()):
            y = data.draw(st.sampled_from(x.simplices[n]))
            faces = tuple(x.d(n, i, y) for i in positions)
        else:
            faces = tuple(data.draw(st.sampled_from(x.simplices[n - 1])) for _ in positions)
        assert _indexed(x, n, positions, faces) == tuple(
            y for y in x.simplices[n] if all(x.d(n, i, y) == f for i, f in zip(positions, faces))
        )
    for n, positions in ((-1, ()), (0, (0,)), (x.dim_cap + 1, ()), (1, (2,)), (1, (0, -1))):
        with pytest.raises(ParameterError):
            x._face_index(n, positions)


def _slots(n, k):
    return tuple(j for j in range(n + 1) if j != k)


def test_cofaces_are_the_stored_simplices_with_that_face():
    x = nerve(cyclic_table(3), 3)
    for n in range(1, 4):
        for i in range(n + 1):
            for f in x.simplices[n - 1]:
                assert _indexed(x, n, (i,), (f,)) == tuple(y for y in x.simplices[n] if x.d(n, i, y) == f)
    for n, i in ((0, 0), (4, 0), (2, 3)):
        with pytest.raises(ParameterError):
            x._face_index(n, (i,))


def test_horn_fillers_are_the_stored_simplices_with_those_faces():
    x = standard_boundary(3, 3)
    for n in range(1, 4):
        for k in range(n + 1):
            slots = _slots(n, k)
            for y in x.simplices[n]:
                given = tuple(x.d(n, i, y) for i in slots)
                assert _indexed(x, n, slots, given) == tuple(
                    z for z in x.simplices[n] if all(x.d(n, i, z) == x.d(n, i, y) for i in slots)
                )
    for n, slots in ((0, (1,)), (4, _slots(4, 0)), (2, (0, 1, 3))):
        with pytest.raises(ParameterError):
            x._face_index(n, slots)


def _count_calls(monkeypatch, names):
    """Count the calls of the named SimplicialSet methods, per receiving set."""
    calls = {name: Counter() for name in names}
    for name in names:
        method = getattr(SimplicialSet, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name][id(self)] += 1
            return _method(self, *args)

        monkeypatch.setattr(SimplicialSet, name, counted)
    return calls


def test_work_of_fibrancy_check_on_nerve_z4(monkeypatch):
    """Exact work count. The scan over every n-simplex per horn made 764048
    SimplicialSet.d calls; the coface search that followed made 69492, then
    none. The certificate counts the restrictions of X_n from the face
    tables and the horn search extends every partial horn by one slot per
    step, reading the kept face indexes directly, so it makes no d call, and
    the only indexes kept are one per prefix of the face positions each
    search places."""
    x = nerve(cyclic_table(4), 4)
    calls = _count_calls(monkeypatch, ("d",))
    cert = is_fibrant(x)
    assert cert.fibrant
    assert sum(h for h, _ in cert.counts.values()) == 1586
    pairs = [(n, k) for n in range(1, 5) for k in range(n + 1)]
    assert calls == {"d": {}}
    searched = {(n - 1, _slots(n, k)[:r]) for n, k in pairs for r in range(n)}
    assert set(x._matching) == searched
    assert len(x._matching) == 20


def test_work_of_fibration_check_on_projection(monkeypatch):
    """Exact work count on Delta^1 x N(Z/2) -> Delta^1, cap 2: the horn
    search in the source and one lookup of the base simplices per horn in a
    face index kept on the target, each read directly, and no d call."""
    p = parse_map(fixture_text("proj_d1_nz2.smap"))
    x, y = p.source, p.target
    calls = _count_calls(monkeypatch, ("d",))
    cert = is_fibration(p)
    work = {name: dict(counter) for name, counter in calls.items()}
    assert cert.fibration and cert.problems == 54
    horns = sum(len(enumerate_horns(x, n, k)) for n in range(1, 3) for k in range(n + 1))
    assert horns == 60
    assert work == {"d": {}}
    assert set(x._matching) == {(n - 1, _slots(n, k)[:r]) for n in (1, 2) for k in range(n + 1) for r in range(n)}
    assert set(y._matching) == {(n, _slots(n, k)) for n in (1, 2) for k in range(n + 1)}


def _permutation_table(m):
    """Composition table of the permutations of 0..m-1, as value tuples."""
    perms = list(itertools.permutations(range(m)))
    return {(a, b): tuple(a[i] for i in b) for a in perms for b in perms}


def test_nerves_of_small_groups_unique_fillers():
    """Nerves of Z/1..Z/4, Z/2 x Z/2 (xor on 0..3) and S3 (composition of
    permutations) are fibrant up to cap 3, with exactly |G|^n horns of each
    kind in dimension n >= 2, each with one filler."""
    klein = {(a, b): a ^ b for a in range(4) for b in range(4)}
    for table in [cyclic_table(m) for m in range(1, 5)] + [klein, _permutation_table(3)]:
        order = len({a for a, _ in table})
        cert = is_fibrant(nerve(table, 3))
        assert cert.fibrant
        assert cert.counts == {
            (n, k): (order**n, order**n) if n >= 2 else (1, int(order == 1))
            for n in range(1, 4)
            for k in range(n + 1)
        }


@st.composite
def group_tables(draw):
    """The multiplication table of Z/m (m <= 6) with its elements relabelled
    at random, of Z/2 x Z/2 (xor on 0..3) or of S3 (composition of
    permutation tuples)."""
    kind = draw(st.sampled_from(["cyclic", "klein", "s3"]))
    if kind == "klein":
        return {(a, b): a ^ b for a in range(4) for b in range(4)}
    if kind == "s3":
        return _permutation_table(3)
    m = draw(st.integers(1, 6))
    label = draw(st.permutations(range(m)))
    return {(label[a], label[b]): label[(a + b) % m] for a in range(m) for b in range(m)}


@settings(max_examples=50)
@given(group_tables(), st.integers(2, 3))
def test_nerves_of_random_finite_groups_have_unique_fillers(table, cap):
    """N(G) is fibrant with |G|^n horns of each kind in dimension n >= 2, each
    with one filler; a (1, k)-horn is the one vertex, filled uniquely only by
    the trivial group. The scan oracle agrees where |G|^cap <= 64."""
    order = len({a for a, _ in table})
    x = nerve(table, cap)
    cert = is_fibrant(x)
    assert cert.fibrant
    assert cert.counts == {
        (n, k): (order**n, order**n) if n >= 2 else (1, int(order == 1))
        for n in range(1, cap + 1)
        for k in range(n + 1)
    }
    if order**cap <= 64:
        assert cert == oracles.scan_is_fibrant(x)


def test_backtracking_leaves_no_reference_cycles():
    """Horn search, lifting and the sheaf searches free everything they
    build by reference counting: with the collector off, a collection
    afterwards finds nothing."""
    x = nerve(cyclic_table(3), 3)
    p = identity_map(nerve(cyclic_table(2), 2))
    path = simplicial_complex([[0, 1], [1, 2]], 1)
    objects = {
        "X": close_subcomplex(path, {1: [(0, 1), (1, 2)]}),
        "A": close_subcomplex(path, {1: [(0, 1)]}),
        "B": close_subcomplex(path, {1: [(1, 2)]}),
        "M": close_subcomplex(path, {0: [(1,)]}),
    }
    site = FiniteSite(path, objects, {"X": [("A", "B")]})
    f, g = constant_presheaf(site, ("a", "b")), representable_to_delta1(site)
    gc.collect()
    gc.disable()
    try:
        assert is_fibrant(x).fibrant
        assert len(enumerate_horns(x, 3, 1)) == 27
        assert is_fibration(p).fibration
        assert check_status(f).sheaf
        assert oracles.natural_maps(f, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


NEGATIVE_SETS = {
    "delta1": standard_delta(1, 2),
    "boundary2": standard_boundary(2, 2),
    "horn21": standard_horn(2, 1, 2),
    "sphere2": sphere_quotient(2, 3),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_SETS))
def test_non_fibrant_witness_matches_scanning_oracle(name):
    x = NEGATIVE_SETS[name]
    cert = is_fibrant(x)
    assert not cert.fibrant
    assert cert == oracles.scan_is_fibrant(x)
    assert oracles.scan_fill_horn(x, cert.witness) == []


def _horn_beside_delta2():
    """Delta^2 and a separate horn Lambda^2_1 on the vertices 3, 4, 5, both
    sent onto Delta^2 (3, 4, 5 -> 0, 1, 2): the horn's lifting problem has a
    base simplex in the image, but not the image of a filler of that horn."""
    x = simplicial_complex([[0, 1, 2], [3, 4], [4, 5]], 2)
    return SimplicialMap(x, standard_delta(2), {n: {s: tuple(v % 3 for v in s) for s in x.simplices[n]} for n in x.dims()})


NO_LIFT_MAPS = {
    "boundary2 in delta2": lambda: inclusion(standard_boundary(2, 2), standard_delta(2)),
    "delta2 and horn21 onto delta2": _horn_beside_delta2,
    "horn21 in delta2": lambda: inclusion(standard_horn(2, 1, 2), standard_delta(2)),
    "N(Z/2) to N(Z/4)": lambda: homomorphism(2, 4, 2, 2),
}


@pytest.mark.parametrize("name", sorted(NO_LIFT_MAPS))
def test_missing_lift_witness_matches_scanning_oracle(name):
    p = NO_LIFT_MAPS[name]()
    cert = is_fibration(p)
    assert not cert.fibration
    assert cert == oracles.scan_is_fibration(p)
    horn, base = cert.witness
    n = horn.n
    assert [p.target.d(n, i, base) for i, _ in oracles.given(horn)] == [p(n - 1, f) for _, f in oracles.given(horn)]
    assert base not in {p(n, z) for z in oracles.scan_fill_horn(p.source, horn)}
