"""Finite-site presheaves: sheaf condition, separated quotient,
sheafification with its universal property, subpresheaf lattice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import finite_sites, site_presheaves
from ssetkit.errors import StructureError
from ssetkit.homology import mayer_vietoris
from ssetkit.sheaves import (
    FiniteSite,
    Presheaf,
    check_status,
    compose_maps,
    is_natural,
    natural_maps,
    separated_quotient,
    sheafify,
    sub_to_presheaf,
    union_intersection,
)
from ssetkit.simplicial import close_subcomplex, simplicial_complex
from ssetkit.site_corpus import constant_presheaf, representable_to_delta1, vertex_functions


def path_site():
    path = simplicial_complex([[0, 1], [1, 2]], 1)
    objs = {
        "X": close_subcomplex(path, {1: [(0, 1), (1, 2)]}),
        "A": close_subcomplex(path, {1: [(0, 1)]}),
        "B": close_subcomplex(path, {1: [(1, 2)]}),
        "M": close_subcomplex(path, {0: [(1,)]}),
    }
    return path, FiniteSite(path, objs, {"X": [("A", "B")]})


def two_point_site():
    two = simplicial_complex([[0], [1]], 1)
    objs = {
        "X": close_subcomplex(two, {0: [(0,), (1,)]}),
        "U0": close_subcomplex(two, {0: [(0,)]}),
        "U1": close_subcomplex(two, {0: [(1,)]}),
    }
    return two, FiniteSite(two, objs, {"X": [("U0", "U1")]})


def corpus(site, connected):
    """Presheaves used throughout; the sheaves among them are marked."""
    items = [
        ("constant", constant_presheaf(site, ("a", "b")), connected),
        ("vertex_functions", vertex_functions(site), True),
        ("representable", representable_to_delta1(site), True),
    ]
    return items


def test_site_validation():
    path, site = path_site()
    with pytest.raises(StructureError):
        FiniteSite(path, {"X": site.objects["X"], "A": site.objects["A"]}, {"X": [("A",)]})


def test_presheaf_refuses_sections_and_restrictions_off_the_site():
    _, site = two_point_site()
    sections = {"X": ("a",), "U0": ("a",), "U1": ("a",)}
    restrictions = {("X", "U0"): {"a": "a"}, ("X", "U1"): {"a": "a"}}
    with pytest.raises(StructureError, match="^sections of 'Z', which is not an object of the site$"):
        Presheaf(site, dict(sections, Z=("a",)), restrictions)
    for arrow in (("U0", "X"), ("U0", "U1"), ("X", "X")):
        with pytest.raises(StructureError, match="^restriction %r -> %r is not an arrow of the site$" % arrow):
            Presheaf(site, sections, {**restrictions, arrow: {"a": "a"}})
    Presheaf(site, sections, restrictions)


def test_site_arrows_list_the_restrictions_once():
    _, site = path_site()
    assert site.arrows() == (("A", "M"), ("B", "M"), ("X", "A"), ("X", "B"), ("X", "M"))
    _, site = two_point_site()
    assert site.arrows() == (("X", "U0"), ("X", "U1"))
    for _, presheaf, _ in corpus(site, False):
        assert sorted(k for k in presheaf.res if k[0] != k[1]) == list(site.arrows())


def test_presheaf_refuses_a_repeated_section():
    _, site = two_point_site()
    with pytest.raises(StructureError, match="repeated section in 'U0'"):
        constant_presheaf(site, ("a", "b", "a"))


def test_constant_on_disconnected_is_not_sheaf():
    _, site = two_point_site()
    status = check_status(constant_presheaf(site, ("a", "b")))
    assert status.separated and not status.sheaf
    name, cover, family, count = status.witness
    assert name == "X" and count == 0 and family[0] != family[1]


def test_representable_and_vertex_functions_are_sheaves():
    for build_site in (path_site, two_point_site):
        _, site = build_site()
        assert check_status(representable_to_delta1(site)).sheaf
        assert check_status(vertex_functions(site)).sheaf


def test_separated_quotient_identity_on_separated():
    _, site = path_site()
    f = constant_presheaf(site, ("a", "b"))
    q, unit = separated_quotient(f)
    for name in site.names():
        assert len(q.sections[name]) == len(f.sections[name])
        assert len(set(unit[name].values())) == len(f.sections[name])


def test_separated_quotient_forces_identification():
    _, site = two_point_site()
    f = Presheaf(
        site,
        {"X": ("a", "b"), "U0": ("c",), "U1": ("c",)},
        {("X", "U0"): {"a": "c", "b": "c"}, ("X", "U1"): {"a": "c", "b": "c"}},
    )
    status = check_status(f)
    assert not status.separated and status.witness == ("X", ("U0", "U1"), ("c", "c"), 2)
    q, unit = separated_quotient(f)
    assert len(q.sections["X"]) == 1
    assert unit["X"]["a"] == unit["X"]["b"]
    assert check_status(q).separated


def test_quotient_unit_is_natural():
    _, site = two_point_site()
    f = Presheaf(
        site,
        {"X": ("a", "b"), "U0": ("c",), "U1": ("c",)},
        {("X", "U0"): {"a": "c", "b": "c"}, ("X", "U1"): {"a": "c", "b": "c"}},
    )
    q, unit = separated_quotient(f)
    assert is_natural(f, q, unit)


def test_sheafify_iso_on_sheaf():
    _, site = path_site()
    f = vertex_functions(site)
    sheafed, unit, presep = sheafify(f)
    assert not presep
    for name in site.names():
        assert len(sheafed.sections[name]) == len(f.sections[name])
        assert len(set(unit[name].values())) == len(f.sections[name])


def test_sheafify_gains_mismatched_sections():
    _, site = two_point_site()
    f = constant_presheaf(site, ("a", "b"))
    sheafed, unit, _ = sheafify(f)
    assert len(sheafed.sections["X"]) == 4
    assert len(sheafed.sections["U0"]) == 2
    assert check_status(sheafed).sheaf
    assert is_natural(f, sheafed, unit)


def test_sheafify_repeats_its_step_until_composite_covers_glue():
    """X has the three components {1, 2}, {0} and {3}. The declared cover
    (A, P3, B) of X restricts to the cover (P0, P1) of B, whose sheaf
    sections are families on a cover that no saturated cover of X has, so
    one step leaves X with 4 sections and no gluing for the rest."""
    x = simplicial_complex([[1, 2], [0], [3]], 1)

    def sub(*verts, edge=()):
        return close_subcomplex(x, {0: [(v,) for v in verts], 1: list(edge)})

    objs = {
        "X": sub(0, 1, 2, 3, edge=[(1, 2)]),
        "A": sub(1, 2, edge=[(1, 2)]),
        "AP3": sub(1, 2, 3, edge=[(1, 2)]),
        "AP0": sub(0, 1, 2, edge=[(1, 2)]),
        "B": sub(0, 1),
        "P0": sub(0),
        "P1": sub(1),
        "P3": sub(3),
    }
    covers = {"X": [("A", "P3", "B")], "AP3": [("A", "P3")], "AP0": [("A", "P0")]}
    site = FiniteSite(x, objs, covers)
    f = constant_presheaf(site, ("a", "b"))
    sheafed, unit, _ = sheafify(f)
    assert check_status(sheafed).sheaf
    assert {name: len(sheafed.sections[name]) for name in ("X", "AP3", "AP0", "B")} == {
        "X": 8, "AP3": 4, "AP0": 4, "B": 4
    }
    assert is_natural(f, sheafed, unit)


def test_check_status_tests_declared_covers_and_sheafify_saturated_ones():
    """On three points with one declared cover (A, B) of X, the constant
    presheaf glues on it, so check_status calls it a sheaf; saturation
    restricts (A, B) to the cover (P1, P2) of C = {1, 2}, on which sheafify
    glues, so C gets a section for each of the 4 families."""
    three = simplicial_complex([[0], [1], [2]], 1)

    def sub(*verts):
        return close_subcomplex(three, {0: [(v,) for v in verts]})

    objs = {
        "X": sub(0, 1, 2), "A": sub(0, 1), "B": sub(0, 2), "C": sub(1, 2),
        "P0": sub(0), "P1": sub(1), "P2": sub(2),
    }
    site = FiniteSite(three, objs, {"X": [("A", "B")]})
    assert ("P1", "P2") in site.saturated_covers()["C"]
    f = constant_presheaf(site, ("a", "b"))
    assert check_status(f).sheaf
    sheafed, unit, _ = sheafify(f)
    assert len(sheafed.sections["C"]) == 4
    assert check_status(sheafed).sheaf
    assert len(set(unit["C"].values())) == 2


def test_empty_object_is_an_object_and_sheafify_refuses_it():
    """With the empty subcomplex E as the meet of U0 and U1, families on
    (U0, U1) must agree on E, so the constant presheaf is a sheaf on the
    declared cover; E keeps both sections in the separated quotient, since
    the empty family is not a cover, and sheafify refuses the site."""
    two, site = two_point_site()
    objs = dict(site.objects, E={})
    site = FiniteSite(two, objs, site.covers)
    assert site.meet("U0", "U1") == "E"
    assert site.saturated_covers()["E"] == [("E",)]
    f = constant_presheaf(site, ("a", "b"))
    assert check_status(f).sheaf
    quotient, _ = separated_quotient(f)
    assert quotient.sections == f.sections
    with pytest.raises(StructureError, match="empty object 'E' below"):
        sheafify(f)


def test_sheafify_lands_in_sheaves_for_all_corpus_presheaves():
    for build_site, connected in ((path_site, True), (two_point_site, False)):
        _, site = build_site()
        for name, f, _ in corpus(site, connected):
            q, _ = separated_quotient(f)
            sheafed, _, _ = sheafify(q)
            assert check_status(sheafed).sheaf, name


def small_corpus(site, connected):
    """Corpus for the exhaustive factorization search: section sets are kept
    small enough that map enumeration stays under the time budget."""
    items = [
        ("constant", constant_presheaf(site, ("a", "b")), connected),
        ("representable", representable_to_delta1(site), True),
    ]
    return items


def test_universal_property_exhaustive():
    for build_site, connected in ((path_site, True), (two_point_site, False)):
        _, site = build_site()
        items = small_corpus(site, connected)
        sheaves = [f for _, f, is_sheaf in items if is_sheaf]
        for fname, f, _ in items:
            sheafed, unit, _ = sheafify(f)
            for g in sheaves:
                for phi in natural_maps(f, g):
                    factorizations = [
                        psi
                        for psi in natural_maps(sheafed, g)
                        if compose_maps(site, unit, psi) == phi
                    ]
                    assert len(factorizations) == 1, fname


def test_union_intersection_idempotent_and_lattice():
    _, site = two_point_site()
    f = vertex_functions(site)
    g = {n: tuple(s for s in f.sections[n] if "(0,)=1" not in s) for n in site.names()}
    u, i = union_intersection(f, g, g)
    assert u == {n: g[n] for n in site.names()}
    assert i == {n: g[n] for n in site.names()}


def test_union_rejects_non_subpresheaf():
    _, site = two_point_site()
    f = vertex_functions(site)
    bad = {
        name: tuple(s for s in f.sections[name] if s.split("|")[0].endswith("=0"))
        for name in site.names()
    }
    with pytest.raises(StructureError):
        union_intersection(f, bad, bad)


def test_union_of_covering_subsheaves_recovers_sheaf():
    _, site = two_point_site()
    f = vertex_functions(site)
    # G: functions vanishing at vertex (0); H: functions vanishing at vertex (1)
    g = {n: tuple(s for s in f.sections[n] if "(0,)=1" not in s) for n in site.names()}
    h = {n: tuple(s for s in f.sections[n] if "(1,)=1" not in s) for n in site.names()}
    u, i = union_intersection(f, g, h)
    assert u == {n: f.sections[n] for n in site.names()}
    for n in site.names():
        assert set(i[n]) <= set(g[n]) <= set(u[n])


def test_union_members_stay_subpresheaves():
    _, site = path_site()
    f = vertex_functions(site)
    g = {n: tuple(s for s in f.sections[n] if "(0,)=1" not in s) for n in site.names()}
    h = {n: tuple(s for s in f.sections[n] if "(2,)=1" not in s) for n in site.names()}
    u, i = union_intersection(f, g, h)
    sub_to_presheaf(f, u)
    sub_to_presheaf(f, i)


def test_site_cover_mv_agrees_with_classical():
    path, site = path_site()
    mv = mayer_vietoris(path, site.objects["A"], site.objects["B"])
    assert mv.betti_x == (1, 0)
    assert mv.betti_a == (1, 0)
    assert mv.betti_ab == (1, 0)
    assert mv.exact()


@settings(max_examples=100)
@given(finite_sites(), st.data())
def test_site_tables_match_the_element_wise_oracle(drawn, data):
    """Order, arrows, meets and saturated covers read off the normalized
    objects once, and the separated quotient and sheafification built on
    them, equal the element-wise scans; every saturated cover covers its
    object. The theorems hold as well: the separated quotient is separated,
    sheafification gives a sheaf for every saturated cover, and its unit is
    a bijection exactly when the presheaf is such a sheaf already. A site
    with an arrow into an empty object is refused by sheafify."""
    base, objects, covers = drawn
    site = FiniteSite(base, objects, covers)
    ref = oracles.scan_site(objects, covers)
    assert site.names() == tuple(ref["names"])
    for a in site.names():
        for b in site.names():
            assert site.leq(a, b) == ref["leq"][(a, b)]
            assert site.meet(a, b) == ref["meet"][(a, b)]
    assert site.arrows() == ref["arrows"]
    assert site.saturated_covers() == ref["sat"]
    assert ref["uncovered"] == []
    for name, fams in site.saturated_covers().items():
        for fam in fams:
            assert oracles.scan_sub_eq(oracles.scan_sub_union(objects[m] for m in fam), objects[name])
    presheaf = data.draw(site_presheaves(site))
    quotient, unit = separated_quotient(presheaf)
    expected, expected_unit = oracles.pairwise_separated_quotient(presheaf, ref)
    assert (quotient.sections, quotient.res, unit) == (expected.sections, expected.res, expected_unit)
    assert check_status(quotient).separated
    if any(not any(site.objects[b].values()) for _, b in site.arrows()):
        with pytest.raises(StructureError, match="empty object"):
            sheafify(presheaf)
        return
    sheafed, unit, separated_first = sheafify(presheaf)
    restrictions = {arrow: sheafed.res[arrow] for arrow in site.arrows()}
    assert (sheafed.sections, restrictions, unit, separated_first) == oracles.reference_sheafify(presheaf, ref)
    # the same objects with every saturated cover declared
    saturated = FiniteSite(base, objects, site.saturated_covers())

    def sheaf_on_saturated(p):
        return check_status(Presheaf(saturated, p.sections, {arrow: p.res[arrow] for arrow in site.arrows()})).sheaf

    assert check_status(sheafed).sheaf and sheaf_on_saturated(sheafed)
    bijective = all(sorted(unit[name].values()) == sorted(sheafed.sections[name]) for name in site.names())
    assert bijective == sheaf_on_saturated(presheaf)
