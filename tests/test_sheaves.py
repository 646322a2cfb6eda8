"""Finite-site presheaves: sheaf condition, separated quotient,
sheafification with its universal property, subpresheaf lattice."""

import pytest

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
    assert not check_status(f).separated
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
