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
    _compatible_families,
    _plus,
    check_status,
    compose_maps,
    separated_quotient,
    sheafify,
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
    assert oracles.is_natural(f, q, unit)


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
    assert oracles.is_natural(f, sheafed, unit)


def composite_cover_site():
    """X has the three components {1, 2}, {0} and {3}. The declared cover
    (A, P3, B) of X composes with the cover (P0, P1) of B, which is the
    pullback of the declared cover (A, P0) of AP0, so the least covering
    sieve of X is generated by A, P0 and P3."""
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
    return FiniteSite(x, objs, covers)


def test_sheafify_glues_over_composite_covers():
    site = composite_cover_site()
    assert site.least_sieve("B") == ("P0", "P1")
    assert site.least_sieve("X") == ("A", "P0", "P3")
    f = constant_presheaf(site, ("a", "b"))
    sheafed, unit, _ = sheafify(f)
    assert check_status(sheafed).sheaf
    assert {name: len(sheafed.sections[name]) for name in ("X", "AP3", "AP0", "B")} == {
        "X": 8, "AP3": 4, "AP0": 4, "B": 4
    }
    assert oracles.is_natural(f, sheafed, unit)


def test_check_status_and_sheafify_use_the_same_composed_covers():
    """On three points with one declared cover (A, B) of X, the pullback of
    (A, B) to C = {1, 2} is generated by P1 and P2, so the least covering
    sieve of C is generated by them. The constant presheaf does not glue
    there, so it is not a sheaf, and sheafify gives C a section for each of
    the 4 families."""
    three = simplicial_complex([[0], [1], [2]], 1)

    def sub(*verts):
        return close_subcomplex(three, {0: [(v,) for v in verts]})

    objs = {
        "X": sub(0, 1, 2), "A": sub(0, 1), "B": sub(0, 2), "C": sub(1, 2),
        "P0": sub(0), "P1": sub(1), "P2": sub(2),
    }
    site = FiniteSite(three, objs, {"X": [("A", "B")]})
    assert site.least_sieve("C") == ("P1", "P2")
    f = constant_presheaf(site, ("a", "b"))
    status = check_status(f)
    assert status.separated and not status.sheaf
    assert status.witness == ("C", ("P1", "P2"), ("a", "b"), 0)
    sheafed, unit, _ = sheafify(f)
    assert len(sheafed.sections["C"]) == 4
    assert check_status(sheafed).sheaf
    assert len(set(unit["C"].values())) == 2


def test_empty_object_is_an_object_and_sheafify_keeps_it():
    """With the empty subcomplex E as the meet of U0 and U1, families on
    (U0, U1) must agree on E, so the constant presheaf is a sheaf; E is
    covered by its maximal sieve only, and sheafify returns the same
    section counts with a bijective unit."""
    two, site = two_point_site()
    objs = dict(site.objects, E={})
    site = FiniteSite(two, objs, site.covers)
    assert site.meet("U0", "U1") == "E"
    assert site.least_sieve("E") == ("E",)
    f = constant_presheaf(site, ("a", "b"))
    assert check_status(f).sheaf
    quotient, _ = separated_quotient(f)
    assert quotient.sections == f.sections
    sheafed, unit, separated_first = sheafify(f)
    assert not separated_first
    for name in site.names():
        assert len(unit[name]) == 2 and sorted(unit[name].values()) == sorted(sheafed.sections[name])


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
                for phi in oracles.natural_maps(f, g):
                    factorizations = [
                        psi
                        for psi in oracles.natural_maps(sheafed, g)
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
    oracles.sub_to_presheaf(f, u)
    oracles.sub_to_presheaf(f, i)


def test_union_closes_over_composite_covers():
    """On the composite-cover site, G (value 0 at vertex 0) and H (value 0
    at vertex 1) together hold every function on A, P0, P1 and P3, the
    generators of the least covering sieve of X, so every function on X
    lies in the union, the 4 that are 1 at vertices 0 and 1 included,
    though their restrictions to the member B of the declared cover lie in
    neither."""
    site = composite_cover_site()
    f = vertex_functions(site)
    g = {n: tuple(s for s in f.sections[n] if "(0,)=1" not in s) for n in site.names()}
    h = {n: tuple(s for s in f.sections[n] if "(1,)=1" not in s) for n in site.names()}
    u, i = union_intersection(f, g, h)
    assert u == {n: f.sections[n] for n in site.names()}
    assert len(set(g["B"]) | set(h["B"])) == 3 and len(i["X"]) == 4


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
    """Order, arrows and meets read off the normalized objects once equal
    the element-wise scans. The least covering sieve of each object is the
    intersection of the literal closure J(U) of the declared covers and
    lies in J(U), and every sieve of J(U) covers U. check_status is the
    sheaf condition tested on every sieve of J, and P+ is the colimit of
    the matching families over all of J(U), through the restriction of
    each datum to the generators of the least sieve: a bijection on classes
    that commutes with restrictions and units, for the presheaf and for its
    P+. The separated quotient identifies the sections whose units are
    equivalent. The theorems hold as well: the quotient is separated,
    sheafification gives a sheaf, and its unit is a bijection exactly when
    the presheaf is a sheaf."""
    base, objects, covers = drawn
    site = FiniteSite(base, objects, covers)
    ref = oracles.scan_site(objects, covers)
    assert site.names() == tuple(ref["names"])
    for a in site.names():
        for b in site.names():
            assert site.leq(a, b) == ref["leq"][(a, b)]
            assert site.meet(a, b) == ref["meet"][(a, b)]
    assert site.arrows() == ref["arrows"]
    for name in site.names():
        least = frozenset.intersection(*ref["J"][name])
        assert least in ref["J"][name]
        maximal = [v for v in least if not any(ref["leq"][(v, w)] and not ref["leq"][(w, v)] for w in least)]
        assert site.least_sieve(name) == tuple(sorted(maximal, key=str))
        for sieve in ref["J"][name]:
            assert oracles.scan_sub_eq(oracles.scan_sub_union(objects[m] for m in sieve), objects[name])
    presheaf = data.draw(site_presheaves(site))
    status = check_status(presheaf)
    assert (status.separated, status.sheaf) == oracles.scan_sheaf_condition(presheaf, ref)
    plus, unit = _plus(presheaf)
    for p, (p_plus, p_unit) in ((presheaf, (plus, unit)), (plus, _plus(plus))):
        classes = oracles.reference_plus(p, ref)
        label = {}  # name -> family on the generators of the least sieve -> its section of P+
        for name in site.names():
            families = _compatible_families(p, site.least_sieve(name))
            label[name] = {fam: p_plus.sections[name][i] for i, fam in enumerate(families)}

        def image(name, datum):
            return label[name][tuple(dict(datum[1])[m] for m in site.least_sieve(name))]

        for name in site.names():
            assert sorted(image(name, cls[0]) for cls in classes[name]) == sorted(p_plus.sections[name])
            assert all(image(name, d) == image(name, cls[0]) for cls in classes[name] for d in cls)
            for s in p.sections[name]:
                assert image(name, oracles.reference_plus_unit(p, ref, name, s)) == p_unit[name][s]
        for a, b in site.arrows():
            for cls in classes[a]:
                restricted = oracles.reference_plus_restrict(ref, cls[0], b)
                assert image(b, restricted) == p_plus.res[(a, b)][image(a, cls[0])]
    quotient, quotient_unit = separated_quotient(presheaf)
    for name in site.names():
        for s in presheaf.sections[name]:
            for t in presheaf.sections[name]:
                assert (quotient_unit[name][s] == quotient_unit[name][t]) == (unit[name][s] == unit[name][t])
    assert check_status(quotient).separated and oracles.is_natural(presheaf, quotient, quotient_unit)
    sheafed, sheaf_unit, separated_first = sheafify(presheaf)
    assert check_status(plus).separated and check_status(sheafed).sheaf
    assert separated_first == (not status.separated)
    bijective = all(sorted(sheaf_unit[name].values()) == sorted(sheafed.sections[name]) for name in site.names())
    assert bijective == status.sheaf
