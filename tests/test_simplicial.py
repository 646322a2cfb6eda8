"""Construction, validation, products and quotients of simplicial sets."""

import hashlib
import io
import itertools
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ssetkit.cli import main
from ssetkit.errors import CapExceededError, ParameterError, StructureError
from ssetkit.io_text import serialize_complex
from ssetkit.simplicial import (
    SimplicialMap,
    SimplicialSet,
    circle_two_edges,
    close_subcomplex,
    cyclic_table,
    from_generators,
    is_subcomplex,
    nerve,
    product,
    quotient,
    restrict,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
    standard_horn,
    truncate,
    _column,
    _surjective_tuples,
    _tabulate,
)

from conftest import (
    columns,
    corrupted_maps,
    corrupted_sets,
    fixture_path,
    kan_maps,
    kan_sets,
    swapped_delta2,
    tables,
    with_replaced_entries,
)
from oracles import strict_chain_count


def test_standard_delta_counts():
    d1 = standard_delta(1)
    assert oracles.counts(d1) == (2, 1)
    d2 = standard_delta(2)
    assert oracles.counts(d2) == (3, 3, 1)
    assert oracles.scan_identities(*tables(d2)) == []


def test_horn_counts_and_range():
    h = standard_horn(2, 1, 2)
    assert oracles.counts(h) == (3, 2, 0)
    assert sorted(h.nondegenerate(1)) == [(0, 1), (1, 2)]
    with pytest.raises(ParameterError):
        standard_horn(2, 3)


def test_sphere_quotient_counts():
    s2 = sphere_quotient(2)
    assert oracles.counts(s2) == (1, 0, 1)
    assert oracles.scan_identities(*tables(s2)) == []


def test_constructor_refuses_deliberate_corruption():
    with pytest.raises(StructureError) as err:
        SimplicialSet(*swapped_delta2())
    bad = err.value.violations
    assert bad == oracles.scan_identities(*swapped_delta2())
    assert {name for name, *_ in bad} == {"d_i d_j = d_{j-1} d_i"}
    assert str(err.value) == "simplicial identities fail: " + "; ".join(str(b) for b in bad[:3])
    # no row to name: a reader passes the error on unchanged
    assert not hasattr(err.value, "offending")


def test_identities_scanned_once_per_object(monkeypatch):
    scanned = []
    scan = SimplicialSet._scan_identities

    def counting_scan(self):
        scanned.append(self)
        return scan(self)

    monkeypatch.setattr(SimplicialSet, "_scan_identities", counting_scan)
    for argv, objects in (
        (["derham", fixture_path("delta2.sset"), "--poly-degree", "2"], 1),
        # X and its restrictions to A, B and their intersection
        (["mv", fixture_path("circle2.sset"), fixture_path("circle2.cover")], 4),
    ):
        scanned.clear()
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(scanned) == objects
        assert len({id(x) for x in scanned}) == objects


def test_constructor_refuses_dangling_references():
    d1 = standard_delta(1)

    def dangling_face(n, i, t):
        return (7,) if t == (0, 1) and i == 0 else d1.d(n, i, t)

    def dangling_deg(n, i, t):
        return (7, 7) if t == (0,) else d1.s(n, i, t)

    def late_dangling_deg(n, i, t):
        return (7, 7) if t == (1,) else d1.s(n, i, t)

    def two_dangling_degs(n, i, t):
        return (t[0] + 7,) * 2

    # the first simplex in stored order that is refused is named
    cases = (
        (dangling_face, d1.s, "face d_0 of (0, 1) hits unknown identifier (7,)"),
        (d1.d, dangling_deg, "degeneracy s_0 of (0,) hits unknown identifier (7, 7)"),
        (d1.d, late_dangling_deg, "degeneracy s_0 of (1,) hits unknown identifier (7, 7)"),
        (d1.d, two_dangling_degs, "degeneracy s_0 of (0,) hits unknown identifier (7, 7)"),
    )
    for face, deg, message in cases:
        with pytest.raises(StructureError) as err:
            SimplicialSet(*columns(d1.dim_cap, d1.simplices, face, deg))
        assert str(err.value) == message


def test_constructor_refuses_columns_of_the_wrong_length():
    """A column is the whole level: a short, a long and a missing column are
    refused, naming no simplex."""
    cap, simplices, faces, degs = tables(standard_delta(1))
    for changed, message in (
        ({**faces, (1, 0): faces[(1, 0)][:0]}, "face d_0 has 0 values for the 3 simplices of dimension 1"),
        ({**faces, (1, 1): faces[(1, 1)] * 2}, "face d_1 has 6 values for the 3 simplices of dimension 1"),
        ({(1, 0): faces[(1, 0)]}, "face d_1 has 0 values for the 3 simplices of dimension 1"),
    ):
        with pytest.raises(StructureError) as err:
            SimplicialSet(cap, simplices, changed, degs)
        assert str(err.value) == message
        assert not hasattr(err.value, "offending")


def test_nerve_is_valid_and_counts():
    nz2 = nerve(cyclic_table(2), 3)
    assert oracles.scan_identities(*tables(nz2)) == []
    assert oracles.counts(nz2) == (1, 1, 1, 1)
    nz3 = nerve(cyclic_table(3), 3)
    assert oracles.scan_identities(*tables(nz3)) == []
    # n-simplices are n-tuples of group elements
    assert len(nz3.simplices[2]) == 9


def test_product_counts_match_shuffles():
    p = product(standard_delta(1, 2), standard_delta(1, 2))
    assert oracles.counts(p) == (4, 5, 2)
    q = product(standard_delta(1, 3), standard_delta(2, 3))
    assert oracles.counts(q)[3] == 3  # C(3,1) shuffles
    assert oracles.scan_identities(*tables(q)) == []


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_product_nondegenerate_counts_vs_chain_oracle(p, q):
    cap = min(p + q, 3)
    prod = product(standard_delta(p, cap), standard_delta(q, cap))
    for n in range(cap + 1):
        assert len(prod.nondegenerate(n)) == strict_chain_count(p, q, n + 1)


def test_product_unit():
    y = standard_boundary(2, 2)
    p = product(standard_delta(0, 2), y)
    iso = SimplicialMap(p, y, {n: {s: s[1] for s in p.simplices[n]} for n in p.dims()})
    assert oracles.is_isomorphism(iso)


def test_product_symmetry_isomorphism():
    x = standard_delta(1, 2)
    y = standard_boundary(2, 2)
    xy = product(x, y)
    yx = product(y, x)
    swap = SimplicialMap(xy, yx, {n: {s: (s[1], s[0]) for s in xy.simplices[n]} for n in xy.dims()})
    assert oracles.is_isomorphism(swap)


def test_product_refuses_cap_overflow():
    with pytest.raises(CapExceededError):
        product(standard_delta(1, 2), standard_delta(1, 2), dim_cap=3)


def _constant_on_two_points(extra=None):
    """Both vertices of two points (cap 1) sent to the tower on (0,); extra
    adds a key to every level."""
    two = simplicial_complex([[0], [1]], 1)
    level = {n: {s: (0,) * (n + 1) for s in two.simplices[n]} for n in two.dims()}
    for n in two.dims():
        level[n].update(extra or {})
    return two, level


def test_map_refuses_a_key_that_is_not_a_source_simplex():
    two, level = _constant_on_two_points({"zz": (1,)})
    with pytest.raises(StructureError, match="^zz is not a source simplex of dimension 0$") as err:
        SimplicialMap(two, two, level)
    assert err.value.offending == (0, "zz")


def test_non_injective_map_of_equal_caps_is_not_an_isomorphism():
    two, level = _constant_on_two_points()
    p = SimplicialMap(two, two, level)
    assert oracles.scan_map_violations(two, two, level) == []
    assert not oracles.is_isomorphism(p)


def test_map_checks_keys_up_to_its_cap_only():
    d1 = standard_delta(1, 2)
    level = {n: {s: s for s in d1.simplices[n]} for n in d1.dims()}
    with pytest.raises(StructureError, match=r"^\(0,\) is not a source simplex of dimension -1$"):
        SimplicialMap(d1, d1, {**level, -1: {(0,): (0,)}})
    p = SimplicialMap(d1, truncate(d1, 1), {**level, 5: {"zz": "zz"}})
    assert p.dim_cap == 1 and sorted(p._image) == [0, 1]
    with pytest.raises(StructureError, match=r"^map f_1 undefined on \(0, 1\)$"):
        SimplicialMap(d1, d1, {**level, 1: {(0, 0): (0, 0), (1, 1): (1, 1)}})
    with pytest.raises(StructureError, match=r"^map f_0 of \(1,\) hits unknown identifier \(2,\)$"):
        SimplicialMap(d1, d1, {**level, 0: {(0,): (0,), (1,): (2,)}})


def test_map_constructor_refuses_a_table_that_fails_to_commute():
    d1 = standard_delta(1)
    level = {0: {s: s for s in d1.simplices[0]}, 1: {s: (0, 0) for s in d1.simplices[1]}}
    with pytest.raises(StructureError, match="^map fails to commute with 4 structure maps$") as err:
        SimplicialMap(d1, d1, level)
    bad = [("face", 1, 0, (0, 1)), ("face", 1, 0, (1, 1)), ("face", 1, 1, (1, 1)), ("degeneracy", 0, 0, (1,))]
    assert err.value.violations == bad == oracles.scan_map_violations(d1, d1, level)
    assert not hasattr(err.value, "offending")


def test_compose_through_a_lower_middle_cap_is_refused():
    d = standard_delta(1, 3)
    low = truncate(d, 1)
    down = SimplicialMap(d, low, {n: {s: s for s in low.simplices[n]} for n in low.dims()})
    up = SimplicialMap(low, d, {n: {s: s for s in low.simplices[n]} for n in low.dims()})
    with pytest.raises(ParameterError, match="^composite of cap 3 through a middle set of cap 1$"):
        up.compose(down)
    assert oracles.is_isomorphism(down.compose(up))


def test_quotient_examples():
    d2 = standard_delta(2)
    bdy = {
        m: frozenset(t for t in d2.simplices[m] if set(t) != {0, 1, 2})
        for m in d2.dims()
    }
    q = quotient(d2, bdy)
    assert oracles.counts(q) == (1, 0, 1)
    assert oracles.scan_identities(*tables(q)) == []
    total = quotient(d2, {n: frozenset(d2.simplices[n]) for n in d2.dims()})
    assert oracles.counts(total) == (1, 0, 0)
    d1 = standard_delta(1, 2)
    circle = quotient(d1, {m: frozenset(t for t in d1.simplices[m] if len(set(t)) == 1) for m in d1.dims()})
    assert oracles.counts(circle) == (1, 1, 0)


def test_quotient_requires_closed_subcomplex():
    d2 = standard_delta(2)
    not_closed = {1: frozenset({(0, 1)})}
    with pytest.raises(StructureError):
        quotient(d2, not_closed)


def test_closure_and_subcomplex_check():
    b3 = standard_boundary(3)
    star = close_subcomplex(b3, {2: [(0, 1, 2)]})
    assert is_subcomplex(b3, star) is None
    assert (0, 1) in star[1]
    assert star[0] >= {(0,), (1,), (2,)}


@st.composite
def families(draw):
    """A drawn set and a family of its simplices: the closure of drawn
    seeds, at times with one member dropped, or drawn members of each
    dimension; at times with a member off the cap or one that is not a
    listed simplex."""
    x = draw(kan_sets())
    if draw(st.booleans()):
        seeds = {}
        for n, s in draw(st.lists(st.sampled_from([(n, s) for n in x.dims() for s in x.simplices[n]]),
                                  min_size=1, max_size=3)):
            seeds.setdefault(n, []).append(s)
        sub = {n: set(members) for n, members in close_subcomplex(x, seeds).items()}
        if draw(st.booleans()):
            n = draw(st.sampled_from([n for n in x.dims() if sub[n]]))
            sub[n].discard(draw(st.sampled_from([s for s in x.simplices[n] if s in sub[n]])))
    else:
        sub = {n: set(draw(st.lists(st.sampled_from(x.simplices[n]), max_size=4))) for n in x.dims()}
    stray = draw(st.sampled_from([None, None, "off the cap", "unknown"]))
    if stray == "off the cap":
        sub[draw(st.sampled_from([-1, x.dim_cap + 1]))] = {x.simplices[0][0]}
    elif stray == "unknown":
        sub[draw(st.sampled_from(list(x.dims())))].add("not a simplex")
    return x, {n: frozenset(members) for n, members in sub.items()}


@settings(max_examples=80)
@given(families())
def test_closure_check_matches_the_element_wise_oracle(family):
    x, sub = family
    assert is_subcomplex(x, sub) == oracles.scan_is_subcomplex(x, sub)


def test_members_off_the_cap_are_refused():
    """A member or seed in a dimension outside 0..cap is no simplex of x: the
    check names it and the closure refuses it, as for an unknown member
    inside the range."""
    b3 = standard_boundary(3)
    star = close_subcomplex(b3, {2: [(0, 1, 2)]})
    assert is_subcomplex(b3, {**star, 7: frozenset({"nonsense"})}) == ("unknown", 7, "nonsense")
    assert is_subcomplex(b3, {**star, -1: frozenset({"junk"})}) == ("unknown", -1, "junk")
    assert is_subcomplex(b3, {**star, 1: star[1] | {"zz"}}) == ("unknown", 1, "zz")
    assert is_subcomplex(b3, {**star, 7: frozenset()}) is None
    for n, s in ((7, "nonsense"), (-1, "junk"), (3, (0, 1, 2, 3)), (1, "zz")):
        with pytest.raises(StructureError, match="is not a simplex of dimension %d$" % n):
            close_subcomplex(b3, {2: [(0, 1, 2)], n: [s]})
    with pytest.raises(StructureError, match="unknown"):
        restrict(b3, {**star, 7: frozenset({"nonsense"})})


def test_generated_circle_validates():
    c = circle_two_edges(3)
    assert oracles.scan_identities(*tables(c)) == []
    assert oracles.counts(c) == (2, 2, 0, 0)


def test_simplicial_complex_rp2_counts():
    rp2 = simplicial_complex(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]],
        3,
    )
    assert oracles.counts(rp2) == (6, 15, 10, 0)
    assert oracles.scan_identities(*tables(rp2)) == []


def test_truncate_refuses_raise():
    d2 = standard_delta(2)
    t = truncate(d2, 1)
    assert t.dim_cap == 1 and oracles.scan_identities(*tables(t)) == []
    with pytest.raises(CapExceededError):
        truncate(t, 2)


def test_every_generated_object_validates():
    objects = [
        standard_delta(3),
        standard_boundary(3),
        standard_horn(3, 2),
        sphere_quotient(1, 3),
        nerve(cyclic_table(4), 2),
        product(sphere_quotient(1, 2), standard_delta(1, 2)),
        circle_two_edges(2),
    ]
    for x in objects:
        assert oracles.scan_identities(*tables(x)) == []


# -- whole-table scans against the element-wise oracles -------------------------

SCAN_SETTINGS = settings(max_examples=80)


def _refusal(build):
    """What the constructor refused build's tables for: its violations, or
    ("StructureError", text) for a refusal without them; [] when it built."""
    try:
        build()
    except StructureError as exc:
        return exc.violations if hasattr(exc, "violations") else ("StructureError", str(exc))
    return []


@SCAN_SETTINGS
@given(corrupted_sets())
def test_identity_scan_matches_the_element_wise_oracle(raw):
    assert _refusal(lambda: SimplicialSet(*raw)) == oracles.scan_identities(*raw)


def test_identity_scan_reports_every_family_in_order():
    """Three corrupted entries of Delta^2 that break every identity, several
    of them on more than one simplex of a dimension."""
    d2 = standard_delta(2, 3)
    raw = with_replaced_entries(d2, {
        ("d", 2, 0, (0, 1, 2)): (0, 1),
        ("s", 1, 0, (0, 2)): (0, 1, 2),
        ("s", 1, 1, (0, 2)): (0, 1, 2),
    })
    bad = _refusal(lambda: SimplicialSet(*raw))
    assert bad == oracles.scan_identities(*raw)
    assert {name for name, *_ in bad} == {
        "d_i d_j = d_{j-1} d_i",
        "d_j s_j = id",
        "d_{j+1} s_j = id",
        "d_i s_j = s_{j-1} d_i (i<j)",
        "d_i s_j = s_j d_{i-1} (i>j+1)",
        "s_i s_j = s_{j+1} s_i (i<=j)",
    }


def _outcome(check):
    try:
        return check()
    except StructureError as exc:
        return ("StructureError", str(exc))


@SCAN_SETTINGS
@given(corrupted_maps())
def test_map_check_matches_the_element_wise_oracle(raw):
    assert _refusal(lambda: SimplicialMap(*raw)) == _outcome(lambda: oracles.scan_map_violations(*raw))


@settings(max_examples=40)
@given(kan_sets(), kan_maps(), st.integers(0, 3), st.integers(1, 3), st.data())
def test_kept_positions_are_the_element_wise_index_lookups(y, q, n, cap, data):
    """Each kept table against the functions its object was built from: a
    set built from the structure maps of a drawn set, a map from a level
    map read off a drawn map, and the restriction of the drawn set to the
    closure of some of its simplices, its truncation and its product with
    the drawn map's target, read through the d and s of the parent and
    factors."""
    def lookups(z, m, values):
        return tuple(z._index[m][v] for v in values)

    def check(x, d, s):
        assert set(x._dpos) == {(m, i) for m in range(1, x.dim_cap + 1) for i in range(m + 1)}
        assert set(x._spos) == {(m, i) for m in range(x.dim_cap) for i in range(m + 1)}
        for m, i in x._dpos:
            assert x._dpos[(m, i)] == lookups(x, m - 1, [d(m, i, t) for t in x.simplices[m]])
        for m, i in x._spos:
            assert x._spos[(m, i)] == lookups(x, m + 1, [s(m, i, t) for t in x.simplices[m]])

    check(SimplicialSet(*tables(y)), y.d, y.s)
    seeds = {}
    for m, t in data.draw(st.lists(st.sampled_from([(m, t) for m in y.dims() for t in y.simplices[m]]),
                                   min_size=1, max_size=2)):
        seeds.setdefault(m, []).append(t)
    family = close_subcomplex(y, seeds)
    sub = restrict(y, family)
    check(sub, y.d, y.s)
    assert all(sub.simplices[m] == tuple(t for t in y.simplices[m] if t in family[m]) for m in y.dims())
    check(truncate(y, min(n, y.dim_cap)), y.d, y.s)
    z = q.target
    yz = product(y, z, min(y.dim_cap, z.dim_cap, 2))
    check(yz, lambda m, i, ab: (y.d(m, i, ab[0]), z.d(m, i, ab[1])),
          lambda m, i, ab: (y.s(m, i, ab[0]), z.s(m, i, ab[1])))
    level = {m: {s: q(m, s) for s in q.source.simplices[m]} for m in range(q.dim_cap + 1)}
    p = SimplicialMap(q.source, q.target, level)
    assert sorted(p._image) == list(range(p.dim_cap + 1))
    for m in range(p.dim_cap + 1):
        assert p._image[m] == lookups(p.target, m, [level[m][s] for s in p.source.simplices[m]])
    delta = standard_delta(n, cap)
    extra = oracles.cone_extra_degeneracy(delta)
    for m in range(cap):
        column = _column(extra.maps[m], delta.simplices[m])
        positions = _tabulate(column, m, delta.simplices[m], delta._index[m + 1], "s_{-1}")
        assert positions == lookups(delta, m + 1, [extra(m, s) for s in delta.simplices[m]])


# -- derived degeneracies ------------------------------------------------------


def derived(x):
    """Each listed simplex of x mapped to its witness, or None when nondegenerate."""
    out = {}
    for n in x.dims():
        for s in x.simplices[n]:
            out[(n, s)] = x.witness.get((n, s))
            assert (out[(n, s)] is not None) == x.is_degenerate(n, s)
    return out


@settings(max_examples=40)
@given(kan_sets())
def test_witnesses_are_listed_in_the_order_first_reached(y):
    """witness lists each degenerate simplex with its least (i, y), in the
    order the scan over n, then i, then y in stored order first reaches it,
    read off the degeneracy maps the set was built from."""
    x = SimplicialSet(*tables(y))
    expected = {}
    for n in range(1, x.dim_cap + 1):
        for i in range(n):
            for base in x.simplices[n - 1]:
                expected.setdefault((n, y.s(n - 1, i, base)), (i, base))
    assert list(x.witness.items()) == list(expected.items())


def tuple_witness(t):
    """Closed form for tuple simplices: degenerate iff two adjacent entries
    are equal; the least such position i gives t = s_i(t without entry i+1)."""
    for i in range(len(t) - 1):
        if t[i] == t[i + 1]:
            return i, t[: i + 1] + t[i + 2:]
    return None


def test_tuple_sets_degenerate_iff_adjacent_entries_repeat():
    tuple_sets = (
        standard_delta(3),
        standard_boundary(3, 3),
        standard_horn(3, 1),
        simplicial_complex([[0, 1, 2], [2, 3]], 3),
    )
    for x in tuple_sets:
        assert derived(x) == {(n, t): tuple_witness(t) for n in x.dims() for t in x.simplices[n]}


def test_nerve_degenerate_iff_an_entry_is_the_identity():
    x = nerve(cyclic_table(3), 3)
    expected = {}
    for n in x.dims():
        for g in x.simplices[n]:
            i = next((i for i, gi in enumerate(g) if gi == 0), None)
            expected[(n, g)] = None if i is None else (i, g[:i] + g[i + 1:])
    assert derived(x) == expected


def test_from_generators_degenerate_iff_eta_not_injective():
    sphere = from_generators(3, {0: [("v", ())], 2: [("S", [((0, 0), "v")] * 3)]})
    for x in (circle_two_edges(3), sphere):
        assert oracles.scan_identities(*tables(x)) == []
        for (n, s), w in derived(x).items():
            if not isinstance(s, tuple):  # a generator: eta is the identity
                assert w is None
                continue
            _, eta, gid = s
            i, smaller = tuple_witness(eta)
            assert len(set(eta)) < len(eta)
            assert w == (i, gid if smaller == tuple(range(len(smaller))) else ("s", smaller, gid))


@pytest.mark.parametrize("support", [(0,), (0, 1), (0, 1, 2), (2, 5, 7)])
def test_surjective_tuples_in_decreasing_order(support):
    """Every weakly increasing tuple with image `support`, largest first;
    from_generators lists each generator's degeneracies in this order."""
    for length in range(1, 7):
        expected = sorted(
            (t for t in itertools.product(support, repeat=length)
             if set(t) == set(support) and list(t) == sorted(t)),
            reverse=True,
        )
        assert list(_surjective_tuples(support, length)) == expected


def test_collapse_recovers_the_generator_encoding():
    """Every simplex ("s", eta, gid) of a presented set collapses onto its
    generator along eta, and a generator onto itself along the identity."""
    sphere = from_generators(3, {0: [("v", ())], 2: [("S", [((0, 0), "v")] * 3)]})
    for x in (circle_two_edges(3), sphere):
        for n in x.dims():
            for s in x.simplices[n]:
                m, base, eta = x.collapse(n, s)
                if isinstance(s, tuple):
                    assert (base, eta) == (s[2], s[1])
                else:
                    assert (m, base, eta) == (n, s, tuple(range(n + 1)))
                assert base in x.nondegenerate(m) and eta[-1] == m


@pytest.mark.parametrize("x", [standard_delta(3), nerve(cyclic_table(3), 3), sphere_quotient(3)],
                         ids=["delta3", "nerve_z3_cap3", "sphere3"])
def test_face_on_is_the_composite_of_the_other_faces(x):
    """face_on against the other order of deletion, from the bottom up with
    each index lowered by the deletions below it, for every simplex and
    every nonempty vertex subset."""
    for n in x.dims():
        for s in x.simplices[n]:
            for k in range(1, n + 2):
                for vertices in itertools.combinations(range(n + 1), k):
                    y, deleted = s, 0
                    for i in range(n + 1):
                        if i not in vertices:
                            y = x.d(n - deleted, i - deleted, y)
                            deleted += 1
                    assert x.face_on(n, s, vertices) == y


def test_quotient_base_point_witness():
    q = sphere_quotient(2, 4)
    for n in range(1, 5):
        assert q.witness[(n, "*")] == (0, "*")
    assert not q.is_degenerate(0, "*")


def test_product_witness_uses_the_least_common_index():
    a, b = standard_delta(1, 3), standard_delta(2, 3)
    x = product(a, b)
    for (n, (s, t)), w in derived(x).items():
        common = [i for i in range(n) if s[i] == s[i + 1] and t[i] == t[i + 1]]
        if not common:
            assert w is None
        else:
            i = common[0]
            assert w == (i, (s[: i + 1] + s[i + 2:], t[: i + 1] + t[i + 2:]))


def test_restrict_and_truncate_agree_with_the_ambient_set():
    b3 = standard_boundary(3, 3)
    star = close_subcomplex(b3, {2: [(0, 1, 2)]})
    sub = restrict(b3, star)
    low = truncate(b3, 2)
    ambient = derived(b3)
    assert derived(sub) == {k: ambient[k] for k in derived(sub)}
    assert derived(low) == {k: w for k, w in ambient.items() if k[0] <= 2}


# -- golden tables -------------------------------------------------------------


def _star_of_012():
    b3 = standard_boundary(3, 3)
    return restrict(b3, close_subcomplex(b3, {2: [(0, 1, 2)]}))


def _circle_quotient():
    d1 = standard_delta(1, 2)
    ends = {m: frozenset(t for t in d1.simplices[m] if len(set(t)) == 1) for m in d1.dims()}
    return quotient(d1, ends)


def _s3_table():
    """Composition table of the permutations of (0, 1, 2): a non-abelian group,
    so the nerve's inner faces show the order of the product."""
    perms = list(itertools.permutations(range(3)))
    return {(a, b): tuple(a[b[k]] for k in range(3)) for a in perms for b in perms}


# SHA-256 of serialize_complex for every construction, recorded when each
# construction still built its own face and degeneracy tables.
GOLDEN_TABLES = {
    "delta3": (
        lambda: standard_delta(3),
        "67e54467bcc8b18a381b6a2e212359b2c7fc7e6d6160d4c194fed08e8c7f7dfb",
    ),
    "boundary3": (
        lambda: standard_boundary(3, 3),
        "1fd8d0250e6fd14ee4cc02d8efda679cf60a0b87b1f9523ee4783d49e3c8edbc",
    ),
    "horn3_1": (
        lambda: standard_horn(3, 1),
        "8747b12ae6ebb21ea5b0c2c1e50c7e5e7bacbfc70cd9120ee34b810ed792143c",
    ),
    "complex": (
        lambda: simplicial_complex([[0, 1, 2], [2, 3]], 3),
        "1040d81d01ac2723dbab4c2c00f13586a702544df45e3a1c26ed4dd8a1f106e9",
    ),
    "nerve1_2": (
        lambda: nerve(cyclic_table(1), 2),
        "8b68c02414cf806f269c8fb9e49084da6860e02139dd6b52225617c7b1cffa44",
    ),
    "nerve1_3": (
        lambda: nerve(cyclic_table(1), 3),
        "adad17e32760748a7d6ce7395f93edfbec5a465eec75889a383678cc34e12b3e",
    ),
    "nerve1_4": (
        lambda: nerve(cyclic_table(1), 4),
        "381a1242cadaa86853955001850a9e5d46963e72f909d091077cf94157278fa0",
    ),
    "nerve2_2": (
        lambda: nerve(cyclic_table(2), 2),
        "8c3b7cb4b8a22b29a393e3692c5cc4b650b2ed3e5303824d0c1c104a113a68c4",
    ),
    "nerve2_3": (
        lambda: nerve(cyclic_table(2), 3),
        "5ffc02ce1a04ffc24ba86e02748bdef9aa0b3316cbdcf2158ddc10f9935a6459",
    ),
    "nerve2_4": (
        lambda: nerve(cyclic_table(2), 4),
        "5cc905c023893983b8beee3c316efa1028ea7bfb59a041be2bcad66444e490be",
    ),
    "nerve3_2": (
        lambda: nerve(cyclic_table(3), 2),
        "a53a3ed14c50f2337152833aa8f07c3b1c376b454858e7bc9da6c1a7eeb3cd4d",
    ),
    "nerve3_3": (
        lambda: nerve(cyclic_table(3), 3),
        "4e43454e20ad10d306dbc97b8c5b1c5c888463c729518885cd26349ae9e00622",
    ),
    "nerve3_4": (
        lambda: nerve(cyclic_table(3), 4),
        "627f2bba8b0f39e3019c467cae815237e1a826209f36357ba8615e86bc598cf7",
    ),
    "nerve_s3_2": (
        lambda: nerve(_s3_table(), 2),
        "d7641d54122369692de1a20eda78432ef3382ae0e5e5746779035179c51de186",
    ),
    "product": (
        lambda: product(standard_delta(1, 3), standard_boundary(2, 3)),
        "0572de67795ebc6705eff6292cbd6fe9c977c04306285fadea88ce6dbd2c86be",
    ),
    "quotient": (
        _circle_quotient,
        "8d479ff3d46c73f7f97a6a6802bf27474d8f27f1ef21d32760f3cc0bcd7a2097",
    ),
    "sphere_quotient": (
        lambda: sphere_quotient(2, 3),
        "c3a586001a00a857abea326b2a10755a76c3441a8c806ad17deaa0feb7f981f9",
    ),
    "circle_two_edges": (
        lambda: circle_two_edges(3),
        "b45cd0f55d7c0997894d701551e7285c1acf56ea2074546334430c28b96a5461",
    ),
    "generators_degenerate_face": (
        lambda: from_generators(
            3, {0: [("v", ())], 1: [("e", ("v", "v"))], 2: [("t", ("e", "e", ((0, 0), "v")))]}
        ),
        "3109aa616e264cdcb8f3125a2ea732de56a03175534379dfb64fe2b099a1540b",
    ),
    "restrict_star": (
        _star_of_012,
        "798f49a42be1c727eea649b5168711bd82162b516a2253680e3e2953cc475eec",
    ),
    "truncate": (
        lambda: truncate(nerve(cyclic_table(3), 4), 2),
        "a53a3ed14c50f2337152833aa8f07c3b1c376b454858e7bc9da6c1a7eeb3cd4d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_constructions_keep_their_golden_tables(name):
    build, digest = GOLDEN_TABLES[name]
    x = build()
    assert oracles.scan_identities(*tables(x)) == []
    assert hashlib.sha256(serialize_complex(x).encode()).hexdigest() == digest
