"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them).

All checks are exact except criterion 9, whose operator is defined through a
transcendental bump function and carries explicit numeric tolerances.
"""

import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from ssetkit.cli import main
from ssetkit.connections import (
    bump_factor,
    chern_weil_form,
    curvature,
    extra_degeneracy_value,
    horn_connection_fill,
    face_extend,
    u1_chern_number,
    U1BundleData,
    abelian_line,
    sl2,
)
from ssetkit.derham import derham_cohomology
from ssetkit.errors import CompatibilityError
from ssetkit.forms import PolyForm, derham_map, whitney
from ssetkit.homology import chain_complex, homology, mayer_vietoris
from ssetkit.kan import is_fibrant, is_fibration
from ssetkit.linalg import rank
from ssetkit.randomsuite import stokes_suite, subdivision_suite
from ssetkit.sheaves import (
    check_status,
    compose_maps,
    separated_quotient,
    sheafify,
)
from ssetkit.simplicial import (
    SimplicialMap,
    circle_two_edges,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
)

from conftest import face_map, fixture_path
from oracles import betti_from_matrices, natural_maps, snf_diagonal, triples
from test_connections import polyform_evaluator, rnd_connection, tetra_bundle
from test_sheaves import path_site, small_corpus, two_point_site

RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def report(number, label, elapsed, budget):
    print("ACCEPTANCE %2d: PASS  %s  (%.2fs, budget %ss)" % (number, label, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ss budget" % (number, budget)


def homology_with_oracle(x):
    c = chain_complex(x)
    summary = homology(c)
    boundaries = {n: triples(c.boundary_or_zero(n)) for n in range(c.top + 2)}
    dims = [c.dim(n) for n in range(c.top + 1)]
    assert betti_from_matrices(dims, boundaries) == summary.betti
    for n in range(c.top + 1):
        entries, nrows, ncols = boundaries[n + 1]
        assert tuple(d for d in snf_diagonal(entries, nrows, ncols) if d > 1) == summary.torsion.get(n, ())
    return summary


def test_criterion_1_homology_suite():
    started = time.time()
    t0 = time.time()
    assert homology_with_oracle(standard_boundary(3)).betti == (1, 0, 1)
    assert time.time() - t0 < 1.0
    t0 = time.time()
    torus = product(sphere_quotient(1, 3), sphere_quotient(1, 3))
    assert homology_with_oracle(torus).betti == (1, 2, 1, 0)
    assert time.time() - t0 < 1.0
    t0 = time.time()
    rp2 = homology_with_oracle(simplicial_complex(RP2_FACETS, 3))
    assert rp2.betti == (1, 0, 0, 0)
    assert rp2.torsion[1] == (2,)
    assert time.time() - t0 < 1.0
    report(1, "betti/torsion of bd(D3), torus, RP2 vs serialized-SNF oracle", time.time() - started, 3)


def test_criterion_2_subdivision_identities():
    started = time.time()
    rows = subdivision_suite(random.Random(20260808), trials=100)
    assert all(passed for _, passed, _ in rows)
    report(2, "dS=Sd, dT+Td=S-id (100 trials, dims 1-4), diameter bounds dims 1-3", time.time() - started, 10)


def test_criterion_3_mayer_vietoris():
    started = time.time()
    circle = circle_two_edges(2)
    t0 = time.time()
    mv1 = mayer_vietoris(circle, close_subcomplex(circle, {1: ["a"]}), close_subcomplex(circle, {1: ["b"]}))
    assert mv1.exact() and rank(mv1.connecting[0]) == 1
    assert time.time() - t0 < 1.0
    b3 = standard_boundary(3)
    star = close_subcomplex(b3, {n: [s for s in b3.nondegenerate(n) if 0 in s] for n in b3.dims()})
    comp = close_subcomplex(b3, {n: [s for s in b3.nondegenerate(n) if s not in star.get(n, ())] for n in b3.dims()})
    t0 = time.time()
    mv2 = mayer_vietoris(b3, star, comp)
    assert mv2.exact() and mv2.betti_x == (1, 0, 1)
    assert time.time() - t0 < 1.0
    t0 = time.time()
    full = {n: frozenset(circle.simplices[n]) for n in circle.dims()}
    mv3 = mayer_vietoris(circle, full, full)
    assert mv3.exact() and all(m.is_zero() for m in mv3.connecting.values())
    assert time.time() - t0 < 1.0
    report(3, "exactness at every node for the three corpus covers", time.time() - started, 3)


def test_criterion_4_sheafification():
    started = time.time()
    for build_site, connected in ((path_site, True), (two_point_site, False)):
        _, site = build_site()
        items = small_corpus(site, connected)
        sheaves = [f for _, f, is_sheaf in items if is_sheaf]
        for _, f, _ in items:
            quotiented, _ = separated_quotient(f)
            sheafed, _, _ = sheafify(quotiented)
            assert check_status(sheafed).sheaf
            sheafed_direct, unit, _ = sheafify(f)
            for g in sheaves:
                for phi in natural_maps(f, g):
                    factorizations = [
                        psi for psi in natural_maps(sheafed_direct, g)
                        if compose_maps(site, unit, psi) == phi
                    ]
                    assert len(factorizations) == 1
    report(4, "sheafify lands in sheaves; universal factorization exists uniquely", time.time() - started, 5)


def test_criterion_5_derham_comparison():
    started = time.time()
    rows = stokes_suite(random.Random(5), trials=200)
    assert all(passed for _, passed, _ in rows)
    for x in (standard_boundary(3), product(sphere_quotient(1, 3), sphere_quotient(1, 3))):
        for p in x.dims():
            for k in range(len(x.nondegenerate(p))):
                assert derham_map(whitney(x, p, {k: 1})) == {k: 1}
    result = derham_cohomology(standard_boundary(3), 3)
    assert result.betti == (1, 0, 1)
    assert result.comparison_rank == (1, 0, 1)
    assert result.isomorphism == (True, True, True)
    assert all(result.stable)
    report(5, "Stokes x200; R o W = id on bd(D3) and torus; derham betti (1,0,1) iso, stable 3->4", time.time() - started, 30)


def test_criterion_6_kan_machinery():
    started = time.time()
    for order in (2, 3):
        cert = is_fibrant(nerve(cyclic_table(order), 3))
        assert cert.fibrant and all(horns == unique for (n, _), (horns, unique) in cert.counts.items() if n >= 2)
    cert = is_fibrant(standard_delta(1, 2))
    assert not cert.fibrant and cert.witness is not None
    b2 = standard_boundary(2, 2)
    d2 = standard_delta(2)
    incl = SimplicialMap(b2, d2, {n: {s: s for s in b2.simplices[n]} for n in b2.dims()})
    fib = is_fibration(incl)
    assert not fib.fibration and fib.witness is not None
    report(6, "nerves Z/2, Z/3 fibrant, unique fillers; D1 and the inclusion witnessed", time.time() - started, 10)


def test_criterion_7_connection_extension():
    started = time.time()
    cases = [
        (alg, n, k)
        for alg in ("abelian", "sl2")
        for n, k in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (3, 3))
    ]
    assert len(cases) == 12
    for alg_name, n, k in cases:
        rng = random.Random(hash((alg_name, n, k)) % 99991)
        alg = abelian_line() if alg_name == "abelian" else sl2()
        base = rnd_connection(rng, alg, n)
        data = {i: base.pullback(face_map(n, i)) for i in range(n + 1) if i != k}
        filled = horn_connection_fill(n, k, data)
        for i in data:
            assert filled.pullback(face_map(n, i)) == data[i]
    with pytest.raises(CompatibilityError) as err:
        face_extend(2, {1: PolyForm.constant(1, 1), 2: PolyForm.constant(1, 0)})
    assert err.value.witness is not None
    report(7, "12-case extension corpus restricts exactly; incompatible data witnessed", time.time() - started, 5)


def test_criterion_8_chern_weil():
    started = time.time()
    rng = random.Random(8)
    mat = face_map(3, 1)
    for _ in range(20):
        a = rnd_connection(rng, sl2(), 3, poly_degree=1)
        f = curvature(a)
        assert chern_weil_form(f, 1).d().is_zero()
        assert chern_weil_form(f, 2).d().is_zero()
        assert chern_weil_form(f, 2).pullback(mat) == chern_weil_form(curvature(a.pullback(mat)), 2)
    assert u1_chern_number(tetra_bundle()).degree == 0
    unit = tetra_bundle(unit_winding=True)
    assert u1_chern_number(unit).degree == 1
    reversed_unit = U1BundleData(unit.triangles, {t: -o for t, o in unit.orientations.items()}, unit.forms, unit.gluings)
    assert u1_chern_number(reversed_unit).degree == -1
    report(8, "d tr F^k = 0 and naturality x20; unit-winding degree 1, negated on reversal", time.time() - started, 10)


def test_criterion_9_extra_degeneracy_numeric():
    started = time.time()
    assert abs(bump_factor(0.0) - 1.0) < 1e-12
    assert abs(bump_factor(0.25) - math.exp(-12)) / math.exp(-12) < 1e-9
    w = PolyForm.from_raw(2, 1, [(1, (0, 1, 0), (1,)), (Fraction(1, 3), (0, 0, 2), (2,))])
    ev = polyform_evaluator(w)
    rng = random.Random(9)
    for _ in range(100):
        t0 = 0.5 + rng.random() * 0.499
        rest = rng.random() * (1 - t0)
        val = extra_degeneracy_value(ev, 2, (rest, (1 - t0 - rest) / 2, (1 - t0 - rest) / 2))
        assert all(v == 0.0 for v in val)
    worst = 0.0
    for _ in range(100):
        u = [rng.random(), rng.random()]
        s = sum(u) + rng.random()
        u = [x / max(s, 1e-9) for x in u]
        point = (1.0 - sum(u),) + tuple(u)
        up = extra_degeneracy_value(ev, 2, point)
        got = tuple(-up[0] + up[j] for j in range(1, 3))
        want = ev(tuple(u))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    assert worst < 1e-9
    report(9, "factor 1 at t0=0 (1e-12); e^-12 at 1/4 (rel 1e-9); 0 on the lower half; d0 s_-1 = id (1e-9)", time.time() - started, 1)


DETERMINISM_MATRIX = [
    ("homology", ["point.sset"]), ("homology", ["delta1.sset"]), ("homology", ["delta2.sset"]),
    ("homology", ["bd_delta3.sset"]), ("homology", ["sphere2.sset"]), ("homology", ["circle2.sset"]),
    ("homology", ["rp2.sset"]), ("homology", ["torus.sset"]), ("homology", ["nerve_z2.sset"]),
    ("homology", ["nerve_z3.sset"]), ("homology", ["path.sset"]), ("homology", ["two_points.sset"]),
    ("ring", ["torus.sset"]), ("ring", ["bd_delta3.sset"]), ("ring", ["two_points.sset"]),
    ("mv", ["circle2.sset", "circle2.cover"]), ("mv", ["bd_delta3.sset", "bd_delta3_star.cover"]),
    ("sheaf", ["two_points.sset", "site_two_points_constant.site"]),
    ("sheaf", ["path.sset", "site_path_representable.site"]),
    ("kan", ["nerve_z2.sset"]), ("kan", ["nerve_z3.sset"]), ("kan", ["delta1.sset"]), ("kan", ["point.sset"]),
    ("fibration", ["incl_bd2.smap"]), ("fibration", ["proj_d1_nz2.smap"]),
    ("chern", ["u1_trivial.u1"]), ("chern", ["u1_unit.u1"]),
    ("extend", ["extend_n2.ext"]), ("extend", ["extend_horn.ext"]), ("extend", ["extend_bad.ext"]),
    ("derham", ["delta2.sset"]), ("derham", ["point.sset"]),
    ("subdivide-check", []), ("derham", ["--check-stokes"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_10_determinism():
    started = time.time()
    for command, paths in DETERMINISM_MATRIX:
        argv = [command] + [
            fixture_path(p) if not p.startswith("--") else p for p in paths
        ]
        if command == "subdivide-check":
            argv += ["--trials", "5"]
        if "--check-stokes" in argv:
            argv += ["--trials", "20"]
        c1, out1 = run_cli(argv)
        c2, out2 = run_cli(argv)
        assert c1 == c2
        strip = lambda text: "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("timing-ms")
        )
        assert strip(out1) == strip(out2), command
    report(10, "all commands byte-identical on repeat, timing excluded (%d runs)" % len(DETERMINISM_MATRIX), time.time() - started, 60)
