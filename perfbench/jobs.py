"""Seeded job lists for the workloads, with their reference answers.

build(workload, seed, out_dir) writes every input file into out_dir and
returns the jobs. A job is a dict with an id, the argv that cli.main
receives ("@name" stands for the input file out_dir/name) and the expected
outcome that references.check reads. ssetkit is used here only to construct
and serialize inputs; every expected answer comes from references.py.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from ssetkit.connections import EdgeGluing, U1BundleData
from ssetkit.forms import TAU, PolyForm, elementary_whitney
from ssetkit.io_text import (
    relabel_as_strings,
    render_form,
    render_id,
    serialize_complex,
    serialize_cover,
    serialize_map,
    serialize_site_presheaf,
    serialize_u1,
)
from ssetkit.sheaves import FiniteSite
from ssetkit.simplicial import (
    SimplicialMap,
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
from ssetkit.site_corpus import constant_presheaf

import references
from references import fmt

# (m, cap) rungs of the nerve ladder. Z/5 at cap 4 takes several seconds
# per job at the seed and is left to the --cap 3 truncation job below.
NERVES = ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3))

# Known spaces among the repository fixtures: (file, betti up to the cap,
# torsion per degree, manifold dimension or None).
FIXTURE_SPACES = {
    "rp2": ((1, 0, 0, 0), ([], [2], [], []), None),
    "torus": ((1, 2, 1, 0), ([], [], [], []), 2),
    "bd_delta3": ((1, 0, 1), ([], [], []), 2),
    "circle2": ((1, 1, 0), ([], [], []), 1),
    "delta2": ((1, 0, 0), ([], [], []), None),
    "sphere2": ((1, 0, 1), ([], [], []), 2),
    "point": ((1, 0, 0), ([], [], []), None),
    "delta1": ((1, 0, 0), ([], [], []), None),
    "path": ((1, 0), ([], []), None),
    "two_points": ((2, 0), ([], []), None),
}

# Repository fixtures that the mutated workload starts from, with the command
# that reads each.
MUTATION_SOURCES = (
    ("nerve_z2.sset", "kan"),
    ("nerve_z3.sset", "homology"),
    ("circle2.sset", "homology"),
    ("delta2.sset", "kan"),
    ("incl_bd2.smap", "fibration"),
    ("proj_d1_nz2.smap", "fibration"),
    ("u1_unit.u1", "chern"),
    ("u1_trivial.u1", "chern"),
    ("extend_horn.ext", "extend"),
    ("extend_bad.ext", "extend"),
)
JUNK_TOKENS = ("x", "-1", "0", "1", "7", "(0,1)", "|", ":", "None", "1/0")
MUTATED_JOBS = 40


class _Writer:
    """Writes input files once each and hands out their argv tokens."""

    def __init__(self, out_dir, fixture_dir):
        self.out_dir = out_dir
        self.fixture_dir = fixture_dir
        self.texts = {}

    def text(self, name, text):
        if name not in self.texts:
            with open(os.path.join(self.out_dir, name), "w") as fh:
                fh.write(text)
            self.texts[name] = text
        return "@" + name

    def sset(self, name, x):
        return self.text(name + ".sset", serialize_complex(x))

    def fixture(self, name):
        with open(os.path.join(self.fixture_dir, name)) as fh:
            return self.text(name, fh.read())


def _job(jobs, job_id, argv, expect):
    jobs.append({"id": job_id, "argv": list(argv), "expect": expect})


def _homology_expect(betti, torsion, ring):
    records = {"betti": fmt(betti), "euler": str(sum((-1) ** n * b for n, b in enumerate(betti)))}
    if ring == "int":
        for n, t in enumerate(torsion):
            records["torsion.H%d" % n] = fmt(t)
    return {"exit": 0, "records": records}


def _ring_expect(betti, manifold_dim):
    checks = []
    if betti[0] == 1:
        checks.append(["unit_law", list(betti)])
    if manifold_dim is not None:
        checks.append(["poincare", list(betti), manifold_dim])
    return {"exit": 0, "records": {"betti": fmt(betti)}, "checks": checks}


def _space_jobs(jobs, tag, token, betti, torsion, rings, manifold_dim=None):
    for ring in rings:
        if ring == "ring":
            _job(jobs, "ring:" + tag, ["ring", token], _ring_expect(betti, manifold_dim))
        else:
            _job(jobs, "homology-%s:%s" % (ring, tag), ["homology", "--ring", ring, token],
                 _homology_expect(betti, torsion, ring))


def _random_facets(rng, vertices, size, count):
    facets = set()
    while len(facets) < count:
        facets.add(tuple(sorted(rng.sample(range(vertices), size))))
    return sorted(facets)


def _random_complex(rng, kind):
    """A random ordered simplicial complex of fixed size: (facets, cap)."""
    if kind == 2:
        return _random_facets(rng, 7, 3, 8) + _random_facets(rng, 7, 2, 2), 2
    return _random_facets(rng, 6, 4, 4), 3


def _cover_of(x, facets, rng):
    """A random two-part cover: each facet goes to A, to B, or to both."""
    part_a, part_b = [], []
    for f in facets:
        r = rng.random()
        if r < 0.5:
            part_a.append(f)
        if r >= 0.35:
            part_b.append(f)
    if not part_a:
        part_a.append(facets[0])
    if not part_b:
        part_b.append(facets[-1])
    xs = relabel_as_strings(x)

    def seeds(part):
        out = {}
        for f in part:
            out.setdefault(len(f) - 1, []).append(render_id(f))
        return out

    cover = serialize_cover(close_subcomplex(xs, seeds(part_a)), close_subcomplex(xs, seeds(part_b)))
    return cover, part_a, part_b


def _homology_jobs(w, rng):
    jobs = []
    for m, cap in NERVES:
        betti, torsion = references.nerve_homology(m, cap)
        token = w.sset("nerve_z%d_c%d" % (m, cap), nerve(cyclic_table(m), cap))
        _space_jobs(jobs, "nerve_z%d_c%d" % (m, cap), token, betti, torsion, ("int", "rat"))
        if cap == 3 and m <= 3:
            _space_jobs(jobs, "nerve_z%d_c%d" % (m, cap), token, betti, torsion, ("ring",))
    betti, torsion = references.nerve_homology(5, 3)
    token = w.sset("nerve_z5_c4", nerve(cyclic_table(5), 4))
    _job(jobs, "homology-int:nerve_z5_c4-cap3", ["homology", "--cap", "3", token],
         _homology_expect(betti, torsion, "int"))

    bd, q = standard_boundary, sphere_quotient
    products = (
        ("bd2xbd2", product(bd(2, 2), bd(2, 2)), (1, 1), 2, ("int", "rat", "ring")),
        ("bd2xbd3", product(bd(2, 3), bd(3, 3)), (1, 2), 3, ("int",)),
        ("bd2xbd2_c3", product(bd(2, 3), bd(2, 3)), (1, 1), 3, ("int", "rat")),
        ("q1xq2", product(q(1, 3), q(2, 3)), (1, 2), 3, ("int", "rat", "ring")),
        ("q2xq2", product(q(2, 4), q(2, 4)), (2, 2), 4, ("int", "rat", "ring")),
        ("q1xq3", product(q(1, 4), q(3, 4)), (1, 3), 4, ("int", "ring")),
    )
    for name, x, dims, cap, rings in products:
        betti = references.sphere_product_betti(dims, cap)
        _space_jobs(jobs, name, w.sset(name, x), betti, [[]] * (cap + 1), rings, sum(dims))
    for n in (2, 3, 4):
        betti = references.sphere_product_betti((n,), n)
        _space_jobs(jobs, "q%d" % n, w.sset("q%d" % n, sphere_quotient(n)), betti, [[]] * (n + 1),
                    ("int", "ring"), n)
    # The small fixtures make up over half of the jobs, so that the median
    # latency falls among fixed inputs and not among the seeded ones.
    for name in ("rp2", "torus", "bd_delta3", "circle2", "point", "delta1", "delta2", "sphere2",
                 "path", "two_points"):
        betti, torsion, dim = FIXTURE_SPACES[name]
        _space_jobs(jobs, name, w.fixture(name + ".sset"), betti, torsion, ("int", "rat", "ring"), dim)
    for space, cover, b in (
        ("circle2", "circle2.cover", ((1, 1, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0))),
        ("bd_delta3", "bd_delta3_star.cover", ((1, 0, 1), (1, 0, 0), (1, 0, 0), (1, 1, 0))),
    ):
        _job(jobs, "mv:" + space, ["mv", w.fixture(space + ".sset"), w.fixture(cover)], _mv_expect(*b))

    for r in range(6):
        facets, cap = _random_complex(rng, 2 if r % 2 == 0 else 3)
        betti, torsion = references.complex_homology(references.closure(facets), cap)
        _space_jobs(jobs, "random%d" % r, w.sset("random%d" % r, simplicial_complex(facets, cap)),
                    betti, torsion, ("int", "rat"))
    # Mayer-Vietoris on smaller random complexes, so that these seeded jobs
    # stay below the fixed jobs around the 90th latency percentile.
    for r in range(3):
        facets = _random_facets(rng, 6, 3, 4) + _random_facets(rng, 6, 2, 2)
        x = simplicial_complex(facets, 2)
        cover, part_a, part_b = _cover_of(x, facets, rng)
        face_a, face_b = references.closure(part_a), references.closure(part_b)
        expect = _mv_expect(*(references.complex_homology(f, 2)[0] for f in (
            references.closure(facets), face_a, face_b, face_a & face_b)))
        _job(jobs, "mv:random%d" % r, ["mv", w.sset("mvrandom%d" % r, x),
                                       w.text("mvrandom%d.cover" % r, cover)], expect)
    return jobs


def _mv_expect(bx, ba, bb, bab):
    records = {"betti.X": fmt(bx), "betti.A": fmt(ba), "betti.B": fmt(bb), "betti.AB": fmt(bab)}
    return {"exit": 0, "records": records, "checks": [["exact_ok"]]}


def _derham_expect(betti):
    records = {
        "betti": fmt(betti),
        "simplicial_betti": fmt(betti),
        "isomorphism": fmt([True] * len(betti)),
    }
    return {"exit": 0, "records": records}


def _derham_jobs(w, rng):
    jobs = []
    # torus at D = 2 and 3, bd_delta3 at D = 1 and 2 and rp2 at D = 1 take
    # 0.8 to 13 s each at the seed. bd_delta3 at D = 1 alone was a third of a
    # pass; without it nearly twice as many passes fit in a run, which the 90th
    # percentile, set by the few samples of the slowest jobs, needs.
    for name, degrees in (("delta2", (1, 2, 3)), ("circle2", (1, 2, 3)), ("sphere2", (1, 2, 3)),
                          ("torus", (1,))):
        token = w.fixture(name + ".sset")
        for d in degrees:
            _job(jobs, "derham:%s:D%d" % (name, d), ["derham", token, "--poly-degree", str(d)],
                 _derham_expect(FIXTURE_SPACES[name][0]))
    # Random graphs with 4 vertices and 4 edges: 12 of the 15 such labelled
    # graphs take 47-54 ms at D = 1 and the three 4-cycles 64-68 ms, and the
    # median job falls among them. With ten graphs the share of 4-cycles moved
    # the median by up to a fifth between seeds; with sixteen it holds.
    for r in range(16):
        facets = _random_facets(rng, 4, 2, 4) + [(v,) for v in range(4)]
        betti, _ = references.complex_homology(references.closure(facets), 1)
        token = w.sset("graph%d" % r, simplicial_complex(facets, 1))
        for d in (1, 2) if r < 4 else (1,):
            _job(jobs, "derham:graph%d:D%d" % (r, d), ["derham", token, "--poly-degree", str(d)],
                 _derham_expect(betti))
    return jobs


def _u1_bundle(w_deg):
    """Bundle over the tetrahedron boundary whose Chern number is w_deg: the
    connection is w_deg * tau * (Whitney form of edge 01) on triangle 012,
    with the matching winding across edge 01."""
    tris = ["012", "013", "023", "123"]
    ors = {"012": 1, "013": -1, "023": 1, "123": -1}
    sides = {}
    for t in tris:
        for i in range(3):
            sides.setdefault("".join(v for j, v in enumerate(t) if j != i), []).append((t, i))
    zero_p, zero_a = PolyForm.zero(1, 0), PolyForm.zero(2, 1)
    whitney01 = elementary_whitney(2, (0, 1))
    form = PolyForm(2, 1, {k: TAU * c * w_deg for k, c in whitney01.terms.items()})
    gluings = []
    for edge, (plus, minus) in sides.items():
        winding = 0
        if edge == "01":
            winding = w_deg if plus[0] == "012" else -w_deg
        gluings.append(EdgeGluing(plus, minus, False, zero_p, winding))
    return U1BundleData(tris, ors, {t: (form if t == "012" else zero_a) for t in tris}, gluings)


def _two_point_site():
    two = relabel_as_strings(simplicial_complex([[0], [1]], 1))
    objects = {
        "X": close_subcomplex(two, {0: ["(0)", "(1)"]}),
        "U0": close_subcomplex(two, {0: ["(0)"]}),
        "U1": close_subcomplex(two, {0: ["(1)"]}),
    }
    return two, FiniteSite(two, objects, {"X": [("U0", "U1")]})


def _certify_jobs(w, rng, seed):
    jobs = []
    for m, cap in NERVES:
        token = w.sset("nerve_z%d_c%d" % (m, cap), nerve(cyclic_table(m), cap))
        records = {"fibrant_up_to_cap": "True"}
        for (n, k), (horns, unique) in references.nerve_horn_counts(m, cap).items():
            records["horns.n%d.k%d" % (n, k)] = "%d horns, %d with unique filler" % (horns, unique)
        _job(jobs, "kan:nerve_z%d_c%d" % (m, cap), ["kan", token], {"exit": 0, "records": records})
    for name, x in (
        ("d2xd2", product(standard_delta(2), standard_delta(2))),
        ("bd2_c2", standard_boundary(2, 2)),
        ("d1_c2", standard_delta(1, 2)),
        ("horn21_c2", standard_horn(2, 1, 2)),
        ("bd3_c3", standard_boundary(3, 3)),
    ):
        token = w.sset(name, x)
        _job(jobs, "kan:" + name, ["kan", token],
             {"exit": 1, "records": {"fibrant_up_to_cap": "False"},
              "checks": [["horn_witness", name + ".sset"]]})

    for m, cap in ((2, 2), (3, 2), (4, 2), (2, 3)):
        base = standard_delta(1, cap)
        total = product(base, nerve(cyclic_table(m), cap))
        proj = SimplicialMap(total, base, {n: {s: s[0] for s in total.simplices[n]} for n in total.dims()})
        name = "proj_d1_z%d_c%d.smap" % (m, cap)
        problems = references.projection_lifting_problems(m, cap)
        _job(jobs, "fibration:" + name, ["fibration", w.text(name, serialize_map(proj))],
             {"exit": 0, "records": {"fibration_up_to_cap": "True", "lifting_problems": str(problems)}})
    for n in (2, 3):
        sub, full = standard_boundary(n, n), standard_delta(n)
        incl = SimplicialMap(sub, full, {k: {s: s for s in sub.simplices[k]} for k in sub.dims()})
        name = "incl_bd%d.smap" % n
        _job(jobs, "fibration:" + name, ["fibration", w.text(name, serialize_map(incl))],
             {"exit": 1, "records": {"fibration_up_to_cap": "False"}, "checks": [["present", "witness"]]})

    two, site = _two_point_site()
    two_token = w.sset("two_points", two)
    for k in (1, 2, 3):
        site_token = w.text("const%d.site" % k, serialize_site_presheaf(
            constant_presheaf(site, ["l%d" % i for i in range(k)])))
        sheaf = k == 1
        _job(jobs, "sheaf:const%d" % k, ["sheaf", two_token, site_token],
             {"exit": 0 if sheaf else 1, "records": {"separated": "True", "sheaf": str(sheaf)},
              "checks": [] if sheaf else [["present", "witness"]]})
        _job(jobs, "sheafify:const%d" % k, ["sheaf", two_token, site_token, "--op", "sheafify"],
             {"exit": 0, "records": {"sheafify.is_sheaf": "True"},
              "checks": [["entries", "sheafify.sections.X", k * k],
                         ["entries", "sheafify.sections.U0", k]]})
    path_token, path_site = w.fixture("path.sset"), w.fixture("site_path_representable.site")
    _job(jobs, "sheaf:path", ["sheaf", path_token, path_site],
         {"exit": 0, "records": {"separated": "True", "sheaf": "True"}})
    _job(jobs, "sheafify:path", ["sheaf", path_token, path_site, "--op", "sheafify"],
         {"exit": 0, "records": {"sheafify.is_sheaf": "True"},
          "checks": [["entries", "sheafify.sections.%s" % obj, references.monotone_maps(size)]
                     for obj, size in (("X", 3), ("A", 2), ("B", 2), ("M", 1))]})

    for w_deg in (-2, -1, 0, 2, 3):
        name = "u1_deg%d.u1" % w_deg
        _job(jobs, "chern:deg%d" % w_deg, ["chern", w.text(name, serialize_u1(_u1_bundle(w_deg)))],
             {"exit": 0, "records": {"degree": str(w_deg), "vertex_sums_integral": "True"}})
    for name, degree in (("u1_unit.u1", 1), ("u1_trivial.u1", 0)):
        _job(jobs, "chern:" + name, ["chern", w.fixture(name)],
             {"exit": 0, "records": {"degree": str(degree), "vertex_sums_integral": "True"}})

    for name, code in (("extend_horn.ext", 0), ("extend_n2.ext", 0), ("extend_bad.ext", 1)):
        _job(jobs, "extend:" + name, ["extend", w.fixture(name)], _extend_expect(code))
    for i in range(4):
        c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        c2 = c1 if i % 2 == 0 else c1 + Fraction(rng.randint(1, 5), rng.randint(1, 3))
        text = "extend 1\nn 2\nface 1 entry 0 0 : %s\nface 2 entry 0 0 : %s\n" % (
            render_form(PolyForm.constant(1, c1)), render_form(PolyForm.constant(1, c2)))
        _job(jobs, "extend:const%d" % i, ["extend", w.text("const%d.ext" % i, text)],
             _extend_expect(0 if c1 == c2 else 1))

    for i in range(3):
        _job(jobs, "subdivide-check:%d" % i,
             ["subdivide-check", "--seed", str(seed * 10 + i), "--trials", "1"],
             {"exit": 0, "checks": [["all_pass"]]})
        _job(jobs, "stokes:%d" % i,
             ["derham", "--check-stokes", "--seed", str(seed * 10 + i), "--trials", "30"],
             {"exit": 0, "checks": [["all_pass"]]})

    return jobs


def _mutated_jobs(w, rng):
    """Seeded mutations of fixture files. The only correct outcome is an exit
    code of 0, 1 or 2 with no raw exception; some inputs make the parsers
    raise, so this workload is left out of BENCHMARK.json, whose workloads
    must run without failures."""
    jobs = []
    for i in range(MUTATED_JOBS):
        source, command = MUTATION_SOURCES[rng.randrange(len(MUTATION_SOURCES))]
        with open(os.path.join(w.fixture_dir, source)) as fh:
            text = mutate(fh.read(), rng)
        name = "mutated%d.%s" % (i, source.rsplit(".", 1)[1])
        _job(jobs, "mutated:%d:%s" % (i, source), [command, w.text(name, text)], {"exit_in": [0, 1, 2]})
    return jobs


def _extend_expect(code):
    if code == 0:
        return {"exit": 0, "records": {"restrictions_verified": "True"}}
    return {"exit": 1, "checks": [["present", "witness"]]}


def mutate(text, rng):
    """Delete, duplicate or truncate one line, or replace one token."""
    lines = text.splitlines()
    op = rng.randrange(4)
    i = rng.randrange(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        words = lines[i].split(" ")
        pool = text.split() + list(JUNK_TOKENS)
        words[rng.randrange(len(words))] = pool[rng.randrange(len(pool))]
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def _canary_jobs(w, seed):
    """A few small jobs that every workload runs, so that every layer of the
    per-layer trace does some measured work on every workload."""
    jobs = []
    circle = w.fixture("circle2.sset")
    betti, torsion, _ = FIXTURE_SPACES["circle2"]
    _job(jobs, "canary:homology", ["homology", circle], _homology_expect(betti, torsion, "int"))
    _job(jobs, "canary:derham", ["derham", circle, "--poly-degree", "1"], _derham_expect(betti))
    records = {"fibrant_up_to_cap": "True"}
    for (n, k), (horns, unique) in references.nerve_horn_counts(2, 3).items():
        records["horns.n%d.k%d" % (n, k)] = "%d horns, %d with unique filler" % (horns, unique)
    _job(jobs, "canary:kan", ["kan", w.sset("nerve_z2_c3", nerve(cyclic_table(2), 3))],
         {"exit": 0, "records": records})
    _job(jobs, "canary:sheaf", ["sheaf", w.fixture("two_points.sset"),
                                w.fixture("site_two_points_constant.site")],
         {"exit": 1, "records": {"separated": "True", "sheaf": "False"}})
    _job(jobs, "canary:chern", ["chern", w.fixture("u1_trivial.u1")],
         {"exit": 0, "records": {"degree": "0", "vertex_sums_integral": "True"}})
    _job(jobs, "canary:subdivide-check", ["subdivide-check", "--seed", str(seed), "--trials", "1"],
         {"exit": 0, "checks": [["all_pass"]]})
    return jobs


def build(workload, seed, out_dir, fixture_dir):
    """Write the workload's inputs into out_dir and return its jobs, in a
    seeded order."""
    rng = random.Random("%s:%d" % (workload, seed))
    w = _Writer(out_dir, fixture_dir)
    if workload == "homology":
        jobs = _homology_jobs(w, rng)
    elif workload == "derham":
        jobs = _derham_jobs(w, rng)
    elif workload == "certify":
        jobs = _certify_jobs(w, rng, seed)
    elif workload == "mutated":
        jobs = _mutated_jobs(w, rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    jobs += _canary_jobs(w, seed)
    rng.shuffle(jobs)
    return jobs
