"""Frontier rungs: subdivision, nerve and torus homology, the torus ring,
de Rham on nerves, Kan fibrancy, a Kan fibration, Mayer-Vietoris on a
sphere and the command line's cold start, timed and checked against closed
forms.

Run from the repository root:

    python scripts/frontier.py --label NAME   # writes BENCH_frontier_NAME.json
    python scripts/frontier.py --quick        # each rung once, checks only

Each rung is one computation whose answer has a closed form:
- the subdivision suite in dimensions 1-4 at 30 trials: every identity row
  passes (S is a chain map, boundary T + T boundary = S - id, and the
  (n/(n+1))^2 diameter rows);
- S and T of the standard n-simplex, n = 1..4: |S| = (n+1)! terms, each
  coefficient +-1, and |T| = 1, 4, 17, 86 terms;
- iterated_diameter of the standard n-simplex, n = 1..3, at m = 1 and 2:
  at most (n/(n+1))^(2m) times the simplex's own squared diameter;
- integer homology of the nerve N(Z/m), m = 5 and 6, at cap 5: in every
  degree n below the cap, Z for n = 0, Z/m for odd n and 0 for even n > 0
  (the nerve is built before the rung, untimed);
- the 5-torus T^5 as the product of five circles at cap 5: building it
  gives Euler characteristic 0, and its homology has betti numbers
  C(5, n) and no torsion (built untimed for the homology rung);
- the rational cohomology ring of T^5 (built untimed): betti numbers
  C(5, n), x_i x_i = 0 for every degree-1 class x_i, and the ten products
  x_i x_j (i < j) of rank 10 in H^2;
- polynomial de Rham at D = 3 on N(Z/3) at cap 3 and on N(Z/2) at cap 4
  (the nerves built untimed): betti 1 in degree 0 and 0 in degrees 1 to
  cap - 1, with the comparison an isomorphism and the count stable in
  every degree;
- is_fibrant on N(Z/5) at cap 5, the nerve built inside the rung, because
  the certificate keeps its face indexes on the set: fibrant, and for
  2 <= n <= cap each (n, k) has |G|^n horns, each with a unique filler;
- is_fibrant on N(Z/4) at cap 6, the nerve built untimed, so the face
  indexes the untimed first run keeps on it are read, not built, by the
  timed runs, which time the horn search and the restriction counts: the
  same closed form;
- is_fibration of the projection Delta^1 x N(Z/3) -> Delta^1 at cap 4, the
  map built untimed (its face indexes kept as above): a fibration with
  sum (n+2) h(n, k) = 3084 lifting problems, h(n, k) the (n, k)-horns of the
  nerve (perfbench/references.py, projection_lifting_problems);
- the Mayer-Vietoris sequence of the boundary of Delta^7 at cap 6 for the
  cover A = the closure of the facets that contain vertex 0, B = the closure
  of the facet opposite it (the cover built untimed): betti numbers
  (1,0,0,0,0,0,1) for X, (1,0,...,0) for A and B, and (1,0,0,0,0,1,0) for
  A cap B, the boundary of Delta^6; exact at every node, and the connecting
  map of rank 1 in degree 5 and 0 in the others;
- reading the 'sset 1' text of N(Z/5) at cap 5 (serialized before the rung,
  untimed): the set read has 5^n simplices in dimension n, and writing it
  gives the text back byte for byte (checked after the timed read);
- cold start: 'ssetkit homology fixtures/torus.sset' in a fresh interpreter,
  in the console-script form (from ssetkit.cli import main, with src on
  PYTHONPATH and the rest of the environment inherited, so a bytecode cache
  is written or not as the environment says): exit 0 and the record
  'betti exact : (1, 2, 1, 0)'. This is start-up, imports included, plus
  one small job.

A rung runs once untimed, then REPEATS times, each run bracketed by
perfbench's reference chunk (run.reference_chunk, imported from
perfbench/run.py and used as it is). A run's time in chunks is its wall time
over the mean of the two chunks around it, so the host's drifting speed
cancels; the JSON file gives each rung's median and quartiles in chunks and
in ms. The in-process chunk tracks process start poorly, so the cold start
is bracketed instead by perfbench's reference process, as perfbench times a
set-up (run.REFERENCE_PROCESS; see the calibration section of
perfbench/README.md): the JSON file gives its wall time over the mean of the
two reference processes around it ('reference_processes'), that ratio times
run.REFERENCE_PROCESS_NOMINAL_S ('calibrated_ms'), and the raw ms. The exit
status is 1 when any answer is wrong, and nothing is written.
"""

import argparse
import functools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import references  # noqa: E402  (perfbench/references.py, for the lifting-problem count)
import run  # noqa: E402  (perfbench/run.py, for its reference chunk)
from ssetkit.derham import derham_cohomology  # noqa: E402
from ssetkit.homology import chain_complex, cohomology_ring, homology, mayer_vietoris  # noqa: E402
from ssetkit.io_text import parse_complex, serialize_complex  # noqa: E402
from ssetkit.kan import is_fibrant, is_fibration  # noqa: E402
from ssetkit.linalg import Matrix, rank  # noqa: E402
from ssetkit.randomsuite import DIAMETER_DIMS, SUBDIVISION_DIMS, subdivision_suite  # noqa: E402
from ssetkit.subdivision import (  # noqa: E402
    AffineChain,
    homotopy,
    iterated_diameter,
    standard_affine_simplex,
    subdivide,
)
from ssetkit.simplicial import (  # noqa: E402
    SimplicialMap,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    sphere_quotient,
    standard_boundary,
    standard_delta,
)

REPEATS = 15
SUITE_TRIALS = 30
SUITE_SEED = 0
T_TERMS = {1: 1, 2: 4, 3: 17, 4: 86}


def suite_rung():
    rows = subdivision_suite(random.Random(SUITE_SEED), trials=SUITE_TRIALS)
    names = ["subdivision.%s.dim%d" % (kind, n) for n in SUBDIVISION_DIMS for kind in ("chain_map", "homotopy")]
    names += ["subdivision.diameter.dim%d" % n for n in DIAMETER_DIMS]
    return [name for name, _, _ in rows] == names and all(passed for _, passed, _ in rows)


def s_rung():
    ok = True
    for n in SUBDIVISION_DIMS:
        terms = subdivide(AffineChain.of(standard_affine_simplex(n))).terms
        ok = ok and len(terms) == factorial(n + 1) and all(abs(c) == 1 for c in terms.values())
    return ok


def t_rung():
    return all(len(homotopy(AffineChain.of(standard_affine_simplex(n))).terms) == T_TERMS[n]
               for n in SUBDIVISION_DIMS)


def diameter_rung(m):
    def rung():
        ok = True
        for n in DIAMETER_DIMS:
            s = standard_affine_simplex(n)
            ok = ok and iterated_diameter(s, m) <= Fraction(n, n + 1) ** (2 * m) * s.diameter_squared()
        return ok
    return rung


NERVE_CAP = 5
TORUS_RANK = 5


def nerve_homology_rung(m, x):
    summary = homology(chain_complex(x))
    return all(
        summary.betti[n] == (1 if n == 0 else 0) and summary.torsion[n] == ((m,) if n % 2 else ())
        for n in range(NERVE_CAP)
    )


def torus(k):
    circle = sphere_quotient(1, k)
    x = circle
    for _ in range(k - 1):
        x = product(x, circle)
    return x


def torus_build_rung():
    x = torus(TORUS_RANK)
    return sum((-1) ** n * len(x.nondegenerate(n)) for n in x.dims()) == 0


def torus_homology_rung(x):
    summary = homology(chain_complex(x))
    return summary.betti == tuple(comb(TORUS_RANK, n) for n in x.dims()) and not any(summary.torsion.values())


def torus_ring_rung(x):
    ring = cohomology_ring(x)
    k = TORUS_RANK
    pairs = [ring.product(1, i, 1, j) for i in range(k) for j in range(i + 1, k)]
    return (
        ring.betti() == tuple(comb(k, n) for n in x.dims())
        and not any(v for i in range(k) for v in ring.product(1, i, 1, i))
        and rank(Matrix(pairs, comb(k, 2))) == comb(k, 2)
    )


DERHAM_DEGREE = 3


def nerve_derham_rung(x):
    report = derham_cohomology(x, DERHAM_DEGREE)
    return (
        report.betti[: x.dim_cap] == (1,) + (0,) * (x.dim_cap - 1)
        and all(report.isomorphism)
        and all(report.stable)
    )


def fibrant_verdict(m, cap, cert):
    return cert.fibrant and all(
        cert.counts[(n, k)] == (m ** n, m ** n) for n in range(2, cap + 1) for k in range(n + 1)
    )


def fibrant_rung(m):
    def rung():
        return fibrant_verdict(m, NERVE_CAP, is_fibrant(nerve(cyclic_table(m), NERVE_CAP)))
    return rung


FIBRANT_BUILT = (4, 6)  # N(Z/4) at cap 6, built untimed
FIBRATION = (3, 4)  # Delta^1 x N(Z/3) -> Delta^1 at cap 4


def projection(m, cap):
    base = standard_delta(1, cap)
    total = product(base, nerve(cyclic_table(m), cap))
    return SimplicialMap(total, base, {n: {s: s[0] for s in total.simplices[n]} for n in total.dims()})


def fibration_rung(p):
    cert = is_fibration(p)
    return cert.fibration and cert.problems == references.projection_lifting_problems(*FIBRATION)


MV_SPHERE = (7, 6)  # the boundary of Delta^7 at cap 6


def sphere_cover(n, cap):
    """The boundary of Delta^n with A the closure of the facets that contain
    vertex 0 and B the closure of the facet opposite it."""
    x = standard_boundary(n, cap)
    facets = [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)]
    a = close_subcomplex(x, {n - 1: [f for f in facets if 0 in f]})
    b = close_subcomplex(x, {n - 1: [f for f in facets if 0 not in f]})
    return x, a, b


def sphere_mv_check(_cover, mv):
    n, cap = MV_SPHERE
    point = (1,) + (0,) * cap
    return (
        mv.betti_x == (1,) + (0,) * (cap - 1) + (1,)
        and mv.betti_a == mv.betti_b == point
        and mv.betti_ab == tuple(int(p in (0, n - 2)) for p in range(cap + 1))
        and mv.exact()
        and [rank(mv.connecting[p]) for p in range(cap)] == [int(p == n - 2) for p in range(cap)]
    )


def nerve_text_check(text, x):
    return serialize_complex(x) == text and all(len(x.simplices[n]) == 5 ** n for n in x.dims())


def nerve_text():
    return serialize_complex(nerve(cyclic_table(5), NERVE_CAP))


COLD_START = [sys.executable, "-c", "import sys; from ssetkit.cli import main; sys.exit(main())",
              "homology", os.path.join(ROOT, "fixtures", "torus.sset")]


def cold_start():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run(COLD_START, env=env, capture_output=True, text=True)


def cold_start_check(done):
    return done.returncode == 0 and "\nrecord betti exact : (1, 2, 1, 0)\n" in done.stdout


def reference_process():
    subprocess.run(run.REFERENCE_PROCESS, check=True, stdout=subprocess.DEVNULL)


# Each rung: (name, the timed function, the untimed setup whose result it
# takes, or None, and the untimed check of the function's result, after the
# setup's result when there is a setup, or None when the function returns
# the verdict).
RUNGS = [
    ("subdivision_suite dims 1-4, %d trials" % SUITE_TRIALS, suite_rung, None, None),
    ("S of the standard n-simplex, n = 1..4", s_rung, None, None),
    ("T of the standard n-simplex, n = 1..4", t_rung, None, None),
    ("iterated_diameter m = 1, n = 1..3", diameter_rung(1), None, None),
    ("iterated_diameter m = 2, n = 1..3", diameter_rung(2), None, None),
    ("homology N(Z/5) cap %d" % NERVE_CAP, functools.partial(nerve_homology_rung, 5),
     lambda: nerve(cyclic_table(5), NERVE_CAP), None),
    ("homology N(Z/6) cap %d" % NERVE_CAP, functools.partial(nerve_homology_rung, 6),
     lambda: nerve(cyclic_table(6), NERVE_CAP), None),
    ("T^%d build" % TORUS_RANK, torus_build_rung, None, None),
    ("T^%d homology" % TORUS_RANK, torus_homology_rung, lambda: torus(TORUS_RANK), None),
    ("T^%d ring" % TORUS_RANK, torus_ring_rung, lambda: torus(TORUS_RANK), None),
    ("derham N(Z/3) cap 3, D = %d" % DERHAM_DEGREE, nerve_derham_rung, lambda: nerve(cyclic_table(3), 3), None),
    ("derham N(Z/2) cap 4, D = %d" % DERHAM_DEGREE, nerve_derham_rung, lambda: nerve(cyclic_table(2), 4), None),
    ("is_fibrant N(Z/5) cap %d, build included" % NERVE_CAP, fibrant_rung(5), None, None),
    ("is_fibrant N(Z/%d) cap %d" % FIBRANT_BUILT, is_fibrant,
     lambda: nerve(cyclic_table(FIBRANT_BUILT[0]), FIBRANT_BUILT[1]),
     lambda _x, cert: fibrant_verdict(*FIBRANT_BUILT, cert)),
    ("is_fibration D1 x N(Z/%d) -> D1 cap %d" % FIBRATION, fibration_rung, lambda: projection(*FIBRATION), None),
    ("mayer_vietoris bd(D%d) cap %d" % MV_SPHERE, lambda cover: mayer_vietoris(*cover),
     lambda: sphere_cover(*MV_SPHERE), sphere_mv_check),
    ("read sset 1 N(Z/5) cap %d" % NERVE_CAP, parse_complex, nerve_text, nerve_text_check),
    ("cold start: ssetkit homology torus.sset", cold_start, None, cold_start_check),
]


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def measure(fn, repeats, check=bool, reference=run.reference_chunk):
    """The rung's answer (check of the result of an untimed run and of every
    timed one) and its runs in units of reference (chunks by default) and ms."""
    correct = check(fn())
    chunks, ms = [], []
    before, _ = timed(reference)
    for _ in range(repeats):
        seconds, result = timed(fn)
        after, _ = timed(reference)
        correct = correct and check(result)
        chunks.append(seconds * 2 / (before + after))
        ms.append(seconds * 1000)
        before = after
    return correct, chunks, ms


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", help="write BENCH_frontier_LABEL.json in the repository root")
    parser.add_argument("--quick", action="store_true", help="run each rung once and check it; write nothing")
    args = parser.parse_args(argv)
    if not args.quick and not args.label:
        parser.error("give --label, or --quick")
    repeats = 0 if args.quick else REPEATS
    chunk_ms = [timed(run.reference_chunk)[0] * 1000 for _ in range(5)]
    rungs, all_correct = [], True
    for name, fn, setup, check in RUNGS:
        verdict = check or bool
        if setup is not None:
            given = setup()
            fn = functools.partial(fn, given)
            if check is not None:
                verdict = functools.partial(check, given)
        reference = reference_process if fn is cold_start else run.reference_chunk
        t0 = time.perf_counter()
        correct, units, ms = measure(fn, repeats, verdict, reference)
        all_correct = all_correct and correct
        print("%-40s %s  %.1f ms" % (name, "correct" if correct else "WRONG", (time.perf_counter() - t0) * 1000))
        if repeats and fn is cold_start:
            rungs.append({"name": name, "correct": correct, "reference_processes": quartiles(units),
                          "calibrated_ms": quartiles([u * run.REFERENCE_PROCESS_NOMINAL_S * 1000 for u in units]),
                          "ms": quartiles(ms), "runs_reference_processes": [round(u, 4) for u in units]})
        elif repeats:
            rungs.append({"name": name, "correct": correct, "chunks": quartiles(units), "ms": quartiles(ms),
                          "runs_chunks": [round(u, 4) for u in units]})
    if not all_correct:
        return 1
    if repeats:
        chunk_ms += [timed(run.reference_chunk)[0] * 1000 for _ in range(5)]
        out = {
            "label": args.label,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "repeats": repeats,
            "reference_chunk_ms": statistics.median(chunk_ms),
            "rungs": rungs,
        }
        path = os.path.join(ROOT, "BENCH_frontier_%s.json" % args.label)
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
