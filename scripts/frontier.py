"""Frontier rungs: subdivision, nerve and torus homology, the torus ring,
de Rham on nerves and Kan fibrancy, timed and checked against closed forms.

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
- reading the 'sset 1' text of N(Z/5) at cap 5 (serialized before the rung,
  untimed): the set read has 5^n simplices in dimension n, and writing it
  gives the text back byte for byte (checked after the timed read).

A rung runs once untimed, then REPEATS times, each run bracketed by
perfbench's reference chunk (run.reference_chunk, imported from
perfbench/run.py and used as it is). A run's time in chunks is its wall time
over the mean of the two chunks around it, so the host's drifting speed
cancels; the JSON file gives each rung's median and quartiles in chunks and
in ms. The exit status is 1 when any answer is wrong, and nothing is written.
"""

import argparse
import functools
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from math import comb, factorial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (perfbench/run.py, for its reference chunk)
from ssetkit.derham import derham_cohomology  # noqa: E402
from ssetkit.homology import chain_complex, cohomology_ring, homology  # noqa: E402
from ssetkit.io_text import parse_complex, serialize_complex  # noqa: E402
from ssetkit.kan import is_fibrant  # noqa: E402
from ssetkit.linalg import Matrix, rank  # noqa: E402
from ssetkit.randomsuite import DIAMETER_DIMS, SUBDIVISION_DIMS, subdivision_suite  # noqa: E402
from ssetkit.subdivision import (  # noqa: E402
    AffineChain,
    homotopy,
    iterated_diameter,
    standard_affine_simplex,
    subdivide,
)
from ssetkit.simplicial import cyclic_table, nerve, product, sphere_quotient  # noqa: E402

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


def fibrant_rung(m):
    def rung():
        cert = is_fibrant(nerve(cyclic_table(m), NERVE_CAP))
        return cert.fibrant and all(
            cert.counts[(n, k)] == (m ** n, m ** n) for n in range(2, NERVE_CAP + 1) for k in range(n + 1)
        )
    return rung


def nerve_text_check(text, x):
    return serialize_complex(x) == text and all(len(x.simplices[n]) == 5 ** n for n in x.dims())


def nerve_text():
    return serialize_complex(nerve(cyclic_table(5), NERVE_CAP))


# Each rung: (name, the timed function, the untimed setup whose result it
# takes, or None, and the untimed check of the setup's result and the
# function's, or None when the function returns the verdict).
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
    ("read sset 1 N(Z/5) cap %d" % NERVE_CAP, parse_complex, nerve_text, nerve_text_check),
]


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def measure(fn, repeats, check=bool):
    """The rung's answer (check of the result of an untimed run and of every
    timed one) and its runs in chunks and ms."""
    correct = check(fn())
    chunks, ms = [], []
    before, _ = timed(run.reference_chunk)
    for _ in range(repeats):
        seconds, result = timed(fn)
        after, _ = timed(run.reference_chunk)
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
        verdict = bool
        if setup is not None:
            given = setup()
            fn = functools.partial(fn, given)
            if check is not None:
                verdict = functools.partial(check, given)
        t0 = time.perf_counter()
        correct, chunks, ms = measure(fn, repeats, verdict)
        all_correct = all_correct and correct
        print("%-40s %s  %.1f ms" % (name, "correct" if correct else "WRONG", (time.perf_counter() - t0) * 1000))
        if repeats:
            rungs.append({"name": name, "correct": correct, "chunks": quartiles(chunks), "ms": quartiles(ms),
                          "runs_chunks": [round(c, 4) for c in chunks]})
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
