"""Seeded random inputs and the randomized identity suites.

The command line and the test suite share these generators so a published
seed reproduces the exact same checks. All suites are exact: a failure is
a counterexample, not noise.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError
from .forms import PolyForm
from .subdivision import (
    AffineChain,
    AffineSimplex,
    boundary,
    homotopy,
    iterated_diameter,
    standard_affine_simplex,
    subdivide,
)


def rational(rng, span=6, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_affine_simplex(rng, n, ambient=None):
    d = n if ambient is None else ambient
    return AffineSimplex(
        [tuple(rational(rng) for _ in range(d)) for _ in range(n + 1)]
    )


def random_polyform(rng, n, p, poly_degree=4, terms=4):
    raw = []
    for _ in range(terms):
        exps = [0] * (n + 1)
        for _ in range(rng.randint(0, poly_degree)):
            exps[rng.randint(0, n)] += 1
        idx = tuple(rng.sample(range(0, n + 1), p)) if p else ()
        raw.append((rational(rng, 5, 3), tuple(exps), idx))
    return PolyForm.from_raw(n, p, raw)


# The simplex dimensions the suites draw from.
SUBDIVISION_DIMS = (1, 2, 3, 4)
DIAMETER_DIMS = (1, 2, 3)
STOKES_MAX_DIM = 3


def subdivision_suite(rng, trials=100):
    """The subdivision identities on random rational simplices.

    Returns a list of (name, passed, details) rows; every check is exact.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rows = []
    for n in SUBDIVISION_DIMS:
        chain_map_ok = True
        homotopy_ok = True
        for _ in range(trials):
            c = AffineChain.of(random_affine_simplex(rng, n))
            sc = subdivide(c)
            if not (boundary(sc) - subdivide(boundary(c))).is_zero():
                chain_map_ok = False
            lhs = boundary(homotopy(c)) + homotopy(boundary(c))
            if lhs != sc - c:
                homotopy_ok = False
        rows.append(("subdivision.chain_map.dim%d" % n, chain_map_ok, "%d trials" % trials))
        rows.append(("subdivision.homotopy.dim%d" % n, homotopy_ok, "%d trials" % trials))
    for n in DIAMETER_DIMS:
        s = standard_affine_simplex(n)
        bound = Fraction(n, n + 1) ** 2 * s.diameter_squared()
        rows.append(
            (
                "subdivision.diameter.dim%d" % n,
                iterated_diameter(s, 1) <= bound,
                "ratio bound %s" % (Fraction(n, n + 1),),
            )
        )
    return rows


def stokes_suite(rng, trials=200):
    """Exact Stokes identity on random (form, simplex) pairs."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    failures = 0
    for _ in range(trials):
        n = rng.randint(1, STOKES_MAX_DIM)
        eta = random_polyform(rng, n, n - 1)
        lhs = eta.d().integrate()
        rhs = Fraction(0)
        for i in range(n + 1):
            v = eta.pullback(j for j in range(n + 1) if j != i).integrate()
            rhs += -v if i % 2 else v
        if lhs != rhs:
            failures += 1
    return [("stokes.random_pairs", failures == 0, "%d trials, %d failures" % (trials, failures))]
