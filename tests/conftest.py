import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

from ssetkit.simplicial import SimplicialSet, standard_delta  # noqa: E402

# Every property test is derandomized and keeps no example database, so a
# run depends on the code alone; each module sets its own max_examples.
settings.register_profile("ssetkit", deadline=None, derandomize=True, database=None)
settings.load_profile("ssetkit")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def fixture_text(name):
    with open(fixture_path(name)) as fh:
        return fh.read()


def swapped_delta2(dim_cap=2):
    """The standard 2-simplex with d_0 and d_1 of (0, 1, 2) swapped, which
    breaks d_i d_j = d_{j-1} d_i."""
    d2 = standard_delta(2, dim_cap)

    def face(n, i, t):
        if t == (0, 1, 2) and i < 2:
            i = 1 - i
        return d2.d(n, i, t)

    return SimplicialSet(d2.dim_cap, d2.simplices, face, d2.s)


def with_replaced_entries(x, changes):
    """x with some table entries replaced: changes maps ("d" or "s", n, i,
    simplex) to another listed simplex of the adjacent dimension."""
    return SimplicialSet(
        x.dim_cap,
        x.simplices,
        lambda n, i, s: changes.get(("d", n, i, s), x.d(n, i, s)),
        lambda n, i, s: changes.get(("s", n, i, s), x.s(n, i, s)),
    )


def face_map(n, i):
    """Vertex map of the face embedding delta_i : Delta^{n-1} -> Delta^n."""
    return tuple(v for v in range(n + 1) if v != i)
