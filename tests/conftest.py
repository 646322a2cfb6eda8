import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from ssetkit.simplicial import SimplicialSet, standard_delta  # noqa: E402

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


def face_map(n, i):
    """Vertex map of the face embedding delta_i : Delta^{n-1} -> Delta^n."""
    return tuple(v for v in range(n + 1) if v != i)
