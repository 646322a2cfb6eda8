"""Horn enumeration, fibrancy and fibration certificates, and the
extra-degeneracy contractibility check.

Every verdict here is exhaustive over the stored tables and therefore only
means "up to the dimension cap"; the certificates say so explicitly: a
positive certificate enumerates every horn, a negative one carries a witness.

Horn search reads the face tables as the stored positions the set keeps,
and the face-tuple indexes kept on it: for given face positions, every tuple
of faces to the simplices that have it, in stored order. Enumeration extends
every partial horn by one slot x_j (j != k) per step, in increasing j: the
candidates are the y with d_i y = d_{j-1} x_i for every placed i, one lookup
in the index of the placed slots. Candidates keep stored order, so horns come
out lexicographic in stored order, as an exhaustive scan finds them.

The certificates do not fill horn by horn. Per (n, k) they read every
n-simplex z once, as its restriction: the tuple (d_i z)_i with None at k,
which is the faces tuple of the horn z fills. is_fibrant counts the
restrictions and looks each enumerated horn up in the count (0 is a
witness, 1 a unique filler); is_fibration groups the images p(z) by
restriction and checks each lifting problem's base simplices against them.
A set or map that exists already satisfies the simplicial identities and
commutes (its constructor refused anything else), so nothing here checks
them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParameterError, StructureError
from .homology import chain_complex, homology
from .simplicial import _UnionFind, _column, _group, _lookup, _mismatches, _tabulate


class Horn(NamedTuple):
    """Faces x_i (i != k) of a would-be n-simplex, satisfying the horn identities
    d_i x_j = d_{j-1} x_i for i < j, both distinct from k. A named tuple, so
    a horn equals the plain tuple (n, k, faces)."""

    n: int
    k: int
    faces: tuple  # length n+1, None at position k


def enumerate_horns(x, n, k):
    """All (n, k)-horns of x, extended one face slot at a time, in
    lexicographic stored order.

    A horn is data in dimension n-1, so n may exceed the cap by one; only
    filling it would need dimension n."""
    if not 1 <= n <= x.dim_cap + 1:
        raise ParameterError("horn dimension out of range")
    if not 0 <= k <= n:
        raise ParameterError("horn index out of range")
    slots = [j for j in range(n + 1) if j != k]
    partial = [()]  # the positions in X_{n-1} of the faces at the slots placed so far
    for r, j in enumerate(slots):
        # x_j is an (n-1)-simplex with d_i x_j = d_{j-1} x_i for every slot i < j
        index = x._face_index(n - 1, tuple(slots[:r]))
        down = x._dpos[(n - 1, j - 1)] if r else ()
        partial = [h + (y,) for h in partial for y in index.get(tuple([down[i] for i in h]), ())]
    level = x.simplices[n - 1]
    horns = []
    for h in partial:
        faces = [level[p] for p in h]
        faces.insert(k, None)
        horns.append(Horn(n, k, tuple(faces)))
    return horns


def _without(seq, k):
    """The entries of seq other than entry k, as a tuple."""
    return tuple(seq[:k]) + tuple(seq[k + 1 :])


def _faces(x, n):
    """The faces (d_i z) over the n-simplices z in stored order, one tuple
    of identifiers per i."""
    level = x.simplices[n - 1]
    return [_lookup(level, x._dpos[(n, i)]) for i in range(n + 1)]


def _restrictions(faces, k):
    """The tuples (d_i z)_i with None at position k, over the n-simplices z
    whose faces are read in step from the lists faces: the faces tuple of
    the (n, k)-horn each z fills."""
    return zip(*faces[:k], itertools.repeat(None), *faces[k + 1:])


@dataclass
class KanCertificate:
    """Horn-filling record up to the cap: every (n, k)-horn with 1 <= n <=
    dim_cap is checked, so fibrant is always True or False and says nothing
    about horns above the cap. counts holds each (n, k) finished before the
    witness, the first horn without a filler."""

    dim_cap: int
    fibrant: bool
    counts: dict = field(default_factory=dict)   # (n, k) -> (horns, unique fillers)
    witness: object = None


def is_fibrant(x):
    """Exhaustive horn check in dimensions 1..dim_cap: each enumerated horn
    is looked up once in the count of the restrictions of X_n."""
    counts = {}
    for n in range(1, x.dim_cap + 1):
        faces = _faces(x, n)
        for k in range(n + 1):
            horns = enumerate_horns(x, n, k)
            fillers = Counter(_restrictions(faces, k))
            found = [fillers[h.faces] for h in horns]
            if 0 in found:
                return KanCertificate(x.dim_cap, False, counts, witness=horns[found.index(0)])
            counts[(n, k)] = (len(horns), found.count(1))
    return KanCertificate(x.dim_cap, True, counts)


@dataclass
class FibrationCertificate:
    dim_cap: int
    fibration: bool
    problems: int = 0
    witness: object = None  # (horn, base simplex) lifting problem with no lift


def is_fibration(p):
    """Right lifting property of a simplicial map against all horn inclusions,
    checked exhaustively up to the shared cap."""
    x, y = p.source, p.target
    cap = p.dim_cap
    problems = 0
    for n in range(1, cap + 1):
        below, level = p._image[n - 1], p._image[n]
        index, targets, faces = x._index[n - 1], y.simplices[n], _faces(x, n)
        for k in range(n + 1):
            lifts = _group(_restrictions(faces, k), level)
            bases = y._face_index(n, _without(range(n + 1), k))
            for h in enumerate_horns(x, n, k):
                down = bases.get(tuple([below[index[f]] for f in _without(h.faces, k)]), ())
                if not down:
                    continue
                images = lifts.get(h.faces, ())
                for b in down:
                    problems += 1
                    if b not in images:
                        return FibrationCertificate(cap, False, problems, witness=(h, targets[b]))
    return FibrationCertificate(cap, True, problems)


# -- extra degeneracy ------------------------------------------------------


class ExtraDegeneracy:
    """Maps s_{-1}: X_n -> X_{n+1} for n < dim_cap plus a base vertex.

    The identity set checked is d_0 s_{-1} = id, d_{i+1} s_{-1} = s_{-1} d_i,
    s_{i+1} s_{-1} = s_{-1} s_i, and s_{-1}(base) is the degenerate edge on
    the base vertex.
    """

    def __init__(self, x, maps, base):
        self.x = x
        self.maps = {n: dict(maps.get(n, {})) for n in range(x.dim_cap)}
        self.base = base

    def __call__(self, n, simplex):
        return self.maps[n][simplex]


def connected_components(x):
    """Vertex partition generated by the edges."""
    components = _UnionFind(x.simplices[0])
    if x.dim_cap >= 1:
        vertices = x.simplices[0]
        for a, b in zip(x._dpos[(1, 0)], x._dpos[(1, 1)]):
            components.union(vertices[a], vertices[b])
    return list(components.groups().values())


@dataclass
class ContractibilityReport:
    valid: bool
    witness: object
    connected: bool
    reduced_homology_trivial: bool
    betti: tuple


def check_extra_degeneracy(x, extra):
    """Check the base vertex, connectivity and the s_{-1} tables, then each
    identity at each (n, i) over all of X_n at once as stored positions: the
    witness is the first violation by n, stored position, d_0 s_{-1} = id,
    then the d and s identities by i. On success cross-check that reduced
    homology vanishes below the cap."""
    if not x.has(0, extra.base):
        raise StructureError("base vertex %r not in the complex" % (extra.base,))
    if len(connected_components(x)) != 1:
        raise ParameterError("extra-degeneracy check needs a connected complex")
    cap = x.dim_cap
    # e[n][p]: the position in X_{n+1} of s_{-1} of the p-th n-simplex
    e = [_tabulate(_column(extra.maps[n], x.simplices[n]), n, x.simplices[n], x._index[n + 1], "s_{-1}")
         for n in range(cap)]
    d, s = x._dpos, x._spos
    for n in range(cap):
        sides = [((0, 0, "d_0 s_{-1} = id"), _lookup(d[(n + 1, 0)], e[n]), tuple(range(len(e[n]))))]
        for i in range(n + 1):
            if n >= 1:
                sides.append(((i + 1, 0, "d_{i+1} s_{-1} = s_{-1} d_i"),
                              _lookup(d[(n + 1, i + 1)], e[n]), _lookup(e[n - 1], d[(n, i)])))
            if n + 1 < cap:
                sides.append(((i + 1, 1, "s_{i+1} s_{-1} = s_{-1} s_i"),
                              _lookup(s[(n + 1, i + 1)], e[n]), _lookup(e[n + 1], s[(n, i)])))
        found = _mismatches(sides)
        if found:
            p, _, _, name = found[0]
            return ContractibilityReport(False, (name, n, x.simplices[n][p]), True, False, ())
    if cap >= 1 and extra(0, extra.base) != x.s(0, 0, extra.base):
        return ContractibilityReport(False, ("s_{-1}(base) = s_0(base)", 0, extra.base), True, False, ())
    summary = homology(chain_complex(x))
    reduced_trivial = summary.betti[0] == 1 and all(
        b == 0 for b in summary.betti[1 : x.dim_cap]
    ) and all(not summary.torsion.get(n, ()) for n in range(x.dim_cap))
    return ContractibilityReport(True, None, True, reduced_trivial, summary.betti)
