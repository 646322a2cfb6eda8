"""Truncated polynomial de Rham cohomology and its comparison with
simplicial cohomology.

The complex at stage D is the space of face-compatible families of
polynomial forms with coefficient degree at most D; the exterior derivative
lowers coefficient degree by one, so each stage is a subcomplex of the next.

A uniform degree cap produces transient "top slice" classes: t^D dt is
closed at stage D but its potential needs degree D+1, so it dies in the
next stage. The dimensions reported as betti numbers therefore count the
classes of stage D that survive the inclusion into stage D+1 (their colimit
over D is the full polynomial de Rham cohomology); the raw truncated
dimensions are reported alongside. The stabilization flag compares the
surviving count at D against the one at D+1, which needs stage D+2.

One truncation, at D+2, serves all three stages. Its ambient coordinates
(one per simplex and local monomial form) are ordered by coefficient degree
first, so the ambient space of every stage D' <= D+2 is a prefix of the
columns. Face restriction and collapse pullback never raise coefficient
degree, so the compatible fields of stage D' are the compatible fields of
the top stage that live in that prefix. The reduced row echelon form of a
column prefix is the prefix of the reduced row echelon form and the
nullspace rows come in free-column order, so the first dim_{D'}(p) kernel
rows are a basis of stage D', and the leading block of the top stage's
exterior derivative is stage D''s. One nullspace of that derivative per
degree then gives every count in the report: its rows with free column in
the stage-D' prefix are the closed forms of stage D', and the rank of a
column prefix is its width minus the free columns in it. linalg returns
each nullspace row with its free column, so every count is a bisection of
those columns at a prefix width.

The comparison is certified by Whitney forms (Whitney 1957; Dupont 1976):
the Whitney field W(c) of each simplicial class representative c has
coefficient degree 1, and its kernel coordinates, d W(c) = 0 and
int W(c) = c are checked exactly (a failed check is an internal error). So
integration maps the closed fields of every stage onto simplicial
cohomology: the comparison rank is the simplicial betti number, and the
comparison is an isomorphism when the surviving classes number as many.

The local operators are pure functions of their shape: restriction to face
i of the monomial basis on Delta^n, pullback along the collapse of a
degenerate simplex onto its base (SimplicialSet.collapse), and the exterior
derivative. Face and collapse maps are simplicial, so one table serves
both: the pullback along a vertex map, from the int substitution kernel of
forms.PolyForm.pullback called once per basis element (a nondegenerate face
collapses along the identity, whose table is unit rows); the derivative's
table comes from its kernel. Each table is built once per process, as
sparse rows of ints, and the face constraints and the derivative are
assembled from the tables block by block.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .errors import ParameterError, StructureError
from .forms import _d_monomial, _pull_monomial, whitney
from .homology import chain_complex
from .linalg import Matrix, coordinates, nullspace


# -- tabulated local operators ------------------------------------------------


@lru_cache(maxsize=None)
def _local_basis(m, p, degree_cap):
    """Monomial-form basis (exponents, wedge indices) of degree-p forms on
    Delta^m with coefficient degree <= cap, ordered by coefficient degree
    first, so the basis at a lower cap is a prefix. Returns (basis, index of
    each basis element)."""
    exps = [e for e in itertools.product(range(degree_cap + 1), repeat=m) if sum(e) <= degree_cap]
    idxs = list(itertools.combinations(range(1, m + 1), p))
    basis = sorted(((e, i) for i in idxs for e in exps), key=lambda b: (sum(b[0]), b[1], b[0]))
    return tuple(basis), {b: k for k, b in enumerate(basis)}


@lru_cache(maxsize=None)
def _pullback_rows(n, p, phi, degree_cap):
    """Pullback of the basis of degree-p forms on Delta^n along the simplicial
    map from Delta^m with vertex map phi (m = len(phi) - 1), as int rows: row
    r, a basis element on Delta^m, maps each basis index on Delta^n to its
    coefficient. A face i has the coface vertex map (0, ..., i-1, i+1, ..., n);
    the collapse of a degenerate simplex onto its base has the weakly
    increasing surjection eta of SimplicialSet.collapse, whose identity on a
    nondegenerate simplex gives unit rows."""
    _, index = _local_basis(len(phi) - 1, p, degree_cap)
    rows = [{} for _ in index]
    for col, (exps, idx) in enumerate(_local_basis(n, p, degree_cap)[0]):
        for key, c in _pull_monomial(exps, idx, phi):
            r = index.get(key)
            if r is None:
                raise StructureError("form leaves the truncated basis")
            rows[r][col] = c
    return tuple(rows)


@lru_cache(maxsize=None)
def _d_rows(n, p, degree_cap):
    """Exterior derivative: row k (a basis element of degree p) maps each basis
    index of degree p+1 to its coefficient in d of the basis element."""
    _, target = _local_basis(n, p + 1, degree_cap)
    return tuple({target[key]: c for key, c in _d_monomial(exps, idx).items()}
                 for exps, idx in _local_basis(n, p, degree_cap)[0])


# -- the filtered truncation --------------------------------------------------


class _Truncation:
    """Compatible-field spaces of one simplicial set at one degree cap, with
    the ambient columns ordered by coefficient degree (see the module
    docstring): every lower cap's spaces are prefixes of these."""

    def __init__(self, x, degree_cap):
        self.x = x
        self.cap = degree_cap
        self.simplex_list = [(n, s) for n in x.dims() for s in x.nondegenerate(n)]
        self._columns = {}
        self._kernel = {}
        self._dmat = {}
        self._closed = {}

    def columns(self, p):
        """(ambient columns as (n, simplex, local index), ambient column of each
        local index per simplex, number of columns of degree <= D' per D')."""
        if p not in self._columns:
            by_degree = [[] for _ in range(self.cap + 1)]
            for n, s in self.simplex_list:
                for k, (exps, _) in enumerate(_local_basis(n, p, self.cap)[0]):
                    by_degree[sum(exps)].append((n, s, k))
            cols = [c for block in by_degree for c in block]
            where = {}
            # Local bases are degree-first too, so each simplex's columns
            # come in local index order.
            for c, (n, s, _) in enumerate(cols):
                where.setdefault((n, s), []).append(c)
            widths = list(itertools.accumulate(len(block) for block in by_degree))
            self._columns[p] = (cols, where, widths)
        return self._columns[p]

    def kernel(self, p):
        """Basis of face-compatible fields in degree p over the ambient
        coordinates, as the (free column, row) pairs of the nullspace of the
        face constraints: each row is 1 at its free column and every other
        row is 0 there. With no constraint the rows are the unit vectors.
        """
        if p in self._kernel:
            return self._kernel[p]
        cols, where, _ = self.columns(p)
        rows = []
        for n, s in self.simplex_list:
            if n <= p:  # faces of dimension n-1 < p carry no p-form
                continue
            here = where[(n, s)]
            for i in range(n + 1):
                bdim, base, eta = self.x.collapse(n - 1, self.x.d(n, i, s))
                there = where.get((bdim, base), ())
                face = _pullback_rows(n, p, tuple(v for v in range(n + 1) if v != i), self.cap)
                other = _pullback_rows(bdim, p, eta, self.cap)
                for frow, orow in zip(face, other):
                    row = {here[k]: c for k, c in frow.items()}
                    for k, c in orow.items():
                        row[there[k]] = -c
                    rows.append(row)
        self._kernel[p] = nullspace(Matrix.sparse(rows, len(cols)))
        return self._kernel[p]

    def dim(self, p, degree_cap):
        """Dimension of the compatible fields of degree p at a cap <= this one."""
        _, _, widths = self.columns(p)
        return bisect.bisect_left(self.kernel(p), widths[degree_cap], key=itemgetter(0))

    def d_matrix(self, p):
        """Exterior derivative in kernel coordinates, degree p to p+1.

        A compatible field's coordinates are its values at the free columns,
        so each column is the image of a kernel row read off there.
        """
        if p not in self._dmat:
            cols, _, _ = self.columns(p)
            _, where, _ = self.columns(p + 1)
            free = {c: j for j, (c, _) in enumerate(self.kernel(p + 1))}
            out = [{} for _ in free]
            for i, (_, vec) in enumerate(self.kernel(p)):
                image = {}
                for c, value in vec.items():
                    n, s, k = cols[c]
                    for r, coeff in _d_rows(n, p, self.cap)[k].items():
                        j = free.get(where[(n, s)][r])
                        if j is not None:
                            image[j] = image.get(j, 0) + value * coeff
                for j, v in image.items():
                    if v:
                        out[j][i] = v
            self._dmat[p] = Matrix.sparse(out, len(self.kernel(p)))
        return self._dmat[p]

    def closed(self, p):
        """Free columns of the nullspace of d_matrix(p), whose rows are the
        closed fields of degree p. The rows with free column below
        dim(p, D') are a basis of the closed fields of stage D': a
        nullspace row lives on its free column and the pivot columns left
        of it."""
        if p not in self._closed:
            self._closed[p] = [c for c, _ in nullspace(self.d_matrix(p))]
        return self._closed[p]

    def closed_dim(self, p, degree_cap):
        return bisect.bisect_left(self.closed(p), self.dim(p, degree_cap))

    def exact_dim(self, p, degree_cap):
        """Dimension of the image of d on the degree p-1 fields of stage D':
        the rank of a column prefix of d_matrix(p-1), which is the prefix
        width minus its free columns."""
        if p == 0:
            return 0
        return self.dim(p - 1, degree_cap) - self.closed_dim(p - 1, degree_cap)

    def survivors(self, p, degree_cap):
        """Classes of stage D' surviving into stage D'+1: its closed forms
        modulo the exact forms of stage D'+1 (which d puts in stage D')."""
        return self.closed_dim(p, degree_cap) - self.exact_dim(p, degree_cap + 1)

    def check_whitney(self, complex_, p):
        """Certify the comparison in degree p (see the module docstring): the
        Whitney field of each class representative of the chain complex is
        compatible, closed and integrates back to it; otherwise raise
        StructureError."""
        _, where, _ = self.columns(p)
        for rep in complex_.reps(p):
            w = whitney(self.x, p, rep)
            row = {where[(n, s)][_local_basis(n, p, self.cap)[1][key]]: v
                   for (n, s), form in w.forms.items() for key, v in form.terms.items()}
            coords, rest = coordinates(row, self.kernel(p))
            if rest or any(self.d_matrix(p).matvec(coords)) or any(
                w.forms[(p, s)].integrate() != rep.get(i, 0) for i, s in enumerate(complex_.basis[p])
            ):
                raise StructureError("the Whitney field of a degree-%d class fails the comparison" % p)


DeRhamReport = namedtuple(
    "DeRhamReport", "degree_cap dims raw_betti betti simplicial_betti comparison_rank isomorphism stable")
DeRhamReport.__doc__ = """Per degree, at the degree cap D: dims, the compatible-space dimension;
raw_betti, the truncated cohomology at D, transient classes included; betti,
the classes of stage D surviving into stage D+1; simplicial_betti;
comparison_rank, the rank of the integration comparison (the simplicial betti
number, by Whitney fields); isomorphism, whether the comparison is an
isomorphism onto simplicial cohomology; stable, whether the surviving count
at D equals the one at D+1."""


def derham_cohomology(x, degree_cap):
    """Survivor dimensions of the truncated polynomial de Rham complex, the
    integration comparison map to simplicial cohomology, and stabilization."""
    if degree_cap < 1:
        raise ParameterError("degree cap must be >= 1")
    complex_ = chain_complex(x)
    top = _Truncation(x, degree_cap + 2)
    dims, raw, betti, ranks, iso, stable = [], [], [], [], [], []
    for p in x.dims():
        dims.append(top.dim(p, degree_cap))
        raw.append(top.closed_dim(p, degree_cap) - top.exact_dim(p, degree_cap))
        surv = top.survivors(p, degree_cap)
        betti.append(surv)
        top.check_whitney(complex_, p)
        ranks.append(complex_.betti(p))
        iso.append(surv == complex_.betti(p))
        stable.append(top.survivors(p, degree_cap + 1) == surv)
    return DeRhamReport(
        degree_cap,
        tuple(dims),
        tuple(raw),
        tuple(betti),
        tuple(complex_.betti(p) for p in x.dims()),
        tuple(ranks),
        tuple(iso),
        tuple(stable),
    )
