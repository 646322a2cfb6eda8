"""Truncated polynomial de Rham cohomology and its comparison with
simplicial cohomology.

The complex at stage D is the space of face-compatible families of
polynomial forms with coefficient degree at most D; the exterior derivative
lowers coefficient degree, so each stage is a subcomplex of the next.

A uniform degree cap produces transient "top slice" classes: t^D dt is
closed at stage D but its potential needs degree D+1, so it dies in the
next stage. The dimensions reported as betti numbers therefore count the
classes of stage D that survive the inclusion into stage D+1 (their colimit
over D is the full polynomial de Rham cohomology); the raw truncated
dimensions are reported alongside. The stabilization flag compares the
surviving count at D against the one at D+1, which needs stage D+2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, StructureError
from .forms import PolyForm, coface_matrix, collapse_matrix, compose_matrices
from .homology import CochainSpaces
from .linalg import Matrix, coordinates, nullspace, quotient_reps, rank


def _local_basis(m, p, degree_cap):
    """Monomial-form basis of degree-p forms on Delta^m, coefficient degree <= cap."""
    exps = [
        e
        for e in itertools.product(range(degree_cap + 1), repeat=m)
        if sum(e) <= degree_cap
    ]
    exps.sort()
    idxs = list(itertools.combinations(range(1, m + 1), p))
    return [(e, i) for i in idxs for e in exps]


class _Truncation:
    """Compatible-field spaces of one simplicial set at one degree cap."""

    def __init__(self, x, degree_cap):
        self.x = x
        self.cap = degree_cap
        self.simplex_list = [(n, s) for n in x.dims() for s in x.nondegenerate(n)]
        self._local = {}
        self._columns = {}
        self._kernel = {}
        self._dmat = {}

    def local_basis(self, m, p):
        key = (m, p)
        if key not in self._local:
            basis = _local_basis(m, p, self.cap)
            self._local[key] = (basis, {k: i for i, k in enumerate(basis)})
        return self._local[key]

    def columns(self, p):
        if p not in self._columns:
            cols = []
            for (n, s) in self.simplex_list:
                basis, _ = self.local_basis(n, p)
                for k in range(len(basis)):
                    cols.append((n, s, k))
            self._columns[p] = (cols, {c: i for i, c in enumerate(cols)})
        return self._columns[p]

    def _collapse_chain(self, n, s):
        """Nondegenerate base of a degenerate simplex plus the composite collapse matrix."""
        mat = None
        dim, cur = n, s
        while self.x.is_degenerate(dim, cur):
            j, base = self.x.witness[(dim, cur)]
            step = collapse_matrix(dim - 1, j)
            mat = step if mat is None else compose_matrices(mat, step)
            dim, cur = dim - 1, base
        return dim, cur, mat

    def _form_coords(self, form, index, sign, row_acc, col):
        for key, c in form.terms.items():
            r = index.get(key)
            if r is None:
                raise StructureError("form leaves the truncated basis")
            row_acc.setdefault(r, {})
            row_acc[r][col] = row_acc[r].get(col, Fraction(0)) + sign * c

    def kernel(self, p):
        """Basis of face-compatible fields in degree p, as the rows of a Matrix
        over the ambient coordinates, with the column at which each row is 1
        and every other row is 0.

        The rows are the nullspace basis of the face constraints, one per
        free column; with no constraint they are the unit vectors.
        """
        if p in self._kernel:
            return self._kernel[p]
        cols, col_index = self.columns(p)
        rows = []
        for (n, s) in self.simplex_list:
            if n == 0:
                continue
            basis_here, _ = self.local_basis(n, p)
            for i in range(n + 1):
                face_basis, face_index = self.local_basis(n - 1, p)
                if not face_basis:
                    continue
                acc = {}
                for k, (exps, idx) in enumerate(basis_here):
                    unit = PolyForm(n, p, [((exps, idx), Fraction(1))])
                    restricted = unit.pullback(coface_matrix(n, i))
                    self._form_coords(restricted, face_index, Fraction(1), acc, col_index[(n, s, k)])
                f = self.x.d(n, i, s)
                if self.x.is_degenerate(n - 1, f):
                    bdim, base, mat = self._collapse_chain(n - 1, f)
                    base_basis, _ = self.local_basis(bdim, p)
                    for k, (exps, idx) in enumerate(base_basis):
                        unit = PolyForm(bdim, p, [((exps, idx), Fraction(1))])
                        pulled = unit.pullback(mat)
                        self._form_coords(pulled, face_index, Fraction(-1), acc, col_index[(bdim, base, k)])
                else:
                    for k in range(len(face_basis)):
                        c = col_index[(n - 1, f, k)]
                        acc.setdefault(k, {})
                        acc[k][c] = acc[k].get(c, Fraction(0)) - 1
                for r in sorted(acc):
                    rows.append({c: v for c, v in acc[r].items() if v})
        basis = nullspace(Matrix.sparse(rows, len(cols)))
        # Each nullspace vector's free column is its last entry.
        self._kernel[p] = (basis, [max(row) for row in basis.rows])
        return self._kernel[p]

    def dim(self, p):
        return self.kernel(p)[0].nrows

    def forms_from_vector(self, p, vec):
        """Per-simplex forms of an ambient vector (dict column -> value)."""
        cols, _ = self.columns(p)
        forms = {}
        for c in sorted(vec):
            value = vec[c]
            n, s, k = cols[c]
            basis, _ = self.local_basis(n, p)
            exps, idx = basis[k]
            term = PolyForm(n, p, [((exps, idx), value)])
            forms[(n, s)] = forms.get((n, s), PolyForm.zero(n, p)) + term
        return forms

    def apply_d(self, p, vec):
        """Exterior derivative of an ambient vector (dict column -> value), ambient degree p+1."""
        cols, _ = self.columns(p)
        _, target_index = self.columns(p + 1)
        res = {}
        for c, value in vec.items():
            n, s, k = cols[c]
            basis, _ = self.local_basis(n, p)
            exps, idx = basis[k]
            dform = PolyForm(n, p, [((exps, idx), Fraction(1))]).d()
            t_index = self.local_basis(n, p + 1)[1]
            for key, coeff in dform.terms.items():
                t = target_index[(n, s, t_index[key])]
                res[t] = res.get(t, 0) + value * coeff
        return {t: v for t, v in res.items() if v}

    def express_in_kernel(self, p, vectors):
        """Coordinates of ambient vectors (dict rows) in the kernel basis."""
        basis, pivots = self.kernel(p)
        out = []
        for vec in vectors:
            coords, rest = coordinates(vec, basis, pivots)
            if rest:
                raise StructureError("vector outside the compatible subspace")
            out.append(coords)
        return out

    def d_matrix(self, p):
        """Exterior derivative in kernel coordinates, degree p to p+1."""
        if p not in self._dmat:
            images = [self.apply_d(p, vec) for vec in self.kernel(p)[0].rows]
            coords = self.express_in_kernel(p + 1, images)
            self._dmat[p] = Matrix.from_columns(coords, self.dim(p + 1))
        return self._dmat[p]

    def cohomology_reps(self, p):
        """Truncated-cohomology class representatives in kernel coordinates."""
        z_rows = nullspace(self.d_matrix(p))
        if p == 0:
            b_rows = Matrix.zeros(0, self.dim(0))
        else:
            b_rows = self.d_matrix(p - 1).transpose()
        return quotient_reps(z_rows, b_rows)

    def rep_to_ambient(self, p, rep):
        """Ambient vector (dict column -> value) of kernel coordinates."""
        vec = {}
        for coef, base in zip(rep, self.kernel(p)[0].rows):
            if coef:
                for c, v in base.items():
                    vec[c] = vec.get(c, 0) + coef * v
        return {c: v for c, v in vec.items() if v}

    def embed_ambient(self, p, vec, finer):
        """Reindex an ambient vector into the columns of a finer truncation."""
        cols, _ = self.columns(p)
        _, fine_index = finer.columns(p)
        out = {}
        for c, value in vec.items():
            n, s, k = cols[c]
            exps, idx = self.local_basis(n, p)[0][k]
            fk = finer.local_basis(n, p)[1][(exps, idx)]
            out[fine_index[(n, s, fk)]] = value
        return out


def _survivor_rank(coarse, fine, p, reps):
    """How many classes of the coarse stage stay independent in the fine stage.

    Works entirely in ambient coordinates: the dimension of the classes'
    span modulo the exact forms of the fine stage.
    """
    if not reps:
        return 0
    width = len(fine.columns(p)[0])
    ambient = Matrix.sparse(
        [coarse.embed_ambient(p, coarse.rep_to_ambient(p, r), fine) for r in reps], width
    )
    if p == 0:
        exact = Matrix.zeros(0, width)
    else:
        exact = Matrix.sparse([fine.apply_d(p - 1, k) for k in fine.kernel(p - 1)[0].rows], width)
    return len(quotient_reps(ambient, exact))


@dataclass
class DeRhamReport:
    degree_cap: int
    dims: tuple                # compatible-space dimension per degree, at D
    raw_betti: tuple           # truncated cohomology at D, transient classes included
    betti: tuple               # classes of stage D surviving into stage D+1
    simplicial_betti: tuple
    comparison_rank: tuple     # rank of the integration comparison per degree
    isomorphism: tuple         # per-degree: comparison is iso onto simplicial cohomology
    stable: tuple              # surviving count at D equals the one at D+1

    def stabilized(self):
        return all(self.stable)


def derham_cohomology(x, degree_cap):
    """Survivor dimensions of the truncated polynomial de Rham complex, the
    integration comparison map to simplicial cohomology, and stabilization."""
    if degree_cap < 1:
        raise ParameterError("degree cap must be >= 1")
    spaces = CochainSpaces(x)
    stage = {d: _Truncation(x, d) for d in (degree_cap, degree_cap + 1, degree_cap + 2)}
    dims, raw, betti, ranks, iso, stable = [], [], [], [], [], []
    coarse = stage[degree_cap]
    for p in x.dims():
        dims.append(coarse.dim(p))
        reps = coarse.cohomology_reps(p)
        raw.append(len(reps))
        surv = _survivor_rank(coarse, stage[degree_cap + 1], p, reps)
        betti.append(surv)
        cols = []
        for rep in reps:
            forms = coarse.forms_from_vector(p, coarse.rep_to_ambient(p, rep))
            values = tuple(
                forms.get((p, s), PolyForm.zero(p, p)).integrate() for s in spaces.basis[p]
            )
            cols.append(spaces.express(p, values))
        comparison = Matrix.from_columns(cols, spaces.betti(p))
        r = rank(comparison)
        ranks.append(r)
        iso.append(r == surv == spaces.betti(p))
        next_reps = stage[degree_cap + 1].cohomology_reps(p)
        stable.append(
            _survivor_rank(stage[degree_cap + 1], stage[degree_cap + 2], p, next_reps) == surv
        )
    return DeRhamReport(
        degree_cap,
        tuple(dims),
        tuple(raw),
        tuple(betti),
        tuple(spaces.betti(p) for p in x.dims()),
        tuple(ranks),
        tuple(iso),
        tuple(stable),
    )
