"""Lie-algebra-valued polynomial 1-forms as connections on trivial bundles,
the face extension and horn filling of connection data, curvature and
Chern-Weil forms, an abelian Chern-number calculator, and the numeric
extra-degeneracy operator.

Everything except extra_degeneracy_value is exact. Face extension and horn
filling share one kernel built on the vertex-map pullback of ssetkit.forms
alone: faces are compared through the face embeddings of their common
(n-2)-face, and data are extended along the retractions of the simplex onto
its faces. The retraction onto face d_i sends vertex i to the apex, the
vertex opposite the missing face (vertex 0 for face_extend, vertex k for a
horn missing d_k), and fixes every other vertex.

The abelian Chern model keeps a formal unit tau (standing for 2*pi) in the
scalars: transition lifts may wind along an edge by integer multiples of
tau, so connection forms carry QTau coefficients and the degree is read off
as the tau-part of the total curvature integral, an exact integer check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import CompatibilityError, DomainError, ParameterError, StructureError
from .forms import PolyForm, QTau, TAU, _as_qtau
from .linalg import Matrix, coordinates, rref
from .simplicial import _UnionFind


# -- matrix Lie algebras -----------------------------------------------------


class MatrixLieAlgebra:
    """Matrices over Q with the commutator bracket; basis fixed at creation.

    The commutator is antisymmetric and satisfies the Jacobi identity for
    any matrices, so neither is checked; membership in the span is read off
    the RREF of the basis, computed once here.
    """

    def __init__(self, name, basis):
        self.name = name
        self.basis = tuple(
            tuple(tuple(Fraction(v) for v in row) for row in b) for b in basis
        )
        sizes = {len(b) for b in self.basis} | {len(r) for b in self.basis for r in b}
        if len(sizes) != 1:
            raise ParameterError("basis matrices must be square of one size")
        self.size = sizes.pop()
        self._span = rref(Matrix([[x for row in b for x in row] for b in self.basis]))

    def _mat_mul(self, a, b):
        d = self.size
        return tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(d)), Fraction(0)) for j in range(d))
            for i in range(d)
        )

    def bracket(self, a, b):
        ab = self._mat_mul(a, b)
        ba = self._mat_mul(b, a)
        return tuple(
            tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(ab, ba)
        )

    def contains(self, matrix):
        """Membership of a rational matrix in the span of the basis."""
        flat = {k: v for k, v in enumerate(x for row in matrix for x in row) if v}
        return not coordinates(flat, self._span)[1]


def abelian_line():
    return MatrixLieAlgebra("abelian-1d", [(((1,)),)])


def sl2():
    return MatrixLieAlgebra(
        "2x2 traceless",
        [((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1))],
    )


def gl(n):
    basis = []
    for i in range(n):
        for j in range(n):
            basis.append(
                tuple(
                    tuple(1 if (r, c) == (i, j) else 0 for c in range(n))
                    for r in range(n)
                )
            )
    return MatrixLieAlgebra("%dx%d full" % (n, n), basis)


# -- Lie-algebra-valued forms -------------------------------------------------


class LieValuedForm:
    """Square matrix of PolyForms of one degree on one simplex."""

    def __init__(self, algebra, n, p, entries):
        self.algebra = algebra
        self.n = int(n)
        self.p = int(p)
        d = algebra.size
        self.entries = tuple(tuple(entries[i][j] for j in range(d)) for i in range(d))
        for row in self.entries:
            for f in row:
                if (f.n, f.p) != (self.n, self.p):
                    raise ParameterError("entry of the wrong form type")

    def entrywise(self, fn, p=None, n=None):
        return LieValuedForm(
            self.algebra,
            self.n if n is None else n,
            self.p if p is None else p,
            [[fn(f) for f in row] for row in self.entries],
        )

    def __add__(self, other):
        return LieValuedForm(
            self.algebra, self.n, self.p,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self.entrywise(lambda f: f.scale(c))

    def __eq__(self, other):
        return (
            isinstance(other, LieValuedForm)
            and (self.n, self.p) == (other.n, other.p)
            and self.entries == other.entries
        )

    def is_zero(self):
        return all(f.is_zero() for row in self.entries for f in row)

    def d(self):
        return self.entrywise(lambda f: f.d(), p=self.p + 1)

    def wedge(self, other):
        d = self.algebra.size
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = PolyForm.zero(self.n, self.p + other.p)
                for k in range(d):
                    acc = acc + self.entries[i][k].wedge(other.entries[k][j])
                row.append(acc)
            rows.append(row)
        return LieValuedForm(self.algebra, self.n, self.p + other.p, rows)

    def trace(self):
        acc = PolyForm.zero(self.n, self.p)
        for i in range(self.algebra.size):
            acc = acc + self.entries[i][i]
        return acc

    def pullback(self, phi):
        """Entrywise PolyForm.pullback along the vertex map phi."""
        phi = tuple(phi)
        return self.entrywise(lambda f: f.pullback(phi), n=len(phi) - 1)

    def in_algebra(self):
        """Do all monomial coefficient matrices lie in the algebra's span?
        A matrix does when its rational part and its tau part both do."""
        keys = set()
        for row in self.entries:
            for f in row:
                keys.update(f.terms)
        d = self.algebra.size
        for key in keys:
            mat = [[_as_qtau(self.entries[i][j].terms.get(key, 0)) for j in range(d)] for i in range(d)]
            if not (
                self.algebra.contains([[x.q for x in row] for row in mat])
                and self.algebra.contains([[x.m for x in row] for row in mat])
            ):
                return False
        return True


def curvature(connection):
    """F = dA + A ^ A on a trivial bundle; input must be a 1-form."""
    if connection.p != 1:
        raise ParameterError("a connection is a Lie-valued 1-form")
    return connection.d() + connection.wedge(connection)


def chern_weil_form(f, k):
    """Trace of the k-th wedge power of the curvature, a closed 2k-form."""
    if k < 1:
        raise ParameterError("power must be >= 1")
    if 2 * k > f.n:
        return PolyForm.zero(f.n, 2 * k)
    power = f
    for _ in range(k - 1):
        power = power.wedge(f)
    return power.trace()


# -- face extension --------------------------------------------------------------


def _coface(n, i):
    """Vertex map of the face embedding Delta^{n-1} -> Delta^n missing vertex i."""
    return tuple(v for v in range(n + 1) if v != i)


def _retraction(n, apex, i):
    """Vertex map of the retraction Delta^n -> face i (i != apex): vertex i
    goes to the apex, every other vertex stays. It is a left inverse of the
    face embedding, and it sends every face j != i, apex into face j."""
    face = _coface(n, i)
    return tuple(face.index(apex if v == i else v) for v in range(n + 1))


def _first_discrepancy(a, b):
    if isinstance(a, LieValuedForm):
        for i, row in enumerate(a.entries):
            for j, f in enumerate(row):
                g = b.entries[i][j]
                if f != g:
                    keys = set(f.terms) | set(g.terms)
                    key = sorted(k for k in keys if f.terms.get(k) != g.terms.get(k))[0]
                    return ((i, j), key)
        return None
    if a != b:
        keys = set(a.terms) | set(b.terms)
        return sorted(k for k in keys if a.terms.get(k) != b.terms.get(k))[0]
    return None


def _extend(n, apex, data):
    """Extend compatible forms given on faces d_i, i != apex, of Delta^n.

    data maps face indices i != apex to PolyForms or LieValuedForms on
    Delta^{n-1}, all of one degree. Faces i < j are compatible when they
    agree on their intersection, the (n-2)-face missing vertices i and j.
    The extension starts from the top face's datum pulled back along its
    retraction; each further face, in descending order, adds the residual of
    the sum so far pulled back along its own retraction. That residual
    vanishes on the faces already matched, and so does its pullback, because
    the retraction onto face i keeps every other non-apex face j inside
    face j. Polynomial data give a polynomial extension.
    """
    if not data:
        raise ParameterError("no face data")
    degree = next(iter(data.values())).p
    for i in data:
        if i == apex or not 0 <= i <= n:
            raise ParameterError("face index %r out of range" % (i,))
        if data[i].n != n - 1:
            raise ParameterError("datum on face %d has wrong arity" % i)
        if data[i].p != degree:
            raise ParameterError("datum on face %d has the wrong degree" % i)
    keys = sorted(data, reverse=True)
    for pos, j in enumerate(keys):
        for i in keys[pos + 1:]:
            rij = data[i].pullback(_coface(n - 1, j - 1))
            rji = data[j].pullback(_coface(n - 1, i))
            if rij != rji:
                raise CompatibilityError(
                    "face data disagree on the intersection of faces %d and %d" % (i, j),
                    witness=(i, j, _first_discrepancy(rij, rji)),
                )
    result = data[keys[0]].pullback(_retraction(n, apex, keys[0]))
    for i in keys[1:]:
        residual = data[i] - result.pullback(_coface(n, i))
        result = result + residual.pullback(_retraction(n, apex, i))
    for i in keys:
        if result.pullback(_coface(n, i)) != data[i]:
            raise StructureError("extension failed to restrict to face %d" % i)
    return result


def face_extend(n, data):
    """Extend compatible face data from faces of the n-simplex to the whole.

    data maps face indices i in 1..n (a subset) to forms on the face d_i,
    which in canonical coordinates is {t_i = 0}, each in n-1 canonical
    variables. The output restricts to every datum exactly.
    """
    return _extend(n, 0, data)


def horn_connection_fill(n, k, data):
    """Fill a horn of connection data: forms on the faces d_i, i != k, of the
    n-simplex, compatible on intersections, extended to the whole simplex."""
    if not 0 <= k <= n:
        raise ParameterError("missing-face index out of range")
    if sorted(data) != [i for i in range(n + 1) if i != k]:
        raise ParameterError("horn data must cover exactly the faces other than %d" % k)
    return _extend(n, k, data)


# -- abelian Chern numbers -----------------------------------------------------


EdgeGluing = namedtuple("EdgeGluing", "plus minus flip p winding")
EdgeGluing.__doc__ = """One interior edge of a closed surface.

plus/minus name (triangle id, face index) for the two sides; flip says
whether the two face parametrizations run oppositely. The transition
from the minus frame to the plus frame has additive lift
p(t) + winding * tau * t along the plus parametrization, p a 0-form on
Delta^1."""


class U1BundleData:
    """Closed oriented simplicial surface with a per-triangle connection form
    and per-edge transition data for the abelian Chern number."""

    def __init__(self, triangles, orientations, forms, gluings):
        self.triangles = tuple(triangles)
        self.orientations = dict(orientations)
        self.forms = dict(forms)
        self.gluings = list(gluings)
        for t in self.triangles:
            if self.orientations.get(t) not in (1, -1):
                raise StructureError("triangle %r needs an orientation sign" % (t,))
            f = self.forms.get(t)
            if f is None or (f.n, f.p) != (2, 1):
                raise StructureError("triangle %r needs a 1-form on Delta^2" % (t,))
        seen = {}
        for g in self.gluings:
            for side in (g.plus, g.minus):
                t, i = side
                if t not in self.orientations or not 0 <= i <= 2:
                    raise StructureError("gluing names unknown side %r" % (side,))
                if side in seen:
                    raise StructureError("face %r glued twice" % (side,))
                seen[side] = True
            if (g.p.n, g.p.p) != (1, 0):
                raise StructureError("transition needs a 0-form on the edge")
        for t in self.triangles:
            for i in range(3):
                if (t, i) not in seen:
                    raise StructureError("face (%r, %d) is unglued; surface not closed" % (t, i))

    def orientation_consistent(self):
        for g in self.gluings:
            (tp, ip), (tm, im) = g.plus, g.minus
            s_flip = -1 if g.flip else 1
            if self.orientations[tp] * (-1) ** ip * s_flip + self.orientations[tm] * (-1) ** im != 0:
                return False
        return True


def _edge_jump_form(g):
    """d of the transition lift: dp + winding * tau * dt_1 on the edge."""
    wind = PolyForm(1, 1, [(((0,), (1,)), TAU * g.winding)]) if g.winding else PolyForm.zero(1, 1)
    return g.p.d() + wind


def check_u1_invariants(bundle):
    """Edge compatibility of the connection with the transition lifts.

    Returns the witness edge on failure, None when all edges match."""
    for g in bundle.gluings:
        (tp, ip), (tm, im) = g.plus, g.minus
        pb_plus = bundle.forms[tp].pullback(v for v in range(3) if v != ip)
        pb_minus = bundle.forms[tm].pullback(v for v in range(3) if v != im)
        if g.flip:
            pb_minus = pb_minus.pullback((1, 0))
        if pb_plus - pb_minus != _edge_jump_form(g):
            return g
    return None


def _vertex_classes(bundle):
    corners = _UnionFind((t, c) for t in bundle.triangles for c in range(3))
    for g in bundle.gluings:
        (tp, ip), (tm, im) = g.plus, g.minus
        ends_p = sorted(set(range(3)) - {ip})
        ends_m = sorted(set(range(3)) - {im})
        for lam in (0, 1):
            lam_m = 1 - lam if g.flip else lam
            corners.union((tp, ends_p[lam]), (tm, ends_m[lam_m]))
    return corners.groups()


ChernReport = namedtuple("ChernReport", "degree total_integral edge_sum vertex_sums integral_vertex_sums")
ChernReport.__doc__ = """The degree, the QTau total curvature integral and edge sum, vertex_sums
mapping each vertex class representative to its QTau winding sum, and
whether those sums are all integral."""


def u1_chern_number(bundle):
    """Degree of the abelian bundle: the tau-part of the total curvature
    integral, cross-checked against the per-edge jump sum, with per-vertex
    winding sums reported.

    Raises CompatibilityError with the witness edge when the transition
    invariant fails, and reports a non-integral verdict rather than rounding
    when the rational part of the total does not cancel."""
    bad = check_u1_invariants(bundle)
    if bad is not None:
        raise CompatibilityError("connection and transition disagree on an edge", witness=bad)
    if not bundle.orientation_consistent():
        raise StructureError("triangle orientations are not globally consistent")
    total = QTau(0, 0)
    for t in bundle.triangles:
        val = bundle.forms[t].d().integrate()
        total = total + val * bundle.orientations[t]
    edge_sum = QTau(0, 0)
    vertex_sums = {}
    classes = _vertex_classes(bundle)
    rep_of = {c: rep for rep, members in classes.items() for c in members}
    for g in bundle.gluings:
        (tp, ip), _ = g.plus, g.minus
        s_e = bundle.orientations[tp] * (-1) ** ip
        jump = _edge_jump_form(g).integrate()
        edge_sum = edge_sum + jump * s_e
        ends_p = sorted(set(range(3)) - {ip})
        p_at = g.p.coefficients_at((Fraction(1),)).get((), Fraction(0))
        p_at0 = g.p.coefficients_at((Fraction(0),)).get((), Fraction(0))
        lift_head = _as_qtau(p_at) + TAU * g.winding
        lift_tail = _as_qtau(p_at0)
        head_rep = rep_of[(tp, ends_p[1])]
        tail_rep = rep_of[(tp, ends_p[0])]
        vertex_sums[head_rep] = vertex_sums.get(head_rep, QTau(0, 0)) + lift_head * s_e
        vertex_sums[tail_rep] = vertex_sums.get(tail_rep, QTau(0, 0)) - lift_tail * s_e
    if total != edge_sum:
        raise StructureError("Stokes bookkeeping failed: total %r vs edge sum %r" % (total, edge_sum))
    integral = all(z.q == 0 and z.m.denominator == 1 for z in vertex_sums.values())
    if total.q != 0:
        raise StructureError("total curvature has a nonzero rational part %r" % (total.q,))
    return ChernReport(total.m, total, edge_sum, vertex_sums, integral)


# -- the numeric extra degeneracy ---------------------------------------------


def bump_factor(t0):
    """The smooth cutoff e^4 * e^{-(1/2 - t_0)^{-2}} on t_0 < 1/2, 0 beyond."""
    if t0 >= 0.5:
        return 0.0
    return math.exp(4.0 - (0.5 - t0) ** -2)


def extra_degeneracy_value(w_eval, n, point):
    """Evaluate the extra-degeneracy image of a 1-form at a point of the
    (n+1)-simplex, in floating point.

    w_eval(u) returns the n coefficients of the form against dt_1..dt_n in
    canonical coordinates of the base simplex; entries may be floats or
    numpy arrays (matrix-valued forms). The value is the coefficient tuple
    against dt_1..dt_{n+1} upstairs: zero on the half t_0 >= 1/2, and the
    bump-scaled pullback along the collapse projection on t_0 < 1/2.

    Evaluation exactly at the apex t_0 = 1 is refused: the projection in
    the defining formula is undefined there.
    """
    if len(point) != n + 1:
        raise ParameterError("point must have n+1 canonical coordinates")
    t0 = 1.0 - math.fsum(point)
    if t0 >= 1.0:
        raise DomainError("the defining projection is undefined at t_0 = 1")
    if t0 >= 0.5:
        zero = 0.0 * w_eval(tuple(0.0 for _ in range(n)))[0] if n else 0.0
        return tuple(zero for _ in range(n + 1))
    scale = bump_factor(t0)
    denom = 1.0 - t0
    u = tuple(point[j] / denom for j in range(1, n + 1))
    w = w_eval(u)
    # f*(du_j) = dt_{j+1}/(1-t_0) + t_{j+1}/(1-t_0)^2 dt_0, dt_0 = -sum dt_i
    correction = sum(w[j - 1] * (point[j] / denom ** 2) for j in range(1, n + 1))
    coeffs = []
    for i in range(1, n + 2):
        base = w[i - 2] / denom if i >= 2 else 0.0
        coeffs.append(scale * (base - correction))
    return tuple(coeffs)
