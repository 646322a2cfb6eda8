"""Chain complexes, integral and rational (co)homology, cup products,
and the Mayer-Vietoris long exact sequence with mechanical exactness checks.

Chains are normalized: degenerate simplices are quotiented away. One
integer Smith normal form per boundary gives both its rank (over Z and
over Q) and the torsion. Rational cohomology reads the same complex: a
cochain is a row linalg eliminates, {basis position: nonzero value}, and the
complex keeps each degree's class basis, the RREF coboundaries followed by
the canonical representatives, as one reduced basis of (pivot column, row)
pairs, so one coordinates call expresses a cocycle in its class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError, StructureError
from .linalg import Matrix, coordinates, invariant_factors, nullspace, quotient_reps, rank, rref
from .simplicial import restrict


class ChainComplex:
    """Normalized chain complex of a simplicial set x, for integer and rational
    coefficients alike: basis[n] is the nondegenerate n-simplices, index[n]
    maps each to its position, and boundary[n] is the integer boundary matrix.

    Its rational cochains are the rows linalg eliminates: a degree-p cochain
    is a sparse row {basis position: nonzero value} over basis[p]; a
    degenerate simplex has no position, so every cochain is 0 there. The
    boundary factors, class bases and cup face positions are computed once
    per degree.
    """

    def __init__(self, x, basis, boundary):
        self.x = x
        self.basis = basis
        self.index = {n: {s: i for i, s in enumerate(b)} for n, b in basis.items()}
        self.top = x.dim_cap
        self.boundary = boundary
        self._factors = {}
        self._classes = {}
        self._faces = {}

    def dim(self, n):
        return len(self.basis.get(n, ()))

    def boundary_or_zero(self, n):
        if 1 <= n <= self.top:
            return self.boundary[n]
        if n == self.top + 1:
            return Matrix.zeros(self.dim(self.top), 0)
        return Matrix.zeros(self.dim(n - 1) if n >= 1 else 0, self.dim(n))

    def boundary_factors(self, n):
        """Invariant factors of the degree-n boundary, computed once. Their
        number is the boundary's rank, over Z and over Q alike."""
        if n not in self._factors:
            self._factors[n] = invariant_factors(self.boundary_or_zero(n))
        return self._factors[n]

    def positions(self, p, simplices):
        """The basis position of each p-simplex, None for a degenerate one
        (or one not in the set): read_at reads a cochain row there."""
        index = self.index[p]
        return [index.get(s) for s in simplices]

    def coboundary(self, p, row):
        """The coboundary of a degree-p cochain row: the row times boundary(p+1)."""
        (out,) = (Matrix.sparse([row], self.dim(p)) @ self.boundary_or_zero(p + 1)).rows
        return out

    def _class_bases(self, p):
        """The reduced basis express() reads, and the number of its rows
        that are coboundaries: the RREF of the coboundaries of the basis
        (p-1)-cochains (the rows of boundary(p)), then the canonical class
        representatives, which vanish at its pivots."""
        if p not in self._classes:
            coboundaries = rref(self.boundary_or_zero(p))
            cocycles = [row for _, row in nullspace(self.boundary_or_zero(p + 1).transpose())]
            self._classes[p] = (coboundaries + quotient_reps(cocycles, coboundaries), len(coboundaries))
        return self._classes[p]

    def reps(self, p):
        """Canonical cohomology class representatives (RREF rows, reduced mod coboundaries)."""
        basis, k = self._class_bases(p)
        return [row for _, row in basis[k:]]

    def betti(self, p):
        basis, k = self._class_bases(p)
        return len(basis) - k

    def express(self, p, row):
        """Coordinates of a cocycle's class in the canonical representative
        basis. The coboundaries and the representatives together span exactly
        the cocycles, so a remainder means row is not a cocycle; a key off
        the basis is no pivot and stays in the remainder."""
        basis, k = self._class_bases(p)
        coords, rest = coordinates({j: v for j, v in row.items() if v}, basis)
        if rest:
            raise ParameterError("vector is not a cocycle in degree %d" % p)
        return coords[k:]

    def cup(self, p, arow, q, brow):
        """Alexander-Whitney cup product of cochain rows, front face times
        back face, on the basis simplices where both factors are nonzero."""
        n = p + q
        if n > self.top:
            raise ParameterError("cup product degree exceeds the cap")
        if (p, q) not in self._faces:  # the front and back faces of basis[n]
            x, basis = self.x, self.basis[n]
            self._faces[(p, q)] = (
                self.positions(p, [x.face_on(n, s, range(p + 1)) for s in basis]),
                self.positions(q, [x.face_on(n, s, range(p, n + 1)) for s in basis]),
            )
        front, back = self._faces[(p, q)]
        return {k: arow[i] * brow[j] for k, (i, j) in enumerate(zip(front, back)) if arow.get(i) and brow.get(j)}


def chain_complex(x):
    """Normalized chain complex of a simplicial set: the basis is the
    nondegenerate simplices, the boundary is the alternating face sum, and
    faces landing on degenerate simplices are dropped. The set's
    constructor refused any table that breaks a simplicial identity, so
    d^2 = 0 holds and is not multiplied out.
    """
    basis = {n: x.nondegenerate(n) for n in x.dims()}
    boundary = {}
    for n in range(1, x.dim_cap + 1):
        # the row of each nondegenerate (n-1)-simplex, by its stored position
        row_at = {x._index[n - 1][f]: r for r, f in enumerate(basis[n - 1])}
        faces = [x._dpos[(n, i)] for i in range(n + 1)]
        rows = [{} for _ in basis[n - 1]]
        for j, s in enumerate(basis[n]):
            p = x._index[n][s]
            for i, face in enumerate(faces):
                r = row_at.get(face[p])
                if r is None:  # a degenerate face
                    continue
                row = rows[r]
                v = row.get(j, 0) + (-1) ** i
                if v:
                    row[j] = v
                else:
                    del row[j]
        boundary[n] = Matrix.sparse(rows, len(basis[n]))
    return ChainComplex(x, basis, boundary)


@dataclass
class HomologySummary:
    betti: tuple
    torsion: dict

    def __str__(self):
        parts = ["betti %s" % (self.betti,)]
        for n in sorted(self.torsion):
            if self.torsion[n]:
                parts.append("H_%d torsion %s" % (n, self.torsion[n]))
        return "; ".join(parts)


def homology(complex_):
    """Betti numbers and torsion from the Smith normal form of each boundary."""
    betti = []
    torsion = {}
    for n in range(complex_.top + 1):
        incoming = complex_.boundary_factors(n + 1)
        betti.append(complex_.dim(n) - len(incoming) - len(complex_.boundary_factors(n)))
        torsion[n] = tuple(d for d in incoming if d > 1)
    return HomologySummary(tuple(betti), torsion)


# -- rational cohomology ------------------------------------------------


def read_at(row, positions):
    """A cochain row read at basis positions: entry k is its value at
    positions[k], absent where that position is None or off the row."""
    return {k: row[i] for k, i in enumerate(positions) if i in row}


@dataclass
class CohomologyRing:
    """Cohomology basis per degree plus the cup product table on basis
    classes, kept for degrees p <= q (product gives the rest)."""

    x: object
    complex: ChainComplex
    reps: dict
    table: dict = field(default_factory=dict)

    def betti(self):
        return tuple(len(self.reps.get(p, [])) for p in self.x.dims())

    def product(self, p, i, q, j):
        """Class coordinates of reps[p][i] cup reps[q][j] in degree p+q; for
        p > q, graded commutativity gives them as (-1)^(pq) times the
        (q, j, p, i) entry."""
        if p <= q:
            return self.table[(p, i, q, j)]
        coords = self.table[(q, j, p, i)]
        return tuple(-v for v in coords) if p * q % 2 else coords


def cohomology_ring(x):
    """Rational cohomology with the multiplication table of basis classes,
    one entry per pair of degrees p <= q (see CohomologyRing.product)."""
    complex_ = chain_complex(x)
    reps = {p: complex_.reps(p) for p in x.dims()}
    ring = CohomologyRing(x, complex_, reps)
    cap = x.dim_cap
    for p in x.dims():
        for i, a in enumerate(reps[p]):
            for q in range(p, cap - p + 1):
                for j, b in enumerate(reps[q]):
                    prod = complex_.cup(p, a, q, b)
                    ring.table[(p, i, q, j)] = complex_.express(p + q, prod)
    return ring


def unit_class_coords(ring):
    """Coordinates of the constant-1 cocycle in degree 0."""
    return ring.complex.express(0, dict.fromkeys(range(ring.complex.dim(0)), 1))


def _class_map(t, s, p, positions):
    """Matrix of H^p(T) -> H^p(S) in the canonical bases, T and S given by
    their chain complexes: each class representative of T is read at
    positions, one per basis p-simplex of S, and expressed in the classes of
    S. Its columns are T's classes."""
    return Matrix.from_columns([s.express(p, read_at(rep, positions)) for rep in t.reps(p)], s.betti(p))


def induced_map(f, p):
    """Matrix of f^*: H^p(target) -> H^p(source) in the canonical bases, the
    class map at the positions of the images f(s) of the source's basis."""
    t, s = chain_complex(f.target), chain_complex(f.source)
    return _class_map(t, s, p, t.positions(p, [f(p, simplex) for simplex in s.basis[p]]))


# -- Mayer-Vietoris ------------------------------------------------------


@dataclass
class MayerVietoris:
    """All groups and maps of the cohomology Mayer-Vietoris sequence, plus
    an exactness certificate computed by exact rank bookkeeping: one node
    per group, in sequence order, whose rank-in is the rank of the map
    before it."""

    betti_x: tuple
    betti_a: tuple
    betti_b: tuple
    betti_ab: tuple
    alpha: dict     # p -> Matrix H^p(X) -> H^p(A) (+) H^p(B)
    beta: dict      # p -> Matrix H^p(A) (+) H^p(B) -> H^p(A cap B)
    connecting: dict  # p -> Matrix H^p(A cap B) -> H^{p+1}(X)
    nodes: list     # (node label, degree, composite_zero, rank_in, nullity_out, exact)

    def exact(self):
        return all(entry[5] for entry in self.nodes)


def mayer_vietoris(x, sub_a, sub_b):
    """Mayer-Vietoris sequence for a cover of x by two closed subcomplexes.
    alpha and beta are class maps (beta negates the B columns); each
    position list is built once per degree, and the certificate walks the
    maps in sequence order, passing each to rank once."""
    for n in x.dims():
        for s in x.nondegenerate(n):
            if s not in sub_a.get(n, ()) and s not in sub_b.get(n, ()):
                raise ParameterError(
                    "cover condition fails: simplex %r of dimension %d in neither part" % (s, n)
                )
    sub_ab = {n: sub_a.get(n, frozenset()) & sub_b.get(n, frozenset()) for n in set(sub_a) | set(sub_b)}
    c_x, c_a, c_b, c_ab = (
        chain_complex(s) for s in (x, restrict(x, sub_a), restrict(x, sub_b), restrict(x, sub_ab))
    )
    cap = x.dim_cap

    alpha = {}
    beta = {}
    for p in range(cap + 1):
        to_a, to_b = (_class_map(c_x, c, p, c_x.positions(p, c.basis[p])) for c in (c_a, c_b))
        alpha[p] = Matrix.sparse(to_a.rows + to_b.rows, to_a.ncols)
        from_a, from_b = (_class_map(c, c_ab, p, c.positions(p, c_ab.basis[p])) for c in (c_a, c_b))
        shift = from_a.ncols
        rows = [{**ra, **{shift + j: -v for j, v in rb.items()}} for ra, rb in zip(from_a.rows, from_b.rows)]
        beta[p] = Matrix.sparse(rows, shift + from_b.ncols)

    connecting = {}
    for p in range(cap):
        lift = c_ab.positions(p, c_a.basis[p])
        on_ab = c_a.positions(p + 1, c_ab.basis[p + 1])
        glue = c_a.positions(p + 1, c_x.basis[p + 1])
        cols = []
        for rep in c_ab.reps(p):
            # lift to A by zero-extension, take its coboundary, glue with 0 on B
            du = c_a.coboundary(p, read_at(rep, lift))
            if read_at(du, on_ab):
                raise StructureError("connecting cochain fails to vanish on the intersection")
            cols.append(c_x.express(p + 1, read_at(du, glue)))
        connecting[p] = Matrix.from_columns(cols, c_x.betti(p + 1))

    # 0 -> H^0(X) -> ... -> H^cap(A cap B) -> 0, one node between each pair of maps
    sequence = [Matrix.zeros(c_x.betti(0), 0)]
    for p in range(cap + 1):
        sequence += [alpha[p], beta[p], connecting[p] if p < cap else Matrix.zeros(0, c_ab.betti(cap))]
    nodes = []
    r_in = 0
    for i, (incoming, outgoing) in enumerate(zip(sequence, sequence[1:])):
        zero = (outgoing @ incoming).is_zero()
        r_out = rank(outgoing)
        nullity = outgoing.ncols - r_out
        nodes.append((("H(X)", "H(A)+H(B)", "H(AnB)")[i % 3], i // 3, zero, r_in, nullity, zero and r_in == nullity))
        r_in = r_out

    betti = lambda c: tuple(c.betti(p) for p in range(cap + 1))
    return MayerVietoris(
        betti(c_x), betti(c_a), betti(c_b), betti(c_ab),
        alpha, beta, connecting, nodes,
    )
