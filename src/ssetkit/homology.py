"""Chain complexes, integral and rational (co)homology, cup products,
and the Mayer-Vietoris long exact sequence with mechanical exactness checks.

Chains are normalized: degenerate simplices are quotiented away. One
integer Smith normal form per boundary gives both its rank (over Z and
over Q) and the torsion. Rational cochains are the rows linalg eliminates:
{basis position: nonzero value} over the basis of the same integer complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError, StructureError
from .linalg import Matrix, coordinates, invariant_factors, nullspace, quotient_reps, rank, rref
from .simplicial import restrict


class ChainComplex:
    """Graded free module with integer boundary matrices, for integer and
    rational coefficients alike; index[n] maps each basis element to its position."""

    def __init__(self, basis, boundary):
        self._store(basis, boundary)
        self._check_square_zero()

    @classmethod
    def _of_simplicial_set(cls, basis, boundary):
        """The complex of a simplicial set: its constructor refused any
        table that breaks a simplicial identity, so d^2 = 0 holds and is not
        multiplied out."""
        complex_ = cls.__new__(cls)
        complex_._store(basis, boundary)
        return complex_

    def _store(self, basis, boundary):
        self.basis = {n: tuple(b) for n, b in basis.items()}
        self.index = {n: {s: i for i, s in enumerate(b)} for n, b in self.basis.items()}
        self.top = max(self.basis) if self.basis else 0
        self.boundary = dict(boundary)
        for n in range(1, self.top + 1):
            m = self.boundary.get(n)
            expected = (len(self.basis.get(n - 1, ())), len(self.basis.get(n, ())))
            if m is None or (m.nrows, m.ncols) != expected:
                raise StructureError("boundary matrix missing or misshaped in degree %d" % n)
        self._factors = {}

    def _check_square_zero(self):
        for n in range(2, self.top + 1):
            if not (self.boundary[n - 1] @ self.boundary[n]).is_zero():
                raise StructureError("boundary squared nonzero in degree %d" % n)

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


def chain_complex(x):
    """Normalized chain complex of a simplicial set: the basis is the
    nondegenerate simplices, the boundary is the alternating face sum, and
    faces landing on degenerate simplices are dropped.
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
    return ChainComplex._of_simplicial_set(basis, boundary)


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


class CochainSpaces:
    """Per-degree cocycle/coboundary data of a simplicial set over Q. A
    degree-p cochain is a sparse row {basis position: nonzero value} over
    basis[p] of its one (integer) chain complex, the row type of linalg; a
    degenerate simplex has no position, so every cochain is 0 there."""

    def __init__(self, x):
        self.x = x
        self.complex = chain_complex(x)
        self.basis = self.complex.basis
        self._classes = {}
        self._faces = {}

    def positions(self, p, simplices):
        """The basis position of each p-simplex, None for a degenerate one
        (or one not in the set): read_at reads a cochain row there."""
        index = self.complex.index[p]
        return [index.get(s) for s in simplices]

    def cocycle_rows(self, p):
        """The kernel of the coboundary, the transpose of the boundary."""
        return nullspace(self.complex.boundary_or_zero(p + 1).transpose())

    def coboundary_rows(self, p):
        """Coboundaries of the basis (p-1)-cochains, one per row."""
        return self.complex.boundary_or_zero(p)

    def coboundary(self, p, row):
        """The coboundary of a degree-p cochain row: the row times boundary(p+1)."""
        (out,) = (Matrix.sparse([row], self.complex.dim(p)) @ self.complex.boundary_or_zero(p + 1)).rows
        return out

    def _class_bases(self, p):
        """Degree-p class representatives, then the reduced bases express()
        works with: representatives and their pivots, RREF coboundaries and
        their pivots."""
        if p not in self._classes:
            coboundaries, cob_pivots = rref(self.coboundary_rows(p))
            reps = quotient_reps(self.cocycle_rows(p), coboundaries)
            rep_basis = Matrix.sparse(reps, self.complex.dim(p))
            self._classes[p] = (reps, rep_basis, [min(row) for row in reps], coboundaries, cob_pivots)
        return self._classes[p]

    def reps(self, p):
        """Canonical cohomology class representatives (RREF rows, reduced mod coboundaries)."""
        return self._class_bases(p)[0]

    def betti(self, p):
        return len(self.reps(p))

    def express(self, p, row):
        """Coordinates of a cocycle's class in the canonical representative
        basis. The coboundaries and the representatives together span exactly
        the cocycles, so a remainder means row is not a cocycle; a key off
        the basis is no pivot of either and stays in the remainder."""
        _, rep_basis, rep_pivots, coboundaries, cob_pivots = self._class_bases(p)
        # Representatives vanish at the coboundary pivots, so removing the
        # coboundary part first leaves the class coordinates at the
        # representatives' own pivots.
        _, rest = coordinates({j: v for j, v in row.items() if v}, coboundaries, cob_pivots)
        coords, rest = coordinates(rest, rep_basis, rep_pivots)
        if rest:
            raise ParameterError("vector is not a cocycle in degree %d" % p)
        return coords

    def cup(self, p, arow, q, brow):
        """Alexander-Whitney cup product of cochain rows, front face times
        back face, on the basis simplices where both factors are nonzero."""
        n = p + q
        if n > self.x.dim_cap:
            raise ParameterError("cup product degree exceeds the cap")
        if (p, q) not in self._faces:  # the front and back faces of basis[n]
            x, basis = self.x, self.basis[n]
            self._faces[(p, q)] = (
                self.positions(p, [x.face_on(n, s, range(p + 1)) for s in basis]),
                self.positions(q, [x.face_on(n, s, range(p, n + 1)) for s in basis]),
            )
        front, back = self._faces[(p, q)]
        return {k: arow[i] * brow[j] for k, (i, j) in enumerate(zip(front, back)) if arow.get(i) and brow.get(j)}


@dataclass
class CohomologyRing:
    """Cohomology basis per degree plus the cup product table on basis
    classes, kept for degrees p <= q (product gives the rest)."""

    x: object
    spaces: CochainSpaces
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
    spaces = CochainSpaces(x)
    reps = {p: spaces.reps(p) for p in x.dims()}
    ring = CohomologyRing(x, spaces, reps)
    cap = x.dim_cap
    for p in x.dims():
        for i, a in enumerate(reps[p]):
            for q in range(p, cap - p + 1):
                for j, b in enumerate(reps[q]):
                    prod = spaces.cup(p, a, q, b)
                    ring.table[(p, i, q, j)] = spaces.express(p + q, prod)
    return ring


def unit_class_coords(ring):
    """Coordinates of the constant-1 cocycle in degree 0."""
    return ring.spaces.express(0, dict.fromkeys(range(len(ring.spaces.basis[0])), 1))


def _class_map(ts, ss, p, positions):
    """Matrix of H^p(T) -> H^p(S) in the canonical bases, T and S given by
    their cochain spaces: each class representative of T is read at
    positions, one per basis p-simplex of S, and expressed in the classes of
    S. Its columns are T's classes."""
    return Matrix.from_columns([ss.express(p, read_at(rep, positions)) for rep in ts.reps(p)], ss.betti(p))


def induced_map(f, p, target_spaces=None, source_spaces=None):
    """Matrix of f^*: H^p(target) -> H^p(source) in the canonical bases, the
    class map at the positions of the images f(s) of the source's basis."""
    ts = target_spaces if target_spaces is not None else CochainSpaces(f.target)
    ss = source_spaces if source_spaces is not None else CochainSpaces(f.source)
    if ts.x is not f.target or ss.x is not f.source:
        raise ParameterError("cochain spaces not built on the map's target and source")
    return _class_map(ts, ss, p, ts.positions(p, [f(p, s) for s in ss.basis[p]]))


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
    sp_x, sp_a, sp_b, sp_ab = (
        CochainSpaces(s) for s in (x, restrict(x, sub_a), restrict(x, sub_b), restrict(x, sub_ab))
    )
    cap = x.dim_cap

    alpha = {}
    beta = {}
    for p in range(cap + 1):
        to_a, to_b = (_class_map(sp_x, sp, p, sp_x.positions(p, sp.basis[p])) for sp in (sp_a, sp_b))
        alpha[p] = Matrix.sparse(to_a.rows + to_b.rows, to_a.ncols)
        from_a, from_b = (_class_map(sp, sp_ab, p, sp.positions(p, sp_ab.basis[p])) for sp in (sp_a, sp_b))
        shift = from_a.ncols
        rows = [{**ra, **{shift + j: -v for j, v in rb.items()}} for ra, rb in zip(from_a.rows, from_b.rows)]
        beta[p] = Matrix.sparse(rows, shift + from_b.ncols)

    connecting = {}
    for p in range(cap):
        lift = sp_ab.positions(p, sp_a.basis[p])
        on_ab = sp_a.positions(p + 1, sp_ab.basis[p + 1])
        glue = sp_a.positions(p + 1, sp_x.basis[p + 1])
        cols = []
        for rep in sp_ab.reps(p):
            # lift to A by zero-extension, take its coboundary, glue with 0 on B
            du = sp_a.coboundary(p, read_at(rep, lift))
            if read_at(du, on_ab):
                raise StructureError("connecting cochain fails to vanish on the intersection")
            cols.append(sp_x.express(p + 1, read_at(du, glue)))
        connecting[p] = Matrix.from_columns(cols, sp_x.betti(p + 1))

    # 0 -> H^0(X) -> ... -> H^cap(A cap B) -> 0, one node between each pair of maps
    sequence = [Matrix.zeros(sp_x.betti(0), 0)]
    for p in range(cap + 1):
        sequence += [alpha[p], beta[p], connecting[p] if p < cap else Matrix.zeros(0, sp_ab.betti(cap))]
    nodes = []
    r_in = 0
    for i, (incoming, outgoing) in enumerate(zip(sequence, sequence[1:])):
        zero = (outgoing @ incoming).is_zero()
        r_out = rank(outgoing)
        nullity = outgoing.ncols - r_out
        nodes.append((("H(X)", "H(A)+H(B)", "H(AnB)")[i % 3], i // 3, zero, r_in, nullity, zero and r_in == nullity))
        r_in = r_out

    betti = lambda sp: tuple(sp.betti(p) for p in range(cap + 1))
    return MayerVietoris(
        betti(sp_x), betti(sp_a), betti(sp_b), betti(sp_ab),
        alpha, beta, connecting, nodes,
    )
