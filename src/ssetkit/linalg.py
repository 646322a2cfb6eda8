"""Exact sparse linear algebra over the integers and the rationals.

A Matrix is an explicit shape plus one dict per row mapping column index to
a nonzero int or Fraction. Boundary matrices are sparse with entries +-1, and
the rational systems of the de Rham complex are sparse too, so work is
proportional to the nonzeros touched rather than to the shape.

There is one elimination engine for rational work: sparse Gauss-Jordan
elimination that takes the columns left to right and, in each column, the
shortest candidate row as pivot. The reduced row echelon form is unique, so
the pivot choice changes the cost but not the result: rank, nullspace,
coordinates, canonical row spaces and quotient representatives are the same
as textbook dense elimination gives. Integer entries stay Python ints until a
non-unit pivot forces a Fraction. Every reduced basis the engine returns is a
list of (pivot column, row) pairs, the list elimination builds: an RREF with
its pivots, a nullspace with its free columns, quotient representatives with
their pivots. coordinates reads a row off any of them, so this module alone
decides pivots and free columns.

Integer Smith normal form works on the same sparse rows throughout. It first
removes unit (+-1) pivots, cheapest fill-in first (the reduction-pair step of
Kaczynski-Mrozek-Slusarek, 1998), then runs Euclidean row and column steps
on the small remainder with arbitrary-precision integers (compare
Dumas-Saunders-Villard, JSC 2001).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

_ONE = Fraction(1)


class Matrix:
    """Immutable sparse matrix with an explicit shape.

    rows holds one dict per row, column index -> nonzero int or Fraction. The
    explicit shape matters because boundary matrices of empty degrees are
    routinely 0 x k or k x 0.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        """A matrix from dense rows (sequences of numbers)."""
        rows = [list(r) for r in rows]
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            found = widths.pop()
            if ncols is not None and ncols != found:
                raise ValueError("declared ncols=%d but rows have %d" % (ncols, found))
            ncols = found
        elif ncols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        self.rows = tuple({j: v for j, v in enumerate(r) if v} for r in rows)
        self.nrows = len(self.rows)
        self.ncols = int(ncols)

    @classmethod
    def sparse(cls, rows, ncols):
        """A matrix from dict rows (column -> nonzero value), taken as given."""
        m = cls.__new__(cls)
        m.rows = tuple(rows)
        m.nrows = len(m.rows)
        m.ncols = ncols
        return m

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls.sparse([{} for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, columns, nrows):
        """A matrix from dense columns of length nrows."""
        rows = [{} for _ in range(nrows)]
        ncols = 0
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise ValueError("column %d has length %d, expected %d" % (j, len(col), nrows))
            for i, v in enumerate(col):
                if v:
                    rows[i][j] = v
            ncols = j + 1
        return cls.sparse(rows, ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, 0)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)

    def is_zero(self):
        return not any(self.rows)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return Matrix.sparse(cols, self.nrows)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        out = []
        for row in self.rows:
            acc = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return Matrix.sparse(out, other.ncols)

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(v * vec[j] for j, v in row.items() if vec[j]) for row in self.rows)


def _subtract(target, f, source):
    """target -= f * source, in place, dropping entries that cancel."""
    for j, x in source.items():
        y = target.get(j, 0) - f * x
        if y:
            target[j] = y
        else:
            del target[j]


def _echelon(rows):
    """Sparse Gauss-Jordan elimination of dict rows.

    Returns the reduced row echelon basis of the row space as (pivot column,
    row) pairs in increasing pivot order; each row has 1 at its pivot and
    0 at every other pivot column. The input rows are not modified.
    """
    active = {i: dict(r) for i, r in enumerate(rows) if r}
    where = {}  # column -> ids of active rows with an entry there
    for i, row in active.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    # Fill-in only lands in columns some pivot row already has, so the
    # columns present now are every column elimination will visit.
    basis = []
    for c in sorted(where):
        candidates = where[c]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(active[i]), i))
        prow = active.pop(p)
        for j in prow:
            where[j].discard(p)
        v = prow[c]
        if v == -1:
            prow = {j: -x for j, x in prow.items()}
        elif v != 1:
            inv = _ONE / v
            prow = {j: x * inv for j, x in prow.items()}
        for i in list(candidates):
            row = active[i]
            f = row[c]
            for j, x in prow.items():
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    where[j].add(i)
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        where[j].discard(i)
            if not row:
                del active[i]
        basis.append((c, prow))
    # Back substitution, last pivot first: clear each pivot column above its
    # row. Rows are in echelon form, so only earlier rows hold a later pivot
    # column, and subtracting a finished row adds no pivot-column entries.
    pivots = {c for c, _ in basis}
    above = {}
    for k, (c, row) in enumerate(basis):
        for j in row:
            if j != c and j in pivots:
                above.setdefault(j, []).append(k)
    for c, prow in reversed(basis):
        for k in above.get(c, ()):
            row = basis[k][1]
            _subtract(row, row[c], prow)
    return basis


def _reduce(row, basis):
    """Coefficients and remainder of a dict row modulo an echelon basis."""
    rest = dict(row)
    coeffs = []
    for c, brow in basis:
        f = rest.get(c, 0)
        coeffs.append(f)
        if f:
            _subtract(rest, f, brow)
    return coeffs, rest


def rref(matrix):
    """Reduced row echelon form: the nonzero rows as (pivot column, row) pairs."""
    return _echelon(matrix.rows)


def rank(matrix):
    return len(_echelon(matrix.rows))


def nullspace(matrix):
    """Basis of the right kernel as (free column, row) pairs, in column order.

    Each row is 1 at its free column, 0 at every other free column, and its
    other entries sit at pivot columns to the left of its free column.
    """
    basis = _echelon(matrix.rows)
    pivots = {c for c, _ in basis}
    vectors = {fc: {fc: 1} for fc in range(matrix.ncols) if fc not in pivots}
    for c, row in basis:
        for j, v in row.items():
            if j != c:
                vectors[j][c] = -v
    return list(vectors.items())


def quotient_reps(space_rows, sub):
    """Canonical representatives of rowspace(space) / span(sub).

    space_rows are dict rows spanning the space; sub is a reduced basis, as
    rref returns it. Representatives are the RREF, as (pivot column, row)
    pairs, of the reductions of the RREF rows of space modulo sub, so they
    are deterministic and vanish at the pivots of sub. They span a complement
    of sub in space + sub, so their number is dim(space + sub) - dim(sub) even
    when sub is not contained in space.
    """
    reduced = []
    for _, row in _echelon(space_rows):
        _, rest = _reduce(row, sub)
        if rest:
            reduced.append(rest)
    return _echelon(reduced)


def coordinates(row, basis):
    """Coefficients of a dict row in a reduced basis, and the remainder.

    basis is a list of (pivot column, row) pairs, each row 1 at its pivot and
    0 at the pivots of the rows before it: an RREF, a nullspace, or a basis
    followed by representatives that vanish at its pivots. Returns (tuple of
    coefficients, one per basis row, each an int or a Fraction; remainder as
    a dict row). The remainder is empty exactly when the row lies in the
    span of the basis.
    """
    coeffs, rest = _reduce(row, basis)
    return tuple(coeffs), rest


def _integer(v):
    if type(v) is int:
        return v
    if v.denominator != 1:
        raise ValueError("Smith normal form needs integer entries, got %s" % v)
    return int(v)


def invariant_factors(matrix):
    """Nonzero diagonal of the Smith normal form of an integer Matrix.

    Returned sorted so that each entry divides the next. The length of the
    result is the rank (over Z and over Q); entries > 1 are the torsion
    coefficients when the matrix presents a quotient of free abelian groups.

    Unit pivots go first, each chosen by the smallest fill-in bound
    (row nonzeros - 1) * (column nonzeros - 1); a unit pivot splits off an
    invariant factor 1 and leaves its Schur complement. Euclidean row and
    column steps then reduce the rows left in place, each round about the
    entry of least absolute value, and a gcd/lcm pass puts the diagonal they
    give into divisibility order.
    """
    rows = {}
    where = {}  # column -> ids of live rows with an entry there
    for i, row in enumerate(matrix.rows):
        if row:
            rows[i] = {j: _integer(v) for j, v in row.items()}
            for j in row:
                where.setdefault(j, set()).add(i)
    heap = [
        ((len(row) - 1) * (len(where[j]) - 1), i, j)
        for i, row in rows.items()
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        prow = rows.get(i)
        if prow is None or prow.get(j) not in (1, -1):
            continue
        now = (len(prow) - 1) * (len(where[j]) - 1)
        if now != cost:
            # Rows and columns changed since this entry was queued (new
            # units are queued at cost 0): queue it again at its true cost.
            heapq.heappush(heap, (now, i, j))
            continue
        del rows[i]
        for k in prow:
            where[k].discard(i)
        u = prow[j]
        for r in list(where[j]):
            row = rows[r]
            f = row[j] * u
            for k, x in prow.items():
                y = row.get(k)
                if y is None:
                    row[k] = y = -f * x
                    where[k].add(r)
                else:
                    y -= f * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
                        where[k].discard(r)
                        continue
                if y == 1 or y == -1:
                    heapq.heappush(heap, (0, r, k))
            if not row:
                del rows[r]
        units += 1
    # Euclidean steps on the rows left, which hold no unit, about the entry v
    # of least absolute value. Every round that records nothing leaves a
    # nonzero entry smaller than |v|, so the least absolute value falls and
    # the loop ends.
    diag = []
    while rows:
        _, i, j = min((abs(x), r, c) for r, row in rows.items() for c, x in row.items())
        prow = rows[i]
        v = prow[j]
        for r in list(where[j]):
            if r != i:
                _snf_step(rows, where, r, rows[r][j] // v, prow)
        if len(where[j]) > 1:
            continue
        # Column j holds only the pivot row, so a column step touches only
        # that row: it takes each other entry modulo v.
        _snf_step(rows, where, i, 1, {k: x - x % v for k, x in prow.items() if k != j})
        if len(prow) == 1:
            diag.append(abs(v))
            del rows[i]
            where[j].discard(i)
    # pairwise divisibility fix
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return [1] * units + diag


def _snf_step(rows, where, r, f, source):
    """rows[r] -= f * source, keeping where in step; an emptied row leaves."""
    row = rows[r]
    _subtract(row, f, source)
    for k in source:
        (where[k].add if k in row else where[k].discard)(r)
    if not row:
        del rows[r]
