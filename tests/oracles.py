"""Independent oracles for the test suite.

These deliberately avoid the package's own algorithms: Smith normal form
and ranks come from sympy, integrals from scipy quadrature or sympy
symbolic integration, and counting problems from direct dynamic programs.
unnormalized_betti is the unnormalized chain complex that the normalized
one in ssetkit.homology must agree with below the cap. reference_cup walks
the front and back face of each basis simplex and reads each cochain there
by identifier, the reference for the face position tables of
ChainComplex.cup; elementwise_coboundary sums a cochain kept by identifier
over the faces of each simplex, the reference for ChainComplex.coboundary.
The dense_* functions are textbook dense Gaussian elimination over Fraction
lists of lists, the reference for the sparse engine in ssetkit.linalg.
scan_identities and scan_map_violations check the simplicial identities of
raw tables and a map's commutation one simplex and one index pair at a time,
the reference for the whole-table passes of the ssetkit.simplicial
constructors; scan_is_subcomplex checks closure one member and one index at
a time, the reference for the position reads of is_subcomplex;
scan_extra_degeneracy does
the same for the extra-degeneracy identities of ssetkit.kan. The other scan_*
functions find horns, fillers and lifts by scanning a whole dimension of the
face tables, the reference for the coface and horn-index search in
ssetkit.kan.
matrix_pullback substitutes an affine-barycentric map given as a
column-stochastic Fraction matrix into a PolyForm, the reference for the
vertex-map pullback of ssetkit.forms; coface_matrix, collapse_matrix and
vertex_map_matrix build the matrices of simplicial maps. derham_reference
builds the three truncations of de Rham cohomology from scratch, pulling
every monomial form back through matrix_pullback for every face of every
simplex; it is the reference for the tabulated, degree-filtered single
truncation in ssetkit.derham. The reference_* functions of the last section
run barycentric subdivision, its homotopy and the boundary on dicts keyed
by Fraction points, the reference for the integer point keys of
ssetkit.subdivision. orthant_restrict, orthant_inject, reference_face_extend
and reference_horn_fill extend face data in orthant coordinates and move a
horn by the vertex transposition (0 k), the reference for the retraction
kernel of ssetkit.connections. sympy_from_raw substitutes the barycentric
relation for t_0 and dt_0 symbolically, the reference for PolyForm.from_raw,
which pulls raw terms back along a face map through the pullback kernel.
reference_summed adds like terms one Fraction or QTau product at a time and
reference_integral integrates by a running sum, the references for the int
numerators over one common denominator that ssetkit.forms sums.
reference_complex is the element-wise 'sset 1' reader, with (dimension,
identifier) keys and stripped fields, which checks identifiers with
render_id itself, the reference for the one-pass reader of ssetkit.io_text.
scan_site reads a finite site's order, arrows and meets element-wise off
its objects as given, scanning every object for each meet, and its
Grothendieck topology as the literal closure over every down-set of each
object, the reference for the tables and least covering sieves
ssetkit.sheaves.FiniteSite computes once; scan_sheaf_condition tests the
sheaf condition on every matching family of every covering sieve, and
reference_plus builds P+ as the colimit of the matching families over all
covering sieves, the references for check_status and the plus construction.

triples reads a Matrix's rows as the (entries, nrows, ncols) the sympy
oracles take; counts and given read the nondegenerate simplex counts of a
set and the given faces of a horn.

The last sections hold reference constructions that the package itself
does not need. natural_maps enumerates every natural transformation of
presheaves by backtracking, is_natural and sub_to_presheaf check and build
maps and subpresheaves; they are the witnesses for the universal property
of sheafification. restrict builds the sub-simplicial-set on a closed
family of simplices as its own object, through the constructor, the
reference for chain_complex(x, sub), which reads the chain complex of that
family off x. is_isomorphism decides whether a simplicial map is an
isomorphism; cone_extra_degeneracy is the extra degeneracy of a standard
simplex, coning onto its least vertex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy.combinatorics import Permutation
from sympy.matrices.normalforms import smith_normal_form

from ssetkit.connections import LieValuedForm
from ssetkit.derham import DeRhamReport
from ssetkit.errors import CompatibilityError, ParameterError, StructureError
from ssetkit.forms import PolyForm
from ssetkit.homology import chain_complex
from ssetkit.io_text import _int_token, _RowReader, render_id
from ssetkit.kan import ExtraDegeneracy, FibrationCertificate, Horn, KanCertificate
from ssetkit.linalg import Matrix, coordinates, nullspace, quotient_reps, rank, rref
from ssetkit.sheaves import Presheaf
from ssetkit.simplicial import SimplicialSet, _kept, _lookup, is_subcomplex


def triples(matrix):
    """(entries {(i, j): value}, nrows, ncols) of a Matrix, read off its rows."""
    entries = {(i, j): v for i, row in enumerate(matrix.rows) for j, v in row.items()}
    return entries, matrix.nrows, matrix.ncols


def counts(x):
    """The number of nondegenerate simplices of x in each dimension."""
    return tuple(len(x.nondegenerate(n)) for n in x.dims())


def given(horn):
    """The (i, face) pairs of a horn, i != k."""
    return [(i, f) for i, f in enumerate(horn.faces) if i != horn.k]


def snf_diagonal(rows, nrows, ncols):
    """Nonzero Smith normal form diagonal of an integer matrix, via sympy."""
    if nrows == 0 or ncols == 0:
        return []
    m = sympy.Matrix(nrows, ncols, lambda i, j: rows.get((i, j), 0))
    s = smith_normal_form(m, domain=sympy.ZZ)
    return sorted(abs(s[i, i]) for i in range(min(nrows, ncols)) if s[i, i] != 0)


def rational_rank(rows, nrows, ncols):
    if nrows == 0 or ncols == 0:
        return 0
    m = sympy.Matrix(nrows, ncols, lambda i, j: sympy.Rational(rows.get((i, j), 0)))
    return m.rank()


def betti_from_matrices(dims, boundaries):
    """Betti numbers from boundary matrices alone: dim - rank_in - rank_out."""
    out = []
    top = len(dims) - 1
    for n in range(top + 1):
        r_out = rational_rank(*boundaries[n]) if n >= 1 else 0
        r_in = rational_rank(*boundaries[n + 1]) if n + 1 <= top else 0
        out.append(dims[n] - r_in - r_out)
    return tuple(out)


def unnormalized_betti(x):
    """Rational betti numbers of the unnormalized chain complex, whose basis
    is every stored simplex, degenerate ones included. Above the cap the
    complex is missing its incoming boundary, so only degrees below the cap
    are meaningful."""
    dims = [len(x.simplices[n]) for n in x.dims()]
    boundaries = {}
    for n in range(1, x.dim_cap + 1):
        row = {s: r for r, s in enumerate(x.simplices[n - 1])}
        entries = {}
        for j, s in enumerate(x.simplices[n]):
            for i in range(n + 1):
                key = (row[x.d(n, i, s)], j)
                entries[key] = entries.get(key, 0) + (-1) ** i
        boundaries[n] = (entries, dims[n - 1], dims[n])
    return betti_from_matrices(dims, boundaries)


def reference_cup(cx, p, arow, q, brow):
    """Alexander-Whitney cup product of two cochain rows of a ChainComplex,
    one degree-(p+q) basis simplex at a time: its front p-face and back
    q-face come from face_on, and each cochain is read on its face by
    identifier, 0 on a degenerate face. The product is a row without zero
    entries."""
    x, n = cx.x, p + q

    def value_at(m, row, simplex):
        if x.is_degenerate(m, simplex):
            return Fraction(0)
        return row.get(cx.basis[m].index(simplex), Fraction(0))

    products = (
        value_at(p, arow, x.face_on(n, s, range(p + 1))) * value_at(q, brow, x.face_on(n, s, range(p, n + 1)))
        for s in cx.basis[n]
    )
    return {k: v for k, v in enumerate(products) if v}


def elementwise_coboundary(x, p, values):
    """Simplicial coboundary of a degree-p cochain kept by identifier,
    {nondegenerate p-simplex: value}: on each nondegenerate (p+1)-simplex,
    the alternating sum over its faces, 0 on a degenerate face. The result
    is kept by identifier too, without zero values."""
    out = {}
    for s in x.nondegenerate(p + 1):
        total = Fraction(0)
        for i in range(p + 2):
            f = x.d(p + 1, i, s)
            if not x.is_degenerate(p, f):
                v = values.get(f, Fraction(0))
                total += -v if i % 2 else v
        if total:
            out[s] = total
    return out


def dense_rref(rows, ncols):
    """Reduced row echelon form of dense rows: (rows, pivot column tuple)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def dense_nullspace(rows, ncols):
    """Right kernel basis, one vector per free column, as tuples."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def dense_row_space(rows, ncols):
    red, pivots = dense_rref(rows, ncols)
    return red[: len(pivots)]


def dense_quotient_reps(space_rows, sub_rows, ncols):
    """RREF rows of the reductions of rowspace(space)'s RREF basis modulo
    rowspace(sub)'s RREF basis."""
    sub = dense_row_space(sub_rows, ncols)
    _, sub_pivots = dense_rref(sub, ncols)
    reduced = []
    for row in dense_row_space(space_rows, ncols):
        v = list(row)
        for r, pc in enumerate(sub_pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, sub[r])]
        if any(x != 0 for x in v):
            reduced.append(v)
    return [tuple(r) for r in dense_row_space(reduced, ncols)]


@lru_cache(maxsize=None)
def simplex_monomial_integral_symbolic(exps):
    """Exact integral of t_1^a_1 ... t_n^a_n over the standard simplex, by
    iterated symbolic integration."""
    n = len(exps)
    ts = sympy.symbols("t1:%d" % (n + 1), positive=True)
    expr = sympy.Integer(1)
    for t, a in zip(ts, exps):
        expr *= t ** a
    for i in range(n - 1, -1, -1):
        upper = 1 - sum(ts[:i])
        expr = sympy.integrate(expr, (ts[i], 0, upper))
    r = sympy.Rational(expr)
    return Fraction(r.p, r.q)


def triangle_quadrature(f, tol=1e-12):
    """Adaptive numerical quadrature of f(t1, t2) over the standard triangle."""
    from scipy import integrate

    val, err = integrate.dblquad(
        lambda t2, t1: f(t1, t2), 0.0, 1.0, lambda t1: 0.0, lambda t1: 1.0 - t1,
        epsabs=tol, epsrel=tol,
    )
    return val, err


def strict_chain_count(p, q, length):
    """Number of strictly increasing chains of the given length in the grid
    poset [p] x [q]; these index the nondegenerate simplices of the product
    of standard simplices."""
    points = [(a, b) for a in range(p + 1) for b in range(q + 1)]

    def less(u, v):
        return u != v and u[0] <= v[0] and u[1] <= v[1]

    count = 0
    for chain in itertools.combinations(points, length):
        ordered = sorted(chain)
        if all(less(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)):
            count += 1
    return count


def scan_identities(cap, simplices, faces, degs):
    """The simplicial identity violations of the raw tables (cap, simplices,
    faces, degs) the SimplicialSet constructor takes, one simplex and one
    index pair at a time through d(n, i, x) and s(n, i, x), each a lookup in
    a dict keyed by identifier: the order of the report is identity family,
    n, stored position of x, then j, then i."""
    by_id = {(kind, n, i): dict(zip(simplices[n], column))
             for kind, table in (("d", faces), ("s", degs)) for (n, i), column in table.items()}

    def d(n, i, x):
        return by_id[("d", n, i)][x]

    def s(n, i, x):
        return by_id[("s", n, i)][x]

    bad = []
    for n in range(2, cap + 1):
        for x in simplices[n]:
            for j in range(n + 1):
                for i in range(j):
                    if d(n - 1, i, d(n, j, x)) != d(n - 1, j - 1, d(n, i, x)):
                        bad.append(("d_i d_j = d_{j-1} d_i", n, x, (i, j)))
    for n in range(cap):
        for x in simplices[n]:
            for j in range(n + 1):
                ss = s(n, j, x)
                if d(n + 1, j, ss) != x:
                    bad.append(("d_j s_j = id", n, x, (j, j)))
                if d(n + 1, j + 1, ss) != x:
                    bad.append(("d_{j+1} s_j = id", n, x, (j + 1, j)))
    for n in range(1, cap):
        for x in simplices[n]:
            for j in range(n + 1):
                ss = s(n, j, x)
                for i in range(n + 2):
                    if i == j or i == j + 1:
                        continue
                    if i < j:
                        rhs = s(n - 1, j - 1, d(n, i, x))
                        name = "d_i s_j = s_{j-1} d_i (i<j)"
                    else:
                        rhs = s(n - 1, j, d(n, i - 1, x))
                        name = "d_i s_j = s_j d_{i-1} (i>j+1)"
                    if d(n + 1, i, ss) != rhs:
                        bad.append((name, n, x, (i, j)))
    for n in range(cap - 1):
        for x in simplices[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    if s(n + 1, i, s(n, j, x)) != s(n + 1, j + 1, s(n, i, x)):
                        bad.append(("s_i s_j = s_{j+1} s_i (i<=j)", n, x, (i, j)))
    return bad


def reference_complex(text):
    """parse_complex(text), one field and one (dimension, identifier) key at a
    time. A 'dim' row with more than a dimension, a field given twice in a
    row, a faces field on a vertex, a deg field at the cap, a row whose
    identifier render_id refuses (after the checks of its fields), a negative
    cap and a constructor refusal of the simplex of some row are refused
    naming their line; complete tables that break an identity are then
    refused with the constructor's text, from scan_identities on the rows as
    read."""
    (cap,), rows = _RowReader(text).rows("sset 1", "cap N")

    def fail(msg, ln):
        raise StructureError("line %d: %s" % (ln, msg))

    simplices = {}
    faces = {}
    degs = {}
    lines_of = {}  # (dim, id) -> line number of its row
    degen = {}  # (dim, id) -> words after 'degen'
    current = None
    for ln, line in rows:
        if line.startswith("dim "):
            current = _int_token(line.split(), 1, ln)
            if current > cap:
                fail("dimension above the cap", ln)
            if current < 0:
                fail("negative dimension", ln)
            if len(line.split()) != 2:
                fail("expected 'dim N'", ln)
            continue
        if current is None:
            fail("simplex row before any 'dim' header", ln)
        fields = [f.strip() for f in line.split("|")]
        sid = fields[0]
        if not sid:
            fail("empty identifier", ln)
        simplices.setdefault(current, []).append(sid)
        lines_of[(current, sid)] = ln
        keys = []
        for field in fields[1:]:
            if not field:
                continue
            words = field.split()
            if words[0] in keys:
                fail("repeated '%s' field" % words[0], ln)
            keys.append(words[0])
            if words[0] == "faces":
                if len(words) != current + 2:
                    fail("need %d faces" % (current + 1), ln)
                if current == 0:
                    fail("simplex %s of dimension 0 has a faces field" % sid, ln)
                faces[(current, sid)] = tuple(words[1:])
            elif words[0] == "deg":
                if len(words) != current + 2:
                    fail("need %d degeneracies" % (current + 1), ln)
                if current == cap:
                    fail("simplex %s of dimension %d, the cap, has a deg field" % (sid, current), ln)
                degs[(current, sid)] = tuple(words[1:])
            elif words[0] == "degen":
                degen[(current, sid)] = words[1:]
            else:
                fail("unknown field %r" % (words[0],), ln)
        if current >= 1 and (current, sid) not in faces:
            fail("simplex %s of dimension %d has no faces field" % (sid, current), ln)
        if current < cap and (current, sid) not in degs:
            fail("simplex %s of dimension %d has no deg field" % (sid, current), ln)
        try:
            render_id(sid)
        except ParameterError:
            fail("identifier %r cannot be serialized" % sid, ln)
    gap = 0
    while gap in simplices:
        gap += 1
    if gap <= cap:
        fail("cap %d but no simplex of dimension %d" % (cap, gap), 2)
    if cap < 0:
        fail("negative cap", 2)
    face_columns = {(n, i): [faces[(n, sid)][i] for sid in simplices[n]]
                    for n in range(1, cap + 1) for i in range(n + 1)}
    deg_columns = {(n, i): [degs[(n, sid)][i] for sid in simplices[n]] for n in range(cap) for i in range(n + 1)}
    try:
        x = SimplicialSet(cap, simplices, face_columns, deg_columns)
    except StructureError as exc:
        if hasattr(exc, "offending"):
            fail(exc, lines_of[exc.offending])
        x = None  # complete tables, refused for an identity: scanned below
    bad = scan_identities(cap, simplices, face_columns, deg_columns)
    if bad:
        raise StructureError("simplicial identities fail: " + "; ".join(str(b) for b in bad[:3]))
    assert x is not None, "tables that satisfy the identities were refused"
    for (n, sid), ln in lines_of.items():
        given = degen.get((n, sid))
        derived = x.witness.get((n, sid))
        if derived is None:
            if given is not None:
                fail("%s is not degenerate but has a degen field" % sid, ln)
        elif given is None:
            fail("degenerate simplex %s has no degen field" % sid, ln)
        elif given != [str(derived[0]), derived[1]]:
            fail("degen of %s must be '%d %s', its least degeneracy" % (sid, derived[0], derived[1]), ln)
    return x


def scan_is_subcomplex(x, sub):
    """is_subcomplex(x, sub) one member and one index at a time through x.d
    and x.s: the least member in str order, by n, that is not a simplex of
    its dimension, then the first member, by n and in the stored order of
    X_n, with a face outside sub, then the same for degeneracies; None when
    sub is closed."""
    for n in sorted(sub):
        for s in sorted(sub[n], key=str):
            if not x.has(n, s):
                return ("unknown", n, s)
    cap = x.dim_cap
    for kind, dims, step, f in (("face", range(1, cap + 1), -1, x.d), ("degeneracy", range(cap), 1, x.s)):
        for n in dims:
            for s in (s for s in x.simplices[n] if s in sub.get(n, ())):
                if any(f(n, i, s) not in sub.get(n + step, ()) for i in range(n + 1)):
                    return (kind, n, s)
    return None


def scan_map_violations(source, target, level_map):
    """SimplicialMap(source, target, level_map) one simplex at a time, on the
    raw tables: a StructureError for the first key in dimension order, at a
    dimension up to the cap, that is not a source simplex of that dimension;
    then for the first simplex, in (n, stored) order, that the map leaves
    undefined or sends to an unknown identifier; else the face, then the
    degeneracy violations in (n, stored position, i) order, the list the
    constructor refuses with ([] when it builds)."""
    cap = min(source.dim_cap, target.dim_cap)
    for n in sorted(k for k in level_map if k <= cap):
        for s in level_map[n]:
            if not source.has(n, s):
                raise StructureError("%s is not a source simplex of dimension %d" % (s, n))
    for n in range(cap + 1):
        for s in source.simplices[n]:
            if s not in level_map.get(n, {}):
                raise StructureError("map f_%d undefined on %r" % (n, s))
            if not target.has(n, level_map[n][s]):
                raise StructureError("map f_%d of %r hits unknown identifier %r" % (n, s, level_map[n][s]))

    def p(n, s):
        return level_map[n][s]

    bad = []
    for n in range(1, cap + 1):
        for s in source.simplices[n]:
            for i in range(n + 1):
                if p(n - 1, source.d(n, i, s)) != target.d(n, i, p(n, s)):
                    bad.append(("face", n, i, s))
    for n in range(cap):
        for s in source.simplices[n]:
            for i in range(n + 1):
                if p(n + 1, source.s(n, i, s)) != target.s(n, i, p(n, s)):
                    bad.append(("degeneracy", n, i, s))
    return bad


def scan_extra_degeneracy(x, extra):
    """The witness of ssetkit.kan.check_extra_degeneracy one simplex at a
    time, for a connected x with a listed base vertex: a StructureError for
    the first simplex, in (n, stored) order, that s_{-1} leaves undefined or
    sends off X_{n+1}; else the first identity violation, each simplex
    checked for d_0 s_{-1} = id and then, for each i, d_{i+1} s_{-1} =
    s_{-1} d_i and s_{i+1} s_{-1} = s_{-1} s_i; else the base check; else
    None."""
    for n in range(x.dim_cap):
        for s in x.simplices[n]:
            if s not in extra.maps[n]:
                raise StructureError("s_{-1} undefined on %r" % (s,))
            if not x.has(n + 1, extra(n, s)):
                raise StructureError("s_{-1} of %r hits unknown identifier %r" % (s, extra(n, s)))
    for n in range(x.dim_cap):
        for s in x.simplices[n]:
            img = extra(n, s)
            if x.d(n + 1, 0, img) != s:
                return ("d_0 s_{-1} = id", n, s)
            for i in range(n + 1):
                if n >= 1 and x.d(n + 1, i + 1, img) != extra(n - 1, x.d(n, i, s)):
                    return ("d_{i+1} s_{-1} = s_{-1} d_i", n, s)
                if n + 1 < x.dim_cap and x.s(n + 1, i + 1, img) != extra(n + 1, x.s(n, i, s)):
                    return ("s_{i+1} s_{-1} = s_{-1} s_i", n, s)
    if x.dim_cap >= 1 and extra(0, extra.base) != x.s(0, 0, extra.base):
        return ("s_{-1}(base) = s_0(base)", 0, extra.base)
    return None


def scan_enumerate_horns(x, n, k):
    """All (n, k)-horns of x: every position but k tries every (n-1)-simplex
    and keeps those satisfying d_i x_j = d_{j-1} x_i with every placed i < j."""
    level = x.simplices[n - 1]
    out = []
    faces = [None] * (n + 1)

    def compatible(j, cand):
        return all(
            x.d(n - 1, i, cand) == x.d(n - 1, j - 1, faces[i])
            for i in range(j)
            if i != k
        )

    def place(j):
        if j == n + 1:
            out.append(Horn(n, k, tuple(faces)))
            return
        if j == k:
            place(j + 1)
            return
        for cand in level:
            if n == 1 or compatible(j, cand):
                faces[j] = cand
                place(j + 1)
                faces[j] = None

    place(0)
    return out


def scan_fill_horn(x, horn):
    """Every n-simplex whose given faces match the horn, in stored order."""
    n = horn.n
    return [
        y
        for y in x.simplices[n]
        if all(x.d(n, i, y) == f for i, f in given(horn))
    ]


def scan_is_fibrant(x):
    counts = {}
    for n in range(1, x.dim_cap + 1):
        for k in range(n + 1):
            horns = scan_enumerate_horns(x, n, k)
            unique = 0
            for h in horns:
                fillers = scan_fill_horn(x, h)
                if not fillers:
                    return KanCertificate(x.dim_cap, False, counts, witness=h)
                if len(fillers) == 1:
                    unique += 1
            counts[(n, k)] = (len(horns), unique)
    return KanCertificate(x.dim_cap, True, counts)


def scan_is_fibration(p):
    x, y = p.source, p.target
    cap = p.dim_cap
    problems = 0
    for n in range(1, cap + 1):
        for k in range(n + 1):
            for h in scan_enumerate_horns(x, n, k):
                down = [
                    b
                    for b in y.simplices[n]
                    if all(y.d(n, i, b) == p(n - 1, f) for i, f in given(h))
                ]
                for b in down:
                    problems += 1
                    if not any(p(n, z) == b for z in scan_fill_horn(x, h)):
                        return FibrationCertificate(cap, False, problems, witness=(h, b))
    return FibrationCertificate(cap, True, problems)


# -- form coefficients summed one Fraction or QTau at a time -----------------------
# The reference for the int summation of ssetkit.forms: the summation the package
# ran before it added like terms as int numerators over one common denominator.


def reference_summed(parts):
    """The terms dict of the sum of c * v * key over the parts
    (c, ((key, v), ...)): each product formed and added in the coefficients'
    own arithmetic, zeros dropped, keys in the order they first appear."""
    acc = {}
    for c, pairs in parts:
        for key, v in pairs:
            coeff = c * v
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
    return {k: c for k, c in acc.items() if c != 0}


def reference_integral(form):
    """PolyForm.integrate as a running sum of coefficient times monomial integral."""
    total = Fraction(0)
    for (exps, _idx), coeff in form.terms.items():
        total = total + coeff * simplex_monomial_integral_symbolic(exps)
    return total


# -- raw forms: sympy substitution of the barycentric relation -------------------


def sympy_from_raw(n, p, raw_terms):
    """PolyForm.from_raw computed symbolically: t_0 = 1 - t_1 - ... - t_n is
    substituted and expanded by sympy, and dt_0 = -(dt_1 + ... + dt_n) is
    expanded multilinearly, each ordered index tuple sorted with the sign of
    its permutation. Coefficients may be Fraction or QTau."""
    t = sympy.symbols("t1:%d" % (n + 1)) if n else ()
    coords = (1 - sum(t),) + tuple(t)
    out = []
    for coeff, exps, indices in raw_terms:
        expr = sympy.expand(sympy.Mul(*(c ** a for c, a in zip(coords, exps))))
        monomials = sympy.Poly(expr, *t).terms() if n else [((), expr)]
        choices = [[(-1, j) for j in range(1, n + 1)] if i == 0 else [(1, i)] for i in indices]
        for choice in itertools.product(*choices):
            idx = [j for _, j in choice]
            if len(set(idx)) != len(idx):
                continue
            order = sorted(range(len(idx)), key=idx.__getitem__)
            sign = Permutation(order).signature() if idx else 1
            for c in choice:
                sign *= c[0]
            for mono, pc in monomials:
                out.append(((tuple(mono), tuple(sorted(idx))), coeff * (sign * int(pc))))
    return PolyForm(n, p, out)


# -- pullback along affine-barycentric matrices ----------------------------------


def _poly_mul_affine(poly, const, lin, m):
    """Multiply a polynomial dict by (const + sum lin[j] s_j)."""
    out = {}
    for exps, c in poly.items():
        if const != 0:
            out[exps] = out.get(exps, Fraction(0)) + c * const
        for j in range(m):
            if lin[j] == 0:
                continue
            e2 = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            out[e2] = out.get(e2, Fraction(0)) + c * lin[j]
    return {k: v for k, v in out.items() if v != 0}


def matrix_pullback(form, matrix):
    """Pullback of a PolyForm along an affine-barycentric map given as a
    column-stochastic matrix with nonnegative rational entries: rows index
    target barycentric coordinates, columns source ones."""
    rows = [tuple(Fraction(v) for v in r) for r in matrix]
    if len(rows) != form.n + 1:
        raise ParameterError("matrix must have n+1 rows for the target coordinates")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ParameterError("ragged matrix")
    m = width.pop() - 1
    for j in range(m + 1):
        col = [rows[i][j] for i in range(form.n + 1)]
        if sum(col) != 1:
            raise ParameterError("column %d of the substitution does not sum to 1" % j)
        if any(v < 0 for v in col):
            raise ParameterError("column %d has a negative entry" % j)
    # canonical substitution data on the source: t_i = const_i + sum lin_i[j] s_j
    const = [rows[i][0] for i in range(1, form.n + 1)]
    lin = [[rows[i][j] - rows[i][0] for j in range(1, m + 1)] for i in range(1, form.n + 1)]
    out = []
    for (exps, idx), coeff in form.terms.items():
        poly = {(0,) * m: Fraction(1)}
        for i in range(1, form.n + 1):
            for _ in range(exps[i - 1]):
                poly = _poly_mul_affine(poly, const[i - 1], lin[i - 1], m)
        wedge_terms = {(): Fraction(1)}
        for i in idx:
            new = {}
            for prev_idx, c in wedge_terms.items():
                for j in range(1, m + 1):
                    lv = lin[i - 1][j - 1]
                    if lv == 0 or j in prev_idx:
                        continue
                    # ds_j joins on the right: one sign flip per index above j
                    sign = (-1) ** sum(1 for k in prev_idx if k > j)
                    srt = tuple(sorted(prev_idx + (j,)))
                    new[srt] = new.get(srt, Fraction(0)) + c * lv * sign
            wedge_terms = {k: v for k, v in new.items() if v != 0}
        for pexps, pc in poly.items():
            for widx, wc in wedge_terms.items():
                out.append(((pexps, widx), coeff * (pc * wc)))
    return PolyForm(m, form.p, out)


def coface_matrix(n, i):
    """Matrix of the face embedding delta_i : Delta^{n-1} -> Delta^n."""
    rows = [[Fraction(0)] * n for _ in range(n + 1)]
    for j in range(n):
        rows[j if j < i else j + 1][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def collapse_matrix(n, j):
    """Matrix of the collapse sigma_j : Delta^{n+1} -> Delta^n merging t_j, t_{j+1}."""
    rows = [[Fraction(0)] * (n + 2) for _ in range(n + 1)]
    for k in range(n + 2):
        rows[k if k <= j else k - 1][k] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def vertex_map_matrix(phi, n):
    """Matrix of the simplicial map into Delta^n sending vertex j to phi[j]."""
    rows = [[Fraction(0)] * len(phi) for _ in range(n + 1)]
    for j, v in enumerate(phi):
        rows[v][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def compose_matrices(outer, inner):
    """Matrix of outer composed after inner."""
    if len(outer[0]) != len(inner):
        raise ParameterError("shape mismatch in composition")
    return tuple(
        tuple(
            sum((outer[t][k] * inner[k][s] for k in range(len(inner))), Fraction(0))
            for s in range(len(inner[0]))
        )
        for t in range(len(outer))
    )


# -- de Rham: three truncations built from scratch ------------------------------


def _reference_local_basis(m, p, degree_cap):
    exps = sorted(
        e for e in itertools.product(range(degree_cap + 1), repeat=m) if sum(e) <= degree_cap
    )
    idxs = list(itertools.combinations(range(1, m + 1), p))
    return [(e, i) for i in idxs for e in exps]


class _ReferenceTruncation:
    """Compatible-field spaces of one simplicial set at one degree cap, with
    every face constraint pulled back form by form."""

    def __init__(self, x, degree_cap):
        self.x = x
        self.cap = degree_cap
        self.simplex_list = [(n, s) for n in x.dims() for s in x.nondegenerate(n)]
        self._local = {}
        self._columns = {}
        self._kernel = {}
        self._dmat = {}

    def local_basis(self, m, p):
        if (m, p) not in self._local:
            basis = _reference_local_basis(m, p, self.cap)
            self._local[(m, p)] = (basis, {k: i for i, k in enumerate(basis)})
        return self._local[(m, p)]

    def columns(self, p):
        if p not in self._columns:
            cols = [(n, s, k) for (n, s) in self.simplex_list
                    for k in range(len(self.local_basis(n, p)[0]))]
            self._columns[p] = (cols, {c: i for i, c in enumerate(cols)})
        return self._columns[p]

    def _collapse_chain(self, n, s):
        """Nondegenerate base of a degenerate simplex and the composite collapse matrix."""
        mat = None
        dim, cur = n, s
        while self.x.is_degenerate(dim, cur):
            j, base = self.x.witness[(dim, cur)]
            step = collapse_matrix(dim - 1, j)
            mat = step if mat is None else compose_matrices(step, mat)
            dim, cur = dim - 1, base
        return dim, cur, mat

    @staticmethod
    def _form_coords(form, index, sign, row_acc, col):
        for key, c in form.terms.items():
            r = index.get(key)
            if r is None:
                raise StructureError("form leaves the truncated basis")
            row_acc.setdefault(r, {})
            row_acc[r][col] = row_acc[r].get(col, Fraction(0)) + sign * c

    def kernel(self, p):
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
                    restricted = matrix_pullback(unit, coface_matrix(n, i))
                    self._form_coords(restricted, face_index, Fraction(1), acc, col_index[(n, s, k)])
                f = self.x.d(n, i, s)
                if self.x.is_degenerate(n - 1, f):
                    bdim, base, mat = self._collapse_chain(n - 1, f)
                    base_basis, _ = self.local_basis(bdim, p)
                    for k, (exps, idx) in enumerate(base_basis):
                        unit = PolyForm(bdim, p, [((exps, idx), Fraction(1))])
                        pulled = matrix_pullback(unit, mat)
                        self._form_coords(pulled, face_index, Fraction(-1), acc, col_index[(bdim, base, k)])
                else:
                    for k in range(len(face_basis)):
                        c = col_index[(n - 1, f, k)]
                        acc.setdefault(k, {})
                        acc[k][c] = acc[k].get(c, Fraction(0)) - 1
                for r in sorted(acc):
                    rows.append({c: v for c, v in acc[r].items() if v})
        self._kernel[p] = nullspace(Matrix.sparse(rows, len(cols)))
        return self._kernel[p]

    def dim(self, p):
        return len(self.kernel(p))

    def forms_from_vector(self, p, vec):
        cols, _ = self.columns(p)
        forms = {}
        for c in sorted(vec):
            n, s, k = cols[c]
            term = PolyForm(n, p, [(self.local_basis(n, p)[0][k], vec[c])])
            forms[(n, s)] = forms.get((n, s), PolyForm.zero(n, p)) + term
        return forms

    def apply_d(self, p, vec):
        cols, _ = self.columns(p)
        _, target_index = self.columns(p + 1)
        res = {}
        for c, value in vec.items():
            n, s, k = cols[c]
            dform = PolyForm(n, p, [(self.local_basis(n, p)[0][k], Fraction(1))]).d()
            t_index = self.local_basis(n, p + 1)[1]
            for key, coeff in dform.terms.items():
                t = target_index[(n, s, t_index[key])]
                res[t] = res.get(t, 0) + value * coeff
        return {t: v for t, v in res.items() if v}

    def d_matrix(self, p):
        if p not in self._dmat:
            coords = []
            for _, vec in self.kernel(p):
                coeffs, rest = coordinates(self.apply_d(p, vec), self.kernel(p + 1))
                if rest:
                    raise StructureError("vector outside the compatible subspace")
                coords.append(coeffs)
            self._dmat[p] = Matrix.from_columns(coords, self.dim(p + 1))
        return self._dmat[p]

    def cohomology_reps(self, p):
        z_rows = [row for _, row in nullspace(self.d_matrix(p))]
        b_basis = [] if p == 0 else rref(self.d_matrix(p - 1).transpose())
        return [row for _, row in quotient_reps(z_rows, b_basis)]

    def rep_to_ambient(self, p, rep):
        vec = {}
        for k, coef in rep.items():
            if coef:
                for c, v in self.kernel(p)[k][1].items():
                    vec[c] = vec.get(c, 0) + coef * v
        return {c: v for c, v in vec.items() if v}

    def embed_ambient(self, p, vec, finer):
        cols, _ = self.columns(p)
        _, fine_index = finer.columns(p)
        out = {}
        for c, value in vec.items():
            n, s, k = cols[c]
            fk = finer.local_basis(n, p)[1][self.local_basis(n, p)[0][k]]
            out[fine_index[(n, s, fk)]] = value
        return out


def _reference_survivor_rank(coarse, fine, p, reps):
    if not reps:
        return 0
    width = len(fine.columns(p)[0])
    ambient = [coarse.embed_ambient(p, coarse.rep_to_ambient(p, r), fine) for r in reps]
    exact = [] if p == 0 else [fine.apply_d(p - 1, k) for _, k in fine.kernel(p - 1)]
    return len(quotient_reps(ambient, rref(Matrix.sparse(exact, width))))


def derham_reference(x, degree_cap):
    """DeRhamReport from stages D, D+1 and D+2 built independently: raw
    classes of stage D, their survivors in stage D+1 as ambient vectors
    modulo the exact forms there, and the same one stage up."""
    if degree_cap < 1:
        raise ParameterError("degree cap must be >= 1")
    cx = chain_complex(x)
    stage = {d: _ReferenceTruncation(x, d) for d in (degree_cap, degree_cap + 1, degree_cap + 2)}
    coarse = stage[degree_cap]
    dims, raw, betti, ranks, iso, stable = [], [], [], [], [], []
    for p in x.dims():
        dims.append(coarse.dim(p))
        reps = coarse.cohomology_reps(p)
        raw.append(len(reps))
        surv = _reference_survivor_rank(coarse, stage[degree_cap + 1], p, reps)
        betti.append(surv)
        cols = []
        for rep in reps:
            forms = coarse.forms_from_vector(p, coarse.rep_to_ambient(p, rep))
            values = {
                k: forms.get((p, s), PolyForm.zero(p, p)).integrate() for k, s in enumerate(cx.basis[p])
            }
            cols.append(cx.express(p, values))
        r = rank(Matrix.from_columns(cols, cx.betti(p)))
        ranks.append(r)
        iso.append(r == surv == cx.betti(p))
        next_reps = stage[degree_cap + 1].cohomology_reps(p)
        stable.append(
            _reference_survivor_rank(stage[degree_cap + 1], stage[degree_cap + 2], p, next_reps) == surv
        )
    return DeRhamReport(
        degree_cap, tuple(dims), tuple(raw), tuple(betti),
        tuple(cx.betti(p) for p in x.dims()), tuple(ranks), tuple(iso), tuple(stable),
    )



# -- affine chains on Fraction points -----------------------------------------------
#
# The reference for ssetkit.subdivision: the recursion on Fraction points that
# the package ran before it moved to integer point keys. A chain is a plain dict
# {points: Fraction}, points a tuple of Fraction coordinate tuples, so the point
# keys and the AffineSimplex/AffineChain classes take no part.


def reference_chain(chain):
    """The dict {points: coefficient} of an AffineChain."""
    return {s.points: c for s, c in chain.terms.items()}


def _reference_combine(pairs):
    acc = {}
    for points, coeff in pairs:
        acc[points] = acc.get(points, Fraction(0)) + coeff
    return {p: c for p, c in acc.items() if c != 0}


def reference_barycenter(points):
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


def reference_diameter_squared(points):
    best = Fraction(0)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
            if d > best:
                best = d
    return best


def reference_boundary(chain):
    return _reference_combine(
        (points[:i] + points[i + 1:], -c if i % 2 else c)
        for points, c in chain.items()
        if len(points) > 1
        for i in range(len(points))
    )


def reference_cone(vertex, chain):
    return {(vertex,) + points: c for points, c in chain.items()}


def _reference_extend(chain, simplex_map):
    return _reference_combine(
        (t, c * v) for points, c in chain.items() for t, v in simplex_map(points).items()
    )


def reference_subdivide(chain):
    """S = id in dimension 0, S(sigma) = cone_b(S(boundary sigma))."""
    memo = {}

    def sd(points):
        if points not in memo:
            if len(points) == 1:
                memo[points] = {points: Fraction(1)}
            else:
                below = _reference_extend(reference_boundary({points: Fraction(1)}), sd)
                memo[points] = reference_cone(reference_barycenter(points), below)
        return memo[points]

    return _reference_extend(chain, sd)


def reference_homotopy(chain):
    """T = 0 in dimension 0, T(sigma) = -cone_b(sigma + T(boundary sigma))."""
    memo = {}

    def t(points):
        if points not in memo:
            if len(points) == 1:
                memo[points] = {}
            else:
                inner = _reference_combine(
                    [(points, Fraction(1))]
                    + list(_reference_extend(reference_boundary({points: Fraction(1)}), t).items())
                )
                memo[points] = {q: -c for q, c in reference_cone(reference_barycenter(points), inner).items()}
        return memo[points]

    return _reference_extend(chain, t)


def reference_iterate_subdivision(points, m):
    chain = {points: Fraction(1)}
    for _ in range(m):
        chain = reference_subdivide(chain)
    return chain


def reference_iterated_diameter(points, m):
    return max(
        (reference_diameter_squared(q) for q in reference_iterate_subdivision(points, m)),
        default=Fraction(0),
    )


# -- face extension in orthant coordinates ---------------------------------------
# The reference for ssetkit.connections: the restriction and constant extension
# that the package ran before its face extension moved onto the vertex-map
# pullback. The faces {t_i = 0}, i = 1..n, of the positive orthant are the
# faces d_i of the simplex in canonical coordinates, and a horn missing d_k,
# k != 0, is moved onto them by the vertex transposition (0 k).


def orthant_restrict(form, i):
    """Restriction to the face {t_i = 0}: kill t_i and dt_i, reindex down."""
    if not 1 <= i <= form.n:
        raise ParameterError("face index out of range")
    out = []
    for (exps, idx), coeff in form.terms.items():
        if exps[i - 1] > 0 or i in idx:
            continue
        new_idx = tuple(v if v < i else v - 1 for v in idx)
        out.append(((exps[: i - 1] + exps[i:], new_idx), coeff))
    return PolyForm(form.n - 1, form.p, out)


def orthant_inject(form, i, n):
    """Constant extension in t_i of a form on the face {t_i = 0} of n variables."""
    if not 1 <= i <= n or form.n != n - 1:
        raise ParameterError("injection index out of range")
    out = []
    for (exps, idx), coeff in form.terms.items():
        new_idx = tuple(v if v < i else v + 1 for v in idx)
        out.append(((exps[: i - 1] + (0,) + exps[i - 1:], new_idx), coeff))
    return PolyForm(n, form.p, out)


def _restrict_any(form, i):
    if isinstance(form, LieValuedForm):
        return form.entrywise(lambda f: orthant_restrict(f, i), n=form.n - 1)
    return orthant_restrict(form, i)


def _inject_any(form, i, n):
    if isinstance(form, LieValuedForm):
        return form.entrywise(lambda f: orthant_inject(f, i, n), n=n)
    return orthant_inject(form, i, n)


def _reference_discrepancy(a, b):
    """First (entry, monomial key) at which a and b differ, entries in row order."""
    pairs = (
        [((i, j), f, b.entries[i][j]) for i, row in enumerate(a.entries) for j, f in enumerate(row)]
        if isinstance(a, LieValuedForm) else [(None, a, b)]
    )
    for entry, f, g in pairs:
        if f != g:
            key = min(k for k in set(f.terms) | set(g.terms) if f.terms.get(k) != g.terms.get(k))
            return key if entry is None else (entry, key)
    return None


def reference_face_extend(n, data):
    """Orthant face extension of data on faces {t_i = 0}, i in 1..n: pairs
    i < j are compared on {t_i = t_j = 0}, then each face's residual, from
    the top face down, is extended constantly in its own coordinate."""
    keys = sorted(data, reverse=True)
    for pos, j in enumerate(keys):
        for i in keys[pos + 1:]:
            rij = _restrict_any(_restrict_any(_inject_any(data[i], i, n), j), i)
            rji = _restrict_any(_restrict_any(_inject_any(data[j], j, n), j), i)
            if rij != rji:
                raise CompatibilityError("faces disagree", witness=(i, j, _reference_discrepancy(rij, rji)))
    result = None
    for i in keys:
        residual = data[i] if result is None else data[i] - _restrict_any(result, i)
        extended = _inject_any(residual, i, n)
        result = extended if result is None else result + extended
    return result


def reference_horn_fill(n, k, data):
    """Horn filling by the vertex transposition (0 k): face d_i moves to face
    d_{perm[i]}, the orthant extension fills, and the filler moves back."""
    perm = list(range(n + 1))
    perm[0], perm[k] = perm[k], perm[0]
    moved = {}
    for i in data:
        # perm is an involution, so vertex v of face perm[i] comes from vertex
        # perm[v] of face i.
        face_i = [v for v in range(n + 1) if v != i]
        moved[perm[i]] = data[i].pullback(face_i.index(perm[v]) for v in range(n + 1) if v != perm[i])
    return reference_face_extend(n, moved).pullback(perm)


# -- finite sites, element by element ---------------------------------------------


def _level(sub, n):
    return sub.get(n, frozenset())


def scan_sub_leq(a, b):
    return all(_level(a, n) <= _level(b, n) for n in set(a) | set(b))


def scan_sub_eq(a, b):
    return scan_sub_leq(a, b) and scan_sub_leq(b, a)


def scan_sub_union(subs):
    out = {}
    for sub in subs:
        out = {n: _level(out, n) | _level(sub, n) for n in set(out) | set(sub)}
    return out


def scan_site(objects, covers):
    """The names, order, arrows, meets and Grothendieck topology of the site
    on objects (dict name -> dict dim -> set, an absent dimension empty)
    with covers, each meet found by scanning every object. Every down-set
    of the objects below U is listed, and ref["J"][U] is the set of those
    that cover U: the closure, element by element, of the maximal
    sieves and the sieves generated by the declared covers under pullback
    (R in J(U), V <= U gives R cut down to V in J(V)) and transitivity (a
    sieve T on U is in J(U) when some R in J(U) has T cut down to each V in
    R in J(V))."""
    names = sorted(objects, key=str)
    leq = {(a, b): scan_sub_leq(objects[a], objects[b]) for a in names for b in names}
    arrows = tuple((a, b) for a in names for b in names if a != b and leq[(b, a)])
    meet = {}
    for a in names:
        for b in names:
            inter = {n: _level(objects[a], n) & _level(objects[b], n) for n in set(objects[a]) | set(objects[b])}
            meet[(a, b)] = next((c for c in names if scan_sub_eq(objects[c], inter)), None)
    below = {u: [v for v in names if leq[(v, u)]] for u in names}
    sieves = {
        u: [
            frozenset(c)
            for k in range(len(below[u]) + 1)
            for c in itertools.combinations(below[u], k)
            if all(w in c for v in c for w in below[v])
        ]
        for u in names
    }

    def cut(sieve, v):
        return frozenset(w for w in sieve if leq[(w, v)])

    J = {u: {frozenset(below[u])} for u in names}
    for u, fams in covers.items():
        for fam in fams:
            J[u].add(frozenset(v for v in below[u] if any(leq[(v, m)] for m in fam)))
    changed = True
    while changed:
        changed = False
        for u in names:
            for r in list(J[u]):
                for v in below[u]:
                    if cut(r, v) not in J[v]:
                        J[v].add(cut(r, v))
                        changed = True
            for t in sieves[u]:
                if t in J[u]:
                    continue
                local = {v for v in below[u] if cut(t, v) in J[v]}
                if any(r <= local for r in J[u]):
                    J[u].add(t)
                    changed = True
    return {"objects": objects, "names": names, "leq": leq, "arrows": arrows, "meet": meet, "below": below, "J": J}


def scan_matching_families(presheaf, ref, sieve):
    """Every matching family on sieve: a section x_V of each member V with
    x_V restricting to x_W for each member W <= V. Each is a tuple of
    (member, section) pairs in name order, built member by member, larger
    objects first."""
    leq, res = ref["leq"], presheaf.res
    order = sorted(sieve, key=lambda v: (-sum(len(m) for m in ref["objects"][v].values()), str(v)))
    out = []

    def extend(i, family):
        if i == len(order):
            out.append(tuple(sorted(family.items(), key=lambda item: str(item[0]))))
            return
        v = order[i]
        for s in presheaf.sections[v]:
            if all(res[(w, v)][x] == s for w, x in family.items() if leq[(v, w)]) and all(
                res[(v, w)][s] == x for w, x in family.items() if leq[(w, v)]
            ):
                family[v] = s
                extend(i + 1, family)
                del family[v]

    extend(0, {})
    return out


def reference_plus(presheaf, ref):
    """P+ as the colimit over the covering sieves: for each object U, the
    classes of the data (R, family) for every R in ref["J"][U] and every
    matching family on R, two data equivalent when the sieve of the members
    of both on which they agree is in ref["J"][U], closed transitively.
    Returns {U: list of classes, each a list of data}."""
    out = {}
    for u in ref["names"]:
        data = [(r, fam) for r in ref["J"][u] for fam in scan_matching_families(presheaf, ref, r)]

        def agree(d1, d2, u=u):
            values = dict(d2[1])
            return frozenset(v for v, x in d1[1] if v in values and values[v] == x) in ref["J"][u]

        out[u] = list({id(cls): cls for cls in _classes(data, agree).values()}.values())
    return out


def reference_plus_restrict(ref, datum, v):
    """The datum (R, family) pulled back along v <= U: R and family cut
    down to the members below v."""
    r, family = datum
    return frozenset(w for w in r if ref["leq"][(w, v)]), tuple((w, x) for w, x in family if ref["leq"][(w, v)])


def reference_plus_unit(presheaf, ref, u, s):
    """The unit P -> P+ at u: s as the family of its restrictions on the
    maximal sieve of u."""
    below = ref["below"][u]
    return frozenset(below), tuple(sorted(((v, presheaf.res[(u, v)][s]) for v in below), key=lambda i: str(i[0])))


def scan_sheaf_condition(presheaf, ref):
    """(separated, sheaf) tested on every matching family of every sieve in
    ref["J"]: each has at most one gluing when separated, exactly one when a
    sheaf."""
    counts = [
        sum(all(presheaf.res[(u, v)][s] == x for v, x in fam) for s in presheaf.sections[u])
        for u in ref["names"]
        for r in ref["J"][u]
        for fam in scan_matching_families(presheaf, ref, r)
    ]
    return all(c <= 1 for c in counts), all(c == 1 for c in counts)


def _classes(items, agree):
    """Each item mapped to the list of its class under the transitive
    closure of the symmetric relation agree."""
    classes = []
    for item in items:
        joined = [cls for cls in classes if any(agree(item, other) for other in cls)]
        classes = [cls for cls in classes if cls not in joined]
        classes.append([x for cls in joined for x in cls] + [item])
    return {x: cls for cls in classes for x in cls}


# -- maps of presheaves ------------------------------------------------------------


def natural_maps(source, target):
    """Exhaustive enumeration of natural transformations source -> target.

    Backtracking over (object, section) pairs with eager propagation: fixing
    an image forces the images of all restrictions, so conflicts surface as
    early as possible.
    """
    site = source.site
    names = site.names()
    below = {a: [] for a in names}
    for a, b in site.arrows():
        below[a].append(b)
    order = sorted(names, key=lambda n: (-len(below[n]), str(n)))
    items = [(n, s) for n in order for s in source.sections[n]]
    out = []
    _extend_maps(source, target, below, names, items, 0, {}, out)
    return out


def _extend_maps(source, target, below, names, items, i, assignment, out):
    """Append to out every natural map that extends assignment, which fixes
    the images of items[:i] and of every restriction of them."""
    while i < len(items) and items[i] in assignment:
        i += 1
    if i == len(items):
        out.append({n: {s: assignment[(n, s)] for s in source.sections[n]} for n in names})
        return
    key = items[i]
    for v in target.sections[key[0]]:
        trail = []
        if _assign(source, target, below, assignment, key, v, trail):
            _extend_maps(source, target, below, names, items, i + 1, assignment, out)
        for k in trail:
            del assignment[k]


def _assign(source, target, below, assignment, key, value, trail):
    """Fix key -> value and every image it forces along restrictions,
    recording each new key in trail; False on a conflict."""
    stack = [(key, value)]
    while stack:
        k, v = stack.pop()
        if k in assignment:
            if assignment[k] != v:
                return False
            continue
        assignment[k] = v
        trail.append(k)
        a, s = k
        for b in below[a]:
            stack.append(((b, source.restrict(a, b, s)), target.res[(a, b)][v]))
    return True


def is_natural(source, target, maps):
    site = source.site
    for a, b in site.arrows():
        for s in source.sections[a]:
            if maps[b][source.restrict(a, b, s)] != target.res[(a, b)][maps[a][s]]:
                return False
    return True


def sub_to_presheaf(ambient, sub_sections):
    """A subpresheaf of a sheaf as a standalone Presheaf."""
    site = ambient.site
    restrictions = {
        (a, b): {s: ambient.restrict(a, b, s) for s in sub_sections[a]}
        for a, b in site.arrows()
    }
    return Presheaf(site, sub_sections, restrictions)


# -- subcomplexes, simplicial maps and extra degeneracies ----------------------------


def restrict(x, sub):
    """The sub-simplicial-set on a closed family of simplices, as its own
    object: the simplices of x in sub, in x's stored order, and their
    tables, built (and scanned) by the SimplicialSet constructor."""
    offending = is_subcomplex(x, sub)
    if offending is not None:
        raise StructureError("not closed under structure maps: %r" % (offending,))
    keep = {n: sorted(set(_lookup(x._index[n], tuple(sub.get(n, ()))))) for n in x.dims()}
    return SimplicialSet(x.dim_cap, *_kept(x, keep))


def is_isomorphism(f):
    """Equal caps and in every dimension as many distinct images as X_n
    and Y_n have simplices (the checked tables are total, into Y_n)."""
    return f.source.dim_cap == f.target.dim_cap and all(
        len(set(image)) == len(f.source.simplices[n]) == len(f.target.simplices[n])
        for n, image in f._image.items()
    )


def cone_extra_degeneracy(x, apex_value=0):
    """Extra degeneracy for tuple-identified complexes coning onto a least vertex.

    Works for the standard simplex models where prepending the apex to a
    vertex tuple is again a simplex."""
    if not all(isinstance(s, tuple) for n in range(x.dim_cap) for s in x.simplices[n]):
        raise ParameterError("cone construction needs tuple identifiers")
    maps = {n: {s: (apex_value,) + s for s in x.simplices[n]} for n in range(x.dim_cap)}
    return ExtraDegeneracy(x, maps, (apex_value,))

