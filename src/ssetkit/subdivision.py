"""Barycentric subdivision S and its chain homotopy T on affine chains.

Chains are formal rational combinations of affine simplices with exact
rational vertex coordinates, the setting where the subdivision identities
can be asserted term by term. The cone operator prepends its vertex, so

    boundary(cone_b(c)) = c - cone_b(boundary(c))        (dim c >= 1)

and with S(sigma) = cone_b(S(boundary sigma)) the operator S is a chain map.
T is normalized so that boundary T + T boundary = S - id exactly.

A point is stored as its key, a tuple of integers: the point with
coordinates a_1/d, ..., a_k/d (d > 0, gcd(d, a_1, ..., a_k) = 1) is the
tuple (d, a_1, ..., a_k), so equal points have equal keys. An AffineSimplex
is the tuple of its point keys.

A chain numbers its points in a vertex table: an append-only list of point
keys with an index from key to id. Every chain derived from a chain by
boundary, cone, subdivide, homotopy, +, - or scale shares its table, so a
simplex of a chain is a tuple of small int ids, and equal simplices of one
table have equal id tuples. The table also keeps what the operators derive
from an id tuple: the id of its barycenter, and its S and T, so that
subdivide(boundary(c)) reads the faces that subdivide(c) already ran, and
iterated_diameter measures each distinct id pair of S^m(sigma) once. A
chain built from terms gets a fresh table; +, - and == between chains on
different tables re-index one side.

A chain's coefficients are int numerators on id tuples over one positive
denominator, the numerators and denominator with gcd 1, so equal chains on
one table are equal dicts with equal denominators. Every coefficient of
S(sigma), T(sigma) and of a boundary is an integer, so all the operators add
like terms in int arithmetic over one denominator, through one private
collector; no AffineSimplex or Fraction is built for an intermediate chain.
AffineChain.terms, the chain as {AffineSimplex: Fraction}, is derived on its
first read and kept.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import ParameterError


def _point_key(coords):
    """The key (d, a_1, ..., a_k) of the point with coordinates a_i/d."""
    coords = [Fraction(c) for c in coords]
    d = lcm(*(c.denominator for c in coords))
    return (d,) + tuple(c.numerator * (d // c.denominator) for c in coords)


def _point(p):
    """The Fraction coordinates of the point with key p."""
    d = p[0]
    return tuple(Fraction(a, d) for a in p[1:])


def _diameter_squared(pairs):
    """The largest |p - q|^2 over the pairs (p, q) of point keys, 0 for none."""
    # |p/d - q/e|^2 = sum (p_i e - q_i d)^2 / (d e)^2, compared crosswise
    best_num, best_den = 0, 1
    for p, q in pairs:
        d, e = p[0], q[0]
        num = sum((a * e - b * d) ** 2 for a, b in zip(p[1:], q[1:]))
        den = (d * e) ** 2
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def _barycenter_key(key):
    den = lcm(*(p[0] for p in key))
    scaled = [[(den // p[0]) * a for a in p[1:]] for p in key]
    sums = [sum(col) for col in zip(*scaled)]
    total = den * len(key)
    g = gcd(total, *sums)
    return (total // g,) + tuple(v // g for v in sums)


class AffineSimplex:
    """Ordered tuple of points with exact rational coordinates.

    Degenerate geometric configurations are allowed; affine singular
    simplices need not be embeddings. The simplex stores only its integer
    point key (see the module docstring); its Fraction points are derived.
    """

    __slots__ = ("key",)

    def __init__(self, points):
        key = tuple(_point_key(p) for p in points)
        if not key:
            raise ParameterError("a simplex needs at least one vertex")
        if len({len(p) for p in key}) != 1:
            raise ParameterError("vertices live in different ambient spaces")
        self.key = key

    @classmethod
    def _of_key(cls, key):
        obj = cls.__new__(cls)
        obj.key = key
        return obj

    @property
    def points(self):
        return tuple(_point(p) for p in self.key)

    def barycenter(self):
        return _point(_barycenter_key(self.key))

    def diameter_squared(self):
        return _diameter_squared(combinations(self.key, 2))

    def __eq__(self, other):
        return isinstance(other, AffineSimplex) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "AffineSimplex(%r)" % (self.points,)


class _VertexTable:
    """The point keys of a family of chains, each under an int id.

    Append-only: an id names its point for the life of the table, so the
    chains that share a table key their simplices by id tuples, and the
    barycenter, S and T of an id tuple are computed once per table.
    """

    __slots__ = ("points", "ids", "barycenters", "subdivisions", "homotopies")

    def __init__(self):
        self.points = []  # id -> point key
        self.ids = {}  # point key -> id
        self.barycenters = {}  # id tuple -> id of its barycenter
        self.subdivisions = {}  # id tuple -> S of it, {id tuple: int}
        self.homotopies = {}  # id tuple -> T of it, {id tuple: int}

    def id(self, point):
        i = self.ids.get(point)
        if i is None:
            i = self.ids[point] = len(self.points)
            self.points.append(point)
        return i

    def barycenter(self, ids):
        b = self.barycenters.get(ids)
        if b is None:
            b = self.barycenters[ids] = self.id(_barycenter_key([self.points[i] for i in ids]))
        return b

    def reindex(self, chain):
        """The (id tuple, numerator) pairs of chain on this table, which
        takes in the points of chain it lacks."""
        if chain._table is self:
            return chain._num.items()
        points = chain._table.points
        return [(tuple(self.id(points[i]) for i in ids), v) for ids, v in chain._num.items()]


class AffineChain:
    """Formal rational combination of equal-dimension affine simplices.

    Coefficients are converted to Fraction, like terms are combined and zero
    terms dropped on construction. The chain is kept as int numerators on
    id tuples of its vertex table over one positive denominator, with gcd 1
    (see the module docstring); terms, {AffineSimplex: Fraction}, is derived
    on first read and kept.
    """

    __slots__ = ("_table", "_num", "_den", "dimension", "_terms")

    def __init__(self, terms=(), dimension=None):
        terms = [(s, Fraction(c)) for s, c in (terms.items() if isinstance(terms, dict) else terms)]
        den = lcm(*(c.denominator for _, c in terms))
        table = _VertexTable()
        pairs = ((tuple(map(table.id, s.key)), c.numerator * (den // c.denominator)) for s, c in terms)
        chain = _collect(table, den, pairs, dimension)
        if len({len(ids) for ids in chain._num}) > 1:
            raise ParameterError("mixed dimensions in one chain")
        self._table, self._num, self._den = table, chain._num, chain._den
        self.dimension, self._terms = chain.dimension, None

    @classmethod
    def of(cls, simplex, coeff=1):
        return cls([(simplex, coeff)])

    @property
    def terms(self):
        if self._terms is None:
            # the coefficients take few values (S and T give +-1), and building
            # a Fraction costs more than looking one up
            points = self._table.points
            coeffs = {}
            terms = {}
            for ids, v in self._num.items():
                c = coeffs.get(v)
                if c is None:
                    c = coeffs[v] = Fraction(v, self._den)
                terms[AffineSimplex._of_key(tuple([points[i] for i in ids]))] = c
            self._terms = terms
        return self._terms

    def is_zero(self):
        return not self._num

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        dim = self.dimension if self.dimension is not None else other.dimension
        if self._num and other._num and self.dimension != other.dimension:
            raise ParameterError("mixed dimensions in one chain")
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        pairs = [(ids, v * a) for ids, v in self._num.items()]
        pairs += [(ids, v * b) for ids, v in self._table.reindex(other)]
        return _collect(self._table, den, pairs, dim)

    def scale(self, c):
        c = Fraction(c)
        return _collect(self._table, self._den * c.denominator,
                        ((ids, v * c.numerator) for ids, v in self._num.items()), self.dimension)

    def __eq__(self, other):
        if not isinstance(other, AffineChain) or self._den != other._den or len(self._num) != len(other._num):
            return False
        if self._table is other._table:
            return self._num == other._num
        # other's id tuples read on this table; a point this table lacks
        # reads None, which no term of self has
        ids, points, num = self._table.ids, other._table.points, self._num
        return all(num.get(tuple([ids.get(points[i]) for i in key])) == v for key, v in other._num.items())

    def __repr__(self):
        return "AffineChain(%d terms, dim %s)" % (len(self._num), self.dimension)


def _collect(table, den, pairs, dimension):
    """The chain on table summing v/den * t over the pairs (t, v), with int v
    and id tuples t: like terms add in int arithmetic, zeros drop, and the
    numerators and den are divided by their gcd. The dimension is the
    terms', or the given one for the zero chain."""
    acc = {}
    for t, v in pairs:
        acc[t] = acc.get(t, 0) + v
    num = {t: v for t, v in acc.items() if v}
    g = gcd(den, *num.values())
    if g > 1:
        num = {t: v // g for t, v in num.items()}
    chain = AffineChain.__new__(AffineChain)
    chain._table = table
    chain._num = num
    chain._den = den // g
    chain.dimension = len(next(iter(num))) - 1 if num else dimension
    chain._terms = None
    return chain


def _faces(ids):
    return [(ids[:i] + ids[i + 1:], -1 if i % 2 else 1) for i in range(len(ids))]


def boundary(chain):
    """Alternating sum of vertex deletions, extended linearly."""
    pairs = ((f, v * sign) for ids, v in chain._num.items() if len(ids) > 1 for f, sign in _faces(ids))
    dim = chain.dimension - 1 if chain.dimension not in (None, 0) else None
    return _collect(chain._table, chain._den, pairs, dim)


def cone(vertex, chain):
    """Prepend the cone vertex to each simplex, extended linearly."""
    table = chain._table
    point = _point_key(vertex)
    for ids in chain._num:
        if len(table.points[ids[0]]) != len(point):
            raise ParameterError("cone vertex and chain live in different ambient spaces")
    head = (table.id(point),)
    return _collect(table, chain._den, ((head + ids, v) for ids, v in chain._num.items()),
                    None if chain.dimension is None else chain.dimension + 1)


def subdivide(chain):
    """Barycentric subdivision: S = id in dimension 0, else the cone recursion
    S(sigma) = cone_b(S(boundary sigma)) over the barycenter b."""
    table = chain._table
    return _collect(table, chain._den, ((t, v * c) for ids, v in chain._num.items()
                                        for t, c in _subdivide_ids(table, ids).items()), chain.dimension)


def _subdivide_ids(table, ids):
    got = table.subdivisions.get(ids)
    if got is None:
        if len(ids) == 1:
            got = {ids: 1}
        else:
            acc = {}
            for face, sign in _faces(ids):
                for t, c in _subdivide_ids(table, face).items():
                    acc[t] = acc.get(t, 0) + sign * c
            head = (table.barycenter(ids),)
            got = {head + t: c for t, c in acc.items() if c}
        table.subdivisions[ids] = got
    return got


def homotopy(chain):
    """Chain homotopy T with boundary T + T boundary = S - id, T = 0 in dim 0.

    T(sigma) = -cone_b(sigma + T(boundary sigma)); the sign makes the stated
    identity come out as S - id rather than id - S.
    """
    table = chain._table
    return _collect(table, chain._den, ((t, v * c) for ids, v in chain._num.items()
                                        for t, c in _homotopy_ids(table, ids).items()),
                    None if chain.dimension is None else chain.dimension + 1)


def _homotopy_ids(table, ids):
    got = table.homotopies.get(ids)
    if got is None:
        got = {}
        if len(ids) > 1:
            acc = {ids: -1}
            for face, sign in _faces(ids):
                for t, c in _homotopy_ids(table, face).items():
                    acc[t] = acc.get(t, 0) - sign * c
            head = (table.barycenter(ids),)
            got = {head + t: c for t, c in acc.items() if c}
        table.homotopies[ids] = got
    return got


def iterate_subdivision(simplex, m):
    """The chain S^m(sigma)."""
    if m < 0:
        raise ParameterError("iteration count must be >= 0")
    chain = AffineChain.of(simplex)
    for _ in range(m):
        chain = subdivide(chain)
    return chain


def iterated_diameter(simplex, m):
    """Maximum vertex-pair distance squared over the simplices of S^m(sigma)."""
    chain = iterate_subdivision(simplex, m)
    points = chain._table.points
    pairs = {pair for ids in chain._num for pair in combinations(ids, 2)}
    return _diameter_squared((points[i], points[j]) for i, j in pairs)


def standard_affine_simplex(n):
    """Vertices of the standard n-simplex in R^n (origin plus unit points)."""
    pts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        pts.append(tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)))
    return AffineSimplex(pts)
