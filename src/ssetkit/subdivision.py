"""Barycentric subdivision S and its chain homotopy T on affine chains.

Chains are formal rational combinations of affine simplices with exact
rational vertex coordinates, the setting where the subdivision identities
can be asserted term by term. The cone operator prepends its vertex, so

    boundary(cone_b(c)) = c - cone_b(boundary(c))        (dim c >= 1)

and with S(sigma) = cone_b(S(boundary sigma)) the operator S is a chain map.
T is normalized so that boundary T + T boundary = S - id exactly.

A simplex is stored as its key, a tuple of integer points: the point with
coordinates a_1/d, ..., a_k/d (d > 0, gcd(d, a_1, ..., a_k) = 1) is the tuple
(d, a_1, ..., a_k). Equal points have equal keys, so simplices hash and
compare as int tuples. Every coefficient of S(sigma), T(sigma) and of a
boundary is an integer, so the operators run on keys with int coefficients
and scale by the input chain's Fraction coefficients once, over their common
denominator.
"""

from __future__ import annotations

from fractions import Fraction
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

    @property
    def dimension(self):
        return len(self.key) - 1

    def barycenter(self):
        return _point(_barycenter_key(self.key))

    def face(self, i):
        return AffineSimplex._of_key(self.key[:i] + self.key[i + 1:])

    def diameter_squared(self):
        # |p/d - q/e|^2 = sum (p_i e - q_i d)^2 / (d e)^2, compared crosswise
        best_num, best_den = 0, 1
        key = self.key
        for i, p in enumerate(key):
            d = p[0]
            for q in key[i + 1:]:
                e = q[0]
                num = sum((a * e - b * d) ** 2 for a, b in zip(p[1:], q[1:]))
                den = (d * e) ** 2
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
        return Fraction(best_num, best_den)

    def __eq__(self, other):
        return isinstance(other, AffineSimplex) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "AffineSimplex(%r)" % (self.points,)


class AffineChain:
    """Formal rational combination of equal-dimension affine simplices.

    Coefficients are converted to Fraction, like terms are combined and zero
    terms dropped on construction.
    """

    __slots__ = ("terms", "dimension")

    def __init__(self, terms=(), dimension=None):
        acc = {}
        for simplex, coeff in (terms.items() if isinstance(terms, dict) else terms):
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            prev = acc.get(simplex)
            acc[simplex] = coeff if prev is None else prev + coeff
        self.terms = {s: c for s, c in acc.items() if c != 0}
        dims = {s.dimension for s in self.terms}
        if len(dims) > 1:
            raise ParameterError("mixed dimensions in one chain")
        if dims:
            self.dimension = dims.pop()
        else:
            self.dimension = dimension

    @classmethod
    def _of_terms(cls, terms, dimension):
        # terms: nonzero Fraction coefficients on simplices of one dimension
        obj = cls.__new__(cls)
        obj.terms = terms
        obj.dimension = next(iter(terms)).dimension if terms else dimension
        return obj

    @classmethod
    def of(cls, simplex, coeff=1):
        return cls([(simplex, coeff)])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        dim = self.dimension if self.dimension is not None else other.dimension
        if self.terms and other.terms and self.dimension != other.dimension:
            raise ParameterError("mixed dimensions in one chain")
        parts = [(c, ((s.key, 1),)) for s, c in self.terms.items()]
        parts += [(c, ((s.key, sign),)) for s, c in other.terms.items()]
        return _collect(parts, dim)

    def scale(self, c):
        c = Fraction(c)
        terms = {s: v * c for s, v in self.terms.items()} if c else {}
        return AffineChain._of_terms(terms, self.dimension)

    def __eq__(self, other):
        return isinstance(other, AffineChain) and self.terms == other.terms

    def __repr__(self):
        return "AffineChain(%d terms, dim %s)" % (len(self.terms), self.dimension)


def _collect(parts, dimension):
    """The chain sum of c * v * t over parts (c, ((t, v), ...)), with Fraction c,
    int v and keys t; like terms add in int arithmetic over the common
    denominator of the c."""
    den = lcm(*(c.denominator for c, _ in parts))
    acc = {}
    for c, pairs in parts:
        m = c.numerator * (den // c.denominator)
        for t, v in pairs:
            acc[t] = acc.get(t, 0) + m * v
    # the coefficients take few values (S and T give +-1), and building a
    # Fraction costs more than looking one up
    coeffs = {}
    terms = {}
    for t, v in acc.items():
        if v:
            c = coeffs.get(v)
            if c is None:
                c = coeffs[v] = Fraction(v, den)
            terms[AffineSimplex._of_key(t)] = c
    return AffineChain._of_terms(terms, dimension)


def _faces(key):
    return [(key[:i] + key[i + 1:], -1 if i % 2 else 1) for i in range(len(key))]


def boundary(chain):
    """Alternating sum of vertex deletions, extended linearly."""
    parts = [(c, _faces(s.key)) for s, c in chain.terms.items() if s.dimension]
    dim = chain.dimension - 1 if chain.dimension not in (None, 0) else None
    return _collect(parts, dim)


def cone(vertex, chain):
    """Prepend the cone vertex to each simplex, extended linearly."""
    head = (_point_key(vertex),)
    for s in chain.terms:
        if len(s.key[0]) != len(head[0]):
            raise ParameterError("cone vertex and chain live in different ambient spaces")
    return AffineChain._of_terms(
        {AffineSimplex._of_key(head + s.key): c for s, c in chain.terms.items()},
        None if chain.dimension is None else chain.dimension + 1,
    )


def subdivide(chain):
    """Barycentric subdivision: S = id in dimension 0, else the cone recursion
    S(sigma) = cone_b(S(boundary sigma)) over the barycenter b."""
    memo = {}
    return _collect([(c, _subdivide_key(s.key, memo).items()) for s, c in chain.terms.items()], None)


def _subdivide_key(key, memo):
    got = memo.get(key)
    if got is None:
        if len(key) == 1:
            got = {key: 1}
        else:
            acc = {}
            for face, sign in _faces(key):
                for t, c in _subdivide_key(face, memo).items():
                    acc[t] = acc.get(t, 0) + sign * c
            head = (_barycenter_key(key),)
            got = {head + t: c for t, c in acc.items() if c}
        memo[key] = got
    return got


def homotopy(chain):
    """Chain homotopy T with boundary T + T boundary = S - id, T = 0 in dim 0.

    T(sigma) = -cone_b(sigma + T(boundary sigma)); the sign makes the stated
    identity come out as S - id rather than id - S.
    """
    memo = {}
    return _collect([(c, _homotopy_key(s.key, memo).items()) for s, c in chain.terms.items()], None)


def _homotopy_key(key, memo):
    got = memo.get(key)
    if got is None:
        got = {}
        if len(key) > 1:
            acc = {key: -1}
            for face, sign in _faces(key):
                for t, c in _homotopy_key(face, memo).items():
                    acc[t] = acc.get(t, 0) - sign * c
            head = (_barycenter_key(key),)
            got = {head + t: c for t, c in acc.items() if c}
        memo[key] = got
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
    best = Fraction(0)
    for s in chain.terms:
        d = s.diameter_squared()
        if d > best:
            best = d
    return best


def standard_affine_simplex(n):
    """Vertices of the standard n-simplex in R^n (origin plus unit points)."""
    pts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        pts.append(tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)))
    return AffineSimplex(pts)
