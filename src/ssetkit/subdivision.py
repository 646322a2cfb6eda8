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
compare as int tuples.

A chain is kept the same way: an int numerator on each simplex key over one
positive denominator, the numerators and denominator with gcd 1, so equal
chains are equal dicts with equal denominators. Every coefficient of
S(sigma), T(sigma) and of a boundary is an integer, so +, -, scale,
boundary, cone, subdivide and homotopy all add like terms in int arithmetic
over one denominator, through one private collector; no AffineSimplex or
Fraction is built for an intermediate chain. AffineChain.terms, the chain
as {AffineSimplex: Fraction}, is derived on its first read and kept.
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
    terms dropped on construction. The chain is kept as int numerators on
    point keys over one positive denominator, with gcd 1, so equal chains
    have equal numerators and denominators; terms, {AffineSimplex: Fraction},
    is derived on first read and kept.
    """

    __slots__ = ("_num", "_den", "dimension", "_terms")

    def __init__(self, terms=(), dimension=None):
        terms = [(s, Fraction(c)) for s, c in (terms.items() if isinstance(terms, dict) else terms)]
        den = lcm(*(c.denominator for _, c in terms))
        chain = _collect(den, ((s.key, c.numerator * (den // c.denominator)) for s, c in terms), dimension)
        if len({len(key) for key in chain._num}) > 1:
            raise ParameterError("mixed dimensions in one chain")
        self._num, self._den, self.dimension, self._terms = chain._num, chain._den, chain.dimension, None

    @classmethod
    def of(cls, simplex, coeff=1):
        return cls([(simplex, coeff)])

    @property
    def terms(self):
        if self._terms is None:
            # the coefficients take few values (S and T give +-1), and building
            # a Fraction costs more than looking one up
            coeffs = {}
            terms = {}
            for key, v in self._num.items():
                c = coeffs.get(v)
                if c is None:
                    c = coeffs[v] = Fraction(v, self._den)
                terms[AffineSimplex._of_key(key)] = c
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
        pairs = [(key, v * a) for key, v in self._num.items()]
        pairs += [(key, v * b) for key, v in other._num.items()]
        return _collect(den, pairs, dim)

    def scale(self, c):
        c = Fraction(c)
        return _collect(self._den * c.denominator,
                        ((key, v * c.numerator) for key, v in self._num.items()), self.dimension)

    def __eq__(self, other):
        return isinstance(other, AffineChain) and self._num == other._num and self._den == other._den

    def __repr__(self):
        return "AffineChain(%d terms, dim %s)" % (len(self._num), self.dimension)


def _collect(den, pairs, dimension):
    """The chain sum of v/den * t over the pairs (t, v), with int v and point
    keys t: like terms add in int arithmetic, zeros drop, and the numerators
    and den are divided by their gcd. The dimension is the terms', or the
    given one for the zero chain."""
    acc = {}
    for t, v in pairs:
        acc[t] = acc.get(t, 0) + v
    num = {t: v for t, v in acc.items() if v}
    g = gcd(den, *num.values())
    if g > 1:
        num = {t: v // g for t, v in num.items()}
    chain = AffineChain.__new__(AffineChain)
    chain._num = num
    chain._den = den // g
    chain.dimension = len(next(iter(num))) - 1 if num else dimension
    chain._terms = None
    return chain


def _faces(key):
    return [(key[:i] + key[i + 1:], -1 if i % 2 else 1) for i in range(len(key))]


def boundary(chain):
    """Alternating sum of vertex deletions, extended linearly."""
    pairs = ((f, v * sign) for key, v in chain._num.items() if len(key) > 1 for f, sign in _faces(key))
    dim = chain.dimension - 1 if chain.dimension not in (None, 0) else None
    return _collect(chain._den, pairs, dim)


def cone(vertex, chain):
    """Prepend the cone vertex to each simplex, extended linearly."""
    head = (_point_key(vertex),)
    for key in chain._num:
        if len(key[0]) != len(head[0]):
            raise ParameterError("cone vertex and chain live in different ambient spaces")
    return _collect(chain._den, ((head + key, v) for key, v in chain._num.items()),
                    None if chain.dimension is None else chain.dimension + 1)


def subdivide(chain):
    """Barycentric subdivision: S = id in dimension 0, else the cone recursion
    S(sigma) = cone_b(S(boundary sigma)) over the barycenter b."""
    memo = {}
    return _collect(chain._den, ((t, v * c) for key, v in chain._num.items()
                                 for t, c in _subdivide_key(key, memo).items()), None)


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
    return _collect(chain._den, ((t, v * c) for key, v in chain._num.items()
                                 for t, c in _homotopy_key(key, memo).items()), None)


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
