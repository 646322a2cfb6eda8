"""Barycentric subdivision S and its chain homotopy T on affine chains.

Chains are formal rational combinations of affine simplices with exact
rational vertex coordinates, the setting where the subdivision identities
can be asserted term by term. The cone operator prepends its vertex, so

    boundary(cone_b(c)) = c - cone_b(boundary(c))        (dim c >= 1)

and with S(sigma) = cone_b(S(boundary sigma)) the operator S is a chain map.
T is normalized so that boundary T + T boundary = S - id exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError


class AffineSimplex:
    """Ordered tuple of points with exact rational coordinates.

    Degenerate geometric configurations are allowed; affine singular
    simplices need not be embeddings.
    """

    __slots__ = ("points", "_hashes", "_hash")

    def __init__(self, points):
        pts = tuple(tuple(Fraction(c) for c in p) for p in points)
        if not pts:
            raise ParameterError("a simplex needs at least one vertex")
        if len({len(p) for p in pts}) != 1:
            raise ParameterError("vertices live in different ambient spaces")
        self.points = pts
        self._hashes = tuple(map(hash, pts))
        self._hash = hash(self._hashes)

    @classmethod
    def _make(cls, pts, hashes):
        # Fraction hashing is costly, so a simplex keeps its per-point hashes
        # and faces and cones reuse them instead of rehashing coordinates.
        obj = cls.__new__(cls)
        obj.points = pts
        obj._hashes = hashes
        obj._hash = hash(hashes)
        return obj

    @property
    def dimension(self):
        return len(self.points) - 1

    def barycenter(self):
        n = len(self.points)
        return tuple(sum(p[i] for p in self.points) / n for i in range(len(self.points[0])))

    def face(self, i):
        return AffineSimplex._make(self.points[:i] + self.points[i + 1:], self._hashes[:i] + self._hashes[i + 1:])

    def diameter_squared(self):
        best = Fraction(0)
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                d = sum((a - b) ** 2 for a, b in zip(self.points[i], self.points[j]))
                if d > best:
                    best = d
        return best

    def __eq__(self, other):
        return isinstance(other, AffineSimplex) and self.points == other.points

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "AffineSimplex(%r)" % (self.points,)


class AffineChain:
    """Formal rational combination of equal-dimension affine simplices.

    Like terms are combined and zero terms dropped on construction.
    """

    __slots__ = ("terms", "dimension")

    def __init__(self, terms=(), dimension=None):
        acc = {}
        for simplex, coeff in (terms.items() if isinstance(terms, dict) else terms):
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
    def of(cls, simplex, coeff=1):
        return cls([(simplex, Fraction(coeff))])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        dim = self.dimension if self.dimension is not None else other.dimension
        return AffineChain(list(self.terms.items()) + list(other.terms.items()), dim)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return AffineChain({s: v * c for s, v in self.terms.items()}, self.dimension)

    def __eq__(self, other):
        return isinstance(other, AffineChain) and self.terms == other.terms

    def map_terms(self, fn):
        """Linear extension of a simplex-to-chain map."""
        out = []
        for s, c in self.terms.items():
            for t, v in fn(s).terms.items():
                out.append((t, c * v))
        return AffineChain(out)

    def __repr__(self):
        return "AffineChain(%d terms, dim %s)" % (len(self.terms), self.dimension)


def boundary(chain):
    """Alternating sum of vertex deletions, extended linearly."""
    out = []
    for s, c in chain.terms.items():
        if s.dimension == 0:
            continue
        for i in range(s.dimension + 1):
            out.append((s.face(i), -c if i % 2 else c))
    dim = chain.dimension - 1 if chain.dimension not in (None, 0) else None
    return AffineChain(out, dim)


def cone(vertex, chain):
    """Prepend the cone vertex to each simplex, extended linearly."""
    head = (hash(vertex),)
    return AffineChain(
        [(AffineSimplex._make((vertex,) + s.points, head + s._hashes), c) for s, c in chain.terms.items()],
        None if chain.dimension is None else chain.dimension + 1,
    )


def subdivide(chain):
    """Barycentric subdivision: S = id in dimension 0, else the cone recursion
    S(sigma) = cone_b(S(boundary sigma)) over the barycenter b."""
    memo = {}
    return chain.map_terms(lambda s: _subdivide_simplex(s, memo))


def _subdivide_simplex(s, memo):
    got = memo.get(s)
    if got is not None:
        return got
    if s.dimension == 0:
        got = AffineChain.of(s)
    else:
        parts = []
        for i in range(s.dimension + 1):
            sub = _subdivide_simplex(s.face(i), memo)
            sign = -1 if i % 2 else 1
            for t, c in sub.terms.items():
                parts.append((t, sign * c))
        got = cone(s.barycenter(), AffineChain(parts, s.dimension - 1))
    memo[s] = got
    return got


def homotopy(chain):
    """Chain homotopy T with boundary T + T boundary = S - id, T = 0 in dim 0.

    T(sigma) = -cone_b(sigma + T(boundary sigma)); the sign makes the stated
    identity come out as S - id rather than id - S.
    """
    memo = {}
    return chain.map_terms(lambda s: _homotopy_simplex(s, memo))


def _homotopy_simplex(s, memo):
    got = memo.get(s)
    if got is not None:
        return got
    if s.dimension == 0:
        got = AffineChain((), 1)
    else:
        acc = [(s, Fraction(-1))]
        for i in range(s.dimension + 1):
            sub = _homotopy_simplex(s.face(i), memo)
            sign = 1 if i % 2 else -1
            for t, c in sub.terms.items():
                acc.append((t, sign * c))
        got = cone(s.barycenter(), AffineChain(acc, s.dimension))
    memo[s] = got
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
