"""Polynomial differential forms in barycentric coordinates.

A PolyForm lives on the standard n-simplex. Its canonical representation
eliminates t_0 and dt_0 through

    t_0 = 1 - t_1 - ... - t_n,      dt_0 = -(dt_1 + ... + dt_n),

leaving rational-coefficient polynomials in t_1..t_n against strictly
increasing wedge monomials dt_{i_1} ^ ... ^ dt_{i_p}.

Pullback goes along simplicial maps Delta^m -> Delta^n, the face and
degeneracy maps and their composites, given by their vertex maps: a tuple
phi of length m+1 with phi[j] in 0..n the image of vertex j. Such a map
sends t_k to the sum of the source coordinates over the vertices sent to k,
so each monomial form pulls back to int coefficients. One private kernel
computes them, one monomial at a time, and is memoized for the process:
a bounded least-recently-used cache keyed by (exponents, wedge indices,
vertex map) holds each result as an immutable tuple of (key, int) pairs,
and each vertex map's affine images are computed once. PolyForm.pullback
scales the results by its coefficients and ssetkit.derham tabulates them on
its local bases, through the same cache.

The elimination of t_0 and dt_0 is that kernel too. The face delta_0 :
Delta^n -> Delta^(n+1), vertex map (1, ..., n+1), pulls the coordinates
u_1, ..., u_(n+1) of Delta^(n+1) back to t_0, ..., t_n, and the kernel
writes every pullback with t_0 and dt_0 eliminated. So PolyForm.from_raw
reads a term in t_0..t_n as a monomial form in u_1..u_(n+1) and pulls it
back along delta_0.

Integration over the simplex is exact through the monomial rule

    int_{Delta^n} t_1^{a_1} ... t_n^{a_n} dt_1 ... dt_n
        = (prod a_j!) / (n + sum a_j)!

with the standard coordinate orientation of (t_1, ..., t_n). Faces carry
the sign (-1)^i of the boundary operator, which is exactly what makes the
Stokes identity (and hence the integration comparison map) hold with no
correction factors.

A coefficient is an int, a Fraction or a QTau (q + m*tau, tau a formal
unit standing for 2*pi), which the operations accept wherever they stay
linear in it; anything else, a float included, is a ParameterError. Every
form is summed by one private collector from parts (c, ((key, v), ...)):
a coefficient c and the int outputs v of a kernel, or c and one pair
(key, +-1). The keys must be canonical; it checks only the kind of c. The
collector writes each c over the common denominator of the parts, a QTau
as its q and m parts, and adds c * v as int numerators, so a Fraction is
built at most once per output term, and not at all where a part's own
Fraction has the value (a merge or a scale). A key's coefficient is a
QTau exactly when a QTau contributed to it, so 2+0*tau stays a QTau; every
other coefficient is a Fraction. pullback, d, from_raw, scale, + and -, wedge and whitney
build their forms through it, and so does the public constructor
PolyForm(n, p, terms), after it has checked each key's arity and index
order where terms enter from outside. integrate sums the coefficients
times the monomial integrals the same way, over the common denominator
of the products.

Integration over the p-simplices (derham_map) and the Whitney forms
(whitney) go between form fields and cochains. A cochain is the one row
type of ssetkit.homology, {position in x.nondegenerate(p): value}, whose
positions are the basis of the chain complex; a degenerate simplex has no
position, so a cochain is 0 there.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from functools import lru_cache

from .errors import CompatibilityError, ParameterError


class QTau:
    """Exact scalar q + m*tau with rational q, m; tau is a formal unit.

    Products of two tau-carrying scalars are refused: nothing in the package
    needs tau^2 and allowing it would silently change the ring.
    """

    __slots__ = ("q", "m")

    def __init__(self, q=0, m=0):
        self.q = Fraction(q)
        self.m = Fraction(m)

    def __add__(self, other):
        other = _as_qtau(other)
        return QTau(self.q + other.q, self.m + other.m)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qtau(other)
        return QTau(self.q - other.q, self.m - other.m)

    def __rsub__(self, other):
        return _as_qtau(other) - self

    def __neg__(self):
        return QTau(-self.q, -self.m)

    def __mul__(self, other):
        if isinstance(other, QTau):
            if self.m != 0 and other.m != 0:
                raise ArithmeticError("tau * tau is outside the scalar ring")
            return QTau(self.q * other.q, self.q * other.m + self.m * other.q)
        return QTau(self.q * other, self.m * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QTau):
            if other.m != 0:
                raise ArithmeticError("division by a tau-carrying scalar")
            other = other.q
        return QTau(self.q / other, self.m / other)

    def __eq__(self, other):
        if not isinstance(other, (QTau, numbers.Real)):
            return NotImplemented
        other = _as_qtau(other)
        return self.q == other.q and self.m == other.m

    def __hash__(self):
        # Equal to a real number when m == 0, so it must hash like one.
        return hash(self.q) if self.m == 0 else hash((self.q, self.m))

    def __repr__(self):
        return "QTau(%s, %s)" % (self.q, self.m)


def _as_qtau(value):
    if isinstance(value, QTau):
        return value
    return QTau(Fraction(value), 0)


TAU = QTau(0, 1)

# The coefficients a form accepts: ints and Fractions, and QTau.
_RATIONALS = (int, Fraction)
_SCALARS = _RATIONALS + (QTau,)

# Entries kept by each memoized kernel below. A Stokes suite meets about
# 1300 distinct monomial pullbacks however many trials it runs; the de Rham
# tables keep their own rows, so a large truncation only cycles through.
_KERNEL_CACHE = 4096


@lru_cache(maxsize=_KERNEL_CACHE)
def _monomial_integral(exps):
    """int_{Delta^n} t_1^{a_1} ... t_n^{a_n} dt_1 ... dt_n for exps = (a_1, ..., a_n)."""
    return Fraction(math.prod(math.factorial(a) for a in exps), math.factorial(len(exps) + sum(exps)))


class PolyForm:
    """Canonical polynomial differential form on the standard n-simplex."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=()):
        """The form with the given (key, coeff) terms, a dict or an iterable
        of pairs; each key (exps, idx) with a nonzero coefficient must have
        len(exps) == n and idx strictly increasing in 1..n, with len(idx) == p."""
        self.n = int(n)
        self.p = int(p)
        parts = []
        for (exps, idx), coeff in (terms.items() if isinstance(terms, dict) else terms):
            # a zero is skipped with its key unchecked; any other kind of
            # coefficient goes on to _collect, which refuses it
            if isinstance(coeff, _SCALARS) and coeff == 0:
                continue
            key = (tuple(exps), tuple(idx))
            if len(key[0]) != self.n or len(key[1]) != self.p:
                raise ParameterError("term arity does not match the form's type")
            if any(key[1][i] >= key[1][i + 1] for i in range(len(key[1]) - 1)) or any(
                not 1 <= i <= self.n for i in key[1]
            ):
                raise ParameterError("wedge indices must be strictly increasing in 1..n")
            parts.append((coeff, ((key, 1),)))
        self.terms = _collect(self.n, self.p, parts).terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n, p):
        return cls(n, p)

    @classmethod
    def constant(cls, n, c):
        return cls(n, 0, [(((0,) * n, ()), c)])

    @classmethod
    def from_raw(cls, n, p, raw_terms):
        """Build a form from terms that may still mention t_0 and dt_0.

        Each raw term is (coeff, exps, indices) with exps of length n+1
        (slot 0 is the t_0 exponent) and indices over 0..n, in any order;
        a repeated index makes the term vanish. The term is pulled back
        along the face delta_0 (see the module docstring), which expands
        t_0 and dt_0 and sorts the indices with their sign. Degrees p > n
        canonicalize to the zero form; that is valid output, not an error.
        An index outside 0..n is a ParameterError.
        """
        n, p = int(n), int(p)
        return _collect(n, p, cls._raw_parts(n, p, raw_terms))

    @staticmethod
    def _raw_parts(n, p, raw_terms):
        """The parts of from_raw for _collect, one per raw term: the term,
        checked, read on Delta^(n+1) with its indices shifted up by one, and
        pulled back along delta_0."""
        if p > n:
            return []
        phi = tuple(range(1, n + 2))
        out = []
        for coeff, exps, indices in raw_terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n + 1 or any(e < 0 for e in exps):
                raise ParameterError("raw exponent tuple must have length n+1, entries >= 0")
            if len(indices) != p:
                raise ParameterError("raw index tuple must have length p")
            idx = tuple(int(i) + 1 for i in indices)
            if any(not 1 <= i <= n + 1 for i in idx):
                raise ParameterError("raw wedge indices must lie in 0..n")
            out.append((coeff, _pull_monomial(exps, idx, phi)))
        return out

    @classmethod
    def coordinate(cls, n, i):
        """The barycentric coordinate t_i as a 0-form."""
        exps = [0] * (n + 1)
        exps[i] = 1
        return cls.from_raw(n, 0, [(Fraction(1), tuple(exps), ())])

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and (self.n, self.p) == (other.n, other.p)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.p, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        return "PolyForm(n=%d, p=%d, %d terms)" % (self.n, self.p, len(self.terms))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if (self.n, self.p) != (other.n, other.p):
            raise ParameterError("cannot add forms of different type")
        parts = [(v, ((k, 1),)) for k, v in self.terms.items()]
        parts += [(v, ((k, sign),)) for k, v in other.terms.items()]
        return _collect(self.n, self.p, parts)

    def scale(self, c):
        return _collect(self.n, self.p, [(v * c, ((k, 1),)) for k, v in self.terms.items()])

    def __neg__(self):
        return self.scale(-1)

    # -- calculus ---------------------------------------------------------

    def d(self):
        """Exterior derivative, termwise product rule on the monomials."""
        parts = [(coeff, _d_monomial(exps, idx).items()) for (exps, idx), coeff in self.terms.items()]
        return _collect(self.n, self.p + 1, parts)

    def wedge(self, other):
        if self.n != other.n:
            raise ParameterError("wedge needs forms on the same simplex")
        parts = []
        for (e1, i1), c1 in self.terms.items():
            for (e2, i2), c2 in other.terms.items():
                if set(i1) & set(i2):
                    continue
                inversions = sum(1 for a in i1 for b in i2 if a > b)
                sign = -1 if inversions % 2 else 1
                exps = tuple(x + y for x, y in zip(e1, e2))
                idx = tuple(sorted(i1 + i2))
                parts.append((c1 * c2, (((exps, idx), sign),)))
        return _collect(self.n, self.p + other.p, parts)

    def integrate(self):
        """Exact integral over the standard simplex; requires top degree. It
        is a QTau exactly when a coefficient is."""
        if self.p != self.n:
            raise ParameterError("integration needs degree p equal to the dimension n")
        q, m = [], []
        for (exps, _idx), coeff in self.terms.items():
            w = _monomial_integral(exps)
            if isinstance(coeff, QTau):
                m.append((coeff.m, w))
                coeff = coeff.q
            q.append((coeff, w))
        return QTau(_dot(q), _dot(m)) if m else _dot(q)

    def coefficients_at(self, point):
        """Evaluate coefficient polynomials at a point in canonical coordinates.

        Returns a dict mapping wedge index tuples to values. The point may be
        rational or floating; arithmetic follows the inputs.
        """
        if len(point) != self.n:
            raise ParameterError("point arity mismatch")
        out = {}
        for (exps, idx), coeff in self.terms.items():
            v = coeff
            for t, a in zip(point, exps):
                if a:
                    v = v * t ** a
            out[idx] = out.get(idx, 0) + v
        return out

    def pullback(self, phi):
        """Pullback along the simplicial map Delta^m -> Delta^n with vertex map
        phi: a tuple of length m+1 whose entry j, an int in 0..n, is the image
        of vertex j. Pulling back along phi and then psi is pulling back along
        their composite, tuple(phi[v] for v in psi)."""
        phi = tuple(phi)
        if not phi or any(type(v) is not int or not 0 <= v <= self.n for v in phi):
            raise ParameterError("a vertex map needs at least one entry, each an int in 0..%d" % self.n)
        parts = [(coeff, _pull_monomial(exps, idx, phi)) for (exps, idx), coeff in self.terms.items()]
        return _collect(len(phi) - 1, self.p, parts)


def _collect(n, p, parts):
    """The PolyForm of type (n, p) summing c * v * key over the parts
    (c, ((key, v), ...)), each c an int, Fraction or QTau and each v an int;
    the keys must already be canonical, and they are not checked. Like keys
    add as int numerators over the common denominator of the c, a QTau as
    its q and m parts, and zeros drop; a Fraction is built once per output
    value, unless a part's own Fraction equals it. A key's coefficient is a
    QTau exactly when a QTau contributed to it. Any other c is a
    ParameterError."""
    dens = set()
    for c, _ in parts:
        if isinstance(c, QTau):
            dens.add(c.q.denominator)
            dens.add(c.m.denominator)
        elif isinstance(c, _RATIONALS):
            dens.add(c.denominator)
        else:
            raise ParameterError("a coefficient must be an int, a Fraction or a QTau, not %r" % (c,))
    den = math.lcm(*dens)
    acc = {}
    tau = {}  # the m numerators of the keys a QTau contributed to
    # numerator over den -> an equal Fraction: seeded with the parts' own
    # Fraction coefficients, so a key that sums to one of them (a merge, a
    # scale) keeps it instead of building a new one
    coeffs = {}
    for c, pairs in parts:
        if isinstance(c, QTau):
            q = c.q.numerator * (den // c.q.denominator)
            m = c.m.numerator * (den // c.m.denominator)
            for key, v in pairs:
                acc[key] = acc.get(key, 0) + q * v
                tau[key] = tau.get(key, 0) + m * v
        else:
            q = c.numerator * (den // c.denominator)
            if type(c) is Fraction:
                coeffs[q] = c
            for key, v in pairs:
                acc[key] = acc.get(key, 0) + q * v
    terms = {}
    for key, v in acc.items():
        m = tau.get(key)
        if m is None:
            if v:
                c = coeffs.get(v)
                if c is None:
                    c = coeffs[v] = Fraction(v, den)
                terms[key] = c
        elif v or m:
            terms[key] = QTau(Fraction(v, den), Fraction(m, den))
    form = object.__new__(PolyForm)
    form.n = n
    form.p = p
    form.terms = terms
    return form


def _dot(pairs):
    """The sum of a * b over the pairs (a, b) of rationals, in int numerators
    over the common denominator of the products."""
    den = math.lcm(*(a.denominator * b.denominator for a, b in pairs))
    return Fraction(sum(a.numerator * b.numerator * (den // (a.denominator * b.denominator))
                        for a, b in pairs), den)


def _d_monomial(exps, idx):
    """Int coefficients of d(t^exps dt_idx) = sum over j not in idx of
    a_j t^(exps - e_j) dt_j ^ dt_idx; PolyForm.d and ssetkit.derham share it."""
    out = {}
    for j, a in enumerate(exps, 1):
        if a and j not in idx:
            sign = -1 if sum(1 for i in idx if i < j) % 2 else 1
            out[(exps[: j - 1] + (a - 1,) + exps[j:], tuple(sorted(idx + (j,))))] = a * sign
    return out


@lru_cache(maxsize=_KERNEL_CACHE)
def _affine_images(phi):
    """(const_k, lin_k) for k = 0..max(phi): t_k pulls back along the vertex
    map phi to const_k + sum of l s_j over (j, l) in lin_k, with s_0
    eliminated; const_k = [phi(0) = k] and lin_k holds the nonzero
    [phi(j) = k] - const_k for j = 1..m. For k > max(phi), t_k pulls back to 0."""
    images = []
    for k in range(max(phi) + 1):
        const = int(phi[0] == k)
        images.append((const, tuple((j, int(v == k) - const)
                                    for j, v in enumerate(phi) if j and (v == k) != const)))
    return tuple(images)


@lru_cache(maxsize=_KERNEL_CACHE)
def _pull_monomial(exps, idx, phi):
    """Int coefficients, over the monomial forms of Delta^m (m = len(phi) - 1),
    of the pullback of the monomial form t^exps dt_idx on Delta^n along the
    simplicial map with vertex map phi (entries unchecked), as a tuple of
    (key, int) pairs with distinct keys and no zero.

    t_k pulls back to its affine image const_k + sum of lin_k[j] s_j (see
    _affine_images) and dt_k to the sum of lin_k[j] ds_j. The result is
    memoized; it is immutable, so callers share it safely.
    """
    m = len(phi) - 1
    images = _affine_images(phi)
    wedge = {(): 1}
    for k in idx:
        if k >= len(images):
            return ()
        out = {}
        for w, c in wedge.items():
            for j, l in images[k][1]:
                if j in w:
                    continue
                # ds_j joins on the right, past the indices above it.
                sign = -1 if sum(1 for i in w if i > j) % 2 else 1
                key = tuple(sorted(w + (j,)))
                out[key] = out.get(key, 0) + c * l * sign
        wedge = {w: c for w, c in out.items() if c}
        if not wedge:
            return ()
    poly = {(0,) * m: 1}
    for k, a in enumerate(exps, 1):
        if not a:
            continue
        if k >= len(images):
            return ()
        const, lin = images[k]
        for _ in range(a):
            out = {}
            for e, c in poly.items():
                if const:
                    out[e] = out.get(e, 0) + c * const
                for j, l in lin:
                    e2 = e[: j - 1] + (e[j - 1] + 1,) + e[j:]
                    out[e2] = out.get(e2, 0) + c * l
            poly = {e: c for e, c in out.items() if c}
        if not poly:
            return ()
    return tuple(((e, w), pc * wc) for e, pc in poly.items() for w, wc in wedge.items())


# -- form fields ------------------------------------------------------------


class FormField:
    """Face-compatible family of PolyForms over the nondegenerate simplices.

    The form on a degenerate simplex is determined by pulling the form on
    its nondegenerate base back along the collapse map, so only forms on
    nondegenerate simplices are stored; a form keyed by any other (n, id)
    is refused.
    """

    def __init__(self, x, degree, forms):
        self.x = x
        self.p = int(degree)
        self.forms = {}
        for n in x.dims():
            for s in x.nondegenerate(n):
                form = forms.get((n, s))
                if form is None:
                    form = PolyForm.zero(n, self.p)
                if form.n != n or form.p != self.p:
                    raise ParameterError("form on %r has the wrong type" % (s,))
                self.forms[(n, s)] = form
        for key in forms:
            if key not in self.forms:
                raise ParameterError("form on unknown or degenerate simplex %r" % (key,))

    def form_on(self, n, s):
        """The form on an arbitrary simplex, degenerate ones via collapse pullback."""
        m, base, eta = self.x.collapse(n, s)
        form = self.forms[(m, base)]
        return form if m == n else form.pullback(eta)

    def validate(self):
        """Face-compatibility witnesses: (n, simplex, face index) triples."""
        bad = []
        for n in range(1, self.x.dim_cap + 1):
            for s in self.x.nondegenerate(n):
                here = self.forms[(n, s)]
                for i in range(n + 1):
                    restricted = here.pullback(v for v in range(n + 1) if v != i)
                    expected = self.form_on(n - 1, self.x.d(n, i, s))
                    if restricted != expected:
                        bad.append((n, s, i))
        return bad

    def d(self):
        return FormField(self.x, self.p + 1, {k: f.d() for k, f in self.forms.items()})

    def wedge(self, other):
        if other.x is not self.x:
            raise ParameterError("wedge needs fields over the same base")
        return FormField(
            self.x,
            self.p + other.p,
            {k: f.wedge(other.forms[k]) for k, f in self.forms.items()},
        )

    def __add__(self, other):
        return FormField(self.x, self.p, {k: f + other.forms[k] for k, f in self.forms.items()})

    def __sub__(self, other):
        return FormField(self.x, self.p, {k: f - other.forms[k] for k, f in self.forms.items()})

    def scale(self, c):
        return FormField(self.x, self.p, {k: f.scale(c) for k, f in self.forms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, FormField)
            and self.x is other.x
            and self.p == other.p
            and self.forms == other.forms
        )


def derham_map(field):
    """Integrate a degree-p field over the p-simplices: the comparison cochain,
    as a row {position in x.nondegenerate(p): nonzero integral}, the basis
    order of homology.chain_complex.

    This is a cochain map: derham_map(d omega) equals the simplicial
    coboundary of derham_map(omega), which is the Stokes identity.
    """
    bad = field.validate()
    if bad:
        raise CompatibilityError("field is not face-compatible", witness=bad[0])
    x, p = field.x, field.p
    if p > x.dim_cap:
        raise ParameterError("degree above the cap")
    # A QTau has no truth value of its own, so zeros are compared away.
    integrals = (field.forms[(p, s)].integrate() for s in x.nondegenerate(p))
    return {k: v for k, v in enumerate(integrals) if v != 0}


def elementary_whitney(m, subset):
    """Whitney form of the vertex subset J on Delta^m:
    p! * sum_k (-1)^k t_{j_k} dt_{j_0} ^ ... (omit k) ... ^ dt_{j_p}."""
    J = tuple(subset)
    return PolyForm(m, len(J) - 1, _whitney_terms(m, J))


@lru_cache(maxsize=None)
def _whitney_terms(m, J):
    """Canonical terms of elementary_whitney(m, J), as (key, int) pairs.
    Like the ssetkit.derham tables it is kept for the process and calls no
    public method, so filling it does not change which public calls a run makes."""
    p = len(J) - 1
    raw = []
    fact = math.factorial(p)
    for k in range(p + 1):
        exps = [0] * (m + 1)
        exps[J[k]] = 1
        idx = J[:k] + J[k + 1:]
        raw.append((fact * (-1) ** k, tuple(exps), idx))
    # every coefficient is an integer, over the denominator 1
    return tuple((key, c.numerator) for key, c in _collect(m, p, PolyForm._raw_parts(m, p, raw)).terms.items())


def whitney(x, p, row):
    """Elementary-form right inverse of the comparison map, on a cochain row
    {position in x.nondegenerate(p): value}; a key off those positions is a
    ParameterError.

    On each nondegenerate m-simplex the field is the row-weighted sum of
    elementary Whitney forms over all (p+1)-vertex subsets; the weight is the
    row's value on the corresponding iterated face (0 when degenerate, which
    has no position).
    """
    index = {s: k for k, s in enumerate(x.nondegenerate(p))}
    for k in row:
        if not (isinstance(k, int) and 0 <= k < len(index)):
            raise ParameterError("cochain key %r is off the degree-%d basis" % (k, p))
    forms = {}
    for m in range(p, x.dim_cap + 1):
        for s in x.nondegenerate(m):
            parts = []
            for J in itertools.combinations(range(m + 1), p + 1):
                v = row.get(index.get(x.face_on(m, s, J)), 0)
                if v != 0:
                    parts.append((v, _whitney_terms(m, J)))
            forms[(m, s)] = _collect(m, p, parts)
    return FormField(x, p, forms)
