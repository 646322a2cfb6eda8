"""Finite simplicial sets with explicit face/degeneracy tables.

A simplicial set here is truncated at a dimension cap and stores every
simplex, degenerate ones included, so the simplicial identities and the
degeneracy bookkeeping are direct table lookups. Identifiers are arbitrary
hashable values, unique within each dimension; the standard constructions
use canonical tuple identifiers (vertex tuples for simplices of standard
objects, pairs for products).

Every structure map is given as a column: the list of its values over the
simplices of one dimension, in stored order (faces[(n, i)] is d_i over
simplices[n]). A constructor turns each column into stored positions with one
lookup over the index, and a construction derives its columns from the
stored positions of the sets it starts from.

A SimplicialSet or SimplicialMap that exists is valid: its constructor
tabulates the structure maps, checks the identities below (for a map,
commutation with every face and degeneracy) and refuses a violation. Every
construction here builds through that constructor, so no reader checks
them again.

Conventions for the identities, with d below s in the usual order:

    d_i d_j = d_{j-1} d_i            (i < j)
    d_i s_j = s_{j-1} d_i            (i < j)
    d_j s_j = id = d_{j+1} s_j
    d_i s_j = s_j d_{i-1}            (i > j + 1)
    s_i s_j = s_{j+1} s_i            (i <= j)
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import CapExceededError, ParameterError, StructureError


class SimplicialSet:
    """Dimension-capped simplicial set with total face/degeneracy tables.

    The constructor takes the structure maps as columns: faces[(n, i)] is
    the sequence of the identifiers d_i x over x in simplices[n], in stored
    order, for 1 <= n <= dim_cap, and degs[(n, i)] the same for s_i, for
    0 <= n < dim_cap. Each structure map is kept once, as stored positions:

    simplices[n]   ordered tuple of identifiers, 0 <= n <= dim_cap
    _dpos[(n, i)]  [p] is the position in X_{n-1} of d_i of the p-th
                   n-simplex, a tuple
    _spos[(n, i)]  the same for s_i, into X_{n+1}
    degenerate[n]  frozenset of degenerate identifiers
    witness[(n, x)] = (i, y) with x = s_i(y), for each degenerate x

    d and s read one entry through _index; readers that walk a whole level
    read the position tuples.

    This is the one place the tables are made and checked, so a set that
    exists satisfies the simplicial identities: a duplicate identifier, a
    column (a missing one included) whose length is not the number of
    simplices it runs over, or a column value that is not a listed simplex
    of the adjacent dimension is a StructureError here, with offending =
    (n, x) for the n-simplex x whose value it refused (for a duplicate, an
    identifier listed twice). Complete tables that break an identity are
    then refused with violations = every violation, in the order of
    identity family, n, stored position of x, j, i.

    degenerate and witness are derived from the degeneracy tables: x is
    degenerate iff x = s_i(y) for some listed y, and its witness is (i, y)
    for the least such i, then the first such y in stored order; witness
    lists the degenerate simplices in the order they are first reached that
    way.

    Nothing changes the tables after construction, so derived structure
    (the index, the nondegenerate simplices, the face-tuple indexes of the
    horn search) is computed once and kept on the object.
    """

    def __init__(self, dim_cap, simplices, faces, degs):
        if dim_cap < 0:
            raise ParameterError("dim_cap must be >= 0")
        self.dim_cap = int(dim_cap)
        xs = self.simplices = {n: tuple(simplices.get(n, ())) for n in range(dim_cap + 1)}
        index = self._index = {n: dict(zip(xs[n], range(len(xs[n])))) for n in range(dim_cap + 1)}
        for n, idx in index.items():
            if len(idx) != len(xs[n]):
                # idx keeps the last position of each identifier
                repeated = next(x for p, x in enumerate(xs[n]) if idx[x] != p)
                raise _refusal("duplicate identifier in dimension %d" % n, offending=(n, repeated))
        self._dpos = {(n, i): _tabulate(faces.get((n, i), ()), n, xs[n], index[n - 1], "face d_%d" % i)
                      for n in range(1, dim_cap + 1) for i in range(n + 1)}
        self._spos = {(n, i): _tabulate(degs.get((n, i), ()), n, xs[n], index[n + 1], "degeneracy s_%d" % i)
                      for n in range(dim_cap) for i in range(n + 1)}
        bad = self._scan_identities()
        if bad:
            raise _refusal("simplicial identities fail: " + "; ".join(str(b) for b in bad[:3]), violations=bad)
        self.degenerate = {0: frozenset()}
        self.witness = {}
        for n in range(1, self.dim_cap + 1):
            # position in X_n -> witness, keyed in the order s_0, s_1, ...
            # over X_{n-1} first reach each position; d_i s_i = id holds, so
            # each s_i is injective and the updates from the top i down leave
            # each position with its least i
            ups = [self._spos[(n - 1, i)] for i in range(n)]
            level = dict.fromkeys(itertools.chain.from_iterable(ups))
            for i in range(n - 1, -1, -1):
                level.update(zip(ups[i], zip(itertools.repeat(i), xs[n - 1])))
            degenerate = _lookup(xs[n], tuple(level))
            self.degenerate[n] = frozenset(degenerate)
            self.witness.update(zip(zip(itertools.repeat(n), degenerate), level.values()))
        self._nondegenerate = {
            n: tuple(itertools.filterfalse(self.degenerate[n].__contains__, xs[n]))
            for n in range(dim_cap + 1)
        }
        self._matching = {}

    # -- basic access -------------------------------------------------

    def dims(self):
        return range(self.dim_cap + 1)

    def has(self, n, x):
        return 0 <= n <= self.dim_cap and x in self._index.get(n, {})

    def d(self, n, i, x):
        return self.simplices[n - 1][self._dpos[(n, i)][self._index[n][x]]]

    def s(self, n, i, x):
        return self.simplices[n + 1][self._spos[(n, i)][self._index[n][x]]]

    def is_degenerate(self, n, x):
        return x in self.degenerate[n]

    def nondegenerate(self, n):
        if n > self.dim_cap:
            return ()
        return self._nondegenerate[n]

    def collapse(self, n, x):
        """Eilenberg-Zilber collapse of x onto its nondegenerate base.

        Returns (m, base, eta) with x the image of the m-simplex base under
        the degeneracy whose vertex map Delta^n -> Delta^m is eta, a weakly
        increasing surjective value tuple of length n+1 (the identity when x
        is nondegenerate). The witnesses are walked from x down: each
        x = s_j(y) merges vertices j and j+1.
        """
        eta = tuple(range(n + 1))
        while x in self.degenerate[n]:
            j, x = self.witness[(n, x)]
            eta = tuple(v - (v > j) for v in eta)
            n -= 1
        return n, x, eta

    def _face_index(self, n, positions):
        """{tuple of the positions of (d_i y) for i in positions: the
        positions of the y in X_n with those faces, in stored order}, built
        in one pass over X_n on the first call for (n, positions) and kept."""
        table = self._matching.get((n, positions))
        if table is None:
            if not (0 <= n <= self.dim_cap and all((n, i) in self._dpos for i in positions)):
                raise ParameterError("no faces %r of %d-simplices below the cap %d" % (positions, n, self.dim_cap))
            columns = [self._dpos[(n, i)] for i in positions]
            table = _group(zip(*columns) if columns else itertools.repeat(()), range(len(self.simplices[n])))
            self._matching[(n, positions)] = table
        return table

    def face_on(self, n, x, vertices):
        """The face of the n-simplex x spanned by the vertex positions in
        `vertices` (a subset of 0..n): every other position is deleted, from
        the top down, so the lower positions keep their numbers."""
        p = self._index[n][x]
        for i in range(n, -1, -1):
            if i not in vertices:
                p = self._dpos[(n, i)][p]
                n -= 1
        return self.simplices[n][p]

    def vertices_of(self, n, x):
        """Images of the n+1 vertex inclusions, in order."""
        return tuple(self.face_on(n, x, (j,)) for j in range(n + 1))

    # -- the identity scan of the constructor --------------------------

    def _scan_identities(self):
        """Each identity at each (n, i, j) is checked over all of X_n at once:
        both sides are composed as whole position tables and compared as
        lists, and only a mismatch is walked for its simplices. Violations
        come in the order of identity family, n, stored position of x, j, i."""
        cap = self.dim_cap
        d, s = self._dpos, self._spos
        bad = []

        def level(n, sides):
            """Append the violations among sides, ((j, i, name), lhs, rhs)
            over X_n, in (position, j, i) order."""
            xs = self.simplices[n]
            bad.extend((name, n, xs[p], (i, j)) for p, j, i, name in _mismatches(sides))

        for n in range(2, cap + 1):
            level(n, (
                ((j, i, "d_i d_j = d_{j-1} d_i"),
                 _lookup(d[(n - 1, i)], d[(n, j)]), _lookup(d[(n - 1, j - 1)], d[(n, i)]))
                for j in range(n + 1)
                for i in range(j)
            ))
        for n in range(cap):
            same = tuple(range(len(self.simplices[n])))
            level(n, (
                ((j, i, name), _lookup(d[(n + 1, i)], s[(n, j)]), same)
                for j in range(n + 1)
                for i, name in ((j, "d_j s_j = id"), (j + 1, "d_{j+1} s_j = id"))
            ))
        for n in range(1, cap):
            # d_i s_j = s_b d_a, as (name, i, j, b, a)
            mixed = [("d_i s_j = s_{j-1} d_i (i<j)", i, j, j - 1, i)
                     for j in range(n + 1) for i in range(j)]
            mixed += [("d_i s_j = s_j d_{i-1} (i>j+1)", i, j, j, i - 1)
                      for j in range(n + 1) for i in range(j + 2, n + 2)]
            level(n, (
                ((j, i, name), _lookup(d[(n + 1, i)], s[(n, j)]), _lookup(s[(n - 1, b)], d[(n, a)]))
                for name, i, j, b, a in mixed
            ))
        for n in range(cap - 1):
            level(n, (
                ((j, i, "s_i s_j = s_{j+1} s_i (i<=j)"),
                 _lookup(s[(n + 1, i)], s[(n, j)]), _lookup(s[(n + 1, j + 1)], s[(n, i)]))
                for j in range(n + 1)
                for i in range(j + 1)
            ))
        return bad


class _UnionFind:
    """Disjoint classes of hashable items, merged by union."""

    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self):
        """{root: the items of its class, in item order}, the classes in
        the order of their first items."""
        groups = {}
        for i in self.parent:
            groups.setdefault(self.find(i), []).append(i)
        return groups


def _group(keys, ys):
    """{key: the ys with that key, in order}, keys and ys read in step."""
    table = {}
    for key, y in zip(keys, ys):
        table.setdefault(key, []).append(y)
    return {key: tuple(group) for key, group in table.items()}


def _refusal(message, **attributes):
    """A StructureError with attributes naming what it refused: offending,
    the key of one refused entry, such as (n, x) for a simplex x of
    dimension n, which a reader maps back to the row it read; or violations,
    the ordered list of every identity or commutation failure of complete
    tables."""
    exc = StructureError(message)
    vars(exc).update(attributes)
    return exc


_UNDEFINED = object()  # the value of a level map at a simplex it has no entry for


def _column(level, xs):
    """The values of the dict level over xs, in order, as a column:
    _UNDEFINED where level has no entry."""
    return tuple(map(level.get, xs, itertools.repeat(_UNDEFINED)))


def _tabulate(column, n, xs, known, name):
    """The positions in known of the values of column, a structure map's
    values over the listed n-simplices xs in stored order, looked up in one
    pass. A column of another length than xs is refused; so is a value that
    is not a key of known, at the first such x in stored order, with
    offending = (n, x): "<name> undefined on x" for _UNDEFINED, else
    "<name> of x hits unknown identifier"."""
    if len(column) != len(xs):
        raise _refusal("%s has %d values for the %d simplices of dimension %d" % (name, len(column), len(xs), n))
    try:
        return _lookup(known, column)
    except KeyError:
        pass
    x, y = next((x, y) for x, y in zip(xs, column) if y not in known)
    if y is _UNDEFINED:
        raise _refusal("%s undefined on %r" % (name, x), offending=(n, x))
    raise _refusal("%s of %r hits unknown identifier %r" % (name, x, y), offending=(n, x))


def _lookup(table, keys):
    """The tuple of table[k] over the sequence keys, by one itemgetter (which
    takes no empty key list and gives a bare value for one key). For stored
    positions, the composite of table after keys."""
    if len(keys) > 1:
        return itemgetter(*keys)(table)
    return tuple(table[k] for k in keys)


def _mismatches(sides):
    """(position, *key) for each position where lhs and rhs differ, over the
    (key, lhs, rhs) triples of sides, sorted."""
    found = []
    for key, lhs, rhs in sides:
        if lhs != rhs:
            found.extend((p, *key) for p, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return sorted(found)


# -- canonical tuple machinery ----------------------------------------


def _tuple_sset(dim_cap, allowed):
    """Simplicial set whose n-simplices are the weakly increasing tuples
    accepted by the predicate `allowed`, with delete/duplicate structure maps."""
    simplices = {n: tuple(sorted(_all_tuples(n, allowed))) for n in range(dim_cap + 1)}
    faces = {(n, i): [t[:i] + t[i + 1:] for t in simplices[n]] for n in range(1, dim_cap + 1) for i in range(n + 1)}
    degs = {(n, i): [t[: i + 1] + t[i:] for t in simplices[n]] for n in range(dim_cap) for i in range(n + 1)}
    return SimplicialSet(dim_cap, simplices, faces, degs)


def _all_tuples(n, allowed):
    seen = set()
    for support in allowed:
        support = tuple(sorted(support))
        if len(support) > n + 1:
            continue
        for t in _surjective_tuples(support, n + 1):
            seen.add(t)
    return seen


def _surjective_tuples(support, length):
    """Weakly increasing tuples of the given length with image exactly `support`."""
    k = len(support)
    if k > length:
        return
    # choose which of the length-1 gaps step up (k-1 steps)
    for steps in itertools.combinations(range(length - 1), k - 1):
        out = []
        level = 0
        for pos in range(length):
            out.append(support[level])
            if pos in steps:
                level += 1
        yield tuple(out)


def standard_delta(n, dim_cap=None):
    """The standard n-simplex, truncated at dim_cap (default n)."""
    if n < 0:
        raise ParameterError("delta needs n >= 0")
    return simplicial_complex([range(n + 1)], n if dim_cap is None else dim_cap)


def standard_boundary(n, dim_cap=None):
    """The boundary of the standard n-simplex: every proper face."""
    if n < 1:
        raise ParameterError("boundary needs n >= 1")
    faces = [[v for v in range(n + 1) if v != i] for i in range(n + 1)]
    return simplicial_complex(faces, (n - 1) if dim_cap is None else dim_cap)


def standard_horn(n, k, dim_cap=None):
    """The horn: all faces of the n-simplex except the k-th, and no interior."""
    if n < 1:
        raise ParameterError("horn needs n >= 1")
    if not 0 <= k <= n:
        raise ParameterError("horn index k=%d out of range for n=%d" % (k, n))
    faces = [[v for v in range(n + 1) if v != i] for i in range(n + 1) if i != k]
    return simplicial_complex(faces, (n - 1) if dim_cap is None else dim_cap)


def simplicial_complex(facets, dim_cap):
    """Simplicial set of an ordered simplicial complex given by its facets.

    Facets are iterables of comparable vertex labels; every subset is added.
    """
    supports = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        if not f:
            raise ParameterError("empty facet")
        for k in range(1, len(f) + 1):
            supports.update(itertools.combinations(f, k))
    return _tuple_sset(dim_cap, sorted(supports))


def nerve(table, dim_cap):
    """Nerve of a finite group given by its multiplication table.

    n-simplices are n-tuples of group elements; d_0 and d_n drop an end,
    inner faces multiply adjacent entries, degeneracies insert the identity.
    """
    elements, identity = _check_group(table)
    simplices = {n: tuple(sorted(itertools.product(elements, repeat=n))) for n in range(dim_cap + 1)}

    def face_column(n, i):
        if i == 0:
            return [g[1:] for g in simplices[n]]
        if i == n:
            return [g[:-1] for g in simplices[n]]
        return [g[: i - 1] + (table[(g[i - 1], g[i])],) + g[i + 1:] for g in simplices[n]]

    faces = {(n, i): face_column(n, i) for n in range(1, dim_cap + 1) for i in range(n + 1)}
    degs = {(n, i): [g[:i] + (identity,) + g[i:] for g in simplices[n]] for n in range(dim_cap) for i in range(n + 1)}
    return SimplicialSet(dim_cap, simplices, faces, degs)


def cyclic_table(m):
    """Multiplication table of the cyclic group of order m on labels 0..m-1."""
    if m < 1:
        raise ParameterError("cyclic group needs m >= 1")
    return {(a, b): (a + b) % m for a in range(m) for b in range(m)}


def _check_group(table):
    elements = sorted({k[0] for k in table} | {k[1] for k in table})
    for a, b in itertools.product(elements, repeat=2):
        if (a, b) not in table:
            raise ParameterError("incomplete multiplication table at %r" % ((a, b),))
        if table[(a, b)] not in elements:
            raise ParameterError("table not closed at %r" % ((a, b),))
    identity = None
    for e in elements:
        if all(table[(e, a)] == a and table[(a, e)] == a for a in elements):
            identity = e
            break
    if identity is None:
        raise ParameterError("no identity element")
    for a, b, c in itertools.product(elements, repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            raise ParameterError("associativity fails at %r" % ((a, b, c),))
    for a in elements:
        if not any(table[(a, b)] == identity for b in elements):
            raise ParameterError("no inverse for %r" % (a,))
    return elements, identity


# -- products ----------------------------------------------------------


def product(x, y, dim_cap=None):
    """Levelwise product with componentwise structure maps.

    The cap defaults to min of the factor caps; asking for more is refused
    rather than silently truncated.
    """
    limit = min(x.dim_cap, y.dim_cap)
    cap = limit if dim_cap is None else dim_cap
    if cap > limit:
        raise CapExceededError(
            "product cap %d exceeds factor caps (%d, %d)" % (cap, x.dim_cap, y.dim_cap)
        )
    simplices = {
        n: tuple(itertools.product(x.simplices[n], y.simplices[n]))
        for n in range(cap + 1)
    }

    def column(n, i, step, x_table, y_table):
        # the pairs (a, b) are listed with a outer, as itertools.product
        # lists the pairs of the factors' columns
        return list(itertools.product(_lookup(x.simplices[n + step], x_table[(n, i)]),
                                      _lookup(y.simplices[n + step], y_table[(n, i)])))

    faces = {(n, i): column(n, i, -1, x._dpos, y._dpos) for n in range(1, cap + 1) for i in range(n + 1)}
    degs = {(n, i): column(n, i, 1, x._spos, y._spos) for n in range(cap) for i in range(n + 1)}
    return SimplicialSet(cap, simplices, faces, degs)


# -- subcomplexes and quotients ----------------------------------------


def close_subcomplex(x, seeds):
    """Smallest sub-simplicial-set of x containing the seed simplices; a seed
    that is not a simplex of its dimension, one off 0..cap included, is
    refused."""
    for n in sorted(seeds):
        for s in seeds[n]:
            if not x.has(n, s):
                raise StructureError("seed %r is not a simplex of dimension %d" % (s, n))
    sets = {n: set() for n in x.dims()}
    todo = [(n, s) for n in seeds for s in seeds[n]]
    while todo:
        n, s = todo.pop()
        if s not in sets[n]:
            sets[n].add(s)
            todo += [(n - 1, x.d(n, i, s)) for i in range(n + 1) if n >= 1]
            todo += [(n + 1, x.s(n, i, s)) for i in range(n + 1) if n < x.dim_cap]
    return {n: frozenset(v) for n, v in sets.items()}


def is_subcomplex(x, sub):
    """Closure check; returns None when closed, else an offending (kind, n,
    simplex): ("unknown", n, s) for a member that is not a simplex of its
    dimension, one off 0..cap included, then ("face", n, s) by n, then
    ("degeneracy", n, s) by n, each for the first s in the iteration order
    of sub[n] with a face (degeneracy) outside sub. Each (n, i) is read as
    the stored positions of the members."""
    for n in sorted(sub):
        for s in sub[n]:
            if not x.has(n, s):
                return ("unknown", n, s)
    cap = x.dim_cap
    members = {n: tuple(sub.get(n, ())) for n in x.dims()}
    at = {n: _lookup(x._index[n], members[n]) for n in x.dims()}
    for kind, dims, step, tables in (("face", range(1, cap + 1), -1, x._dpos), ("degeneracy", range(cap), 1, x._spos)):
        for n in dims:
            inside = set(at[n + step])
            first = len(at[n])
            for i in range(n + 1):
                hits = _lookup(tables[(n, i)], at[n])
                if not inside.issuperset(hits):
                    first = min(first, next(k for k, p in enumerate(hits) if p not in inside))
            if first < len(at[n]):
                return (kind, n, members[n][first])
    return None


def _kept(x, keep):
    """The simplices and the face and degeneracy columns of the simplices of
    x at the stored positions keep[n], for n = 0..max(keep), as the
    SimplicialSet constructor takes them."""
    cap, xs = max(keep), x.simplices
    simplices = {n: _lookup(xs[n], keep[n]) for n in keep}
    faces = {(n, i): _lookup(xs[n - 1], _lookup(x._dpos[(n, i)], keep[n]))
             for n in range(1, cap + 1) for i in range(n + 1)}
    degs = {(n, i): _lookup(xs[n + 1], _lookup(x._spos[(n, i)], keep[n]))
            for n in range(cap) for i in range(n + 1)}
    return simplices, faces, degs


def restrict(x, sub):
    """The sub-simplicial-set on a closed family of simplices, as its own object."""
    offending = is_subcomplex(x, sub)
    if offending is not None:
        raise StructureError("not closed under structure maps: %r" % (offending,))
    keep = {n: sorted(set(_lookup(x._index[n], tuple(sub.get(n, ()))))) for n in x.dims()}
    return SimplicialSet(x.dim_cap, *_kept(x, keep))


def quotient(x, sub):
    """Collapse a closed subcomplex to the degeneracy tower of one base point."""
    offending = is_subcomplex(x, sub)
    if offending is not None:
        raise StructureError("quotient needs a closed subcomplex: %r" % (offending,))
    if not sub.get(0):
        raise ParameterError("subcomplex to collapse has no vertices")
    base = "*"
    while any(base in x.simplices[n] for n in x.dims()):
        base = base + "'"

    keep = {n: [p for p, s in enumerate(x.simplices[n]) if s not in sub.get(n, ())] for n in x.dims()}
    simplices, faces, degs = _kept(x, keep)

    def wrap(columns, step):
        # a value in sub becomes the base point, and the base point's own
        # entry, last, is the base point
        return {(n, i): [base if s in sub.get(n + step, ()) else s for s in column] + [base]
                for (n, i), column in columns.items()}

    simplices = {n: kept + (base,) for n, kept in simplices.items()}
    return SimplicialSet(x.dim_cap, simplices, wrap(faces, -1), wrap(degs, 1))


def sphere_quotient(n, dim_cap=None):
    """The n-sphere model with one nondegenerate simplex in dimensions 0 and n."""
    cap = n if dim_cap is None else dim_cap
    delta = standard_delta(n, cap)
    bdy = {
        m: frozenset(t for t in delta.simplices[m] if set(t) != set(range(n + 1)))
        for m in delta.dims()
    }
    return quotient(delta, bdy)


def truncate(x, dim_cap):
    """The same simplicial set with the cap lowered; raising it is refused."""
    if dim_cap > x.dim_cap:
        raise CapExceededError(
            "cannot raise the cap from %d to %d" % (x.dim_cap, dim_cap)
        )
    keep = {n: range(len(x.simplices[n])) for n in range(dim_cap + 1)}
    return SimplicialSet(dim_cap, *_kept(x, keep))


# -- generators --------------------------------------------------------


def _identity_surjection(n):
    return tuple(range(n + 1))


def _pair_id(eta, gid):
    return gid if eta == _identity_surjection(len(eta) - 1) else ("s", eta, gid)


def from_generators(dim_cap, generators):
    """Simplicial set presented by nondegenerate simplices and their faces.

    generators[n] is a list of (id, faces) pairs where faces[i] is either a
    plain id of a nondegenerate (n-1)-simplex or a pair (eta, id) giving a
    degenerate face: eta is a weakly increasing surjective value tuple.
    Every simplex up to the cap is materialized as (eta, generator).
    """
    gens = {n: list(generators.get(n, [])) for n in range(dim_cap + 1)}
    gen_dims = {}
    gen_faces = {}
    for n, pairs in gens.items():
        for gid, faces in pairs:
            if gid in gen_dims:
                raise StructureError("duplicate generator id %r" % (gid,))
            gen_dims[gid] = n
            norm = []
            for f in faces:
                if isinstance(f, tuple) and len(f) == 2 and isinstance(f[0], tuple):
                    norm.append(f)
                else:
                    norm.append((_identity_surjection(n - 1), f))
            if n > 0 and len(norm) != n + 1:
                raise StructureError("generator %r needs %d faces" % (gid, n + 1))
            gen_faces[gid] = tuple(norm)
    for gid, faces in gen_faces.items():
        for eta, g2 in faces:
            if g2 not in gen_dims:
                raise StructureError("face of %r references unknown generator %r" % (gid, g2))
            if gen_dims[g2] != len(set(eta)) - 1 or gen_dims[gid] - 1 != len(eta) - 1:
                raise StructureError("face arity mismatch on generator %r" % (gid,))

    def face_of_pair(eta, gid, i):
        dropped = eta[:i] + eta[i + 1:]
        image = set(eta)
        if set(dropped) == image:
            return dropped, gid
        v = eta[i]
        shifted = tuple(x if x < v else x - 1 for x in dropped)
        theta, g2 = gen_faces[gid][v]
        return tuple(theta[x] for x in shifted), g2

    # the (eta, generator) pair of every n-simplex, in stored order
    pairs = {
        n: [(eta, gid) for m in range(n + 1) for gid, _ in gens[m]
            for eta in _surjective_tuples(tuple(range(m + 1)), n + 1)]
        for n in range(dim_cap + 1)
    }
    simplices = {n: tuple(_pair_id(eta, gid) for eta, gid in pairs[n]) for n in pairs}
    faces = {(n, i): [_pair_id(*face_of_pair(eta, gid, i)) for eta, gid in pairs[n]]
             for n in range(1, dim_cap + 1) for i in range(n + 1)}
    degs = {(n, i): [_pair_id(eta[: i + 1] + eta[i:], gid) for eta, gid in pairs[n]]
            for n in range(dim_cap) for i in range(n + 1)}
    return SimplicialSet(dim_cap, simplices, faces, degs)


def circle_two_edges(dim_cap=2):
    """Circle built from two vertices and two nondegenerate edges."""
    return from_generators(
        dim_cap,
        {
            0: [("p", ()), ("q", ())],
            1: [("a", ("q", "p")), ("b", ("p", "q"))],
        },
    )


# -- simplicial maps ----------------------------------------------------


class SimplicialMap:
    """Levelwise map of simplicial sets, up to the lesser cap of its ends.

    The constructor takes level_map[n] as {source simplex: image}, reads it
    as the column of its values over the source simplices (a simplex with no
    entry reads as undefined), and is the one place the table is made and
    checked, so a map that exists commutes with every face and degeneracy: a
    key up to the cap (at any dimension) that is not a source simplex of its
    dimension, an undefined source simplex and an image off the target are
    StructureErrors, with offending = (n, key) or (n, source simplex) on the
    error; levels above the cap are ignored. A complete table that fails to commute is then refused with
    violations = ("face", n, i, x), then ("degeneracy", n, i, x), each in
    (n, stored position of x, i) order, one pass per (n, i) over X_n. The
    map is kept once, as positions: _image[n][p] is the position in Y_n of
    the image of the p-th n-simplex of X, for 0 <= n <= dim_cap; calling the
    map reads it."""

    def __init__(self, source, target, level_map):
        self.source = source
        self.target = target
        cap = self.dim_cap = min(source.dim_cap, target.dim_cap)
        for n in sorted(k for k in level_map if k <= cap):
            for x in level_map[n]:
                if not source.has(n, x):
                    raise _refusal("%s is not a source simplex of dimension %d" % (x, n), offending=(n, x))
        image = self._image = {
            n: _tabulate(_column(level_map.get(n, {}), source.simplices[n]), n, source.simplices[n],
                         target._index[n], "map f_%d" % n)
            for n in range(cap + 1)
        }
        bad = []
        for kind, dims, step, down, up in (
            ("face", range(1, cap + 1), -1, source._dpos, target._dpos),
            ("degeneracy", range(cap), 1, source._spos, target._spos),
        ):
            for n in dims:
                sides = (((i,), _lookup(image[n + step], down[(n, i)]), _lookup(up[(n, i)], image[n]))
                         for i in range(n + 1))
                bad.extend((kind, n, i, source.simplices[n][p]) for p, i in _mismatches(sides))
        if bad:
            raise _refusal("map fails to commute with %d structure maps" % len(bad), violations=bad)

    def __call__(self, n, x):
        return self.target.simplices[n][self._image[n][self.source._index[n][x]]]

    def compose(self, other):
        """self after other. A middle set of lower cap than both ends would
        leave the composite undefined above it, so it is refused."""
        if other.target is not self.source:
            raise ParameterError("maps not composable")
        cap = min(other.source.dim_cap, self.target.dim_cap)
        if self.source.dim_cap < cap:
            raise ParameterError("composite of cap %d through a middle set of cap %d" % (cap, self.source.dim_cap))
        lm = {
            n: dict(zip(other.source.simplices[n],
                        _lookup(self.target.simplices[n], _lookup(self._image[n], other._image[n]))))
            for n in range(cap + 1)
        }
        return SimplicialMap(other.source, self.target, lm)
