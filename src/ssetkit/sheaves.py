"""Presheaves on a finite site of subcomplexes, the separated quotient,
sheafification, and unions/intersections of subpresheaves of a sheaf.

The site is a finite poset of subcomplexes of a fixed base, ordered by
inclusion, with declared covering families whose union is the covered
object. A sieve on U is a down-set of the objects below U. The declared
covers generate one Grothendieck topology J: the least set of sieves that
holds the maximal sieves and the sieves generated by the declared covers
and is closed under pullback and transitivity. J(U) is closed under finite
intersection, so it has a least sieve S(U), and J(U) is exactly the sieves
that contain S(U). The site computes S(U) once, and every construction here
reads it: the sheaf condition, the plus construction P+(U) (the compatible
families on the generators of S(U)), the separated quotient (the image of
the unit P -> P+) and sheafification (P++; Mac Lane and Moerdijk, Sheaves in
Geometry and Logic, III.2 and III.5).

Section sets are finite and enumerable throughout; every check here is an
exhaustive search.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple

from .errors import StructureError
from .simplicial import _refusal


class FiniteSite:
    """Finite poset of subcomplexes of a base simplicial set, with covers.

    objects: dict name -> subcomplex (dict dim -> frozenset of identifiers),
             stored over every dimension of the base
    covers:  dict name -> list of tuples of member names

    The names (in name order), the order, the arrows, the meets and the
    least covering sieve of each object are computed once, here. An object
    with a member that is no simplex of the base is refused, naming the
    object's least such member (by dimension, then in str order).
    """

    def __init__(self, base, objects, covers):
        self.base = base
        self.objects = {}
        for name, sub in objects.items():
            sub = {n: frozenset(v) for n, v in sub.items()}
            for n in sorted(sub):
                unknown = [s for s in sub[n] if not base.has(n, s)]
                if unknown:
                    raise StructureError("object %r contains unknown simplex %r" % (name, min(unknown, key=str)))
            self.objects[name] = {n: sub.get(n, frozenset()) for n in base.dims()}
        self.covers = {name: [tuple(fam) for fam in fams] for name, fams in covers.items()}
        self._names = tuple(sorted(self.objects, key=str))
        value = {name: tuple(sub.values()) for name, sub in self.objects.items()}
        self._leq = {
            (a, b): all(x <= y for x, y in zip(value[a], value[b]))
            for a, b in itertools.product(self._names, repeat=2)
        }
        self._arrows = tuple(
            (a, b) for a, b in itertools.product(self._names, repeat=2) if a != b and self._leq[(b, a)]
        )
        first = {value[name]: name for name in reversed(self._names)}  # value -> its first name
        self._meet = {}
        for a, b in itertools.product(self._names, repeat=2):
            meet = tuple(x & y for x, y in zip(value[a], value[b]))
            if meet not in first and any(meet):
                raise StructureError("intersection of %r and %r is missing from the poset" % (a, b))
            self._meet[(a, b)] = first.get(meet)
        for name, fams in self.covers.items():
            if name not in self.objects:
                raise StructureError("cover declared on unknown object %r" % (name,))
            for fam in fams:
                for m in fam:
                    if m not in self.objects:
                        raise StructureError("cover member %r unknown" % (m,))
                    if not self._leq[(m, name)]:
                        raise StructureError("cover member %r not below %r" % (m, name))
                union = {n: frozenset().union(*(self.objects[m][n] for m in fam)) for n in base.dims()}
                if union != self.objects[name]:
                    raise StructureError("cover of %r does not exhaust it" % (name,))
        # S(U) starts as the down-set of U cut by the sieve of each declared
        # cover, then shrinks to the fixpoint of pullback, S(U) within S(W)
        # for U <= W, and transitivity, S(U) within the union of S(V) over
        # the V in S(U).
        below = {u: frozenset(v for v in self._names if self._leq[(v, u)]) for u in self._names}
        sieve = {
            u: below[u].intersection(*(frozenset().union(*(below[m] for m in fam)) for fam in self.covers.get(u, ())))
            for u in self._names
        }
        changed = True
        while changed:
            changed = False
            for u in self._names:
                s = sieve[u].intersection(*(sieve[w] for w in self._names if u in below[w]))
                s = s & frozenset().union(*(sieve[v] for v in s))
                changed = changed or s != sieve[u]
                sieve[u] = s
        self._least = {
            u: tuple(m for m in self._names if m in s and not any(m in below[n] and n not in below[m] for n in s))
            for u, s in sieve.items()
        }

    def leq(self, a, b):
        return self._leq[(a, b)]

    def arrows(self):
        """The pairs (a, b) of distinct names with b <= a, along which a
        presheaf restricts from a to b; ordered by a, then b, in name order."""
        return self._arrows

    def meet(self, a, b):
        """Name of the intersection object, or None when the intersection is empty
        and the empty subcomplex is not in the poset (then no compatibility
        constraint is imposed along it)."""
        return self._meet[(a, b)]

    def names(self):
        return self._names

    def least_sieve(self, name):
        """The generators of S(name), the least covering sieve of name: its
        maximal members, in name order. The covering sieves of name are the
        sieves that contain these objects."""
        return self._least[name]


class Presheaf:
    """Finite set-valued presheaf: sections per object, restriction tables.

    Sections of a name that is not an object, and a restriction along a pair
    that is not one of site.arrows(), are refused; the error's offending
    attribute is ("sections", name) or ("restrict", u, v)."""

    def __init__(self, site, sections, restrictions):
        self.site = site
        for name in sections:
            if name not in site.objects:
                raise _refusal("sections of %r, which is not an object of the site" % (name,),
                               offending=("sections", name))
        self.sections = {name: tuple(sections[name]) for name in site.names() if name in sections}
        self.res = {}
        arrows = set(site.arrows())
        for (u, v), table in restrictions.items():
            if (u, v) not in arrows:
                raise _refusal("restriction %r -> %r is not an arrow of the site" % (u, v),
                               offending=("restrict", u, v))
            self.res[(u, v)] = dict(table)
        self._validate()

    def _validate(self):
        for name in self.site.names():
            if name not in self.sections:
                raise StructureError("no section set for %r" % (name,))
            if len(set(self.sections[name])) != len(self.sections[name]):
                raise StructureError("repeated section in %r" % (name,))
        for a, b in self.site.arrows():
            table = self.res.get((a, b))
            if table is None:
                raise StructureError("missing restriction from %r to %r" % (a, b))
            for s in self.sections[a]:
                if s not in table:
                    raise StructureError("restriction %r -> %r undefined on %r" % (a, b, s))
                if table[s] not in self.sections[b]:
                    raise StructureError("restriction image %r not a section of %r" % (table[s], b))
        for a in self.site.names():
            self.res[(a, a)] = {s: s for s in self.sections[a]}
        for a, b, c in itertools.product(self.site.names(), repeat=3):
            if self.site.leq(c, b) and self.site.leq(b, a):
                for s in self.sections[a]:
                    via = self.res[(b, c)][self.res[(a, b)][s]]
                    direct = self.res[(a, c)][s]
                    if via != direct:
                        raise StructureError(
                            "restrictions fail to compose on %r along %r <= %r <= %r" % (s, c, b, a)
                        )

    def restrict(self, u, v, section):
        return self.res[(u, v)][section]


SheafStatus = namedtuple("SheafStatus", "separated sheaf witness")
SheafStatus.__doc__ = """The sheaf condition's verdicts; witness is None or (object, generators of
its least sieve, family, number of gluings)."""


def _compatible_families(presheaf, cover):
    """Backtracking enumeration of families compatible on pairwise meets."""
    out = []
    _extend_family(presheaf, list(cover), [], out)
    return out


def _extend_family(presheaf, members, chosen, out):
    """Append to out every compatible family that extends chosen, the
    sections picked on the first len(chosen) members."""
    j = len(chosen)
    if j == len(members):
        out.append(tuple(chosen))
        return
    meets = [(i, presheaf.site.meet(members[i], members[j])) for i in range(j)]
    for cand in presheaf.sections[members[j]]:
        if all(
            presheaf.restrict(members[i], meet, chosen[i]) == presheaf.restrict(members[j], meet, cand)
            for i, meet in meets
            if meet is not None
        ):
            chosen.append(cand)
            _extend_family(presheaf, members, chosen, out)
            chosen.pop()


def _unit(presheaf, name):
    """{section of name: its restrictions to the generators of S(name)},
    the unit P -> P+ at name."""
    gens = presheaf.site.least_sieve(name)
    return {s: tuple(presheaf.restrict(name, m, s) for m in gens) for s in presheaf.sections[name]}


def check_status(presheaf):
    """The sheaf condition for J: on each object U, every family compatible
    on the generators of S(U) has exactly one gluing. A sieve of J(U)
    contains S(U), so this is the condition for every covering sieve. The
    witness is (U, generators, family, gluings) for the first family that
    fails, objects in name order; the presheaf is separated when no family
    has two gluings or more."""
    site = presheaf.site
    separated = True
    sheaf = True
    witness = None
    for name in site.names():
        gluings = Counter(_unit(presheaf, name).values())
        for family in _compatible_families(presheaf, site.least_sieve(name)):
            if gluings[family] != 1:
                sheaf = False
                separated = separated and gluings[family] == 0
                if witness is None:
                    witness = (name, site.least_sieve(name), family, gluings[family])
    return SheafStatus(separated, sheaf, witness)


def _plus(presheaf):
    """(P+, unit P -> P+): P+(U) is the compatible families on the
    generators of S(U), labeled c0, c1, ... in the order they are
    enumerated, which is lexicographic in the section order of each
    generator. Restriction to V reads each generator of S(V) off a
    generator of S(U) above it, as S(V) lies in S(U)."""
    site = presheaf.site
    families = {name: _compatible_families(presheaf, site.least_sieve(name)) for name in site.names()}
    label = {name: {fam: "c%d" % i for i, fam in enumerate(fams)} for name, fams in families.items()}
    restrictions = {}
    for a, b in site.arrows():
        gens = site.least_sieve(a)
        above = [(next(i for i, m in enumerate(gens) if site.leq(h, m)), h) for h in site.least_sieve(b)]
        restrictions[(a, b)] = {
            label[a][fam]: label[b][tuple(presheaf.restrict(gens[i], h, fam[i]) for i, h in above)]
            for fam in families[a]
        }
    sections = {name: tuple(label[name].values()) for name in site.names()}
    unit = {name: {s: label[name][fam] for s, fam in _unit(presheaf, name).items()} for name in site.names()}
    return Presheaf(site, sections, restrictions), unit


def separated_quotient(presheaf):
    """The separated reflection, the image of the unit P -> P+: two sections
    are identified when they agree on the generators of S(U), and each class
    is labeled by its first section.

    Returns (quotient presheaf, unit maps per object).
    """
    site = presheaf.site
    classes = {}
    for name in site.names():
        first = {}
        classes[name] = {s: first.setdefault(fam, s) for s, fam in _unit(presheaf, name).items()}
    sections = {name: tuple(dict.fromkeys(classes[name].values())) for name in site.names()}
    restrictions = {
        (a, b): {s: classes[b][presheaf.restrict(a, b, s)] for s in sections[a]}
        for a, b in site.arrows()
    }
    return Presheaf(site, sections, restrictions), classes


def sheafify(presheaf):
    """Sheafification as the plus construction applied twice, P -> P+ -> P++.

    P+ is separated and P++ is a sheaf for J; the unit is the composite of
    the two units, and it is a bijection exactly when the presheaf is a
    sheaf. was_separated_first is True when the presheaf is not separated,
    that is, when the first unit identifies sections.

    Returns (sheaf presheaf, unit maps, was_separated_first).
    """
    plus, unit = _plus(presheaf)
    sheaf, unit2 = _plus(plus)
    separated_first = any(len(set(unit[name].values())) < len(unit[name]) for name in presheaf.site.names())
    return sheaf, compose_maps(presheaf.site, unit, unit2), separated_first


# -- maps of presheaves ----------------------------------------------------


def compose_maps(site, first, then):
    return {name: {s: then[name][first[name][s]] for s in first[name]} for name in site.names()}


# -- subpresheaves of a sheaf ------------------------------------------------


def _check_subpresheaf(ambient, sub_sections):
    site = ambient.site
    for name in site.names():
        extra = set(sub_sections[name]) - set(ambient.sections[name])
        if extra:
            raise StructureError("sections %r of %r are not sections of the ambient sheaf" % (extra, name))
    for a, b in site.arrows():
        for s in sub_sections[a]:
            if ambient.restrict(a, b, s) not in set(sub_sections[b]):
                raise StructureError(
                    "subpresheaf not closed under restriction %r -> %r at %r" % (a, b, s)
                )


def union_intersection(ambient, g_sections, h_sections):
    """Union (sheafified inside the ambient sheaf) and objectwise intersection
    of two subpresheaves; both are returned as section dictionaries. A
    section belongs to the union when its restrictions to the generators of
    S(U) lie in G or H."""
    _check_subpresheaf(ambient, g_sections)
    _check_subpresheaf(ambient, h_sections)
    site = ambient.site
    inter = {
        name: tuple(s for s in ambient.sections[name] if s in set(g_sections[name]) & set(h_sections[name]))
        for name in site.names()
    }
    either = {name: set(g_sections[name]) | set(h_sections[name]) for name in site.names()}
    union = {
        name: tuple(
            s for s, fam in _unit(ambient, name).items()
            if all(v in either[m] for m, v in zip(site.least_sieve(name), fam))
        )
        for name in site.names()
    }
    _check_subpresheaf(ambient, union)
    _check_subpresheaf(ambient, inter)
    return union, inter
