"""Presheaves on a finite site of subcomplexes, the separated quotient,
sheafification, and unions/intersections of subpresheaves of a sheaf.

The site is a finite poset of subcomplexes of a fixed base, ordered by
inclusion, with declared covering families whose union is the covered
object. The sheaf condition is tested against the declared covers only.
For the quotient and sheafification constructions the declared covers are
saturated with the trivial covers and with restrictions to subobjects,
which is what makes restriction of a local datum another local datum, so
sheafify can change a presheaf that check_status calls a sheaf;
equivalence of sections and of local data is taken as the transitive
closure of the pairwise agreement relation.

Section sets are finite and enumerable throughout; every check here is an
exhaustive search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import StructureError
from .simplicial import _UnionFind, _refusal


class FiniteSite:
    """Finite poset of subcomplexes of a base simplicial set, with covers.

    objects: dict name -> subcomplex (dict dim -> frozenset of identifiers),
             stored over every dimension of the base
    covers:  dict name -> list of tuples of member names

    The names (in name order), the order, the arrows and the meets are
    computed once, here.
    """

    def __init__(self, base, objects, covers):
        self.base = base
        self.objects = {}
        for name, sub in objects.items():
            sub = {n: frozenset(v) for n, v in sub.items()}
            unknown = [s for n, members in sub.items() for s in members if not base.has(n, s)]
            if unknown:
                raise StructureError("object %r contains unknown simplex %r" % (name, unknown[0]))
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
        self._saturated = None

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

    def _restrict_cover(self, cover, below):
        """The nonempty meets of the members of cover with below, in name
        order, each with the positions in cover of the members it meets."""
        positions = {}
        for i, m in enumerate(cover):
            meet = self._meet[(m, below)]
            if meet is not None and any(self.objects[meet].values()):
                positions.setdefault(meet, []).append(i)
        return tuple((meet, tuple(positions[meet])) for meet in sorted(positions, key=str))

    def saturated_covers(self):
        """Declared covers plus trivial covers plus restrictions to subobjects.

        The meets of a cover of U with a subobject V cover V, so every
        restriction to a nonempty V is again a cover. On an empty V it is the
        empty family, which is not taken as a cover: an empty object is an
        object like any other, covered only by its declared covers."""
        if self._saturated is not None:
            return self._saturated
        sat = {name: {(name,)} for name in self._names}
        for name, fams in self.covers.items():
            for fam in fams:
                sat[name].add(tuple(sorted(set(fam), key=str)))
        changed = True
        while changed:
            changed = False
            for name, below in self._arrows:
                for fam in list(sat[name]):
                    restricted = tuple(meet for meet, _ in self._restrict_cover(fam, below))
                    if restricted and restricted not in sat[below]:
                        sat[below].add(restricted)
                        changed = True
        self._saturated = {name: sorted(fams) for name, fams in sat.items()}
        return self._saturated


class Presheaf:
    """Finite set-valued presheaf: sections per object, restriction tables.

    Sections of a name that is not an object, and a restriction along a pair
    that is not one of site.arrows(), are refused; the error's offending
    attribute is ("sections", name) or ("restrict", u, v)."""

    def __init__(self, site, sections, restrictions):
        self.site = site
        for name in sections:
            if name not in site.objects:
                raise _refusal("sections of %r, which is not an object of the site" % (name,), ("sections", name))
        self.sections = {name: tuple(sections[name]) for name in site.names() if name in sections}
        self.res = {}
        arrows = set(site.arrows())
        for (u, v), table in restrictions.items():
            if (u, v) not in arrows:
                raise _refusal("restriction %r -> %r is not an arrow of the site" % (u, v), ("restrict", u, v))
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


@dataclass
class SheafStatus:
    separated: bool
    sheaf: bool
    witness: object = None  # (object, cover, family, number of gluings)


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


def check_status(presheaf):
    """Test existence and uniqueness of gluings for every declared cover, not
    the saturated covers that sheafify glues over."""
    return _gluing_status(presheaf, presheaf.site.covers)


def _gluing_status(presheaf, covers):
    """check_status over covers, a dict name -> list of covers."""
    site = presheaf.site
    separated = True
    sheaf = True
    witness = None
    for name in site.names():
        for cover in covers.get(name, []):
            for family in _compatible_families(presheaf, cover):
                gluings = sum(
                    all(presheaf.restrict(name, m, s) == v for m, v in zip(cover, family))
                    for s in presheaf.sections[name]
                )
                if gluings != 1:
                    sheaf = False
                    separated = separated and gluings == 0
                    if witness is None:
                        witness = (name, cover, family, gluings)
    return SheafStatus(separated, sheaf, witness)


def separated_quotient(presheaf):
    """The separated reflection: sections modulo agreement on some cover.

    The agreement relation is closed transitively, and the quotient is
    repeated until the result tests separated; on sites whose covers restrict
    well a single pass suffices.

    Returns (quotient presheaf, unit maps per object).
    """
    current = presheaf
    unit = {name: {s: s for s in presheaf.sections[name]} for name in presheaf.site.names()}
    for _ in range(sum(len(s) for s in presheaf.sections.values()) + 1):
        current, step = _separate_once(current)
        unit = compose_maps(presheaf.site, unit, step)
        if check_status(current).separated:
            return current, unit
    raise StructureError("separated quotient failed to stabilize")


def _separate_once(presheaf):
    site = presheaf.site
    sat = site.saturated_covers()
    classes = {}
    for name in site.names():
        uf = _UnionFind(presheaf.sections[name])
        for cover in sat[name]:
            if cover == (name,):
                continue
            agreeing = {}  # restrictions to the cover -> first section with them
            for s in presheaf.sections[name]:
                uf.union(s, agreeing.setdefault(tuple(presheaf.restrict(name, m, s) for m in cover), s))
        # each class is labeled by the least rendering of its members
        classes[name] = {s: min(map(str, g)) for g in uf.groups().values() for s in g}
    sections = {name: tuple(sorted(set(classes[name].values()))) for name in site.names()}
    restrictions = {
        (a, b): {classes[a][s]: classes[b][presheaf.restrict(a, b, s)] for s in presheaf.sections[a]}
        for a, b in site.arrows()
    }
    return Presheaf(site, sections, restrictions), classes


def sheafify(presheaf):
    """Sheafification via equivalence classes of local data.

    A step separates its input first when needed (for the input itself this
    is recorded in the returned record), then takes the classes of local
    data: compatible families over the saturated covers, two equivalent when
    they agree on the pairwise meets of their members, closed transitively.
    Saturated covers need not compose, so the step is repeated until the
    result glues uniquely on every saturated cover; on such an input one
    step is a bijection. check_status tests only the declared covers, so a
    presheaf it calls a sheaf can still gain sections here.

    A site with an arrow into an empty object is refused: a local datum
    restricts there to the empty family, which is not a cover.

    Returns (sheaf presheaf, unit maps, was_separated_first).
    """
    site = presheaf.site
    for a, b in site.arrows():
        if not any(site.objects[b].values()):
            raise StructureError("sheafify is undefined on a site with the empty object %r below %r" % (b, a))
    result, unit, separated_first = _sheafify_step(presheaf)
    for _ in range(len(site.names())):
        if _gluing_status(result, site.saturated_covers()).sheaf:
            return result, unit, separated_first
        result, step, _ = _sheafify_step(result)
        unit = compose_maps(site, unit, step)
    raise StructureError("sheafification failed to stabilize")


def _sheafify_step(presheaf):
    """One step of sheafify: (result, unit maps, was_separated_first)."""
    status = check_status(presheaf)
    separated_first = not status.separated
    unit0 = {name: {s: s for s in presheaf.sections[name]} for name in presheaf.site.names()}
    base = presheaf
    if separated_first:
        base, unit0 = separated_quotient(presheaf)
    site = base.site
    sat = site.saturated_covers()

    data = {
        name: [(cover, family) for cover in sat[name] for family in _compatible_families(base, cover)]
        for name in site.names()
    }

    def agree(d1, d2):
        """Whether two local data agree on the pairwise meets of their members."""
        for m1, v1 in zip(*d1):
            for m2, v2 in zip(*d2):
                meet = site.meet(m1, m2)
                if meet is not None and base.restrict(m1, meet, v1) != base.restrict(m2, meet, v2):
                    return False
        return True

    label_of = {}  # name -> local datum (cover, family) -> label of its class
    sections = {}
    for name in site.names():
        items = data[name]
        uf = _UnionFind(range(len(items)))
        for i, j in itertools.combinations(range(len(items)), 2):
            if agree(items[i], items[j]):
                uf.union(i, j)
        # deterministic labels ordered by the representative datum
        groups = sorted(uf.groups().values(), key=lambda g: _datum_key(items[min(g)]))
        label = {i: "c%d" % pos for pos, g in enumerate(groups) for i in g}
        sections[name] = tuple("c%d" % pos for pos in range(len(groups)))
        label_of[name] = {datum: label[i] for i, datum in enumerate(items)}

    def datum_class(name, datum):
        label = label_of[name].get(datum)
        if label is None:
            raise StructureError("datum not enumerated on %r" % (name,))
        return label

    restrictions = {}
    for a, b in site.arrows():
        table = {}
        for cover, family in data[a]:
            cls = label_of[a][(cover, family)]
            if cls in table:
                continue
            cover_b, fam_b = [], []
            for meet, positions in site._restrict_cover(cover, b):
                values = {base.restrict(cover[i], meet, family[i]) for i in positions}
                if len(values) > 1:
                    raise StructureError("restricted datum disagrees with itself")
                cover_b.append(meet)
                fam_b.extend(values)
            table[cls] = datum_class(b, (tuple(cover_b), tuple(fam_b)))
        restrictions[(a, b)] = table
    result = Presheaf(site, sections, restrictions)
    unit = {
        name: {s0: datum_class(name, ((name,), (unit0[name][s0],))) for s0 in unit0[name]}
        for name in site.names()
    }
    return result, unit, separated_first


def _datum_key(item):
    cover, family = item
    return (tuple(str(m) for m in cover), tuple(str(v) for v in family))


# -- maps of presheaves ----------------------------------------------------


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
    of two subpresheaves; both are returned as section dictionaries."""
    _check_subpresheaf(ambient, g_sections)
    _check_subpresheaf(ambient, h_sections)
    site = ambient.site
    inter = {
        name: tuple(s for s in ambient.sections[name] if s in set(g_sections[name]) & set(h_sections[name]))
        for name in site.names()
    }
    sat = site.saturated_covers()
    union = {}
    for name in site.names():
        keep = []
        for s in ambient.sections[name]:
            for cover in sat[name]:
                if all(
                    ambient.restrict(name, m, s) in (set(g_sections[m]) | set(h_sections[m]))
                    for m in cover
                ):
                    keep.append(s)
                    break
        union[name] = tuple(keep)
    _check_subpresheaf(ambient, union)
    _check_subpresheaf(ambient, inter)
    return union, inter


def sub_to_presheaf(ambient, sub_sections):
    """A subpresheaf of a sheaf as a standalone Presheaf."""
    site = ambient.site
    restrictions = {
        (a, b): {s: ambient.restrict(a, b, s) for s in sub_sections[a]}
        for a, b in site.arrows()
    }
    return Presheaf(site, sub_sections, restrictions)
