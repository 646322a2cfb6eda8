"""Presheaves on a finite site of subcomplexes, the separated quotient,
sheafification, and unions/intersections of subpresheaves of a sheaf.

The site is a finite poset of subcomplexes of a fixed base, ordered by
inclusion, with declared covering families whose union is the covered
object. The sheaf condition is tested against every declared cover. For
the quotient and sheafification constructions the declared covers are
saturated with the trivial covers and with restrictions to subobjects,
which is what makes restriction of a local datum another local datum;
equivalence of sections and of local data is taken as the transitive
closure of the pairwise agreement relation.

Section sets are finite and enumerable throughout; every check here is an
exhaustive search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import StructureError
from .simplicial import _UnionFind, sub_intersection, sub_union


def _sub_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(n, frozenset()) == b.get(n, frozenset()) for n in keys)


def _sub_leq(a, b):
    keys = set(a) | set(b)
    return all(a.get(n, frozenset()) <= b.get(n, frozenset()) for n in keys)


def _sub_empty(a):
    return all(not v for v in a.values())


class FiniteSite:
    """Finite poset of subcomplexes of a base simplicial set, with covers.

    objects: dict name -> subcomplex (dict dim -> frozenset of identifiers)
    covers:  dict name -> list of tuples of member names
    """

    def __init__(self, base, objects, covers):
        self.base = base
        self.objects = {name: {n: frozenset(v) for n, v in sub.items()} for name, sub in objects.items()}
        self.covers = {name: [tuple(fam) for fam in fams] for name, fams in covers.items()}
        self._leq = {}
        self._meet = {}
        self._validate()
        self._saturated = None

    def _validate(self):
        names = sorted(self.objects, key=str)
        for name, sub in self.objects.items():
            for n, members in sub.items():
                for s in members:
                    if not self.base.has(n, s):
                        raise StructureError("object %r contains unknown simplex %r" % (name, s))
        for a, b in itertools.product(names, repeat=2):
            self._leq[(a, b)] = _sub_leq(self.objects[a], self.objects[b])
        self._arrows = tuple(
            (a, b) for a, b in itertools.product(names, repeat=2) if a != b and self._leq[(b, a)]
        )
        for a, b in itertools.product(names, repeat=2):
            meet = sub_intersection(self.objects[a], self.objects[b])
            found = None
            for c in names:
                if _sub_eq(self.objects[c], meet):
                    found = c
                    break
            if found is None and not _sub_empty(meet):
                raise StructureError(
                    "intersection of %r and %r is missing from the poset" % (a, b)
                )
            self._meet[(a, b)] = found
        for name, fams in self.covers.items():
            if name not in self.objects:
                raise StructureError("cover declared on unknown object %r" % (name,))
            for fam in fams:
                union = {}
                for m in fam:
                    if m not in self.objects:
                        raise StructureError("cover member %r unknown" % (m,))
                    if not self._leq[(m, name)]:
                        raise StructureError("cover member %r not below %r" % (m, name))
                    union = sub_union(union, self.objects[m])
                if not _sub_eq(union, self.objects[name]):
                    raise StructureError("cover of %r does not exhaust it" % (name,))

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
        return sorted(self.objects, key=str)

    def saturated_covers(self):
        """Declared covers plus trivial covers plus restrictions to subobjects."""
        if self._saturated is not None:
            return self._saturated
        sat = {name: {(name,)} for name in self.names()}
        for name, fams in self.covers.items():
            for fam in fams:
                sat[name].add(tuple(sorted(set(fam), key=str)))
        changed = True
        while changed:
            changed = False
            for name in self.names():
                for fam in list(sat[name]):
                    for below in self.names():
                        if below == name or not self.leq(below, name):
                            continue
                        members = []
                        for m in fam:
                            mm = self.meet(m, below)
                            if mm is not None and not _sub_empty(self.objects[mm]):
                                members.append(mm)
                        restricted = tuple(sorted(set(members), key=str))
                        if restricted and restricted not in sat[below]:
                            union = {}
                            for m in restricted:
                                union = sub_union(union, self.objects[m])
                            if _sub_eq(union, self.objects[below]):
                                sat[below].add(restricted)
                                changed = True
        self._saturated = {name: sorted(fams) for name, fams in sat.items()}
        return self._saturated


class Presheaf:
    """Finite set-valued presheaf: sections per object, restriction tables."""

    def __init__(self, site, sections, restrictions):
        self.site = site
        self.sections = {name: tuple(sections[name]) for name in site.names() if name in sections}
        self.res = {}
        for (u, v), table in restrictions.items():
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
    """Test existence and uniqueness of gluings for every declared cover."""
    site = presheaf.site
    separated = True
    sheaf = True
    witness = None
    for name in site.names():
        for cover in site.covers.get(name, []):
            for family in _compatible_families(presheaf, cover):
                gluings = [
                    s
                    for s in presheaf.sections[name]
                    if all(
                        presheaf.restrict(name, m, s) == family[i]
                        for i, m in enumerate(cover)
                    )
                ]
                if len(gluings) > 1:
                    separated = False
                    sheaf = False
                    if witness is None:
                        witness = (name, cover, family, len(gluings))
                if len(gluings) == 0:
                    sheaf = False
                    if witness is None:
                        witness = (name, cover, family, 0)
    return SheafStatus(separated, sheaf, witness)


def _canonical_label(members):
    return min(str(m) for m in members)


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
        nxt, step = _separate_once(current)
        unit = {
            name: {s: step[name][unit[name][s]] for s in unit[name]}
            for name in unit
        }
        current = nxt
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
            for a, b in itertools.combinations(presheaf.sections[name], 2):
                if all(
                    presheaf.restrict(name, m, a) == presheaf.restrict(name, m, b)
                    for m in cover
                ):
                    uf.union(a, b)
        classes[name] = {s: _canonical_label(g) for g in uf.groups().values() for s in g}
    sections = {
        name: tuple(sorted(set(classes[name].values())))
        for name in site.names()
    }
    restrictions = {}
    for a, b in site.arrows():
        table = {}
        for s in presheaf.sections[a]:
            table[classes[a][s]] = classes[b][presheaf.restrict(a, b, s)]
        restrictions[(a, b)] = table
    return Presheaf(site, sections, restrictions), classes


def sheafify(presheaf):
    """Sheafification via equivalence classes of local data.

    The input is separated first when needed (recorded in the returned
    record). Local data run over the saturated covers; two data are
    equivalent when they agree on the pairwise meets of their members, the
    relation again closed transitively.

    Returns (sheaf presheaf, unit maps, was_separated_first).
    """
    status = check_status(presheaf)
    separated_first = not status.separated
    unit0 = {name: {s: s for s in presheaf.sections[name]} for name in presheaf.site.names()}
    base = presheaf
    if separated_first:
        base, unit0 = separated_quotient(presheaf)
    site = base.site
    sat = site.saturated_covers()

    data = {}
    for name in site.names():
        items = []
        for cover in sat[name]:
            for family in _compatible_families(base, cover):
                items.append((cover, family))
        data[name] = items

    def agree(name, d1, d2):
        c1, f1 = d1
        c2, f2 = d2
        for i, m1 in enumerate(c1):
            for j, m2 in enumerate(c2):
                meet = site.meet(m1, m2)
                if meet is None:
                    continue
                if base.restrict(m1, meet, f1[i]) != base.restrict(m2, meet, f2[j]):
                    return False
        return True

    label_of = {}  # name -> local datum (cover, family) -> label of its class
    sections = {}
    for name in site.names():
        items = data[name]
        uf = _UnionFind(range(len(items)))
        for i, j in itertools.combinations(range(len(items)), 2):
            if agree(name, items[i], items[j]):
                uf.union(i, j)
        # deterministic labels ordered by the representative datum
        groups = sorted(uf.groups().values(), key=lambda g: _datum_key(items[min(g)]))
        label = {i: "c%d" % pos for pos, g in enumerate(groups) for i in g}
        sections[name] = tuple("c%d" % pos for pos in range(len(groups)))
        label_of[name] = {}
        for i, datum in enumerate(items):
            label_of[name].setdefault(datum, label[i])

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
            members = []
            values = []
            for m, val in zip(cover, family):
                mm = site.meet(m, b)
                if mm is None or _sub_empty(site.objects[mm]):
                    continue
                members.append(mm)
                values.append(base.restrict(m, mm, val))
            # deduplicate members while keeping value agreement
            dedup = {}
            for m, v in zip(members, values):
                if m in dedup and dedup[m] != v:
                    raise StructureError("restricted datum disagrees with itself")
                dedup[m] = v
            cover_b = tuple(sorted(dedup, key=str))
            fam_b = tuple(dedup[m] for m in cover_b)
            table[cls] = datum_class(b, (cover_b, fam_b))
        restrictions[(a, b)] = table
    result = Presheaf(site, sections, restrictions)
    unit = {}
    for name in site.names():
        table = {}
        for s in base.sections[name]:
            table[s] = datum_class(name, ((name,), (s,)))
        unit[name] = {s0: table[unit0[name][s0]] for s0 in unit0[name]}
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
