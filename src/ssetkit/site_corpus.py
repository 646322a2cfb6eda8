"""Stock presheaves on a finite site: constants, vertex functions, and the
representable presheaf of simplicial maps into the standard 1-simplex.

These are the working examples the sheaf machinery is exercised against.
All sections are labeled deterministically so reports and golden files
stay byte-stable.
"""

from __future__ import annotations

import itertools

from .sheaves import Presheaf


def constant_presheaf(site, labels):
    """The same finite section set on every object, identity restrictions."""
    labels = tuple(labels)
    sections = {name: labels for name in site.names()}
    restrictions = {arrow: {s: s for s in labels} for arrow in site.arrows()}
    return Presheaf(site, sections, restrictions)


def _vertices(site, name):
    return tuple(sorted(site.objects[name][0]))


def _label(assignment):
    """The assignment as 'v=val' pairs joined by '|'; the empty assignment,
    the one section on an object without vertices, is '{}'."""
    return "|".join("%s=%s" % (v, val) for v, val in assignment) or "{}"


def _vertex_presheaf(site, sections, table):
    """Presheaf of vertex assignments; table[(name, label)] is the assignment
    of a section, and restriction keeps the smaller object's vertices."""
    restrictions = {
        (a, b): {
            s: _label(tuple((v, table[(a, s)][v]) for v in _vertices(site, b)))
            for s in sections[a]
        }
        for a, b in site.arrows()
    }
    return Presheaf(site, sections, restrictions)


def vertex_functions(site, values=(0, 1)):
    """U maps to all functions from the vertices of U to a fixed value set."""
    sections = {}
    table = {}
    for name in site.names():
        verts = _vertices(site, name)
        items = []
        for vals in itertools.product(values, repeat=len(verts)):
            assignment = tuple(zip(verts, vals))
            items.append(_label(assignment))
            table[(name, _label(assignment))] = dict(assignment)
        sections[name] = tuple(sorted(items))
    return _vertex_presheaf(site, sections, table)


def representable_to_delta1(site):
    """U maps to the simplicial maps U -> Delta^1.

    A vertex assignment to {0, 1} induces a simplicial map exactly when it
    is weakly increasing along the ordered vertices of every nondegenerate
    simplex of U, the target being the nerve of the poset 0 < 1.
    """
    x = site.base
    sections = {}
    table = {}
    for name in site.names():
        verts = _vertices(site, name)
        items = []
        for vals in itertools.product((0, 1), repeat=len(verts)):
            lookup = dict(zip(verts, vals))
            ok = True
            for n in range(1, x.dim_cap + 1):
                for s in site.objects[name][n]:
                    if x.is_degenerate(n, s):
                        continue
                    imgs = [lookup[v] for v in x.vertices_of(n, s)]
                    if any(imgs[i] > imgs[i + 1] for i in range(len(imgs) - 1)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                assignment = tuple(zip(verts, vals))
                items.append(_label(assignment))
                table[(name, _label(assignment))] = dict(assignment)
        sections[name] = tuple(sorted(items))
    return _vertex_presheaf(site, sections, table)
