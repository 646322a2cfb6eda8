"""Regenerate the committed corpus fixture files from the library.

Run from the repository root:  python scripts/make_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fractions import Fraction

from ssetkit.connections import EdgeGluing, U1BundleData
from ssetkit.forms import PolyForm, TAU, elementary_whitney
from ssetkit.io_text import (
    relabel_as_strings,
    render_form,
    serialize_complex,
    serialize_cover,
    serialize_map,
    serialize_site_presheaf,
    serialize_u1,
)
from ssetkit.simplicial import (
    SimplicialMap,
    circle_two_edges,
    close_subcomplex,
    cyclic_table,
    nerve,
    product,
    simplicial_complex,
    sphere_quotient,
    standard_boundary,
    standard_delta,
)
from ssetkit.sheaves import FiniteSite
from ssetkit.site_corpus import constant_presheaf, representable_to_delta1

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def write(name, text):
    path = os.path.join(FIXDIR, name)
    with open(path, "w") as fh:
        fh.write(text)
    print("wrote", name)


def main():
    os.makedirs(FIXDIR, exist_ok=True)

    write("point.sset", serialize_complex(standard_delta(0, 2)))
    write("delta1.sset", serialize_complex(standard_delta(1, 2)))
    write("delta2.sset", serialize_complex(standard_delta(2)))
    write("bd_delta3.sset", serialize_complex(standard_boundary(3)))
    write("sphere2.sset", serialize_complex(sphere_quotient(2)))
    write("circle2.sset", serialize_complex(circle_two_edges(2)))
    write("rp2.sset", serialize_complex(simplicial_complex(RP2_FACETS, 3)))
    torus = product(sphere_quotient(1, 3), sphere_quotient(1, 3))
    write("torus.sset", serialize_complex(torus))
    write("nerve_z2.sset", serialize_complex(nerve(cyclic_table(2), 3)))
    write("nerve_z3.sset", serialize_complex(nerve(cyclic_table(3), 3)))

    # deliberately broken: dangling face reference
    write(
        "corrupt_dangling.sset",
        "sset 1\ncap 1\ndim 0\nv0 | deg e00\ndim 1\ne00 | faces v0 v1\n",
    )
    # deliberately broken: the standard 2-simplex with d_0 and d_1 of (0,1,2)
    # swapped, complete tables that break d_i d_j = d_{j-1} d_i
    delta2 = serialize_complex(standard_delta(2))
    row = "(0,1,2) | faces (1,2) (0,2) (0,1)\n"
    assert row in delta2
    write("corrupt_identity.sset", delta2.replace(row, "(0,1,2) | faces (0,2) (1,2) (0,1)\n"))

    # Mayer-Vietoris covers, in the string identifiers of the fixture files
    b3 = relabel_as_strings(standard_boundary(3))
    star = close_subcomplex(
        b3, {n: [s for s in b3.nondegenerate(n) if "0" in s.strip("()").split(",")] for n in b3.dims()}
    )
    comp = close_subcomplex(
        b3, {n: [s for s in b3.nondegenerate(n) if s not in star.get(n, ())] for n in b3.dims()}
    )
    write("bd_delta3_star.cover", serialize_cover(star, comp))

    circle = relabel_as_strings(circle_two_edges(2))
    edge_a = close_subcomplex(circle, {1: ["a"]})
    edge_b = close_subcomplex(circle, {1: ["b"]})
    write("circle2.cover", serialize_cover(edge_a, edge_b))

    # sites: a connected path and a disconnected pair of points
    path = relabel_as_strings(simplicial_complex([[0, 1], [1, 2]], 1))
    objs = {
        "X": close_subcomplex(path, {1: ["(0,1)", "(1,2)"]}),
        "A": close_subcomplex(path, {1: ["(0,1)"]}),
        "B": close_subcomplex(path, {1: ["(1,2)"]}),
        "M": close_subcomplex(path, {0: ["(1)"]}),
    }
    site = FiniteSite(path, objs, {"X": [("A", "B")]})
    write("site_path_representable.site", serialize_site_presheaf(representable_to_delta1(site)))
    write("path.sset", serialize_complex(path))

    two = relabel_as_strings(simplicial_complex([[0], [1]], 1))
    objs2 = {
        "X": close_subcomplex(two, {0: ["(0)", "(1)"]}),
        "U0": close_subcomplex(two, {0: ["(0)"]}),
        "U1": close_subcomplex(two, {0: ["(1)"]}),
    }
    site2 = FiniteSite(two, objs2, {"X": [("U0", "U1")]})
    write("site_two_points_constant.site", serialize_site_presheaf(constant_presheaf(site2, ("a", "b"))))
    write("two_points.sset", serialize_complex(two))

    # simplicial maps: inclusion of the boundary (not a fibration) and a projection
    b2 = standard_boundary(2, 2)
    d2 = standard_delta(2)
    incl = SimplicialMap(b2, d2, {n: {s: s for s in b2.simplices[n]} for n in b2.dims()})
    write("incl_bd2.smap", serialize_map(incl))
    nz2 = nerve(cyclic_table(2), 2)
    d1 = standard_delta(1, 2)
    prod = product(d1, nz2)
    proj = SimplicialMap(prod, d1, {n: {s: s[0] for s in prod.simplices[n]} for n in prod.dims()})
    write("proj_d1_nz2.smap", serialize_map(proj))

    # abelian bundles over the tetrahedron boundary
    tris = ["012", "013", "023", "123"]
    ors = {"012": 1, "013": -1, "023": 1, "123": -1}

    def face_edge(t, i):
        return "".join(v for j, v in enumerate(t) if j != i)

    pairs = {}
    for t in tris:
        for i in range(3):
            pairs.setdefault(face_edge(t, i), []).append((t, i))
    zero_p = PolyForm.zero(1, 0)
    zero_a = PolyForm.zero(2, 1)
    trivial = U1BundleData(
        tris, ors, {t: zero_a for t in tris},
        [EdgeGluing(s[0], s[1], False, zero_p, 0) for s in pairs.values()],
    )
    write("u1_trivial.u1", serialize_u1(trivial))

    whitney01 = elementary_whitney(2, (0, 1))
    tau_form = PolyForm(2, 1, {k: TAU * c for k, c in whitney01.terms.items()})
    forms = {t: (tau_form if t == "012" else zero_a) for t in tris}
    gluings = []
    for e, sides in pairs.items():
        plus, minus = sides
        winding = 0
        if e == "01":
            winding = 1 if plus[0] == "012" else -1
        gluings.append(EdgeGluing(plus, minus, False, zero_p, winding))
    write("u1_unit.u1", serialize_u1(U1BundleData(tris, ors, forms, gluings)))

    # extension problems
    f1 = PolyForm.from_raw(1, 0, [(Fraction(1), (0, 1), ())])
    write(
        "extend_n2.ext",
        "extend 1\nn 2\nface 1 entry 0 0 : %s\nface 2 entry 0 0 : %s\n"
        % (render_form(f1), render_form(PolyForm.zero(1, 0))),
    )
    edge_whitney = elementary_whitney(1, (0, 1))
    write(
        "extend_horn.ext",
        "extend 1\nn 2\nmissing 0\nalgebra abelian-1d\n"
        "face 1 entry 0 0 : %s\nface 2 entry 0 0 : %s\n"
        % (render_form(edge_whitney.scale(2)), render_form(edge_whitney.scale(2))),
    )
    write(
        "extend_bad.ext",
        "extend 1\nn 2\nface 1 entry 0 0 : %s\nface 2 entry 0 0 : %s\n"
        % (render_form(PolyForm.constant(1, 1)), render_form(PolyForm.constant(1, 0))),
    )
    # a horn missing d_2 whose given faces d_0 and d_1 disagree at their common vertex
    write(
        "extend_horn_bad.ext",
        "extend 1\nn 2\nmissing 2\nface 0 entry 0 0 : %s\nface 1 entry 0 0 : %s\n"
        % (render_form(PolyForm.constant(1, 1)), render_form(PolyForm.constant(1, 0))),
    )

    # without an algebra only entry 0 0 is read, so entry 0 1 is refused
    write(
        "extend_offmatrix.ext",
        "extend 1\nn 2\nface 1 entry 0 0 : %s\nface 1 entry 0 1 : %s\nface 2 entry 0 0 : %s\n"
        % (render_form(f1), render_form(f1), render_form(PolyForm.zero(1, 0))),
    )

    # tau scalars: an off-diagonal sl2 entry extends; two faces that
    # disagree at their common vertex are a verified negative
    tau_f1 = f1.scale(TAU)
    write(
        "extend_tau.ext",
        "extend 1\nn 2\nalgebra sl2\nface 1 entry 0 1 : %s\nface 2 entry 0 1 : %s\n"
        % (render_form(tau_f1), render_form(PolyForm.zero(1, 0))),
    )
    write(
        "extend_tau_bad.ext",
        "extend 1\nn 2\nface 1 entry 0 0 : %s\nface 2 entry 0 0 : %s\n"
        % (render_form(PolyForm.constant(1, TAU)), render_form(tau_f1)),
    )


if __name__ == "__main__":
    main()
