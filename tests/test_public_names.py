"""Every public function, class and method of ssetkit has a user outside the
tests: the package itself (a command or a certificate), scripts/ or
perfbench/ reads it, or it is one of the documented properties of the
paper's constructions listed below. A name only tests call belongs beside
those tests.

A use is a name read as a variable, an attribute or an import, found with
ast; the re-exports of ssetkit/__init__.py are not uses. A method counts as
used when any attribute of that name is read, so the check is loose for
short method names and exact for module-level ones.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssetkit"

# Public names that no command, certificate, script or benchmark job calls,
# kept as constructions and properties of the paper, each with its tests.
PAPER_PROPERTIES = {
    "forms.derham_map",                  # integration of forms, the comparison map
    "homology.induced_map",              # functoriality of cohomology along maps
    "connections.curvature",             # F = dA + A ^ A, which satisfies Bianchi
    "connections.chern_weil_form",       # tr F^k, closed and natural
    "connections.extra_degeneracy_value",  # the numeric extra-degeneracy operator
    "connections.MatrixLieAlgebra.bracket",  # the commutator of the algebra
    "kan.ExtraDegeneracy",               # the s_{-1} tables the check below takes
    "kan.check_extra_degeneracy",        # contractibility from an extra degeneracy
    "sheaves.separated_quotient",        # the image of the unit P -> P+
    "sheaves.union_intersection",        # the lattice of subpresheaves of a sheaf
    "site_corpus.vertex_functions",      # the presheaf of vertex functions
    "subdivision.cone",                  # the cone operator of the subdivision
    "simplicial.SimplicialMap.compose",  # maps compose
    "forms.PolyForm.coordinate",         # the barycentric coordinates t_i
    "simplicial.standard",               # the standard objects by name; tests only
}


def public_definitions():
    """(module.name or module.Class.method, bare name) of every public
    module-level function and class of the package and every public method
    of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield "%s.%s" % (path.stem, node.name), node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            yield "%s.%s.%s" % (path.stem, node.name, item.name), item.name


def used_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_user_outside_the_tests():
    used = used_names()
    assert [q for q, name in public_definitions() if name not in used and q not in PAPER_PROPERTIES] == []


def test_the_paper_property_list_names_only_defined_unused_names():
    used = used_names()
    defined = dict(public_definitions())
    assert sorted(q for q in PAPER_PROPERTIES if q not in defined or defined[q] in used) == []
