"""Every public function, class and method of ssetkit has a user outside the
tests: the package itself (a command or a certificate), scripts/ or
perfbench/ uses it, or it is one of the documented properties of the
paper's constructions listed below. A name only tests call belongs beside
those tests, and a test helper that no test reads goes.

Uses are found with ast. A module-level function or class is used when its
name is read as a variable, an attribute or an import; the re-exports of
ssetkit/__init__.py are not uses. A method is used only when it is called
as .name(...), and a property when .name is read, so a method whose name
matches some other attribute (an argparse option, a field) does not pass
for it. Every top-level function of tests/oracles.py and tests/conftest.py
is read by another test module or by another function or class of its own
module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssetkit"
TESTS = ROOT / "tests"
HELPERS = ("oracles.py", "conftest.py")

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
}


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def public_definitions():
    """(module.name or module.Class.method, bare name, kind) of every public
    module-level function and class of the package and every public method
    of those classes; kind is "name", "method" or "property"."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield "%s.%s" % (path.stem, node.name), node.name, "name"
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            kind = "property" if _is_property(item) else "method"
                            yield "%s.%s.%s" % (path.stem, node.name, item.name), item.name, kind


def read_names(tree):
    """Every name tree reads as a variable, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def used_names():
    """{"name", "method", "property"} to the names of that kind used outside
    the tests: names read, methods called as .name(...), attributes read."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    used = {"name": set(), "method": set(), "property": set()}
    for path in paths:
        tree = ast.parse(path.read_text())
        used["name"] |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used["property"].add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                used["method"].add(node.func.attr)
    return used


def test_every_public_name_has_a_user_outside_the_tests():
    used = used_names()
    assert [q for q, name, kind in public_definitions() if name not in used[kind] and q not in PAPER_PROPERTIES] == []


def test_the_paper_property_list_names_only_defined_unused_names():
    used = used_names()
    defined = {q: (name, kind) for q, name, kind in public_definitions()}
    assert sorted(q for q in PAPER_PROPERTIES if q not in defined or defined[q][0] in used[defined[q][1]]) == []


def test_every_test_helper_is_read_by_another_test_module_or_helper():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))}
    unread = []
    for module in HELPERS:
        elsewhere = set().union(*(read_names(tree) for name, tree in trees.items() if name != module))
        helpers = [node for node in trees[module].body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in helpers:
            others = set().union(*(read_names(other) for other in helpers if other is not node))
            if isinstance(node, ast.FunctionDef) and node.name not in elsewhere | others:
                unread.append("%s.%s" % (module[:-3], node.name))
    assert unread == []
