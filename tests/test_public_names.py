"""Every public function, class and method of ssetkit has a user outside the
tests: the package itself (a command or a certificate), scripts/ or
perfbench/ uses it, or it is one of the documented properties of the
paper's constructions listed below. A name only tests call belongs beside
those tests, and a test helper that no test reads goes.

Uses are found with ast. A module-level function, class or namedtuple
record is used when its name is read as a bare name, imported, or read as
an attribute of an ssetkit module (io_text.parse_complex), so an attribute
of another object with the same name does not pass for it. A method is used only when it is
called as .name(...), and a property when .name is read, so a method whose
name matches some other attribute (an argparse option, a field) does not
pass for it. Every top-level function of tests/oracles.py and tests/conftest.py
is read by another test module or by another function or class of its own
module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssetkit"
TESTS = ROOT / "tests"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
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


def _is_record(node):
    """A module-level Name = namedtuple(...) statement."""
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "namedtuple")


def public_definitions():
    """(module.name or module.Class.method, bare name, kind) of every public
    module-level function, class and namedtuple record of the package and
    every public method of those classes; kind is "name", "method" or
    "property"."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_record(node) and not node.targets[0].id.startswith("_"):
                yield "%s.%s" % (path.stem, node.targets[0].id), node.targets[0].id, "name"
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


def module_level_uses(tree):
    """Every name tree reads as a bare name, imports, or reads as an
    attribute of an ssetkit module: the package or a module of it bound by
    an import (import ssetkit, from . import m, from ssetkit import m), or
    such a module's module attribute (ssetkit.m)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "ssetkit" for alias in node.names if alias.name.split(".")[0] == "ssetkit"}
        elif isinstance(node, ast.ImportFrom) and (node.level and not node.module or node.module == "ssetkit"):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name in MODULES}

    def is_module(node):
        if isinstance(node, ast.Name):
            return node.id in modules
        return isinstance(node, ast.Attribute) and node.attr in MODULES and is_module(node.value)

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and is_module(node.value):
            names.add(node.attr)
    return names


def used_names():
    """{"name", "method", "property"} to the names of that kind used outside
    the tests: module-level names used (module_level_uses), methods called
    as .name(...), attributes read."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    used = {"name": set(), "method": set(), "property": set()}
    for path in paths:
        tree = ast.parse(path.read_text())
        used["name"] |= module_level_uses(tree)
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
