"""Each command imports only its own modules, and nothing heavier than they
need. Every check runs in a fresh interpreter and compares sys.modules
before and after, because this process has imported far more already
(pytest itself imports inspect)."""

import json
import os
import subprocess
import sys

import pytest

from conftest import fixture_path
from ssetkit import cli

SRC = os.path.dirname(os.path.dirname(cli.__file__))

PROBE = """\
import contextlib, io, json, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
{code}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded(*lines):
    """The modules a fresh interpreter adds to sys.modules while it runs
    lines, with the report a command writes kept off stdout."""
    code = PROBE.format(code="\n".join("    " + line for line in lines))
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "ssetkit"}


def run_main(*argv):
    return "from ssetkit.cli import main; main(%r)" % (list(argv),)


def test_the_package_imports_no_submodule():
    assert package_modules(loaded("import ssetkit")) == {"ssetkit"}


@pytest.mark.parametrize("module", ["simplicial", "io_text", "homology", "cli"])
def test_no_module_loads_dataclasses_or_inspect(module):
    assert {"dataclasses", "inspect"} & loaded("import ssetkit.%s" % module) == set()


def test_homology_loads_exactly_its_own_modules():
    modules = loaded(run_main("homology", fixture_path("torus.sset")))
    assert package_modules(modules) == {"ssetkit"} | {"ssetkit." + m for m in (
        "cli", "errors", "homology", "io_text", "linalg", "reporting", "simplicial")}


@pytest.mark.parametrize("argv", [("kan", "nerve_z2.sset"), ("derham", "delta2.sset", "--poly-degree", "1")],
                         ids=["kan", "derham"])
def test_kan_and_derham_load_no_sheaves_connections_or_subdivision(argv):
    modules = loaded(run_main(argv[0], fixture_path(argv[1]), *argv[2:]))
    assert "ssetkit." + argv[0] in modules
    assert {"ssetkit.sheaves", "ssetkit.connections", "ssetkit.subdivision"} & modules == set()
