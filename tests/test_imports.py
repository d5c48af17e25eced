"""Import hygiene: every module-level import in the package and the tests is
used, every module-level function and class of the package is used by the
package itself, only the controller plans chunks and steps envs, and importing
the CLI loads no more of numpy than it needs.

No linter ships with the toolchain, so these AST scans stand in for one. The
package's ``__init__.py`` is exempt: its imports are the public re-exports.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "specverify").glob("*.py")
                 if p.name != "__init__.py")
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n") == [
        "line 1: os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unused_definitions(sources: dict) -> list:
    """Module-level functions and classes of ``{module name: source}`` whose
    name no other module-level statement of these modules reads."""
    nodes = [(module, node) for module, source in sources.items()
             for node in ast.parse(source).body]
    defined = [(module, node.name) for module, node in nodes
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return [f"{module}.{name}" for module, name in defined
            if not any(n.id == name for owner, node in nodes
                       if (owner, getattr(node, "name", None)) != (module, name)
                       for n in ast.walk(node) if isinstance(n, ast.Name))]


def test_scan_finds_an_unused_definition():
    sources = {"a": "def f():\n    return f()\n\n\nclass C:\n    pass\n",
               "b": "from a import C\n\n\ndef g():\n    return C()\n\n\ng()\n"}
    assert unused_definitions(sources) == ["a.f"]


def test_package_definitions_are_used():
    """A function or class only the tests call is test code: it belongs in the
    tests, or nowhere."""
    assert unused_definitions({p.stem: p.read_text() for p in PACKAGE}) == []


def rollout_calls(source: str) -> list:
    """Lines that call an attribute named ``plan`` or ``step``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("plan", "step")]


def test_scan_finds_a_rollout_call():
    assert rollout_calls("out = planner.plan(s)\nn = env.state.step\nenv.step(a)\n") == [1, 3]


def test_one_rollout_loop():
    """Only the controller's episode loop plans chunks and steps envs; the
    training collection and the harness drive episodes through it."""
    calls = {p.stem: lines for p in PACKAGE if (lines := rollout_calls(p.read_text()))}
    assert calls.keys() == {"controller"}


def test_importing_the_cli_loads_no_numpy_random():
    """numpy.random costs milliseconds to import; a CLI call pays it only
    when it first seeds a stream, never at import."""
    code = "import sys, specverify.cli; sys.exit('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
