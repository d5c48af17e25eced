"""Import hygiene: every module-level import in the package and the tests is
used, and importing the CLI loads no more of numpy than it needs.

No linter ships with the toolchain, so this AST scan stands in for one. The
package's ``__init__.py`` is exempt: its imports are the public re-exports.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "specverify").glob("*.py")
               if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


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


def test_importing_the_cli_loads_no_numpy_random():
    """numpy.random costs milliseconds to import; a CLI call pays it only
    when it first seeds a stream, never at import."""
    code = "import sys, specverify.cli; sys.exit('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
