"""Source hygiene: every name a module of the package or of the tests
imports is used in that module.  The package's ``__init__.py`` files
import names only to re-export them and are not scanned."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names bound by the imports of a module and never read in it."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\n"
                          "import x.y\nprint(e, x.y)\n") == ["d", "os"]


def test_no_module_imports_a_name_it_does_not_use():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + \
            sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}
