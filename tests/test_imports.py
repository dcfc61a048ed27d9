"""Every module of the package uses what it imports.

No linter is a test dependency, so the check reads each module's syntax
tree with ``ast``: a name bound by an import must be read somewhere in the
module. ``__init__`` modules are skipped, since their imports are the
package's re-exports.
"""

import ast
import pathlib

import semideal

PACKAGE = pathlib.Path(semideal.__file__).parent


def unused_imports(source):
    """Names bound by an import in source and never read there."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_checker_finds_an_unused_import():
    source = "import os, sys\nfrom math import gcd as g, lcm\nfrom . import natideal as nat\nprint(sys.path, lcm, nat.x)\n"
    assert unused_imports(source) == [(1, "os"), (2, "g")]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_has_an_unused_import():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
