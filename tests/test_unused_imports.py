"""Every name a module of the package imports is one the module uses.

An import left behind after the code that needed it is gone tells its
reader of a dependency that is not there.  `__init__.py` is left out:
its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import lexiforge

SRC = Path(lexiforge.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports in `source` that nothing else in
    it reads, in the order imported; `from __future__` is left out."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    source = "import os\nfrom typing import IO, Iterator\n\ndef f() -> Iterator[int]:\n    yield 1\n"
    assert unused_imports(source) == ["os", "IO"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
