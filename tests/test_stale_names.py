"""Every private name the docs quote is one the code defines.

A docstring or README sentence that quotes a helper in backticks
(`_plan`, `morph_engine._tag`) sends its reader to that helper; once the
helper is renamed or gone, the sentence points nowhere.  A name counts
as defined when a module of the package or of the tests defines it by a
def, a class, an assignment or an attribute assignment; a quoted
`module._name` must be defined in that module.
"""

import ast
import re
from pathlib import Path

import pytest

import lexiforge

SRC = Path(lexiforge.__file__).parent
TESTS = Path(__file__).resolve().parent
README = SRC.parent.parent / "README.md"
DOCS = sorted(SRC.glob("*.py")) + [README]

# `_name` or `module._name`, with one leading underscore
QUOTED = re.compile(r"`((?:[A-Za-z]\w*\.)*)(_[A-Za-z0-9]\w*)`")


def defined_names(source: str) -> set[str]:
    """The names `source` defines by a def, a class, an assignment or
    an attribute assignment."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def stale_names(text: str, modules: dict[str, set[str]]) -> list[str]:
    """The quoted private names in `text` that no module defines, or,
    for `module._name`, that the named module does not, in text order."""
    everywhere = set().union(*modules.values())
    stale = []
    for prefix, name in QUOTED.findall(text):
        module = prefix.rstrip(".").rpartition(".")[2]
        if name not in (modules.get(module, set()) if module else everywhere):
            stale.append(prefix + name)
    return stale


MODULES: dict[str, set[str]] = {}
for _path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
    MODULES.setdefault(_path.stem, set()).update(defined_names(_path.read_text(encoding="utf-8")))


def test_the_check_sees_a_stale_name():
    source = "def _here(): pass\nclass _Kind: pass\n_TABLE = {}\nx = 1\nx._slot = 2\n"
    modules = {"m": defined_names(source), "n": {"_other"}}
    assert modules["m"] == {"_here", "_Kind", "_TABLE", "x", "_slot"}
    text = "`_here`, `_gone`, `_Kind`, `m._slot`, `m._other`, `n._here`, `q._here`, `__init__`"
    assert stale_names(text, modules) == ["_gone", "m._other", "n._here", "q._here"]


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_every_quoted_private_name_is_defined(path):
    assert stale_names(path.read_text(encoding="utf-8"), MODULES) == []
