"""Every exception type defined in the package is one some caller catches.

A type that no `except` clause names tells its reader nothing that its
base does not, so each stage raises the one type its caller catches.
"""

import ast
import builtins
from pathlib import Path

import lexiforge

SRC = Path(lexiforge.__file__).parent


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _exception_classes(modules):
    """(module, class) for each class defined in the package whose bases
    lead, through classes defined there, to a built-in exception."""
    bases = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (module, [_name(b) for b in node.bases])
    found = {}
    changed = True
    while changed:
        changed = False
        for name, (module, parents) in bases.items():
            if name not in found and any(
                p in found or (p is not None and _is_builtin_exception(p)) for p in parents
            ):
                found[name] = module
                changed = True
    return found


def _caught_names(modules):
    caught = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_name(t) for t in types)
    return caught


def test_the_guard_sees_the_package_exceptions():
    found = _exception_classes(_modules())
    assert found["SourceSyntaxError"] == "source.py"
    assert found["FormatError"] == "object_dict.py"


def test_every_exception_type_is_caught_somewhere():
    modules = _modules()
    caught = _caught_names(modules)
    uncaught = sorted(
        "%s in %s" % (name, module)
        for name, module in _exception_classes(modules).items()
        if name not in caught
    )
    assert uncaught == []
