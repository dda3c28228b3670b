"""Checks feature trees against the `#DATA-DICT` declarations.

Three declaration kinds: open features take any atomic value, closed
features draw values from a fixed set, structured features are interior
nodes whose child labels must form a non-empty subset of at least one
declared alternative.  The label namespace is flat: a declaration
constrains its label wherever it occurs.  Undeclared labels are
warnings, everything else an error.  When the base has no `#DATA-DICT`
section at all, checking is skipped.

`check_tree` checks one tree.  `check_base` checks each entry shape's
tree once, leaving out only the closed-set test of its holes, and per
entry tests each hole's value against a closed declaration and sorts
those reports in among the shape's.
"""

from __future__ import annotations

import dataclasses
from typing import Collection, Mapping

from .diagnostics import ERROR, WARNING, Diagnostic
from .feature_tree import FeatureTree, PathThroughLeaf, ValueSet, render_value
from .inheritance import ResolvedEntry, Shape
from .source import CLOSED, OPEN, RuleCall, SelfRef, SourceBase, TypeDecl


def _closed_set_text(decl: TypeDecl) -> str:
    return "{%s}" % ",".join(map(render_value, decl.values))


def check_tree(
    tree: FeatureTree,
    decls: Mapping[str, TypeDecl],
    entry: str | None = None,
) -> list[Diagnostic]:
    """Diagnostics for one tree, in canonical path order.

    Placeholder leaves (unevaluated rule calls in class bodies) are
    skipped: their values are unknowable before resolution.
    """
    out: list[Diagnostic] = []
    _check(tree, (), decls, entry, out, ())
    return out


def _not_in_closed_set(value: str, decl: TypeDecl) -> str:
    return "value %s not in closed set %s" % (render_value(value), _closed_set_text(decl))


def _check(tree, prefix, decls, entry, out, holes: Collection[tuple[str, ...]]):
    """`check_tree`, with the values at `holes` left untested."""

    def report(severity, path, message):
        out.append(Diagnostic(severity, message, entry=entry, path=path))

    for label in sorted(tree.children):
        node = tree.children[label]
        path = prefix + (label,)
        if isinstance(node, (RuleCall, SelfRef)):
            continue
        decl = decls.get(label)
        if decl is None:
            report(WARNING, path, "feature '%s' is not declared" % label)
        elif decl.kind == OPEN:
            if not isinstance(node, ValueSet):
                report(ERROR, path, "open feature '%s' has a structured value" % label)
        elif decl.kind == CLOSED:
            if not isinstance(node, ValueSet):
                report(ERROR, path, "closed feature '%s' has a structured value" % label)
            elif path not in holes:
                allowed = decl.values.texts()
                for value in node:
                    if value not in allowed:
                        report(ERROR, path, _not_in_closed_set(value, decl))
        else:  # structured
            if not isinstance(node, FeatureTree):
                report(
                    ERROR, path, "structured feature '%s' has an atomic value" % label
                )
            else:
                labels = set(node.children)
                if not any(
                    labels and labels <= set(alt) for alt in decl.alternatives
                ):
                    report(
                        ERROR,
                        path,
                        "features {%s} match no alternative of %s"
                        % (
                            ",".join(sorted(labels)),
                            " ".join("@(%s)" % " ".join(a) for a in decl.alternatives),
                        ),
                    )
        if isinstance(node, FeatureTree):
            _check(node, path, decls, entry, out, holes)


def _check_shape(
    shape: Shape, decls: Mapping[str, TypeDecl]
) -> tuple[list[Diagnostic], list[tuple[int, tuple[str, ...], TypeDecl, frozenset[str]]]]:
    """The shape's diagnostics, at no entry, and the holes (index, path,
    declaration, its values) whose values a closed declaration tests."""
    out: list[Diagnostic] = []
    _check(shape.tree, (), decls, None, out, frozenset(path for path, _ in shape.places))
    closed = []
    for path, index in shape.places:
        decl = decls.get(path[-1])
        if decl is not None and decl.kind == CLOSED:
            closed.append((index, path, decl, decl.values.texts()))
    return out, closed


def check_base(
    base: SourceBase,
    resolved: Mapping[str, list[ResolvedEntry]],
) -> list[Diagnostic]:
    """Every resolved entry plus every class body, grouped by entry.

    An entry's diagnostics are those `check_tree` gives for its tree.
    A broken class is reported at its own name and again at every
    heir, whose resolved tree carries the same fault.  A class body
    that cannot be built is left to the resolver, which reports it
    the same way: at the class and at each heir.
    """
    if "data-dict" not in base.sections_seen:
        return []
    out: list[Diagnostic] = []
    checked: dict[Shape, tuple] = {}
    for section in ("morphemes", "words", "lexemes"):
        for item in resolved.get(section, ()):
            found = checked.get(item.shape)
            if found is None:
                found = checked[item.shape] = _check_shape(item.shape, base.data_dict)
            shared, closed = found
            if not shared and not closed:
                continue
            own = [dataclasses.replace(d, entry=item.name) for d in shared]
            for index, path, decl, allowed in closed:
                values = [
                    Diagnostic(ERROR, _not_in_closed_set(value, decl), entry=item.name, path=path)
                    for value in item.values[index]
                    if value not in allowed
                ]
                if values:
                    own = sorted(own + values, key=lambda d: d.path)
            out.extend(own)
    for cls in base.classes.values():
        try:
            body = cls.tree()
        except PathThroughLeaf:
            continue  # the resolver reports unbuildable bodies
        out.extend(check_tree(body, base.data_dict, entry=cls.name))
    return out
