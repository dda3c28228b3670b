"""Checks feature trees against the `#DATA-DICT` declarations.

Three declaration kinds: open features take any atomic value, closed
features draw values from a fixed set, structured features are interior
nodes whose child labels must form a non-empty subset of at least one
declared alternative.  The label namespace is flat: a declaration
constrains its label wherever it occurs.  Undeclared labels are
warnings, everything else an error.  When the base has no `#DATA-DICT`
section at all, checking is skipped.
"""

from __future__ import annotations

from typing import Mapping

from .diagnostics import ERROR, WARNING, Diagnostic
from .feature_tree import FeatureTree, PathThroughLeaf, ValueSet
from .inheritance import ResolvedEntry
from .source import CLOSED, OPEN, RuleCall, SelfRef, SourceBase, TypeDecl


def _closed_set_text(decl: TypeDecl) -> str:
    return "{%s}" % ",".join(a.rendered() for a in decl.values)


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
    _check(tree, (), decls, entry, out)
    return out


def _check(tree, prefix, decls, entry, out):
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
            else:
                allowed = decl.values.texts()
                for atom in node:
                    if atom.text not in allowed:
                        report(
                            ERROR,
                            path,
                            "value %s not in closed set %s"
                            % (atom.rendered(), _closed_set_text(decl)),
                        )
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
            _check(node, path, decls, entry, out)


def check_base(
    base: SourceBase,
    resolved: Mapping[str, list[ResolvedEntry]],
) -> list[Diagnostic]:
    """Every resolved entry plus every class body, grouped by entry.

    A broken class is reported at its own name and again at every
    heir, whose resolved tree carries the same fault.  A class body
    that cannot be built is left to the resolver, which reports it
    the same way: at the class and at each heir.
    """
    if "data-dict" not in base.sections_seen:
        return []
    out: list[Diagnostic] = []
    for section in ("morphemes", "words", "lexemes"):
        for item in resolved.get(section, ()):
            out.extend(check_tree(item.tree, base.data_dict, entry=item.name))
    for cls in base.classes.values():
        try:
            body = cls.tree()
        except PathThroughLeaf:
            continue  # the resolver reports unbuildable bodies
        out.extend(check_tree(body, base.data_dict, entry=cls.name))
    return out
