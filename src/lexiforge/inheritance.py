"""Default multiple inheritance over class hierarchies.

An entry names its parent classes in priority order.  Linearization is
a depth-first, left-to-right walk from the entry where only the first
occurrence of a revisited class is kept, so an earlier (higher
priority) mention always wins.  Resolution folds the linearized bodies
from least to most specific with override merging, then evaluates the
placeholders the fold left behind: `$rule` applies the named allomorphy
rule to the resolving entry's own name (not the class that wrote the
equation), and `$$` is that name itself.  A rule that does not match
simply removes its leaf, and interior nodes emptied that way are
pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .alo_rules import CompiledAloRule, compile_alo_rule
from .diagnostics import ERROR, Diagnostic
from .feature_tree import (
    EMPTY_TREE,
    Atom,
    FeatureTree,
    PathThroughLeaf,
    ValueSet,
    is_symbol_text,
)
from .source import Entry, RuleCall, SelfRef, SourceBase


class ResolveError(Exception):
    """An unknown class or allomorphy rule, or an inheritance cycle."""


@dataclass
class ResolvedEntry:
    name: str
    tree: FeatureTree


def linearize(entry: Entry, classes: Mapping[str, Entry]) -> tuple[str, ...]:
    """Ancestor names from most to least specific, entry first.

    Names are unique identifiers: a diamond contributes one occurrence
    (the earliest), while a class on the active descent path is a
    cycle.
    """
    order: list[str] = []
    _visit(entry.name, entry.parents, classes, order, [])
    return tuple(order)


def _visit(
    name: str,
    parents: tuple[str, ...],
    classes: Mapping[str, Entry],
    order: list[str],
    active: list[str],
) -> None:
    # Module level with its state passed in: a nested recursive closure
    # would leave each linearization behind as a reference cycle.
    order.append(name)
    active.append(name)
    for parent in parents:
        if parent in active:
            raise ResolveError(
                "inheritance cycle: %s" % " -> ".join(active + [parent])
            )
        if parent in order:
            continue
        cls = classes.get(parent)
        if cls is None:
            raise ResolveError("unknown class '%s'" % parent)
        _visit(parent, cls.parents, classes, order, active)
    active.pop()


def _evaluate(
    tree: FeatureTree,
    entry_name: str,
    rules: Mapping[str, CompiledAloRule],
) -> FeatureTree:
    """Replace placeholders, dropping leaves whose rule does not match
    and pruning interior nodes that lost all their children."""
    children: dict = {}
    for label, node in tree.children.items():
        if isinstance(node, FeatureTree):
            sub = _evaluate(node, entry_name, rules)
            if sub.is_empty and not node.is_empty:
                continue
            children[label] = sub
        elif isinstance(node, RuleCall):
            rule = rules.get(node.rule)
            if rule is None:
                raise ResolveError("unknown allomorphy rule '%s'" % node.rule)
            result = rule.apply(entry_name)
            if result is None:
                continue
            children[label] = ValueSet([Atom(result, quoted=not is_symbol_text(result))])
        elif isinstance(node, SelfRef):
            children[label] = ValueSet([Atom(entry_name)])
        else:
            children[label] = node
    return FeatureTree(children)


def compile_rules(base: SourceBase) -> dict[str, CompiledAloRule]:
    """Every allomorphy rule, compiled; the parser checked the patterns."""
    return {name: compile_alo_rule(rule) for name, rule in base.alo_rules.items()}


def _inherited(
    entry: Entry,
    classes: Mapping[str, Entry],
    class_trees: Mapping[str, FeatureTree],
) -> tuple[FeatureTree, frozenset[str]]:
    """The bodies of the entry's classes merged from least to most
    specific, and the names of those classes.  A class missing from
    `class_trees` is folded from its equations."""
    ancestors = linearize(entry, classes)[1:]
    tree = EMPTY_TREE
    for name in reversed(ancestors):
        body = class_trees.get(name)
        tree = tree.merge(classes[name].tree() if body is None else body)
    return tree, frozenset(ancestors)


def _finish(
    entry: Entry, inherited: FeatureTree, rules: Mapping[str, CompiledAloRule]
) -> ResolvedEntry:
    tree = inherited.merge(entry.tree())
    return ResolvedEntry(entry.name, _evaluate(tree, entry.name, rules))


def resolve(entry: Entry, base: SourceBase) -> ResolvedEntry:
    """Inherited view of one entry with all placeholders evaluated.

    Raises ResolveError for an unknown class or rule or a cycle, and
    PathThroughLeaf for an internally inconsistent body.
    """
    inherited, _ = _inherited(entry, base.classes, {})
    return _finish(entry, inherited, compile_rules(base))


def resolve_all(
    base: SourceBase,
) -> tuple[dict[str, list[ResolvedEntry]], list[Diagnostic]]:
    """Resolve every morpheme, word and lexeme; classes are never
    emitted.  A failing entry is skipped with a diagnostic and the rest
    of the base still resolves.

    The merged class bodies depend only on an entry's parent list, so
    they are merged once per list, by the first entry with that list
    whose classes merge.  An entry named like one of those classes
    merges them again, and so reports its own cycle.
    """
    diagnostics: list[Diagnostic] = []
    compiled = compile_rules(base)
    class_trees: dict[str, FeatureTree] = {}
    for name, cls in base.classes.items():
        try:
            class_trees[name] = cls.tree()
        except PathThroughLeaf as exc:
            diagnostics.append(
                Diagnostic(ERROR, str(exc), file=cls.file, line=cls.line, entry=name)
            )
    inherited: dict[tuple[str, ...], tuple[FeatureTree, frozenset[str]]] = {}
    resolved: dict[str, list[ResolvedEntry]] = {}
    for section in ("morphemes", "words", "lexemes"):
        out: list[ResolvedEntry] = []
        for entry in base.entries_in(section).values():
            shared = inherited.get(entry.parents)
            try:
                if shared is None or entry.name in shared[1]:
                    shared = inherited[entry.parents] = _inherited(
                        entry, base.classes, class_trees
                    )
                out.append(_finish(entry, shared[0], compiled))
            except (ResolveError, PathThroughLeaf) as exc:
                diagnostics.append(
                    Diagnostic(
                        ERROR,
                        str(exc),
                        file=entry.file,
                        line=entry.line,
                        entry=entry.name,
                    )
                )
        resolved[section] = out
    return resolved, diagnostics
