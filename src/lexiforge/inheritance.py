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

`resolve` does all of this for one entry.  `resolve_all` does the
part that depends on names once per entry *shape*: its parent list
plus which of its placeholders give a value.  A shape's tree holds a
marker leaf at each hole, the place of a placeholder that gave one, and
each entry keeps only its hole values.  An entry with equations of its
own is a shape by itself.

This module owns the marker convention.  A marker leaf's one atom is a
`Marker`, the index of the value the leaf stands for: a hole's index,
or `NAME` for the entry's name.  A `Shape` is a tree plus the place
(path, marker index) of each marker in it, and `Shape.fill` puts the
entry's name leaf (`name_leaf`) or hole value at every place.  The
dictionary compiler runs its rules over a shape's tree with `NAME` as
the entry name, so what a rule emits is a shape too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Mapping, Sequence

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


class Marker(str):
    """The text of a marker leaf, a number that says whose value the
    leaf stands for.  Every value is a plain `str`, so no value can
    pass for a marker."""


NAME = -1  # the marker index of the entry's name, beside a shape's holes


def marker_index(text: str) -> int | None:
    """The index a marker's text stands for; None for a value."""
    return int(text) if isinstance(text, Marker) else None


def name_leaf(name: str) -> ValueSet:
    """The leaf `$$` reads: the entry's name, quoted when it is no
    symbol."""
    return ValueSet([Atom(name, quoted=not is_symbol_text(name))])


class Shape:
    """A tree with marker leaves, and the place (path, marker index) of
    each marker, in the tree's order."""

    __slots__ = ("tree", "places")

    def __init__(self, tree: FeatureTree, places: tuple[tuple[tuple[str, ...], int], ...]):
        self.tree = tree
        self.places = places

    @classmethod
    def of(cls, tree: FeatureTree) -> Shape:
        """The shape of a tree, its markers found by a scan."""
        return cls(tree, tuple(_marker_places(tree, ())))

    def fill(self, name: str, values: Sequence[ValueSet]) -> FeatureTree:
        """The tree with the name leaf or hole value set in place of
        each marker."""
        tree = self.tree
        for path, index in self.places:
            tree = tree.set(path, name_leaf(name) if index == NAME else values[index])
        return tree


def _marker_places(
    tree: FeatureTree, prefix: tuple[str, ...]
) -> Iterator[tuple[tuple[str, ...], int]]:
    for label, node in tree.children.items():
        if isinstance(node, FeatureTree):
            yield from _marker_places(node, prefix + (label,))
        else:
            index = marker_index(node.values[0].text)
            if index is not None:
                yield prefix + (label,), index


@dataclass
class ResolvedEntry:
    """One entry's shape and its hole values, indexed by the shape's
    markers."""

    name: str
    shape: Shape
    values: tuple[ValueSet, ...]

    @property
    def tree(self) -> FeatureTree:
        return self.shape.fill(self.name, self.values)


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


def _placeholders(
    tree: FeatureTree, prefix: tuple[str, ...] = ()
) -> list[tuple[tuple[str, ...], RuleCall | SelfRef]]:
    """Each placeholder leaf with its path, in the order `_evaluate`
    meets them."""
    out: list[tuple[tuple[str, ...], RuleCall | SelfRef]] = []
    for label, node in tree.children.items():
        if isinstance(node, FeatureTree):
            out.extend(_placeholders(node, prefix + (label,)))
        elif isinstance(node, (RuleCall, SelfRef)):
            out.append((prefix + (label,), node))
    return out


def _values(
    placeholders: Sequence[tuple[tuple[str, ...], RuleCall | SelfRef]],
    entry_name: str,
    rules: Mapping[str, CompiledAloRule],
) -> list[ValueSet | None]:
    """What each placeholder gives for the entry: None for a rule that
    does not match."""
    out: list[ValueSet | None] = []
    for _, node in placeholders:
        if isinstance(node, SelfRef):
            out.append(name_leaf(entry_name))
            continue
        rule = rules.get(node.rule)
        if rule is None:
            raise ResolveError("unknown allomorphy rule '%s'" % node.rule)
        result = rule.apply(entry_name)
        out.append(
            None if result is None
            else ValueSet([Atom(result, quoted=not is_symbol_text(result))])
        )
    return out


def _evaluate(tree: FeatureTree, values: Iterator[ValueSet | None]) -> FeatureTree:
    """Replace each placeholder by the next of `values`, dropping the
    leaf for None and pruning interior nodes that lost all their
    children."""
    children: dict = {}
    for label, node in tree.children.items():
        if isinstance(node, FeatureTree):
            sub = _evaluate(node, values)
            if sub.is_empty and not node.is_empty:
                continue
            children[label] = sub
        elif isinstance(node, (RuleCall, SelfRef)):
            value = next(values)
            if value is not None:
                children[label] = value
        else:
            children[label] = node
    return FeatureTree(children)


def _shape(tree: FeatureTree, mask: Sequence[bool]) -> Shape:
    """`tree` evaluated with a marker for each placeholder `mask` keeps."""
    if not mask:
        return Shape(tree, ())
    holes = count()
    markers = [ValueSet([Atom(Marker(next(holes)))]) if kept else None for kept in mask]
    return Shape.of(_evaluate(tree, iter(markers)))


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


def resolve(entry: Entry, base: SourceBase) -> ResolvedEntry:
    """Inherited view of one entry with all placeholders evaluated, as
    a shape of its own with no holes.

    Raises ResolveError for an unknown class or rule or a cycle, and
    PathThroughLeaf for an internally inconsistent body.
    """
    inherited, _ = _inherited(entry, base.classes, {})
    tree = inherited.merge(entry.tree())
    tree = _evaluate(tree, iter(_values(_placeholders(tree), entry.name, compile_rules(base))))
    return ResolvedEntry(entry.name, Shape(tree, ()), ())


def _finish(
    entry: Entry,
    tree: FeatureTree,
    placeholders: list[tuple[tuple[str, ...], RuleCall | SelfRef]],
    rules: Mapping[str, CompiledAloRule],
    shapes: dict[tuple, Shape],
) -> ResolvedEntry:
    """The entry's own body merged over its merged class bodies `tree`,
    whose placeholders are `placeholders`.  An entry with no body of
    its own takes its shape from `shapes`, keyed by its parent list
    and which placeholders give a value."""
    own = tree.merge(entry.tree())
    if own is not tree:
        placeholders = _placeholders(own)
    values = _values(placeholders, entry.name, rules)
    mask = tuple(value is not None for value in values)
    key = (entry.parents, mask)
    shape = shapes.get(key) if own is tree else None
    if shape is None:
        shape = _shape(own, mask)
        if own is tree:
            shapes[key] = shape
    return ResolvedEntry(entry.name, shape, tuple(v for v in values if v is not None))


def resolve_all(
    base: SourceBase,
) -> tuple[dict[str, list[ResolvedEntry]], list[Diagnostic]]:
    """Resolve every morpheme, word and lexeme; classes are never
    emitted.  A failing entry is skipped with a diagnostic and the rest
    of the base still resolves.

    The merged class bodies depend only on an entry's parent list, so
    they are merged once per list, by the first entry with that list
    whose classes merge.  An entry named like one of those classes
    merges them again, and so reports its own cycle.  Each entry then
    applies the allomorphy rules to its name, and its shape is built
    once per parent list and placeholder mask; an entry with a body of
    its own gets a shape by itself.
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
    inherited: dict[tuple[str, ...], tuple[FeatureTree, list, frozenset[str]]] = {}
    shapes: dict[tuple, Shape] = {}
    resolved: dict[str, list[ResolvedEntry]] = {}
    for section in ("morphemes", "words", "lexemes"):
        out: list[ResolvedEntry] = []
        for entry in base.entries_in(section).values():
            shared = inherited.get(entry.parents)
            try:
                if shared is None or entry.name in shared[2]:
                    tree, ancestors = _inherited(entry, base.classes, class_trees)
                    shared = inherited[entry.parents] = (
                        tree, _placeholders(tree), ancestors
                    )
                out.append(_finish(entry, shared[0], shared[1], compiled, shapes))
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
