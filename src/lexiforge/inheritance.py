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
marker leaf at each placeholder that gave one, and each entry keeps
only its values.  An entry with equations of its own is a shape by
itself.

This module owns the marker convention.  A marker leaf's one value is a
`Marker`, the index of the value the leaf stands for in the entry's
values: value `NAME` (0) is its name leaf (`name_leaf`), which every
`$$` reads, and the values of its rule calls that match count from 1.
A `Shape` is a tree plus the place (path, marker index) of each marker
in it, and `Shape.fill` puts the entry's value at every place.  The
dictionary compiler runs its rules over a shape's tree with the `NAME`
marker as the entry name, so what a rule emits is a shape too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .alo_rules import CompiledAloRule, compile_alo_rule
from .diagnostics import ERROR, Diagnostic
from .feature_tree import (
    EMPTY_TREE,
    FeatureTree,
    PathThroughLeaf,
    ValueSet,
)
from .source import Entry, RuleCall, SelfRef, SourceBase


class ResolveError(Exception):
    """An unknown class or allomorphy rule, or an inheritance cycle."""


class Marker(str):
    """The text of a marker leaf, a number that says whose value the
    leaf stands for.  Every value is a plain `str` or a `Quoted`, so no
    value can pass for a marker."""


NAME = 0  # the marker index of the entry's name; rule values count from 1


def marker_index(text: str) -> int | None:
    """The index a marker's text stands for; None for a value."""
    return int(text) if isinstance(text, Marker) else None


def name_leaf(name: str) -> ValueSet:
    """The leaf `$$` reads: the entry's name."""
    return ValueSet([name])


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

    def fill(self, values: Sequence[ValueSet]) -> FeatureTree:
        """The tree with `values[i]` set in place of each marker i."""
        tree = self.tree
        for path, index in self.places:
            tree = tree.set(path, values[index])
        return tree


def _marker_places(
    tree: FeatureTree, prefix: tuple[str, ...]
) -> Iterator[tuple[tuple[str, ...], int]]:
    for label, node in tree._children.items():
        if isinstance(node, FeatureTree):
            yield from _marker_places(node, prefix + (label,))
        else:
            index = marker_index(node.values[0])
            if index is not None:
                yield prefix + (label,), index


@dataclass
class ResolvedEntry:
    """One entry's shape and its values, indexed by the shape's
    markers: its name leaf, then what its rule calls gave."""

    name: str
    shape: Shape
    values: tuple[ValueSet, ...]

    @property
    def tree(self) -> FeatureTree:
        return self.shape.fill(self.values)


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
    for label, node in tree._children.items():
        if isinstance(node, FeatureTree):
            out.extend(_placeholders(node, prefix + (label,)))
        elif isinstance(node, (RuleCall, SelfRef)):
            out.append((prefix + (label,), node))
    return out


def _values(
    placeholders: Sequence[tuple[tuple[str, ...], RuleCall | SelfRef]],
    entry_name: str,
    rules: Mapping[str, CompiledAloRule],
) -> tuple[tuple[ValueSet, ...], tuple[int | None, ...]]:
    """The entry's values, its name leaf and then what each rule call
    that matches gives, and the index of each placeholder's value:
    `NAME` for `$$`, None for a rule call that does not match."""
    values = [name_leaf(entry_name)]
    indexes: list[int | None] = []
    for _, node in placeholders:
        if isinstance(node, SelfRef):
            indexes.append(NAME)
            continue
        rule = rules.get(node.rule)
        if rule is None:
            raise ResolveError("unknown allomorphy rule '%s'" % node.rule)
        result = rule.apply(entry_name)
        if result is None:
            indexes.append(None)
        else:
            indexes.append(len(values))
            values.append(name_leaf(result))
    return tuple(values), tuple(indexes)


def _evaluate(tree: FeatureTree, values: Iterator[ValueSet | None]) -> FeatureTree:
    """Replace each placeholder by the next of `values`, dropping the
    leaf for None and pruning interior nodes that lost all their
    children."""
    children: dict = {}
    for label, node in tree._children.items():
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


def _shape(tree: FeatureTree, indexes: tuple[int | None, ...]) -> Shape:
    """`tree` with a marker for each placeholder's index (see `_values`)."""
    if not indexes:
        return Shape(tree, ())
    markers = (None if i is None else ValueSet([Marker(i)]) for i in indexes)
    return Shape.of(_evaluate(tree, markers))


def compile_rules(base: SourceBase) -> dict[str, CompiledAloRule]:
    """Every allomorphy rule, compiled; the parser checked the patterns."""
    return {name: compile_alo_rule(rule) for name, rule in base.alo_rules.items()}


@dataclass
class _Parents:
    """What the entries of one parent list share: their merged class
    bodies, its placeholders, the classes' names, and a shape for each
    tuple of placeholder value indexes (see `_values`)."""

    tree: FeatureTree
    placeholders: list[tuple[tuple[str, ...], RuleCall | SelfRef]]
    ancestors: frozenset[str]
    shapes: dict[tuple[int | None, ...], Shape]


def _inherited(
    entry: Entry,
    classes: Mapping[str, Entry],
    class_trees: Mapping[str, FeatureTree],
) -> _Parents:
    """The bodies of the entry's classes merged from least to most
    specific, with no shapes yet.  A class missing from `class_trees`
    is folded from its equations."""
    ancestors = linearize(entry, classes)[1:]
    tree = EMPTY_TREE
    for name in reversed(ancestors):
        body = class_trees.get(name)
        tree = tree.merge(classes[name].tree() if body is None else body)
    return _Parents(tree, _placeholders(tree), frozenset(ancestors), {})


def resolve(entry: Entry, base: SourceBase) -> ResolvedEntry:
    """Inherited view of one entry with all placeholders evaluated, as
    a shape of its own with no markers.

    Raises ResolveError for an unknown class or rule or a cycle, and
    PathThroughLeaf for an internally inconsistent body.
    """
    tree = _inherited(entry, base.classes, {}).tree.merge(entry.tree())
    values, indexes = _values(_placeholders(tree), entry.name, compile_rules(base))
    tree = _evaluate(tree, (None if i is None else values[i] for i in indexes))
    return ResolvedEntry(entry.name, Shape(tree, ()), values)


def _finish(entry: Entry, shared: _Parents, rules: Mapping[str, CompiledAloRule]) -> ResolvedEntry:
    """The entry's own body merged over its parent list's merged class
    bodies, with its shape from `shared`; an entry with a body of its
    own gets a shape by itself."""
    tree = shared.tree.merge(entry.tree())
    if tree is not shared.tree:
        shared = _Parents(tree, _placeholders(tree), shared.ancestors, {})
    values, indexes = _values(shared.placeholders, entry.name, rules)
    shape = shared.shapes.get(indexes)
    if shape is None:
        shape = shared.shapes[indexes] = _shape(tree, indexes)
    return ResolvedEntry(entry.name, shape, values)


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
    once per parent list and set of placeholders that give a value; an
    entry with a body of its own gets a shape by itself.
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
    inherited: dict[tuple[str, ...], _Parents] = {}
    resolved: dict[str, list[ResolvedEntry]] = {}
    for section in ("morphemes", "words", "lexemes"):
        out: list[ResolvedEntry] = []
        for entry in base.entries_in(section).values():
            shared = inherited.get(entry.parents)
            try:
                if shared is None or entry.name in shared.ancestors:
                    shared = inherited[entry.parents] = _inherited(
                        entry, base.classes, class_trees
                    )
                out.append(_finish(entry, shared, compiled))
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
