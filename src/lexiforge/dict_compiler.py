"""Turns resolved entries into object dictionary entries.

A dictionary rule is a short program of equations executed top to
bottom against one resolved source entry.  `$$` on the right reads the
source entry's name and `@ path` reads (a copy of) the source subtree
at that path, minus any `(- path ...)` deletions; the source is never
modified.  `$$` on the left assigns the object entry's surface and
`@ path` merges into the object tree under construction, later
assignments overriding earlier ones.  An equation whose right side
reads an absent path is a no-op, so one rule per allomorph slot simply
does not fire for entries lacking that slot: the rule emits an entry
only when something gave `$$` a value.

Most rules name no entry for a given source entry (a lexeme fills few
of its allomorph slots), so a rule first only reads the source paths
its equations name.  Nothing is built unless `$$` gets a value or one
of the writes could fail; then the writes run in equation order, and
a rule that names nothing still reports its first failing write.

`compile_base` runs each rule once per entry shape (see `inheritance`),
with a marker for the entry's name and one at each hole.  Whether a
rule emits or fails depends on the shape alone, since a hole's value
is a one-atom leaf whatever it holds.  What depends on the values is
left for each entry: its surface must not be empty and must be
storable, and its values are set where the markers landed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import ERROR, WARNING, Diagnostic, has_errors
from .feature_tree import (
    Atom,
    EMPTY_TREE,
    FeatureTree,
    Node,
    PathThroughLeaf,
    ValueSet,
    is_symbol_text,
)
from .inheritance import Marker, ResolvedEntry, Shape, resolve_all
from .object_dict import ObjectDictionary, ObjectEntry, paused_gc, storable_surface
from .source import DictEquation, DictRule, SourceBase
from .type_checker import check_base


class DictRuleError(Exception):
    """A dictionary rule that cannot build its entry."""


def apply_dict_rule(
    rule: DictRule,
    source_name: str,
    source_tree: FeatureTree,
    section: str = "",
    rule_index: int = -1,
) -> ObjectEntry | None:
    """Run one rule against one resolved entry.

    Returns None when the rule never assigned `$$` (the normal skip).
    Raises DictRuleError on lexicographer errors, and lets
    PathThroughLeaf from target assignment propagate.

    The equations are read first, without building anything.  When no
    present equation assigns `$$` and no write could fail, the rule
    returns None right away.  A write could fail when its target path
    has two or more labels (a leaf may sit above it) or when it puts a
    leaf at the whole entry.  Otherwise every present equation runs in
    order, so the first error raised is the first in equation order.
    """
    writes: list[tuple[DictEquation, Node | None]] = []
    named = could_fail = False
    for eq in rule.equations:
        if eq.source is None:
            node = None  # the name leaf, built below when needed
        else:
            node = source_tree.get(eq.source)
            if node is None:
                continue
        writes.append((eq, node))
        if eq.target is None:
            named = True
        elif len(eq.target) > 1 or (not eq.target and not isinstance(node, FeatureTree)):
            could_fail = True
    if not named and not could_fail:
        return None

    name_leaf = name_node = None
    target = EMPTY_TREE
    for eq, node in writes:
        if eq.source is None:
            if name_leaf is None:
                name_leaf = _name_leaf(source_name)
            node = name_leaf
        elif isinstance(node, FeatureTree):
            for dpath in eq.deletions:
                node = node.delete(dpath)
        if eq.target is None:
            name_node = node
        elif eq.target == ():
            if not isinstance(node, FeatureTree):
                raise DictRuleError("cannot assign an atomic value to the whole entry")
            target = target.merge(node)
        else:
            existing = target.get(eq.target)
            if isinstance(existing, FeatureTree) and isinstance(node, FeatureTree):
                node = existing.merge(node)
            target = target.set(eq.target, node)
    if name_node is None:
        return None
    if isinstance(name_node, FeatureTree) or len(name_node) != 1:
        raise DictRuleError("'$$' must come out as a single atomic value")
    surface = _checked_surface(name_node.values[0].text)
    return ObjectEntry(surface, target, section, source_name, rule_index)


def _checked_surface(surface: str) -> str:
    if not surface:
        raise DictRuleError("the entry name came out empty")
    if not storable_surface(surface):
        raise DictRuleError("the entry name %r cannot be stored" % surface)
    return surface


def _name_leaf(name: str) -> ValueSet:
    return ValueSet([Atom(name, quoted=not is_symbol_text(name))])


@dataclass
class CompileResult:
    dictionary: ObjectDictionary | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.dictionary is not None


_NAME = -1  # the marker index of the entry's name, beside a shape's holes


class _Emission:
    """What a rule emits for a shape: its entry with markers, the place
    (path, hole index or _NAME) of each marker, and which of them names
    the entry (None when its surface is the same for every entry)."""

    __slots__ = ("entry", "places", "surface_from")

    def __init__(
        self,
        entry: ObjectEntry,
        places: list[tuple[tuple[str, ...], int]],
        surface_from: int | None,
    ):
        self.entry = entry
        self.places = places
        self.surface_from = surface_from

    def instantiate(self, item: ResolvedEntry) -> ObjectEntry:
        """The entry for `item`; DictRuleError when its surface is
        empty or cannot be stored."""
        surface = self.entry.surface
        if self.surface_from == _NAME:
            surface = _checked_surface(item.name)
        elif self.surface_from is not None:
            surface = _checked_surface(item.values[self.surface_from].values[0].text)
        tree = self.entry.tree
        for path, index in self.places:
            tree = tree.set(path, _name_leaf(item.name) if index == _NAME else item.values[index])
        return ObjectEntry(surface, tree, self.entry.section, item.name, self.entry.rule_index)


def _marker_index(text: str) -> int | None:
    return int(text) if isinstance(text, Marker) else None


def _marker_places(
    tree: FeatureTree, prefix: tuple[str, ...] = ()
) -> list[tuple[tuple[str, ...], int]]:
    """(path, marker index) of each marker leaf in the tree."""
    out = []
    for label, node in tree.children.items():
        if isinstance(node, FeatureTree):
            out.extend(_marker_places(node, prefix + (label,)))
        else:
            index = _marker_index(node.values[0].text)
            if index is not None:
                out.append((prefix + (label,), index))
    return out


def _run_rules(
    rules: tuple[DictRule, ...], shape: Shape, section: str
) -> list[_Emission | str | None]:
    """Each rule run once over the shape, with a marker for the entry's
    name: what it emits, the message of its error, or None when it
    names no entry."""
    out: list[_Emission | str | None] = []
    for index, rule in enumerate(rules):
        try:
            entry = apply_dict_rule(rule, Marker(_NAME), shape.tree, section, index)
        except (DictRuleError, PathThroughLeaf) as exc:
            out.append(str(exc))
            continue
        if entry is None:
            out.append(None)
            continue
        # only a hole or an `@ path = $$` puts a marker in the tree
        names = any(eq.source is None and eq.target is not None for eq in rule.equations)
        places = _marker_places(entry.tree) if shape.holes or names else []
        out.append(_Emission(entry, places, _marker_index(entry.surface)))
    return out


@paused_gc()
def compile_base(
    base: SourceBase, diagnostics: list[Diagnostic] | None = None
) -> CompileResult:
    """Full pipeline: resolve, type-check, apply dictionary rules, index.

    Diagnostics from every stage follow `diagnostics`, the parser's.
    Any error-severity diagnostic, the parser's included, suppresses
    the build and the dictionary; warnings never do.  A lexeme no rule
    emits an entry for is warned about only when no rule failed on it,
    so one fault gives one report.  The cyclic garbage collector is
    paused throughout, as in `load`: no stage makes a reference cycle.

    The rules run once per entry shape, and each entry gets its shape's
    errors and emissions with its own name and values.
    """
    resolved, found = resolve_all(base)
    diagnostics = [*(diagnostics or ()), *found, *check_base(base, resolved)]

    entries: list[ObjectEntry] = []
    for section in ("morphemes", "words", "lexemes"):
        rules = base.dict_rules.for_section(section)
        items = resolved[section]
        if items and not rules:
            diagnostics.append(
                Diagnostic(
                    WARNING,
                    "no dictionary rules for #%s; %d entries not emitted"
                    % (section.upper(), len(items)),
                )
            )
        outcomes: dict[Shape, list[_Emission | str | None]] = {}
        for item in items:
            shape_outcomes = outcomes.get(item.shape)
            if shape_outcomes is None:
                shape_outcomes = outcomes[item.shape] = _run_rules(rules, item.shape, section)
            emitted = failed = False
            for index, (rule, outcome) in enumerate(zip(rules, shape_outcomes)):
                if isinstance(outcome, _Emission):
                    try:
                        entries.append(outcome.instantiate(item))
                        emitted = True
                        continue
                    except DictRuleError as exc:
                        outcome = str(exc)
                if outcome is not None:
                    failed = True
                    diagnostics.append(
                        Diagnostic(
                            ERROR,
                            "rule %d: %s" % (index + 1, outcome),
                            file=rule.file,
                            line=rule.line,
                            entry=item.name,
                        )
                    )
            if section == "lexemes" and rules and not emitted and not failed:
                lexeme = base.lexemes[item.name]
                diagnostics.append(
                    Diagnostic(
                        WARNING,
                        "lemma produced no object entries",
                        file=lexeme.file, line=lexeme.line, entry=item.name,
                    )
                )

    if has_errors(diagnostics):
        return CompileResult(None, diagnostics)
    dictionary = ObjectDictionary.build(entries)
    diagnostics.extend(dictionary.warnings)
    return CompileResult(dictionary, diagnostics)
