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

`compile_base` runs each rule once per entry shape (see `inheritance`),
with the `NAME` marker as the entry's name.  Whether a rule emits or
fails depends on the shape alone, since each of an entry's values is a
one-value leaf whatever it holds, and what it emits is a shape too.
What depends on the values is left for each entry: its surface, read
from the value its marker indexes, must not be empty and must be
storable, and `Shape.fill` sets its values in place of the markers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import ERROR, WARNING, Diagnostic, has_errors
from .feature_tree import EMPTY_TREE, FeatureTree, PathThroughLeaf
from .inheritance import NAME, Marker, ResolvedEntry, Shape, marker_index, name_leaf, resolve_all
from .object_dict import ObjectDictionary, ObjectEntry, paused_gc, storable_surface
from .source import DictRule, SourceBase
from .type_checker import check_base


class DictRuleError(Exception):
    """A dictionary rule that cannot build its entry."""


def apply_dict_rule(
    rule: DictRule, source_name: str, source_tree: FeatureTree
) -> ObjectEntry | None:
    """Run one rule against one resolved entry.

    Returns None when the rule never assigned `$$` (the normal skip).
    Raises DictRuleError on lexicographer errors, and lets
    PathThroughLeaf from target assignment propagate.  The equations
    run in order, so the first error raised is the first in equation
    order, whether or not the rule names an entry.
    """
    name_node = None
    target = EMPTY_TREE
    for eq in rule.equations:
        if eq.source is None:
            node = name_leaf(source_name)
        else:
            node = source_tree.get(eq.source)
            if node is None:
                continue
            if isinstance(node, FeatureTree):
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
    surface = _checked_surface(name_node.values[0])
    return ObjectEntry(surface, target, source_name)


def _checked_surface(surface: str) -> str:
    if not surface:
        raise DictRuleError("the entry name came out empty")
    if not storable_surface(surface):
        raise DictRuleError("the entry name %r cannot be stored" % surface)
    return surface


@dataclass
class CompileResult:
    dictionary: ObjectDictionary | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.dictionary is not None


class _Emission:
    """What a rule emits for a shape: its entry, whose tree is kept as
    a shape, and the marker index its surface comes from (None when
    the surface is the same for every entry)."""

    __slots__ = ("entry", "shape", "surface_from")

    def __init__(self, entry: ObjectEntry):
        self.entry = entry
        self.shape = Shape.of(entry.tree)
        self.surface_from = marker_index(entry.surface)

    def instantiate(self, item: ResolvedEntry) -> ObjectEntry:
        """The entry for `item`; DictRuleError when its surface is
        empty or cannot be stored."""
        surface = self.entry.surface
        if self.surface_from is not None:
            surface = _checked_surface(item.values[self.surface_from].values[0])
        tree = self.shape.fill(item.values)
        return ObjectEntry(surface, tree, item.name)


def _run_rules(rules: tuple[DictRule, ...], shape: Shape) -> list[_Emission | str | None]:
    """Each rule run once over the shape, with a marker for the entry's
    name: what it emits, the message of its error, or None when it
    names no entry."""
    out: list[_Emission | str | None] = []
    for rule in rules:
        try:
            entry = apply_dict_rule(rule, Marker(NAME), shape.tree)
        except (DictRuleError, PathThroughLeaf) as exc:
            out.append(str(exc))
            continue
        out.append(None if entry is None else _Emission(entry))
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
                shape_outcomes = outcomes[item.shape] = _run_rules(rules, item.shape)
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
