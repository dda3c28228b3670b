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
from .inheritance import resolve_all
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
                name_leaf = ValueSet(
                    [Atom(source_name, quoted=not is_symbol_text(source_name))]
                )
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
    surface = name_node.values[0].text
    if not surface:
        raise DictRuleError("the entry name came out empty")
    if not storable_surface(surface):
        raise DictRuleError("the entry name %r cannot be stored" % surface)
    return ObjectEntry(surface, target, section, source_name, rule_index)


@dataclass
class CompileResult:
    dictionary: ObjectDictionary | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.dictionary is not None


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
        for item in items:
            emitted = failed = False
            for index, rule in enumerate(rules):
                try:
                    entry = apply_dict_rule(
                        rule, item.name, item.tree, section, index
                    )
                except (DictRuleError, PathThroughLeaf) as exc:
                    failed = True
                    diagnostics.append(
                        Diagnostic(
                            ERROR,
                            "rule %d: %s" % (index + 1, exc),
                            file=rule.file,
                            line=rule.line,
                            entry=item.name,
                        )
                    )
                    continue
                if entry is not None:
                    entries.append(entry)
                    emitted = True
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
