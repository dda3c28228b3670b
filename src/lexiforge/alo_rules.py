"""Allomorph computation: anchored string rewriting over named rules.

A rule is an ordered list of productions.  Each production's pattern is
a mix of literal text and single-letter variables; a variable stands
for a regular expression given in its declaration.  The whole pattern
must cover the whole argument (anchored at both ends), productions are
tried in source order, and within one production matching is greedy
with backtracking: earlier variables take the longest text that still
lets the rest of the pattern succeed, and an alternation takes its
first branch that does so, not its longest.

The pinned regular-expression dialect is deliberately small: literals,
'.', '*', '+', '?', alternation '|', grouping '(...)', character
classes '[...]' and backslash-escaped punctuation.  The parser refuses
anything else, '(?' extensions and stacked quantifiers ('*?') included
(`check_pattern`), so rule behavior cannot depend on the engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .source import AloRule


def check_pattern(pattern: str) -> str | None:
    """Reason the pattern falls outside the pinned dialect or does not
    compile, or None."""
    i, n = 0, len(pattern)
    quantified = False  # the previous character was a quantifier
    while i < n:
        c = pattern[i]
        if c in "*+?":
            if quantified:
                return "stacked quantifiers like '%s' are not supported" % pattern[i - 1 : i + 1]
            quantified = True
            i += 1
            continue
        quantified = False
        if c == "(" and pattern.startswith("?", i + 1):
            return "'(?' extensions are not supported"
        if c == "\\":
            if i + 1 >= n:
                return "dangling backslash"
            if pattern[i + 1].isalnum():
                return "escape sequences like '\\%s' are not supported" % pattern[i + 1]
            i += 2
            continue
        if c in "{}":
            return "brace repetition is not supported"
        if c in "^$":
            return "anchors are implicit; '%s' is not allowed" % c
        if c == "[":
            i += 1
            if i < n and pattern[i] == "^":
                i += 1
            if i < n and pattern[i] == "]":
                i += 1
            while i < n and pattern[i] != "]":
                if pattern[i] == "\\":
                    if i + 1 >= n or pattern[i + 1].isalnum():
                        return "bad escape in character class"
                    i += 2
                    continue
                i += 1
            if i >= n:
                return "unterminated character class"
            i += 1
            continue
        i += 1
    try:
        re.compile(pattern)
    except re.error as exc:
        return str(exc)
    return None


@dataclass
class CompiledProduction:
    rhs: tuple[tuple[str, str], ...]
    regex: "re.Pattern[str]"
    groups: dict[str, str]  # variable -> capture group name (last occurrence)


class CompiledAloRule:
    def __init__(self, name: str, productions: list[CompiledProduction]):
        self.name = name
        self.productions = tuple(productions)

    def apply(self, argument: str) -> str | None:
        """First production that matches rewrites; None when none does."""
        for prod in self.productions:
            m = prod.regex.fullmatch(argument)
            if m is None:
                continue
            return "".join(
                text if kind == "lit" else m.group(prod.groups[text]) for kind, text in prod.rhs
            )
        return None


def compile_alo_rule(rule: AloRule) -> CompiledAloRule:
    """One anchored regex per production.  The parser has already
    refused every variable pattern `check_pattern` faults."""
    compiled: list[CompiledProduction] = []
    for prod in rule.productions:
        parts: list[str] = []
        groups: dict[str, str] = {}
        for idx, (kind, text) in enumerate(prod.lhs):
            if kind == "lit":
                parts.append(re.escape(text))
            else:
                gname = "v%d" % idx
                groups[text] = gname
                parts.append("(?P<%s>%s)" % (gname, rule.variables[text]))
        compiled.append(CompiledProduction(prod.rhs, re.compile("".join(parts)), groups))
    return CompiledAloRule(rule.name, compiled)
