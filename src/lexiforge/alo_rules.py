"""Allomorph computation: anchored string rewriting over named rules.

A rule is an ordered list of productions.  Each production's pattern is
a mix of literal text and single-letter variables; a variable stands
for a regular expression given in its declaration.  The whole pattern
must cover the whole argument (anchored at both ends), productions are
tried in source order, and within one production matching is leftmost
greedy with backtracking: earlier variables take the longest text that
still lets the rest of the pattern succeed.

The pinned regular-expression dialect is deliberately small: literals,
'.', '*', '+', '?', alternation '|', grouping '(...)', character
classes '[...]' and backslash-escaped punctuation.  Anything else is
rejected at compile time so rule behavior cannot depend on engine
extensions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .source import AloRule


class BadPattern(Exception):
    def __init__(self, rule: str, variable: str, reason: str):
        self.rule = rule
        self.variable = variable
        self.reason = reason
        super().__init__("rule '%s', variable '%s': %s" % (rule, variable, reason))


def _check_dialect(pattern: str) -> str | None:
    """Reason the pattern falls outside the pinned dialect, or None."""
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
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
            out: list[str] = []
            for kind, text in prod.rhs:
                if kind == "lit":
                    out.append(text)
                else:
                    out.append(m.group(prod.groups[text]))
            return "".join(out)
        return None


def compile_alo_rule(rule: AloRule) -> CompiledAloRule:
    """Validate variable patterns and assemble one anchored regex per
    production.  Raises BadPattern for dialect violations or patterns
    the engine rejects."""
    checked: dict[str, str] = {}
    for var, pattern in rule.variables.items():
        reason = _check_dialect(pattern)
        if reason is not None:
            raise BadPattern(rule.name, var, reason)
        try:
            re.compile(pattern)
        except re.error as exc:
            raise BadPattern(rule.name, var, str(exc))
        checked[var] = pattern

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
                parts.append("(?P<%s>%s)" % (gname, checked[text]))
        compiled.append(CompiledProduction(prod.rhs, re.compile("".join(parts)), groups))
    return CompiledAloRule(rule.name, compiled)
