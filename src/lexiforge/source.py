r"""The source lexical base: data types and parser.

A source base is a sectioned text format.  `#MORPHEMES`, `#WORDS`,
`#CLASSES` and `#LEXEMES` hold blank-line separated entries (a name
line with optional parent list, then `path = value ...` equations).
`#ALO-RULES` holds string-rewriting rule blocks, `#DATA-DICT` feature
declarations, `#DICT-RULES` the equations that turn resolved entries
into object dictionary entries.  `#INCLUDE "relative/path"` splices
another file in between entries.

Section headers start at column 0.  A physical line ends at `\r\n`,
`\r` or `\n`.  `;` starts a comment (except inside quoted strings), a
trailing backslash joins the next physical line before tokenizing, and
blank lines separate entries and rules.

One string pattern decides where a quoted string ends, for comments
and for tokens alike: inside quotes `\"` and `\\` are escapes, any
other backslash is literal, and `;` is text.  A line that ends inside
an unterminated string is not joined to the next by a trailing
backslash (tokenizing it then reports the unterminated string).  One
symbol character class, `feature_tree.SYMBOL_CHAR`, decides what a bare
symbol may hold, for the scanner and for `is_symbol_text` alike.
Plain text skips the scans: a line with no `"`, `;` or backslash is
passed on as it is (unless it continues a joined line), an entry head
`name (P1 P2)` is read by one match, and a plain equation line by one
split; any other equation line, and every error, goes through
`tokenize`.

Parses are total: any input produces a ParseResult whose diagnostics
carry file and line positions.  `parse_equation`, the one reader that
`object_dict.load` and `morph_engine.parse_wf_rules` share with the
source parser, raises SourceSyntaxError instead.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .alo_rules import check_pattern
from .diagnostics import ERROR, Diagnostic, has_errors
from .feature_tree import (
    EMPTY_TREE,
    FeatureTree,
    Quoted,
    RESERVED_CHARS,
    SYMBOL_CHAR,
    ValueSet,
)

SECTION_HEADERS = {
    "#MORPHEMES": "morphemes",
    "#WORDS": "words",
    "#CLASSES": "classes",
    "#LEXEMES": "lexemes",
    "#ALO-RULES": "alo-rules",
    "#DATA-DICT": "data-dict",
    "#DICT-RULES": "dict-rules",
}

ENTRY_SECTIONS = ("morphemes", "words", "classes", "lexemes")
DICT_SUBSECTIONS = {"LEXEMES": "lexemes", "MORPHEMES": "morphemes", "WORDS": "words"}


class SourceSyntaxError(Exception):
    def __init__(self, message: str, file: str | None = None, line: int | None = None):
        self.message = message
        self.file = file
        self.line = line
        super().__init__(message)

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(ERROR, self.message, file=self.file, line=self.line)


# -- value terms ---------------------------------------------------------

@dataclass(frozen=True)
class RuleCall:
    """Placeholder value: apply the named allomorphy rule to the entry name."""

    rule: str


@dataclass(frozen=True)
class SelfRef:
    """Placeholder value for the token `$$`: the entry's own name."""


def term_node(values: tuple) -> object:
    """Leaf node for an equation's values: a placeholder, or a ValueSet
    of the values, each a `str` (a `Quoted` one when written in quotes)."""
    first = values[0]
    if isinstance(first, (RuleCall, SelfRef)):
        return first
    return ValueSet(values)


# -- definitions ---------------------------------------------------------

@dataclass
class Equation:
    path: tuple[str, ...]
    values: tuple
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class Entry:
    name: str
    parents: tuple[str, ...]
    equations: tuple[Equation, ...]
    section: str
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)

    def tree(self) -> FeatureTree:
        """Equations folded in source order; later assignments override.

        Raises PathThroughLeaf when the entry treats some feature both
        as atomic and as structured.
        """
        t = EMPTY_TREE
        for eq in self.equations:
            t = t.set(eq.path, term_node(eq.values))
        return t


@dataclass
class Production:
    """One rewrite: segment tuples of ('lit', text) / ('var', name)."""

    lhs: tuple[tuple[str, str], ...]
    rhs: tuple[tuple[str, str], ...]


@dataclass
class AloRule:
    name: str
    variables: dict[str, str]
    productions: tuple[Production, ...]
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class DictEquation:
    """target/source: None is the entry name (`$$`), a tuple is a path
    under `@` (the empty tuple being the whole tree).  Deletions apply
    to a copy of the source subtree before assignment."""

    target: tuple[str, ...] | None
    source: tuple[str, ...] | None
    deletions: tuple[tuple[str, ...], ...] = ()
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class DictRule:
    equations: tuple[DictEquation, ...]
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class DictRuleSet:
    lexemes: tuple[DictRule, ...] = ()
    morphemes: tuple[DictRule, ...] = ()
    words: tuple[DictRule, ...] = ()

    def for_section(self, section: str) -> tuple[DictRule, ...]:
        return getattr(self, section)


OPEN, CLOSED, STRUCTURED = "open", "closed", "structured"


@dataclass
class TypeDecl:
    label: str
    kind: str
    values: ValueSet | None = None
    alternatives: tuple[tuple[str, ...], ...] = ()
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class SourceBase:
    morphemes: dict[str, Entry] = field(default_factory=dict)
    words: dict[str, Entry] = field(default_factory=dict)
    classes: dict[str, Entry] = field(default_factory=dict)
    lexemes: dict[str, Entry] = field(default_factory=dict)
    alo_rules: dict[str, AloRule] = field(default_factory=dict)
    data_dict: dict[str, TypeDecl] = field(default_factory=dict)
    dict_rules: DictRuleSet = field(default_factory=DictRuleSet)
    sections_seen: frozenset[str] = field(default=frozenset(), compare=False)
    includes: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def entries_in(self, section: str) -> dict[str, Entry]:
        return getattr(self, section)


@dataclass
class ParseResult:
    base: SourceBase
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


# -- lexical layer -------------------------------------------------------

class Token(NamedTuple):
    kind: str  # sym, str, =, (, ), call, self
    text: str


# A quoted string.  `\"` and `\\` are escapes; any other backslash is
# literal, but it still takes the next character with it, so it can
# never end the string.  Comments and tokens both find strings with
# this one pattern, so they always agree on where a string ends.
_STRING = r'"(?:[^"\\]|\\.)*"'

# The code part of a physical line: it stops at a `;` comment, or at a
# `"` that opens no closed string (the line then ends inside it).
_CODE = re.compile(r'(?s)(?:[^";]+|%s)*' % _STRING)

# One token, or a lone `$`, `#`, `;` or `\` that starts none.  A `"`
# that opens no closed string takes the rest of the text, so that no
# later `"` is tried again and the scan stays linear.
_TOKEN = re.compile(r'(?s)%s|".*|[=()]|\$\$|\$%s*|%s+|\S' % (_STRING, SYMBOL_CHAR, SYMBOL_CHAR))
_CLOSED = re.compile("(?s)" + _STRING)
_ESCAPE = re.compile(r'\\(["\\])')


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """Comment-stripped lines with backslash continuations joined.

    A physical line ends at CR LF, a lone CR or LF, as in text read
    with `open()`.  Each result keeps the line number of its first
    physical line.  A line that ends inside an unterminated string is
    kept whole, and a backslash at its end does not join the next line.
    """
    out: list[tuple[int, str]] = []
    pending: str | None = None
    pending_line = 0
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for i, raw in enumerate(text.split("\n"), start=1):
        if pending is None and not ('"' in raw or ";" in raw or "\\" in raw):
            out.append((i, raw))  # no string, comment or continuation
            continue
        code = _CODE.match(raw).end()
        open_quote = raw.startswith('"', code)
        stripped = raw if open_quote else raw[:code]
        body = stripped.rstrip()
        if body.endswith("\\") and not open_quote:
            piece = body[:-1]
            if pending is None:
                pending, pending_line = piece, i
            else:
                pending += piece
            continue
        if pending is not None:
            out.append((pending_line, pending + stripped))
            pending = None
        else:
            out.append((i, stripped))
    if pending is not None:
        out.append((pending_line, pending))
    return out


def tokenize(text: str, file: str | None = None, line: int | None = None) -> list[Token]:
    """Tokens of a logical line; the first character that starts no
    token raises SourceSyntaxError at file:line."""
    tokens: list[Token] = []
    for tok in _TOKEN.findall(text):
        c = tok[0]
        if c == '"':
            if _CLOSED.fullmatch(tok) is None:
                raise SourceSyntaxError("unterminated string", file, line)
            body = tok[1:-1]
            tokens.append(Token("str", _ESCAPE.sub(r"\1", body) if "\\" in body else body))
        elif c in "=()":
            tokens.append(Token(c, c))
        elif c == "$":
            if len(tok) == 1:
                raise SourceSyntaxError("expected a rule name after '$'", file, line)
            tokens.append(Token("self", tok) if tok == "$$" else Token("call", tok[1:]))
        elif c in "#;\\":
            raise SourceSyntaxError("unexpected character %r" % c, file, line)
        else:
            tokens.append(Token("sym", tok))
    return tokens


# -- equations -----------------------------------------------------------

# Any reserved character but `=`.  A line with none of them and one `=`
# holds only symbols around it, and str.split() cuts them exactly where
# the scanner would: `\s` matches what str.isspace() accepts.
_NOT_PLAIN = re.compile("[%s]" % re.escape("".join(sorted(RESERVED_CHARS - {"="}))))


def parse_equation(text: str, file: str | None = None, line: int | None = None) -> Equation:
    """`path = v1 v2 ...` with symbol, string, `$rule` and `$$` values.

    A plain line (one `=`, a path and values of symbols only) is split
    directly; any other line, and every error, goes through `tokenize`.
    """
    lhs, eq, rhs = text.partition("=")
    if eq and "=" not in rhs and _NOT_PLAIN.search(text) is None:
        path, symbols = tuple(lhs.split()), rhs.split()
        if path and symbols:
            return Equation(path, tuple(symbols), file, line)
    tokens = tokenize(text, file, line)
    split = [i for i, t in enumerate(tokens) if t.kind == "="]
    if len(split) != 1:
        raise SourceSyntaxError("an equation needs exactly one '='", file, line)
    lhs, rhs = tokens[: split[0]], tokens[split[0] + 1 :]
    if not lhs:
        raise SourceSyntaxError("missing feature path before '='", file, line)
    for t in lhs:
        if t.kind != "sym":
            raise SourceSyntaxError("feature paths hold bare labels only", file, line)
    if not rhs:
        raise SourceSyntaxError("missing values after '='", file, line)
    values: list = []
    for t in rhs:
        if t.kind == "sym":
            values.append(t.text)
        elif t.kind == "str":
            values.append(Quoted(t.text))
        elif t.kind == "call":
            values.append(RuleCall(t.text))
        elif t.kind == "self":
            values.append(SelfRef())
        else:
            raise SourceSyntaxError("unexpected %r in value list" % t.text, file, line)
    _check_alone(values, file, line)
    return Equation(tuple(t.text for t in lhs), tuple(values), file, line)


def _check_alone(values: list, file: str | None, line: int | None) -> None:
    """Refuse a rule call, `$$` or quoted string among other values."""
    if len(values) > 1:
        if any(isinstance(v, (RuleCall, SelfRef)) for v in values):
            raise SourceSyntaxError(
                "a rule call or '$$' must be the only value", file, line
            )
        if any(isinstance(v, Quoted) for v in values):
            raise SourceSyntaxError(
                "a string value must be the only value", file, line
            )


# -- entry heads ---------------------------------------------------------

# An entry head, `name` or `name (P1 P2 ...)`: symbols, whitespace and
# one parenthesized list.  It holds no reserved character but the
# parentheses, so it tokenizes to exactly these symbols; and a line
# that tokenizes to a symbol and a parenthesized list of symbols holds
# only these characters, so it matches.
_PLAIN_HEAD = re.compile(
    r"\s*(%s+)\s*(?:\(([^%s]*)\)\s*)?"
    % (SYMBOL_CHAR, re.escape("".join(sorted(RESERVED_CHARS))))
)


def _entry_head(text: str, file: str | None, line: int | None) -> tuple[str, tuple[str, ...]]:
    """The name and parents of an entry's first line.

    A head is read by one match.  Every head the tokens would accept
    matches it, so any other head is an error, worded by `tokenize` or
    by the checks below.
    """
    plain = _PLAIN_HEAD.fullmatch(text)
    if plain is not None:
        name, inner = plain.groups()
        return name, tuple(inner.split()) if inner else ()
    head = tokenize(text, file, line)
    if not head or head[0].kind != "sym":
        raise SourceSyntaxError("expected an entry name", file, line)
    rest = head[1:]
    if rest and (rest[0].kind != "(" or rest[-1].kind != ")"):
        raise SourceSyntaxError("expected '(parents)' or nothing after the entry name", file, line)
    raise SourceSyntaxError("parent lists hold bare names only", file, line)


# -- allomorphy rule blocks ----------------------------------------------

def _scan_segments(
    s: str, variables: dict[str, str], file: str | None, line: int | None
) -> tuple[tuple[str, str], ...]:
    segs: list[tuple[str, str]] = []
    lit: list[str] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "$":
            if i + 1 >= len(s) or not s[i + 1].isalpha():
                raise SourceSyntaxError("expected a variable letter after '$'", file, line)
            v = s[i + 1]
            if v not in variables:
                raise SourceSyntaxError("undeclared variable '$%s'" % v, file, line)
            if lit:
                segs.append(("lit", "".join(lit)))
                lit = []
            segs.append(("var", v))
            i += 2
            continue
        if c.isspace():
            raise SourceSyntaxError("patterns may not contain spaces", file, line)
        lit.append(c)
        i += 1
    if lit:
        segs.append(("lit", "".join(lit)))
    return tuple(segs)


def _parse_alo_block(block: list[tuple[int, str]], file: str | None) -> AloRule:
    first_line, first_text = block[0]
    head = tokenize(first_text, file, first_line)
    if len(head) != 1 or head[0].kind != "sym":
        raise SourceSyntaxError("expected a rule name on its own line", file, first_line)
    name = head[0].text
    variables: dict[str, str] = {}
    productions: list[Production] = []
    for line_no, text in block[1:]:
        body = text.strip()
        if body.startswith("{"):
            if productions:
                raise SourceSyntaxError(
                    "variable declarations must precede productions", file, line_no
                )
            if not body.endswith("}"):
                raise SourceSyntaxError("unterminated variable declaration", file, line_no)
            inner = body[1:-1]
            eq = inner.find("=")
            if eq < 0:
                raise SourceSyntaxError("expected '=' in variable declaration", file, line_no)
            var = inner[:eq].strip()
            pattern = inner[eq + 1 :].strip()
            if len(var) != 1 or not var.isalpha():
                raise SourceSyntaxError(
                    "variable names are single letters", file, line_no
                )
            if var in variables:
                raise SourceSyntaxError("variable '%s' redeclared" % var, file, line_no)
            if not pattern:
                raise SourceSyntaxError("empty pattern for variable '%s'" % var, file, line_no)
            reason = check_pattern(pattern)
            if reason is not None:
                message = "rule '%s', variable '%s': %s" % (name, var, reason)
                raise SourceSyntaxError(message, file, line_no)
            variables[var] = pattern
            continue
        parts = body.split("->")
        if len(parts) != 2:
            raise SourceSyntaxError(
                "expected 'pattern -> replacement'", file, line_no
            )
        lhs_text, rhs_text = parts[0].strip(), parts[1].strip()
        if not lhs_text:
            raise SourceSyntaxError("empty pattern", file, line_no)
        if not rhs_text:
            raise SourceSyntaxError("empty replacement", file, line_no)
        lhs = _scan_segments(lhs_text, variables, file, line_no)
        rhs = _scan_segments(rhs_text, variables, file, line_no)
        bound = {v for kind, v in lhs if kind == "var"}
        for kind, v in rhs:
            if kind == "var" and v not in bound:
                raise SourceSyntaxError(
                    "variable '$%s' in the replacement is not matched by the pattern" % v,
                    file,
                    line_no,
                )
        productions.append(Production(lhs, rhs))
    if not productions:
        raise SourceSyntaxError("rule '%s' has no productions" % name, file, first_line)
    return AloRule(name, variables, tuple(productions), file, first_line)


# -- data dictionary declarations ----------------------------------------

def _parse_decl(text: str, file: str | None, line: int | None) -> TypeDecl:
    tokens = tokenize(text, file, line)
    if len(tokens) < 2 or tokens[0].kind != "sym" or tokens[1].kind != "=":
        raise SourceSyntaxError("expected 'label = ...'", file, line)
    label = tokens[0].text
    rest = tokens[2:]
    if not rest:
        return TypeDecl(label, OPEN, file=file, line=line)
    if any(t.kind == "sym" and t.text == "@" for t in rest):
        alternatives: list[tuple[str, ...]] = []
        i = 0
        while i < len(rest):
            if rest[i].kind != "sym" or rest[i].text != "@":
                raise SourceSyntaxError("expected '@(' alternative", file, line)
            if i + 1 >= len(rest) or rest[i + 1].kind != "(":
                raise SourceSyntaxError("expected '(' after '@'", file, line)
            i += 2
            labels: list[str] = []
            while i < len(rest) and rest[i].kind == "sym":
                labels.append(rest[i].text)
                i += 1
            if i >= len(rest) or rest[i].kind != ")":
                raise SourceSyntaxError("unterminated alternative", file, line)
            if not labels:
                raise SourceSyntaxError("empty alternative", file, line)
            alternatives.append(tuple(labels))
            i += 1
        return TypeDecl(label, STRUCTURED, alternatives=tuple(alternatives), file=file, line=line)
    values: list[str] = []
    for t in rest:
        if t.kind == "sym":
            values.append(t.text)
        elif t.kind == "str":
            values.append(Quoted(t.text))
        else:
            raise SourceSyntaxError("declared values must be atoms", file, line)
    _check_alone(values, file, line)
    return TypeDecl(label, CLOSED, values=ValueSet(values), file=file, line=line)


# -- dictionary generation rules -----------------------------------------

def _parse_dict_equation(text: str, file: str | None, line: int | None) -> DictEquation:
    tokens = tokenize(text, file, line)
    split = [i for i, t in enumerate(tokens) if t.kind == "="]
    if len(split) != 1:
        raise SourceSyntaxError("an equation needs exactly one '='", file, line)
    lhs, rhs = tokens[: split[0]], tokens[split[0] + 1 :]

    if len(lhs) == 1 and lhs[0].kind == "self":
        target = None
    elif lhs and lhs[0].kind == "sym" and lhs[0].text == "@":
        labels = []
        for t in lhs[1:]:
            if t.kind != "sym":
                raise SourceSyntaxError("target paths hold bare labels only", file, line)
            labels.append(t.text)
        target = tuple(labels)
    else:
        raise SourceSyntaxError("the target is '$$' or '@ path'", file, line)

    deletions: list[tuple[str, ...]] = []
    if len(rhs) == 1 and rhs[0].kind == "self":
        source = None
    elif rhs and rhs[0].kind == "sym" and rhs[0].text == "@":
        labels = []
        i = 1
        while i < len(rhs) and rhs[i].kind == "sym":
            labels.append(rhs[i].text)
            i += 1
        source = tuple(labels)
        if i < len(rhs):
            if rhs[i].kind != "(":
                raise SourceSyntaxError("unexpected %r" % rhs[i].text, file, line)
            i += 1
            while i < len(rhs) and rhs[i].kind != ")":
                if rhs[i].kind != "sym" or rhs[i].text != "-":
                    raise SourceSyntaxError("deletions are written '- path'", file, line)
                i += 1
                dpath = []
                while i < len(rhs) and rhs[i].kind == "sym" and rhs[i].text != "-":
                    dpath.append(rhs[i].text)
                    i += 1
                if not dpath:
                    raise SourceSyntaxError("empty deletion path", file, line)
                deletions.append(tuple(dpath))
            if i >= len(rhs) or rhs[i].kind != ")":
                raise SourceSyntaxError("unterminated deletion list", file, line)
            if i + 1 != len(rhs):
                raise SourceSyntaxError("trailing tokens after deletions", file, line)
    else:
        raise SourceSyntaxError("the source is '$$' or '@ path'", file, line)
    return DictEquation(target, source, tuple(deletions), file, line)


def _parse_dict_rule(block: list[tuple[int, str]], file: str | None) -> DictRule:
    equations = [_parse_dict_equation(t, file, n) for n, t in block]
    if not any(eq.target is None for eq in equations):
        raise SourceSyntaxError("a rule must assign '$$'", file, block[0][0])
    if not any(eq.target is not None for eq in equations):
        raise SourceSyntaxError("a rule must assign '@'", file, block[0][0])
    return DictRule(tuple(equations), file, block[0][0])


# -- the file-level parser -----------------------------------------------

Loader = Callable[[str], str]


def read_file(path: str) -> str:
    """The default loader: the file's text, read as UTF-8."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class _State:
    def __init__(self, loader: Loader):
        self.loader = loader
        self.base = SourceBase()
        self.diagnostics: list[Diagnostic] = []
        self.sections_seen: set[str] = set()
        self.includes: list[tuple[str, str]] = []
        self.active: list[str] = []
        self.loaded: set[str] = set()
        self.dict_rules: dict[str, list[DictRule]] = {
            "lexemes": [],
            "morphemes": [],
            "words": [],
        }

    def error(self, message: str, file=None, line=None):
        self.diagnostics.append(Diagnostic(ERROR, message, file=file, line=line))

    def syntax_error(self, exc: SourceSyntaxError):
        self.diagnostics.append(exc.to_diagnostic())

    def register(self, table: dict, key: str, item, message: str, *more: str):
        """Store item under key unless the key is taken.  A second
        definition is dropped and reported at its own place: `message`
        is formatted with the key, `more`, and the first definition's
        file and line."""
        old = table.setdefault(key, item)
        if old is not item:
            self.error(message % (key, *more, old.file, old.line), file=item.file, line=item.line)

    # -- file parsing ------------------------------------------------

    def parse_file(self, path: str, site: tuple[str | None, int | None] = (None, None)):
        key = posixpath.normpath(path)
        if key in self.active:
            self.error(
                "include cycle: %s" % " -> ".join(self.active + [key]),
                file=site[0],
                line=site[1],
            )
            return
        if key in self.loaded:
            return
        try:
            text = self.loader(key)
        except UnicodeDecodeError as exc:
            self.error(
                "%s is not valid UTF-8 at byte %d" % (key, exc.start),
                file=site[0],
                line=site[1],
            )
            return
        except OSError as exc:
            self.error("cannot read %s: %s" % (key, exc), file=site[0], line=site[1])
            return
        self.active.append(key)
        self.loaded.add(key)
        try:
            self._parse_lines(key, _logical_lines(text))
        finally:
            self.active.pop()

    def _parse_lines(self, file: str, lines: list[tuple[int, str]]):
        section: str | None = None
        dict_subsection: str | None = None
        block: list[tuple[int, str]] = []

        def flush():
            nonlocal block
            if block:
                self._handle_block(file, section, dict_subsection, block)
                block = []

        for line_no, text in lines:
            if not text.strip():
                flush()
                continue
            if text.startswith("#"):
                flush()
                head = text.split(None, 1)[0]
                if head == "#INCLUDE":
                    self._handle_include(file, line_no, text[len("#INCLUDE") :])
                    continue
                target = SECTION_HEADERS.get(text.strip())
                if target is None:
                    self.error("unknown directive %r" % text.strip(), file, line_no)
                    section = "<invalid>"
                    continue
                section = target
                dict_subsection = None
                self.sections_seen.add(target)
                continue
            if section == "dict-rules":
                keyword = DICT_SUBSECTIONS.get(text.strip())
                if keyword is not None and not block:
                    dict_subsection = keyword
                    continue
            block.append((line_no, text))
        flush()

    def _handle_include(self, file: str, line_no: int, rest: str):
        try:
            tokens = tokenize(rest, file, line_no)
        except SourceSyntaxError as exc:
            self.syntax_error(exc)
            return
        if len(tokens) != 1 or tokens[0].kind != "str":
            self.error('#INCLUDE takes one quoted path', file, line_no)
            return
        target = posixpath.normpath(posixpath.join(posixpath.dirname(file), tokens[0].text))
        self.includes.append((file, target))
        self.parse_file(target, (file, line_no))

    def _handle_block(self, file, section, dict_subsection, block):
        if section is None:
            self.error("content before any section header", file, block[0][0])
            return
        if section == "<invalid>":
            return
        if section in ENTRY_SECTIONS:
            self._entry_block(file, section, block)
        elif section == "alo-rules":
            try:
                rule = _parse_alo_block(block, file)
                self.register(
                    self.base.alo_rules, rule.name, rule,
                    "duplicate rule '%s' (first defined at %s:%s)",
                )
            except SourceSyntaxError as exc:
                self.syntax_error(exc)
        elif section == "data-dict":
            for line_no, text in block:
                try:
                    decl = _parse_decl(text, file, line_no)
                    self.register(
                        self.base.data_dict, decl.label, decl,
                        "feature '%s' redeclared (first declared at %s:%s)",
                    )
                except SourceSyntaxError as exc:
                    self.syntax_error(exc)
        elif section == "dict-rules":
            if dict_subsection is None:
                self.error(
                    "dictionary rules need a LEXEMES/MORPHEMES/WORDS subsection",
                    file,
                    block[0][0],
                )
                return
            try:
                self.dict_rules[dict_subsection].append(_parse_dict_rule(block, file))
            except SourceSyntaxError as exc:
                self.syntax_error(exc)

    def _entry_block(self, file, section, block):
        first_line, first_text = block[0]
        try:
            name, parents = _entry_head(first_text, file, first_line)
        except SourceSyntaxError as exc:
            self.syntax_error(exc)
            return
        equations: list[Equation] = []
        for line_no, text in block[1:]:
            try:
                equations.append(parse_equation(text, file, line_no))
            except SourceSyntaxError as exc:
                self.syntax_error(exc)
        self.register(
            self.base.entries_in(section), name,
            Entry(name, parents, tuple(equations), section, file, first_line),
            "duplicate entry '%s' in #%s (first defined at %s:%s)", section.upper(),
        )

    def result(self) -> ParseResult:
        self.base.dict_rules = DictRuleSet(
            lexemes=tuple(self.dict_rules["lexemes"]),
            morphemes=tuple(self.dict_rules["morphemes"]),
            words=tuple(self.dict_rules["words"]),
        )
        self.base.sections_seen = frozenset(self.sections_seen)
        self.base.includes = tuple(self.includes)
        return ParseResult(self.base, self.diagnostics)


def parse_source(root: str, loader: Loader | None = None) -> ParseResult:
    """Parse a source base starting at `root`, following includes.

    `loader` maps a normalized path to file text; the default reads the
    filesystem as UTF-8.  All problems are reported as positioned
    diagnostics; a best-effort base is always returned.
    """
    state = _State(loader or read_file)
    state.parse_file(str(root))
    return state.result()


def parse_source_text(
    text: str, name: str = "<source>", files: dict[str, str] | None = None
) -> ParseResult:
    """Parse from a string; `files` supplies include targets by path."""
    table = dict(files or {})
    table[name] = text

    def loader(path: str) -> str:
        try:
            return table[path]
        except KeyError:
            raise FileNotFoundError(path)

    return parse_source(name, loader)
