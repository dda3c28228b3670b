"""The object dictionary: compiled entries plus lookup indexes.

An entry pairs a surface string with a feature tree; the dictionary
indexes its entries by surface, and by the values of any top-level
feature a query names (the lemma, a feature a word-formation rule
draws a constituent by), each such index built on its first use, and
it keeps generation's candidate tables and lemma rows and the surface
sets analysis prunes its splits by.  The on-disk form is line based
and canonical: a version header, then entries sorted by surface and
canonical tree text, each entry being its surface line followed by
two-space-indented canonical form lines and a blank line.
Saving the same dictionary twice yields identical bytes.
"""

from __future__ import annotations

import gc
import os
import stat
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Callable, Iterable, Iterator

from .diagnostics import WARNING, Diagnostic
from .feature_tree import FeatureTree, PathThroughLeaf, ValueSet, is_symbol_text
from .source import SourceSyntaxError, parse_equation, term_node

MAGIC = "LEXIFORGE-OBJDICT"
FORMAT_VERSION = "1"
HEADER = "%s %s" % (MAGIC, FORMAT_VERSION)

# Characters `load` reads, and `save` writes, at a time.
BLOCK_SIZE = 1 << 16


class FormatError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else "line %d: %s" % (line, message))


@dataclass(frozen=True, slots=True)
class ObjectEntry:
    surface: str
    tree: FeatureTree
    source_name: str = field(default="", compare=False)


@dataclass(frozen=True)
class DictStats:
    entries: int
    surfaces: int
    lemmas: int
    homographs: int


class ObjectDictionary:
    """Object entries, which never change, with derived indexes and
    the caches of generation and analysis, all filled on first use.

    The dictionary knows no index feature: the dictionary rules decide
    what ends up meaning "lemma", and the word-formation rules which
    feature a constituent is drawn by, so each query names its feature,
    and the feature's value index is built when a query first reads it.
    """

    def __init__(self, entries: Iterable[ObjectEntry], warnings: Iterable[Diagnostic] = ()):
        self.entries = tuple(entries)
        self.warnings = tuple(warnings)
        self.surface_index: dict[str, list[ObjectEntry]] = {}
        for entry in self.entries:
            self.surface_index.setdefault(entry.surface, []).append(entry)
        # feature -> its `_value_index`, filled on first use
        self.value_indexes: dict[str, tuple[dict[str, list[ObjectEntry]], list[ObjectEntry]]] = {}
        # generation's caches, filled by `morph_engine.generate` on first
        # use.  A row is (entry, nodes), the entry's nodes at the key's
        # paths.  A rule plan and a table key (index or None, paths, value
        # tests) appear in the keys as the int tags `morph_engine._tag`
        # gave them when the plan was built, so a warmed call hashes
        # neither.  A tag stands for a value, never an identity: equal
        # plans from a second parse of the rules share the kept tables.
        # No tag is made from a caller's constraints.  `node_tables`
        # holds at most `morph_engine.MAX_NODE_TABLES` entries, of three
        # kinds: key tag -> the table, the rows of a table-drawn
        # constituent that pass its key's value tests; (plan tag,
        # constraints) -> the cell state (`morph_engine._cell`), what a
        # call derives from the two: each constituent's constraint
        # tests, each table cut to the rows that clear them (its
        # narrowed table), and per joined constituent a join key, an
        # object of its own; (join key, probe) -> the rows of that
        # narrowed table that also clear the probe, the outer rows'
        # nodes at the join's paths, with their surfaces.  So a warmed
        # call makes one lookup for the cell state and one per outer
        # combination for each join.
        # `lemma_rows` maps (key tag, lemma feature) to lemma -> the
        # rows of a lemma-drawn constituent that pass its value tests,
        # with a slot only for a lemma the feature's index holds, so it
        # never outgrows that index.
        # The keys hold the caller's constraints and the entries' nodes,
        # whose hashes a tree and a leaf keep once made: they hold only
        # because no tree, leaf or constraints tree can change once built
        # (a tree's `children` is a read-only view).
        self.node_tables: dict[object, object] = {}
        self.lemma_rows: dict[tuple, dict[str, tuple]] = {}
        # analysis's cache, filled by `morph_engine.analyze` on first use:
        # an index (f, v) -> the surfaces of the entries
        # `lookup_by_concat(v, f)` gives, and a plan tag -> its
        # constituents' sets.  Its keys come from the rules alone, never
        # from a caller's input, so it holds a few entries per rule and
        # needs no bound.  In `node_tables`, which a stream of constraints
        # can fill, a set not kept would be rebuilt on every word.
        self.surface_sets: dict[object, object] = {}

    @classmethod
    def build(cls, entries: Iterable[ObjectEntry]) -> "ObjectDictionary":
        """Deduplicate and index.  Exact duplicates (same surface and
        canonical tree) collapse to the first occurrence, each with a
        warning.  Only entries whose surface occurs more than once can
        be duplicates, so only their canonical forms are computed."""
        entries = list(entries)
        homographs = Counter(entry.surface for entry in entries)
        kept: list[ObjectEntry] = []
        warnings: list[Diagnostic] = []
        seen: set[tuple[str, str]] = set()
        for entry in entries:
            if homographs[entry.surface] > 1:
                key = (entry.surface, entry.tree.canonical_form())
                if key in seen:
                    warnings.append(
                        Diagnostic(
                            WARNING,
                            "duplicate object entry '%s' collapsed (from '%s')"
                            % (entry.surface, entry.source_name or entry.surface),
                            entry=entry.source_name or entry.surface,
                        )
                    )
                    continue
                seen.add(key)
            kept.append(entry)
        return cls(kept, warnings)

    def _value_index(self, feature: str) -> tuple[dict[str, list[ObjectEntry]], list[ObjectEntry]]:
        """(value -> the entries whose leaf at the top-level feature
        holds it, the entries with no node there), in entry order,
        built once per feature.  Each value of a multi-valued leaf is
        indexed; an entry with a subtree at the feature is in neither."""
        index = self.value_indexes.get(feature)
        if index is None:
            holders: dict[str, list[ObjectEntry]] = {}
            lacking: list[ObjectEntry] = []
            for entry in self.entries:
                node = entry.tree._children.get(feature)
                if node is None:
                    lacking.append(entry)
                elif isinstance(node, ValueSet):
                    for value in node:
                        holders.setdefault(value, []).append(entry)
            index = self.value_indexes[feature] = (holders, lacking)
        return index

    # -- lookups ---------------------------------------------------------

    def lookup(self, surface: str) -> list[ObjectEntry]:
        return list(self.surface_index.get(surface, ()))

    def lookup_by_lemma(self, lemma: str, feature: str = "lex") -> list[ObjectEntry]:
        return list(self._value_index(feature)[0].get(lemma, ()))

    def lookup_by_concat(self, category: str, feature: str = "concat") -> list[ObjectEntry]:
        """The entries an equation `C feature = category` can take: those
        whose leaf holds the category, then those lacking the feature,
        which the equation gives it."""
        holders, lacking = self._value_index(feature)
        return holders.get(category, []) + lacking

    def stats(self, lex_feature: str = "lex") -> DictStats:
        surfaces = len(self.surface_index)
        homographs = sum(1 for found in self.surface_index.values() if len(found) > 1)
        lemmas = len(self._value_index(lex_feature)[0])
        return DictStats(len(self.entries), surfaces, lemmas, homographs)


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector, and leave it as it was found
    on exit, on errors too.

    For stages that build many objects and no reference cycles (trees
    are immutable and acyclic): the collector's passes over the growing
    heap would find no garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def storable_surface(surface: str) -> bool:
    """True when `save` can write the surface as an entry line that
    `load` reads back: not empty, not starting with whitespace (an
    indented line is a feature line), no line break."""
    return bool(surface) and not surface[0].isspace() and not (
        "\n" in surface or "\r" in surface
    )


def _check_quoting(entry: ObjectEntry) -> None:
    """Refuse a leaf whose values include one that must be written
    quoted among others: a quoted string must be the only value of its
    leaf, so `load` could not read the line back."""
    for path, values in entry.tree.leaves():
        if len(values) > 1 and not all(map(is_symbol_text, values)):
            raise ValueError(
                "leaf '%s' of %r holds a value that needs quotes among others"
                % (" ".join(path), entry.surface)
            )


def indented(canon: str) -> str:
    r"""Canonical text with each line indented by two spaces, by one
    replace on "\n" alone: str.splitlines() would also split inside
    quoted values at characters such as "\x0b" and "\u2028"."""
    return "  " + canon[:-1].replace("\n", "\n  ") + "\n" if canon else ""


@paused_gc()
def save(dictionary: ObjectDictionary, dest: str | IO[str]) -> None:
    """Write the canonical on-disk form (byte deterministic).

    Each entry's block is its surface line and its tree's kept
    canonical text, indented by one replace.  Raises ValueError, before
    anything is written, for a dictionary the format cannot carry back
    unchanged.  The text is written `BLOCK_SIZE` characters or so at a
    time and never held whole.  To a path it goes through a temporary
    file renamed over `dest`, so a failure part way (a lone surrogate
    raises UnicodeEncodeError) leaves `dest` as it was.  The cyclic
    garbage collector is paused throughout, as in `load`, and left as
    it was found.
    """
    rows = []
    for entry in dictionary.entries:
        surface = entry.surface
        if not storable_surface(surface):
            raise ValueError("surface %r is not serializable" % surface)
        canon = entry.tree.canonical_form()
        if '"' in canon:  # labels never hold '"'; only quoted values do
            _check_quoting(entry)
        rows.append((surface, canon))
    rows.sort()
    for row, following in zip(rows, rows[1:]):
        if row == following:  # load would collapse the two
            raise ValueError("duplicate entry %r" % row[0])

    def write(handle: IO[str]) -> None:
        parts = [HEADER + "\n"]
        size = 0
        for surface, canon in rows:
            part = surface + "\n" + indented(canon) + "\n"
            parts.append(part)
            size += len(part)
            if size >= BLOCK_SIZE:
                handle.write("".join(parts))
                parts, size = [], 0
        handle.write("".join(parts))

    if isinstance(dest, str):
        _replace(dest, write)
    else:
        write(dest)


def _replace(dest: str, write: Callable[[IO[str]], None]) -> None:
    """Have `write` write UTF-8 text to a new file beside `dest` and
    rename that over `dest`, so an interrupted write leaves the old
    file whole.  The file gets the mode `open` would give it: the old
    file's, or for a new file 0o666 less the umask.  A link is written
    through, as `open` would; the temporary file is removed on any
    failure."""
    dest = os.path.realpath(dest)
    try:
        mode = stat.S_IMODE(os.stat(dest).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = "%s.%s.tmp" % (dest, os.urandom(8).hex())
    # os.open applies the umask, as open does; mkstemp would give 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise


def load(src: str | IO[str]) -> ObjectDictionary:
    """Read the on-disk form back; indexes are rebuilt from scratch.

    The text is read `BLOCK_SIZE` characters at a time and never held
    whole: each block's complete lines are parsed before the next block
    is read.  Each distinct equation line is parsed once per call, and
    every entry holding that line shares the one (immutable) leaf it
    yields.  Each entry's tree is built once, when its block ends, with
    children in the order of its lines.  The cyclic garbage collector is
    paused while the entries are built and indexed, and left as it was
    found on return and on error.  Raises FormatError, with the line
    number, for a missing or unsupported header and for anything `save`
    would not write: a carriage return, a malformed line, a placeholder
    value, a path given twice, and a path that runs through a leaf or
    ends above features already given.  A carriage return anywhere is
    the error reported, whatever else is wrong: after any other error
    the rest of the input is read, looking for one.
    """
    if isinstance(src, str):
        # newline="": read "\r" as written, as a stream would give it
        with open(src, "r", encoding="utf-8", newline="") as handle:
            return _load(handle)
    return _load(src)


def _load(handle: IO[str]) -> ObjectDictionary:
    blocks = _blocks(handle)
    try:
        _, lines = next(blocks)
        if lines[0] != HEADER:
            if lines[0].startswith(MAGIC):
                raise FormatError("unsupported dictionary version %r" % lines[0], line=1)
            raise FormatError("missing dictionary header", line=1)
        del lines[0]
        with paused_gc():
            return ObjectDictionary.build(_entries(chain([(2, lines)], blocks)))
    except FormatError:
        for _ in blocks:  # raises the carriage return's error, if the rest holds one
            pass
        raise


def _blocks(handle: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """The input's lines, a block at a time: (number of the block's
    first line, its lines).  Every block holds at least one line, and
    the last one ends with an empty line, which ends the last entry.
    Raises FormatError at the first carriage return."""
    line_no = 1
    rest = ""  # the line the previous block ended inside
    while True:
        chunk = handle.read(BLOCK_SIZE)
        text = rest + chunk
        cr = text.find("\r")
        if cr >= 0:
            raise FormatError(
                "carriage return (lines end with '\\n' alone)",
                line=line_no + text.count("\n", 0, cr),
            )
        lines = text.split("\n")
        if not chunk:
            lines.append("")
            yield line_no, lines
            return
        rest = lines.pop()
        if lines:
            start, line_no = line_no, line_no + len(lines)
            yield start, lines


def _entries(blocks: Iterable[tuple[int, list[str]]]) -> list[ObjectEntry]:
    """The entries of a dictionary file's blocks of lines, each with the
    number of its first line; the header is not among them."""
    entries: list[ObjectEntry] = []
    # Local to this call: a cache that outlived it would make later
    # loads in the same process cheaper than the first.
    parsed: dict[str, tuple[tuple[str, ...], ValueSet]] = {}
    surface: str | None = None
    root: dict[str, dict | ValueSet] = {}
    flat = True  # every line so far has a one-label path

    for start, lines in blocks:
        for line_no, line in enumerate(lines, start=start):
            if line.startswith("  "):
                if surface is None:
                    raise FormatError("indented line outside an entry", line=line_no)
                equation = parsed.get(line)
                if equation is None:
                    equation = parsed[line] = _parse_line(line[2:], line_no)
                path, values = equation
                if len(path) == 1 and path[0] not in root:
                    root[path[0]] = values
                else:
                    flat = False
                    _insert(root, path, values, line_no)
                continue
            if line and line[0].isspace():
                raise FormatError("bad indentation", line=line_no)
            if surface is not None:
                entries.append(ObjectEntry(surface, FeatureTree(root) if flat else _tree(root)))
            # A blank line ends the entry; any other line starts the next.
            surface, root, flat = line or None, {}, True
    return entries


def _parse_line(text: str, line_no: int) -> tuple[tuple[str, ...], ValueSet]:
    try:
        equation = parse_equation(text, line=line_no)
    except SourceSyntaxError as exc:
        raise FormatError(exc.message, line=line_no)
    node = term_node(equation.values)
    if not isinstance(node, ValueSet):
        raise FormatError("placeholders are not dictionary values", line=line_no)
    return equation.path, node


def _insert(root: dict, path: tuple[str, ...], values: ValueSet, line_no: int) -> None:
    """Put values at path in an entry's nested dicts, refusing any line
    that would replace or hide what earlier lines gave."""
    node = root
    for depth, label in enumerate(path[:-1], start=1):
        child = node.get(label)
        if child is None:
            child = node[label] = {}
        elif not isinstance(child, dict):
            raise FormatError(str(PathThroughLeaf(path, depth)), line=line_no)
        node = child
    held = node.get(path[-1])
    if isinstance(held, dict):
        raise FormatError(
            "leaf '%s' would replace the features below it" % " ".join(path),
            line=line_no,
        )
    if held is not None:
        raise FormatError("duplicate feature path '%s'" % " ".join(path), line=line_no)
    node[path[-1]] = values


def _tree(children: dict) -> FeatureTree:
    """One FeatureTree per interior node of an entry's nested dicts."""
    return FeatureTree(
        {
            label: _tree(node) if isinstance(node, dict) else node
            for label, node in children.items()
        }
    )
