"""Independent reference implementations the tests compare against.

Each oracle recomputes an expected result by a different method than
the production code: source text by a character-by-character scan,
string rewriting by explicit split enumeration, inheritance by a
per-path nearest-definer scan, dictionary rules over plain nested
dicts, and word analysis and generation by trying every entry
combination without any index, with equation semantics of their own.  They are slow on purpose;
correctness over speed.
"""

from __future__ import annotations

import copy
import re
from itertools import accumulate, product

from lexiforge.feature_tree import FeatureTree, render_value
from lexiforge.source import AloRule, Entry, Equation


# -- source scanner -----------------------------------------------------------
#
# The character-by-character loops that `lexiforge.source` once used to
# strip comments, join continuation lines and cut tokens, kept as the
# reference for its compiled scanner.  The reserved characters are
# spelled out here rather than imported.  Tokens are (kind, text)
# pairs; errors are ValueErrors carrying the scanner's message.

_RESERVED = frozenset('=$()#;"\\')


def reference_strip_comment(text: str) -> tuple[str, bool]:
    """Drop a ';' comment, honoring quoted strings; also report whether
    the line ends inside an unterminated string."""
    out = []
    in_str = False
    i = 0
    while i < len(text):
        c = text[i]
        if in_str:
            if c == "\\" and i + 1 < len(text):
                out.append(c)
                out.append(text[i + 1])
                i += 2
                continue
            if c == '"':
                in_str = False
            out.append(c)
        else:
            if c == ";":
                break
            if c == '"':
                in_str = True
            out.append(c)
        i += 1
    return "".join(out), in_str


def reference_logical_lines(text: str) -> list[tuple[int, str]]:
    """Comment-stripped lines with backslash continuations joined, each
    with the line number of its first physical line.  A physical line
    ends at CR LF, a lone CR or LF."""
    out: list[tuple[int, str]] = []
    pending: str | None = None
    pending_line = 0
    for i, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        stripped, open_quote = reference_strip_comment(raw)
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


def reference_tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            j = i + 1
            buf: list[str] = []
            closed = False
            while j < n:
                ch = text[j]
                if ch == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if ch == '"':
                    closed = True
                    break
                buf.append(ch)
                j += 1
            if not closed:
                raise ValueError("unterminated string")
            tokens.append(("str", "".join(buf)))
            i = j + 1
            continue
        if c in "=()":
            tokens.append((c, c))
            i += 1
            continue
        if c == "$":
            if i + 1 < n and text[i + 1] == "$":
                tokens.append(("self", "$$"))
                i += 2
                continue
            j = i + 1
            while j < n and not text[j].isspace() and text[j] not in _RESERVED:
                j += 1
            name = text[i + 1 : j]
            if not name:
                raise ValueError("expected a rule name after '$'")
            tokens.append(("call", name))
            i = j
            continue
        if c in "#;\\":
            raise ValueError("unexpected character %r" % c)
        j = i
        while j < n and not text[j].isspace() and text[j] not in _RESERVED:
            j += 1
        tokens.append(("sym", text[i:j]))
        i = j
    return tokens


def reference_equation(text: str) -> tuple[tuple[str, ...], list[tuple[str, str]]]:
    """The path and the value tokens of an equation line, read from
    `reference_tokenize`'s tokens; errors are ValueErrors carrying the
    message `parse_equation` gives."""
    tokens = reference_tokenize(text)
    split = [i for i, (kind, _) in enumerate(tokens) if kind == "="]
    if len(split) != 1:
        raise ValueError("an equation needs exactly one '='")
    lhs, rhs = tokens[: split[0]], tokens[split[0] + 1 :]
    if not lhs:
        raise ValueError("missing feature path before '='")
    if any(kind != "sym" for kind, _ in lhs):
        raise ValueError("feature paths hold bare labels only")
    if not rhs:
        raise ValueError("missing values after '='")
    for kind, token in rhs:
        if kind not in ("sym", "str", "call", "self"):
            raise ValueError("unexpected %r in value list" % token)
    kinds = {kind for kind, _ in rhs}
    if len(rhs) > 1 and kinds & {"call", "self"}:
        raise ValueError("a rule call or '$$' must be the only value")
    if len(rhs) > 1 and "str" in kinds:
        raise ValueError("a string value must be the only value")
    return tuple(token for _, token in lhs), rhs


def reference_lexemes(text: str, file: str):
    """(entries, rendered diagnostics) of a source file whose only
    section header is `#LEXEMES`; any other `#` line is an unknown
    directive that ends the section.  Lines come from
    `reference_logical_lines`, heads from `reference_tokenize` and
    equations from `reference_equation`.  An entry is (name, parents,
    equations, "file:line"), an equation (path, value tokens,
    "file:line"); the first definition of a name is kept."""
    entries: dict[str, tuple] = {}
    diagnostics: list[str] = []

    def error(line, message):
        diagnostics.append("%s:%d: error: %s" % (file, line, message))

    def entry(block):
        first, head = block[0]
        try:
            tokens = reference_tokenize(head)
        except ValueError as exc:
            return error(first, str(exc))
        if not tokens or tokens[0][0] != "sym":
            return error(first, "expected an entry name")
        rest = tokens[1:]
        if rest and (rest[0][0] != "(" or rest[-1][0] != ")"):
            return error(first, "expected '(parents)' or nothing after the entry name")
        if any(kind != "sym" for kind, _ in rest[1:-1]):
            return error(first, "parent lists hold bare names only")
        equations = []
        for line, body in block[1:]:
            try:
                path, values = reference_equation(body)
            except ValueError as exc:
                error(line, str(exc))
            else:
                equations.append((path, values, "%s:%d" % (file, line)))
        name = tokens[0][1]
        if name in entries:
            message = "duplicate entry '%s' in #LEXEMES (first defined at %s)"
            return error(first, message % (name, entries[name][3]))
        parents = tuple(token for _, token in rest[1:-1])
        entries[name] = (name, parents, equations, "%s:%d" % (file, first))

    section = None
    block: list[tuple[int, str]] = []
    for line, body in reference_logical_lines(text) + [(0, "")]:
        if body.strip() and not body.startswith("#"):
            block.append((line, body))
            continue
        if block and section == "lexemes":
            entry(block)
        elif block and section is None:
            error(block[0][0], "content before any section header")
        block = []
        if body.startswith("#"):
            if body.strip() == "#LEXEMES":
                section = "lexemes"
            else:
                error(line, "unknown directive %r" % body.strip())
                section = "invalid"
    return list(entries.values()), diagnostics


# -- allomorphy ---------------------------------------------------------------
#
# Exact for variable patterns where "longest first" equals the engine's
# backtracking preference: '.', '.+', '.*', character classes and their
# quantified forms, 'x?'.  Alternation such as 'ab|a' prefers its first
# branch, not its longest, so rules using it are outside this oracle.

def _greedy_split(
    lhs: tuple[tuple[str, str], ...],
    variables: dict[str, str],
    argument: str,
) -> list[str] | None:
    """Segment-by-segment split, earlier variables taking the longest
    piece that lets the rest succeed.  Returns one piece per segment."""
    compiled = {v: re.compile(p) for v, p in variables.items()}
    pieces: list[str] = []

    def rec(i: int, pos: int) -> bool:
        if i == len(lhs):
            return pos == len(argument)
        kind, text = lhs[i]
        if kind == "lit":
            end = pos + len(text)
            if argument[pos:end] != text:
                return False
            pieces.append(text)
            if rec(i + 1, end):
                return True
            pieces.pop()
            return False
        regex = compiled[text]
        for length in range(len(argument) - pos, -1, -1):
            piece = argument[pos : pos + length]
            if regex.fullmatch(piece) is None:
                continue
            pieces.append(piece)
            if rec(i + 1, pos + length):
                return True
            pieces.pop()
        return False

    return pieces if rec(0, 0) else None


def greedy_rewrite(rule: AloRule, argument: str) -> str | None:
    """Expected output of an allomorphy rule, from the parsed form."""
    for prod in rule.productions:
        pieces = _greedy_split(prod.lhs, rule.variables, argument)
        if pieces is None:
            continue
        bound: dict[str, str] = {}
        for (kind, text), piece in zip(prod.lhs, pieces):
            if kind == "var":
                bound[text] = piece  # later occurrence wins, as in the engine
        return "".join(
            text if kind == "lit" else bound[text] for kind, text in prod.rhs
        )
    return None


# -- inheritance ---------------------------------------------------------------

def preorder_first_occurrence(entry: Entry, classes: dict[str, Entry]) -> list[str]:
    """Depth-first left-to-right walk keeping first occurrences only."""
    order: list[str] = []

    def visit(name: str, parents: tuple[str, ...]):
        if name in order:
            return
        order.append(name)
        for parent in parents:
            visit(parent, classes[parent].parents)

    visit(entry.name, entry.parents)
    return order


def nearest_definer_tree(
    entry: Entry, classes: dict[str, Entry]
) -> dict[tuple[str, ...], object]:
    """Expected leaf values: for every path any ancestor assigns, the
    value written by the closest definer in linearization order.

    Sound only when the hierarchy assigns prefix-free paths, so a path
    is never a leaf in one body and an interior in another.
    """
    order = preorder_first_occurrence(entry, classes)
    expected: dict[tuple[str, ...], object] = {}
    for name in order:
        body = entry if name == entry.name else classes[name]
        for eq in body.equations:
            if eq.path not in expected:
                expected[eq.path] = eq.values
    return expected


# A generator shaped for the nearest-definer oracle: the path pool is
# prefix-free (no leaf/interior conflicts) and a body assigns each path
# at most once (no within-body override ambiguity).

_PATH_POOL = [
    ("a",),
    ("b", "x"),
    ("b", "y"),
    ("c", "q", "z"),
    ("d",),
    ("e", "w"),
]
_ATOM_POOL = ["1", "2", "3", "p", "q"]


def _random_body(rng) -> tuple[Equation, ...]:
    equations = []
    for path in _PATH_POOL:
        if rng.random() < 0.5:
            count = rng.randrange(1, 3)
            values = tuple(rng.sample(_ATOM_POOL, count))
            equations.append(Equation(path, values))
    return tuple(equations)


def random_hierarchy(rng, max_classes=10, max_parents=4, max_depth=3):
    """One entry over a random acyclic hierarchy.

    Classes get levels; parents always sit at a strictly higher level,
    which bounds both chain depth and rules out cycles.
    """
    names = ["C%d" % i for i in range(rng.randrange(1, max_classes + 1))]
    levels = {name: rng.randrange(1, max_depth + 1) for name in names}
    classes: dict[str, Entry] = {}
    for name in names:
        higher = [m for m in names if levels[m] > levels[name]]
        rng.shuffle(higher)
        take = rng.randrange(0, min(max_parents, len(higher)) + 1)
        classes[name] = Entry(name, tuple(higher[:take]), _random_body(rng), "classes")
    candidates = list(names)
    rng.shuffle(candidates)
    take = rng.randrange(0, min(max_parents, len(candidates)) + 1)
    entry = Entry("item", tuple(candidates[:take]), _random_body(rng), "lexemes")
    return entry, classes


# -- word formation ---------------------------------------------------------------
#
# Equation semantics of its own, over plain nested values: an interior
# node is a dict from label to node, a leaf a tuple of values.  Every
# node stored is a fresh copy, each equation walks its paths again,
# and the equations run pass after pass until none changes a place;
# nothing of the engine's (classes of places, shared nodes, candidate
# indexes or pruning) is reproduced here.

_THROUGH_LEAF = object()


def _plain(node):
    if isinstance(node, FeatureTree):
        return {label: _plain(child) for label, child in node.children.items()}
    return tuple(node)


def _walk(tree, path):
    """Node at path, None when absent, _THROUGH_LEAF below a leaf."""
    node = tree
    for label in path:
        if not isinstance(node, dict):
            return _THROUGH_LEAF
        if label not in node:
            return None
        node = node[label]
    return node


def _store(tree, path, node):
    for label in path[:-1]:
        tree = tree.setdefault(label, {})
    tree[path[-1]] = copy.deepcopy(node)


def _meet(x, y):
    """Unification of two plain nodes, keeping x's values; None on failure."""
    if isinstance(x, dict) and isinstance(y, dict):
        out = copy.deepcopy(x)
        for label, ynode in y.items():
            if label in out:
                out[label] = _meet(out[label], ynode)
                if out[label] is None:
                    return None
            else:
                out[label] = copy.deepcopy(ynode)
        return out
    if isinstance(x, tuple) and isinstance(y, tuple):
        return tuple(a for a in x if a in y) or None
    return None


def _frozen(node):
    """A plain node as nested frozensets, for telling whether it changed."""
    if isinstance(node, dict):
        return frozenset((label, _frozen(child)) for label, child in node.items())
    return frozenset(node)


def run_equations(rule, trees):
    """Plain trees once a pass over the rule's equations changes no
    place, or None when an equation fails.  So the order of the
    equations does not matter.  A rule that equates a place with its
    own extension would grow its trees on every pass; the engine
    refuses such a rule, and no test brings one here.

    In a pass, `Ci p = Cj q` needs both paths clear of leaves; when
    both nodes are present they must unify, and the result replaces
    both; one present node is copied to the other side.  `Ci p =
    values` needs a leaf or nothing at p and leaves their
    intersection."""
    while True:
        before = _frozen(trees)
        if _copying_pass(rule, trees) is None:
            return None
        if _frozen(trees) == before:
            return trees


def _copying_pass(rule, trees):
    """One pass over the equations in the order written, changing the
    trees in place; None when an equation fails."""
    for eq in rule.equations:
        if hasattr(eq, "values"):
            node = _walk(trees[eq.root], eq.path)
            if node is _THROUGH_LEAF or isinstance(node, dict):
                return None
            value = tuple(eq.values) if node is None else _meet(node, tuple(eq.values))
            if value is None:
                return None
            _store(trees[eq.root], eq.path, value)
            continue
        left = _walk(trees[eq.left_root], eq.left_path)
        right = _walk(trees[eq.right_root], eq.right_path)
        if left is _THROUGH_LEAF or right is _THROUGH_LEAF:
            return None
        if left is None and right is None:
            continue
        if left is None:
            value = right
        elif right is None:
            value = left
        else:
            value = _meet(left, right)
        if value is None:
            return None
        _store(trees[eq.left_root], eq.left_path, value)
        _store(trees[eq.right_root], eq.right_path, value)
    return trees


def _canonical(tree) -> str:
    """Canonical text of a plain tree: sorted paths, sorted values."""
    leaves = []

    def visit(node, prefix):
        for label, child in node.items():
            if isinstance(child, dict):
                visit(child, prefix + (label,))
            else:
                leaves.append((prefix + (label,), child))

    visit(tree, ())
    return "".join(
        "%s = %s\n"
        % (" ".join(path), " ".join(map(render_value, sorted(values))))
        for path, values in sorted(leaves, key=lambda item: item[0])
    )


def _derivations(rule, combos):
    """(entry tuple, plain result tree) for each tuple of entries the
    rule's equations accept."""
    for combo in combos:
        trees = {label: _plain(entry.tree) for label, entry in zip(rule.rhs, combo)}
        trees[rule.lhs] = {}
        result = run_equations(rule, trees)
        if result is not None:
            yield combo, result[rule.lhs]


def all_pairs_analyses(surface, dictionary, rules):
    """Analyses of a surface found by brute force: every rule, every
    combination of whole entries whose concatenation spells the
    surface, filtered by the oracle's own equation semantics.

    Returns the set of (rule lhs, canonical form) pairs."""
    entries = list(dictionary.entries)
    found = set()
    for rule in rules:
        spelled = (
            combo
            for combo in product(entries, repeat=len(rule.rhs))
            if "".join(e.surface for e in combo) == surface
        )
        for _, tree in _derivations(rule, spelled):
            found.add((rule.lhs, _canonical(tree)))
    return found


def ordered_analyses(surface, dictionary, rules):
    """The analyses of a surface in the order the analyzer documents,
    found by sorting rather than by walking splits in order.

    Every derivation `all_pairs_analyses` would find is keyed by (rule
    index, cut positions, each entry's position among the dictionary's
    entries of its surface), the keys are sorted, and the first of each
    (rule lhs, canonical form) is kept.  Returns (lhs, canonical form,
    entry tuple) triples."""
    entries = list(dictionary.entries)
    rank = {}
    per_surface: dict[str, int] = {}
    for entry in entries:
        rank[id(entry)] = per_surface.get(entry.surface, 0)
        per_surface[entry.surface] = rank[id(entry)] + 1
    keyed = []
    for index, rule in enumerate(rules):
        spelled = (
            combo
            for combo in product(entries, repeat=len(rule.rhs))
            if "".join(e.surface for e in combo) == surface
        )
        for combo, tree in _derivations(rule, spelled):
            cuts = tuple(accumulate(len(e.surface) for e in combo[:-1]))
            key = (index, cuts, tuple(rank[id(e)] for e in combo))
            keyed.append((key, rule.lhs, _canonical(tree), combo))
    keyed.sort(key=lambda item: item[0])
    found = []
    seen = set()
    for _, lhs, canonical, combo in keyed:
        if (lhs, canonical) not in seen:
            seen.add((lhs, canonical))
            found.append((lhs, canonical, combo))
    return found


def all_pairs_generation(dictionary, rules, lex_feature="lex"):
    """Generation by brute force.  Every rule runs over every tuple of
    entries, with no index, once; the returned function keeps the
    derivations whose result's `lex_feature` holds the lemma and whose
    result unifies with the constraints, as sorted distinct surfaces."""
    lex = (lex_feature,)
    derived = [
        ("".join(e.surface for e in combo), tree)
        for rule in rules
        for combo, tree in _derivations(
            rule, product(dictionary.entries, repeat=len(rule.rhs))
        )
    ]

    def generate(lemma, constraints):
        wanted = _plain(constraints)
        found = set()
        for surface, tree in derived:
            lemmas = _walk(tree, lex)
            if (
                isinstance(lemmas, tuple)
                and lemma in lemmas
                and _meet(tree, wanted) is not None
            ):
                found.add(surface)
        return sorted(found)

    return generate


# -- dictionary rules -----------------------------------------------------------
#
# `#DICT-RULES` semantics over plain trees (`_plain`), written apart from
# `dict_compiler` and from `FeatureTree`'s operations: each equation
# reads a deep copy of its source, deletes from that copy in place, and
# writes into a dict that grows in place.


class RuleFailure(Exception):
    """A failing dictionary rule: `kind` names the error type the
    compiler raises, `message` is its text."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind
        self.message = message


def _override(base, overlay):
    """Merge `overlay` into `base` in place: where both hold a dict
    under one label they merge, else the overlay's node replaces."""
    for label, node in overlay.items():
        if isinstance(base.get(label), dict) and isinstance(node, dict):
            _override(base[label], node)
        else:
            base[label] = node


def _write(entry, path, node):
    where = entry
    for depth, label in enumerate(path[:-1], 1):
        where = where.setdefault(label, {})
        if not isinstance(where, dict):
            raise RuleFailure(
                "PathThroughLeaf",
                "path '%s' descends through the leaf at '%s'"
                % (" ".join(path), " ".join(path[:depth])),
            )
    old = where.get(path[-1])
    if isinstance(old, dict) and isinstance(node, dict):
        _override(old, node)
    else:
        where[path[-1]] = node


def run_dict_rule(rule, name, tree):
    """(surface, canonical text) of the entry a dictionary rule builds
    from the plain tree of an entry called `name`, or None when no
    equation gave `$$` a value.  Every equation whose source is present
    runs, in order, so the first failing write raises RuleFailure; a
    bad name raises it after all the writes."""
    entry = {}
    surface = None
    for eq in rule.equations:
        if eq.source is None:
            node = (name,)
        else:
            node = _walk(tree, eq.source)
            if node is None or node is _THROUGH_LEAF:
                continue
            node = copy.deepcopy(node)
            if isinstance(node, dict):
                for path in eq.deletions:
                    parent = _walk(node, path[:-1])
                    if path and isinstance(parent, dict):
                        parent.pop(path[-1], None)
        if eq.target is None:
            surface = node
        elif not eq.target:
            if not isinstance(node, dict):
                raise RuleFailure(
                    "DictRuleError", "cannot assign an atomic value to the whole entry"
                )
            _override(entry, node)
        else:
            _write(entry, eq.target, node)
    if surface is None:
        return None
    if isinstance(surface, dict) or len(surface) != 1:
        raise RuleFailure("DictRuleError", "'$$' must come out as a single atomic value")
    text = surface[0]
    if not text:
        raise RuleFailure("DictRuleError", "the entry name came out empty")
    if text[0].isspace() or "\n" in text or "\r" in text:
        raise RuleFailure("DictRuleError", "the entry name %r cannot be stored" % text)
    return text, _canonical(entry)
