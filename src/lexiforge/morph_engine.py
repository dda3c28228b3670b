"""Concatenative morphology driven by word-formation rules.

A rule file must start with the `#WF-RULES` header; comments and
blank lines are ignored everywhere, so a blank line does not end a
rule.  Each rule is a header line at column 0, `LHS -> C1 C2 ...`,
naming the result category and at least two distinct constituents, all
bare symbols, and then its equations on indented lines.  `Ci path = Cj
path` equates two constituent nodes and `Ci path = v1 v2 ...` equates
a constituent node with a literal value set.

Every equation is one `feature_tree.meet` of the nodes at its two
sides: an absent side takes the other side's node (these trees cannot
share nodes, so it is copied), two leaves intersect, two subtrees meet
label by label, and a path through a leaf, a leaf meeting a subtree or
an empty result is BLOCKED and fails the candidate.  The outcome
replaces every side a later equation or the result can see; each rule
is planned once when it is built (`_plan`), and an equation with no
such side is only tested, without building anything.

Analysis splits the surface, for every rule, into as many non-empty
parts as the rule has constituents, each part stored in the object
dictionary, and runs the equations over each combination of entries;
a combination survives when no meet fails.  Splits are walked left to
right: for a surface of length L and a rule of n constituents, the
first part is looked up at each of the L-n+1 first cuts that leave
room for the rest, only a stored first part of length c opens its at
most C(L-c-1, n-2) tails, and each tail's parts are looked up left to
right until the first miss.
Generation runs the same engine over candidate entries drawn from the
lemma index, or from tables kept per dictionary (the entries that pass
a constituent's value equations, drawn from the index its first
one-label, one-value equation names, or from all), and keeps the
candidates whose result tree unifies with the caller's constraints.
Before any equation runs it drops candidates that must fail, by
testing the meet on the entries' original nodes: an entry against a
value equation's values or against the constraints' node through an
equation `LHS p = Ci q`, and a pair of entries at the two paths of an
equation `Ci p = Cj q`.  A meet only narrows a node that is present (a
leaf stays a leaf, a subtree a subtree, a path below a leaf stays
blocked), so a meet that fails on the original nodes fails the same
candidate later; pruning never changes an answer.  A table-drawn
constituent linked to an outer one is joined: its candidates that pass
an outer row's nodes at the linked paths are kept per dictionary, in
the tables' cache, by those nodes, so each test is run once per
candidate or join key, and the equations then run only the steps the
tests do not decide.  Analysis does no such pruning: its
candidates are exact surface matches and mostly succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import prod
from typing import Iterable

from .feature_tree import BLOCKED, EMPTY_TREE, FeatureTree, ValueSet, meet, unify
from .object_dict import ObjectDictionary, ObjectEntry
from .source import (
    SourceSyntaxError,
    _logical_lines,
    parse_equation,
    term_node,
    tokenize,
)


@dataclass
class PathEquation:
    left_root: str
    left_path: tuple[str, ...]
    right_root: str
    right_path: tuple[str, ...]


@dataclass
class ValueEquation:
    root: str
    path: tuple[str, ...]
    values: ValueSet


@dataclass
class WFRule:
    """A word-formation rule.  Its plan is derived from the equations
    when it is built, and being no field it is left out of `==` and
    `repr`: `steps` and `copies` (`_plan`) and `generation_plans`
    (`_generation_plan`)."""

    name: str
    lhs: str
    rhs: tuple[str, ...]
    equations: tuple = ()
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.steps, self.copies = _plan(self.lhs, self.equations)
        self.generation_plans: dict = {}


@dataclass
class Analysis:
    surface: str
    lemma: str | None
    category: str
    tree: FeatureTree
    segmentation: tuple[tuple[str, ObjectEntry], ...]


# -- parsing ---------------------------------------------------------------

def _parse_wf_header(body: str, file, line) -> tuple[str, str, tuple[str, ...]]:
    """`LHS -> C1 C2 ...`: bare-symbol labels, two constituents or more.
    Returns the rule's name, LHS and constituents."""
    tokens = tokenize(body, file, line)
    if len(tokens) < 4 or tokens[1].text != "->" or any(t.kind != "sym" for t in tokens):
        raise SourceSyntaxError(
            "expected 'LHS -> C1 C2 ...' with at least two constituents", file, line
        )
    lhs, _, *rhs = (t.text for t in tokens)
    if len(set(rhs)) != len(rhs) or lhs in rhs:
        raise SourceSyntaxError("constituent labels must be distinct", file, line)
    return body, lhs, tuple(rhs)


def _parse_wf_equation(text: str, roots: set[str], file, line):
    eq = parse_equation(text.strip(), file, line)
    # parse_equation splits on '='; reinterpret both sides here
    left_root, *left_path = eq.path
    if left_root not in roots:
        raise SourceSyntaxError(
            "unknown constituent '%s'" % left_root, file, line
        )
    if not left_path:
        raise SourceSyntaxError("expected a path after '%s'" % left_root, file, line)
    first = eq.values[0]
    node = term_node(eq.values)
    if not isinstance(node, ValueSet):
        raise SourceSyntaxError("rule calls are not allowed here", file, line)
    if first.text in roots and not first.quoted:
        right_root = first.text
        right_path = tuple(a.text for a in eq.values[1:])
        if not right_path:
            raise SourceSyntaxError(
                "expected a path after '%s'" % right_root, file, line
            )
        return PathEquation(left_root, tuple(left_path), right_root, right_path)
    return ValueEquation(left_root, tuple(left_path), node)


def parse_wf_rules(text: str, file: str | None = None) -> list[WFRule]:
    """Strict parse of a rule file; raises on the first problem."""
    # each rule's header line, (name, lhs, rhs) and equations; None until the header
    blocks: list[tuple[int, tuple, list]] | None = None
    for line_no, raw in _logical_lines(text):
        body = raw.strip()
        if not body:
            continue
        if body == "#WF-RULES":
            if blocks is not None:
                raise SourceSyntaxError("duplicate #WF-RULES header", file, line_no)
            blocks = []
        elif blocks is None:
            raise SourceSyntaxError("expected the #WF-RULES header first", file, line_no)
        elif not raw[0].isspace():
            blocks.append((line_no, _parse_wf_header(body, file, line_no), []))
        elif not blocks:
            raise SourceSyntaxError("equation outside any rule", file, line_no)
        else:
            _, (_, lhs, rhs), equations = blocks[-1]
            equations.append(_parse_wf_equation(raw, {lhs, *rhs}, file, line_no))
    if blocks is None:
        raise SourceSyntaxError("expected the #WF-RULES header first", file, 1)
    return [WFRule(*header, tuple(eqs), file, line) for line, header, eqs in blocks]


# -- the equation engine ----------------------------------------------------

def _peek(tree: FeatureTree, path: tuple[str, ...]):
    """Node at path, None when absent, BLOCKED when below a leaf."""
    node = tree
    for label in path:
        if not isinstance(node, FeatureTree):
            return BLOCKED
        nxt = node.children.get(label)
        if nxt is None:
            return None
        node = nxt
    return node


def _plan(lhs: str, equations: tuple) -> tuple[tuple, tuple]:
    """The equations as `_execute`'s steps, (left root, left path, left
    live, right root, right path, right live), and its result copies,
    (label, root, path); a value equation has right root None and its
    value set as right path.

    A side's write is live when its root is the LHS or a later equation
    has a side on the same root at a path equal to, a prefix of or an
    extension of this side's path.  Nodes are copied, not shared, so a
    constituent's tree is seen only by later equations' `_peek`, and
    `set` at a path changes what `_peek` returns only at that path, its
    prefixes and its extensions: a write that is not live changes
    nothing a later step or the result can see.

    An equation between a one-label result path that no other result
    side overlaps and a constituent side whose write is not live is a
    copy: the result's node there is absent, so the meet gives the
    constituent's node, and no step changes that node or the result's
    label.  `_execute` reads it after the steps have run.
    """
    sides = [
        (eq.root, eq.path, None, eq.values) if isinstance(eq, ValueEquation)
        else (eq.left_root, eq.left_path, eq.right_root, eq.right_path)
        for eq in equations
    ]
    result_labels = [
        path[0] for left_root, left_path, right_root, right_path in sides
        for root, path in ((left_root, left_path), (right_root, right_path)) if root == lhs
    ]

    def live(k: int, root: str, path: tuple[str, ...]) -> bool:
        return root == lhs or any(
            later == root and (p[: len(path)] == path or path[: len(p)] == p)
            for left_root, left_path, right_root, right_path in sides[k + 1 :]
            for later, p in ((left_root, left_path), (right_root, right_path))
        )

    steps, copies = [], []
    for k, (left_root, left_path, right_root, right_path) in enumerate(sides):
        for root, path, other, other_path in (
            (left_root, left_path, right_root, right_path),
            (right_root, right_path, left_root, left_path),
        ):
            if (root == lhs and len(path) == 1 and result_labels.count(path[0]) == 1
                    and other not in (lhs, None) and not live(k, other, other_path)):
                copies.append((path[0], other, other_path))
                break
        else:
            steps.append(
                (left_root, left_path, live(k, left_root, left_path),
                 right_root, right_path, right_root is not None and live(k, right_root, right_path))
            )
    return tuple(steps), tuple(copies)


def _execute(rule: WFRule, entries: Iterable[ObjectEntry], steps=None) -> FeatureTree | None:
    """The rule's result tree over one entry per constituent, or None
    when the candidate fails.

    Walks the rule's steps (`_plan`), or the subset given.  Each
    equation is one `meet` of the nodes at its sides, a value
    equation's right side being its value set, and the outcome is
    written back to each live side where it differs from the node
    already there.  An equation with no live
    side is only tested with `_clash`, which builds nothing.  The
    rule's copies are read last and join the result in one new tree.
    Nodes are copied, not shared: a later equation that fills or
    narrows one side does not reach the other, so where an equation
    meets an absent node, equation order can change the result and
    whether it fails.
    """
    trees = {label: entry.tree for label, entry in zip(rule.rhs, entries)}
    trees[rule.lhs] = EMPTY_TREE
    steps = rule.steps if steps is None else steps
    for left_root, left_path, left_live, right_root, right_path, right_live in steps:
        left = _peek(trees[left_root], left_path)
        right = right_path if right_root is None else _peek(trees[right_root], right_path)
        if not (left_live or right_live):
            if _clash(left, right):
                return None
            continue
        merged = meet(left, right)
        if merged is BLOCKED:
            return None
        if left_live and merged is not left:
            trees[left_root] = trees[left_root].set(left_path, merged)
        if right_live and merged is not right:
            trees[right_root] = trees[right_root].set(right_path, merged)
    result = trees[rule.lhs]
    copied = {}
    for label, root, path in rule.copies:
        node = _peek(trees[root], path)
        if node is BLOCKED:
            return None
        if node is not None:
            copied[label] = node
    return FeatureTree({**result.children, **copied}) if copied else result


def _clash(a, b) -> bool:
    """True exactly when `meet(a, b) is BLOCKED`, for two `_peek`
    results, without building anything."""
    if a is None:
        return b is BLOCKED
    if b is None:
        return a is BLOCKED
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        return a.texts().isdisjoint(b.texts())
    if not isinstance(a, FeatureTree) or not isinstance(b, FeatureTree):
        return True
    children = a.children
    for label, node in b.children.items():
        if _clash(children.get(label), node):
            return True
    return False


# -- analysis ----------------------------------------------------------------

def _stored_splits(surface: str, n: int, dictionary: ObjectDictionary):
    """Each split of the surface into n non-empty stored parts, as
    (parts, entry lists) in ascending order of cut positions; only a
    stored first part opens its tails, and a tail stops at its first
    missing part.  A tail part is looked up once per call: a part some
    tail already looked up, or a stored first part, comes from a memo."""
    lookup = dictionary.lookup
    found: dict[str, list[ObjectEntry]] = {}
    end = len(surface)
    for first_cut in range(1, end - n + 2):
        prefix = surface[:first_cut]
        first = lookup(prefix)
        if not first:
            continue
        found[prefix] = first
        for cuts in combinations(range(first_cut + 1, end), n - 2):
            parts = [prefix]
            entry_lists = [first]
            start = first_cut
            for cut in cuts + (end,):
                part = surface[start:cut]
                entries = found.get(part)
                if entries is None:
                    entries = found[part] = lookup(part)
                if not entries:
                    break
                parts.append(part)
                entry_lists.append(entries)
                start = cut
            else:
                yield parts, entry_lists


def analyze(
    surface: str,
    dictionary: ObjectDictionary,
    rules: Iterable[WFRule],
    lex_feature: str = "lex",
) -> list[Analysis]:
    """Every reading of the surface as a rule-governed concatenation;
    a reading's lemma is the one value of its `lex_feature` leaf.

    Exact string match only: each part must be a dictionary surface as
    written.  Per rule of n constituents and a surface of length L it
    makes at most L-n+1 first-part lookups; a stored first part of
    length c adds at most C(L-c-1, n-2) tails, each looked up left to
    right until its first missing part, and no tail part is looked up
    twice for one rule.  Results are deduplicated by
    category and canonical form, ordered by rule, then cut positions,
    then the entry order of each part's lookup.  A category's first
    reading gets its canonical form only when a second one arrives.
    """
    out: list[Analysis] = []
    seen: set[tuple[str, str]] = set()
    # each category's first reading, until its canonical form is in `seen`
    first: dict[str, FeatureTree | None] = {}
    for rule in rules:
        category = rule.lhs
        for parts, candidate_lists in _stored_splits(surface, len(rule.rhs), dictionary):
            for combo in product(*candidate_lists):
                tree = _execute(rule, combo)
                if tree is None:
                    continue
                if category not in first:
                    first[category] = tree
                else:
                    earlier = first[category]
                    if earlier is not None:
                        seen.add((category, earlier.canonical_form()))
                        first[category] = None
                    key = (category, tree.canonical_form())
                    if key in seen:
                        continue
                    seen.add(key)
                lex = tree.get((lex_feature,))
                lemma = lex.values[0].text if isinstance(lex, ValueSet) and len(lex) == 1 else None
                out.append(Analysis(surface, lemma, category, tree, tuple(zip(parts, combo))))
    return out


# -- generation ---------------------------------------------------------------

# The most candidate combinations `generate` tries for one rule in one call.
MAX_COMBINATIONS = 100_000


class GenerationLimit(Exception):
    """A rule whose candidate product exceeds `MAX_COMBINATIONS`."""


def _node_rows(entries: Iterable[ObjectEntry], paths: tuple) -> list[tuple[ObjectEntry, dict]]:
    """Each entry with its own nodes at the paths, by path."""
    return [(entry, {path: _peek(entry.tree, path) for path in paths}) for entry in entries]


def _admit(rows: list, tests) -> list:
    """The rows whose nodes clear each (path, node) test by `_clash`."""
    if not tests:
        return rows
    return [row for row in rows if not any(_clash(node, row[1][path]) for path, node in tests)]


def _generation_plan(rule: WFRule, lex_path: tuple[str]):
    """The facts `generate` needs that do not depend on the lemma or the
    constraints, from one pass over the equations, kept on the rule per
    lemma feature: per constituent whether it is drawn by lemma, its
    table key and its constraint filters' (path, result path) sources.
    The key is (index, paths, tests): the index (f, v) of the
    constituent's first value equation `C f = v` with a one-label path
    and one value, or None; the paths its checks, filters and value
    tests read, each once; and those tests (path, value set).  In rule
    order, a constituent not drawn by lemma is joined by each pair check
    that links it to an outer one (drawn by lemma, or earlier and not
    joined), as (outer position, outer path, own path).  Positions count
    the outer constituents, then the joined ones (`order`).  The steps
    leave out each test with no live side that no earlier step writes."""
    plan = rule.generation_plans.get(lex_path)
    if plan is not None:
        return plan
    rhs = rule.rhs
    linked: set[str] = set()
    indexes: dict[str, tuple[str, str]] = {}
    sources: dict[str, list] = {label: [] for label in rhs}
    tests: dict[str, list] = {label: [] for label in rhs}
    checks = []
    lemma_sides = []  # the root of each equation side at the lemma path
    for eq in rule.equations:
        if isinstance(eq, ValueEquation):
            if eq.path == lex_path:
                lemma_sides.append(eq.root)
            if len(eq.path) == 1 and len(eq.values) == 1:
                indexes.setdefault(eq.root, (eq.path[0], eq.values.values[0].text))
            if eq.root in tests:
                tests[eq.root].append((eq.path, eq.values))
            continue
        if eq.left_path == lex_path:
            lemma_sides.append(eq.left_root)
        if eq.right_path == lex_path:
            lemma_sides.append(eq.right_root)
        if eq.left_root in rhs and eq.right_root in rhs:
            i, j = rhs.index(eq.left_root), rhs.index(eq.right_root)
            checks.append((i, eq.left_path, j, eq.right_path))
            continue
        for root, path, label, label_path in (
            (eq.left_root, eq.left_path, eq.right_root, eq.right_path),
            (eq.right_root, eq.right_path, eq.left_root, eq.left_path),
        ):
            if root != rule.lhs or label == rule.lhs:
                continue
            if path == lex_path and label_path == lex_path:
                linked.add(label)
            sources[label].append((label_path, path))
    # only a link that alone names both lemma paths makes C hold the lemma
    by_lemma = [
        label in linked and lemma_sides.count(rule.lhs) == lemma_sides.count(label) == 1
        for label in rhs
    ]
    outer = [k for k, drawn in enumerate(by_lemma) if drawn]
    joins = {}  # joined constituent -> its links, as pair checks
    for k in range(len(rhs)):
        if not by_lemma[k]:
            found = [c for c in checks if k in (c[0], c[2]) and (c[0] in outer or c[2] in outer)]
            if found:
                joins[k] = found
            else:
                outer.append(k)
    order = tuple(map((outer + list(joins)).index, range(len(rhs))))
    steps, written = [], []  # the live sides written so far, (root, path)
    for step in rule.steps:
        left_root, left_path, left_live, right_root, right_path, right_live = step
        sides = ((left_root, left_path), (right_root, right_path))
        if left_live or right_live or any(
            root == other and (path[: len(p)] == p or p[: len(path)] == path)
            for root, path in sides for other, p in written
        ):
            steps.append(step)
            written += [side for side, live in zip(sides, (left_live, right_live)) if live]
    constituents = tuple(
        (
            by_lemma[k],
            (
                indexes.get(label),
                tuple(dict.fromkeys(
                    [p for i, p, _, _ in checks if i == k] + [q for _, _, j, q in checks if j == k]
                    + [path for path, _ in sources[label]] + [path for path, _ in tests[label]]
                )),
                tuple(tests[label]),
            ),
            tuple(sources[label]),
        )
        for k, label in enumerate(rhs)
    )
    unjoined = tuple(
        (order[i], p, order[j], q) for i, p, j, q in checks
        if not any((i, p, j, q) in found for found in joins.values())
    )
    links = tuple(
        (k, tuple((order[j], q, p) if i == k else (order[i], p, q) for i, p, j, q in found))
        for k, found in joins.items()
    )
    plan = rule.generation_plans[lex_path] = (
        tuple(steps), unjoined, constituents, tuple(outer), links, order
    )
    return plan


def _joined(dictionary: ObjectDictionary, key: tuple, table: list, links: tuple, head: tuple):
    """A joined constituent's table rows that clear the outer rows'
    nodes at the linked paths (the probe), kept in the dictionary's
    `node_tables` under (key, probe) unless a node is an (unhashable)
    subtree."""
    probe = tuple((path, head[x][1][p]) for x, p, path in links)
    if any(isinstance(node, FeatureTree) for _, node in probe):
        return _admit(table, probe)
    rows = dictionary.node_tables.get((key, probe))
    if rows is None:
        rows = dictionary.node_tables[key, probe] = _admit(table, probe)
    return rows


def generate(
    lemma: str,
    constraints: FeatureTree,
    dictionary: ObjectDictionary,
    rules: Iterable[WFRule],
    lex_feature: str = "lex",
) -> list[str]:
    """Surfaces derivable for the lemma whose result tree unifies with
    the constraints, deduplicated and sorted.

    The rule's generation plan, one pass over its equations made once
    per rule and lemma feature, gives each constituent's candidates:
    the `lex_feature` index for a constituent whose lemma path is
    equated with the result's (`W lex = C lex`) by the only equation
    side at either path (a link from the result's lemma to another path
    of C does not count, nor does one where another equation could give
    W or C the lemma), else the index its rule names, that of its first
    value equation `C f = v` with a one-label path and one value (the
    entries whose f leaf holds v, plus those lacking f), else every
    dictionary entry.  The last two kinds are table-drawn: their
    candidates, each with its nodes at the paths the plan reads, are
    peeked once per dictionary, and those that pass all of the
    constituent's value equations are kept in its `node_tables` under
    (key, ()).  So a table holds the same rows whichever index drew it.
    A constituent of the last kind can multiply the work by |D|, the
    dictionary size, so a rule whose product of tables, filtered by the
    constraints, exceeds `MAX_COMBINATIONS` raises `GenerationLimit`
    before any combination is tried.

    Candidates that must fail are dropped by `_clash` on the entries'
    original nodes, which the equations only narrow: a C whose node
    clashes with a value equation `C p = v`, or with the constraints'
    node at p through an equation `LHS p = C q` (either way round; not
    where the constraints have no node at p or a leaf above it, since
    there a candidate lacking q still yields an accepted result), and a
    combination whose entries clash at the paths of `Ci p = Cj q`.  A
    joined constituent's candidates for one combination of the outer
    ones are those clearing its links, kept in `node_tables` under
    (key, probe) (`_joined`); `product` runs over the outer
    constituents, then over the joined ones, and `_execute` runs the
    steps no filter decides.
    """
    lex_path = (lex_feature,)
    surfaces: set[str] = set()
    for rule in rules:
        steps, checks, constituents, outer, joins, order = _generation_plan(rule, lex_path)
        keys, tables, wanted = [], [], []
        for by_lemma, key, sources in constituents:
            index, paths, tests = key
            table = None if by_lemma else dictionary.node_tables.get((key, ()))
            if table is None:
                table = _admit(_node_rows(
                    dictionary.lookup_by_lemma(lemma, lex_feature) if by_lemma
                    else dictionary.entries if index is None
                    else dictionary.lookup_by_concat(index[1], index[0]),
                    paths,
                ), tests)
                if not by_lemma:
                    dictionary.node_tables[key, ()] = table
            keys.append(key)
            tables.append(table)
            peeked = [(path, _peek(constraints, result_path)) for path, result_path in sources]
            wanted.append(
                [(path, node) for path, node in peeked if node is not None and node is not BLOCKED]
            )
        if prod(map(len, tables)) > MAX_COMBINATIONS:
            size = prod(len(_admit(table, tests)) for table, tests in zip(tables, wanted))
            if size > MAX_COMBINATIONS:
                where = "%s:%d: " % (rule.file, rule.line) if rule.file else ""
                raise GenerationLimit(
                    "%srule '%s' has %d candidate combinations, more than the %d generation tries"
                    % (where, rule.name, size, MAX_COMBINATIONS)
                )
        heads = [_admit(tables[k], wanted[k]) for k in outer]
        if not all(heads):
            continue
        for head in product(*heads):
            tails = []
            for k, links in joins:
                tail = _admit(_joined(dictionary, keys[k], tables[k], links, head), wanted[k])
                if not tail:
                    break
                tails.append(tail)
            else:
                for tail in product(*tails) if tails else ((),):
                    combo = head + tail
                    if checks and any(
                        _clash(combo[i][1][p], combo[j][1][q]) for i, p, j, q in checks
                    ):
                        continue
                    entries = [combo[x][0] for x in order]
                    tree = _execute(rule, entries, steps)
                    if tree is None:
                        continue
                    lex = tree.get(lex_path)
                    if not isinstance(lex, ValueSet) or lemma not in lex.texts():
                        continue
                    if unify(tree, constraints) is None:
                        continue
                    surfaces.add("".join(entry.surface for entry in entries))
    return sorted(surfaces)
