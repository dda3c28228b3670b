"""Concatenative morphology driven by word-formation rules.

A rule file starts with `#WF-RULES` and holds blank-line separated
rules: a header `LHS -> C1 C2 ...` naming the result category and at
least two constituents, then indented equations.  `Ci path = Cj path`
unifies two constituent subtrees (copying when one side is absent,
since these trees cannot share nodes), and `Ci path = v1 v2 ...`
unifies a constituent subtree with a literal value set.

Analysis splits the surface, for every rule, into as many non-empty
parts as the rule has constituents, each part stored in the object
dictionary, and runs the equations over each combination of entries;
a combination survives when every equation unifies.  Splits are
walked left to right: for a surface of length L and a rule of n
constituents, the first part is looked up at each of the L-n+1 first
cuts that leave room for the rest, only a stored first part of length
c opens its at most C(L-c-1, n-2) tails, and each tail's parts are
looked up left to right until the first miss.
Generation runs the same engine over candidate entries drawn from the
lemma and concatenation-category indexes and keeps the candidates
whose result tree unifies with the caller's constraints.  Before any
equation runs it drops candidates that must fail: an entry whose node
clashes with the constraints' node through an equation `LHS p = Ci q`,
and a pair of entries whose nodes clash at the two paths of an
equation `Ci p = Cj q`.  Running the equations only narrows a node
that is present (a leaf stays a leaf, a subtree a subtree, a path
below a leaf stays blocked), so a clash seen on the entries' original
nodes would fail the same candidate later; pruning never changes an
answer.  Analysis does no such pruning: its candidates are exact
surface matches and mostly succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable

from .feature_tree import EMPTY_TREE, FeatureTree, ValueSet, unify
from .object_dict import ObjectDictionary, ObjectEntry
from .source import (
    SourceSyntaxError,
    _logical_lines,
    parse_equation,
    term_node,
)


class UnknownConstituent(SourceSyntaxError):
    pass


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
    name: str
    lhs: str
    rhs: tuple[str, ...]
    equations: tuple = ()
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class Analysis:
    surface: str
    lemma: str | None
    category: str
    tree: FeatureTree
    segmentation: tuple[tuple[str, ObjectEntry], ...]


# -- parsing ---------------------------------------------------------------

def _parse_wf_equation(text: str, rule: WFRule, file, line):
    eq = parse_equation(text.strip(), file, line)
    # parse_equation splits on '='; reinterpret both sides here
    roots = {rule.lhs, *rule.rhs}
    left_root, *left_path = eq.path
    if left_root not in roots:
        raise UnknownConstituent(
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
        if any(a.quoted for a in eq.values[1:]):
            raise SourceSyntaxError("paths hold bare labels only", file, line)
        if not right_path:
            raise SourceSyntaxError(
                "expected a path after '%s'" % right_root, file, line
            )
        return PathEquation(left_root, tuple(left_path), right_root, right_path)
    return ValueEquation(left_root, tuple(left_path), node)


def parse_wf_rules(text: str, file: str | None = None) -> list[WFRule]:
    """Strict parse of a rule file; raises on the first problem."""
    lines = _logical_lines(text)
    rules: list[WFRule] = []
    current: WFRule | None = None
    equations: list = []
    saw_header = False

    def close():
        nonlocal current, equations
        if current is not None:
            current.equations = tuple(equations)
            rules.append(current)
            current, equations = None, []

    for line_no, raw in lines:
        body = raw.strip()
        if not body:
            continue
        if body == "#WF-RULES":
            if saw_header:
                raise SourceSyntaxError("duplicate #WF-RULES header", file, line_no)
            saw_header = True
            continue
        if not saw_header:
            raise SourceSyntaxError("expected the #WF-RULES header first", file, line_no)
        if not raw[0].isspace():
            close()
            parts = body.split()
            if len(parts) < 4 or parts[1] != "->":
                raise SourceSyntaxError(
                    "expected 'LHS -> C1 C2 ...' with at least two constituents",
                    file,
                    line_no,
                )
            lhs, rhs = parts[0], tuple(parts[2:])
            if len(set(rhs)) != len(rhs) or lhs in rhs:
                raise SourceSyntaxError("constituent labels must be distinct", file, line_no)
            current = WFRule(body, lhs, rhs, file=file, line=line_no)
            continue
        if current is None:
            raise SourceSyntaxError("equation outside any rule", file, line_no)
        equations.append(_parse_wf_equation(raw, current, file, line_no))
    close()
    return rules


# -- the equation engine ----------------------------------------------------

_BLOCKED = object()


def _peek(tree: FeatureTree, path: tuple[str, ...]):
    """Node at path, None when absent, _BLOCKED when below a leaf."""
    node = tree
    for label in path:
        if not isinstance(node, FeatureTree):
            return _BLOCKED
        nxt = node.children.get(label)
        if nxt is None:
            return None
        node = nxt
    return node


def _execute(rule: WFRule, trees: dict[str, FeatureTree]) -> dict[str, FeatureTree] | None:
    """Run the equations; None when the candidate fails.

    Equation order never changes success or failure, only which
    intermediate trees exist along the way.  A node that unification
    leaves unchanged is not written back.
    """
    for eq in rule.equations:
        if isinstance(eq, ValueEquation):
            tree = trees[eq.root]
            node = _peek(tree, eq.path)
            if node is _BLOCKED or isinstance(node, FeatureTree):
                return None
            if node is None:
                trees[eq.root] = tree.set(eq.path, eq.values)
                continue
            merged = node.intersect(eq.values)
            if merged is None:
                return None
            if merged is not node:
                trees[eq.root] = tree.set(eq.path, merged)
            continue
        left = _peek(trees[eq.left_root], eq.left_path)
        right = _peek(trees[eq.right_root], eq.right_path)
        if left is _BLOCKED or right is _BLOCKED:
            return None
        if left is None and right is None:
            continue
        if left is None:
            trees[eq.left_root] = trees[eq.left_root].set(eq.left_path, right)
            continue
        if right is None:
            trees[eq.right_root] = trees[eq.right_root].set(eq.right_path, left)
            continue
        if isinstance(left, FeatureTree) != isinstance(right, FeatureTree):
            return None
        if isinstance(left, FeatureTree):
            merged = unify(left, right)
        else:
            merged = left.intersect(right)
        if merged is None:
            return None
        if merged is not left:
            trees[eq.left_root] = trees[eq.left_root].set(eq.left_path, merged)
        if merged is not right:
            trees[eq.right_root] = trees[eq.right_root].set(eq.right_path, merged)
    return trees


def _clash(a, b) -> bool:
    """True when two `_peek` results can never be equated.

    That is when either path runs through a leaf, a leaf meets a
    subtree, two leaves share no value or two subtrees do not unify;
    an absent side never clashes.  `_execute` only narrows a node that
    is present (a leaf stays a leaf, a subtree a subtree, a blocked
    path blocked), so a clash between two entries' original nodes is
    still there when the equation linking them runs.
    """
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        return a.texts().isdisjoint(b.texts())
    if a is _BLOCKED or b is _BLOCKED:
        return True
    if a is None or b is None:
        return False
    if isinstance(a, FeatureTree) and isinstance(b, FeatureTree):
        return unify(a, b) is None
    return True  # a leaf meets a subtree


def _lemma_of(tree: FeatureTree, lex_feature: str) -> str | None:
    node = tree.get((lex_feature,))
    if isinstance(node, ValueSet) and len(node) == 1:
        return node.values[0].text
    return None


# -- analysis ----------------------------------------------------------------

def _stored_splits(surface: str, n: int, dictionary: ObjectDictionary):
    """Each split of the surface into n non-empty stored parts, as
    (parts, entry lists) in ascending order of cut positions; only a
    stored first part opens its tails, and a tail stops at its first
    missing part."""
    lookup = dictionary.lookup
    end = len(surface)
    for first_cut in range(1, end - n + 2):
        first = lookup(surface[:first_cut])
        if not first:
            continue
        for cuts in combinations(range(first_cut + 1, end), n - 2):
            parts = [surface[:first_cut]]
            entry_lists = [first]
            start = first_cut
            for cut in cuts + (end,):
                part = surface[start:cut]
                entries = lookup(part)
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
) -> list[Analysis]:
    """Every reading of the surface as a rule-governed concatenation.

    Exact string match only: each part must be a dictionary surface as
    written.  Per rule of n constituents and a surface of length L it
    makes at most L-n+1 first-part lookups; a stored first part of
    length c adds at most C(L-c-1, n-2) tails, each looked up left to
    right until its first missing part.  Results are deduplicated by
    category and canonical form, ordered by rule, then cut positions,
    then the entry order of each part's lookup.
    """
    out: list[Analysis] = []
    seen: set[tuple[str, str]] = set()
    for rule in rules:
        for parts, candidate_lists in _stored_splits(surface, len(rule.rhs), dictionary):
            for combo in product(*candidate_lists):
                trees = {label: entry.tree for label, entry in zip(rule.rhs, combo)}
                trees[rule.lhs] = EMPTY_TREE
                result = _execute(rule, trees)
                if result is None:
                    continue
                tree = result[rule.lhs]
                key = (rule.lhs, tree.canonical_form())
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    Analysis(
                        surface,
                        _lemma_of(tree, dictionary.lex_feature),
                        rule.lhs,
                        tree,
                        tuple(zip(parts, combo)),
                    )
                )
    return out


# -- generation ---------------------------------------------------------------

def _lemma_linked(rule: WFRule, lex_feature: str) -> set[str]:
    """Constituents the rule equates with the result's lemma feature."""
    linked: set[str] = set()
    for eq in rule.equations:
        if not isinstance(eq, PathEquation):
            continue
        if eq.left_root == rule.lhs and eq.left_path == (lex_feature,):
            if eq.right_root != rule.lhs:
                linked.add(eq.right_root)
        elif eq.right_root == rule.lhs and eq.right_path == (lex_feature,):
            if eq.left_root != rule.lhs:
                linked.add(eq.left_root)
    return linked


def _concat_category(rule: WFRule, label: str, concat_feature: str) -> str | None:
    for eq in rule.equations:
        if (
            isinstance(eq, ValueEquation)
            and eq.root == label
            and eq.path == (concat_feature,)
            and len(eq.values) == 1
        ):
            return eq.values.values[0].text
    return None


def _constraint_filters(
    rule: WFRule, constraints: FeatureTree
) -> dict[str, list[tuple[tuple[str, ...], object]]]:
    """For each constituent, the (path, constraint node) pairs its
    candidates must not clash with.

    An equation `LHS p = C q` (either way round) puts C's node at q
    into the result at p, only ever narrowed, so when that node clashes
    with the constraints' node at p the result cannot unify with the
    constraints.  Nothing is pruned when the constraints have no node
    at p, or a leaf above it: there a candidate lacking q still yields
    a result the constraints accept.
    """
    filters: dict[str, list] = {}
    for eq in rule.equations:
        if not isinstance(eq, PathEquation):
            continue
        for root, path, label, label_path in (
            (eq.left_root, eq.left_path, eq.right_root, eq.right_path),
            (eq.right_root, eq.right_path, eq.left_root, eq.left_path),
        ):
            if root != rule.lhs or label == rule.lhs:
                continue
            node = _peek(constraints, path)
            if node is not None and node is not _BLOCKED:
                filters.setdefault(label, []).append((label_path, node))
    return filters


def _pair_checks(rule: WFRule) -> list[tuple[int, tuple[str, ...], int, tuple[str, ...]]]:
    """Equations `Ci p = Cj q` linking two right-hand constituents, as
    (i, p, j, q) with constituent positions."""
    rhs = rule.rhs
    return [
        (rhs.index(eq.left_root), eq.left_path, rhs.index(eq.right_root), eq.right_path)
        for eq in rule.equations
        if isinstance(eq, PathEquation) and eq.left_root in rhs and eq.right_root in rhs
    ]


def generate(
    lemma: str,
    constraints: FeatureTree,
    dictionary: ObjectDictionary,
    rules: Iterable[WFRule],
) -> list[str]:
    """Surfaces derivable for the lemma whose result tree unifies with
    the constraints, deduplicated and sorted.

    Candidates that must fail are dropped before their equations run:
    those clashing with the constraints through an equation with the
    result (`_constraint_filters`), and pairs clashing at the paths an
    equation links (`_pair_checks`).  Both tests look at the entries'
    original nodes, which the equations only narrow, so they never
    drop a candidate that would have succeeded.
    """
    surfaces: set[str] = set()
    for rule in rules:
        linked = _lemma_linked(rule, dictionary.lex_feature)
        filters = _constraint_filters(rule, constraints)
        checks = _pair_checks(rule)
        candidate_lists: list[list[tuple[ObjectEntry, dict]]] = []
        for k, label in enumerate(rule.rhs):
            if label in linked:
                candidates = dictionary.lookup_by_lemma(lemma)
            else:
                category = _concat_category(rule, label, dictionary.concat_feature)
                if category is not None:
                    # an entry lacking the feature gets it from the equation
                    candidates = (
                        dictionary.lookup_by_concat(category) + dictionary.lacking_concat()
                    )
                else:
                    candidates = list(dictionary.entries)
            wanted = filters.get(label, ())
            # each candidate with its own nodes at the paths the pair checks read
            paths = [p for i, p, _, _ in checks if i == k] + [q for _, _, j, q in checks if j == k]
            candidate_lists.append(
                [
                    (entry, {path: _peek(entry.tree, path) for path in paths})
                    for entry in candidates
                    if not any(_clash(node, _peek(entry.tree, path)) for path, node in wanted)
                ]
            )
        if not all(candidate_lists):
            continue
        for combo in product(*candidate_lists):
            if any(_clash(combo[i][1][p], combo[j][1][q]) for i, p, j, q in checks):
                continue
            trees = {label: entry.tree for label, (entry, _) in zip(rule.rhs, combo)}
            trees[rule.lhs] = EMPTY_TREE
            result = _execute(rule, trees)
            if result is None:
                continue
            tree = result[rule.lhs]
            lex = tree.get((dictionary.lex_feature,))
            if not isinstance(lex, ValueSet) or lemma not in {
                a.text for a in lex.values
            }:
                continue
            if unify(tree, constraints) is None:
                continue
            surfaces.add("".join(entry.surface for entry, _ in combo))
    return sorted(surfaces)
