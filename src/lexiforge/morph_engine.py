"""Concatenative morphology driven by word-formation rules.

A rule file must start with the `#WF-RULES` header; comments and
blank lines are ignored everywhere, so a blank line does not end a
rule.  Each rule is a header line at column 0, `LHS -> C1 C2 ...`,
naming the result category and at least two distinct constituents, all
bare symbols, and then its equations on indented lines.  `Ci path = Cj
path` equates two constituent nodes and `Ci path = v1 v2 ...` equates
a constituent node with a literal value set.

An equation makes its two sides one node, as in a unification grammar:
each rule is compiled, once per lemma feature, into one plan (`_plan`)
over classes of equated places, closed under extension, and a rule that
equates a place with its own extension is refused when it is built.  A
class's node is the `feature_tree.meet` of its members' original nodes
and of its child classes' nodes: an absent node gives the other, two
leaves intersect, two subtrees meet label by label, and a path through
a leaf, a leaf meeting a subtree or an empty result is BLOCKED and
fails the candidate.  `meet` is commutative and associative, so the
order of the equations never matters.

The plan is compiled, when it is built, into Python functions of one
entry per constituent (`_compiled`), straight-line code that tests,
meets and builds the result tree, so no interpreter walks the plan per
candidate.  Analysis (`analyze`) splits the surface, for every rule,
into one stored part per constituent and runs the plan's `run` over
each combination of the parts' entries.  Generation (`generate`) draws
candidate rows, each an entry with its nodes at the places the plan
reads, and keeps the candidates whose result tree unifies with the
caller's constraints.  What either derives from a dictionary is
kept with it for later calls (`ObjectDictionary.__init__`).

Both prune candidates before any class is met, by testing the meet on
the entries' original nodes (`_clash`).  Generation drops a candidate
whose node at a place clashes with its class's values, or with the
constraints' node at a result path of its class where the constraints
hold one and no leaf above it (elsewhere a candidate lacking the place
still satisfies them), and a combination whose entries clash at two
places of one class.  Analysis looks up no part that its constituent's
value equation `C f = v` must fail (`_surfaces`): an entry whose f is a
leaf without v, or a subtree, clashes with v in whatever class v sits.
Pruning never changes an answer: a meet only narrows a node that is
present (a leaf stays a leaf, a subtree a subtree, a path below a leaf
stays blocked), so a meet that fails on the original nodes fails the
same candidate when its class is met.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, count, product
from math import prod
from typing import Callable, Iterable, NamedTuple, Sequence

from .feature_tree import BLOCKED, EMPTY_TREE, FeatureTree, Quoted, ValueSet, meet, unify
from .object_dict import ObjectDictionary, ObjectEntry
from .source import (
    SourceSyntaxError,
    _logical_lines,
    parse_equation,
    term_node,
    tokenize,
)


@dataclass(frozen=True)
class PathEquation:
    left_root: str
    left_path: tuple[str, ...]
    right_root: str
    right_path: tuple[str, ...]


@dataclass(frozen=True)
class ValueEquation:
    root: str
    path: tuple[str, ...]
    values: ValueSet


@dataclass(frozen=True)
class WFRule:
    """A word-formation rule.  Its `plans` (`_plan`), by lemma path, are
    derived from the fields and take no part in `==`, `hash` or `repr`.
    The `("lex",)` plan is built with the rule, so a rule that equates a
    place with its own extension is refused at once.  The rule is
    frozen: a field assigned later would leave it answering from the
    plans of its old fields."""

    name: str
    lhs: str
    rhs: tuple[str, ...]
    equations: tuple = ()
    file: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plans", {})
        _plan(self, ("lex",))

    def __reduce__(self):
        # the fields alone: the plans' tags would name other values in another process
        return WFRule, (self.name, self.lhs, self.rhs, self.equations, self.file, self.line)


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
    if first in roots and not isinstance(first, Quoted):
        right_root = first
        right_path = eq.values[1:]
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


# -- the rule plan -------------------------------------------------------------

class _TableKey(NamedTuple):
    index: tuple[str, str] | None
    paths: tuple
    tests: tuple


class _Constituent(NamedTuple):
    by_lemma: bool
    key: _TableKey
    tests: tuple
    sources: tuple
    tag: int


class _RulePlan(NamedTuple):
    source: str
    run: Callable[..., FeatureTree | None]
    run_filtered: Callable[..., FeatureTree | None]
    unjoined: tuple
    constituents: tuple[_Constituent, ...]
    outer: tuple[int, ...]
    links: tuple
    order: tuple[int, ...]
    settled: bool
    reads: tuple
    tag: int


# Each value `_tag` has tagged: rule plans and table keys, never
# anything built from a caller's constraints, so it holds at most a few
# values per distinct rule ever planned.  Tags are drawn from a counter,
# so two values never share one.
_TAGS: dict[tuple, int] = {}
_NEW_TAGS = count()


def _tag(value: tuple) -> int:
    """The int that stands for a plan-level value in the caches' keys,
    the same for equal values, so equal rules from a second parse share
    their kept tables.  An int hashes at once, where a tuple hashes its
    items again on every lookup; an `id` could be reused by a later
    value once its own dies."""
    return _TAGS.setdefault(value, next(_NEW_TAGS))


def _plan(rule: WFRule, lex_path: tuple[str]) -> _RulePlan:
    """The rule's plan for the lemma path, kept in `rule.plans`.

    The equations are compiled into classes of equated places, (root,
    path), by union-find.  Each equation unites its two sides; a value
    equation's values join its side's class as one more member.  A class
    has a child class under each label that an equation names below one
    of its places, and uniting two classes unites their children label
    by label, so X l and Y l are equated whenever X and Y are: the
    closure under extension.  A class below itself, a place equated with
    its own extension directly (`A p = A p q`) or through the closure
    (`A p = B q`, `B q x = A p`), is refused at the rule's line.  A
    class's places are all the paths that lead to it, and its values
    meet into one node, BLOCKED when they are disjoint or when the class
    has children, since a leaf has none.

    The plan's functions (`_compiled`) are built from three lists, each
    constituent place as (k, p):
    - tests, (k, p, j, q) or (k, p, None, values): each class of two
      members and no children that the result does not read; a place
      alone in its class (`A p = A p`) is its own second member;
    - met, (places, values, children): the other classes of two members
      or more that the result does not read, which can fail above their
      children, then the classes it reads and does not take as they are,
      children first, each child as (label, position in `met`);
    - tops, (label, k, p) for a class whose one member besides one-label
      result paths is constituent k's place p, taken as it is, else
      (label, None, i) for the class at position i of `met`.
    The plan keeps the functions' `source`, `run`, which makes the
    tests, for analysis, and `run_filtered`, which leaves them to
    generation's filters.

    Generation reads the rest.  Per constituent (`_Constituent`): whether
    it is drawn by lemma (the class of the result's lemma path holds one
    other place, its lemma path, and no values); its table key, (index,
    paths, value tests), whose index (f, v) is that of its first value
    equation `C f = v` with a one-label path and one value, or None, and
    whose paths are those its checks, sources and value tests read, each
    once; then its value tests as (position, values) and its constraint
    sources as (position, result path), each of its places with a
    result path of its class.  A row's nodes are aligned with its key's
    paths (`_node_rows`), so a position names a place.  The pair checks
    are the pairs of places within a class.  In rule order, a constituent
    not drawn by lemma is joined by each pair check that links it to an
    outer one (drawn by lemma, or earlier and not joined): `links` gives
    each joined one's (outer constituent, outer place, own place), and
    `unjoined` the other checks, with constituents numbered outer ones
    first, then the joined ones (`order`).  These filters decide each of
    the `tests`.

    A plan is `settled` when these filters decide each combination: it
    meets no class, each top is a one-label read, which no leaf can
    block, and a constituent is drawn by lemma, whose own lemma leaf the
    lemma top then reads and the lemma index filled with the lemma.  So
    each combination that clears the filters gives a tree holding the
    lemma, with no class met and no lemma tested: its rows' nodes at
    `reads`, (label, position in a combination by `order`, position in
    that row's nodes), a tree the empty constraints unify with.  A top's
    place is a source of its constituent, so its key's paths hold it;
    any other plan's `reads` is ().

    Last, the plan and each constituent's table key (`tag`) are tagged
    (`_tag`).
    """
    lhs, rhs, n = rule.lhs, rule.rhs, len(rule.rhs)
    # constituent k's root class is k and the result's n; `rep` maps an id to its class
    rep = list(range(n + 1))
    below: dict[int, dict[str, int]] = defaultdict(dict)  # child classes by label
    values: dict[int, list[ValueSet]] = defaultdict(list)
    root = {label: k for k, label in enumerate((*rhs, lhs))}
    indexes: dict[str, tuple[str, str]] = {}

    def walk(c: int, path: tuple[str, ...]) -> int:
        for label in path:
            c = below[rep[c]].setdefault(label, len(rep))
            if c == len(rep):
                rep.append(c)
        return rep[c]

    sides = []
    for eq in rule.equations:
        if isinstance(eq, ValueEquation):
            sides.append(walk(root[eq.root], eq.path))
            values[sides[-1]].append(eq.values)
            if len(eq.path) == 1 and len(eq.values) == 1:
                indexes.setdefault(eq.root, (eq.path[0], eq.values.values[0]))
            continue
        sides += walk(root[eq.left_root], eq.left_path), walk(root[eq.right_root], eq.right_path)
        pending = [sides[-2:]]
        while pending:
            a, b = (rep[c] for c in pending.pop())
            if a != b:
                rep[:] = [a if c == b else c for c in rep]
                values[a] += values[b]
                pending += [(below[a].setdefault(label, c), c) for label, c in below[b].items()]
    members: dict[int, list] = defaultdict(list)
    stack = [(k, rep[k], (), ()) for k in reversed(range(n + 1))]
    while stack:
        k, c, path, above = stack.pop()
        if c in above:
            message = "the equations equate a place with its own extension"
            raise SourceSyntaxError(message, rule.file, rule.line)
        members[c].append((k, path))
        stack += [(k, rep[d], path + (lb,), above + (c,)) for lb, d in reversed(below[c].items())]
    classes = {}
    for c in dict.fromkeys([rep[c] for c in sides] + list(members)):
        if c in rep[: n + 1]:
            continue
        places = tuple((k, path) for k, path in members[c] if k < n)
        results = tuple(path for k, path in members[c] if k == n)
        node = BLOCKED if values[c] and below[c] else None
        for value_set in values[c]:
            node = meet(node, value_set)
        if len(places) == 1 and not (results or below[c]) and node is None:
            places *= 2
        classes[c] = places, results, node
    tests, met, taken = [], [], {}
    for c, (places, results, node) in classes.items():
        size = len(places) + (node is not None)
        if results:
            if size == 1 and places and not below[c] and all(len(p) == 1 for p in results):
                taken[c] = places[0]
        elif size == 2 and not below[c]:
            tests.append(places[0] + (places[1] if len(places) == 2 else (None, node)))
        elif size > 1:
            met.append(c)
    # a child's longest result path is longer than its parent's
    met += sorted(
        (c for c in classes if classes[c][1] and c not in taken),
        key=lambda c: -max(map(len, classes[c][1])),
    )
    position = {c: i for i, c in enumerate(met)}
    tops = tuple(
        (label, *taken[rep[c]]) if rep[c] in taken else (label, None, position[rep[c]])
        for label, c in below[rep[n]].items()
    )
    sources, value_tests = [[] for _ in rhs], [[] for _ in rhs]  # per constituent
    checks = []
    by_lemma = [False] * n
    for places, results, node in classes.values():
        checks += [(i, p, j, q) for m, (i, p) in enumerate(places) for j, q in places[m + 1 :]]
        for k, path in places:
            if node is not None:
                value_tests[k].append((path, node))
            sources[k] += [(path, result) for result in results]
        if results == (lex_path,) and node is None and [p for _, p in places] == [lex_path]:
            by_lemma[places[0][0]] = True
    outer = [k for k, drawn in enumerate(by_lemma) if drawn]
    joins = {}  # joined constituent -> its links, as pair checks
    for k in range(n):
        if not by_lemma[k]:
            found = [c for c in checks if k in (c[0], c[2]) and (c[0] in outer or c[2] in outer)]
            if found:
                joins[k] = found
            else:
                outer.append(k)
    order = tuple(map((outer + list(joins)).index, range(n)))
    settled = not met and any(by_lemma) and all(len(path) == 1 for _, _, path in tops)
    paths = [
        tuple(dict.fromkeys(
            [p for i, p, _, _ in checks if i == k] + [q for _, _, j, q in checks if j == k]
            + [path for path, _ in sources[k]] + [path for path, _ in value_tests[k]]
        ))
        for k in range(n)
    ]
    at = [{path: i for i, path in enumerate(own)} for own in paths]  # place -> position
    # per joined constituent, each link's outer place and own path
    linked = {
        k: [((j, q), p) if i == k else ((i, p), q) for i, p, j, q in found]
        for k, found in joins.items()
    }
    constituents = []
    for k, label in enumerate(rhs):
        key = _TableKey(indexes.get(label), paths[k], tuple(value_tests[k]))
        constituents.append(_Constituent(
            by_lemma[k],
            key,
            tuple((at[k][path], node) for path, node in value_tests[k]),
            tuple((at[k][path], result) for path, result in sources[k]),
            _tag(key),
        ))
    unjoined = tuple(
        (order[i], at[i][p], order[j], at[j][q]) for i, p, j, q in checks
        if not any((i, p, j, q) in found for found in joins.values())
    )
    links = tuple(
        (k, tuple((order[j], at[j][q], at[k][p]) for (j, q), p in own))
        for k, own in linked.items()
    )
    reads = tuple((label, order[k], at[k][path]) for label, k, path in tops) if settled else ()
    met = [(classes[c][0], classes[c][2], tuple(
        (label, position[rep[d]]) for label, d in below[c].items() if classes[c][1]
    )) for c in met]
    fields = (
        *_compiled(n, tests, met, tops),
        unjoined, tuple(constituents), tuple(outer), links, order, settled, reads,
    )
    plan = rule.plans[lex_path] = _RulePlan(*fields, _tag(fields))
    return plan


# -- the equation engine ----------------------------------------------------

def _peek(tree: FeatureTree, path: tuple[str, ...]):
    """Node at path, None when absent, BLOCKED when below a leaf."""
    node = tree
    for label in path:
        if not isinstance(node, FeatureTree):
            return BLOCKED
        nxt = node._children.get(label)
        if nxt is None:
            return None
        node = nxt
    return node


def _clash(a, b) -> bool:
    """True exactly when `meet(a, b) is BLOCKED`, for two `_peek`
    results, without building anything."""
    if a is None:
        return b is BLOCKED
    if b is None:
        return a is BLOCKED
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        # the leaves' sorted text tuples: a stem's may hold a dozen texts,
        # an ending's one or two, so the loop runs over the shorter
        mine, theirs = a._texts, b._texts
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        for text in mine:
            if text in theirs:
                return False
        return True
    if not isinstance(a, FeatureTree) or not isinstance(b, FeatureTree):
        return True
    children = a._children
    for label, node in b._children.items():
        if _clash(children.get(label), node):
            return True
    return False


# What a plan's functions see besides their constants (`_compiled`): the
# engine's own helpers, bound here so that a later rebinding of a module
# name never reaches a kept function, and never a name the benchmark's
# tracer wraps (`unify`, `product`, `combinations`); the tree class is
# bound itself, and the tracer counts its `__init__`.
_NAMESPACE = {
    "_clash": _clash, "_peek": _peek, "meet": meet, "ValueSet": ValueSet,
    "FeatureTree": FeatureTree, "EMPTY_TREE": EMPTY_TREE, "BLOCKED": BLOCKED,
}

# Each plan's functions by their source and their constants' spelling,
# so equal plans hold the same function objects; like `_TAGS`, it holds
# a few entries per distinct rule ever planned.
_COMPILED: dict[tuple, tuple] = {}

_PAIR_TEST = """\
    if {a} is not None and {b} is not None and {a} is not {b}:
        if {a}.__class__ is ValueSet and {b}.__class__ is ValueSet:
            m, t = {a}._texts, {b}._texts
            if len(m) > len(t):
                m, t = t, m
            for s in m:
                if s in t:
                    break
            else:
                return None
        elif _clash({a}, {b}):
            return None"""


def _compiled(n: int, tests: list, met: list, tops: tuple) -> tuple:
    """The plan's Python source and its two functions of one entry per
    constituent, `run` and `run_filtered`, each giving the result tree,
    or None when the candidate fails, from the entries' original nodes.
    `run` makes the plan's `tests` first; `run_filtered` leaves them to
    its caller's filters.  Each test is `_clash` or an inlined part of
    it, which builds nothing; each class of `met` is the `meet` of its
    values and its places' nodes, then of a tree of its children's
    nodes; and the result is one new tree of the `tops`' nodes.

    The code is straight-line, and reads each place once, when it is
    first needed.  A place of one label is read by `children.get`,
    which never gives BLOCKED, a longer path by `_peek`, which can.  So
    a value test of a one-label place is a test of the leaf's texts, a
    one-label place tested against itself is no test, and a pair test
    of two one-label places passes at once when either node is absent
    or both are one object (the dictionary shares its leaves), and else
    loops over the shorter leaf's texts or calls `_clash`.  Every other
    test calls `_clash`, and only a class or a top that can be BLOCKED
    is checked for it.  A test or a class whose values are BLOCKED
    fails every candidate.  Labels enter the source by `repr`, values
    as the namespace's constants `K0`, `K1`, ...: the leaves, or the
    `frozenset`s of their texts that the value tests read.
    """
    constants: dict[int, tuple] = {}  # id -> (name, value)

    def constant(value) -> str:
        return constants.setdefault(id(value), ("K%d" % len(constants), value))[0]

    def function(name: str, tests) -> list[str]:
        lines = ["def %s(%s):" % (name, ", ".join("e%d" % k for k in range(n)))]
        if any(j is None and q is BLOCKED for _, _, j, q in tests) or any(
            node is BLOCKED for _, node, _ in met
        ):
            return lines + ["    return None"]
        code = lines.append
        reads: dict[tuple, str] = {}  # place -> the local holding its node
        bound = set()  # the locals holding a constituent's tree (tK) or its children (cK)

        def bind(local: str, value: str) -> str:
            if local not in bound:
                bound.add(local)
                code("    %s = %s" % (local, value))
            return local

        def read(k: int, path: tuple) -> str:
            var = reads.get((k, path))
            if var is None:
                var = reads[k, path] = "x%d" % len(reads)
                if len(path) > 1:
                    code("    %s = _peek(%s, %r)" % (var, bind("t%d" % k, "e%d.tree" % k), path))
                else:
                    tree = "t%d" % k if "t%d" % k in bound else "e%d.tree" % k
                    children = bind("c%d" % k, tree + "._children")
                    code("    %s = %s.get(%r)" % (var, children, path[0]))
            return var

        def fail(condition: str):
            code("    if %s:\n        return None" % condition)

        for k, p, j, q in tests:
            a = read(k, p)
            if j is None:
                if len(p) > 1:
                    fail("_clash(%s, %s)" % (a, constant(q)))
                else:
                    fail("%s is not None and (%s.__class__ is not ValueSet or %s.isdisjoint(%s._texts))"
                         % (a, a, constant(frozenset(q._texts)), a))
                continue
            b = read(j, q)
            if len(p) > 1 or len(q) > 1:
                fail("_clash(%s, %s)" % (a, b))
            elif a != b:
                code(_PAIR_TEST.format(a=a, b=b))
        nodes = []  # the local holding each class of `met`
        for i, (places, node, children) in enumerate(met):
            operands = [] if node is None else [constant(node)]
            operands += [read(k, path) for k, path in places]
            blocking = len(operands) > 1 or any(len(path) > 1 for _, path in places)
            if len(operands) == 1 and not children:
                nodes.append(operands[0])
            else:
                nodes.append("n%d" % i)
                node = operands[0] if operands else None
                for operand in operands[1:]:
                    node = "meet(%s, %s)" % (node, operand)
                if node is not None:
                    code("    n%d = %s" % (i, node))
            if children:
                code("    d = {}")
                for label, child in children:
                    code("    if {0} is not None:\n        d[{1!r}] = {0}".format(nodes[child], label))
                if operands:
                    code("    if d:\n        n%d = meet(n%d, FeatureTree(d))" % (i, i))
                    blocking = True
                else:
                    code("    n%d = FeatureTree(d) if d else None" % i)
            elif not operands:
                code("    n%d = None" % i)
            if blocking:
                fail("%s is BLOCKED" % nodes[i])
        code("    r = {}")
        for label, k, path in tops:
            if k is None:
                node = nodes[path]
            else:
                node = read(k, path)
                if len(path) > 1:
                    fail("%s is BLOCKED" % node)
            code("    if %s is not None:\n        r[%r] = %s" % (node, label, node))
        code("    return FeatureTree(r) if r else EMPTY_TREE")
        return lines

    source = "\n".join(function("run", tests) + function("run_filtered", ())) + "\n"
    key = (source, tuple(
        tuple((text, type(text)) for text in value.values) if isinstance(value, ValueSet) else value
        for _, value in constants.values()
    ))
    functions = _COMPILED.get(key)
    if functions is None:
        namespace = {**_NAMESPACE, **dict(constants.values())}
        exec(compile(source, "<rule plan>", "exec"), namespace)
        functions = _COMPILED[key] = namespace["run"], namespace["run_filtered"]
    return (source, *functions)


# -- analysis ----------------------------------------------------------------

def _stored_splits(surface: str, plan: _RulePlan, dictionary: ObjectDictionary):
    """Each split of the surface into stored parts, one per constituent
    of the plan, as (parts, entry lists) in ascending order of cut
    positions, within the bound `analyze` states.  The constituents'
    sets (`_surfaces`), None where a constituent has no index, are read
    as one tuple kept in the dictionary's `surface_sets`."""
    sets = dictionary.surface_sets.get(plan.tag)
    if sets is None:
        sets = dictionary.surface_sets[plan.tag] = tuple(
            None if constituent.key.index is None else _surfaces(dictionary, constituent.key.index)
            for constituent in plan.constituents
        )
    lookup = dictionary.lookup
    found: dict[str, list[ObjectEntry]] = {}  # each part looked up, for the later tails
    end = len(surface)
    n = len(sets)
    head, tails = sets[0], sets[1:]
    last = tails[0] if n == 2 else None
    for first_cut in range(1, end - n + 2):
        if last is not None and surface[first_cut:] not in last:
            continue
        prefix = surface[:first_cut]
        if head is not None and prefix not in head:
            continue
        first = lookup(prefix)
        if not first:
            continue
        found[prefix] = first
        for cuts in combinations(range(first_cut + 1, end), n - 2):
            parts = [prefix]
            start = first_cut
            for cut, admitted in zip(cuts + (end,), tails):
                part = surface[start:cut]
                if admitted is not None and part not in admitted:
                    break
                parts.append(part)
                start = cut
            else:
                entry_lists = [first]
                for part in parts[1:]:
                    entries = found.get(part)
                    if entries is None:
                        entries = found[part] = lookup(part)
                    if not entries:
                        break
                    entry_lists.append(entries)
                else:
                    yield parts, entry_lists


def _surfaces(dictionary: ObjectDictionary, index: tuple[str, str]) -> frozenset[str]:
    """The surfaces of the entries an equation `C f = v` can take, the
    index (f, v): those `lookup_by_concat` gives, whose f leaf holds v
    or who lack f.  Any other entry clashes with v at f, so a part
    outside the set has no reading (the module docstring's pruning).
    Kept in the dictionary's `surface_sets`."""
    surfaces = dictionary.surface_sets.get(index)
    if surfaces is None:
        feature, value = index
        entries = dictionary.lookup_by_concat(value, feature)
        surfaces = dictionary.surface_sets[index] = frozenset([entry.surface for entry in entries])
    return surfaces


def analyze(
    surface: str,
    dictionary: ObjectDictionary,
    rules: Iterable[WFRule],
    lex_feature: str = "lex",
) -> list[Analysis]:
    """Every reading of the surface as a rule-governed concatenation;
    a reading's lemma is the one value of its `lex_feature` leaf.
    Results are deduplicated by category and canonical form, ordered by
    rule, then cut positions, then the entry order of each part's
    lookup.  A category's first reading gets its canonical form only
    when a second one arrives.

    Exact string match only: each part must be a dictionary surface as
    written.  Splits are walked left to right, so per rule of n
    constituents and a surface of length L analysis makes at most L-n+1
    first-part lookups; only a stored first part, of length c, opens its
    at most C(L-c-1, n-2) tails, each looked up left to right until its
    first missing part, and no tail part is looked up twice for one
    rule.  A rule of more constituents than the surface has characters
    is not split at all.  Within that bound only admitted parts are
    looked up: a constituent with an index (f, v) in the rule's plan
    takes only a part among its `_surfaces`, so a split with a part
    outside its set is skipped before any lookup, and with two
    constituents a tail outside its set before the prefix is looked up.
    Only the index a rule names is built (`concat` under the fixture's
    rule), never the lemma index.
    """
    out: list[Analysis] = []
    seen: set[tuple[str, str]] = set()
    # each category's first reading, until its canonical form is in `seen`
    first: dict[str, FeatureTree | None] = {}
    lex_path = (lex_feature,)
    for rule in rules:
        if len(rule.rhs) > len(surface):
            continue  # no split: each part is non-empty
        category = rule.lhs
        plan = rule.plans.get(lex_path) or _plan(rule, lex_path)
        run = plan.run
        for parts, candidate_lists in _stored_splits(surface, plan, dictionary):
            for combo in product(*candidate_lists):
                tree = run(*combo)
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
                lex = tree._children.get(lex_feature)
                lemma = (
                    lex.values[0] if lex.__class__ is ValueSet and len(lex.values) == 1 else None
                )
                out.append(Analysis(surface, lemma, category, tree, tuple(zip(parts, combo))))
    return out


# -- generation ---------------------------------------------------------------

# The most candidate combinations `generate` tries for one rule in one call.
MAX_COMBINATIONS = 100_000

# The most entries `generate` keeps in a dictionary's `node_tables`.  The
# keys hold the caller's constraints, so without a bound a stream of
# new constraint values would grow the cache for the life of the
# process; past the bound, a table, cell state or join not kept is made
# on each call that needs it and then dropped.
MAX_NODE_TABLES = 4096


class GenerationLimit(Exception):
    """A rule whose candidate product exceeds `MAX_COMBINATIONS`."""


def _node_rows(entries: Iterable[ObjectEntry], paths: tuple) -> list[tuple[ObjectEntry, tuple]]:
    """Each entry with its own nodes at the paths, as `(entry, nodes)`,
    `nodes` a tuple aligned with the paths."""
    return [(entry, tuple([_peek(entry.tree, path) for path in paths])) for entry in entries]


def _admit(rows: Sequence, tests) -> Sequence:
    """The rows whose nodes clear each (position, node) test by
    `_clash`, the position indexing a row's `nodes`."""
    if not tests:
        return rows
    return [row for row in rows if not any(_clash(node, row[1][i]) for i, node in tests)]


def _kept(tables: dict, key, value):
    """The value, kept in `tables` (a dictionary's `node_tables`) under
    key while it holds fewer than `MAX_NODE_TABLES` entries."""
    if len(tables) < MAX_NODE_TABLES:
        tables[key] = value
    return value


def _table(dictionary: ObjectDictionary, constituent: _Constituent) -> Sequence:
    """A table-drawn constituent's table: its candidates, from its key's
    index or from every entry, each with its nodes at its key's paths,
    that pass its value tests.  Kept in the dictionary's `node_tables`
    under its key's tag."""
    tables = dictionary.node_tables
    table = tables.get(constituent.tag)
    if table is None:
        key = constituent.key
        index = key.index
        entries = (
            dictionary.entries if index is None
            else dictionary.lookup_by_concat(index[1], index[0])
        )
        table = _admit(_node_rows(entries, key.paths), constituent.tests)
        table = _kept(tables, constituent.tag, table)
    return table


class _Cell(NamedTuple):
    drawn: _Constituent | None
    tests: tuple
    heads: tuple
    size: int
    joins: tuple


def _cell(dictionary: ObjectDictionary, plan: _RulePlan, constraints: FeatureTree) -> _Cell:
    """The cell state: all that a call derives from the plan and the
    constraints, kept in the dictionary's `node_tables` under (plan
    tag, constraints).  A constituent's tests are (position, node)
    pairs for `_admit`: the constraints' nodes at its result paths,
    where present and not below a leaf.  A table-drawn constituent's
    narrowed table is the rows of its table (`_table`) that clear them.
    The state holds the lemma-drawn constituent (`drawn`, None without
    one; it is always the first outer one) and its tests, the other
    outer constituents' narrowed tables, the product of all narrowed
    tables' sizes, and for each of the plan's `links` a join (key,
    narrowed table, links), whose key is an object of its own, which
    hashes at once."""
    narrowed, drawn_tests = [], ()
    for constituent in plan.constituents:
        tests = []
        for i, result in constituent.sources:
            node = _peek(constraints, result)
            if node is not None and node is not BLOCKED:
                tests.append((i, node))
        if constituent.by_lemma:
            narrowed.append(None)
            drawn_tests = tuple(tests)
        else:
            narrowed.append(_admit(_table(dictionary, constituent), tests))
    first = plan.outer[0]
    drawn = plan.constituents[first] if narrowed[first] is None else None
    return _kept(dictionary.node_tables, (plan.tag, constraints), _Cell(
        drawn,
        drawn_tests,
        tuple(narrowed[k] for k in (plan.outer[1:] if drawn else plan.outer)),
        prod(len(table) for table in narrowed if table is not None),
        tuple((object(), narrowed[k], own) for k, own in plan.links),
    ))


def _lemma_rows(
    dictionary: ObjectDictionary, constituent: _Constituent, lex_feature: str, lemma: str
) -> tuple:
    """A lemma-drawn constituent's rows for the lemma: the lemma index's
    entries, each with its nodes at its key's paths, that pass its value
    tests.  Kept in the dictionary's `lemma_rows` when the index holds
    the lemma."""
    store = dictionary.lemma_rows.get((constituent.tag, lex_feature))
    rows = None if store is None else store.get(lemma)
    if rows is None:
        entries = dictionary.lookup_by_lemma(lemma, lex_feature)
        rows = tuple(_admit(_node_rows(entries, constituent.key.paths), constituent.tests))
        if entries:
            dictionary.lemma_rows.setdefault((constituent.tag, lex_feature), {})[lemma] = rows
    return rows


def _joined(tables: dict, key: object, table: Sequence, links: tuple, probe: tuple) -> tuple:
    """The rows of a joined constituent's narrowed table that clear the
    outer rows' nodes at its linked places (the probe), a leaf, a
    subtree, or a missing or blocked node each, and their surfaces.
    Kept in `node_tables` (`tables`) under (join key, probe)."""
    rows = _admit(table, [(i, node) for (_, _, i), node in zip(links, probe)])
    return _kept(tables, (key, probe), (rows, [row[0].surface for row in rows]))


def generate(
    lemma: str,
    constraints: FeatureTree,
    dictionary: ObjectDictionary,
    rules: Iterable[WFRule],
    lex_feature: str = "lex",
) -> list[str]:
    """Surfaces derivable for the lemma whose result tree unifies with
    the constraints, deduplicated and sorted.

    Each constituent's candidates are rows (`_node_rows`), drawn as the
    rule's plan (`_plan`) says: a lemma-drawn constituent's from the
    `lex_feature` index for the lemma (`_lemma_rows`), any other's from
    its table (`_table`), the entries of the index its first value
    equation `C f = v` with a one-label path and one value names (those
    whose f leaf holds v, plus those lacking f), else every entry.  Rows
    that fail a value test or a constraint filter are dropped, as the
    module docstring's pruning says, and what they leave of each table
    is kept in the cell state (`_cell`).  A constituent drawn from every
    entry can multiply the work by the dictionary's size, so a rule
    whose product of narrowed tables exceeds `MAX_COMBINATIONS` raises
    `GenerationLimit` before any combination is tried.

    `product` runs over the outer constituents, then, for each outer
    combination, over the joined ones' rows that clear its links
    (`_joined`); only the unjoined pair checks run per combination.
    Under a plan that is not settled each combination runs the plan's
    `run_filtered`, which skips the tests the filters decide, then the
    lemma test and `unify`.  A settled plan (`_plan`) runs no compiled
    function and no lemma test: a constrained call reads each tree at
    the plan's `reads` and unifies it with the constraints, and an
    unconstrained one keeps each surface as it is.
    When, besides, no pair check is left unjoined, it takes the surfaces
    of one outer combination as one `product` over each constituent's
    surface column, in rule order (by `order`): the one surface of an
    outer row, or those of a joined list.  That product has exactly the
    combinations the one over the joined lists would.
    """
    lex_path = (lex_feature,)
    kept = dictionary.node_tables
    surfaces: set[str] = set()
    for rule in rules:
        plan = rule.plans.get(lex_path) or _plan(rule, lex_path)
        _, _, run_filtered, unjoined, _, _, _, order, settled, reads, tag = plan
        unconstrained = settled and not constraints._children
        drawn, tests, heads, size, joins = (
            kept.get((tag, constraints)) or _cell(dictionary, plan, constraints)
        )
        if drawn is not None:
            heads = (_admit(_lemma_rows(dictionary, drawn, lex_feature, lemma), tests), *heads)
            size *= len(heads[0])
        if size > MAX_COMBINATIONS:
            where = "%s:%d: " % (rule.file, rule.line) if rule.file else ""
            raise GenerationLimit(
                "%srule '%s' has %d candidate combinations, more than the %d generation tries"
                % (where, rule.name, size, MAX_COMBINATIONS)
            )
        if not all(heads):
            continue
        by_columns = unconstrained and not unjoined
        for head in product(*heads):
            tails = []
            for key, table, links in joins:
                probe = tuple([head[x][1][p] for x, p, _ in links])
                tail = kept.get((key, probe)) or _joined(kept, key, table, links, probe)
                if not tail[0]:
                    break
                tails.append(tail)
            else:
                if by_columns:
                    # each combination clears the filters: join the surface columns
                    columns = [[row[0].surface] for row in head]
                    columns += [column for _, column in tails]
                    columns = [columns[x] for x in order]
                    if tails:
                        surfaces.update(map("".join, product(*columns)))
                    else:
                        surfaces.add("".join(column[0] for column in columns))
                    continue
                for tail in product(*[rows for rows, _ in tails]) if tails else ((),):
                    combo = head + tail
                    if unjoined and any(
                        _clash(combo[i][1][p], combo[j][1][q]) for i, p, j, q in unjoined
                    ):
                        continue
                    entries = [combo[x][0] for x in order]
                    if unconstrained:
                        surfaces.add("".join(entry.surface for entry in entries))
                        continue
                    if settled:
                        # the filters decided the combination: its tree
                        # is its rows' nodes at the reads, none blocked
                        read = {}
                        for label, x, i in reads:
                            node = combo[x][1][i]
                            if node is not None:
                                read[label] = node
                        tree = FeatureTree(read)
                    else:
                        tree = run_filtered(*entries)
                        if tree is None:
                            continue
                        lex = tree._children.get(lex_feature)
                        if not isinstance(lex, ValueSet) or lemma not in lex._texts:
                            continue
                    if unify(tree, constraints) is None:
                        continue
                    surfaces.add("".join(entry.surface for entry in entries))
    return sorted(surfaces)
