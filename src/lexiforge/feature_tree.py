"""Tree-shaped feature structures with disjunctive leaf values.

This is the vocabulary every other module speaks: immutable trees whose
interior nodes map labels to children and whose leaves hold non-empty
sets of values.  A value is a `str`, and a `Quoted` one was written as
a quoted string.  A leaf with several values is a disjunction.

`meet` is the one place that decides what equating two nodes leaves:
two leaves intersect their value sets, two trees meet label by label,
and an empty intersection anywhere gives BLOCKED.  `unify` is `meet`
on two trees with BLOCKED given as None; the word-formation engine
calls `meet` on the nodes at an equation's two sides.

All operations are functional: they return new trees and never mutate
their operands, so trees can be shared freely across entries, indexes
and threads.  A tree keeps the text of its canonical form once made,
and builds it from its subtrees' kept texts, so a subtree shared by
many entries is rendered once; it keeps its hash too.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Union

# Characters that can never appear in a bare symbol or feature label.
RESERVED_CHARS = frozenset('=$()#;"\\')

# The regular-expression class of symbol characters, the one place
# that decides them; the source scanner builds its tokens from it.  For
# str patterns `\s` matches exactly the characters for which
# str.isspace() is true, so the class holds every character that is
# neither whitespace nor reserved.
SYMBOL_CHAR = "[^\\s%s]" % re.escape("".join(sorted(RESERVED_CHARS)))
_SYMBOL = re.compile(SYMBOL_CHAR + "+")


def is_symbol_text(text: str) -> bool:
    """True if text can stand as a bare (unquoted) symbol token."""
    return _SYMBOL.fullmatch(text) is not None


class PathThroughLeaf(Exception):
    """A path tried to descend through a leaf node.

    Raised by set(); signals an inconsistent source base (some entry
    treats a feature both as atomic and as structured).
    """

    def __init__(self, path: tuple[str, ...], depth: int):
        self.path = tuple(path)
        self.depth = depth
        super().__init__(
            "path '%s' descends through the leaf at '%s'"
            % (" ".join(self.path), " ".join(self.path[:depth]))
        )


class Quoted(str):
    """A value that was written as a quoted string.

    The spelling drives parsing and printing only: a `Quoted` value
    equals, and hashes as, the plain `str` with the same text.
    """

    __slots__ = ()


def render_value(text: str) -> str:
    """Source text for a value: bare when possible, else quoted."""
    if is_symbol_text(text) and not isinstance(text, Quoted):
        return text
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


class ValueSet:
    """Non-empty set of values held by a leaf.

    A value is a `str`; a `Quoted` one was written as a quoted string.
    Source order is kept for display, but equality and every semantic
    operation treat the values as a set.  A quoted-string member must be
    the only member, and no value may hold a newline.  The set itself
    is `_texts`, the sorted tuple of the distinct values: nearly every
    leaf holds one value, and then `_texts` is `values` itself.  Hot
    paths (`intersect`, the word-formation engine) read it directly.
    A leaf keeps its hash (`_hash`, set on the first `hash`) within one
    process, as a `FeatureTree` does: a pickled leaf is rebuilt from its
    values.
    """

    __slots__ = ("values", "_texts", "_rendered", "_hash")

    def __init__(self, values: Iterable[str]):
        vals: list[str] = []
        seen: set[str] = set()
        for v in values:
            if "\n" in v or "\r" in v:
                raise ValueError("values may not contain newlines")
            if v not in seen:
                seen.add(v)
                vals.append(v)
        if not vals:
            raise ValueError("a leaf needs at least one value")
        if len(vals) > 1 and any(isinstance(v, Quoted) for v in vals):
            raise ValueError("a string value must be the only value of its leaf")
        self.values = tuple(vals)
        self._texts = self.values if len(vals) == 1 else tuple(sorted(vals))
        self._rendered: str | None = None

    def texts(self) -> frozenset[str]:
        """The distinct texts as a new frozenset."""
        return frozenset(self._texts)

    def intersect(self, other: "ValueSet") -> "ValueSet | None":
        """Set intersection keeping this side's order; None when empty.

        Returns this set itself when no value was dropped.
        """
        theirs = other._texts
        if self._texts == theirs:
            return self
        kept = []
        for v in self.values:
            if v in theirs:
                kept.append(v)
        if not kept:
            return None
        if len(kept) == len(self.values):
            return self
        return ValueSet(kept)

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __eq__(self, other: object):
        if isinstance(other, ValueSet):
            return self._texts == other._texts
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash(self._texts)
            return value

    def __reduce__(self):
        # the values alone: a kept hash would be wrong in another process
        return ValueSet, (self.values,)

    def __repr__(self):
        return "ValueSet(%s)" % " ".join(map(render_value, self.values))

    def rendered(self) -> str:
        """Values in canonical (sorted) order, space separated.

        Computed on the first call and kept: a leaf is immutable, and
        one leaf object is often shared by many entries (inheritance
        when compiling, repeated lines when loading), so each rendering
        is made once per object.  The text belongs to the object, not
        to its value: equal leaves spelled differently (`a` and `"a"`)
        keep their own renderings.
        """
        text = self._rendered
        if text is None:
            text = self._rendered = " ".join(map(render_value, self._texts))
        return text


def leaf(*texts: str, quoted: bool = False) -> ValueSet:
    return ValueSet(map(Quoted, texts) if quoted else texts)


class FeatureTree:
    """Immutable interior node: an ordered mapping from labels to children.

    Children are either FeatureTree nodes or leaves.  Any child that is
    not a FeatureTree is treated as a leaf by the structural operations
    (get/set/delete/merge), which lets the resolver thread rule-call
    placeholders through merging; unify and canonical_form demand real
    ValueSet leaves.

    Every tree is built here, and each label is checked the first time
    a tree holds it.  Operations that leave an operand unchanged return
    that operand rather than a copy.  Equal trees hash equal, so a tree
    can be a dict key.  A tree keeps its canonical text (`_canon`) and
    its hash (`_hash`, set on the first `hash`) once made, so `children`
    is never mutated after construction.  Both are kept only within one
    process: a pickled tree is rebuilt from its children, since string
    hashes change with `PYTHONHASHSEED`.
    """

    __slots__ = ("children", "_canon", "_hash")

    def __init__(self, children: Mapping[str, "Node"] | None = None):
        items = dict(children) if children else {}
        if not _LABELS.issuperset(items):
            for label in items:
                if not is_symbol_text(label):
                    raise ValueError("invalid feature label %r" % (label,))
            _LABELS.update(items)
        self.children = items
        self._canon = None

    # -- structural operations ------------------------------------------

    def get(self, path: Iterable[str]) -> "Node | None":
        """Node at path, or None when absent (or below a leaf)."""
        node: Node = self
        for label in path:
            if not isinstance(node, FeatureTree):
                return None
            nxt = node.children.get(label)
            if nxt is None:
                return None
            node = nxt
        return node

    def set(self, path: Iterable[str], node: "Node") -> "FeatureTree":
        """Replace the node at path, creating missing interior nodes.

        Augments: siblings along the way are untouched.  Raises
        PathThroughLeaf when a proper prefix of path is a leaf.
        """
        p = tuple(path)
        if not p:
            raise ValueError("cannot set the empty path")
        return self._set(p, 0, node)

    def _set(self, path: tuple[str, ...], i: int, node: "Node") -> "FeatureTree":
        children = dict(self.children)
        label = path[i]
        if i == len(path) - 1:
            children[label] = node
            return FeatureTree(children)
        child = self.children.get(label)
        if child is None:
            child = _EMPTY
        elif not isinstance(child, FeatureTree):
            raise PathThroughLeaf(path, i + 1)
        children[label] = child._set(path, i + 1, node)
        return FeatureTree(children)

    def delete(self, path: Iterable[str]) -> "FeatureTree":
        """Remove the node at path; removing an absent path is a no-op.

        A parent emptied by the removal stays in place as an empty
        interior node.
        """
        p = tuple(path)
        if not p:
            return self
        return self._delete(p, 0)

    def _delete(self, path: tuple[str, ...], i: int) -> "FeatureTree":
        label = path[i]
        child = self.children.get(label)
        if child is None:
            return self
        if i == len(path) - 1:
            children = dict(self.children)
            del children[label]
            return FeatureTree(children)
        if not isinstance(child, FeatureTree):
            return self
        replaced = child._delete(path, i + 1)
        if replaced is child:
            return self
        children = dict(self.children)
        children[label] = replaced
        return FeatureTree(children)

    def merge(self, overlay: "FeatureTree") -> "FeatureTree":
        """Non-monotonic override union: the overlay wins on clashes.

        Where both sides define a label, two interiors merge recursively
        and any other combination is replaced wholesale by the overlay
        node.  Associative; the empty tree is its identity.
        """
        if not overlay.children:
            return self
        if not self.children:
            return overlay
        children = dict(self.children)
        for label, onode in overlay.children.items():
            mine = children.get(label)
            if isinstance(mine, FeatureTree) and isinstance(onode, FeatureTree):
                children[label] = mine.merge(onode)
            else:
                children[label] = onode
        return FeatureTree(children)

    # -- inspection ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.children

    def leaves(self) -> Iterator[tuple[tuple[str, ...], ValueSet]]:
        """(path, values) pairs in sorted path order; ValueSet leaves only."""
        yield from self._leaves(())

    def _leaves(self, prefix: tuple[str, ...]):
        for label in sorted(self.children):
            node = self.children[label]
            path = prefix + (label,)
            if isinstance(node, FeatureTree):
                yield from node._leaves(path)
            elif isinstance(node, ValueSet):
                yield path, node
            else:
                raise ValueError(
                    "tree holds an unevaluated placeholder at '%s'" % " ".join(path)
                )

    def canonical_form(self) -> str:
        """Deterministic text form: one 'path = values' line per leaf.

        Paths sort lexicographically, values sort within each leaf, and
        the output ends with a newline unless the tree has no leaves.
        Two trees are semantically equal exactly when their canonical
        forms match, empty interior nodes aside (they contribute no
        lines).
        """
        text = self._canon
        return self._composed(()) if text is None else text

    def _composed(self, path: tuple[str, ...]) -> str:
        """Canonical text built from the children's, kept on first use.

        A leaf gives `label = values`; a subtree gives its own kept text
        with `label ` put before each line (values and labels never hold
        a newline).  A tree and a subtree shared by many entries are
        each rendered once.  `path` places this tree for the error a
        placeholder raises.
        """
        parts = []
        for label in sorted(self.children):
            node = self.children[label]
            if isinstance(node, ValueSet):
                parts.append(label + " = " + node.rendered() + "\n")
            elif isinstance(node, FeatureTree):
                text = node._canon
                if text is None:
                    text = node._composed(path + (label,))
                if text:
                    parts.append(label + " " + text[:-1].replace("\n", "\n" + label + " ") + "\n")
            else:
                raise ValueError(
                    "tree holds an unevaluated placeholder at '%s'" % " ".join(path + (label,))
                )
        text = self._canon = "".join(parts)
        return text

    def __eq__(self, other: object):
        if not isinstance(other, FeatureTree):
            return NotImplemented
        if self.children.keys() != other.children.keys():
            return False
        return all(self.children[k] == other.children[k] for k in self.children)

    def __hash__(self):
        # from the children, as `==` compares them: not from the
        # canonical text, which equal leaves spelled `a` and `"a"` differ in
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash(frozenset(self.children.items()))
            return value

    def __reduce__(self):
        # the children alone: a kept hash would be wrong in another process
        return FeatureTree, (self.children,)

    def __repr__(self):
        return "FeatureTree(%r)" % (self.children,)


Node = Union[FeatureTree, ValueSet]

# Labels that have passed is_symbol_text.  Only ever grows, and only by
# valid labels, so a label missing from it is always checked.
_LABELS: set[str] = set()

_EMPTY = FeatureTree()
EMPTY_TREE = _EMPTY


# What `meet` gives when two nodes cannot be equated.
BLOCKED = object()


def meet(a: "Node | None", b: "Node | None"):
    """What equating two nodes leaves: the only node-level meet.

    An absent side (None) gives the other side.  Two leaves intersect.
    Two trees meet label by label over `a`'s children, so `b`'s own
    labels follow `a`'s; an empty tree gives the other operand itself.
    `a`'s children are copied only at the first label whose meet is not
    `a`'s own node there, so when `b` adds and narrows nothing, `a`
    itself comes back, as a leaf's intersection gives the leaf itself.
    Anything else (a leaf against a tree, a placeholder, BLOCKED), or
    an empty intersection anywhere below, gives BLOCKED.
    """
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        merged = a.intersect(b)
        return BLOCKED if merged is None else merged
    if not isinstance(a, FeatureTree) or not isinstance(b, FeatureTree):
        return BLOCKED
    if not b.children:
        return a
    own = children = a.children
    if not own:
        return b
    for label, bnode in b.children.items():
        mine = own.get(label)
        merged = meet(mine, bnode)
        if merged is BLOCKED:
            return BLOCKED
        if merged is not mine:
            if children is own:
                children = dict(own)
            children[label] = merged
    return a if children is own else FeatureTree(children)


def unify(a: FeatureTree, b: FeatureTree) -> FeatureTree | None:
    """Most general tree compatible with both operands, or None.

    `meet` with BLOCKED given as None.  Commutative up to canonical
    form, idempotent, and the empty tree is its unit: when one operand
    is empty the other is returned as it is, and when `b` adds and
    narrows nothing in `a`, `a` is.
    """
    merged = meet(a, b)
    return None if merged is BLOCKED else merged
