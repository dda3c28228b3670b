import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lexiforge
from lexiforge.feature_tree import (
    BLOCKED,
    EMPTY_TREE,
    RESERVED_CHARS,
    FeatureTree,
    PathThroughLeaf,
    Quoted,
    ValueSet,
    is_symbol_text,
    leaf,
    meet,
    render_value,
    unify,
)
from lexiforge.source import RuleCall
from oracles import _canonical, _frozen, _meet, _plain
from sources import parse_tree


# -- values and value sets --------------------------------------------------

def test_atom_equality_ignores_quoting():
    assert "ped" == Quoted("ped")
    assert hash("ped") == hash(Quoted("ped"))
    assert "ped" != Quoted("pid")


def test_atom_rejects_newlines():
    with pytest.raises(ValueError):
        ValueSet(["a\nb"])


def test_atom_rendering_quotes_only_when_needed():
    assert render_value("ped") == "ped"
    assert render_value(Quoted("ped")) == '"ped"'
    assert render_value("a b") == '"a b"'
    assert render_value('say "hi"') == '"say \\"hi\\""'
    assert render_value("back\\slash") == '"back\\\\slash"'


def test_symbol_charset():
    assert is_symbol_text("'abamos")
    assert is_symbol_text("ía")
    assert is_symbol_text("rv8c")
    for bad in ("", "a b", "a=b", "a(b", 'a"b', "a;b", "a$b", "a#b", "a\\b"):
        assert not is_symbol_text(bad)


def test_symbol_charset_agrees_with_its_definition_on_every_code_point():
    for code in range(0x110000):
        c = chr(code)
        assert is_symbol_text(c) == (not (c.isspace() or c in RESERVED_CHARS)), hex(code)


def test_value_set_deduplicates_and_keeps_order():
    vs = ValueSet(["2", "1", "2"])
    assert list(vs) == ["2", "1"]
    assert len(vs) == 2


def test_value_set_requires_values():
    with pytest.raises(ValueError):
        ValueSet([])


def test_value_set_string_must_stand_alone():
    leaf("a b", quoted=True)  # sole value: fine
    with pytest.raises(ValueError):
        ValueSet([Quoted("a b"), "c"])


def test_value_set_equality_is_set_equality():
    assert leaf("1", "2") == leaf("2", "1")
    assert hash(leaf("1", "2")) == hash(leaf("2", "1"))
    assert leaf("1") != leaf("1", "2")


def test_value_set_intersection_keeps_left_order():
    a = ValueSet(["3", "1", "2"])
    b = leaf("2", "3")
    assert list(a.intersect(b)) == ["3", "2"]
    assert a.intersect(leaf("9")) is None
    assert a.intersect(leaf("1", "2", "3", "4")) is a


# Few texts, so that drawn lists share some; "a b" and "é" need quotes.
_set_texts = st.lists(st.sampled_from(["a", "b", "c", "a b", "é"]), min_size=1, max_size=4)


@settings(max_examples=300)
@given(_set_texts, _set_texts, st.randoms(use_true_random=False))
def test_value_sets_behave_as_sets_of_their_texts(xs, ys, rnd):
    a = ValueSet(xs)
    b = ValueSet(ys)
    assert isinstance(a.texts(), frozenset)
    assert a.texts() == set(xs)
    assert (a == b) == (set(xs) == set(ys))
    if a == b:
        assert hash(a) == hash(b)
    # order and repeats do not matter
    shuffled = xs + xs
    rnd.shuffle(shuffled)
    again = ValueSet(shuffled)
    assert again == a and hash(again) == hash(a)
    # nor does quoting, which only a leaf of one value may use
    if len(set(xs)) == 1:
        quoted = leaf(xs[0], quoted=True)
        assert quoted == a and hash(quoted) == hash(a)
    # intersect keeps this side's order, and is this side when it drops nothing
    kept = [t for t in dict.fromkeys(xs) if t in set(ys)]
    met = a.intersect(b)
    if not kept:
        assert met is None
    else:
        assert list(met) == kept
        assert (met is a) == (set(xs) <= set(ys))


def test_value_set_rendering_sorts():
    assert leaf("2", "1", "11").rendered() == "1 11 2"


def test_value_set_rendering_is_made_once_per_object():
    v = leaf("2", "1", "11")
    first = v.rendered()
    assert v.rendered() is first
    assert v.rendered() == "1 11 2"
    # the intersection is a new object with its own rendering
    assert v.intersect(leaf("2", "11")).rendered() == "11 2"


def test_equal_leaves_keep_their_own_spelling():
    bare, quoted = leaf("a"), ValueSet([Quoted("a")])
    assert bare == quoted and hash(bare) == hash(quoted)
    for _ in range(2):
        assert bare.rendered() == "a"
        assert quoted.rendered() == '"a"'
    tree = EMPTY_TREE.set(("x",), bare).set(("y",), quoted)
    assert tree.canonical_form() == 'x = a\ny = "a"\n'


def test_a_leaf_keeps_its_hash_and_a_bare_and_a_quoted_leaf_hash_equal():
    bare, quoted = leaf("a"), leaf("a", quoted=True)
    assert hash(bare) == hash(quoted) == hash(("a",))
    assert bare._hash == quoted._hash == hash(bare)
    assert {bare: "found"}[leaf("a", quoted=True)] == "found"
    assert hash(leaf("b", "a")) == hash(leaf("a", "b")) != hash(leaf("a"))


def test_a_pickled_leaf_is_equal_and_keeps_no_hash():
    # a kept hash would be wrong under another PYTHONHASHSEED; the
    # tree test below checks a pickled key in such a process
    for original in (leaf("b", "a"), leaf("x y", quoted=True)):
        hash(original), original.rendered()
        again = pickle.loads(pickle.dumps(original))
        assert again == original and again.values == original.values
        assert list(map(type, again.values)) == list(map(type, original.values))
        assert not hasattr(again, "_hash")
        assert hash(again) == hash(original)
        assert again.rendered() == original.rendered()


def test_canonical_form_of_shared_multi_value_and_quoted_leaves():
    many, spaced, quoted = leaf("2", "1", "11"), leaf("x y"), leaf("q", quoted=True)
    first = FeatureTree({"b": many, "a": FeatureTree({"s": spaced}), "c": quoted})
    second = FeatureTree({"c": many, "b": quoted})
    expected = 'a s = "x y"\nb = 1 11 2\nc = "q"\n'
    assert first.canonical_form() == expected
    assert second.canonical_form() == 'b = "q"\nc = 1 11 2\n'
    assert first.canonical_form() == expected


# -- tree structure ----------------------------------------------------------

def tree_ab():
    return EMPTY_TREE.set(("agr", "pers"), leaf("1")).set(("agr", "num"), leaf("plu"))


def test_get_returns_nodes_and_none():
    t = tree_ab()
    assert t.get(("agr", "pers")) == leaf("1")
    assert isinstance(t.get(("agr",)), FeatureTree)
    assert t.get(("agr", "gen")) is None
    assert t.get(("missing",)) is None
    # descending through a leaf is absent, not an error
    assert t.get(("agr", "pers", "deeper")) is None


def test_set_augments_missing_interiors():
    t = EMPTY_TREE.set(("a", "b", "c"), leaf("x"))
    assert t.get(("a", "b", "c")) == leaf("x")


def test_set_rejects_paths_through_leaves():
    t = EMPTY_TREE.set(("a",), leaf("x"))
    with pytest.raises(PathThroughLeaf):
        t.set(("a", "b"), leaf("y"))


def test_set_is_persistent():
    t = tree_ab()
    t2 = t.set(("agr", "pers"), leaf("2"))
    assert t.get(("agr", "pers")) == leaf("1")
    assert t2.get(("agr", "pers")) == leaf("2")


def test_delete_keeps_emptied_parents():
    t = EMPTY_TREE.set(("alo", "1", "stem"), leaf("ped"))
    t = t.set(("alo", "2", "stem"), leaf("pid"))
    out = t.delete(("alo", "1", "stem"))
    inner = out.get(("alo", "1"))
    assert isinstance(inner, FeatureTree) and inner.is_empty
    assert out.get(("alo", "2", "stem")) == leaf("pid")


def test_delete_absent_path_is_noop():
    t = tree_ab()
    assert t.delete(("agr", "gen")) == t
    assert t.delete(("zzz", "q")) == t


def test_trees_with_other_labels_or_no_tree_compare_unequal():
    t = parse_tree("a = 1")
    assert t == parse_tree("a = 1")
    assert t != parse_tree("b = 1")
    assert t != leaf("1") and t != "a = 1\n"


def test_merge_overlay_wins():
    base = parse_tree("a = 1\nb x = 2")
    over = parse_tree("a = 9\nb y = 3")
    merged = base.merge(over)
    assert merged.get(("a",)) == leaf("9")
    assert merged.get(("b", "x")) == leaf("2")
    assert merged.get(("b", "y")) == leaf("3")


def test_merge_leaf_replaces_interior_wholesale():
    base = parse_tree("b x = 2")
    over = parse_tree("b = 1")
    assert base.merge(over).get(("b",)) == leaf("1")
    # and the other way around: interior overlay replaces a leaf
    assert over.merge(base).get(("b", "x")) == leaf("2")


def test_canonical_form_sorts_paths_and_values():
    t = parse_tree("b = 2 1\na x = q")
    assert t.canonical_form() == "a x = q\nb = 1 2\n"
    assert EMPTY_TREE.canonical_form() == ""


def test_canonical_form_frozen_example():
    t = parse_tree(
        "conj = 1\n"
        "stt = 24\n"
        "sut = reg\n"
        "concat = vm\n"
        "agr pers = 1\n"
        "agr num = plu\n"
        "vinfo tense = impf\n"
        "vinfo mood = ind"
    )
    assert t.canonical_form() == (
        "agr num = plu\n"
        "agr pers = 1\n"
        "concat = vm\n"
        "conj = 1\n"
        "stt = 24\n"
        "sut = reg\n"
        "vinfo mood = ind\n"
        "vinfo tense = impf\n"
    )


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        FeatureTree({"a b": leaf("1")})
    with pytest.raises(ValueError):
        EMPTY_TREE.set(("a=b",), leaf("1"))
    with pytest.raises(ValueError):
        EMPTY_TREE.set((), leaf("1"))
    # labels already seen in valid trees do not let a new bad one through
    tree_ab()
    with pytest.raises(ValueError):
        EMPTY_TREE.set(("agr", "a b"), leaf("1"))
    with pytest.raises(ValueError):
        FeatureTree({"agr": leaf("1"), "pers;": leaf("1")})
    with pytest.raises(ValueError):
        FeatureTree({"agr": leaf("1"), "a b": leaf("1")})


# -- unification --------------------------------------------------------------

def test_unify_disjoint_is_union():
    a = parse_tree("x = 1")
    b = parse_tree("y = 2")
    assert unify(a, b).canonical_form() == "x = 1\ny = 2\n"


def test_unify_intersects_shared_leaves():
    a = parse_tree("conj = 2 3")
    b = parse_tree("conj = 3 1")
    assert unify(a, b).get(("conj",)) == leaf("3")


def test_unify_fails_on_empty_intersection():
    assert unify(parse_tree("conj = 1"), parse_tree("conj = 2")) is None


def test_unify_fails_on_leaf_interior_clash():
    assert unify(parse_tree("a = 1"), parse_tree("a b = 1")) is None


def test_unify_recurses():
    a = parse_tree("agr pers = 1 3\nagr num = sing")
    b = parse_tree("agr pers = 1")
    u = unify(a, b)
    assert u.get(("agr", "pers")) == leaf("1")
    assert u.get(("agr", "num")) == leaf("sing")


# -- properties ----------------------------------------------------------------

_labels = st.sampled_from(list("abcdef"))
_atoms = st.sampled_from(["1", "2", "3", "x", "y", "z"])
_leaves = st.builds(
    ValueSet,
    st.lists(_atoms, min_size=1, max_size=3, unique=True),
)


def _nodes(depth: int):
    if depth <= 0:
        return _leaves
    return st.one_of(
        _leaves,
        st.dictionaries(_labels, _nodes(depth - 1), min_size=1, max_size=3).map(
            FeatureTree
        ),
    )


trees = st.dictionaries(_labels, _nodes(2), max_size=3).map(FeatureTree)


def _leaf_paths(t: FeatureTree):
    return dict(t.leaves())


@settings(max_examples=300)
@given(trees, trees)
def test_unify_commutes_up_to_canonical_form(a, b):
    ab, ba = unify(a, b), unify(b, a)
    if ab is None or ba is None:
        assert ab is None and ba is None
    else:
        assert ab.canonical_form() == ba.canonical_form()


@settings(max_examples=200)
@given(trees)
def test_unify_is_idempotent(a):
    result = unify(a, a)
    assert result is not None
    assert result.canonical_form() == a.canonical_form()


@settings(max_examples=200)
@given(trees)
def test_empty_tree_is_a_unit(a):
    assert unify(a, EMPTY_TREE).canonical_form() == a.canonical_form()
    assert unify(EMPTY_TREE, a).canonical_form() == a.canonical_form()
    # trees are immutable, so the unchanged operand itself comes back
    assert a.merge(EMPTY_TREE) is a
    assert unify(a, EMPTY_TREE) is a


@settings(max_examples=500)
@given(trees, trees)
def test_unify_agrees_with_the_reference_meet(a, b):
    expected = _meet(_plain(a), _plain(b))
    got = unify(a, b)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.canonical_form() == _canonical(expected)


def _dropped(node, rnd):
    """The node with some of its labels dropped, at every depth."""
    if not isinstance(node, FeatureTree):
        return node
    kept = [label for label in node.children if rnd.random() < 0.7]
    return FeatureTree({label: _dropped(node.children[label], rnd) for label in kept})


def _ordered(plain):
    """A plain node whose comparison also compares each label order."""
    if isinstance(plain, dict):
        return [(label, _ordered(child)) for label, child in plain.items()]
    return plain


@settings(max_examples=300)
@given(trees, trees, st.randoms(use_true_random=False))
def test_meet_keeps_an_operand_it_leaves_unchanged(a, b, rnd):
    assert meet(a, a) is a
    assert meet(a, EMPTY_TREE) is a
    assert meet(a, _dropped(a, rnd)) is a
    # any pair: `a`'s labels and values keep their order, `b`'s new
    # labels follow, as in the reference meet
    for x, y in ((a, b), (b, a)):
        expected = _meet(_plain(x), _plain(y))
        got = meet(x, y)
        if expected is None:
            assert got is BLOCKED
        else:
            assert _ordered(_plain(got)) == _ordered(expected)


@settings(max_examples=300)
@given(trees, trees)
def test_unification_subsumes_both_arguments(a, b):
    u = unify(a, b)
    if u is None:
        return
    got = _leaf_paths(u)
    for source in (a, b):
        for path, values in _leaf_paths(source).items():
            assert path in got
            assert got[path].texts() <= values.texts()


def _node_kinds(t: FeatureTree):
    kinds = {}
    for path, _ in t.leaves():
        kinds[path] = "leaf"
        for i in range(1, len(path)):
            kinds[path[:i]] = "node"
    return kinds


def _kind_compatible(*some_trees):
    seen = {}
    for t in some_trees:
        for path, kind in _node_kinds(t).items():
            if seen.setdefault(path, kind) != kind:
                return False
    return True


@settings(max_examples=200)
@given(trees, trees, trees)
def test_merge_is_associative_for_kind_compatible_trees(a, b, c):
    # associativity needs every shared path to stay one kind throughout
    assume(_kind_compatible(a, b, c))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.canonical_form() == right.canonical_form()


def test_merge_grouping_matters_across_kind_flips():
    # An overlay leaf erases the subtree it lands on, and a later
    # interior merge cannot resurrect what the leaf erased, so when a
    # path flips interior -> leaf -> interior the grouping decides how
    # much of the original subtree survives.  Merging is defined as a
    # left-to-right fold everywhere it is used.
    a = FeatureTree(
        {"d": FeatureTree({"a": leaf("1"), "b": leaf("1")}), "a": leaf("1")}
    )
    b = FeatureTree({"a": leaf("1"), "d": leaf("1")})
    c = FeatureTree({"a": leaf("1"), "d": FeatureTree({"a": leaf("1")})})
    assert a.merge(b).merge(c).canonical_form() == "a = 1\nd a = 1\n"
    assert a.merge(b.merge(c)).canonical_form() == "a = 1\nd a = 1\nd b = 1\n"


@settings(max_examples=200)
@given(trees, trees)
def test_merge_keeps_every_overlay_leaf(a, b):
    merged = a.merge(b)
    got = _leaf_paths(merged)
    for path, values in _leaf_paths(b).items():
        assert got.get(path) == values


# Leaves as `canonical_form` meets them: several bare values, or one
# value spelled either way, holding '"', a backslash or a space.
_spelled = st.one_of(
    _leaves,
    st.builds(
        lambda text, quoted: leaf(text, quoted=quoted),
        st.text(alphabet='ab "\\', max_size=3),
        st.booleans(),
    ),
)


def _subtrees(depth: int):
    """Trees of up to three children, empty ones included."""
    node = _spelled if depth <= 0 else st.one_of(_spelled, _subtrees(depth - 1))
    return st.dictionaries(_labels, node, max_size=3).map(FeatureTree)


@st.composite
def _sharing_trees(draw):
    """(tree, shared): `shared` sits under two labels in each of two
    parents of `tree`."""
    shared = draw(_subtrees(1))
    children = dict(draw(_subtrees(1)).children)
    for parent in draw(st.lists(_labels, min_size=2, max_size=2, unique=True)):
        held = dict(draw(_subtrees(1)).children)
        for label in draw(st.lists(_labels, min_size=2, max_size=2, unique=True)):
            held[label] = shared
        children[parent] = FeatureTree(held)
    return FeatureTree(children), shared


@settings(max_examples=300)
@given(_sharing_trees(), st.booleans())
def test_canonical_form_agrees_with_the_reference(drawn, shared_first):
    tree, shared = drawn
    expected, expected_shared = _canonical(_plain(tree)), _canonical(_plain(shared))
    for _ in range(2):  # the second round reads the kept texts
        if shared_first:
            assert shared.canonical_form() == expected_shared
        assert tree.canonical_form() == expected
        assert shared.canonical_form() == expected_shared


def test_a_nested_placeholder_is_named_by_its_full_path():
    inner = FeatureTree({"b": FeatureTree({"c": RuleCall("r")}), "a": leaf("1")})
    tree = FeatureTree({"a": inner, "z": FeatureTree({"y": leaf("2")})})
    for node, path in [(inner, "b c"), (tree, "a b c"), (inner, "b c")]:
        with pytest.raises(ValueError) as err:
            node.canonical_form()
        assert str(err.value) == "tree holds an unevaluated placeholder at '%s'" % path


def test_leaves_name_a_nested_placeholder_by_its_full_path():
    inner = FeatureTree({"b": FeatureTree({"c": RuleCall("r")})})
    tree = FeatureTree({"a": inner, "z": leaf("1")})
    with pytest.raises(ValueError) as err:
        list(tree.leaves())
    assert str(err.value) == "tree holds an unevaluated placeholder at 'a b c'"


def test_a_canonical_form_call_counts_once_however_deep_the_tree(monkeypatch):
    calls = []
    original = FeatureTree.canonical_form

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FeatureTree, "canonical_form", counted)
    tree = parse_tree("a b c = 1\na d = 2\ne = 3")
    assert tree.canonical_form() == "a b c = 1\na d = 2\ne = 3\n"
    assert calls == [tree]


@settings(max_examples=200)
@given(trees)
def test_canonical_form_round_trips(a):
    text = a.canonical_form()
    assert parse_tree(text).canonical_form() == text


def _respelled(node, rnd):
    """An equal node built anew: children and values in another order,
    and a one-value leaf spelled the other way (bare or quoted)."""
    if isinstance(node, FeatureTree):
        items = list(node.children.items())
        rnd.shuffle(items)
        return FeatureTree({label: _respelled(child, rnd) for label, child in items})
    values = list(node)
    rnd.shuffle(values)
    if len(values) == 1:
        (value,) = values
        values = [str(value) if isinstance(value, Quoted) else Quoted(value)]
    return ValueSet(values)


@settings(max_examples=300)
@given(_subtrees(2), _subtrees(2), st.randoms(use_true_random=False))
def test_equal_trees_hash_equal_and_are_one_dict_key(a, b, rnd):
    again = _respelled(a, rnd)
    assert again == a and hash(again) == hash(a)
    assert {a: "a"}[again] == "a" and len({a, again}) == 1
    # trees are equal exactly when their plain forms are, values as sets
    assert (a == b) == (_frozen(_plain(a)) == _frozen(_plain(b)))
    if a == b:
        assert hash(a) == hash(b)
    else:
        assert len({a: 1, b: 2}) == 2


def test_trees_that_print_alike_can_be_different_keys():
    # an empty subtree prints nothing, so these four print alike
    spelled = [
        EMPTY_TREE,
        FeatureTree({"a": EMPTY_TREE}),
        FeatureTree({"a": FeatureTree({"b": EMPTY_TREE})}),
        FeatureTree({"b": EMPTY_TREE}),
    ]
    assert {tree.canonical_form() for tree in spelled} == {""}
    assert len(set(spelled)) == 4
    # and two that print apart can be one key
    bare, quoted = FeatureTree({"a": leaf("x")}), FeatureTree({"a": leaf("x", quoted=True)})
    assert bare.canonical_form() != quoted.canonical_form()
    assert len({bare, quoted}) == 1


def test_a_pickled_key_is_found_by_an_equal_tree_under_another_hash_seed(tmp_path):
    # the key and its `agr` subtree keep their hashes here; a pickle
    # read under another PYTHONHASHSEED must not carry them over
    key = EMPTY_TREE.set(("agr", "pers"), leaf("1")).set(("lex",), leaf("pedir"))
    hash(key.children["agr"]), hash(key), key.canonical_form()
    path = tmp_path / "keyed.pickle"
    path.write_bytes(pickle.dumps({key: "found"}))
    assert pickle.loads(path.read_bytes()) == {key: "found"}
    src = os.path.dirname(os.path.dirname(lexiforge.__file__))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    script = (
        "import pickle, sys\n"
        "from lexiforge.feature_tree import EMPTY_TREE, leaf\n"
        "table = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "key = EMPTY_TREE.set(('agr', 'pers'), leaf('1')).set(('lex',), leaf('pedir'))\n"
        "print(table.get(key), table.get(key.set(('lex',), leaf('ir'))))\n"
        "print(next(iter(table)).canonical_form(), end='')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "found None\nagr pers = 1\nlex = pedir\n"
