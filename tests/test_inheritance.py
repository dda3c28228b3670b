import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import inheritance
from lexiforge.diagnostics import ERROR, Diagnostic
from lexiforge.feature_tree import FeatureTree, PathThroughLeaf, ValueSet, leaf
from lexiforge.inheritance import ResolveError, linearize, resolve, resolve_all
from lexiforge.source import (
    Entry,
    Equation,
    RuleCall,
    SelfRef,
    SourceBase,
    parse_source,
    parse_source_text,
)

from oracles import nearest_definer_tree, preorder_first_occurrence, random_hierarchy
from sources import parse_alo_rule


def parsed(text):
    result = parse_source_text(text)
    assert result.ok, result.diagnostics
    return result.base


# -- linearization -------------------------------------------------------------

def test_linearization_is_depth_first_left_to_right():
    base = parsed(
        "#CLASSES\n\nMV\nx = 1\n\nMV8c (MV)\ny = 2\n\nC3\nz = 3\n"
        "\n#LEXEMES\n\npedir (MV8c C3)\n"
    )
    order = linearize(base.lexemes["pedir"], base.classes)
    assert order == ("pedir", "MV8c", "MV", "C3")


def test_diamond_keeps_the_first_occurrence():
    base = parsed(
        "#CLASSES\n\nA\nx = 1\n\nB (A)\nx = 2\n\nC (A)\nx = 3\n"
        "\n#LEXEMES\n\nd (B C)\n"
    )
    order = linearize(base.lexemes["d"], base.classes)
    assert order == ("d", "B", "A", "C")


def test_earlier_parent_mention_wins():
    base = parsed(
        "#CLASSES\n\nA\nx = 1\n\nB (A)\nx = 2\n"
        "\n#LEXEMES\n\nd (A B)\n"
    )
    # A is already placed when B would revisit it
    assert linearize(base.lexemes["d"], base.classes) == ("d", "A", "B")


def test_cycle_is_reported_with_its_chain():
    base = parse_source_text(
        "#CLASSES\n\nA (B)\nx = 1\n\nB (A)\ny = 2\n\n#LEXEMES\n\nd (A)\n"
    ).base
    with pytest.raises(ResolveError, match="^inheritance cycle: ") as exc:
        linearize(base.lexemes["d"], base.classes)
    assert "d -> A -> B -> A" in str(exc.value)


def test_unknown_class_is_reported():
    base = parse_source_text("#LEXEMES\n\nd (Nope)\n").base
    with pytest.raises(ResolveError, match="^unknown class ") as exc:
        linearize(base.lexemes["d"], base.classes)
    assert "unknown class 'Nope'" in str(exc.value)


# -- resolution ------------------------------------------------------------------

def test_nearer_definition_overrides():
    base = parsed(
        "#CLASSES\n\nA\nx = 1\ny = 1\n\nB (A)\nx = 2\n"
        "\n#LEXEMES\n\nd (B)\ny = 3\n"
    )
    tree = resolve(base.lexemes["d"], base).tree
    assert tree.get(("x",)) == leaf("2")
    assert tree.get(("y",)) == leaf("3")


def test_leftmost_parent_wins_between_siblings():
    base = parsed(
        "#CLASSES\n\nL\nx = left\n\nR\nx = right\n\n#LEXEMES\n\nd (L R)\n"
    )
    assert resolve(base.lexemes["d"], base).tree.get(("x",)) == leaf("left")


def test_rule_call_applies_to_the_resolving_entry_name():
    base = parsed(
        "#CLASSES\n\nMV\nstem = $rv0\n\n#LEXEMES\n\namar (MV)\n\ntemer (MV)\n"
        "\n#ALO-RULES\n\nrv0\n{X = .+}\n$Xar -> $X\n$Xer -> $X\n"
    )
    assert resolve(base.lexemes["amar"], base).tree.get(("stem",)) == leaf("am")
    assert resolve(base.lexemes["temer"], base).tree.get(("stem",)) == leaf("tem")


def test_self_reference_resolves_to_the_entry_name():
    base = parsed(
        "#CLASSES\n\nMV\nlex = $$\n\n#LEXEMES\n\namar (MV)\n"
    )
    assert resolve(base.lexemes["amar"], base).tree.get(("lex",)) == leaf("amar")


def test_failed_rule_drops_the_leaf_and_prunes_empty_interiors():
    base = parsed(
        "#CLASSES\n\nC\nalo 1 stem = $rv8c\nf = 1\n\n#LEXEMES\n\namar (C)\n"
        "\n#ALO-RULES\n\nrv8c\n{X = .+}\n{C = [bcdfghjklmnpqrstvwxyz]}\n"
        "$Xe$Cir -> $Xi$C\n"
    )
    tree = resolve(base.lexemes["amar"], base).tree
    assert tree.canonical_form() == "f = 1\n"
    assert tree.get(("alo",)) is None


def test_unknown_rule_is_an_error():
    base = parsed("#LEXEMES\n\nd\nstem = $nope\n")
    with pytest.raises(ResolveError, match="^unknown allomorphy rule ") as exc:
        resolve(base.lexemes["d"], base)
    assert "unknown allomorphy rule 'nope'" in str(exc.value)


def test_pinned_lexeme_resolution(fixtures_dir):
    result = parse_source(str(fixtures_dir / "pedir_minimal.lex"))
    assert result.ok
    tree = resolve(result.base.lexemes["pedir"], result.base).tree
    assert tree.canonical_form() == (
        "alo 1 stem = ped\n"
        "alo 1 stt = 0 14 15 21 22 23 24 25 26 31 32 34 35 41 42 43 44 45 46"
        " 71 72 73 74 75 76 85 99\n"
        "alo 1 sut = reg\n"
        "alo 2 stem = pid\n"
        "alo 2 stt = 11 12 13 16 33 36 51 52 53 54 55 56 61 62 63 64 65 66"
        " 82 90\n"
        "alo 2 sut = reg\n"
        "concat = vl\n"
        "conj = 3\n"
    )


def test_resolve_all_isolates_failing_entries():
    base = parse_source_text(
        "#LEXEMES\n\ngood\nx = 1\n\nbad (Nope)\ny = 2\n"
    ).base
    resolved, diagnostics = resolve_all(base)
    assert [r.name for r in resolved["lexemes"]] == ["good"]
    assert len(diagnostics) == 1
    assert diagnostics[0].entry == "bad"
    assert "unknown class 'Nope'" in diagnostics[0].message


def test_resolve_all_lets_programming_errors_through(monkeypatch):
    # only resolution errors become diagnostics; a bug fails loudly
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(inheritance, "_finish", broken)
    with pytest.raises(TypeError):
        resolve_all(parsed("#LEXEMES\n\ngood\nx = 1\n"))


def test_resolve_all_covers_every_entry_section():
    base = parsed(
        "#MORPHEMES\n\naba\nx = 1\n\n#WORDS\n\nera\ny = 2\n"
        "\n#CLASSES\n\nC\nz = 3\n\n#LEXEMES\n\namar (C)\n"
    )
    resolved, diagnostics = resolve_all(base)
    assert diagnostics == []
    assert [r.name for r in resolved["morphemes"]] == ["aba"]
    assert [r.name for r in resolved["words"]] == ["era"]
    assert [r.name for r in resolved["lexemes"]] == ["amar"]
    # classes never come out as resolved entries
    assert set(resolved) == {"morphemes", "words", "lexemes"}


# -- oracle comparison --------------------------------------------------------------

def test_resolution_matches_the_nearest_definer():
    rng = random.Random(816)
    for _ in range(250):
        entry, classes = random_hierarchy(rng)
        assert tuple(preorder_first_occurrence(entry, classes)) == linearize(
            entry, classes
        )
        expected = {
            path: ValueSet(values)
            for path, values in nearest_definer_tree(entry, classes).items()
        }
        got = dict(resolve(entry, SourceBase(classes=classes)).tree.leaves())
        assert got == expected


# -- resolve_all against resolve, entry by entry --------------------------------------

SECTIONS = ("morphemes", "words", "lexemes")


def resolve_each(base):
    """What `resolve_all` returns, computed with a plain `resolve` call
    per entry: no class body merged ahead of time, nothing shared."""
    diagnostics = []
    for name, cls in base.classes.items():
        try:
            cls.tree()
        except PathThroughLeaf as exc:
            diagnostics.append(
                Diagnostic(ERROR, str(exc), file=cls.file, line=cls.line, entry=name)
            )
    resolved = {}
    for section in SECTIONS:
        resolved[section] = []
        for entry in base.entries_in(section).values():
            try:
                resolved[section].append(resolve(entry, base))
            except (ResolveError, PathThroughLeaf) as exc:
                diagnostics.append(
                    Diagnostic(
                        ERROR, str(exc), file=entry.file, line=entry.line, entry=entry.name
                    )
                )
    return resolved, diagnostics


def exact(tree):
    """A tree as nested lists, in child order, with each leaf as rendered."""
    return [
        (label, exact(node) if isinstance(node, FeatureTree) else node.rendered())
        for label, node in tree.children.items()
    ]


def assert_resolves_like_each_entry(base):
    resolved, diagnostics = resolve_all(base)
    expected, expected_diagnostics = resolve_each(base)
    assert diagnostics == expected_diagnostics
    assert {
        section: [(r.name, exact(r.tree)) for r in items]
        for section, items in resolved.items()
    } == {
        section: [(r.name, exact(r.tree)) for r in items]
        for section, items in expected.items()
    }


@pytest.mark.parametrize("name", ["classes", "morphemes", "pedir_minimal", "spanish"])
def test_resolve_all_matches_resolve_on_the_fixtures(fixtures_dir, name):
    result = parse_source(str(fixtures_dir / (name + ".lex")))
    assert result.ok
    assert_resolves_like_each_entry(result.base)


CLASS_NAMES = ("A", "B", "C", "D")
PARENTS = st.sampled_from(CLASS_NAMES + ("Nope",))  # Nope is no class
EQUATIONS = [
    Equation(("x",), ("1",)),
    Equation(("x",), ("2", "3")),
    Equation(("y",), ("4",)),
    Equation(("y", "z"), ("5",)),  # below a leaf y: PathThroughLeaf
    Equation(("y", "w"), (RuleCall("rv"),)),
    Equation(("lex",), (SelfRef(),)),
]
BODIES = st.lists(st.sampled_from(EQUATIONS), max_size=3).map(tuple)
RV = parse_alo_rule("rv\n{X = .+}\n$Xar -> $X\n")


@st.composite
def hierarchies(draw):
    """Classes that may form cycles, name unknown classes or hold a
    body that runs a path through a leaf, and entries that share a few
    parent lists (sometimes reordered), some named like classes."""
    classes = {
        name: Entry(
            name,
            tuple(draw(st.lists(PARENTS, max_size=2, unique=True))),
            draw(BODIES),
            "classes",
        )
        for name in CLASS_NAMES
    }
    shared = draw(st.lists(st.lists(PARENTS, max_size=3, unique=True), min_size=1, max_size=3))
    base = SourceBase(classes=classes, alo_rules={"rv": RV})
    names = st.sampled_from(CLASS_NAMES + ("amar", "temer", "x", "y"))
    for _ in range(draw(st.integers(1, 10))):
        section = draw(st.sampled_from(SECTIONS))
        parents = tuple(draw(st.permutations(draw(st.sampled_from(shared)))))
        name = draw(names)
        base.entries_in(section)[name] = Entry(name, parents, draw(BODIES), section)
    return base


@settings(max_examples=300, deadline=None)
@given(hierarchies())
def test_resolve_all_matches_resolve_on_drawn_hierarchies(base):
    assert_resolves_like_each_entry(base)


def test_an_entry_named_like_a_shared_ancestor_reports_its_own_cycle():
    base = parse_source_text(
        "#CLASSES\n\nA (B)\nx = 1\n\nB\ny = 2\n"
        "\n#LEXEMES\n\nfirst (A)\n\nB (A)\n\nlast (A)\n"
    ).base
    resolved, diagnostics = resolve_all(base)
    assert [r.name for r in resolved["lexemes"]] == ["first", "last"]
    assert [(d.entry, d.message) for d in diagnostics] == [
        ("B", "inheritance cycle: B -> A -> B")
    ]
    assert_resolves_like_each_entry(base)


def test_heirs_of_one_parent_list_keep_their_own_placeholders():
    base = parsed(
        "#CLASSES\n\nMV\nstem = $rv\nlex = $$\n\n#LEXEMES\n\namar (MV)\n\ncantar (MV)\n"
        "\n#ALO-RULES\n\nrv\n{X = .+}\n$Xar -> $X\n"
    )
    resolved, diagnostics = resolve_all(base)
    assert diagnostics == []
    assert [r.tree.canonical_form() for r in resolved["lexemes"]] == [
        "lex = amar\nstem = am\n",
        "lex = cantar\nstem = cant\n",
    ]


def test_resolve_all_makes_no_cyclic_garbage(spanish_base):
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        resolve_all(spanish_base)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
