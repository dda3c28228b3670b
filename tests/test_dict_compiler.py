import io

import gc

import pytest

from lexiforge import dict_compiler, inheritance
from lexiforge.dict_compiler import DictRuleError, apply_dict_rule, compile_base
from lexiforge.diagnostics import ERROR
from lexiforge.feature_tree import FeatureTree, PathThroughLeaf, ValueSet, leaf
from lexiforge.object_dict import load, save
from lexiforge.source import Entry, parse_source_text

from sources import parse_dict_rules, parse_tree


PEDIR_RESOLVED = """\
alo 1 stem = ped
alo 1 stt = 0 14 15
alo 1 sut = reg
alo 2 stem = pid
alo 2 stt = 11 12 13
alo 2 sut = reg
concat = vl
conj = 3
"""

LEXEME_RULES = """\
LEXEMES

$$ = @ alo 1 stem
@ = @ alo 1 (- stem)
@ = @ (- alo - aux)
@ lex = $$

$$ = @ alo 2 stem
@ = @ alo 2 (- stem)
@ = @ (- alo - aux)
@ lex = $$
"""


def lexeme_rules():
    return parse_dict_rules(LEXEME_RULES).for_section("lexemes")


# -- one rule, one entry --------------------------------------------------------

def test_allomorph_slot_expands_to_an_object_entry():
    rule = lexeme_rules()[0]
    entry = apply_dict_rule(rule, "pedir", parse_tree(PEDIR_RESOLVED), "lexemes", 0)
    assert entry is not None
    assert entry.surface == "ped"
    assert entry.tree.canonical_form() == (
        "concat = vl\n"
        "conj = 3\n"
        "lex = pedir\n"
        "stt = 0 14 15\n"
        "sut = reg\n"
    )
    assert (entry.section, entry.source_name, entry.rule_index) == ("lexemes", "pedir", 0)


def test_second_slot_rule_picks_the_other_allomorph():
    rule = lexeme_rules()[1]
    entry = apply_dict_rule(rule, "pedir", parse_tree(PEDIR_RESOLVED))
    assert entry.surface == "pid"
    assert entry.tree.get(("stt",)) == leaf("11", "12", "13")


def test_rule_for_an_absent_slot_does_not_fire():
    tree = parse_tree(PEDIR_RESOLVED).delete(("alo", "2"))
    assert apply_dict_rule(lexeme_rules()[1], "pedir", tree) is None


def test_the_source_tree_is_never_modified():
    tree = parse_tree(PEDIR_RESOLVED)
    before = tree.canonical_form()
    apply_dict_rule(lexeme_rules()[0], "pedir", tree)
    assert tree.canonical_form() == before


def test_identity_rule_copies_everything():
    (rule,) = parse_dict_rules("MORPHEMES\n\n@ = @\n$$ = $$\n").for_section(
        "morphemes"
    )
    tree = parse_tree("stt = 24\nconcat = vm")
    entry = apply_dict_rule(rule, "'abamos", tree)
    assert entry.surface == "'abamos"
    assert entry.tree.canonical_form() == tree.canonical_form()


def test_later_assignments_override_earlier_ones():
    rules = parse_dict_rules(
        "LEXEMES\n\n$$ = $$\n@ x = @ a\n@ x = @ b\n"
    ).for_section("lexemes")
    tree = parse_tree("a = 1\nb = 2")
    entry = apply_dict_rule(rules[0], "d", tree)
    assert entry.tree.get(("x",)) == leaf("2")


def test_interior_assignments_to_one_path_merge():
    rules = parse_dict_rules(
        "LEXEMES\n\n$$ = $$\n@ x = @ a\n@ x = @ b\n"
    ).for_section("lexemes")
    tree = parse_tree("a p = 1\nb q = 2")
    entry = apply_dict_rule(rules[0], "d", tree)
    assert entry.tree.get(("x", "p")) == leaf("1")
    assert entry.tree.get(("x", "q")) == leaf("2")


def test_deletions_prune_the_copy():
    rules = parse_dict_rules(
        "LEXEMES\n\n$$ = $$\n@ = @ (- alo - conj)\n"
    ).for_section("lexemes")
    entry = apply_dict_rule(rules[0], "pedir", parse_tree(PEDIR_RESOLVED))
    assert entry.tree.get(("conj",)) is None
    # delete keeps the emptied parent: alo's children are gone but the
    # interior survives the copy
    assert entry.tree.get(("alo", "1")) is None or entry.tree.get(("alo", "1")).is_empty


def test_a_deletion_below_a_leaf_leaves_the_copy_as_it_was():
    rules = parse_dict_rules("LEXEMES\n\n$$ = $$\n@ = @ (- x y)\n").for_section("lexemes")
    entry = apply_dict_rule(rules[0], "d", parse_tree("x = 1"))
    assert entry.tree.canonical_form() == "x = 1\n"


NOT_ATOMIC = r"^'\$\$' must come out as a single atomic value$"


def test_name_must_be_one_atomic_value():
    rules = parse_dict_rules("LEXEMES\n\n$$ = @ stt\n@ = @\n").for_section("lexemes")
    with pytest.raises(DictRuleError, match=NOT_ATOMIC):
        apply_dict_rule(rules[0], "pedir", parse_tree("stt = 1 2"))
    rules = parse_dict_rules("LEXEMES\n\n$$ = @ agr\n@ = @\n").for_section("lexemes")
    with pytest.raises(DictRuleError, match=NOT_ATOMIC):
        apply_dict_rule(rules[0], "pedir", parse_tree("agr pers = 1"))


def test_whole_entry_assignment_needs_a_tree():
    rules = parse_dict_rules("LEXEMES\n\n$$ = $$\n@ = @ stt\n").for_section("lexemes")
    with pytest.raises(DictRuleError) as exc:
        apply_dict_rule(rules[0], "pedir", parse_tree("stt = 1"))
    assert "cannot assign an atomic value to the whole entry" in str(exc.value)


def test_empty_surface_is_rejected():
    rules = parse_dict_rules("LEXEMES\n\n$$ = @ stem\n@ = @\n").for_section("lexemes")
    with pytest.raises(DictRuleError) as exc:
        apply_dict_rule(rules[0], "pedir", parse_tree('stem = ""'))
    assert "came out empty" in str(exc.value)


def test_compile_reports_an_entry_name_that_came_out_empty():
    text = '#LEXEMES\n\nd\nx = ""\n\n#DICT-RULES\n\nLEXEMES\n\n$$ = @ x\n@ lex = $$\n'
    result = compile_base(parse_source_text(text, name="base.lex").base)
    assert not result.ok
    assert [(d.severity, d.message, d.file, d.line, d.entry) for d in result.diagnostics] == [
        (ERROR, "rule 1: the entry name came out empty", "base.lex", 10, "d")
    ]


# -- rules that name no entry ------------------------------------------------------

def rule(text):
    (only,) = parse_dict_rules("LEXEMES\n\n" + text).for_section("lexemes")
    return only


def count_constructions(monkeypatch):
    """Count FeatureTree and ValueSet constructions from here on."""
    counts = {"FeatureTree": 0, "ValueSet": 0}
    for cls in (FeatureTree, ValueSet):
        original = cls.__init__

        def counted(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_a_rule_whose_name_source_is_absent_builds_nothing(monkeypatch):
    tree = parse_tree(PEDIR_RESOLVED).delete(("alo", "2"))
    counts = count_constructions(monkeypatch)
    assert apply_dict_rule(lexeme_rules()[1], "pedir", tree) is None
    assert counts == {"FeatureTree": 0, "ValueSet": 0}
    # the counter does see what a firing rule builds
    assert apply_dict_rule(lexeme_rules()[0], "pedir", tree) is not None
    assert counts["FeatureTree"] > 0 and counts["ValueSet"] == 1


def test_an_unnamed_rule_still_refuses_a_leaf_for_the_whole_entry():
    with pytest.raises(DictRuleError) as exc:
        apply_dict_rule(rule("$$ = @ absent\n@ = @ p\n"), "d", parse_tree("p = 1"))
    assert "cannot assign an atomic value to the whole entry" in str(exc.value)


def test_an_unnamed_rule_still_reports_a_path_below_a_leaf():
    tree = parse_tree("x = 1\ny = 2")
    with pytest.raises(PathThroughLeaf) as exc:
        apply_dict_rule(rule("$$ = @ absent\n@ a = @ x\n@ a b = @ y\n"), "d", tree)
    assert (exc.value.path, exc.value.depth) == (("a", "b"), 1)


def test_an_unnamed_rule_whose_writes_succeed_gives_no_entry():
    tree = parse_tree("y = 2")
    assert apply_dict_rule(rule("$$ = @ absent\n@ a b = @ y\n"), "d", tree) is None


@pytest.mark.parametrize(
    "writes, error",
    [
        ("@ a = @ x\n@ a b = @ y\n@ = @ x\n", PathThroughLeaf),
        ("@ = @ x\n@ a = @ x\n@ a b = @ y\n", DictRuleError),
    ],
)
def test_the_first_failing_write_in_equation_order_is_reported(writes, error):
    tree = parse_tree("x = 1\ny = 2")
    for name in ("$$ = @ absent\n", "$$ = $$\n"):
        with pytest.raises(error):
            apply_dict_rule(rule(name + writes), "d", tree)


def test_deletions_still_apply_to_the_name_and_to_writes():
    tree = parse_tree("x y = 1\nx z = 2\nn = d")
    with pytest.raises(DictRuleError, match=NOT_ATOMIC):
        apply_dict_rule(rule("$$ = @ x (- y)\n@ = @\n"), "d", tree)
    entry = apply_dict_rule(rule("$$ = @ n\n@ = @ x (- y)\n@ w = @ x (- z)\n"), "d", tree)
    assert entry.tree.canonical_form() == "w y = 1\nz = 2\n"


def test_compile_reports_a_failing_write_of_a_rule_that_names_nothing():
    text = BASE + "\n$$ = @ alo 9 stem\n@ = @ alo 1 stem\n"
    result = compile_base(parse_source_text(text, name="base.lex").base)
    assert not result.ok
    errors = [d for d in result.diagnostics if d.severity == ERROR]
    assert [(d.message, d.file, d.entry) for d in errors] == [
        ("rule 3: cannot assign an atomic value to the whole entry", "base.lex", name)
        for name in ("pedir", "amar")
    ]
    assert len({d.line for d in errors}) == 1


# -- whole-base compilation --------------------------------------------------------

BASE = """\
#MORPHEMES

aba
stt = 24

#CLASSES

MV
alo 1 stem = $rv0
alo 2 stem = $rv8c

#LEXEMES

pedir (MV)

amar (MV)

#ALO-RULES

rv0
{X = .+}
$Xar -> $X
$Xir -> $X

rv8c
{X = .+}
{C = [bcdfghjklmnpqrstvwxyz]}
$Xe$Cir -> $Xi$C

#DICT-RULES

MORPHEMES

@ = @
$$ = $$

LEXEMES

$$ = @ alo 1 stem
@ = @ alo 1 (- stem)
@ = @ (- alo)
@ lex = $$

$$ = @ alo 2 stem
@ = @ alo 2 (- stem)
@ = @ (- alo)
@ lex = $$
"""


def test_compile_expands_every_slot_that_fires():
    result = compile_base(parse_source_text(BASE).base)
    assert result.ok
    surfaces = sorted(e.surface for e in result.dictionary.entries)
    # amar has no rv8c allomorph, so slot 2 stays quiet for it
    assert surfaces == ["aba", "am", "ped", "pid"]
    assert result.diagnostics == []


def test_missing_section_rules_warn_once():
    text = BASE.replace("MORPHEMES\n\n@ = @\n$$ = $$\n", "")
    result = compile_base(parse_source_text(text).base)
    assert result.ok
    messages = [d.message for d in result.diagnostics]
    assert messages == ["no dictionary rules for #MORPHEMES; 1 entries not emitted"]
    assert all(e.section != "morphemes" for e in result.dictionary.entries)


def test_entries_without_a_dict_rules_section_are_warned_about():
    result = compile_base(parse_source_text("#MORPHEMES\n\nped\nstt = 11\n").base)
    assert result.ok
    assert [d.message for d in result.diagnostics] == [
        "no dictionary rules for #MORPHEMES; 1 entries not emitted"
    ]
    assert result.dictionary.entries == ()


def test_lemma_with_no_output_warns():
    # 'sol' matches neither truncation nor alternation: no slots at all
    text = BASE.replace("amar (MV)", "amar (MV)\n\nsol (MV)")
    parsed = parse_source_text(text, name="base.lex")
    assert parsed.ok
    result = compile_base(parsed.base)
    assert result.ok
    warnings = [d for d in result.diagnostics if d.message == "lemma produced no object entries"]
    assert [d.entry for d in warnings] == ["sol"]
    # the warning sits at the lexeme's own line
    (line,) = [n for n, text in enumerate(text.splitlines(), 1) if text == "sol (MV)"]
    assert (warnings[0].file, warnings[0].line) == ("base.lex", line)
    assert warnings[0].render() == (
        "base.lex:%d: warning sol: lemma produced no object entries" % line
    )


def test_rule_errors_abort_the_dictionary():
    text = BASE.replace("$$ = @ alo 1 stem", "$$ = @ alo 1")
    result = compile_base(parse_source_text(text).base)
    assert not result.ok
    assert result.dictionary is None
    messages = [d.message for d in result.diagnostics]
    assert "rule 1: '$$' must come out as a single atomic value" in messages


def test_programming_errors_escape_the_rule_loop(monkeypatch):
    # only lexicographer errors become diagnostics; a bug fails loudly
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(dict_compiler, "apply_dict_rule", broken)
    with pytest.raises(TypeError):
        compile_base(parse_source_text(BASE).base)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("fails", [False, True], ids=["compiles", "raises"])
def test_compile_base_leaves_the_cyclic_collector_as_it_found_it(
    monkeypatch, fails, enabled
):
    during = []
    check = dict_compiler.check_base

    def recorded(*args):
        during.append(gc.isenabled())
        if fails:
            raise TypeError("bug")
        return check(*args)

    monkeypatch.setattr(dict_compiler, "check_base", recorded)
    base = parse_source_text(BASE).base
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(TypeError):
                compile_base(base)
        else:
            assert compile_base(base).ok
        assert during == [False]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "owner,name",
    [(inheritance, "_evaluate"), (Entry, "tree"), (dict_compiler, "apply_dict_rule")],
    ids=["evaluate", "class-body", "dict-rule"],
)
def test_a_value_error_is_a_bug_not_a_diagnostic(monkeypatch, owner, name):
    # parsed input cannot raise ValueError in resolution or rule application
    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(ValueError):
        compile_base(parse_source_text(BASE).base)


def test_compile_reports_type_errors():
    text = BASE + "\n#DATA-DICT\n\nstt = 11 12\n"
    result = compile_base(parse_source_text(text).base)
    assert not result.ok
    assert any("not in closed set" in d.message for d in result.diagnostics)


def test_duplicate_entries_collapse_with_a_warning():
    # two lexemes resolving to the same surface and tree
    text = """\
#CLASSES

C
alo 1 stem = fixed
alo 1 stt = 1

#LEXEMES

first (C)

second (C)

#DICT-RULES

LEXEMES

$$ = @ alo 1 stem
@ = @ alo 1 (- stem)
@ = @ (- alo)
"""
    result = compile_base(parse_source_text(text).base)
    assert result.ok
    assert len(result.dictionary.entries) == 1
    warnings = [d for d in result.diagnostics if "collapsed" in d.message]
    assert len(warnings) == 1
    assert "duplicate object entry 'fixed'" in warnings[0].message


def test_custom_index_features_flow_through():
    # the .dic does not record index features; the query names them
    text = BASE.replace("@ lex = $$", "@ lemma = $$")
    result = compile_base(parse_source_text(text).base)
    assert result.ok
    out = io.StringIO()
    save(result.dictionary, out)
    dictionary = load(io.StringIO(out.getvalue()))
    assert dictionary.lookup_by_lemma("pedir", "lemma")
