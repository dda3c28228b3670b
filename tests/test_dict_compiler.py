import io
import random

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import dict_compiler, inheritance
from lexiforge.dict_compiler import DictRuleError, apply_dict_rule, compile_base
from lexiforge.diagnostics import ERROR, WARNING, Diagnostic, has_errors
from lexiforge.feature_tree import FeatureTree, PathThroughLeaf, ValueSet, leaf
from lexiforge.inheritance import ResolveError, resolve
from lexiforge.object_dict import ObjectDictionary, load, save
from lexiforge.source import (
    CLOSED,
    OPEN,
    STRUCTURED,
    AloRule,
    DictEquation,
    DictRule,
    DictRuleSet,
    Entry,
    Equation,
    Production,
    RuleCall,
    SelfRef,
    SourceBase,
    TypeDecl,
    parse_source,
    parse_source_text,
)
from lexiforge.type_checker import check_tree

from oracles import RuleFailure, _plain, random_hierarchy, run_dict_rule
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
    entry = apply_dict_rule(rule, "pedir", parse_tree(PEDIR_RESOLVED))
    assert entry is not None
    assert entry.surface == "ped"
    assert entry.tree.canonical_form() == (
        "concat = vl\n"
        "conj = 3\n"
        "lex = pedir\n"
        "stt = 0 14 15\n"
        "sut = reg\n"
    )
    assert entry.source_name == "pedir"


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


# -- apply_dict_rule against a plain-dict oracle ----------------------------------------

RULE_LABELS = ("a", "b", "c")
RULE_PATHS = st.lists(st.sampled_from(RULE_LABELS + ("z",)), max_size=3).map(tuple)
RULE_LEAVES = st.one_of(
    st.lists(st.sampled_from(("1", "2", "p")), min_size=1, max_size=2).map(
        lambda texts: leaf(*texts)
    ),
    st.sampled_from(("", " p", "a b")).map(lambda text: leaf(text, quoted=True)),
)
RULE_TREES = st.dictionaries(
    st.sampled_from(RULE_LABELS),
    st.recursive(
        RULE_LEAVES,
        lambda nodes: st.dictionaries(st.sampled_from(RULE_LABELS), nodes, max_size=3).map(
            FeatureTree
        ),
        max_leaves=6,
    ),
    max_size=3,
).map(FeatureTree)
RULE_EQUATIONS = st.builds(
    DictEquation,
    # `$$`, the whole entry, or a path that may run below a leaf
    target=st.sampled_from((None, (), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "b", "c"))),
    # `$$`, or a path that may be absent (`z` never is present)
    source=st.one_of(st.none(), RULE_PATHS),
    deletions=st.lists(RULE_PATHS.filter(bool), max_size=2).map(tuple),
)


def compiler_outcome(rule, name, tree):
    """No entry (None), an entry's surface and canonical form, or an
    error's type and message."""
    try:
        entry = apply_dict_rule(rule, name, tree)
    except (DictRuleError, PathThroughLeaf) as exc:
        return "error", type(exc).__name__, str(exc)
    return None if entry is None else (entry.surface, entry.tree.canonical_form())


def oracle_outcome(rule, name, tree):
    try:
        return run_dict_rule(rule, name, _plain(tree))
    except RuleFailure as exc:
        return "error", exc.kind, exc.message


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from(("d", "ped", "", " d", "a b")),
    tree=RULE_TREES,
    equations=st.lists(RULE_EQUATIONS, min_size=1, max_size=8),
)
def test_apply_dict_rule_matches_the_plain_dict_oracle(name, tree, equations):
    """Absent sources, deletions on a copy, later writes overriding
    earlier ones, merged subtrees and the first failing write, whether
    or not the rule names an entry."""
    rule = DictRule(tuple(equations))
    assert compiler_outcome(rule, name, tree) == oracle_outcome(rule, name, tree)


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


NAME_READS = (
    "#CLASSES\n\nN\nlex = $$\nalt = $$\n\n#LEXEMES\n\n%s (N)\n"
    "\n#DATA-DICT\n\nlex = ar bar\nalt =\nform =\n"
    "\n#DICT-RULES\n\nLEXEMES\n\n$$ = $$\n@ = @\n@ form = $$\n"
)


def test_every_read_of_the_entry_name_is_one_leaf():
    result = compile_base(parse_source_text(NAME_READS % "ar").base)
    assert result.ok and result.diagnostics == []
    (entry,) = result.dictionary.entries
    lex, alt, form = (entry.tree.get((label,)) for label in ("lex", "alt", "form"))
    assert lex == leaf("ar")
    assert alt is lex and form is lex


def test_a_name_outside_a_closed_set_is_still_reported():
    result = compile_base(parse_source_text(NAME_READS % "car").base)
    assert not result.ok
    assert [d.render() for d in result.diagnostics] == [
        "error car lex: value car not in closed set {ar,bar}"
    ]


def test_missing_section_rules_warn_once():
    text = BASE.replace("MORPHEMES\n\n@ = @\n$$ = $$\n", "")
    base = parse_source_text(text).base
    result = compile_base(base)
    assert result.ok
    messages = [d.message for d in result.diagnostics]
    assert messages == ["no dictionary rules for #MORPHEMES; 1 entries not emitted"]
    assert all(e.source_name not in base.morphemes for e in result.dictionary.entries)


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


# -- compile_base against a per-entry reference --------------------------------------

SECTIONS = ("morphemes", "words", "lexemes")


def compile_each(base):
    """What `compile_base` gives, one entry at a time: `resolve`,
    `check_tree` and `apply_dict_rule` for every entry, nothing shared.
    The saved text (None when there is an error) and every diagnostic,
    rendered, in order."""
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
                resolved[section].append((entry.name, resolve(entry, base).tree))
            except (ResolveError, PathThroughLeaf) as exc:
                diagnostics.append(
                    Diagnostic(
                        ERROR, str(exc), file=entry.file, line=entry.line, entry=entry.name
                    )
                )
    if "data-dict" in base.sections_seen:
        for section in SECTIONS:
            for name, tree in resolved[section]:
                diagnostics += check_tree(tree, base.data_dict, entry=name)
        for cls in base.classes.values():
            try:
                body = cls.tree()
            except PathThroughLeaf:
                continue
            diagnostics += check_tree(body, base.data_dict, entry=cls.name)
    entries = []
    for section in SECTIONS:
        rules = base.dict_rules.for_section(section)
        if resolved[section] and not rules:
            diagnostics.append(
                Diagnostic(
                    WARNING,
                    "no dictionary rules for #%s; %d entries not emitted"
                    % (section.upper(), len(resolved[section])),
                )
            )
        for name, tree in resolved[section]:
            emitted = failed = False
            for index, rule in enumerate(rules):
                try:
                    entry = apply_dict_rule(rule, name, tree)
                except (DictRuleError, PathThroughLeaf) as exc:
                    failed = True
                    diagnostics.append(
                        Diagnostic(
                            ERROR,
                            "rule %d: %s" % (index + 1, exc),
                            file=rule.file,
                            line=rule.line,
                            entry=name,
                        )
                    )
                    continue
                if entry is not None:
                    entries.append(entry)
                    emitted = True
            if section == "lexemes" and rules and not emitted and not failed:
                lexeme = base.lexemes[name]
                diagnostics.append(
                    Diagnostic(
                        WARNING,
                        "lemma produced no object entries",
                        file=lexeme.file,
                        line=lexeme.line,
                        entry=name,
                    )
                )
    text = None
    if not has_errors(diagnostics):
        dictionary = ObjectDictionary.build(entries)
        diagnostics += dictionary.warnings
        text = saved(dictionary)
    return text, [d.render() for d in diagnostics]


def saved(dictionary):
    out = io.StringIO()
    save(dictionary, out)
    return out.getvalue()


def compiled(base):
    result = compile_base(base)
    text = None if result.dictionary is None else saved(result.dictionary)
    return text, [d.render() for d in result.diagnostics]


# `rv` matches names in -ar (`ar` itself comes out empty), and `ri`
# names in -ir with a leading space (no surface can start with one).
ALO_RULES = {
    "rv": AloRule("rv", {"X": ".*"}, (Production((("var", "X"), ("lit", "ar")), (("var", "X"),)),)),
    "ri": AloRule(
        "ri",
        {"X": ".+"},
        (Production((("var", "X"), ("lit", "ir")), (("lit", " "), ("var", "X"))),),
    ),
}
HOLES = [
    Equation(("b", "x"), (RuleCall("rv"),)),
    Equation(("b", "y"), (RuleCall("ri"),)),
    Equation(("a",), (RuleCall("rv"),)),
    Equation(("d",), (SelfRef(),)),
    Equation(("lex",), (SelfRef(),)),
]
CLASS_FAULTS = [
    Equation(("e", "w"), (RuleCall("nope"),)),
    Equation(("a", "z"), ("1",)),  # a path through the leaf at `a`
    Equation(("b",), ("p",)),  # a leaf above the holes at `b x`, `b y`
]
NAMES = ("amar", "pedir", "temer", "hablar")
FAULTY_NAMES = NAMES + ("ar", "lex", "C0", "C1")  # `lex` is no closed `lex` value
DICT_EQUATIONS = [
    DictEquation(None, ("b", "x")),  # $$ = @ b x
    DictEquation(None, ("a",)),
    DictEquation(None, ("d",)),
    DictEquation(None, None),  # $$ = $$
    DictEquation((), ()),  # @ = @
    DictEquation((), ("b",), (("x",),)),  # @ = @ b (- x)
    DictEquation(("lex",), None),  # @ lex = $$
    DictEquation(("out",), ("b",)),
    DictEquation(("o", "p"), ("b", "x")),
    DictEquation(("o", "q"), ("d",)),
]
RULE_FAULTS = [
    DictEquation(None, ("b", "y")),  # a surface that cannot be stored
    DictEquation(None, ("b",)),  # not atomic where `b` is a tree
    DictEquation((), ("a",)),  # a leaf for the whole entry
    DictEquation(("o",), ("d",)),  # below it, `@ o p` runs through a leaf
]
DECLS = [
    TypeDecl("x", CLOSED, values=leaf("1", "2", "3", "p", "q", "am", "habl")),
    TypeDecl("lex", CLOSED, values=leaf("amar", "pedir", "temer", "hablar")),
    TypeDecl("a", CLOSED, values=leaf("1", "2", "3", "p", "am", "habl")),
    TypeDecl("b", STRUCTURED, alternatives=(("x", "y"),)),
    TypeDecl("d", OPEN),
    TypeDecl("y", OPEN),
]


def _with_line(item, line):
    item.file, item.line = "base.lex", line
    return item


def _rarely(draw, faulty, pool):
    """Now and then an item of `pool` when faults come in."""
    return (draw(st.sampled_from(pool)),) if faulty and draw(st.integers(0, 3)) == 0 else ()


@st.composite
def shaped_bases(draw):
    """A base over `random_hierarchy`'s classes with placeholders added;
    lexemes and morphemes that share a few parent lists, some with
    bodies of their own; drawn dictionary rules; and, often,
    declarations at the holes' labels.  In half of the bases faults
    come in too: in classes, in rules, and in names (one that comes out
    empty, one outside a closed set, ones named like classes)."""
    faulty = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entry, classes = random_hierarchy(rng, max_classes=4, max_parents=2)
    line = iter(range(1, 1000))
    base_classes = {}
    for name, cls in classes.items():
        extra = tuple(draw(st.lists(st.sampled_from(HOLES), max_size=3)))
        body = cls.equations + extra + _rarely(draw, faulty, CLASS_FAULTS)
        base_classes[name] = _with_line(Entry(name, cls.parents, body, "classes"), next(line))
    parent_lists = [entry.parents + _rarely(draw, faulty, ["Nope"])] + [
        tuple(draw(st.permutations(sorted(classes))))[: draw(st.integers(0, 2))]
        for _ in range(draw(st.integers(0, 2)))
    ]
    base = SourceBase(classes=base_classes, alo_rules=ALO_RULES)
    for _ in range(draw(st.integers(1, 8))):
        section = draw(st.sampled_from(("lexemes", "lexemes", "morphemes")))
        name = draw(st.sampled_from(FAULTY_NAMES if faulty else NAMES))
        body = ()
        if draw(st.booleans()):
            body = draw(st.sampled_from((entry.equations, ()))) + tuple(
                draw(st.lists(st.sampled_from(HOLES), max_size=2))
            )
        base.entries_in(section)[name] = _with_line(
            Entry(name, draw(st.sampled_from(parent_lists)), body, section), next(line)
        )

    @st.composite
    def rule(draw):
        equations = [draw(st.sampled_from(DICT_EQUATIONS[:4]))]  # one that names the entry
        equations += draw(st.lists(st.sampled_from(DICT_EQUATIONS), max_size=3))
        equations += _rarely(draw, faulty, RULE_FAULTS)
        return _with_line(DictRule(tuple(draw(st.permutations(equations)))), next(line))

    rules = st.lists(rule(), max_size=3).map(tuple)
    base.dict_rules = DictRuleSet(lexemes=draw(rules), morphemes=draw(rules))
    if draw(st.booleans()):
        decls = draw(st.lists(st.sampled_from(DECLS), unique_by=lambda d: d.label))
        base.data_dict = {decl.label: decl for decl in decls}
        base.sections_seen = frozenset({"data-dict"})
    return base


@settings(max_examples=400, deadline=None)
@given(shaped_bases())
def test_compile_base_matches_the_per_entry_reference(base):
    assert compiled(base) == compile_each(base)


@pytest.mark.parametrize("name", ["classes", "morphemes", "pedir_minimal", "spanish"])
def test_compile_base_matches_the_per_entry_reference_on_the_fixtures(fixtures_dir, name):
    base = parse_source(str(fixtures_dir / (name + ".lex"))).base
    assert compiled(base) == compile_each(base)
