import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge.feature_tree import Quoted, ValueSet, leaf
from lexiforge.source import (
    _logical_lines,
    Entry,
    RuleCall,
    SelfRef,
    SourceSyntaxError,
    parse_equation,
    parse_source,
    parse_source_text,
    term_node,
    tokenize,
)

from oracles import (
    reference_equation,
    reference_lexemes,
    reference_logical_lines,
    reference_tokenize,
)
from sources import parse_alo_rule, parse_dict_rules


# -- tokens and equations ----------------------------------------------------

def test_tokenize_kinds():
    kinds = [t.kind for t in tokenize('agr = 1 "a b" $rv0 $$ ( )')]
    assert kinds == ["sym", "=", "sym", "str", "call", "self", "(", ")"]


def test_tokenize_string_escapes():
    (tok,) = tokenize(r'"say \"hi\" \\"')
    assert tok.text == 'say "hi" \\'


def test_tokenize_rejects_unterminated_string():
    with pytest.raises(SourceSyntaxError):
        tokenize('"open')


def test_parse_equation_paths_and_values():
    eq = parse_equation("agr pers = 1 3")
    assert eq.path == ("agr", "pers")
    assert eq.values == ("1", "3")


def test_parse_equation_markers():
    eq = parse_equation("stem = $rv8c")
    assert eq.values == (RuleCall("rv8c"),)
    eq = parse_equation("lex = $$")
    assert isinstance(eq.values[0], SelfRef)


@pytest.mark.parametrize(
    "text",
    [
        "no equals sign",
        "a = b = c",
        "= 1",
        "agr pers =",
        'a "b" = 1',  # path labels must be bare
        "x = $rv0 1",  # a call cannot share the leaf
        "x = $$ 1",
        'x = "a b" 1',  # a string cannot share the leaf
    ],
)
def test_parse_equation_rejects(text):
    with pytest.raises(SourceSyntaxError):
        parse_equation(text)


def test_term_node_wraps_atoms_and_passes_markers():
    assert term_node(("1", "2")) == ValueSet(["1", "2"])
    call = term_node((RuleCall("rv0"),))
    assert isinstance(call, RuleCall)


# -- logical lines: comments, strings, continuations -------------------------

def test_comments_are_stripped_outside_strings():
    result = parse_source_text("#MORPHEMES\n\nped ; a stem\nstt = 11 ; slot code\n")
    assert result.ok
    entry = result.base.morphemes["ped"]
    assert entry.equations[0].values == ("11",)


def test_semicolon_inside_string_is_not_a_comment():
    result = parse_source_text('#MORPHEMES\n\nped\ngloss = "a; b"\n')
    assert result.ok
    values = result.base.morphemes["ped"].equations[0].values
    assert values == ("a; b",) and isinstance(values[0], Quoted)


def test_backslash_joins_continuation_lines():
    result = parse_source_text("#MORPHEMES\n\nped\nstt = 11 \\\n      12\n")
    assert result.ok
    assert result.base.morphemes["ped"].equations[0].values == ("11", "12")


def test_continuation_reports_first_physical_line():
    result = parse_source_text("#MORPHEMES\n\nped\nstt 11 \\\n 12\n")
    assert not result.ok
    assert result.diagnostics[0].line == 4


def test_backslash_in_quotes_escapes_only_a_quote_or_a_backslash():
    (tok,) = tokenize(r'"a\x \" \\ \;"')
    assert tok == ("str", 'a\\x " \\ \\;')


@pytest.mark.parametrize(
    "text,lines",
    [
        ('#MORPHEMES\n\nped\nx = "a\rb"\n', [4, 5]),
        ('#DATA-DICT\n\nx = "a\rb"\n', [3, 4]),
    ],
)
def test_a_carriage_return_ends_a_line_as_it_does_in_a_file(tmp_path, text, lines):
    # a lone CR, like CR LF, ends a line: the quoted value is cut in two
    result = parse_source_text(text, name="cr.lex")
    assert [(d.line, d.message) for d in result.diagnostics] == [
        (line, "unterminated string") for line in lines
    ]
    path = tmp_path / "cr.lex"
    path.write_bytes(text.encode("utf-8"))
    from_file = parse_source(str(path))
    assert [(d.line, d.message) for d in from_file.diagnostics] == [
        (d.line, d.message) for d in result.diagnostics
    ]


def test_every_line_end_counts_once():
    assert _logical_lines("a\r\nb\rc\nd") == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]


def test_a_line_ending_inside_an_open_string_is_not_joined():
    text = 'x = "a ; b \\\ny = 1 ; c\n'
    assert _logical_lines(text) == [(1, 'x = "a ; b \\'), (2, "y = 1 "), (3, "")]


# Pieces dense in what the scanner decides: quotes, escapes, comments,
# rule calls, reserved characters, and whitespace that str.isspace()
# accepts beyond ASCII (\x0b, \x85, no-break and ideographic spaces).
_SCANNER_PIECES = (
    list('"\\;$=()#@- \t\x0b\x85\xa0\u3000\r\nai')
    + ["$$", '\\"', "\\\\", '"x"', "$ab", "\\\n"]
)


def _scanned(tokens, error, text):
    """Tokens as (kind, text) pairs, or the message of the error raised."""
    try:
        return [tuple(t) for t in tokens(text)]
    except error as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_SCANNER_PIECES), max_size=24).map("".join))
def test_scanner_agrees_with_the_reference(text):
    assert _scanned(tokenize, SourceSyntaxError, text) == _scanned(
        reference_tokenize, ValueError, text
    )
    assert _logical_lines(text) == reference_logical_lines(text)
    for line_no, line in _logical_lines(text):
        try:
            tokenize(line, "f.lex", line_no)
        except SourceSyntaxError as exc:
            assert (exc.file, exc.line) == ("f.lex", line_no)


# Symbols and whitespace kinds beyond the ASCII space (\x1c is a
# separator that str.isspace() accepts); a side of an equation is drawn
# from these alone or mixed with tokens that are not symbols, among them
# strings holding a space or an `=`.
_PLAIN_PIECES = ["a", "lex", "\xe9", "1", "-", " ", "\t", "\x0b", "\x1c", "\xa0"]
_RESERVED_PIECES = list('$()#;"\\') + ["$$", "$r", '"x y"', '"a=b"', '\\"']
_EQUATION_SIDES = st.one_of(
    st.lists(st.sampled_from(_PLAIN_PIECES), min_size=1, max_size=6),
    st.lists(st.sampled_from(_PLAIN_PIECES + _RESERVED_PIECES), max_size=6),
).map("".join)


def _value_tokens(values):
    """An equation's values as the (kind, text) tokens they were read from."""
    tokens = []
    for v in values:
        if isinstance(v, str):
            tokens.append(("str" if isinstance(v, Quoted) else "sym", v))
        else:
            tokens.append(("call", v.rule) if isinstance(v, RuleCall) else ("self", "$$"))
    return tokens


def _equation(text):
    """Path and value tokens of parse_equation's result, or the message
    of the SourceSyntaxError it raised."""
    try:
        eq = parse_equation(text)
    except SourceSyntaxError as exc:
        return exc.message
    return eq.path, _value_tokens(eq.values)


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(1, 3)
    .flatmap(lambda sides: st.lists(_EQUATION_SIDES, min_size=sides, max_size=sides))
    .map("=".join)
)
def test_parse_equation_agrees_with_the_reference(text):
    try:
        expected = reference_equation(text)
    except ValueError as exc:
        expected = str(exc)
    assert _equation(text) == expected


# -- sections and entries -----------------------------------------------------

# Entry heads and equation lines: plain ones, which the parser reads
# without tokenizing, and ones mixed with what sends a line to the
# scanner (strings, comments, rule calls, a trailing backslash, a lone
# `\r`) or ends a section (`#`), with whitespace str.isspace() accepts.
_SOURCE_SYMBOLS = ["a", "b", "C1", "\xe9"]
_SOURCE_SPACES = [" ", "\t", "\x1c", "\xa0", "\u2028"]
_SOURCE_RESERVED = list('()$";\\#=\r') + ["$r", "$$", '"x y"', '\\"', "\\ "]


def _joined(pieces, **size):
    return st.lists(st.sampled_from(pieces), **size).map("".join)


_gaps = _joined(_SOURCE_SPACES, max_size=2)
_mixed = _joined(_SOURCE_SYMBOLS + _SOURCE_SPACES + _SOURCE_RESERVED, max_size=4)
_names = st.one_of(_joined(_SOURCE_SYMBOLS, min_size=1, max_size=2), _mixed)
_heads = st.tuples(
    _gaps,
    _names,
    _gaps,
    st.one_of(
        st.just(""),
        st.one_of(_joined(_SOURCE_SYMBOLS + _SOURCE_SPACES, max_size=5), _mixed).map("({})".format),
    ),
    _gaps,
).map("".join)
_lines = st.one_of(
    st.tuples(
        _joined(_SOURCE_SYMBOLS + _SOURCE_SPACES, min_size=1, max_size=4),
        _joined(_SOURCE_SYMBOLS + _SOURCE_SPACES, min_size=1, max_size=4),
    ).map("=".join),
    _mixed,
)
_blocks = st.tuples(
    st.sampled_from(["", " ", "\x1c", "\u2028"]),  # the blank line before the block
    _heads,
    st.lists(_lines, max_size=3),
).map(lambda drawn: "\n%s\n%s" % (drawn[0], "\n".join([drawn[1]] + drawn[2])))


@settings(max_examples=1000, deadline=None)
@given(st.lists(_blocks, max_size=4).map(lambda blocks: "#LEXEMES\n" + "".join(blocks)))
def test_entry_sections_agree_with_the_reference(text):
    result = parse_source_text(text, name="f.lex")
    entries = [
        (
            e.name,
            e.parents,
            [(eq.path, _value_tokens(eq.values), "%s:%d" % (eq.file, eq.line)) for eq in e.equations],
            "%s:%d" % (e.file, e.line),
        )
        for e in result.base.lexemes.values()
    ]
    diagnostics = [d.render() for d in result.diagnostics]
    assert (entries, diagnostics) == reference_lexemes(text, "f.lex")


def test_entry_blocks_split_on_blank_lines():
    result = parse_source_text("#CLASSES\n\nA\nx = 1\n\nB (A)\ny = 2\n")
    assert result.ok
    assert set(result.base.classes) == {"A", "B"}
    assert result.base.classes["B"].parents == ("A",)


def test_entry_tree_folds_equations():
    result = parse_source_text("#MORPHEMES\n\nped\nagr pers = 1\nagr num = plu\n")
    tree = result.base.morphemes["ped"].tree()
    assert tree.get(("agr", "pers")) == leaf("1")
    assert tree.get(("agr", "num")) == leaf("plu")


def test_content_before_any_header_is_an_error():
    result = parse_source_text("ped\nstt = 11\n")
    assert not result.ok
    assert "before any section" in result.diagnostics[0].message


def test_unknown_directive_is_reported_and_block_skipped():
    result = parse_source_text("#NOPE\n\nped\nstt = 11\n")
    assert not result.ok
    assert "unknown directive" in result.diagnostics[0].message
    assert not result.base.morphemes


def test_duplicate_entry_reports_first_site():
    text = "#MORPHEMES\n\nped\nstt = 11\n\nped\nstt = 12\n"
    result = parse_source_text(text, name="dup.lex")
    assert not result.ok
    msg = result.diagnostics[0].message
    assert "duplicate entry 'ped'" in msg and "dup.lex:3" in msg
    # first definition survives
    assert result.base.morphemes["ped"].equations[0].values == ("11",)


def test_malformed_parent_list_is_reported():
    result = parse_source_text("#CLASSES\n\nB (A\nx = 1\n")
    assert not result.ok
    assert "(parents)" in result.diagnostics[0].message


@pytest.mark.parametrize(
    "text,message,line",
    [
        ('#LEXEMES\n\nped (a "b")\nx = 1\n', "parent lists hold bare names only", 3),
        ('#INCLUDE "open\n', "unterminated string", 1),
    ],
)
def test_malformed_header_lines_are_reported(text, message, line):
    result = parse_source_text(text)
    assert [(d.message, d.line) for d in result.diagnostics] == [(message, line)]


def test_bad_equation_is_isolated_to_its_line():
    result = parse_source_text("#MORPHEMES\n\nped\nbad line\nstt = 11\n")
    assert not result.ok
    entry = result.base.morphemes["ped"]
    assert [eq.path for eq in entry.equations] == [("stt",)]


# -- includes -------------------------------------------------------------------

def test_includes_resolve_relative_to_the_including_file():
    files = {
        "sub/classes.lex": "#CLASSES\n\nA\nx = 1\n",
        "sub/main.lex": '#INCLUDE "classes.lex"\n#MORPHEMES\n\nped\nstt = 11\n',
    }
    result = parse_source_text(
        files["sub/main.lex"], name="sub/main.lex", files=files
    )
    assert result.ok
    assert "A" in result.base.classes
    assert result.base.includes == (("sub/main.lex", "sub/classes.lex"),)


def test_diamond_include_loads_once():
    files = {
        "common.lex": "#CLASSES\n\nA\nx = 1\n",
        "left.lex": '#INCLUDE "common.lex"\n',
        "right.lex": '#INCLUDE "common.lex"\n',
    }
    text = '#INCLUDE "left.lex"\n#INCLUDE "right.lex"\n'
    result = parse_source_text(text, name="main.lex", files=files)
    assert result.ok  # no duplicate-entry error: common.lex parsed once
    assert "A" in result.base.classes


def test_include_cycle_is_reported():
    files = {
        "a.lex": '#INCLUDE "b.lex"\n',
        "b.lex": '#INCLUDE "a.lex"\n',
    }
    result = parse_source_text(files["a.lex"], name="a.lex", files=files)
    assert not result.ok
    assert "include cycle" in result.diagnostics[0].message
    assert "a.lex -> b.lex -> a.lex" in result.diagnostics[0].message


def test_missing_include_is_reported_with_site():
    result = parse_source_text('#INCLUDE "gone.lex"\n', name="main.lex")
    assert not result.ok
    d = result.diagnostics[0]
    assert "cannot read gone.lex" in d.message
    assert (d.file, d.line) == ("main.lex", 1)


def test_include_takes_one_quoted_path():
    result = parse_source_text("#INCLUDE bare.lex\n")
    assert not result.ok
    assert "quoted path" in result.diagnostics[0].message


# -- allomorphy rule blocks ------------------------------------------------------

def test_duplicate_alo_rule_reports_first_site():
    text = "#ALO-RULES\n\nrv0\n{X = .+}\n$Xar -> $X\n\nrv0\n{X = .+}\n$Xer -> $X\n"
    result = parse_source_text(text, name="dup.lex")
    assert [(d.message, d.file, d.line) for d in result.diagnostics] == [
        ("duplicate rule 'rv0' (first defined at dup.lex:3)", "dup.lex", 7)
    ]
    # first definition survives
    assert result.base.alo_rules["rv0"].productions[0].lhs == (("var", "X"), ("lit", "ar"))


def test_parse_alo_rule_structure():
    rule = parse_alo_rule("rv0\n{X = .+}\n$Xar -> $X\n$Xer -> $X\n")
    assert rule.name == "rv0"
    assert rule.variables == {"X": ".+"}
    assert len(rule.productions) == 2
    assert rule.productions[0].lhs == (("var", "X"), ("lit", "ar"))
    assert rule.productions[0].rhs == (("var", "X"),)


def test_alo_rule_mixed_segments():
    rule = parse_alo_rule("rv8c\n{X = .+}\n{C = [bc]}\n$Xe$Cir -> $Xi$C\n")
    assert rule.productions[0].lhs == (
        ("var", "X"),
        ("lit", "e"),
        ("var", "C"),
        ("lit", "ir"),
    )


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("rv\n$Xar -> $X\n", "undeclared variable"),
        ("rv\n{X = .+}\n$Xar -> $X\n{Y = .+}\n", "precede productions"),
        ("rv\n{XY = .+}\n$XYar -> $XY\n", "single letters"),
        ("rv\n{X = .+}\n{X = .*}\n$Xar -> $X\n", "redeclared"),
        ("rv\n{X = .+}\n", "no productions"),
        ("rv\n{X = .+}\n$Xar -> $Y\n", "undeclared variable"),
        ("rv\n{X = .+}\n{C = .}\nar -> $C\n", "not matched by the pattern"),
        ("rv\n{X = .+}\n$Xar $X\n", "pattern -> replacement"),
        ("rv\n{X = }\n$Xar -> $X\n", "empty pattern"),
        ("rv\n{X = .+}\na b -> c\n", "spaces"),
        ("rv\n{X = .+}\n$1ar -> $X\n", "expected a variable letter"),
        ("rv\n{X = .+\n$Xar -> $X\n", "unterminated variable declaration"),
        ("rv\n{X .+}\n$Xar -> $X\n", "expected '=' in variable declaration"),
        ("rv\n{X = .+}\n-> $X\n", "empty pattern"),
        ("rv\n{X = .+}\n$Xar ->\n", "empty replacement"),
    ],
)
def test_alo_rule_rejects(text, fragment):
    with pytest.raises(SourceSyntaxError) as exc:
        parse_alo_rule(text)
    assert fragment in str(exc.value)


def test_a_pattern_outside_the_dialect_is_refused_at_its_declaration():
    text = "#ALO-RULES\n\nrv\n{X = ^a}\n$Xar -> $X\n"
    result = parse_source_text(text, name="bad.lex")
    assert not result.ok
    assert [(d.message, d.file, d.line) for d in result.diagnostics] == [
        ("rule 'rv', variable 'X': anchors are implicit; '^' is not allowed", "bad.lex", 4)
    ]
    assert result.base.alo_rules == {}  # dropped like any malformed block


# -- data dictionary declarations -------------------------------------------------

def test_data_dict_kinds():
    text = (
        "#DATA-DICT\n\nstem =\npers = 1 2 3\nagr = @(gen num) @(num pers)\n"
        'gloss = "a b"\n'
    )
    result = parse_source_text(text)
    assert result.ok
    dd = result.base.data_dict
    assert dd["stem"].kind == "open"
    assert dd["pers"].kind == "closed"
    assert dd["pers"].values == leaf("1", "2", "3")
    assert dd["agr"].kind == "structured"
    assert dd["agr"].alternatives == (("gen", "num"), ("num", "pers"))
    assert dd["gloss"].values == leaf("a b", quoted=True)


def test_data_dict_redeclaration_is_an_error():
    result = parse_source_text("#DATA-DICT\n\npers = 1\npers = 2\n")
    assert not result.ok
    assert "redeclared" in result.diagnostics[0].message


@pytest.mark.parametrize(
    "line",
    [
        "@(gen) pers = 1",
        "agr = @(gen) extra",
        "agr = @( )",
        "agr = @(gen num",
        "agr = @ @",
        'pers = 1 "two"',  # a string cannot share the closed set
    ],
)
def test_data_dict_rejects_malformed_declarations(line):
    result = parse_source_text("#DATA-DICT\n\n%s\n" % line)
    assert not result.ok
    assert [d.line for d in result.diagnostics] == [3]


# -- dictionary generation rules -----------------------------------------------------

DICT_RULES = """\
LEXEMES

$$ = @ alo 1 stem
@ = @ alo 1 (- stem)
@ = @ (- alo - aux)
@ lex = $$

MORPHEMES

@ = @
$$ = $$
"""


def test_parse_dict_rules_sections_and_shapes():
    rules = parse_dict_rules(DICT_RULES)
    assert len(rules.for_section("lexemes")) == 1
    assert len(rules.for_section("morphemes")) == 1
    assert rules.for_section("words") == ()
    rule = rules.for_section("lexemes")[0]
    eq = rule.equations[0]
    assert eq.target is None and eq.source == ("alo", "1", "stem")
    assert rule.equations[1].deletions == (("stem",),)
    assert rule.equations[2].deletions == (("alo",), ("aux",))
    assert rule.equations[3].target == ("lex",) and rule.equations[3].source is None


def test_dict_rule_must_assign_both_name_and_tree():
    with pytest.raises(SourceSyntaxError):
        parse_dict_rules("LEXEMES\n\n@ = @\n")
    with pytest.raises(SourceSyntaxError):
        parse_dict_rules("LEXEMES\n\n$$ = @ stem\n")


def test_parse_dict_rules_reports_the_lines_of_its_text():
    result = parse_source_text("#DICT-RULES\nLEXEMES\n\n$$ = $$\n@ = @\n", "r.txt")
    assert result.ok
    (rule,) = result.base.dict_rules.for_section("lexemes")
    assert (rule.file, rule.line) == ("r.txt", 4)
    assert [(eq.file, eq.line) for eq in rule.equations] == [("r.txt", 4), ("r.txt", 5)]
    result = parse_source_text("#DICT-RULES\nLEXEMES\n\n@ = @\nstem = @\n$$ = $$\n", "r.txt")
    assert [(d.file, d.line) for d in result.diagnostics] == [("r.txt", 5)]


def test_dict_rules_need_a_subsection():
    result = parse_source_text("#DICT-RULES\n\n@ = @\n$$ = $$\n")
    assert not result.ok
    assert "subsection" in result.diagnostics[0].message


@pytest.mark.parametrize(
    "line",
    [
        "stem = @",  # target must be $$ or @ path
        "@ = stem",  # source too
        "@ = @ alo (- stem",  # unterminated deletions
        "@ = @ alo (stem)",  # deletions need '-'
        "@ = @ (- )",  # empty deletion path
        "@ = @ (- x) y",  # trailing tokens
        "@ lex $$",  # needs exactly one '='
        '@ "x" = $$',  # target paths hold bare labels only
        "@ = @ a $$",  # '$$' cannot follow a source path
    ],
)
def test_dict_rules_reject_malformed_equations(line):
    with pytest.raises(SourceSyntaxError):
        parse_dict_rules("LEXEMES\n\n%s\n@ = @\n$$ = $$\n" % line)


# -- a base with most sections ------------------------------------------------------------

MIXED_BASE = """\
#MORPHEMES

'abamos
conj = 1
agr pers = 1
gloss = "past; we"

#CLASSES

MV
concat = vl
alo 1 stem = $rv0

MV8c (MV)
alo 2 stem = $rv8c
lex = $$

#LEXEMES

pedir (MV8c)

#ALO-RULES

rv0
{X = .+}
$Xar -> $X

rv8c
{X = .+}
{C = [bc]}
$Xe$Cir -> $Xi$C

#DATA-DICT

stem =
pers = 1 2 3
agr = @(gen num) @(num pers)

#DICT-RULES

LEXEMES

$$ = @ alo 1 stem
@ = @ alo 1 (- stem)
@ lex = $$
"""


def test_sections_seen_tracks_headers():
    result = parse_source_text(MIXED_BASE)
    assert result.ok
    assert "data-dict" in result.base.sections_seen
    assert "words" not in result.base.sections_seen


# -- robustness ------------------------------------------------------------------------

_section_words = st.sampled_from(
    ["#MORPHEMES", "#CLASSES", "#LEXEMES", "#ALO-RULES", "#DATA-DICT",
     "#DICT-RULES", "LEXEMES", "ped", "(MV)", "stt = 11", "a = $x", "$$ = @",
     "{X = .+}", "$Xar -> $X", '"open', "= = =", "@ = @ (-", "a\\", ";c", "",
     'pers = 1 "two"']
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_section_words, max_size=12).map("\n".join))
def test_parser_never_crashes_on_assembled_text(text):
    result = parse_source_text(text)
    assert isinstance(result.ok, bool)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=120))
def test_parser_never_crashes_on_arbitrary_text(text):
    result = parse_source_text(text)
    assert isinstance(result.ok, bool)
