import random

import pytest

from lexiforge.alo_rules import compile_alo_rule
from lexiforge.source import SourceSyntaxError
from oracles import greedy_rewrite
from sources import parse_alo_rule

RV0 = "rv0\n{X = .+}\n$Xar -> $X\n$Xer -> $X\n$Xir -> $X\n"
RV8C = "rv8c\n{X = .+}\n{C = [bcdfghjklmnpqrstvwxyz]}\n$Xe$Cir -> $Xi$C\n"


def compiled(text):
    return compile_alo_rule(parse_alo_rule(text))


# -- pinned behavior ----------------------------------------------------------

def test_stem_truncation():
    rv0 = compiled(RV0)
    assert rv0.apply("amar") == "am"
    assert rv0.apply("temer") == "tem"
    assert rv0.apply("pedir") == "ped"
    assert rv0.apply("sol") is None
    assert rv0.apply("ar") is None  # X needs at least one character


def test_stem_alternation():
    rv8c = compiled(RV8C)
    assert rv8c.apply("pedir") == "pid"
    assert rv8c.apply("repetir") == "repit"
    assert rv8c.apply("medir") == "mid"
    assert rv8c.apply("amar") is None
    assert rv8c.apply("subir") is None  # no 'e' before the final consonant


def test_productions_try_in_source_order():
    rule = compiled("r\n{X = .+}\n$Xr -> first\n$Xar -> second\n")
    # both productions match "amar"; the first one wins
    assert rule.apply("amar") == "first"


def test_match_is_anchored_at_both_ends():
    rule = compiled("r\nab -> x\n")
    assert rule.apply("ab") == "x"
    assert rule.apply("abc") is None
    assert rule.apply("zab") is None


def test_earlier_variable_takes_the_longest_match():
    rule = compiled("r\n{X = .*}\n{Y = .*}\n$Xa$Y -> $X/$Y\n")
    # X grabs everything up to the LAST 'a'
    assert rule.apply("banana") == "banan/"
    assert rule.apply("abc") == "/bc"


def test_repeated_variable_last_occurrence_feeds_the_replacement():
    rule = compiled("r\n{X = .}\n$X$X -> $X\n")
    # the two occurrences match independently; the replacement reads
    # the later capture
    assert rule.apply("ab") == "b"


def test_replacement_can_reorder_and_duplicate():
    rule = compiled("r\n{X = .+}\n{C = [bc]}\n$X-$C -> $C$X$C\n")
    assert rule.apply("do-b") == "bdob"


def test_literal_only_replacement_and_regex_metachars_in_literals():
    rule = compiled("r\n{X = .+}\n$X.ar -> $X\n")
    # the '.' here is literal text, not a wildcard
    assert rule.apply("am.ar") == "am"
    assert rule.apply("amxar") is None


def test_alternation_prefers_the_first_branch():
    rule = compiled("r\n{X = ab|a}\n{Y = .*}\n$X$Y -> $X/$Y\n")
    assert rule.apply("abc") == "ab/c"  # 'ab|a' can take both; branch order decides


def test_optional_and_classes():
    rule = compiled("r\n{V = [aeiou]+}\n{C = [^aeiou]?}\n$V$C -> $C$V\n")
    assert rule.apply("aep") == "pae"
    assert rule.apply("ae") == "ae"
    assert rule.apply("pa") is None


# -- rejected patterns ----------------------------------------------------------

def _refused(pattern):
    """The parser's error for a rule declaring `{X = pattern}`; the
    declaration is line 4, under the helper's `#ALO-RULES` header."""
    with pytest.raises(SourceSyntaxError) as exc:
        compiled("r\n{X = %s}\n$Xa -> $X\n" % pattern)
    assert exc.value.message.startswith("rule 'r', variable 'X': ")
    assert exc.value.line == 4
    return exc.value.message


@pytest.mark.parametrize(
    "pattern,fragment",
    [
        (r"\d+", "escape sequences"),
        (r"a{2,3}", "brace repetition"),
        ("^a", "anchors are implicit"),
        ("a$", "anchors are implicit"),
        ("[abc", "unterminated character class"),
        (r"[\w]", "bad escape in character class"),
        ("x\\", "dangling backslash"),
        # group names and flags would break the assembled regex; the
        # others are engine extensions outside the dialect
        ("(?P<v0>a)", "'(?' extensions"),
        ("(?i)a", "'(?' extensions"),
        ("(?=a)", "'(?' extensions"),
        ("(?#c)", "'(?' extensions"),
        # lazy and possessive quantifiers: the first two would match
        # lazily, the third is possessive or an error by Python version
        ("a*?", "stacked quantifiers like '*?'"),
        ("a??", "stacked quantifiers like '??'"),
        ("a*+", "stacked quantifiers like '*+'"),
        ("(ab)+?", "stacked quantifiers like '+?'"),
    ],
)
def test_patterns_outside_the_dialect_are_rejected(pattern, fragment):
    assert fragment in _refused(pattern)


@pytest.mark.parametrize(
    "pattern",
    [r"a\\", r"a\.", "[]]", "[^]]", "a|b", "(ab)+", "..?", r"[\.a]", r"\*?", "[*?]+", r"\(?a"],
)
def test_dialect_accepts_the_documented_constructs(pattern):
    compiled("r\n{X = %s}\n$Xa -> $X\n" % pattern)


def test_unbalanced_group_is_rejected_by_the_engine():
    # inside the dialect, but not a valid expression
    assert "missing ), unterminated subpattern" in _refused("(a")


def test_class_with_leading_bracket_and_negation():
    # '[]]' is a class holding ']'; '[^]]' negates it
    rule = compiled("r\n{X = []]}\n$Xa -> $X\n")
    assert rule.apply("]a") == "]"
    rule = compiled("r\n{X = [^]]}\n$Xa -> $X\n")
    assert rule.apply("ba") == "b"
    assert rule.apply("]a") is None


# -- oracle comparison -------------------------------------------------------------

ORACLE_RULES = [
    RV0,
    RV8C,
    "r\n{X = .*}\n{Y = .*}\n$Xa$Y -> $X.$Y\n",
    "r\n{X = .+}\n{C = [bcd]}\n{V = [ae]?}\n$X$V$C -> $C$V$X\n",
    "r\n{X = [ab]+}\n$Xc$X -> $X\nc$X -> $X$X\n",
]


@pytest.mark.parametrize("text", ORACLE_RULES)
def test_engine_matches_split_enumeration(text):
    rule = parse_alo_rule(text)
    engine = compile_alo_rule(rule)
    rng = random.Random(20260816)
    alphabet = "abcdeir"
    for _ in range(400):
        arg = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 13))
        )
        assert engine.apply(arg) == greedy_rewrite(rule, arg), arg
