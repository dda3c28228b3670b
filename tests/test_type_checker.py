import pytest

from lexiforge.diagnostics import ERROR, WARNING, has_errors
from lexiforge.inheritance import resolve_all
from lexiforge.source import Entry, parse_source, parse_source_text
from lexiforge.type_checker import check_base, check_tree

from sources import parse_tree


DECLS = """\
#DATA-DICT

stem =
pers = 1 2 3
num = sing plu
gen = masc fem
agr = @(gen num) @(num pers)
"""


def decls(extra=""):
    result = parse_source_text(DECLS + extra)
    assert result.ok
    return result.base.data_dict


def check(tree_text, extra=""):
    return check_tree(parse_tree(tree_text), decls(extra), entry="e")


# -- per-kind checks ----------------------------------------------------------

def test_clean_tree_passes():
    assert check("stem = whatever\npers = 1 3\nagr num = plu\nagr pers = 2") == []


def test_closed_feature_rejects_values_outside_its_set():
    out = check("pers = 4")
    assert len(out) == 1
    d = out[0]
    assert d.severity == ERROR
    assert d.message == "value 4 not in closed set {1,2,3}"
    assert d.path == ("pers",) and d.entry == "e"


def test_each_bad_value_is_reported():
    out = check("pers = 4 5 1")
    assert [d.message for d in out] == [
        "value 4 not in closed set {1,2,3}",
        "value 5 not in closed set {1,2,3}",
    ]


def test_structured_feature_checks_alternatives():
    assert check("agr gen = masc\nagr num = plu") == []
    assert check("agr pers = 1") == []
    out = check("agr gen = masc\nagr pers = 1")
    assert len(out) == 1
    assert out[0].message == (
        "features {gen,pers} match no alternative of @(gen num) @(num pers)"
    )
    assert out[0].path == ("agr",)


def test_structured_feature_rejects_an_empty_interior():
    # deletions can leave an empty interior behind; no alternative
    # matches the empty label set
    tree = parse_tree("agr num = plu").delete(("agr", "num"))
    out = check_tree(tree, decls())
    assert len(out) == 1
    assert "match no alternative" in out[0].message


def test_kind_mismatches():
    # the mismatch is reported, then checking still descends
    assert [d.message for d in check("stem x = 1")] == [
        "open feature 'stem' has a structured value",
        "feature 'x' is not declared",
    ]
    assert [d.message for d in check("pers x = 1")] == [
        "closed feature 'pers' has a structured value",
        "feature 'x' is not declared",
    ]
    assert [d.message for d in check("agr = 1")] == [
        "structured feature 'agr' has an atomic value"
    ]


def test_undeclared_feature_is_a_warning():
    out = check("mystery = 1")
    assert [(d.severity, d.message) for d in out] == [
        (WARNING, "feature 'mystery' is not declared")
    ]
    assert not has_errors(out)


def test_labels_are_checked_wherever_they_occur():
    # the namespace is flat: 'pers' under 'agr' obeys the same declaration
    out = check("agr pers = 9")
    assert [d.message for d in out] == ["value 9 not in closed set {1,2,3}"]


def test_diagnostics_come_in_path_order():
    out = check("pers = 9\nagr pers = 8\nzz = 1")
    assert [d.path for d in out] == [("agr", "pers"), ("pers",), ("zz",)]


def test_quoted_values_render_quoted():
    out = check('num = "si ng"')
    assert out[0].message == 'value "si ng" not in closed set {sing,plu}'


# -- whole-base checking ---------------------------------------------------------

def test_check_base_skips_without_declarations():
    result = parse_source_text("#MORPHEMES\n\nped\nwild = 1\n")
    resolved, _ = resolve_all(result.base)
    assert check_base(result.base, resolved) == []


def test_check_base_reports_resolved_entries_and_class_bodies():
    text = (
        "#CLASSES\n\nC\npers = 4\n\n#LEXEMES\n\nd (C)\n\n" + DECLS
    )
    result = parse_source_text(text)
    assert result.ok
    resolved, _ = resolve_all(result.base)
    out = check_base(result.base, resolved)
    # once through the resolved lexeme, once at the class itself
    assert [(d.entry, d.message) for d in out] == [
        ("d", "value 4 not in closed set {1,2,3}"),
        ("C", "value 4 not in closed set {1,2,3}"),
    ]


@pytest.mark.parametrize(
    "body,message",
    [
        ("pers = 9", "value 9 not in closed set {1,2,3}"),
        ("a = 1\na b = 2", "path 'a b' descends through the leaf at 'a'"),
    ],
    ids=["bad-value", "unbuildable"],
)
def test_a_broken_class_is_reported_at_the_class_and_every_heir(body, message):
    text = "#CLASSES\n\nK\n%s\n\n#LEXEMES\n\namar (K)\n\ntemer (K)\n\n" % body
    result = parse_source_text(text + DECLS)
    assert result.ok
    resolved, diagnostics = resolve_all(result.base)
    diagnostics += check_base(result.base, resolved)
    assert sorted((d.severity, d.entry, d.message) for d in diagnostics) == [
        (ERROR, "K", message),
        (ERROR, "amar", message),
        (ERROR, "temer", message),
    ]


def test_check_base_skips_placeholders_in_class_bodies():
    text = (
        "#CLASSES\n\nC\nstem = $rv0\n\n#LEXEMES\n\namar (C)\n\n"
        "#ALO-RULES\n\nrv0\n{X = .+}\n$Xar -> $X\n" + DECLS
    )
    result = parse_source_text(text)
    assert result.ok
    resolved, diagnostics = resolve_all(result.base)
    assert diagnostics == []
    assert check_base(result.base, resolved) == []


def test_check_base_lets_programming_errors_through(monkeypatch):
    # an unbuildable class body is the resolver's to report; a bug is not
    result = parse_source_text("#CLASSES\n\nC\npers = 1\n\n#LEXEMES\n\nd (C)\n\n" + DECLS)
    assert result.ok
    resolved, _ = resolve_all(result.base)

    def broken(self):
        raise TypeError("bug")

    monkeypatch.setattr(Entry, "tree", broken)
    with pytest.raises(TypeError):
        check_base(result.base, resolved)


def test_spanish_fixture_is_clean(fixtures_dir, spanish_base):
    resolved, diagnostics = resolve_all(spanish_base)
    assert diagnostics == []
    assert check_base(spanish_base, resolved) == []
