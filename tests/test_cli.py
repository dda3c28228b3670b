import os
import re
import subprocess
import sys

import pytest

import lexiforge
from lexiforge.cli import main
from lexiforge.object_dict import save


@pytest.fixture(scope="session")
def dic_path(spanish_dict, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "spanish.dic"
    save(spanish_dict, str(path))
    return str(path)


@pytest.fixture(scope="session")
def rules_path(fixtures_dir):
    return str(fixtures_dir / "wf.rules")


ERA_CANON = (
    "agr num = sing\n"
    "agr pers = 1 3\n"
    "concat = w\n"
    "lex = ser\n"
    "vinfo mood = ind\n"
    "vinfo tense = impf\n"
)


# -- compile and check -------------------------------------------------------

def test_compile_writes_the_dictionary(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "spanish.dic"
    code = main(["compile", str(fixtures_dir / "spanish.lex"), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "wrote 41 entries for 41 surfaces to %s\n" % out
    assert captured.err == ""
    assert out.read_text(encoding="utf-8").startswith("LEXIFORGE-OBJDICT 1\n")


def test_compile_reproduces_the_golden_bytes(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "fragment.dic"
    code = main(["compile", str(fixtures_dir / "pedir_minimal.lex"), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    golden = fixtures_dir.parent / "tests" / "golden" / "pedir_minimal.dic"
    assert out.read_bytes() == golden.read_bytes()


def test_compile_default_output_sits_next_to_the_source(
    fixtures_dir, tmp_path, capsys
):
    src = tmp_path / "base.lex"
    src.write_text(
        (fixtures_dir / "pedir_minimal.lex").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    code = main(["compile", str(src)])
    captured = capsys.readouterr()
    assert code == 0
    assert (tmp_path / "base.dic").exists()
    assert str(tmp_path / "base.dic") in captured.out


def test_compile_failure_reports_to_stderr(tmp_path, capsys):
    src = tmp_path / "bad.lex"
    src.write_text("#LEXEMES\n\nd (Nope)\n", encoding="utf-8")
    code = main(["compile", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "unknown class 'Nope'" in captured.err
    assert not (tmp_path / "bad.dic").exists()


def test_compile_missing_source_is_unusable_input(capsys):
    code = main(["compile", "no/such/base.lex"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read no/such/base.lex" in captured.err


# Bases whose compiled result depends on each lemma's own values, not
# only on its classes: (source, exit code, stdout, stderr lines, the
# dictionary's text or None when none is written).  `{src}` and `{out}`
# stand for the source and output paths.
VALUE_CASES = {
    "closed-set-value": (
        "#CLASSES\n\nN\nlex = $$\n\n#LEXEMES\n\nar (N)\n\ncar (N)\n"
        "\n#DATA-DICT\n\nlex = ar bar\n\n#DICT-RULES\n\nLEXEMES\n\n$$ = $$\n@ = @\n",
        1,
        "",
        ["error car lex: value car not in closed set {ar,bar}"],
        None,
    ),
    "empty-alo-result": (
        "#CLASSES\n\nV\nstem = $rv\n\n#LEXEMES\n\namar (V)\n\nar (V)\n"
        "\n#ALO-RULES\n\nrv\n{X = .*}\n$Xar -> $X\n"
        "\n#DICT-RULES\n\nLEXEMES\n\n$$ = @ stem\n@ lex = $$\n",
        1,
        "",
        ["{src}:22: error ar: rule 1: the entry name came out empty"],
        None,
    ),
    "own-equation-over-a-hole": (
        "#CLASSES\n\nV\nstem = $rv\nconj = 1\n\n#LEXEMES\n\namar (V)\n\nandar (V)\nstem = anduv\n"
        "\n#ALO-RULES\n\nrv\n{X = .+}\n$Xar -> $X\n"
        "\n#DICT-RULES\n\nLEXEMES\n\n$$ = @ stem\n@ = @ (- stem)\n@ lex = $$\n",
        0,
        "wrote 2 entries for 2 surfaces to {out}\n",
        [],
        "LEXIFORGE-OBJDICT 1\nam\n  conj = 1\n  lex = amar\n\nanduv\n  conj = 1\n  lex = andar\n\n",
    ),
    "entry-named-like-its-class": (
        "#CLASSES\n\nV\nstem = $rv\n\nW (V)\n\n#LEXEMES\n\namar (W)\n\nV (W)\n"
        "\n#ALO-RULES\n\nrv\n{X = .+}\n$Xar -> $X\n"
        "\n#DICT-RULES\n\nLEXEMES\n\n$$ = @ stem\n@ lex = $$\n",
        1,
        "",
        ["{src}:12: error V: inheritance cycle: V -> W -> V"],
        None,
    ),
    "unknown-rule-at-every-heir": (
        "#CLASSES\n\nV\nstem = $nope\n\n#LEXEMES\n\namar (V)\n\ntemer (V)\n"
        "\n#DICT-RULES\n\nLEXEMES\n\n$$ = @ stem\n@ lex = $$\n",
        1,
        "",
        [
            "{src}:8: error amar: unknown allomorphy rule 'nope'",
            "{src}:10: error temer: unknown allomorphy rule 'nope'",
        ],
        None,
    ),
    "one-parent-list-two-shapes": (
        "#CLASSES\n\nMV\nalo 1 stem = $rv0\n\nMV8c (MV)\nalo 1 stt = 1\nalo 2 stem = $rv8c\n"
        "alo 2 stt = 2\n\n#LEXEMES\n\npedir (MV8c)\n\nservir (MV8c)\n\nmedir (MV8c)\n"
        "\n#ALO-RULES\n\nrv0\n{X = .+}\n$Xir -> $X\n"
        "\nrv8c\n{X = .+}\n{C = [bcdfghjklmnpqrstvwxyz]}\n$Xe$Cir -> $Xi$C\n"
        "\n#DICT-RULES\n\nLEXEMES\n\n$$ = @ alo 1 stem\n@ = @ alo 1 (- stem)\n@ lex = $$\n"
        "\n$$ = @ alo 2 stem\n@ = @ alo 2 (- stem)\n@ lex = $$\n",
        0,
        "wrote 5 entries for 5 surfaces to {out}\n",
        [],
        "LEXIFORGE-OBJDICT 1\n"
        "med\n  lex = medir\n  stt = 1\n\nmid\n  lex = medir\n  stt = 2\n\n"
        "ped\n  lex = pedir\n  stt = 1\n\npid\n  lex = pedir\n  stt = 2\n\n"
        "serv\n  lex = servir\n  stt = 1\n\n",
    ),
}


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_compile_of_lemma_dependent_values(tmp_path, capsys, case):
    text, code, stdout, stderr, dic = VALUE_CASES[case]
    src, out = tmp_path / "base.lex", tmp_path / "base.dic"
    src.write_text(text, encoding="utf-8")
    assert main(["compile", str(src), "-o", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout.replace("{out}", str(out))
    assert captured.err.splitlines() == [line.replace("{src}", str(src)) for line in stderr]
    if dic is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == dic


def test_check_clean_source(fixtures_dir, capsys):
    code = main(["check", str(fixtures_dir / "spanish.lex")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "0 errors, 0 warnings\n"
    assert captured.err == ""


def test_check_prints_diagnostics_to_stdout(tmp_path, capsys):
    src = tmp_path / "bad.lex"
    src.write_text(
        "#LEXEMES\n\nd (Nope)\n\ne\nwild = 1\nstem = x\n\n"
        "#DATA-DICT\n\nstem =\n\n#DICT-RULES\n\nLEXEMES\n\n@ = @\n$$ = $$\n",
        encoding="utf-8",
    )
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[-1] == "1 errors, 1 warnings"
    assert any("unknown class 'Nope'" in line for line in lines)
    assert any("feature 'wild' is not declared" in line for line in lines)


UNSTORABLE_NAME = (
    '#DATA-DICT\n\nstem =\nlex =\n\n#LEXEMES\n\namar\nstem = " am"\n\n'
    "#DICT-RULES\n\nLEXEMES\n\n$$ = @ stem\n@ lex = $$\n"
)


def test_compile_refuses_an_entry_name_the_dictionary_cannot_store(tmp_path, capsys):
    src = tmp_path / "base.lex"
    src.write_text(UNSTORABLE_NAME, encoding="utf-8")
    code = main(["compile", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "%s:15: error amar: rule 1: the entry name ' am' cannot be stored" % src in captured.err
    assert not (tmp_path / "base.dic").exists()


def test_check_counts_an_entry_name_the_dictionary_cannot_store(tmp_path, capsys):
    src = tmp_path / "base.lex"
    src.write_text(UNSTORABLE_NAME, encoding="utf-8")
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert "%s:15: error amar: rule 1: the entry name ' am' cannot be stored" % src in lines
    assert lines[-1] == "1 errors, 0 warnings"


def test_check_reports_a_failed_rule_once(tmp_path, capsys):
    # no "lemma produced no object entries" on top of the rule's error
    src = tmp_path / "base.lex"
    src.write_text(UNSTORABLE_NAME.replace('" am"', "a b"), encoding="utf-8")
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "%s:15: error amar: rule 1: '$$' must come out as a single atomic value" % src,
        "1 errors, 0 warnings",
    ]


@pytest.mark.parametrize(
    "entry_y,error",
    [
        ("y\na = 1\nb = = 2", ":8: error: an equation needs exactly one '='"),
        ("y (Nope)\na = 1", ":6: error y: unknown class 'Nope'"),
    ],
)
def test_check_counts_the_same_whichever_stage_found_the_error(
    tmp_path, capsys, entry_y, error
):
    # x and y would collapse into one entry; an error of any stage
    # stops the build, so the collapse is never reported
    src = tmp_path / "base.lex"
    src.write_text(
        "#MORPHEMES\n\nx\na = 1\n\n%s\n\n#DICT-RULES\n\nMORPHEMES\n\n$$ = @ a\n@ = @\n"
        % entry_y,
        encoding="utf-8",
    )
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["%s%s" % (src, error), "1 errors, 0 warnings"]


def test_compile_writes_nothing_for_a_parse_error(tmp_path, capsys):
    src = tmp_path / "base.lex"
    src.write_text(
        "#LEXEMES\n\namar\nstem = am\nno equal sign\n\n"
        "#DICT-RULES\n\nLEXEMES\n\n$$ = @ stem\n@ lex = $$\n",
        encoding="utf-8",
    )
    code = main(["compile", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "%s:5: error: an equation needs exactly one '='\n" % src
    assert not (tmp_path / "base.dic").exists()


def test_check_reports_a_bad_pattern_at_its_declaration(tmp_path, capsys):
    src = tmp_path / "bad.lex"
    src.write_text(
        "#ALO-RULES\n\nrv\n{X = ^a}\n$Xar -> $X\n\n#LEXEMES\n\namar\nstem = $rv\n",
        encoding="utf-8",
    )
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "%s:4: error: rule 'rv', variable 'X': anchors are implicit; '^' is not allowed" % src,
        "%s:9: error amar: unknown allomorphy rule 'rv'" % src,
        "2 errors, 0 warnings",
    ]


def test_check_reports_a_string_among_declared_values_at_its_line(tmp_path, capsys):
    src = tmp_path / "bad.lex"
    src.write_text('#DATA-DICT\n\npers = 1 "two"\n', encoding="utf-8")
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "%s:3: error: a string value must be the only value" % src,
        "1 errors, 0 warnings",
    ]


def test_compile_to_a_missing_directory_is_unusable_output(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.dic"
    code = main(["compile", str(fixtures_dir / "pedir_minimal.lex"), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot write %s" % out in captured.err


def test_compile_refuses_to_write_over_a_source_named_like_its_output(
    fixtures_dir, tmp_path, capsys
):
    src = tmp_path / "base.dic"  # the default output is the source itself
    text = (fixtures_dir / "pedir_minimal.lex").read_bytes()
    src.write_bytes(text)
    code = main(["compile", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "refusing to write %s over the source file %s\n" % (src, src)
    assert src.read_bytes() == text


def test_compile_refuses_an_output_naming_the_source(fixtures_dir, tmp_path, capsys):
    src = tmp_path / "src.lex"
    text = (fixtures_dir / "pedir_minimal.lex").read_bytes()
    src.write_bytes(text)
    out = tmp_path / "." / "src.lex"
    code = main(["compile", str(src), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "refusing to write %s over the source file %s" % (out, src) in captured.err
    assert src.read_bytes() == text


def test_compile_refuses_an_output_naming_an_included_file(fixtures_dir, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    inc = tmp_path / "inc.lex"
    text = (fixtures_dir / "pedir_minimal.lex").read_bytes()
    inc.write_bytes(text)
    src = tmp_path / "base.lex"
    src.write_text('#INCLUDE "inc.lex"\n', encoding="utf-8")
    out = tmp_path / "sub" / ".." / "inc.lex"
    code = main(["compile", str(src), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "refusing to write %s over the source file" % out in captured.err
    assert inc.read_bytes() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.lex", "inc.lex", "sub"]


def test_an_undecodable_include_is_an_error_at_the_include(tmp_path, capsys):
    (tmp_path / "inc.lex").write_bytes(b"#LEXEMES\n\nam\xe9\n")
    src = tmp_path / "base.lex"
    src.write_text('#MORPHEMES\n\n#INCLUDE "inc.lex"\n', encoding="utf-8")
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "%s:3: error: %s is not valid UTF-8 at byte 12" % (src, tmp_path / "inc.lex"),
        "1 errors, 0 warnings",
    ]


@pytest.mark.parametrize("command", ["compile", "check"])
def test_undecodable_source_is_unusable_input(tmp_path, capsys, command):
    src = tmp_path / "base.lex"
    src.write_bytes(b"#LEXEMES\n\nam\xe9\n")
    code = main([command, str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid UTF-8 at byte 12" in captured.err
    assert not (tmp_path / "base.dic").exists()


@pytest.mark.parametrize("command", ["compile", "check"])
@pytest.mark.parametrize("root", ["missing.lex", "."], ids=["missing", "directory"])
def test_an_unreadable_source_root_is_unusable_input(tmp_path, capsys, command, root):
    src = tmp_path / root
    code = main([command, str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cannot read %s: " % src)


@pytest.mark.parametrize("command", ["compile", "check"])
def test_the_source_root_is_read_once(fixtures_dir, tmp_path, monkeypatch, capsys, command):
    # the parser gets the text whose reading decided exit 2
    opened = []
    real_open = open

    def recorded(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recorded)
    argv = [command, str(fixtures_dir / "spanish.lex")]
    assert main(argv + (["-o", str(tmp_path / "x.dic")] if command == "compile" else [])) == 0
    capsys.readouterr()
    for name in ("spanish.lex", "classes.lex", "morphemes.lex"):
        assert opened.count(os.path.realpath(fixtures_dir / name)) == 1


def test_check_of_a_directory_is_unusable_input(tmp_path, capsys):
    code = main(["check", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot read %s" % tmp_path in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "base.lex", "--lex-feature", "x"],
        ["check", "base.lex", "--concat-feature", "x"],
        ["lookup", "base.dic", "era", "--lex-feature", "x"],
        ["dump", "base.dic", "--lex-feature", "x"],
        ["analyze", "base.dic", "wf.rules", "era", "--concat-feature", "x"],
        ["stats", "base.dic", "--concat-feature", "x"],
        ["generate", "base.dic", "wf.rules", "amar", "--concat-feature", "x"],
    ],
    ids=lambda argv: "%s%s" % (argv[0], argv[-2]),
)
def test_index_flags_only_where_an_index_is_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s x" % argv[-2] in capsys.readouterr().err


# -- lookup ---------------------------------------------------------------------

def test_lookup_prints_indented_canonical_form(dic_path, capsys):
    code = main(["lookup", dic_path, "era"])
    captured = capsys.readouterr()
    assert code == 0
    expected = "era:\n" + "".join(
        "  %s\n" % line for line in ERA_CANON.splitlines()
    ) + "\n"
    assert captured.out == expected


def test_lookup_miss_marks_unknown_and_fails(dic_path, capsys):
    code = main(["lookup", dic_path, "ped", "nope"])
    captured = capsys.readouterr()
    assert code == 1
    assert "ped:\n" in captured.out
    assert "nope: *UNKNOWN*\n" in captured.out


def test_lookup_porcelain_escapes_newlines(dic_path, capsys):
    code = main(["lookup", "--porcelain", dic_path, "era", "nope"])
    captured = capsys.readouterr()
    assert code == 1
    era, nope = captured.out.splitlines()
    assert era == "era\t" + ERA_CANON.rstrip("\n").replace("\n", "\\n")
    assert nope == "nope\t*UNKNOWN*"


# Characters str.splitlines() breaks at besides "\n" and "\r".
LINE_BREAKS_IN_VALUES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize(
    "command, surface, head",
    [("lookup", "a", "a:\n  concat = s\n"), ("analyze", "ab", "ab: Word - a+b\n")],
    ids=["lookup", "analyze"],
)
def test_queries_print_a_quoted_value_on_one_line(tmp_path, capsys, command, surface, head):
    gloss = '  gloss = "x%sy"\n' % LINE_BREAKS_IN_VALUES
    dic = tmp_path / "breaks.dic"
    dic.write_text(
        "LEXIFORGE-OBJDICT 1\na\n  concat = s\n" + gloss + "\nb\n  concat = e\n\n",
        encoding="utf-8",
    )
    rules = tmp_path / "breaks.rules"
    rules.write_text(
        "#WF-RULES\n\nWord -> S E\n  S concat = s\n  E concat = e\n  Word gloss = S gloss\n",
        encoding="utf-8",
    )
    argv = [command, str(dic)] + ([str(rules)] if command == "analyze" else []) + [surface]
    assert main(argv) == 0
    assert capsys.readouterr().out == head + gloss + "\n"


# -- analyze --------------------------------------------------------------------

def test_analyze_human_output(dic_path, rules_path, capsys):
    code = main(["analyze", dic_path, rules_path, "pedíamos"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "pedíamos: Word pedir ped+íamos"
    assert "  lex = pedir" in lines
    assert "  vinfo tense = impf" in lines


def test_analyze_porcelain_record(dic_path, rules_path, capsys):
    code = main(["analyze", "--porcelain", dic_path, rules_path, "pido"])
    captured = capsys.readouterr()
    assert code == 0
    fields = captured.out.rstrip("\n").split("\t")
    assert fields[0] == "pido"
    assert fields[1] == "Word"
    assert fields[2] == "pedir"
    assert fields[3] == "pid+o"
    assert "\\n" in fields[4] and "agr num = sing" in fields[4]


def test_analyze_miss(dic_path, rules_path, capsys):
    code = main(["analyze", dic_path, rules_path, "pedo"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "pedo: *UNKNOWN*\n"


def test_analyze_porcelain_miss(dic_path, rules_path, capsys):
    code = main(["analyze", "--porcelain", dic_path, rules_path, "pedo", "pido"])
    captured = capsys.readouterr()
    assert code == 1
    miss, hit = captured.out.splitlines()
    assert miss == "pedo\t*UNKNOWN*"
    assert hit.startswith("pido\tWord\tpedir\tpid+o\t")


# -- generate --------------------------------------------------------------------

def test_generate_with_constraints(dic_path, rules_path, capsys):
    code = main(
        [
            "generate", dic_path, rules_path, "pedir",
            "vinfo.tense=impf", "agr.pers=1", "agr.num=plu",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "pedíamos\n"


def test_generate_lists_sorted_distinct_surfaces(dic_path, rules_path, capsys):
    code = main(["generate", dic_path, rules_path, "amar", "vinfo.tense=impf"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        "amaba", "amabais", "amaban", "amabas", "amábamos",
    ]


def test_generate_accepts_value_disjunctions(dic_path, rules_path, capsys):
    code = main(
        ["generate", dic_path, rules_path, "pedir",
         "vinfo.tense=impf", "agr.pers=1,3", "agr.num=sing"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "pedía\n"


def test_generate_no_answer(dic_path, rules_path, capsys):
    code = main(["generate", dic_path, rules_path, "correr"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "*UNKNOWN*\n"


def test_generate_over_the_bound_reports_the_rule(dic_path, tmp_path, capsys):
    # two stems of pedir and three constituents free over 41 entries
    rules = tmp_path / "free.rules"
    rules.write_text("#WF-RULES\n\nWord -> Stem A B C\n  Word lex = Stem lex\n", encoding="utf-8")
    code = main(["generate", dic_path, str(rules), "pedir"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "%s:3: rule 'Word -> Stem A B C' has 137842 candidate combinations, "
        "more than the 100000 generation tries\n" % rules
    )

@pytest.mark.parametrize(
    "constraint",
    [
        "vinfo.tense", "=impf", "vinfo.tense=", "lex=a lex.sub=b", "vinfo.$x=impf",
        "vinfo.tense=impf vinfo.tense=pres", "agr.pers=1 agr.num=plu agr=x",
        "agr..pers=1", "agr.=1", ".agr=1", "vinfo.tense=impf,,pres", "vinfo.tense=impf,",
        "vinfo.tense=,impf",
    ],
)
def test_generate_rejects_bad_constraints(dic_path, rules_path, capsys, constraint):
    code = main(
        ["generate", dic_path, rules_path, "pedir"] + constraint.split()
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "bad constraint" in captured.err


@pytest.mark.parametrize(
    "constraints,message",
    [
        (
            "agr.pers=1 agr=sing",
            "bad constraint 'agr=sing': leaf 'agr' would replace the features below it",
        ),
        (
            "agr=sing agr.pers=1",
            "bad constraint 'agr.pers=1': path 'agr pers' descends through the leaf at 'agr'",
        ),
    ],
)
def test_a_constraint_above_or_below_another_names_the_clash(
    dic_path, rules_path, capsys, constraints, message
):
    code = main(["generate", dic_path, rules_path, "amar"] + constraints.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert "given twice" not in captured.err


# -- dump and stats ------------------------------------------------------------------

def test_dump_reprints_the_stored_bytes(dic_path, capsys):
    code = main(["dump", dic_path])
    captured = capsys.readouterr()
    assert code == 0
    with open(dic_path, encoding="utf-8") as handle:
        assert captured.out == handle.read()


def test_stats_summary(dic_path, capsys):
    code = main(["stats", dic_path])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "entries: 41\nsurfaces: 41\nlemmas: 14\nhomographs: 0\n"
    )


# -- index features --------------------------------------------------------------------

def _renamed_fixture(fixtures_dir, tmp_path):
    """The Spanish fixture, sources and rules, with `lex` renamed `lemma`
    and `concat` renamed `cat`, compiled; (dictionary, rules) paths."""
    for name in ("spanish.lex", "classes.lex", "morphemes.lex", "wf.rules"):
        text = (fixtures_dir / name).read_text(encoding="utf-8")
        text = re.sub(r"\bconcat\b", "cat", re.sub(r"(?<!\.)\blex\b", "lemma", text))
        (tmp_path / name).write_text(text, encoding="utf-8")
    dic = str(tmp_path / "spanish.dic")
    assert main(["compile", str(tmp_path / "spanish.lex"), "-o", dic]) == 0
    return dic, str(tmp_path / "wf.rules")


def test_queries_read_the_index_features_they_are_given(
    dic_path, rules_path, fixtures_dir, tmp_path, capsys
):
    dic, rules = _renamed_fixture(fixtures_dir, tmp_path)
    capsys.readouterr()

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def readings(code, out):  # surface, category, lemma, parts; not the tree
        return code, [line.split("\t")[:4] for line in out.splitlines()]

    surfaces = ["pedíamos", "pido", "amaba", "pedo"]
    renamed = run("analyze", "--porcelain", dic, rules, *surfaces, "--lex-feature", "lemma")
    default = run("analyze", "--porcelain", dic_path, rules_path, *surfaces)
    assert readings(*renamed) == readings(*default)
    flags = ["--lex-feature", "lemma"]
    for query in (
        ["pedir", "vinfo.tense=impf", "agr.pers=1", "agr.num=plu"],
        ["amar", "vinfo.tense=impf"],
        ["correr"],
    ):
        assert run("generate", dic, rules, *query, *flags) == run(
            "generate", dic_path, rules_path, *query
        ), query
    assert run("stats", dic, "--lex-feature", "lemma") == run("stats", dic_path)
    # the defaults name features this dictionary does not hold
    assert run("generate", dic, rules, "amar", "vinfo.tense=impf") == (1, "*UNKNOWN*\n")


# -- unusable inputs -------------------------------------------------------------------

def test_missing_dictionary(capsys):
    code = main(["stats", "no/such.dic"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read no/such.dic" in captured.err


def test_undecodable_dictionary(tmp_path, capsys):
    bad = tmp_path / "bad.dic"
    bad.write_bytes(b"LEXIFORGE-OBJDICT 1\n\xff\xfe\n")
    code = main(["stats", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid UTF-8 at byte 20" in captured.err


@pytest.mark.parametrize("first", ["x\n  a = 1\n\n", "x\n  a = 1\n  a = 2\n\n"], ids=["valid", "malformed"])
def test_a_bad_byte_past_the_first_block_is_reported_at_its_offset(tmp_path, capsys, first):
    # load reads the file in blocks of 64 KiB characters; the offset is
    # the byte's in the whole file, and it is reported even after a
    # malformed entry, as when the file was read whole
    head = ("LEXIFORGE-OBJDICT 1\n" + first + "é\n  a = 1\n\n" * 20000).encode("utf-8")
    assert len(head) > 2 * 65536
    bad = tmp_path / "bad.dic"
    bad.write_bytes(head + b"\xff\n  a = 1\n\n")
    code = main(["stats", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "%s: invalid UTF-8 at byte %d\n" % (bad, len(head))


def test_malformed_dictionary(tmp_path, capsys):
    bad = tmp_path / "bad.dic"
    bad.write_text("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  a = 2\n\n", encoding="utf-8")
    code = main(["stats", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 4: duplicate feature path 'a'" in captured.err


def test_wrong_dictionary_version(tmp_path, capsys):
    bad = tmp_path / "bad.dic"
    bad.write_text("LEXIFORGE-OBJDICT 9\n", encoding="utf-8")
    code = main(["stats", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported dictionary version" in captured.err


def test_malformed_rules_file(dic_path, tmp_path, capsys):
    rules = tmp_path / "bad.rules"
    rules.write_text("#WF-RULES\n\nWord -> Stem\n", encoding="utf-8")
    code = main(["analyze", dic_path, str(rules), "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert "at least two constituents" in captured.err


@pytest.mark.parametrize("command", [["analyze", "pido"], ["generate", "pedir"]])
def test_a_rule_equating_a_place_with_its_extension_exits_2(dic_path, tmp_path, capsys, command):
    rules = tmp_path / "cycle.rules"
    rules.write_text(
        "#WF-RULES\n\nWord -> Stem Ending\n  Word lex = Stem lex\n"
        "\nW -> A B\n  A p = B q\n  B q x = A p\n",
        encoding="utf-8",
    )
    code = main([command[0], dic_path, str(rules), command[1]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "%s:6: error: the equations equate a place with its own extension\n" % rules
    )


def test_carriage_return_in_a_rules_file_exits_2(dic_path, tmp_path, capsys):
    rules = tmp_path / "cr.rules"
    rules.write_bytes(b'#WF-RULES\nW -> A B\n  A p = "a\rb"\n')
    code = main(["analyze", dic_path, str(rules), "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "%s:3: error: unterminated string" % rules in captured.err


def test_empty_rules_file_exits_2(dic_path, tmp_path, capsys):
    rules = tmp_path / "empty.rules"
    rules.write_text("", encoding="utf-8")
    code = main(["analyze", dic_path, str(rules), "pido"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("%s:1: " % rules)
    assert "expected the #WF-RULES header first" in captured.err


# -- the installed entry point -----------------------------------------------------------

def test_module_runs_as_a_subprocess(dic_path, rules_path):
    # the child finds lexiforge where this process found it
    src = os.path.dirname(os.path.dirname(lexiforge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [
            sys.executable, "-m", "lexiforge.cli",
            "generate", dic_path, rules_path, "pedir",
            "vinfo.tense=impf", "agr.pers=1", "agr.num=plu",
        ],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.decode("utf-8") == "pedíamos\n"


def test_a_reader_that_stops_early_ends_the_command_quietly(tmp_path):
    # `lexiforge check base.lex | head -2`: stdout's pipe closes while
    # thousands of diagnostics are still to be printed
    src = tmp_path / "base.lex"
    src.write_text(
        "#DATA-DICT\n\nlex =\n\n#WORDS\n\n"
        + "".join("w%d\ncolour = red\n\n" % i for i in range(5000)),
        encoding="utf-8",
    )
    package = os.path.dirname(os.path.dirname(lexiforge.__file__))
    path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "lexiforge.cli", "check", str(src)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert first == b"warning w0 colour: feature 'colour' is not declared\n"
    assert err == b""
