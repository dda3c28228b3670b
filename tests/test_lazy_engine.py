"""Only `analyze` and `generate` load the word-formation engine.

`import lexiforge` and `import lexiforge.cli` leave `morph_engine`
unimported, and so do the commands that compile a base or read a
dictionary; the package's engine names resolve on first use.  This
suite imports the engine itself, so each check runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import lexiforge
from lexiforge.cli import main

SRC = os.path.dirname(os.path.dirname(lexiforge.__file__))
ENGINE = "lexiforge.morph_engine"


def run_child(script: str, *args: str) -> str:
    """stdout of `script` in a new interpreter that finds this lexiforge."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


COMMANDS_SCRIPT = """
import contextlib, io, json, sys
import lexiforge.cli
from lexiforge.cli import main

loaded = {"import": %(engine)r in sys.modules}
outputs = {}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    loaded[argv[0]] = %(engine)r in sys.modules
    outputs[argv[0]] = [code, out.getvalue()]
print(json.dumps({"loaded": loaded, "outputs": outputs}))
""" % {"engine": ENGINE}


def test_only_analyze_and_generate_load_the_engine(fixtures_dir, tmp_path, capsys):
    lex, rules = str(fixtures_dir / "spanish.lex"), str(fixtures_dir / "wf.rules")
    dic = str(tmp_path / "spanish.dic")
    commands = [
        ["compile", lex, "-o", dic],
        ["check", lex],
        ["lookup", dic, "pido", "nada"],
        ["dump", dic],
        ["stats", dic],
        ["analyze", dic, rules, "pedíamos", "pido", "pedo"],
        ["generate", dic, rules, "pedir", "vinfo.tense=impf", "agr.pers=1,3"],
    ]
    report = json.loads(run_child(COMMANDS_SCRIPT, json.dumps(commands)))
    assert report["loaded"] == {
        "import": False,
        "compile": False,
        "check": False,
        "lookup": False,
        "dump": False,
        "stats": False,
        "analyze": True,
        "generate": True,
    }
    # every command prints what it prints here, where the engine is loaded
    for argv in commands:
        code = main(argv)
        assert [code, capsys.readouterr().out] == report["outputs"][argv[0]], argv[0]
    assert report["outputs"]["generate"] == [0, "pedía\npedíamos\npedían\n"]


def test_a_bare_import_leaves_the_engine_unloaded_until_a_name_is_read():
    script = (
        "import sys, lexiforge\n"
        "print(%(e)r in sys.modules)\n"
        "print(hasattr(lexiforge, 'no_such_name'), %(e)r in sys.modules)\n"
        "print(lexiforge.analyze.__module__, %(e)r in sys.modules)\n"
        "print(lexiforge.morph_engine is sys.modules[%(e)r])\n"
    ) % {"e": ENGINE}
    assert run_child(script) == "False\nFalse False\n%s True\nTrue\n" % ENGINE


def test_a_star_import_binds_every_public_name():
    script = (
        "import lexiforge\n"
        "namespace = {}\n"
        "exec('from lexiforge import *', namespace)\n"
        "print(sorted(set(lexiforge.__all__) - set(namespace)))\n"
        "print(namespace['generate'] is lexiforge.morph_engine.generate)\n"
    )
    assert run_child(script) == "[]\nTrue\n"


def test_dir_lists_every_public_name_before_the_engine_loads():
    script = (
        "import sys, lexiforge\n"
        "print(sorted(set(lexiforge.__all__) - set(dir(lexiforge))))\n"
        "print(%r in sys.modules)\n"
    ) % ENGINE
    assert run_child(script) == "[]\nFalse\n"


@pytest.mark.parametrize("name", ["no_such_name", "morph_engines"])
def test_an_unknown_name_is_an_attribute_error(name):
    assert not hasattr(lexiforge, name)
    with pytest.raises(AttributeError, match=name):
        getattr(lexiforge, name)
