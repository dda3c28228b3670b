"""Every name the benchmark's tracer hooks still exists in lexiforge,
and the compiler's, the engine's and the loader's hooks are still called.

`perfbench/tracer.py` wraps module and class attributes by name and
stops a traced run with `MissingHook` when one is gone; `run.py`
fails a traced run when a layer reads 0 on a workload that runs it,
or not 0 on one that does not.  Checking the same here makes a change
that drops a name, or routes around it, fail the test suite instead
of a later traced benchmark run.  The tracer is loaded from its file
and only read.
"""

import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

from lexiforge import cli, dict_compiler, morph_engine, object_dict
from lexiforge.alo_rules import CompiledAloRule
from lexiforge.feature_tree import EMPTY_TREE, FeatureTree, leaf
from lexiforge.object_dict import ObjectDictionary, ObjectEntry
from sources import parse_tree

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "pedir_minimal.dic"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = ("COMPILE_SPANS", "SERVE_SPANS", "SHARED_SPANS", "CALL_COUNTS", "YIELD_COUNTS")


def _hooked_names():
    tracer = _load_tracer()
    return [(row[0], row[1]) for table in TABLES for row in getattr(tracer, table)]


HOOKED = _hooked_names()


def test_every_table_hooks_something():
    tracer = _load_tracer()
    assert all(getattr(tracer, table) for table in TABLES)


@pytest.mark.parametrize("module,path", HOOKED, ids=["%s:%s" % hook for hook in HOOKED])
def test_every_hooked_name_resolves(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = inspect.getattr_static(owner, part)
    inspect.getattr_static(owner, attr)  # raises AttributeError when the name is gone


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls of each name the tracer hooks in morph_engine, counted."""
    calls = {"unify": 0, "product": 0, "combinations": 0}
    for name in calls:
        original = getattr(morph_engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(morph_engine, name, counted)
    return calls


def test_analyze_calls_the_split_and_combination_hooks(spanish_dict, wf_rules, engine_calls):
    for surface in ("pedíamos", "pido", "amaba", "pedo"):
        morph_engine.analyze(surface, spanish_dict, wf_rules)
    assert engine_calls["combinations"] > 0
    assert engine_calls["product"] > 0
    assert engine_calls["unify"] == 0


def test_generate_calls_the_combination_and_unify_hooks(
    spanish_dict, wf_rules, engine_calls, monkeypatch
):
    # the unify hook counts only the final check of each result tree
    # against the constraints, at most one per combination tried, each
    # of which a `product` yields
    yielded = []
    hooked = morph_engine.product

    def counted(*lists):
        for item in hooked(*lists):
            yielded.append(item)
            yield item

    monkeypatch.setattr(morph_engine, "product", counted)
    constraints = (
        EMPTY_TREE.set(("vinfo", "tense"), leaf("impf"))
        .set(("agr", "pers"), leaf("1"))
        .set(("agr", "num"), leaf("plu"))
    )
    assert morph_engine.generate("pedir", constraints, spanish_dict, wf_rules) == ["pedíamos"]
    assert engine_calls["product"] > 0
    assert 0 < engine_calls["unify"] <= len(yielded)


def _counted(monkeypatch, owner, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_generate_on_a_fresh_dictionary_calls_the_index_hooks(monkeypatch, wf_rules):
    # a dictionary keeps the candidates it draws by category, so only
    # its first generate looks them up: load one afresh
    calls = _counted(monkeypatch, ObjectDictionary, ("lookup_by_lemma", "lookup_by_concat"))
    dictionary = object_dict.load(io.StringIO(GOLDEN.read_text(encoding="utf-8")))
    morph_engine.generate("pedir", EMPTY_TREE, dictionary, wf_rules)
    assert calls["lookup_by_lemma"] > 0 and calls["lookup_by_concat"] > 0


def test_analyze_of_two_readings_of_one_category_calls_the_canonical_form_hook(monkeypatch):
    # a category's first reading gets its canonical form only when a
    # second one arrives
    dictionary = ObjectDictionary.build(
        [
            ObjectEntry(surface, parse_tree(text))
            for surface, text in (
                ("k", "lex = ka"), ("ka", "lex = ka"), ("aa", "agr = 1"), ("a", "agr = 2")
            )
        ]
    )
    rules = morph_engine.parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem End\n  Word lex = Stem lex\n  Word agr = End agr\n"
    )
    calls = _counted(monkeypatch, FeatureTree, ("canonical_form",))
    assert len(morph_engine.analyze("kaa", dictionary, rules)) == 2
    assert calls["canonical_form"] > 0


def test_load_calls_the_parse_equation_hook(monkeypatch):
    calls = []
    original = object_dict.parse_equation

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(object_dict, "parse_equation", counted)
    text = GOLDEN.read_text(encoding="utf-8")
    object_dict.load(io.StringIO(text))
    distinct = {line for line in text.split("\n") if line.startswith("  ")}
    assert 0 < len(calls) <= len(distinct)


def test_compile_calls_every_compile_hook(fixtures_dir, tmp_path, monkeypatch):
    # each name the tracer hooks on `compile` is called at least once
    calls = [
        _counted(monkeypatch, cli, ("parse_source", "compile_base", "save")),
        _counted(monkeypatch, dict_compiler, ("resolve_all", "check_base", "apply_dict_rule")),
        _counted(monkeypatch, CompiledAloRule, ("apply",)),
    ]
    out = tmp_path / "spanish.dic"
    assert cli.main(["compile", str(fixtures_dir / "spanish.lex"), "-o", str(out)]) == 0
    assert [{name for name, n in counts.items() if n == 0} for counts in calls] == [set()] * 3
