"""End-to-end acceptance checks.

Every test here covers one numbered claim about the system and prints
a single `ACCEPTANCE <n> <name>: PASS|FAIL` line (plus indented
measurement notes) straight to the terminal, so a full run leaves an
auditable record.  The assertions inside the `criterion` block carry
the actual tolerances; the printed line only reports how they went.
"""

import io
import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

from lexiforge.dict_compiler import compile_base
from lexiforge.feature_tree import (
    EMPTY_TREE,
    FeatureTree,
    ValueSet,
    leaf,
    unify,
)
from lexiforge.morph_engine import analyze, generate, parse_wf_rules
from lexiforge.object_dict import ObjectDictionary, ObjectEntry, load, save
from lexiforge.source import SourceBase, parse_source, parse_source_text
from lexiforge.inheritance import linearize, resolve

from oracles import (
    all_pairs_analyses,
    greedy_rewrite,
    nearest_definer_tree,
    preorder_first_occurrence,
    random_hierarchy,
)
from sources import sorted_lemmas

from conftest import FIXTURES, GOLDEN


@contextmanager
def criterion(capsys, number, name):
    notes = []
    try:
        yield notes.append
    except BaseException:
        _emit(capsys, number, name, "FAIL", notes)
        raise
    _emit(capsys, number, name, "PASS", notes)


def _emit(capsys, number, name, verdict, notes):
    with capsys.disabled():
        print("ACCEPTANCE %d %s: %s" % (number, name, verdict))
        for text in notes:
            print("  " + text)


def compile_fixture(name):
    parsed = parse_source(str(FIXTURES / name))
    assert parsed.ok, parsed.diagnostics
    compiled = compile_base(parsed.base)
    assert compiled.ok, compiled.diagnostics
    return compiled.dictionary


def dictionary_bytes(dictionary) -> str:
    out = io.StringIO()
    save(dictionary, out)
    return out.getvalue()


# -- 1: the worked fragment compiles to frozen bytes -------------------------------

def test_golden_dictionary_bytes(capsys):
    with criterion(capsys, 1, "golden dictionary bytes") as note:
        started = time.perf_counter()
        dictionary = compile_fixture("pedir_minimal.lex")
        text = dictionary_bytes(dictionary)
        elapsed = time.perf_counter() - started
        note("compile and save: %.3fs (bound 1s)" % elapsed)
        assert elapsed < 1.0

        golden = (GOLDEN / "pedir_minimal.dic").read_bytes()
        assert text.encode("utf-8") == golden

        (pid,) = dictionary.lookup("pid")
        assert pid.tree.get(("lex",)) == leaf("pedir")
        assert pid.tree.get(("concat",)) == leaf("vl")
        assert pid.tree.get(("sut",)) == leaf("reg")
        assert pid.tree.get(("stt",)) == leaf(
            "11", "12", "13", "16", "33", "36",
            "51", "52", "53", "54", "55", "56",
            "61", "62", "63", "64", "65", "66", "82", "90",
        )


# -- 2: stem rewriting matches a split enumerator ------------------------------------

def test_allomorphy_matches_split_oracle(capsys):
    with criterion(capsys, 2, "allomorphy split oracle") as note:
        parsed = parse_source(str(FIXTURES / "pedir_minimal.lex"))
        rule = parsed.base.alo_rules["rv8c"]
        from lexiforge.alo_rules import compile_alo_rule

        engine = compile_alo_rule(rule)
        assert engine.apply("pedir") == "pid"
        assert engine.apply("repetir") == "repit"
        assert engine.apply("medir") == "mid"
        assert engine.apply("amar") is None

        rng = random.Random(94060)
        alphabet = "abcdeimprst"
        mismatches = 0
        for _ in range(1000):
            argument = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 13))
            )
            if engine.apply(argument) != greedy_rewrite(rule, argument):
                mismatches += 1
        note("1000 random strings, %d mismatches" % mismatches)
        assert mismatches == 0


# -- 3: unification obeys its laws ----------------------------------------------------

_LAW_LABELS = "abcdefg"
_LAW_ATOMS = ["1", "2", "3", "x", "y"]


def random_tree(rng, depth):
    children = {}
    for label in rng.sample(_LAW_LABELS, rng.randrange(0, 4)):
        if depth <= 1 or rng.random() < 0.6:
            texts = rng.sample(_LAW_ATOMS, rng.randrange(1, 3))
            children[label] = ValueSet(texts)
        else:
            children[label] = random_tree(rng, depth - 1)
    return FeatureTree(children)


def _leaf_map(tree):
    return dict(tree.leaves())


def test_unification_laws(capsys):
    with criterion(capsys, 3, "unification laws") as note:
        rng = random.Random(35503)
        pairs = 10_000
        successes = 0
        for _ in range(pairs):
            a = random_tree(rng, 4)
            b = random_tree(rng, 4)

            ab = unify(a, b)
            ba = unify(b, a)
            # failure symmetry
            assert (ab is None) == (ba is None)
            # commutativity up to canonical form
            if ab is not None:
                assert ab.canonical_form() == ba.canonical_form()
            # idempotence
            aa = unify(a, a)
            assert aa is not None and aa.canonical_form() == a.canonical_form()
            # unit law
            assert unify(a, EMPTY_TREE).canonical_form() == a.canonical_form()
            assert unify(EMPTY_TREE, a).canonical_form() == a.canonical_form()
            # subsumption of both arguments
            if ab is not None:
                successes += 1
                got = _leaf_map(ab)
                sources = _leaf_map(a), _leaf_map(b)
                for source in sources:
                    for path, values in source.items():
                        assert path in got
                        assert got[path].texts() <= values.texts()
                for path in got:
                    assert any(path in source for source in sources)
        note("%d pairs, %d successful unifications, 0 violations" % (pairs, successes))
        assert successes > 500  # the success branch was genuinely exercised


# -- 4: inheritance matches the nearest definer ----------------------------------------

def test_inheritance_matches_nearest_definer(capsys):
    with criterion(capsys, 4, "inheritance nearest-definer oracle") as note:
        rng = random.Random(47114)
        cases = 1000
        for _ in range(cases):
            entry, classes = random_hierarchy(
                rng, max_classes=10, max_parents=4, max_depth=3
            )
            assert linearize(entry, classes) == tuple(
                preorder_first_occurrence(entry, classes)
            )
            expected = {
                path: ValueSet(values)
                for path, values in nearest_definer_tree(entry, classes).items()
            }
            resolved = resolve(entry, SourceBase(classes=classes))
            assert dict(resolved.tree.leaves()) == expected
        note("%d hierarchies, 0 mismatches" % cases)


# -- 5: the analyzer agrees with brute force -------------------------------------------

def spanish():
    dictionary = compile_fixture("spanish.lex")
    rules = parse_wf_rules(
        (FIXTURES / "wf.rules").read_text(encoding="utf-8"), "wf.rules"
    )
    return dictionary, rules


def test_analysis_matches_all_pairs_filter(capsys):
    with criterion(capsys, 5, "analyzer equals all-pairs filter") as note:
        dictionary, rules = spanish()
        lemmas = sorted_lemmas(dictionary)
        lexemes = parse_source(str(FIXTURES / "spanish.lex")).base.lexemes
        lemmas = [l for l in lemmas if dictionary.lookup_by_lemma(l)[0].source_name in lexemes]
        conjugations = set()
        for lemma in lemmas:
            for entry in dictionary.lookup_by_lemma(lemma):
                conjugations.update(entry.tree.get(("conj",)).texts())
        assert len(lemmas) >= 10
        assert conjugations == {"1", "2", "3"}

        forms = set()
        for lemma in lemmas:
            forms.update(generate(lemma, EMPTY_TREE, dictionary, rules))
        note("%d verbs over %d conjugations, %d forms" % (len(lemmas), len(conjugations), len(forms)))
        assert len(forms) >= 120

        rng = random.Random(55005)
        alphabet = sorted({c for f in forms for c in f})
        corpus = sorted(forms)
        strings = list(corpus)
        for _ in range(200):
            base = rng.choice(corpus)
            kind = rng.randrange(3)
            pos = rng.randrange(len(base))
            if kind == 0:
                mutated = base[:pos] + rng.choice(alphabet) + base[pos:]
            elif kind == 1:
                mutated = base[:pos] + base[pos + 1 :]
            else:
                mutated = base[:pos] + rng.choice(alphabet) + base[pos + 1 :]
            strings.append(mutated)

        started = time.perf_counter()
        results = {s: analyze(s, dictionary, rules) for s in strings}
        elapsed = time.perf_counter() - started
        note(
            "analyzed %d strings (%d corruptions) in %.3fs (bound 5s)"
            % (len(strings), 200, elapsed)
        )
        assert elapsed < 5.0

        for s, analyses in results.items():
            got = {(a.category, a.tree.canonical_form()) for a in analyses}
            expected = all_pairs_analyses(s, dictionary, rules)
            assert got == expected, s


# -- 6: generation round-trips through analysis ------------------------------------------

def test_generation_round_trip(capsys):
    with criterion(capsys, 6, "generation round trip") as note:
        dictionary, rules = spanish()
        parsed = parse_source(str(FIXTURES / "spanish.lex"))
        lemmas = sorted(parsed.base.lexemes)
        checked = 0
        for lemma in lemmas:
            for surface in generate(lemma, EMPTY_TREE, dictionary, rules):
                analyses = analyze(surface, dictionary, rules)
                assert lemma in {a.lemma for a in analyses}, (lemma, surface)
                checked += 1

            cells = 0
            for pers, num in product(("1", "2", "3"), ("sing", "plu")):
                constraints = (
                    EMPTY_TREE.set(("vinfo", "tense"), leaf("impf"))
                    .set(("agr", "pers"), leaf(pers))
                    .set(("agr", "num"), leaf(num))
                )
                surfaces = generate(lemma, constraints, dictionary, rules)
                assert len(surfaces) == 1, (lemma, pers, num, surfaces)
                cells += 1
                matching = [
                    a
                    for a in analyze(surfaces[0], dictionary, rules)
                    if a.lemma == lemma and unify(a.tree, constraints) is not None
                ]
                assert matching, (lemma, pers, num)
            assert cells == 6
        note("%d lemmas, %d surfaces round-tripped, 6 imperfect cells each" % (len(lemmas), checked))


# -- 7: declaration checking catches the seeded faults -------------------------------------

def _fixture_files():
    return {
        name: (FIXTURES / name).read_text(encoding="utf-8")
        for name in ("spanish.lex", "classes.lex", "morphemes.lex")
    }


def test_feature_declaration_checks(capsys):
    with criterion(capsys, 7, "feature declaration checks") as note:
        files = _fixture_files()
        clean = compile_base(
            parse_source_text(files["spanish.lex"], "spanish.lex", files).base
        )
        assert clean.ok and clean.diagnostics == []

        files = _fixture_files()
        files["morphemes.lex"] = files["morphemes.lex"].replace(
            "agr pers = 1\n", "agr pers = 4\n", 1
        )
        bad_person = compile_base(
            parse_source_text(files["spanish.lex"], "spanish.lex", files).base
        )
        assert not bad_person.ok
        assert any(
            "value 4 not in closed set {1,2,3}" == d.message
            for d in bad_person.diagnostics
        )

        files = _fixture_files()
        files["spanish.lex"] = files["spanish.lex"].replace(
            "agr pers = 1 3\n", "agr pers = 1 3\nagr gen = masc\n", 1
        )
        bad_shape = compile_base(
            parse_source_text(files["spanish.lex"], "spanish.lex", files).base
        )
        assert not bad_shape.ok
        assert any(
            "match no alternative of @(gen num) @(num pers)" in d.message
            and "{gen,num,pers}" in d.message
            for d in bad_shape.diagnostics
        )
        note("clean base: 0 errors; both seeded faults reported")


# -- 8: persistence is deterministic ----------------------------------------------------

_WORD_LETTERS = "abcdefghij"


def _random_entries(rng):
    entries = []
    for _ in range(rng.randrange(1, 13)):
        surface = "".join(
            rng.choice(_WORD_LETTERS) for _ in range(rng.randrange(1, 9))
        )
        entries.append(ObjectEntry(surface, random_tree(rng, 3)))
    return entries


def test_persistence_determinism(capsys):
    with criterion(capsys, 8, "persistence determinism") as note:
        first = dictionary_bytes(compile_fixture("spanish.lex"))
        second = dictionary_bytes(compile_fixture("spanish.lex"))
        assert first == second

        rng = random.Random(66006)
        for _ in range(100):
            built = ObjectDictionary.build(_random_entries(rng))
            saved = dictionary_bytes(built)
            reloaded = load(io.StringIO(saved))
            assert dictionary_bytes(reloaded) == saved
            assert sorted(
                (e.surface, e.tree.canonical_form()) for e in reloaded.entries
            ) == sorted((e.surface, e.tree.canonical_form()) for e in built.entries)
        note("recompilation byte-identical; 100 random dictionaries round-tripped")


# -- 9: scale smoke test -----------------------------------------------------------------

def test_scale_smoke(capsys):
    with criterion(capsys, 9, "scale smoke") as note:
        count = 10_000
        chunks = ['#INCLUDE "classes.lex"\n#INCLUDE "morphemes.lex"\n\n#LEXEMES\n']
        for i in range(count):
            chunks.append("\nv%05dar (MVreg C1)\n" % i)
        files = _fixture_files()
        files["scale.lex"] = "".join(chunks)

        started = time.perf_counter()
        parsed = parse_source_text(files["scale.lex"], "scale.lex", files)
        assert parsed.ok, parsed.diagnostics[:3]
        compiled = compile_base(parsed.base)
        assert compiled.ok, compiled.diagnostics[:3]
        elapsed = time.perf_counter() - started
        dictionary = compiled.dictionary
        lemma_entries = sum(
            1 for e in dictionary.entries if e.source_name in parsed.base.lexemes
        )
        note("compiled %d lemmas in %.1fs (bound 30s)" % (lemma_entries, elapsed))
        assert elapsed < 30.0
        assert lemma_entries == count

        rng = random.Random(77007)
        surfaces = ["v%05d" % rng.randrange(count) for _ in range(80_000)]
        surfaces += ["x%05d" % rng.randrange(count) for _ in range(20_000)]
        rng.shuffle(surfaces)
        lookup = dictionary.lookup
        started = time.perf_counter()
        hits = 0
        for surface in surfaces:
            if lookup(surface):
                hits += 1
        elapsed = time.perf_counter() - started
        rate = len(surfaces) / elapsed
        note("%d lookups at %d/s (soft target 50000/s)" % (len(surfaces), rate))
        assert hits == 80_000

        for _ in range(100):
            i = rng.randrange(count)
            (entry,) = dictionary.lookup("v%05d" % i)
            assert entry.tree.get(("lex",)) == leaf("v%05dar" % i)
            assert entry.tree.get(("conj",)) == leaf("1")
            assert dictionary.lookup_by_lemma("v%05dar" % i) == [entry]
