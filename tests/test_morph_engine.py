import gc
import io
import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexiforge import morph_engine
from lexiforge.feature_tree import (
    BLOCKED,
    EMPTY_TREE,
    FeatureTree,
    PathThroughLeaf,
    leaf,
    meet,
    unify,
)
from lexiforge.morph_engine import (
    MAX_COMBINATIONS,
    GenerationLimit,
    PathEquation,
    ValueEquation,
    WFRule,
    _clash,
    _execute,
    analyze,
    generate,
    parse_wf_rules,
)
from lexiforge.object_dict import ObjectDictionary, ObjectEntry, load, save
from lexiforge.source import SourceSyntaxError

from oracles import all_pairs_analyses, all_pairs_generation, ordered_analyses
from sources import parse_tree, sorted_lemmas
from test_dict_compiler import count_constructions


RULES = """\
#WF-RULES

Word -> Stem Ending
  Stem concat = vl
  Ending concat = vm
  Stem stt = Ending stt
  Word lex = Stem lex
"""


# -- rule parsing ---------------------------------------------------------------

def test_rule_shape():
    (rule,) = parse_wf_rules(RULES)
    assert rule.lhs == "Word"
    assert rule.rhs == ("Stem", "Ending")
    assert len(rule.equations) == 4


def test_equation_kinds():
    (rule,) = parse_wf_rules(RULES)
    first, _, third, fourth = rule.equations
    assert isinstance(first, ValueEquation)
    assert first.root == "Stem" and first.path == ("concat",)
    assert first.values == leaf("vl")
    assert isinstance(third, PathEquation)
    assert (third.left_root, third.left_path) == ("Stem", ("stt",))
    assert (third.right_root, third.right_path) == ("Ending", ("stt",))
    assert isinstance(fourth, PathEquation)


def test_quoting_forces_a_value_equation():
    rules = parse_wf_rules(
        '#WF-RULES\n\nWord -> Stem Ending\n  Stem kind = "Ending"\n'
    )
    eq = rules[0].equations[0]
    assert isinstance(eq, ValueEquation)
    assert eq.values == leaf("Ending", quoted=True)


def test_multiple_rules_and_blank_lines():
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Ending\n  Stem concat = vl\n\n"
        "  Ending concat = vm\n\nCompound -> Left Right\n  Left concat = w\n"
    )
    assert [r.lhs for r in rules] == ["Word", "Compound"]
    assert len(rules[0].equations) == 2  # a blank line does not end a rule


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("Word -> Stem Ending\n", "expected the #WF-RULES header"),
        ("#WF-RULES\n#WF-RULES\n", "duplicate #WF-RULES header"),
        ("#WF-RULES\nWord -> Stem\n", "at least two constituents"),
        ("#WF-RULES\nWord Stem Ending\n", "at least two constituents"),
        ("#WF-RULES\nWord -> Stem Stem\n", "labels must be distinct"),
        ("#WF-RULES\nWord -> Word Ending\n", "labels must be distinct"),
        ("#WF-RULES\n  Stem concat = vl\n", "equation outside any rule"),
        ("#WF-RULES\nWord -> Stem Ending\n  Thing concat = vl\n", "unknown constituent"),
        ("#WF-RULES\nWord -> Stem Ending\n  Stem = vl\n", "expected a path after 'Stem'"),
        ("#WF-RULES\nWord -> Stem Ending\n  Stem lex = Ending\n", "expected a path after 'Ending'"),
        ("#WF-RULES\nWord -> Stem Ending\n  Stem stem = $rv0\n", "rule calls are not allowed"),
        ('#WF-RULES\nW -> A B\n  A p = B "q"\n', "a string value must be the only value"),
        ('#WF-RULES\nW -> A B\n  A p = "a\rb"\n', "unterminated string"),
        ('#WF-RULES\nW -> S "E"\n', "at least two constituents"),
        ("#WF-RULES\nW -> S E=x\n", "at least two constituents"),
        ("#WF-RULES\nW -> S $E\n", "at least two constituents"),
        ("#WF-RULES\nW -> S #E\n", "unexpected character '#'"),
        ("", "expected the #WF-RULES header"),
        ("; c\n\n", "expected the #WF-RULES header"),
    ],
)
def test_rule_file_errors(text, fragment):
    with pytest.raises(SourceSyntaxError) as exc:
        parse_wf_rules(text)
    assert fragment in str(exc.value)


# -- analysis over the full fixture ----------------------------------------------

def test_regular_imperfect_analysis(spanish_dict, wf_rules):
    analyses = analyze("pedíamos", spanish_dict, wf_rules)
    assert len(analyses) == 1
    a = analyses[0]
    assert a.lemma == "pedir"
    assert a.category == "Word"
    assert [part for part, _ in a.segmentation] == ["ped", "íamos"]
    assert a.tree.get(("vinfo", "tense")) == leaf("impf")
    assert a.tree.get(("agr", "pers")) == leaf("1")
    assert a.tree.get(("agr", "num")) == leaf("plu")


def test_stem_alternant_is_used_in_the_present(spanish_dict, wf_rules):
    analyses = analyze("pido", spanish_dict, wf_rules)
    assert len(analyses) == 1
    assert analyses[0].lemma == "pedir"
    assert [part for part, _ in analyses[0].segmentation] == ["pid", "o"]


def test_homographic_cells_come_out_as_one_disjunctive_reading(spanish_dict, wf_rules):
    analyses = analyze("amaba", spanish_dict, wf_rules)
    assert len(analyses) == 1
    # first and third person singular imperfect are spelled alike
    assert analyses[0].tree.get(("agr", "pers")) == leaf("1", "3")


def test_wrong_stem_for_the_slot_is_rejected(spanish_dict, wf_rules):
    # unstressed imperfect endings demand the plain stem
    assert analyze("pidíamos", spanish_dict, wf_rules) == []
    # present 1sg demands the alternant
    assert analyze("pedo", spanish_dict, wf_rules) == []


def test_analysis_is_graphically_exact(spanish_dict, wf_rules):
    assert analyze("pediamos", spanish_dict, wf_rules) == []  # missing accent
    assert analyze("Pedíamos", spanish_dict, wf_rules) == []
    assert analyze("pedíamos ", spanish_dict, wf_rules) == []


def test_whole_words_are_not_segmented(spanish_dict, wf_rules):
    # 'era' lives in the dictionary as one entry; no rule derives it
    assert analyze("era", spanish_dict, wf_rules) == []
    assert len(spanish_dict.lookup("era")) == 1


def count_canonical_forms(monkeypatch):
    calls = []
    original = FeatureTree.canonical_form

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FeatureTree, "canonical_form", counted)
    return calls


def test_equal_readings_collapse_to_the_first_in_order(monkeypatch):
    # 'k'+'aa' and 'ka'+'a' give the same tree: the reading kept is the
    # one with the earlier cut, and only the two readings get a form
    dictionary = small_dictionary(
        [
            ("k", "lex = ka\nconcat = vl"),
            ("ka", "lex = ka\nconcat = vl"),
            ("aa", "concat = vm\nagr = 1"),
            ("a", "concat = vm\nagr = 2"),
        ]
    )
    calls = count_canonical_forms(monkeypatch)
    (reading,) = analyze("kaa", dictionary, parse_wf_rules(STEM_ENDING))
    assert [part for part, _ in reading.segmentation] == ["k", "aa"]
    assert len(calls) == 2
    # readings that are one and the same empty tree collapse too
    (reading,) = analyze("kaa", dictionary, parse_wf_rules("#WF-RULES\n\nV -> S E\n  V x = E x\n"))
    assert [part for part, _ in reading.segmentation] == ["k", "aa"]


def test_a_single_reading_gets_no_canonical_form(monkeypatch, spanish_dict, wf_rules):
    calls = count_canonical_forms(monkeypatch)
    assert len(analyze("pedíamos", spanish_dict, wf_rules)) == 1
    assert calls == []


def test_equation_order_never_changes_the_outcome(spanish_dict, wf_rules):
    surfaces = ["pedíamos", "pido", "amaba", "come", "pedo", "vivían", "bebíamos"]
    (rule,) = wf_rules
    baseline = {
        s: {a.tree.canonical_form() for a in analyze(s, spanish_dict, [rule])}
        for s in surfaces
    }
    rng = random.Random(3)
    for _ in range(6):
        equations = list(rule.equations)
        rng.shuffle(equations)
        shuffled = type(rule)(rule.name, rule.lhs, rule.rhs, tuple(equations))
        for s in surfaces:
            got = {a.tree.canonical_form() for a in analyze(s, spanish_dict, [shuffled])}
            assert got == baseline[s], s


def test_equation_order_never_changes_a_reading_when_a_link_meets_an_absent_node():
    # the three links make V lex, A lex, B lex and C lex one node, whatever
    # their order: it meets b's x and c's y, so `abc` has no reading,
    # and it meets b's x and d's x, so `abd` reads lemma x
    dictionary = small_dictionary(
        [("a", "cat = s"), ("b", "lex = x"), ("c", "lex = y"), ("d", "lex = x")]
    )
    for equations in permutations(("V lex = A lex", "A lex = B lex", "V lex = C lex")):
        rules = parse_wf_rules(
            "#WF-RULES\n\nV -> A B C\n" + "".join("  %s\n" % eq for eq in equations)
        )
        for surface, lemmas in (("abc", []), ("abd", ["x"])):
            got = analyze(surface, dictionary, rules)
            assert [a.lemma for a in got] == lemmas, equations
            assert {(a.category, a.tree.canonical_form()) for a in got} == all_pairs_analyses(
                surface, dictionary, rules
            )


def test_a_rule_rebuilt_from_its_fields_answers_alike(spanish_dict, wf_rules):
    (rule,) = wf_rules
    generate("pedir", EMPTY_TREE, spanish_dict, [rule])  # fills the rule's generation plans
    rebuilt = WFRule(rule.name, rule.lhs, rule.rhs, rule.equations, rule.file, rule.line)
    # the plan is derived from the equations and takes no part in == or repr
    assert rebuilt == rule and repr(rebuilt) == repr(rule)
    assert rebuilt.classes == rule.classes and rebuilt.plan == rule.plan
    assert "classes" not in repr(rule) and "plan" not in repr(rule)
    for surface in ["pedíamos", "pido", "amaba", "come", "pedo", "vivían", "era"]:
        assert [
            (a.category, a.lemma, a.tree.canonical_form(), a.segmentation)
            for a in analyze(surface, spanish_dict, [rebuilt])
        ] == [
            (a.category, a.lemma, a.tree.canonical_form(), a.segmentation)
            for a in analyze(surface, spanish_dict, [rule])
        ], surface
    for lemma in sorted_lemmas(spanish_dict):
        for constraints in (EMPTY_TREE, impf_1pl()):
            assert generate(lemma, constraints, spanish_dict, [rebuilt]) == generate(
                lemma, constraints, spanish_dict, [rule]
            ), lemma


def test_a_passing_candidate_builds_only_the_result(monkeypatch, spanish_dict, wf_rules):
    # the result reads no class of the constituents' concat, stt, sut or
    # conj, so each of those is only tested; each class of the result
    # is read from one entry as it is, the reads are joined in the one
    # tree built, and no value set is
    (rule,) = wf_rules
    tests, classes, tops = rule.plan
    assert len(tests) == 5 and classes == ()
    assert tops == (("lex", 0, ("lex",)), ("agr", 1, ("agr",)), ("vinfo", 1, ("vinfo",)))
    (stem,) = spanish_dict.lookup("ped")
    (ending,) = spanish_dict.lookup("íamos")
    counts = count_constructions(monkeypatch)
    tree = _execute(rule, [stem, ending])
    assert counts == {"FeatureTree": 1, "ValueSet": 0}
    assert tree.canonical_form() == (
        "agr num = plu\nagr pers = 1\nlex = pedir\nvinfo mood = ind\nvinfo tense = impf\n"
    )


def test_generate_and_analyze_leave_no_cyclic_garbage(spanish_dict, wf_rules):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for lemma in sorted_lemmas(spanish_dict):
                generate(lemma, EMPTY_TREE, spanish_dict, wf_rules)
                generate(lemma, impf_1pl(), spanish_dict, wf_rules)
            for surface in ("pedíamos", "pido", "amaba", "come", "pedo"):
                analyze(surface, spanish_dict, wf_rules)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


_LEAVES = st.lists(st.sampled_from("xyz"), min_size=1, max_size=3).map(lambda t: leaf(*t))


def _trees(children):
    return st.dictionaries(st.sampled_from("pqr"), children, max_size=3).map(FeatureTree)


# absent, blocked, leaves, and trees (empty ones too) nested two deep
_NODES = st.one_of(
    st.none(), st.just(BLOCKED), _LEAVES, _trees(st.one_of(_LEAVES, _trees(_LEAVES)))
)


@settings(max_examples=500, deadline=None)
@given(_NODES, _NODES)
@example(leaf("x", "y", "z"), leaf("z"))
@example(leaf("x", "y"), leaf("z"))
def test_clash_is_exactly_a_blocked_meet(a, b):
    # both orders: `_clash` loops over whichever leaf is shorter
    assert _clash(a, b) == _clash(b, a) == (meet(a, b) is BLOCKED)


def test_path_through_a_leaf_fails_the_candidate(spanish_dict):
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Ending\n  Stem concat subpart = vl\n"
    )
    # concat is atomic in every entry: the path is blocked, so no
    # candidate ever survives, and nothing crashes
    assert analyze("pedíamos", spanish_dict, rules) == []


def test_absent_sides_copy_and_then_constrain(spanish_dict):
    # neither constituent carries 'mark'; the equation is a no-op and
    # analysis still succeeds
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Ending\n"
        "  Stem concat = vl\n  Ending concat = vm\n  Stem stt = Ending stt\n"
        "  Word lex = Stem lex\n  Stem mark = Ending mark\n"
    )
    assert len(analyze("pedíamos", spanish_dict, rules)) == 1


# -- generation -----------------------------------------------------------------

def impf_1pl():
    return (
        EMPTY_TREE.set(("vinfo", "tense"), leaf("impf"))
        .set(("agr", "pers"), leaf("1"))
        .set(("agr", "num"), leaf("plu"))
    )


def test_generation_answers_the_classic_query(spanish_dict, wf_rules):
    assert generate("pedir", impf_1pl(), spanish_dict, wf_rules) == ["pedíamos"]


def test_generation_without_constraints_lists_the_paradigm(spanish_dict, wf_rules):
    forms = generate("pedir", EMPTY_TREE, spanish_dict, wf_rules)
    assert forms == sorted(
        [
            "pido", "pides", "pide", "pedimos", "pedís", "piden",
            "pedía", "pedías", "pedíamos", "pedíais", "pedían",
        ]
    )


def test_generation_collapses_homographic_cells(spanish_dict, wf_rules):
    impf = EMPTY_TREE.set(("vinfo", "tense"), leaf("impf"))
    forms = generate("amar", impf, spanish_dict, wf_rules)
    # six cells, five spellings: 1sg and 3sg coincide
    assert forms == ["amaba", "amabais", "amaban", "amabas", "amábamos"]


def test_conflicting_constraints_yield_nothing(spanish_dict, wf_rules):
    subjunctive = impf_1pl().set(("vinfo", "mood"), leaf("subj"))
    assert generate("pedir", subjunctive, spanish_dict, wf_rules) == []
    wrong_lemma = EMPTY_TREE.set(("lex",), leaf("amar"))
    assert generate("pedir", wrong_lemma, spanish_dict, wf_rules) == []


def test_constraints_on_absent_features_do_not_filter(spanish_dict, wf_rules):
    # unification semantics: the result tree never carries 'conj', so a
    # conj constraint is satisfiable by extension and filters nothing
    constraints = impf_1pl().set(("conj",), leaf("1"))
    assert generate("pedir", constraints, spanish_dict, wf_rules) == ["pedíamos"]


def test_generation_for_an_unknown_lemma_is_empty(spanish_dict, wf_rules):
    assert generate("correr", impf_1pl(), spanish_dict, wf_rules) == []


def test_generation_never_borrows_another_lemma(spanish_dict, wf_rules):
    # 'era' is stored whole under lemma 'ser'; the concatenation rule
    # cannot reach it, and it must not leak into other paradigms
    assert generate("ser", EMPTY_TREE, spanish_dict, wf_rules) == []
    for lemma in ("amar", "pedir", "comer"):
        assert "era" not in generate(lemma, EMPTY_TREE, spanish_dict, wf_rules)


def test_generated_forms_analyze_back_to_the_lemma(spanish_dict, wf_rules):
    for lemma in ("amar", "pedir", "vivir", "comer"):
        for surface in generate(lemma, EMPTY_TREE, spanish_dict, wf_rules):
            lemmas = {a.lemma for a in analyze(surface, spanish_dict, wf_rules)}
            assert lemma in lemmas, (lemma, surface)


# -- generation against the brute-force oracle -------------------------------------

@pytest.fixture(scope="module")
def spanish_oracle(spanish_dict, wf_rules):
    return all_pairs_generation(spanish_dict, wf_rules)


def imperfect_cells():
    return [
        EMPTY_TREE.set(("vinfo", "tense"), leaf("impf"))
        .set(("agr", "pers"), leaf(pers))
        .set(("agr", "num"), leaf(num))
        for pers, num in product(("1", "2", "3"), ("sing", "plu"))
    ]


def test_generation_equals_the_oracle_on_the_fixture(spanish_dict, wf_rules, spanish_oracle):
    checked = 0
    for lemma in sorted_lemmas(spanish_dict):
        for constraints in [EMPTY_TREE] + imperfect_cells():
            expected = spanish_oracle(lemma, constraints)
            assert generate(lemma, constraints, spanish_dict, wf_rules) == expected, lemma
            checked += bool(expected)
    assert checked >= 70


STEM_ENDING = (
    "#WF-RULES\n\nWord -> Stem Ending\n  Stem concat = vl\n  Ending concat = vm\n"
    "  Word lex = Stem lex\n"
)


def small_dictionary(entries):
    return ObjectDictionary.build(
        [ObjectEntry(surface, parse_tree(text)) for surface, text in entries]
    )


def small_base(entries, *equations):
    """Generation of lemma 'ka' by a stem + ending rule over hand-written
    entries, checked against the oracle on every call."""
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules(STEM_ENDING + "".join("  %s\n" % eq for eq in equations))
    oracle = all_pairs_generation(dictionary, rules)

    def run(constraints):
        got = generate("ka", constraints, dictionary, rules)
        assert got == oracle("ka", constraints)
        return got

    return run


STEM = ("ka", "lex = ka\nconcat = vl")


@pytest.mark.parametrize(
    "equation,constrained,unconstrained",
    [
        # the constraints' leaf sits above the result path: nothing is
        # pruned, and the ending without agr still satisfies them ('u'
        # fails the equation itself, its agr being a leaf)
        ("Word agr pers = Ending agr pers", ["kao"], ["kaa", "kao"]),
        # the constraints' leaf sits at the result path: the ending with
        # an agr subtree is pruned, the one without agr is kept
        ("Word agr = Ending agr", ["kao", "kau"], ["kaa", "kao", "kau"]),
    ],
)
def test_constraint_leaf_above_or_at_an_equated_result_path(
    equation, constrained, unconstrained
):
    run = small_base(
        [
            STEM,
            ("a", "concat = vm\nagr pers = 1"),
            ("o", "concat = vm"),
            ("u", "concat = vm\nagr = x"),
        ],
        equation,
    )
    assert run(EMPTY_TREE.set(("agr",), leaf("x"))) == constrained
    assert run(EMPTY_TREE) == unconstrained


def test_a_cell_requests_constraint_filter_builds_no_tree(monkeypatch, spanish_dict, wf_rules):
    constraints = impf_1pl()
    counts = count_constructions(monkeypatch)
    seen = []

    def observed(*candidate_lists):
        seen.append((dict(counts), [len(c) for c in candidate_lists]))
        return product(*candidate_lists)

    monkeypatch.setattr(morph_engine, "product", observed)
    # no combination passes, so only the filters could build a tree
    monkeypatch.setattr(morph_engine, "unify", lambda *args: None)
    assert generate("pedir", constraints, spanish_dict, wf_rules) == []
    # one product over the stems, then one over the joined endings of
    # each stem that has some left
    (built, (stems,)), *joined = seen
    assert built == {"FeatureTree": 0, "ValueSet": 0}
    assert stems == 2 and 0 < len(joined) <= stems
    for built, (endings,) in joined:
        assert built == {"FeatureTree": 0, "ValueSet": 0}
        # the filter dropped the endings whose agr or vinfo clash
        assert 0 < endings < len(spanish_dict.lookup_by_concat("vm"))


def test_a_second_generate_peeks_no_index_drawn_entry_again(monkeypatch, spanish_dict, wf_rules):
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    endings = {id(entry.tree) for entry in dictionary.lookup_by_concat("vm")}
    peeked = []
    original = morph_engine._peek

    def counted(tree, path):
        peeked.append(id(tree))
        return original(tree, path)

    monkeypatch.setattr(morph_engine, "_peek", counted)
    monkeypatch.setattr(morph_engine, "product", lambda *lists: iter(()))
    generate("pedir", impf_1pl(), dictionary, wf_rules)
    assert endings <= set(peeked)
    peeked.clear()
    generate("amar", EMPTY_TREE, dictionary, wf_rules)
    assert peeked and not endings & set(peeked)


def test_a_second_generate_peeks_no_free_drawn_entry_again(monkeypatch, spanish_dict):
    # `Any` has neither a lemma link nor a concat equation: it draws
    # every entry, from a table the dictionary keeps
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Any\n  Word lex = Stem lex\n  Word agr = Any agr\n"
    )
    peeked = []
    original = morph_engine._peek

    def counted(tree, path):
        peeked.append(id(tree))
        return original(tree, path)

    monkeypatch.setattr(morph_engine, "_peek", counted)
    monkeypatch.setattr(morph_engine, "product", lambda *lists: iter(()))
    generate("pedir", impf_1pl(), dictionary, rules)
    assert {id(entry.tree) for entry in dictionary.entries} <= set(peeked)
    peeked.clear()
    generate("amar", EMPTY_TREE, dictionary, rules)
    stems = {id(entry.tree) for entry in dictionary.lookup_by_lemma("amar")}
    others = {id(entry.tree) for entry in dictionary.entries} - stems
    assert stems <= set(peeked) and not others & set(peeked)


def test_analysis_builds_only_the_index_its_rule_names(spanish_dict, wf_rules):
    out = io.StringIO()
    save(spanish_dict, out)
    dictionary = load(io.StringIO(out.getvalue()))
    assert dictionary.lookup("pid")
    save(dictionary, io.StringIO())
    assert dictionary.value_indexes == {}
    # the rule draws its parts by `concat`; analysis reads no lemma index
    assert analyze("pedíamos", dictionary, wf_rules)
    assert set(dictionary.value_indexes) == {"concat"}
    assert generate("pedir", impf_1pl(), dictionary, wf_rules) == ["pedíamos"]
    assert set(dictionary.value_indexes) == {"lex", "concat"}


def test_generate_indexes_the_features_it_is_given():
    dictionary = small_dictionary(
        [("ka", "lemma = ka\ncat = vl"), ("a", "cat = vm"), ("o", "cat = x")]
    )
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Ending\n  Stem cat = vl\n  Ending cat = vm\n"
        "  Word lemma = Stem lemma\n"
    )
    assert generate("ka", EMPTY_TREE, dictionary, rules, "lemma") == ["kaa"]
    assert set(dictionary.value_indexes) == {"lemma", "cat"}
    # under the defaults no result holds the lemma
    assert generate("ka", EMPTY_TREE, dictionary, rules) == []


def test_generate_draws_by_the_feature_the_rule_names(monkeypatch):
    dictionary = small_dictionary(
        [("ka", "lex = ka\ncat = vl"), ("a", "cat = vm"), ("o", "cat = x")]
    )
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Ending\n  Ending cat = vm\n  Word lex = Stem lex\n"
    )
    calls = []
    original = ObjectDictionary.lookup_by_concat

    def recorded(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ObjectDictionary, "lookup_by_concat", recorded)
    got = generate("ka", EMPTY_TREE, dictionary, rules)
    assert got == ["kaa"] == all_pairs_generation(dictionary, rules)("ka", EMPTY_TREE)
    assert calls == [("vm", "cat")]


def test_a_product_over_the_bound_is_refused_before_any_combination(monkeypatch):
    # one stem for the lemma and two constituents free to take any of
    # the 401 entries: 160,801 combinations
    dictionary = small_dictionary([STEM] + [("m%d" % i, "cat = m") for i in range(400)])
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Mid End\n  Word lex = Stem lex\n", "free.rules"
    )
    tried = []
    monkeypatch.setattr(morph_engine, "product", lambda *lists: tried.append(lists))
    with pytest.raises(GenerationLimit) as exc:
        generate("ka", EMPTY_TREE, dictionary, rules)
    assert tried == [] and 401 * 401 > MAX_COMBINATIONS
    assert str(exc.value) == (
        "free.rules:3: rule 'Word -> Stem Mid End' has 160801 candidate combinations, "
        "more than the 100000 generation tries"
    )


@pytest.mark.parametrize("count,bound", [(320, MAX_COMBINATIONS), (6, 40)])
def test_a_product_over_the_bound_only_before_the_constraints_is_answered(
    monkeypatch, count, bound
):
    # `count` stems of 'ka' and a constituent free to take any of the
    # count + 1 entries: over the bound, but the constraint on `end`
    # leaves the free one only 'a' (the one entry with id 1)
    monkeypatch.setattr(morph_engine, "MAX_COMBINATIONS", bound)
    stems = [("k%d" % i, "lex = ka\nid = 2") for i in range(count)]
    dictionary = small_dictionary(stems + [("a", "id = 1")])
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem End\n  Word lex = Stem lex\n  Word end = End id\n",
        "free.rules",
    )
    assert count * (count + 1) > bound >= count
    constraints = EMPTY_TREE.set(("end",), leaf("1"))
    got = generate("ka", constraints, dictionary, rules)
    assert got == sorted(surface + "a" for surface, _ in stems)
    if count * (count + 1) < 1000:  # the oracle tries every pair of entries
        assert got == all_pairs_generation(dictionary, rules)("ka", constraints)
    with pytest.raises(GenerationLimit) as exc:
        generate("ka", EMPTY_TREE, dictionary, rules)
    assert str(exc.value) == (
        "free.rules:3: rule 'Word -> Stem End' has %d candidate combinations, "
        "more than the %d generation tries" % (count * (count + 1), bound)
    )


@pytest.mark.parametrize("count,bound", [(400, MAX_COMBINATIONS), (8, 40)])
def test_the_bound_counts_the_entries_a_value_equation_leaves(monkeypatch, count, bound):
    # `Mid tag = m` leaves `Mid` the stem, which lacks `tag`, and 'x':
    # 2 * (count + 2) combinations, where every entry would give
    # (count + 2) ** 2, over the bound
    monkeypatch.setattr(morph_engine, "MAX_COMBINATIONS", bound)
    entries = [STEM, ("x", "tag = m")] + [("n%d" % i, "tag = n") for i in range(count)]
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules(
        "#WF-RULES\n\nWord -> Stem Mid End\n  Word lex = Stem lex\n  Mid tag = m\n"
    )
    assert (count + 2) ** 2 > bound >= 2 * (count + 2)
    got = generate("ka", EMPTY_TREE, dictionary, rules)
    assert got == sorted("ka" + mid + end for mid in ("ka", "x") for end, _ in entries)
    assert len(got) == 2 * (count + 2)
    if count < 10:  # the oracle tries every triple of entries
        assert got == all_pairs_generation(dictionary, rules)("ka", EMPTY_TREE)


def test_generation_tries_entries_lacking_the_concat_feature():
    # the ending has no concat node; `Ending concat = vm` fills it in
    entries = [STEM, ("a", "agr = 1")]
    run = small_base(entries)
    assert run(EMPTY_TREE) == ["kaa"]
    assert run(EMPTY_TREE.set(("agr",), leaf("1"))) == ["kaa"]
    # and analysis reads the same surface back
    readings = analyze("kaa", small_dictionary(entries), parse_wf_rules(STEM_ENDING))
    assert [a.lemma for a in readings] == ["ka"]


def test_a_copy_through_a_leaf_fails_the_candidate():
    entries = [STEM, ("a", "concat = vm\na = 1"), ("o", "concat = vm\na b = 2")]
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules(STEM_ENDING + "  Word x = Ending a b\n")
    assert ("x", 1, ("a", "b")) in rules[0].plan[2]  # read from the ending as it is
    # 'a' holds a leaf at `a`, so its copy `Ending a b` runs through it
    readings = {}
    for surface in ("kaa", "kao"):
        got = {(a.category, a.tree.canonical_form()) for a in analyze(surface, dictionary, rules)}
        assert got == all_pairs_analyses(surface, dictionary, rules)
        readings[surface] = got
    assert readings == {"kaa": set(), "kao": {("Word", "lex = ka\nx = 2\n")}}
    run = small_base(entries, "Word x = Ending a b")
    assert run(EMPTY_TREE) == ["kao"]


def test_candidate_leaf_above_an_agreement_path():
    run = small_base(
        [
            ("ka", "lex = ka\nconcat = vl\nagr = x"),
            ("ke", "lex = ka\nconcat = vl\nagr pers = 1"),
            ("a", "concat = vm\nagr pers = 1"),
            ("o", "concat = vm\nagr pers = 2"),
        ],
        "Stem agr pers = Ending agr pers",
    )
    # 'ka' cannot reach 'agr pers', so every pair with it fails
    assert run(EMPTY_TREE) == ["kea"]


def test_candidate_leaf_above_a_constrained_result_path():
    run = small_base(
        [STEM, ("a", "concat = vm\nagr pers = 1"), ("u", "concat = vm\nagr = x")],
        "Word agr pers = Ending agr pers",
    )
    assert run(EMPTY_TREE.set(("agr", "pers"), leaf("1"))) == ["kaa"]
    assert run(EMPTY_TREE) == ["kaa"]


def test_subtree_against_leaf():
    endings = [("a", "concat = vm\nagr = 1"), ("o", "concat = vm\nagr pers = 1")]
    pair = small_base([("ka", "lex = ka\nconcat = vl\nagr pers = 1")] + endings,
                      "Stem agr = Ending agr")
    assert pair(EMPTY_TREE) == ["kao"]
    to_result = small_base([STEM] + endings, "Word agr = Ending agr")
    assert to_result(EMPTY_TREE.set(("agr", "pers"), leaf("1"))) == ["kao"]
    assert to_result(EMPTY_TREE.set(("agr",), leaf("1"))) == ["kaa"]


def test_path_absent_on_one_side():
    endings = [
        ("a", "concat = vm\nagr pers = 1"),
        ("o", "concat = vm\nagr pers = 2"),
        ("e", "concat = vm"),
    ]
    pair = small_base([STEM] + endings, "Stem agr pers = Ending agr pers")
    assert pair(EMPTY_TREE) == ["kaa", "kae", "kao"]
    to_result = small_base([STEM] + endings, "Word agr pers = Ending agr pers")
    # 'e' lacks the path, so its result lacks it and the constraint holds
    assert to_result(EMPTY_TREE.set(("agr", "pers"), leaf("1"))) == ["kaa", "kae"]


@pytest.mark.parametrize(
    "stem,ending,equations,path",
    [
        # the pair equation narrows the stem, which then feeds the result
        (
            "lex = ka\nconcat = vl\nagr pers = 1 2",
            "concat = vm\nagr pers = 1",
            ("Stem agr pers = Ending agr pers", "Word agr = Stem agr"),
            ("agr", "pers"),
        ),
        # the value equation narrows the ending, which then feeds the result
        (
            "lex = ka\nconcat = vl",
            "concat = vm\nmood = 1 2",
            ("Ending mood = 1", "Word mood = Ending mood"),
            ("mood",),
        ),
    ],
)
def test_narrowed_nodes_reach_the_result(stem, ending, equations, path):
    run = small_base([("ka", stem), ("a", ending)], *equations)
    assert run(EMPTY_TREE.set(path, leaf("1"))) == ["kaa"]
    assert run(EMPTY_TREE.set(path, leaf("2"))) == []


def test_constraints_on_the_lemma_feature(spanish_dict, wf_rules, spanish_oracle):
    paradigm = generate("pedir", EMPTY_TREE, spanish_dict, wf_rules)
    impf = EMPTY_TREE.set(("vinfo", "tense"), leaf("impf"))
    for lex, expected in [
        (leaf("pedir"), paradigm),
        (leaf("pedir", "amar"), paradigm),
        (leaf("amar"), []),
    ]:
        constraints = EMPTY_TREE.set(("lex",), lex)
        assert generate("pedir", constraints, spanish_dict, wf_rules) == expected
        assert spanish_oracle("pedir", constraints) == expected
        narrowed = unify(constraints, impf)
        assert generate("pedir", narrowed, spanish_dict, wf_rules) == spanish_oracle(
            "pedir", narrowed
        )


def _fixture_values(dictionary):
    """Every leaf path of the dictionary and every proper prefix of one,
    each with the values seen at or below it."""
    values: dict[tuple[str, ...], set[str]] = {}
    for entry in dictionary.entries:
        for path, node in entry.tree.leaves():
            for end in range(1, len(path) + 1):
                values.setdefault(path[:end], set()).update(node.texts())
    return {path: sorted(texts) for path, texts in values.items()}


@pytest.fixture(scope="module")
def fixture_values(spanish_dict):
    return _fixture_values(spanish_dict)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generation_equals_the_oracle_for_drawn_constraints(
    spanish_dict, wf_rules, spanish_oracle, fixture_values, data
):
    lemma = data.draw(st.sampled_from(sorted_lemmas(spanish_dict) + ["correr"]))
    paths = data.draw(st.lists(st.sampled_from(sorted(fixture_values)), max_size=4, unique=True))
    constraints = EMPTY_TREE
    for path in sorted(paths):
        texts = data.draw(
            st.lists(st.sampled_from(fixture_values[path]), min_size=1, max_size=3, unique=True)
        )
        try:
            constraints = constraints.set(path, leaf(*texts))
        except PathThroughLeaf:
            pass  # a leaf drawn above this path already
    assert generate(lemma, constraints, spanish_dict, wf_rules) == spanish_oracle(
        lemma, constraints
    )


# -- splitting -----------------------------------------------------------------
#
# A two-letter alphabet with many homographs and surfaces that are
# prefixes of one another, under a three-constituent rule with a
# cross-constituent equation next to a two-constituent rule.

SPLIT_ENTRIES = [
    ("a", "lex = a\ncat = s m\nagr = 1"),
    ("a", "lex = a2\ncat = s\nagr = 2"),
    ("a", "cat = e\nagr = 1"),
    ("ab", "lex = ab\ncat = s\nagr = 1 2"),
    ("ab", "cat = m e\nagr = 2"),
    ("aba", "lex = aba\ncat = s\nagr = 2"),
    ("b", "cat = m e\nagr = 1"),
    ("b", "cat = e\nagr = 2"),
    ("ba", "cat = m"),
    ("bb", "cat = e\nagr = 1"),
    ("abb", "lex = abb\ncat = s"),
]

SPLIT_RULES = """\
#WF-RULES

W -> A B C
  A cat = s
  B cat = m
  C cat = e
  A agr = C agr
  W lex = A lex
  W agr = C agr

V -> S E
  S cat = s
  E cat = e
  S agr = E agr
  V lex = S lex
"""


def _corruptions(word):
    for pos in range(len(word) + 1):
        for letter in "ab":
            yield word[:pos] + letter + word[pos:]
            if pos < len(word):
                yield word[:pos] + letter + word[pos + 1 :]
        if pos < len(word):
            yield word[:pos] + word[pos + 1 :]


def test_three_constituent_analysis_equals_the_oracle():
    dictionary = small_dictionary(SPLIT_ENTRIES)
    rules = parse_wf_rules(SPLIT_RULES)
    surfaces = sorted(dictionary.surface_index)
    words = set()
    for count in (1, 2, 3):
        for parts in product(surfaces, repeat=count):
            words.add("".join(parts))
    words |= {bad for word in list(words) for bad in _corruptions(word)}
    readings = {"W": 0, "V": 0}
    for word in sorted(words):
        got = analyze(word, dictionary, rules)
        assert {(a.category, a.tree.canonical_form()) for a in got} == all_pairs_analyses(
            word, dictionary, rules
        ), word
        for a in got:
            assert "".join(part for part, _ in a.segmentation) == word
            assert all(
                any(entry is stored for stored in dictionary.lookup(part))
                for part, entry in a.segmentation
            )
            readings[a.category] += 1
    assert readings["W"] >= 50 and readings["V"] >= 10, readings


_TREE_TEXTS = [
    "\n".join(lines)
    for lines in product(
        ["", "lex = x", "lex = y"],
        ["", "cat = s", "cat = m", "cat = e", "cat = s m", "cat = m e", "cat = s m e"],
        ["", "agr = 1", "agr = 2", "agr = 1 2"],
        ["", "id = 1", "id = 2", "id = 3"],
    )
]

# Results copy the parts' ids, so most splits read differently; two
# rules share a result category, so deduplication also runs across rules.
_DRAWN_RULES = [
    "W -> A B C\n  A cat = s\n  A agr = C agr\n  W lex = A lex\n  W mid = B id\n"
    "  W end = C id\n",
    "W -> S E\n  S cat = s\n  E cat = e\n  W lex = S lex\n  W end = E id\n",
    "V -> S E\n  S cat = s m\n  E cat = e\n  S agr = E agr\n  V agr = E agr\n",
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_readings_come_in_the_documented_order(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_TREE_TEXTS)),
            min_size=1,
            max_size=10,
        )
    )
    # readings come by rule, then cut positions, then each part's entry
    # order; the oracle finds them by sorting, not by walking splits
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules("#WF-RULES\n\n" + "\n".join(data.draw(st.permutations(_DRAWN_RULES))))
    spelled = st.lists(st.sampled_from([s for s, _ in entries]), max_size=4).map("".join)
    surface = data.draw(st.one_of(spelled, st.text("ab", max_size=6)))
    got = [
        (a.category, a.tree.canonical_form(), tuple(p for p, _ in a.segmentation),
         tuple(id(e) for _, e in a.segmentation))
        for a in analyze(surface, dictionary, rules)
    ]
    expected = [
        (lhs, canonical, tuple(e.surface for e in combo), tuple(id(e) for e in combo))
        for lhs, canonical, combo in ordered_analyses(surface, dictionary, rules)
    ]
    assert got == expected


# Generation over drawn dictionaries: entries with and without a
# concat leaf, under rules that between them link the lemma both ways
# round, name a concatenation category, leave a constituent with
# neither (it takes every entry), give a two-valued `concat` equation
# (no category), equate positions 0 and 2 of a three-constituent rule,
# take the lemma from a constituent's `id` (lemma "1"), not its `lex`,
# link the result's lemma to a constituent whose lemma can come from
# another constituent (`T` links both, `R` chains them), and put a
# category constituent before the lemma-linked one it is joined to (`Y`).
_GEN_TREE_TEXTS = [
    "\n".join(lines)
    for lines in product(
        ["", "lex = x", "lex = y", "lex = x y"],
        ["", "concat = s", "concat = e", "concat = s e"],
        ["", "agr = 1", "agr = 2", "agr = 1 2", "agr pers = 1"],
        ["", "id = 1", "id = 2"],
    )
]

_GEN_RULES = [
    "W -> A B C\n  W lex = A lex\n  A concat = s\n  C concat = e\n  A agr = C agr\n"
    "  W agr = C agr\n  W mid = B id\n",
    "W -> S E\n  S concat = s\n  E concat = e\n  W lex = S lex\n  S agr = E agr\n"
    "  W end = E id\n",
    "V -> P Q\n  P concat = s e\n  Q lex = V lex\n  V agr pers = P agr pers\n  Q id = 1\n",
    "U -> S E\n  S concat = s\n  E concat = e\n  U lex = S id\n  U end = E id\n",
    "T -> S E\n  S concat = s\n  E concat = e\n  T lex = S lex\n  T lex = E lex\n",
    "R -> S E\n  S concat = s\n  E concat = e\n  S lex = E lex\n  R lex = S lex\n",
    "Y -> E S\n  E concat = e\n  S concat = s\n  Y lex = S lex\n  E agr = S agr\n"
    "  Y end = E id\n",
]

_GEN_CONSTRAINTS = {
    ("lex",): ["x", "y"],
    ("agr",): ["1", "2"],
    ("agr", "pers"): ["1", "2"],
    ("mid",): ["1", "2"],
    ("end",): ["1", "2"],
}


def _drawn_generation_base(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_GEN_TREE_TEXTS)),
            min_size=1,
            max_size=8,
        )
    )
    rules = parse_wf_rules(
        "#WF-RULES\n\n"
        + "\n".join(data.draw(st.lists(st.sampled_from(_GEN_RULES), min_size=1, unique=True)))
    )
    return small_dictionary(entries), rules


def _drawn_generation_call(data):
    lemma = data.draw(st.sampled_from(["x", "y", "z", "1"]))
    constraints = EMPTY_TREE
    for path in data.draw(st.lists(st.sampled_from(sorted(_GEN_CONSTRAINTS)), unique=True)):
        texts = data.draw(
            st.lists(st.sampled_from(_GEN_CONSTRAINTS[path]), min_size=1, unique=True)
        )
        try:
            constraints = constraints.set(path, leaf(*texts))
        except PathThroughLeaf:
            pass  # a leaf drawn above this path already
    return lemma, constraints


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generation_equals_the_oracle_for_drawn_dictionaries(data):
    dictionary, rules = _drawn_generation_base(data)
    lemma, constraints = _drawn_generation_call(data)
    expected = all_pairs_generation(dictionary, rules)(lemma, constraints)
    assert generate(lemma, constraints, dictionary, rules) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_dictionary_answers_a_drawn_sequence_of_generate_calls_like_the_oracle(data):
    # one dictionary object serves every call, so later calls read the
    # tables and joins that earlier ones kept
    dictionary, rules = _drawn_generation_base(data)
    oracle = all_pairs_generation(dictionary, rules)
    for _ in range(data.draw(st.integers(2, 6))):
        lemma, constraints = _drawn_generation_call(data)
        assert generate(lemma, constraints, dictionary, rules) == oracle(lemma, constraints)


# Constraint nodes that key the narrowed tables: an empty subtree at a
# result path (`agr`) and below one (`agr pers` under `W agr = C agr`),
# which print alike, leaves spelled bare or quoted, which are equal but
# print apart, and leaves of several values.  The entries hold leaves
# and subtrees at `agr`, so a table narrowed by one of two trees that
# print alike is wrong for the other.  Under the first three
# `_GEN_RULES`, `C` and `E` are joined by `agr` to a lemma-drawn stem,
# whose `agr` is a leaf, a subtree or absent.
_NARROWING_NODES = {
    ("agr",): [leaf("1", quoted=True), leaf("1", "2"), EMPTY_TREE],
    ("agr", "pers"): [leaf("1"), leaf("1", "2"), EMPTY_TREE],
    ("end",): [leaf("1"), leaf("2", quoted=True), leaf("1", "2"), EMPTY_TREE],
    ("lex",): [leaf("x"), leaf("x", "y")],
}

_NARROWING_ENTRIES = [
    ("ka", "lex = x\nconcat = s"),
    ("ko", "lex = x\nconcat = s\nagr pers = 1"),
    ("ki", "lex = y\nconcat = s\nagr = 1"),
    ("ku", "lex = x y\nconcat = s e\nagr pers = 2"),
    ("a", "concat = e\nagr pers = 1\nid = 1"),
    ("o", "concat = e\nagr = 1 2\nid = 2"),
    ("u", "concat = e\nagr pers = 2"),
    ("e", "concat = e"),
    ("i", "agr = 2\nid = 1 2"),
    ("y", "concat = e\nagr pers = 1\nagr num = s\nid = 1"),
]


@pytest.fixture(scope="module")
def narrowing_rules():
    return parse_wf_rules("#WF-RULES\n\n" + "\n".join(_GEN_RULES[:3]))


@pytest.fixture(scope="module")
def narrowing_oracle(narrowing_rules):
    return all_pairs_generation(small_dictionary(_NARROWING_ENTRIES), narrowing_rules)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_sequence_of_constrained_calls_reads_narrowed_tables_like_the_oracle(
    narrowing_rules, narrowing_oracle, data
):
    # one dictionary object serves every call, so a call reads the
    # narrowed tables and joins that earlier calls kept under their
    # constraint nodes
    dictionary = small_dictionary(_NARROWING_ENTRIES)  # no tables yet
    for _ in range(data.draw(st.integers(3, 10))):
        lemma = data.draw(st.sampled_from(["x", "y"]))
        constraints = EMPTY_TREE
        paths = data.draw(st.lists(st.sampled_from(sorted(_NARROWING_NODES)), unique=True))
        for path in sorted(paths):
            try:
                node = data.draw(st.sampled_from(_NARROWING_NODES[path]))
                constraints = constraints.set(path, node)
            except PathThroughLeaf:
                pass  # a leaf drawn above this path already
        expected = narrowing_oracle(lemma, constraints)
        assert generate(lemma, constraints, dictionary, narrowing_rules) == expected


def _counting_clashes(monkeypatch):
    calls = []

    def counted(a, b, _original=morph_engine._clash):
        calls.append((a, b))
        return _original(a, b)

    monkeypatch.setattr(morph_engine, "_clash", counted)
    return calls


def test_a_repeated_cell_tests_no_ending_again(monkeypatch, spanish_dict, wf_rules):
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    assert generate("pedir", impf_1pl(), dictionary, wf_rules) == ["pedíamos"]
    kept = dict(dictionary.node_tables)
    clashes = _counting_clashes(monkeypatch)
    # an equal cell, built anew and with one value spelled quoted
    quoted = impf_1pl().set(("agr", "num"), leaf("plu", quoted=True))
    for constraints in (impf_1pl(), quoted):
        clashes.clear()
        assert generate("pedir", constraints, dictionary, wf_rules) == ["pedíamos"]
        assert dictionary.node_tables.keys() == kept.keys()
        assert all(dictionary.node_tables[key] is rows for key, rows in kept.items())
        # no stem is tested again against `Stem concat = vl`: the
        # lemma's rows that pass it are kept
        stems = dictionary.lookup_by_lemma("pedir")
        assert len(clashes) == 0 and len(stems) == 2
        assert all(b is stem.tree.get(("concat",)) for (_, b), stem in zip(clashes, stems))


def test_a_join_on_a_subtree_is_kept(monkeypatch):
    entries = [
        ("ka", "lex = ka\nconcat = vl\nagr pers = 1"),
        ("a", "concat = vm\nagr pers = 1"),
        ("o", "concat = vm\nagr pers = 2"),
        ("e", "concat = vm"),
    ]
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules(STEM_ENDING + "  Stem agr = Ending agr\n  Word agr = Ending agr\n")
    oracle = all_pairs_generation(dictionary, rules)
    cell = EMPTY_TREE.set(("agr", "pers"), leaf("1"))
    assert generate("ka", cell, dictionary, rules) == oracle("ka", cell) == ["kaa", "kae"]
    # the stem's `agr` subtree is the probe of a kept join, whose key
    # is ((join tag, constraint filters), probe), the join tag standing
    # for the ending's table key and its linked path `agr`
    (rule,) = rules
    ending = morph_engine._generation_plan(rule, ("lex",)).constituents[1]
    assert morph_engine._TAGS[ending.key, (("agr",),)] == ending.join
    probes = [
        key[1] for key in dictionary.node_tables
        if type(key[0]) is tuple and key[0][0] == ending.join
    ]
    assert probes == [(FeatureTree({"pers": leaf("1")}),)]
    kept = dict(dictionary.node_tables)
    clashes = _counting_clashes(monkeypatch)
    assert generate("ka", cell, dictionary, rules) == ["kaa", "kae"]
    assert dictionary.node_tables == kept
    # only the stem's `agr` is tested, against the cell: its kept row
    # passed `concat` already
    (stem,) = dictionary.lookup_by_lemma("ka")
    nodes = [stem.tree.get(path) for path in [("concat",), ("agr",), ("agr", "pers")]]
    assert len(clashes) == 2 and all(any(b is n for n in nodes) for _, b in clashes)


# Two rules whose joined ending has one table key (index concat = e,
# paths stt, conj and concat, one value test) but links different
# paths: `W` joins it by `stt`, `V` by `conj` (its `stt` pair with `M`
# is no join, since `M` is joined too).  A stem whose `stt` and `conj`
# hold one value gives both joins equal nodes, which must stay two joins.
_ONE_KEY_TWO_LINKS = (
    "#WF-RULES\n\nW -> S E\n  S concat = s\n  E concat = e\n  W lex = S lex\n"
    "  S stt = E stt\n  W conj = E conj\n\n"
    "V -> S M E\n  S concat = s\n  M concat = m\n  E concat = e\n  V lex = S lex\n"
    "  S sut = M sut\n  M stt = E stt\n  S conj = E conj\n"
)


def test_one_ending_table_linked_by_two_paths_is_two_joins():
    entries = [
        ("ka", "lex = x\nconcat = s\nstt = 1\nconj = 1\nsut = 1"),
        ("pe", "lex = y\nconcat = s\nstt = 2\nconj = 1\nsut = 1"),
        ("mi", "concat = m\nsut = 1\nstt = 2"),
        ("a", "concat = e\nstt = 1\nconj = 1"),
        ("o", "concat = e\nstt = 2\nconj = 2"),
        ("u", "concat = e\nstt = 2\nconj = 1"),
    ]
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules(_ONE_KEY_TWO_LINKS)
    endings = [morph_engine._generation_plan(rule, ("lex",)).constituents[-1] for rule in rules]
    assert endings[0].key == endings[1].key and endings[0].join != endings[1].join
    oracle = all_pairs_generation(dictionary, rules)
    cells = [EMPTY_TREE] + [EMPTY_TREE.set(("conj",), leaf(value)) for value in "12"]
    for lemma in ["x", "y"]:
        for cell in cells:
            assert generate(lemma, cell, dictionary, rules) == oracle(lemma, cell), (lemma, cell)
    # `V` reads the ending `u` through the join by `conj`
    assert generate("x", EMPTY_TREE, dictionary, rules) == ["kaa", "kamiu"]


def test_parsing_the_rules_again_adds_no_tag(spanish_dict, fixtures_dir):
    text = (fixtures_dir / "wf.rules").read_text(encoding="utf-8")
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    first = parse_wf_rules(text)
    assert generate("pedir", impf_1pl(), dictionary, first) == ["pedíamos"]
    assert len(analyze("pedíamos", dictionary, first)) == 1
    tags, kept = dict(morph_engine._TAGS), dict(dictionary.node_tables)
    again = parse_wf_rules(text)
    assert generate("pedir", impf_1pl(), dictionary, again) == ["pedíamos"]
    assert len(analyze("pedíamos", dictionary, again)) == 1
    # the second parse's equal plan has the same tags, so it reads the
    # tables the first one kept
    assert morph_engine._TAGS == tags
    assert dictionary.node_tables.keys() == kept.keys()
    plans = [morph_engine._generation_plan(rules[0], ("lex",)) for rules in (first, again)]
    assert plans[0] == plans[1] and plans[0].tag == plans[1].tag


def test_parsing_the_rules_again_adds_no_surface_set(spanish_dict, fixtures_dir):
    # analysis keeps its sets apart from `node_tables`, under the tags
    text = (fixtures_dir / "wf.rules").read_text(encoding="utf-8")
    dictionary = ObjectDictionary(spanish_dict.entries)  # no sets yet
    assert len(analyze("pedíamos", dictionary, parse_wf_rules(text))) == 1
    kept = dict(dictionary.surface_sets)
    assert len(kept) == 3 and not dictionary.node_tables
    assert len(analyze("pedíamos", dictionary, parse_wf_rules(text))) == 1
    assert dictionary.surface_sets.keys() == kept.keys()
    assert all(dictionary.surface_sets[key] is sets for key, sets in kept.items())


def test_distinct_constraints_add_no_tag(spanish_dict, wf_rules):
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    generate("pedir", EMPTY_TREE, dictionary, wf_rules)
    tags = dict(morph_engine._TAGS)
    for i in range(1000):
        constraints = impf_1pl().set(("agr", "num"), leaf("plu", str(i)))
        assert generate("pedir", constraints, dictionary, wf_rules) == ["pedíamos"]
    assert morph_engine._TAGS == tags


@pytest.mark.parametrize("bound", [0, 1, 2, 5])
def test_the_kept_tables_never_exceed_their_bound(
    monkeypatch, spanish_dict, wf_rules, spanish_oracle, bound
):
    monkeypatch.setattr(morph_engine, "MAX_NODE_TABLES", bound)
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    cells = [EMPTY_TREE] + imperfect_cells()
    for lemma in sorted_lemmas(spanish_dict):
        for constraints in cells + cells[::-1]:
            got = generate(lemma, constraints, dictionary, wf_rules)
            assert got == spanish_oracle(lemma, constraints), lemma
            assert len(dictionary.node_tables) <= bound
    assert len(dictionary.node_tables) == bound


def test_unknown_lemmas_keep_no_rows(spanish_dict, wf_rules):
    dictionary = ObjectDictionary(spanish_dict.entries)  # no rows yet
    for i in range(1000):
        constraints = impf_1pl() if i % 2 else EMPTY_TREE
        assert generate("nope%d" % i, constraints, dictionary, wf_rules) == []
    assert dictionary.lemma_rows == {}


def test_the_lemma_store_keeps_one_slot_per_key_feature_and_indexed_lemma(
    monkeypatch, spanish_dict, wf_rules, spanish_oracle
):
    dictionary = ObjectDictionary(spanish_dict.entries)  # no rows yet
    reads = []

    def counted(self, lemma, feature="lex", _original=ObjectDictionary.lookup_by_lemma):
        reads.append(lemma)
        return _original(self, lemma, feature)

    monkeypatch.setattr(ObjectDictionary, "lookup_by_lemma", counted)
    lemmas = sorted_lemmas(spanish_dict)
    for lemma in lemmas:
        for constraints in [EMPTY_TREE] + imperfect_cells():
            got = generate(lemma, constraints, dictionary, wf_rules)
            assert got == spanish_oracle(lemma, constraints), lemma
    # the lemma index is read once per lemma, on its first call
    assert reads == lemmas
    (rule,) = wf_rules
    constituents = morph_engine._generation_plan(rule, ("lex",)).constituents
    tags = [constituent.tag for constituent in constituents if constituent.by_lemma]
    slots = [
        (tag, feature, lemma)
        for (tag, feature), rows in dictionary.lemma_rows.items()
        for lemma in rows
    ]
    indexed = dictionary.value_indexes["lex"][0]
    assert sorted(slots) == sorted((tag, "lex", lemma) for tag in tags for lemma in indexed)
    # `ser`'s entries are whole words, which fail `Stem concat = vl`: its
    # slot holds no row, and still spares the index a second read
    (store,) = dictionary.lemma_rows.values()
    assert [lemma for lemma, rows in store.items() if not rows] == ["ser"]


# Two rule files over one dictionary, both reading the stem's `lex` and
# its `id` into the result's: under `lex_feature="id"` the stem is drawn
# by the `id` index, with the same table key as under `lex`, and the
# entries' `id` and `lex` leaves hold the same values, so rows kept for
# a lemma under one feature are wrong under the other.  The second file
# also joins the ending by `agr` and gives the ending's `id` as `end`.
_SHARED_RULE_FILES = [
    "#WF-RULES\n\nW -> S E\n  S concat = s\n  E concat = e\n  W lex = S lex\n"
    "  W id = S id\n  W agr = E agr\n",
    "#WF-RULES\n\nW -> S E\n  S concat = s\n  E concat = e\n  W lex = S lex\n"
    "  W id = S id\n  S agr = E agr\n  W end = E lex\n",
]

_SHARED_TREE_TEXTS = [
    "\n".join(lines)
    for lines in product(
        ["", "lex = x", "lex = y", "lex = x y"],
        ["", "id = x", "id = y"],
        ["concat = s", "concat = e", "concat = s e"],
        ["", "agr = 1", "agr = 2"],
    )
]

_SHARED_CONSTRAINTS = {
    ("lex",): [leaf("x"), leaf("y"), leaf("x", "y")],
    ("id",): [leaf("x"), leaf("y")],
    ("agr",): [leaf("1"), leaf("1", "2")],
    ("end",): [leaf("x")],
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_drawn_sequence_over_two_rule_files_and_two_lemma_features_equals_the_oracle(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_SHARED_TREE_TEXTS)),
            min_size=1,
            max_size=8,
        )
    )
    dictionary = small_dictionary(entries)  # shared by every call
    rule_files = [parse_wf_rules(text) for text in _SHARED_RULE_FILES]
    oracles = {}
    for _ in range(data.draw(st.integers(2, 10))):
        which = data.draw(st.sampled_from([0, 1]))
        feature = data.draw(st.sampled_from(["lex", "id"]))
        lemma = data.draw(st.sampled_from(["x", "y", "z"]))  # z: no entry holds it
        constraints = EMPTY_TREE
        for path in data.draw(st.lists(st.sampled_from(sorted(_SHARED_CONSTRAINTS)), unique=True)):
            node = data.draw(st.sampled_from(_SHARED_CONSTRAINTS[path]))
            constraints = constraints.set(path, node)
        if (which, feature) not in oracles:
            oracles[which, feature] = all_pairs_generation(dictionary, rule_files[which], feature)
        expected = oracles[which, feature](lemma, constraints)
        assert generate(lemma, constraints, dictionary, rule_files[which], feature) == expected


# Unconstrained generation builds no result tree for a rule whose
# filters decide every combination: no class to meet, every top a
# one-label read, and the lemma read from the lemma-drawn constituent.
# Rules on both sides of that line: two inside it (the second joins a
# category constituent before the lemma-linked one and tests a value),
# then a nested read through a leaf `agr` of some endings, the lemma
# taken from a stem's `id`, two sources of the lemma, and a class of
# three places.
_BOUNDARY_RULES = [
    "W -> S E\n  S concat = s\n  E concat = e\n  W lex = S lex\n  S agr = E agr\n"
    "  W end = E id\n",
    "Y -> E S\n  E concat = e\n  S concat = s\n  Y lex = S lex\n  E agr = S agr\n"
    "  S id = 1\n  Y end = E id\n",
    "N -> S E\n  S concat = s\n  E concat = e\n  N lex = S lex\n  N p = E agr pers\n",
    "U -> S E\n  S concat = s\n  E concat = e\n  U lex = S id\n  U end = E id\n",
    "T -> S E\n  S concat = s\n  E concat = e\n  T lex = S lex\n  T lex = E lex\n",
    "C -> A B E\n  A concat = s\n  E concat = e\n  C lex = A lex\n  A agr = B agr\n"
    "  B agr = E agr\n",
]


def test_the_boundary_rules_sit_on_both_sides_of_the_settled_line():
    rules = parse_wf_rules("#WF-RULES\n\n" + "\n".join(_BOUNDARY_RULES))
    settled = [morph_engine._generation_plan(rule, ("lex",)).settled for rule in rules]
    assert settled == [True, True, False, False, False, False]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unconstrained_generation_equals_the_oracle_on_both_sides_of_the_settled_line(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_GEN_TREE_TEXTS)),
            min_size=1,
            max_size=8,
        )
    )
    dictionary = small_dictionary(entries)
    rules = parse_wf_rules(
        "#WF-RULES\n\n"
        + "\n".join(data.draw(st.lists(st.sampled_from(_BOUNDARY_RULES), min_size=1, unique=True)))
    )
    oracle = all_pairs_generation(dictionary, rules)
    for lemma in ("x", "y", "1"):
        assert generate(lemma, EMPTY_TREE, dictionary, rules) == oracle(lemma, EMPTY_TREE)


# Constraints for the boundary rules: a leaf at `agr` or a subtree at
# `agr pers`, leaves of one or two values, the results' `lex`, `end`
# and `p`, and labels that no entry and no rule gives (`agr num`, `q`).
_BOUNDARY_CONSTRAINTS = {
    ("lex",): ["x", "y", "1"],
    ("agr",): ["1", "2"],
    ("agr", "pers"): ["1", "2"],
    ("agr", "num"): ["1"],
    ("end",): ["1", "2"],
    ("p",): ["1", "2"],
    ("q",): ["1"],
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_constrained_generation_equals_the_oracle_on_both_sides_of_the_settled_line(data):
    # a settled rule reads a constrained call's trees from the kept rows
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_GEN_TREE_TEXTS)),
            min_size=1,
            max_size=8,
        )
    )
    dictionary = small_dictionary(entries)  # shared by every call
    rules = parse_wf_rules(
        "#WF-RULES\n\n"
        + "\n".join(data.draw(st.lists(st.sampled_from(_BOUNDARY_RULES), min_size=1, unique=True)))
    )
    oracle = all_pairs_generation(dictionary, rules)
    for _ in range(data.draw(st.integers(1, 4))):
        constraints = EMPTY_TREE
        paths = st.lists(st.sampled_from(sorted(_BOUNDARY_CONSTRAINTS)), min_size=1, unique=True)
        for path in data.draw(paths):
            texts = st.lists(st.sampled_from(_BOUNDARY_CONSTRAINTS[path]), min_size=1, unique=True)
            try:
                constraints = constraints.set(path, leaf(*data.draw(texts)))
            except PathThroughLeaf:
                pass  # a leaf drawn at `agr` already
        for lemma in ("x", "y", "1"):
            expected = oracle(lemma, constraints)
            got = generate(lemma, constraints, dictionary, rules)
            assert got == expected, (lemma, constraints)


def _counting_engine(monkeypatch):
    calls = {"_execute": 0, "unify": 0}
    for name in calls:
        original = getattr(morph_engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(morph_engine, name, counted)
    return calls


def test_an_unconstrained_paradigm_under_the_fixture_rules_builds_no_result_tree(
    spanish_dict, wf_rules, spanish_oracle, monkeypatch
):
    expected = spanish_oracle("pedir", EMPTY_TREE)
    assert "pedíamos" in expected and "pido" in expected
    calls = _counting_engine(monkeypatch)
    assert generate("pedir", EMPTY_TREE, spanish_dict, wf_rules) == expected
    assert calls == {"_execute": 0, "unify": 0}
    # a constrained call reads its trees from the kept rows and unifies them
    assert generate("pedir", imperfect_cells()[1], spanish_dict, wf_rules) == ["pedíamos"]
    assert calls["_execute"] == 0 and calls["unify"] > 0


def test_unconstrained_paradigms_under_the_fixture_rules_take_as_many_combinations(
    spanish_dict, wf_rules, spanish_oracle, monkeypatch
):
    # one product over each lemma's stems, then one per stem over its
    # joined endings' surfaces, which yields each stem-ending pair once
    yielded = []

    def counted(*lists):
        for item in product(*lists):
            yielded.append(item)
            yield item

    monkeypatch.setattr(morph_engine, "product", counted)
    for lemma in sorted_lemmas(spanish_dict):
        assert generate(lemma, EMPTY_TREE, spanish_dict, wf_rules) == spanish_oracle(
            lemma, EMPTY_TREE
        )
    assert len(yielded) == 159


def test_an_unconstrained_paradigm_under_a_nested_read_builds_its_trees(
    spanish_dict, fixtures_dir, monkeypatch
):
    # `Word pers = Ending agr pers` reads below the ending's `agr`,
    # which an ending could hold as a leaf
    text = (fixtures_dir / "wf.rules").read_text(encoding="utf-8")
    rules = parse_wf_rules(text + "  Word pers = Ending agr pers\n")
    expected = all_pairs_generation(spanish_dict, rules)("pedir", EMPTY_TREE)
    calls = _counting_engine(monkeypatch)
    assert generate("pedir", EMPTY_TREE, spanish_dict, rules) == expected
    assert calls["_execute"] > 0 and calls["unify"] > 0


def _counting_lookups(monkeypatch):
    calls = []
    lookup = ObjectDictionary.lookup

    def counted(self, surface):
        calls.append(surface)
        return lookup(self, surface)

    monkeypatch.setattr(ObjectDictionary, "lookup", counted)
    return calls


@pytest.mark.parametrize("length", [2, 5, 12])
def test_a_word_with_no_stored_prefix_costs_one_lookup_per_first_cut(monkeypatch, length):
    dictionary = small_dictionary([STEM, ("a", "concat = vm"), ("ba", "concat = vm")])
    calls = _counting_lookups(monkeypatch)
    word = "x" * length
    # a rule that names no index looks up every first part
    rules = parse_wf_rules("#WF-RULES\n\nWord -> Stem Ending\n  Word lex = Stem lex\n")
    assert analyze(word, dictionary, rules) == []
    assert calls == [word[:c] for c in range(1, length)]
    # no tail is in the endings' set, so no prefix is looked up
    calls.clear()
    assert analyze(word, dictionary, parse_wf_rules(STEM_ENDING)) == []
    assert calls == []


def test_words_shorter_than_the_rule_need_no_lookup(monkeypatch):
    dictionary = small_dictionary([STEM, ("a", "concat = vm")])
    rules = parse_wf_rules(STEM_ENDING + "\nW -> A B C\n  W lex = A lex\n")
    calls = _counting_lookups(monkeypatch)
    assert analyze("", dictionary, rules) == []
    assert analyze("a", dictionary, rules) == []
    assert calls == []
    # two letters reach the two-constituent rule only, whose tail "a"
    # is in the endings' set, but whose first part "a" is not in the
    # stems'
    assert analyze("aa", dictionary, rules) == []
    assert calls == []


def test_a_tail_part_is_looked_up_once_per_rule(monkeypatch):
    surfaces = ["".join(p) for n in range(1, 5) for p in product("ab", repeat=n)]
    dictionary = small_dictionary([(s, "lex = " + s) for s in surfaces])
    rules = parse_wf_rules("#WF-RULES\n\nW -> A B C\n  W lex = A lex\n")
    calls = _counting_lookups(monkeypatch)
    got = analyze("abbabaabab", dictionary, rules)
    # 8 first cuts and 26 distinct tail parts other than the stored
    # first parts (50 lookups if each tail looked up its parts again)
    assert len(calls) == len(set(calls)) == 34
    assert {(a.category, a.tree.canonical_form()) for a in got} == all_pairs_analyses(
        "abbabaabab", dictionary, rules
    )


# Analysis looks up only the parts its constituents' indexes admit.
# Entries an index `C cat = v` admits or refuses in every way: lacking
# `cat`, a multi-valued `cat` leaf, a subtree at `cat`, a quoted value;
# rules whose indexes are a plain test, a quoted value, a value in a
# class the result reads (`M cat = S cat`), a middle constituent of
# three, and a two-valued equation, which names no index.
_SET_TREE_TEXTS = [
    "\n".join(lines)
    for lines in product(
        ["", "cat = s", "cat = m", "cat = s m", "cat sub = s", 'cat = "q r"'],
        ["", "lex = x", "lex = y"],
        ["", "id = 1", "id = 2"],
        ["", "agr = 1", "agr = 2"],
    )
]

_SET_RULES = [
    "W -> S E\n  S cat = s\n  E cat = m\n  W lex = S lex\n  S agr = E agr\n  W end = E id\n",
    'Q -> S E\n  S cat = "q r"\n  E cat = m\n  Q lex = S lex\n  Q end = E id\n',
    "M -> S E\n  M cat = S cat\n  S cat = s\n  E cat = m\n  M lex = S lex\n  M agr = E agr\n",
    "T -> A B C\n  B cat = m\n  T lex = A lex\n  A agr = C agr\n  T mid = B id\n",
    "U -> A B C\n  A cat = s m\n  C cat = s\n  U lex = A id\n  U end = C agr\n",
]


def _expected_lemma(canonical, feature):
    """The one value of a top-level leaf at the feature, read from a
    canonical text, else None."""
    lines = [line for line in canonical.splitlines() if line.startswith(feature + " = ")]
    if len(lines) != 1 or " " in lines[0][len(feature) + 3 :]:
        return None
    return lines[0][len(feature) + 3 :]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_analysis_through_the_surface_sets_equals_the_oracle(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_SET_TREE_TEXTS)),
            min_size=1,
            max_size=8,
        )
    )
    dictionary = small_dictionary(entries)  # keeps its sets across the calls
    rules = parse_wf_rules(
        "#WF-RULES\n\n"
        + "\n".join(data.draw(st.lists(st.sampled_from(_SET_RULES), min_size=1, unique=True)))
    )
    spelled = st.lists(st.sampled_from([s for s, _ in entries]), min_size=1, max_size=3)
    for _ in range(data.draw(st.integers(1, 4))):
        surface = data.draw(st.one_of(spelled.map("".join), st.text("ab", max_size=6)))
        feature = data.draw(st.sampled_from(["lex", "id"]))
        got = [
            (a.category, a.lemma, a.tree.canonical_form(), tuple(p for p, _ in a.segmentation),
             tuple(id(e) for _, e in a.segmentation))
            for a in analyze(surface, dictionary, rules, feature)
        ]
        expected = [
            (lhs, _expected_lemma(canonical, feature), canonical,
             tuple(e.surface for e in combo), tuple(id(e) for e in combo))
            for lhs, canonical, combo in ordered_analyses(surface, dictionary, rules)
        ]
        assert got == expected


@pytest.mark.parametrize("bound", [0, 1, 2, 5])
def test_analysis_keeps_its_sets_within_the_bound(
    monkeypatch, spanish_dict, wf_rules, spanish_oracle, bound
):
    monkeypatch.setattr(morph_engine, "MAX_NODE_TABLES", bound)
    dictionary = ObjectDictionary(spanish_dict.entries)  # no tables yet
    lemmas = sorted_lemmas(spanish_dict)
    forms = {form for lemma in lemmas for form in spanish_oracle(lemma, EMPTY_TREE)}
    assert len(forms) >= 50
    # each form, and two misses near it
    words = sorted(forms | {form[:-1] for form in forms} | {form + "s" for form in forms})

    def analyze_all():
        for word in words:
            got = [
                (a.category, a.tree.canonical_form(), tuple(id(e) for _, e in a.segmentation))
                for a in analyze(word, dictionary, wf_rules)
            ]
            assert got == [
                (lhs, canonical, tuple(id(e) for e in combo))
                for lhs, canonical, combo in ordered_analyses(word, dictionary, wf_rules)
            ], word
            assert len(dictionary.node_tables) <= bound

    # the two sets, then the rule's tuple of them, are kept outside the
    # bounded tables, which generation alone fills; analysis runs again
    # over the full tables and builds no set again
    analyze_all()
    assert len(dictionary.node_tables) == 0
    kept = dict(dictionary.surface_sets)
    assert len(kept) == 3
    for lemma in lemmas:
        assert generate(lemma, EMPTY_TREE, dictionary, wf_rules) == spanish_oracle(lemma, EMPTY_TREE)
        assert len(dictionary.node_tables) <= bound
    monkeypatch.setattr(dictionary, "lookup_by_concat", None)
    analyze_all()
    assert len(dictionary.node_tables) == bound
    assert dictionary.surface_sets.keys() == kept.keys()
    assert all(dictionary.surface_sets[key] is sets for key, sets in kept.items())


# Rules drawn, in shuffled order, from equations whose paths overlap in
# every way: a write at `agr` then a read at `agr pers` and the other
# way round, both sides on one root, value equations after links,
# equations that read the result back into a constituent, and the
# README's trio (`V lex = A lex`, `A lex = B lex`, `V lex = C lex`).
# The engine meets each class of places once; the oracles run the
# equations as copies, pass after pass, until nothing changes.
_LIVENESS_EQUATIONS = [
    "V lex = A lex",
    "A lex = B lex",
    "V lex = C lex",
    "A agr = B agr",
    "V agr pers = A agr pers",
    "B agr pers = C agr pers",
    "V agr = B agr",
    "A id = A agr pers",
    "V id = A id",
    "A agr pers = 1",
    "B lex = y",
    "C agr = V agr",
]

_LIVENESS_TREE_TEXTS = [
    "\n".join(lines)
    for lines in product(
        ["", "lex = x", "lex = y", "lex = x y"],
        ["", "agr = 1", "agr pers = 1", "agr pers = 1 2", "agr pers = 2\nagr num = s"],
        ["", "id = 1", "id = 1 2"],
    )
]

_LIVENESS_CONSTRAINTS = {("lex",): ["x", "y"], ("agr", "pers"): ["1", "2"], ("id",): ["1", "2"]}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_skipped_writes_never_change_an_answer(data):
    entries = data.draw(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=2), st.sampled_from(_LIVENESS_TREE_TEXTS)),
            min_size=1,
            max_size=5,
        )
    )
    dictionary = small_dictionary(entries)
    equations = data.draw(
        st.lists(st.sampled_from(_LIVENESS_EQUATIONS), min_size=2, unique=True)
    )
    shuffled = data.draw(st.permutations(equations))
    rules, reordered = (
        parse_wf_rules("#WF-RULES\n\nV -> A B C\n" + "".join("  %s\n" % eq for eq in eqs))
        for eqs in (equations, shuffled)
    )
    # every spelling of three entries, so every triple of entries runs
    for surface in sorted({"".join(parts) for parts in product([s for s, _ in entries], repeat=3)}):
        got = analyze(surface, dictionary, rules)
        assert {(a.category, a.tree.canonical_form()) for a in got} == all_pairs_analyses(
            surface, dictionary, rules
        ), surface
        # the same readings in the same order, whatever the equation order
        assert [
            (a.category, a.tree.canonical_form(), a.segmentation)
            for a in analyze(surface, dictionary, reordered)
        ] == [(a.category, a.tree.canonical_form(), a.segmentation) for a in got], surface
    constraints = EMPTY_TREE
    for path in data.draw(st.lists(st.sampled_from(sorted(_LIVENESS_CONSTRAINTS)), unique=True)):
        texts = data.draw(
            st.lists(st.sampled_from(_LIVENESS_CONSTRAINTS[path]), min_size=1, unique=True)
        )
        constraints = constraints.set(path, leaf(*texts))
    oracle = all_pairs_generation(dictionary, rules)
    for lemma in ("x", "y"):
        expected = oracle(lemma, constraints)
        assert generate(lemma, constraints, dictionary, rules) == expected
        assert generate(lemma, constraints, dictionary, reordered) == expected


# -- classes of places -------------------------------------------------------------


@pytest.mark.parametrize(
    "equations",
    [
        ("A p = A p q",),
        ("A p q = A p",),
        ("A p = A p q", "V x = A p"),
        # through the closure: A p and B q share a node, which B q x is below
        ("A p = B q", "B q x = A p"),
        ("B q x = A p", "A p = B q"),
        ("A p = B q", "B q = V r", "V r x = A p"),
    ],
)
def test_a_place_equated_with_its_own_extension_is_refused_at_the_rule_line(equations):
    text = (
        "#WF-RULES\n\nWord -> Stem Ending\n  Word lex = Stem lex\n\nV -> A B\n"
        + "".join("  %s\n" % eq for eq in equations)
    )
    with pytest.raises(SourceSyntaxError) as caught:
        parse_wf_rules(text, "cycle.rules")
    assert (caught.value.file, caught.value.line) == ("cycle.rules", 6)
    assert caught.value.message == "the equations equate a place with its own extension"


# entries for `V -> A B`, with subtrees, leaves and gaps at A p and B q
_CLASS_ENTRIES = [
    ("a", "p x = 1 2\np y = 1"),
    ("a", "p x = 2"),
    ("a", "p = 1"),
    ("a", "r = 1"),
    ("b", "q x = 1"),
    ("b", "q y = 2\nr = 1"),
    ("b", "q = 1"),
    ("b", "agr = 1"),
    ("b", "agr num = s"),
]


@pytest.mark.parametrize(
    "equations",
    [
        # no cycle: A p x and B q y share a node, below A p and B q
        ("A p = B q", "A p x = B q y", "V x = A p"),
        # a result place below another: V agr's class has a child pers
        ("V agr = B agr", "V agr pers = A p x"),
        # a class with values and a child: a leaf has no children, so
        # no candidate passes
        ("A p = 1", "A p x = B r", "V lex = B r"),
        # a class of three places that the result does not read
        ("A p x = B q x", "B q x = A r", "V lex = B r"),
    ],
)
def test_classes_answer_like_the_oracle_in_every_order(equations):
    dictionary = small_dictionary(_CLASS_ENTRIES)
    answers = []
    for order in permutations(equations):
        rules = parse_wf_rules("#WF-RULES\n\nV -> A B\n" + "".join("  %s\n" % eq for eq in order))
        got = {(a.category, a.tree.canonical_form()) for a in analyze("ab", dictionary, rules)}
        assert got == all_pairs_analyses("ab", dictionary, rules), order
        assert generate("1", EMPTY_TREE, dictionary, rules) == all_pairs_generation(
            dictionary, rules
        )("1", EMPTY_TREE), order
        answers.append(got)
    assert all(got == answers[0] for got in answers)


def test_a_place_alone_in_its_class_must_not_lie_below_a_leaf():
    # `A p x = A p x` equates a place only with itself, so it is tested
    # against itself: the candidate whose p is a leaf fails
    dictionary = small_dictionary(
        [("a", "p = 1"), ("c", "p x = 1"), ("d", "r = 1"), ("b", "lex = 1")]
    )
    rules = parse_wf_rules("#WF-RULES\n\nV -> A B\n  A p x = A p x\n  V lex = B lex\n")
    for surface, count in (("ab", 0), ("cb", 1), ("db", 1)):
        got = analyze(surface, dictionary, rules)
        assert len(got) == count
        assert {(a.category, a.tree.canonical_form()) for a in got} == all_pairs_analyses(
            surface, dictionary, rules
        )
    expected = all_pairs_generation(dictionary, rules)("1", EMPTY_TREE)
    assert generate("1", EMPTY_TREE, dictionary, rules) == expected == ["bb", "cb", "db"]
