import gc
import io
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiforge import object_dict
from lexiforge.feature_tree import EMPTY_TREE, FeatureTree, ValueSet, is_symbol_text, leaf
from lexiforge.object_dict import FormatError, ObjectDictionary, ObjectEntry, load, save

from sources import parse_tree


def entry(surface, text, **kw):
    return ObjectEntry(surface, parse_tree(text), **kw)


SAMPLE = [
    entry("ped", "lex = pedir\nconcat = vl\nstt = 11 12"),
    entry("pid", "lex = pedir\nconcat = vl\nstt = 13"),
    entry("aba", "lex = aux\nconcat = vm"),
    entry("ped", "lex = pedal\nconcat = w"),
]


# -- building and indexes -------------------------------------------------------

def test_lookup_by_surface_keeps_entry_order():
    d = ObjectDictionary.build(SAMPLE)
    assert [e.tree.get(("lex",)) for e in d.lookup("ped")] == [
        leaf("pedir"),
        leaf("pedal"),
    ]
    assert d.lookup("nope") == []


def test_lemma_and_category_indexes():
    d = ObjectDictionary.build(SAMPLE)
    assert {e.surface for e in d.lookup_by_lemma("pedir")} == {"ped", "pid"}
    assert [e.surface for e in d.lookup_by_concat("vm")] == ["aba"]
    assert d.lookup_by_lemma("nope") == []


def test_multi_valued_index_features_index_under_each_value():
    d = ObjectDictionary.build(
        [entry("x", "lex = a b\nconcat = v w")]
    )
    assert d.lookup_by_lemma("a") == d.lookup_by_lemma("b")
    assert d.lookup_by_concat("v") == d.lookup_by_concat("w")


def test_entries_without_index_features_are_still_looked_up_by_surface():
    d = ObjectDictionary.build([entry("bare", "stt = 1")])
    assert len(d.lookup("bare")) == 1
    assert d.stats().lemmas == 0


def test_interior_index_feature_is_not_indexed():
    d = ObjectDictionary.build([entry("x", "lex sub = a")])
    assert d.lookup_by_lemma("a") == []


def test_entries_lacking_the_concat_feature_are_listed():
    d = ObjectDictionary.build(
        [
            entry("a", "concat = vm"),
            entry("b", "stt = 1"),
            entry("c", "concat sub = x"),
            entry("d", "lex = d"),
        ]
    )
    # holders first, then the entries lacking the feature; an interior
    # node at the feature is present, so 'c' is not listed
    assert [e.surface for e in d.lookup_by_concat("vm")] == ["a", "b", "d"]
    assert [e.surface for e in d.lookup_by_concat("x")] == ["b", "d"]


def test_duplicates_collapse_to_the_first_with_warnings(monkeypatch):
    rendered = []
    canonical_form = FeatureTree.canonical_form

    def counted(tree):
        rendered.append(tree)
        return canonical_form(tree)

    monkeypatch.setattr(FeatureTree, "canonical_form", counted)
    unique = entry("aba", "stt = 1")
    entries = [
        entry("ped", "stt = 1", source_name="pedir"),
        unique,
        entry("ped", "stt = 1", source_name="pedal"),
        entry("ped", "stt = 2"),
        entry("ped", "stt = 1", source_name="pedo"),
    ]
    d = ObjectDictionary.build(entries)
    assert d.entries == (entries[0], unique, entries[3])
    assert d.entries[0].source_name == "pedir"
    assert [w.message for w in d.warnings] == [
        "duplicate object entry 'ped' collapsed (from 'pedal')",
        "duplicate object entry 'ped' collapsed (from 'pedo')",
    ]
    # only the homographs' trees are rendered, each once
    assert len(rendered) == 4
    assert all(tree is not unique.tree for tree in rendered)


def test_stats_counts():
    stats = ObjectDictionary.build(SAMPLE).stats()
    assert stats.entries == 4
    assert stats.surfaces == 3
    assert stats.lemmas == 3  # pedir, pedal, aux
    assert stats.homographs == 1  # only 'ped' has two readings


def test_custom_feature_names():
    d = ObjectDictionary.build([entry("x", "lemma = a\ncat = v")])
    assert [e.surface for e in d.lookup_by_lemma("a", "lemma")] == ["x"]
    assert [e.surface for e in d.lookup_by_concat("v", "cat")] == ["x"]


# -- persistence --------------------------------------------------------------------

def test_save_bytes_are_independent_of_entry_order():
    rng = random.Random(7)
    texts = set()
    for _ in range(6):
        shuffled = SAMPLE[:]
        rng.shuffle(shuffled)
        out = io.StringIO()
        save(ObjectDictionary.build(shuffled), out)
        texts.add(out.getvalue())
    assert len(texts) == 1


def test_saved_form_is_the_documented_layout():
    out = io.StringIO()
    save(ObjectDictionary.build([entry("aba", "stt = 24\nagr pers = 1")]), out)
    assert out.getvalue() == (
        "LEXIFORGE-OBJDICT 1\n"
        "aba\n"
        "  agr pers = 1\n"
        "  stt = 24\n"
        "\n"
    )


def test_round_trip_through_a_file(tmp_path):
    path = str(tmp_path / "out.dic")
    original = ObjectDictionary.build(SAMPLE)
    save(original, path)
    loaded = load(path)
    assert sorted(
        (e.surface, e.tree.canonical_form()) for e in loaded.entries
    ) == sorted((e.surface, e.tree.canonical_form()) for e in original.entries)
    # indexes are rebuilt, not stored
    assert {e.surface for e in loaded.lookup_by_lemma("pedir")} == {"ped", "pid"}


def test_save_load_save_is_the_identity_on_bytes(tmp_path):
    first = io.StringIO()
    save(ObjectDictionary.build(SAMPLE), first)
    second = io.StringIO()
    save(load(io.StringIO(first.getvalue())), second)
    assert first.getvalue() == second.getvalue()


def test_load_accepts_custom_feature_names():
    out = io.StringIO()
    save(ObjectDictionary.build([entry("x", "lemma = a\nlex = b")]), out)
    d = load(io.StringIO(out.getvalue()))
    assert [e.surface for e in d.lookup_by_lemma("a", "lemma")] == ["x"]
    # the same dictionary answers under another feature, with no reload
    assert [e.surface for e in d.lookup_by_lemma("b")] == ["x"]
    assert d.lookup_by_lemma("a") == [] and d.lookup_by_lemma("b", "lemma") == []


def test_entry_without_features_round_trips():
    out = io.StringIO()
    save(ObjectDictionary.build([ObjectEntry("bare", EMPTY_TREE)]), out)
    d = load(io.StringIO(out.getvalue()))
    assert len(d.lookup("bare")) == 1
    assert d.lookup("bare")[0].tree.is_empty


def test_quoted_values_round_trip():
    out = io.StringIO()
    save(ObjectDictionary.build([entry("x", 'gloss = "a; b = c"')]), out)
    d = load(io.StringIO(out.getvalue()))
    assert d.lookup("x")[0].tree.get(("gloss",)) == leaf("a; b = c", quoted=True)


def test_unserializable_surfaces_are_rejected():
    for surface in ("", " lead", "a\nb", "a\rb"):
        with pytest.raises(ValueError):
            save(ObjectDictionary([ObjectEntry(surface, EMPTY_TREE)]), io.StringIO())


def test_exact_duplicates_are_refused_before_writing(tmp_path):
    # load would collapse the two, so the saved bytes would not come back
    path = tmp_path / "dup.dic"
    twin = entry("ped", "lex = pedir")
    with pytest.raises(ValueError, match="duplicate entry 'ped'"):
        save(ObjectDictionary([twin, entry("aba", "lex = aux"), twin]), str(path))
    assert not path.exists()


def test_a_failing_write_leaves_the_old_dictionary_whole(tmp_path, monkeypatch):
    path = tmp_path / "base.dic"
    save(ObjectDictionary.build(SAMPLE), str(path))
    old = path.read_bytes()

    def interrupted(*args):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save(ObjectDictionary.build(SAMPLE[:1]), str(path))
    monkeypatch.undo()
    with pytest.raises(UnicodeEncodeError):
        save(ObjectDictionary.build([entry("x", 'gloss = "\ud800"')]), str(path))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["base.dic"]


def test_save_gives_the_file_the_mode_open_would(tmp_path):
    umask = os.umask(0o027)
    try:
        new = tmp_path / "new.dic"
        save(ObjectDictionary.build(SAMPLE), str(new))
        assert new.stat().st_mode & 0o777 == 0o640
        old = tmp_path / "old.dic"
        old.write_text("")
        old.chmod(0o604)
        save(ObjectDictionary.build(SAMPLE), str(old))
        assert old.stat().st_mode & 0o777 == 0o604
    finally:
        os.umask(umask)


def test_save_writes_through_a_link(tmp_path):
    target = tmp_path / "real.dic"
    target.write_text("")
    link = tmp_path / "link.dic"
    link.symlink_to(target)
    save(ObjectDictionary.build(SAMPLE), str(link))
    assert link.is_symlink()
    assert load(str(target)).entries


# Whitespace that str.splitlines() or str.isspace() treat specially,
# drawn often enough to be tried in every run.
_SPACES = "\x0b\x0c\x1c\x85\u2028 \t"
_surfaces = st.text(st.characters() | st.sampled_from("\n\r" + _SPACES), max_size=8)
_quoted_values = st.text(
    st.characters(blacklist_characters="\n\r") | st.sampled_from(_SPACES + '"\\'),
    max_size=8,
)


def _utf8(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# A quoted string alone, or unquoted values that may need quotes: a
# leaf holding such a value among others cannot be written.
_leaves = st.one_of(
    _quoted_values.map(lambda text: leaf(text, quoted=True)),
    st.lists(st.sampled_from(["a", "b", "a b"]) | _quoted_values, min_size=1, max_size=3).map(
        ValueSet
    ),
)


@settings(max_examples=300)
@given(
    _surfaces,
    st.dictionaries(st.sampled_from(["gloss", "lex", "note"]), _leaves, max_size=3),
)
def test_whatever_save_accepts_loads_back_equal(surface, leaves):
    tree = FeatureTree(leaves)
    original = ObjectEntry(surface, tree)
    texts = [text for values in leaves.values() for text in values]
    saveable = (
        surface != ""
        and not surface[0].isspace()
        and "\n" not in surface
        and "\r" not in surface
        and all(_utf8(text) for text in (surface, *texts))
        and all(
            len(values) == 1 or all(map(is_symbol_text, values))
            for values in leaves.values()
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.dic")
        if not saveable:
            with pytest.raises(ValueError):
                save(ObjectDictionary([original]), path)
            assert not os.path.exists(path)
            return
        save(ObjectDictionary([original]), path)
        loaded = load(path)
    assert loaded.entries == (original,)
    assert loaded.entries[0].tree.canonical_form() == tree.canonical_form()


MULTI = (
    "LEXIFORGE-OBJDICT 1\n"
    "a\n  agr num = sing\n  concat = vm\n  sut = reg\n\n"
    "ped\n  concat = vl\n  lex = pedal\n  sut = reg\n\n"
    "ped\n  concat = vl\n  lex = pedir\n  sut = reg\n\n"
    "pid\n  agr num = sing\n  lex = pedir\n  sut = reg\n\n"
)


def test_load_parses_each_distinct_line_once_per_call(monkeypatch, fixtures_dir):
    calls = []
    parse_equation = object_dict.parse_equation

    def counted(text, *args, **kwargs):
        calls.append(text)
        return parse_equation(text, *args, **kwargs)

    monkeypatch.setattr(object_dict, "parse_equation", counted)
    golden = (fixtures_dir.parent / "tests" / "golden" / "pedir_minimal.dic").read_text(
        encoding="utf-8"
    )
    for text in (MULTI, golden):
        distinct = {line for line in text.split("\n") if line.startswith("  ")}
        calls.clear()
        d = load(io.StringIO(text))
        assert sorted(calls) == sorted(line[2:] for line in distinct)
        # no cache outlives a call
        load(io.StringIO(text))
        assert len(calls) == 2 * len(distinct)
        out = io.StringIO()
        save(d, out)
        assert out.getvalue() == text

    d = load(io.StringIO(MULTI))
    trees = [e.tree for e in d.entries]
    assert all(t.get(("sut",)) is trees[0].get(("sut",)) for t in trees)
    assert trees[1].get(("lex",)) is not trees[2].get(("lex",))
    assert trees[2].get(("lex",)) is trees[3].get(("lex",))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "text, error",
    [
        ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  b c = 2\n\n", None),
        ("LEXIFORGE-OBJDICT 1\nx\r\n  a = 1\n\n", "carriage return"),
        ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  a = 2\n\n", "duplicate feature path"),
    ],
    ids=["loads", "carriage-return", "duplicate-path"],
)
def test_load_leaves_the_cyclic_collector_as_it_found_it(monkeypatch, text, error, enabled):
    during = []
    build = ObjectDictionary.build.__func__

    def recorded(cls, *args, **kwargs):
        during.append(gc.isenabled())
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(ObjectDictionary, "build", classmethod(recorded))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            load(io.StringIO(text))
            assert during == [False]
        else:
            with pytest.raises(FormatError, match=error):
                load(io.StringIO(text))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "surface, error",
    [("ped", None), (" ped", "not serializable")],
    ids=["writes", "refuses"],
)
def test_save_leaves_the_cyclic_collector_as_it_found_it(
    monkeypatch, tmp_path, surface, error, enabled
):
    during = []
    storable = object_dict.storable_surface

    def recorded(text):
        during.append(gc.isenabled())
        return storable(text)

    monkeypatch.setattr(object_dict, "storable_surface", recorded)
    dictionary = ObjectDictionary([entry(surface, "lex = pedir")])
    dest = tmp_path / "out.dic"
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            save(dictionary, str(dest))
            assert dest.read_text(encoding="utf-8").endswith("ped\n  lex = pedir\n\n")
        else:
            with pytest.raises(ValueError, match=error):
                save(dictionary, str(dest))
            assert not dest.exists()
        assert during == [False]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_golden_file_loads(fixtures_dir):
    d = load(str(fixtures_dir.parent / "tests" / "golden" / "pedir_minimal.dic"))
    assert {e.surface for e in d.entries} == {"'abamos", "ped", "pid"}


# -- load errors -------------------------------------------------------------------

def test_load_requires_the_header():
    for text in ("x\n  a = 1\n\n", ""):
        with pytest.raises(FormatError) as exc:
            load(io.StringIO(text))
        assert "missing dictionary header" in str(exc.value)
        assert exc.value.line == 1


def test_load_rejects_future_versions():
    with pytest.raises(FormatError, match="^line 1: unsupported dictionary version ") as exc:
        load(io.StringIO("LEXIFORGE-OBJDICT 2\n"))
    assert exc.value.line == 1


def test_load_rejects_indented_line_outside_an_entry():
    with pytest.raises(FormatError) as exc:
        load(io.StringIO("LEXIFORGE-OBJDICT 1\n\n  a = 1\n"))
    assert "indented line outside an entry" in str(exc.value)
    assert exc.value.line == 3


def test_load_rejects_single_space_indentation():
    with pytest.raises(FormatError) as exc:
        load(io.StringIO("LEXIFORGE-OBJDICT 1\nx\n a = 1\n\n"))
    assert "bad indentation" in str(exc.value)


def test_load_rejects_duplicate_paths():
    text = "LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  a = 2\n\n"
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert "duplicate feature path 'a'" in str(exc.value)
    assert exc.value.line == 4


def test_load_reports_paths_through_leaves_and_lets_bugs_through(monkeypatch):
    text = "LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  a b = 2\n\n"
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert exc.value.line == 4

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(FeatureTree, "__init__", broken)
    with pytest.raises(TypeError):
        load(io.StringIO("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n\n"))


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("a = x", "a b = y", "path 'a b' descends through the leaf at 'a'"),
        ("a b = y", "a = x", "leaf 'a' would replace the features below it"),
        ("a b c = y", "a b = x", "leaf 'a b' would replace the features below it"),
    ],
)
def test_load_refuses_a_leaf_above_or_below_given_features(first, second, message):
    text = "LEXIFORGE-OBJDICT 1\nx\n  %s\n  %s\n\n" % (first, second)
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert exc.value.line == 4
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "text, line",
    [
        # a quoted value used to escape as a bare ValueError from its leaf
        ('LEXIFORGE-OBJDICT 1\nx\n  a = "p\rq"\n\n', 3),
        # an unquoted one used to load as the two values p and q
        ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  b = p\rq\n\n", 4),
        # a surface line used to load as the surface "x\r"
        ("LEXIFORGE-OBJDICT 1\ny\n  a = 1\n\nx\r\n  a = 1\n\n", 5),
    ],
)
def test_load_refuses_carriage_returns_at_their_line(text, line):
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert exc.value.line == line
    assert "carriage return" in str(exc.value)


def test_a_file_with_crlf_line_ends_is_refused_like_a_stream(tmp_path):
    out = io.StringIO()
    save(ObjectDictionary.build(SAMPLE), out)
    text = out.getvalue().replace("\n", "\r\n")
    path = tmp_path / "crlf.dic"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(FormatError) as from_file:
        load(str(path))
    with pytest.raises(FormatError) as from_stream:
        load(io.StringIO(text))
    assert from_file.value.line == from_stream.value.line == 1
    assert str(from_file.value) == str(from_stream.value)


def test_load_rejects_placeholder_values():
    text = "LEXIFORGE-OBJDICT 1\nx\n  a = $rule\n\n"
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert "placeholders are not dictionary values" in str(exc.value)


def test_load_rejects_malformed_equations_with_positions():
    text = "LEXIFORGE-OBJDICT 1\nx\n  not an equation\n\n"
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert exc.value.line == 3


# -- reading and writing in blocks --------------------------------------------------

# Inputs `load` refuses, each with the line and the message it refuses
# them with.  A carriage return is the error whatever else is wrong,
# even when the other fault comes first.
_REFUSED = [
    ("x\n  a = 1\n\n", 1, "missing dictionary header"),
    ("LEXIFORGE-OBJDICT 2\nx\n", 1, "unsupported dictionary version 'LEXIFORGE-OBJDICT 2'"),
    ("LEXIFORGE-OBJDICT", 1, "unsupported dictionary version 'LEXIFORGE-OBJDICT'"),
    ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  a = 2\n\n", 4, "duplicate feature path 'a'"),
    ("LEXIFORGE-OBJDICT 1\n\n  a = 1\n", 3, "indented line outside an entry"),
    ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n\ny\n b = 2", 6, "bad indentation"),
    ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n\ny\n  b", 6, "an equation needs exactly one '='"),
    ("LEXIFORGE-OBJDICT 1\r\nx\n", 1, "carriage return"),
    ("x\n  a = 1\n\r\n", 3, "carriage return"),
    ("LEXIFORGE-OBJDICT 1\nx\n  a = 1\n  a = 2\n\ny\n  b = 1\r\n\n", 7, "carriage return"),
]

# Block sizes that cut the header, lines and line ends everywhere.
_BLOCK_SIZES = [1, 2, 3, 5, 8, 13, 21]


@pytest.mark.parametrize("size", _BLOCK_SIZES)
@pytest.mark.parametrize(
    "text, line, message", _REFUSED, ids=["%d-%s" % (line, m[:12]) for _, line, m in _REFUSED]
)
def test_load_in_small_blocks_refuses_at_the_same_line(monkeypatch, size, text, line, message):
    monkeypatch.setattr(object_dict, "BLOCK_SIZE", size)
    with pytest.raises(FormatError) as exc:
        load(io.StringIO(text))
    assert exc.value.line == line
    assert str(exc.value).startswith("line %d: %s" % (line, message))


@pytest.mark.parametrize("size", _BLOCK_SIZES)
def test_load_and_save_in_small_blocks_give_the_same_dictionary(
    monkeypatch, tmp_path, fixtures_dir, size
):
    golden = (fixtures_dir.parent / "tests" / "golden" / "pedir_minimal.dic").read_text(
        encoding="utf-8"
    )
    out = io.StringIO()
    save(ObjectDictionary.build(SAMPLE), out)
    monkeypatch.setattr(object_dict, "BLOCK_SIZE", size)
    for text in (golden, out.getvalue(), MULTI):
        # a file read in blocks, and one without its final newline
        path = tmp_path / "in.dic"
        path.write_text(text, encoding="utf-8")
        for d in (load(str(path)), load(io.StringIO(text.rstrip("\n")))):
            again = io.StringIO()
            save(d, again)
            assert again.getvalue() == text
            save(d, str(path))
            assert path.read_text(encoding="utf-8") == text


def test_a_failing_write_to_a_stream_leaves_whole_entries(monkeypatch):
    # the first block reaches the bad value; what was written before it stays
    monkeypatch.setattr(object_dict, "BLOCK_SIZE", 1)
    entries = [entry("a", "gloss = x"), entry("b", 'gloss = "\ud800"')]
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    with pytest.raises(UnicodeEncodeError):
        save(ObjectDictionary(entries), stream)
    stream.flush()
    assert raw.getvalue() == b"LEXIFORGE-OBJDICT 1\na\n  gloss = x\n\n"


def test_load_holds_little_more_than_it_keeps(tmp_path):
    # the text is read in blocks, so at its peak load holds the entries
    # it keeps, one block and one run's caches; a whole text and a list
    # of its lines came to half as much again as the entries
    rng = random.Random(3)
    entries = [
        ObjectEntry(
            "s%05d" % i,
            FeatureTree(
                {
                    "lex": leaf("l%d" % (i // 4)),
                    "stt": leaf(*rng.sample(["11", "12", "13", "21", "22"], rng.randint(1, 2))),
                    "agr": FeatureTree(
                        {
                            "num": leaf(rng.choice(["sing", "plu"])),
                            "pers": leaf(str(rng.randint(1, 3))),
                        }
                    ),
                }
            ),
        )
        for i in range(8000)
    ]
    path = tmp_path / "synthetic.dic"
    save(ObjectDictionary.build(entries), str(path))
    del entries
    tracemalloc.start()
    try:
        d = load(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d.entries) == 8000
    assert peak <= 1.25 * kept, (kept, peak)
