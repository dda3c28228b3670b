"""Seeded synthetic verb base and the benchmark's own reference answers.

The base reuses the repository's Spanish fixture classes and endings
(`fixtures/classes.lex`, `fixtures/morphemes.lex`) and adds seeded
lemmas whose names are letter-only consonant-vowel pseudo-words.  Every
expected answer below is derived from the tables in this file: the
stems each lemma gets, and the ending table transcribed from
`fixtures/morphemes.lex`.  Nothing here imports lexiforge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CONSONANTS = "bcdfglmnprst"
VOWELS = "aeiou"
THEME = {1: "a", 2: "e", 3: "i"}

# Slot sets from fixtures/classes.lex.
STT_REG = frozenset("11 12 13 14 15 16 21 22 23 24 25 26".split())
STT_8C_1 = frozenset(
    "0 14 15 21 22 23 24 25 26 31 32 34 35 41 42 43 44 45 46 71 72 73 74 75 76 85 99".split()
)
STT_8C_2 = frozenset("11 12 13 16 33 36 51 52 53 54 55 56 61 62 63 64 65 66 82 90".split())


@dataclass(frozen=True)
class Ending:
    surface: str
    conj: frozenset
    stt: frozenset
    pers: frozenset
    num: str
    tense: str


def _ending(surface, conj, stt, pers, num, tense):
    return Ending(
        surface, frozenset(conj.split()), frozenset(stt.split()),
        frozenset(pers.split()), num, tense,
    )


# Transcribed from fixtures/morphemes.lex.
ENDINGS = (
    _ending("o", "1 2 3", "11", "1", "sing", "pres"),
    _ending("as", "1", "12", "2", "sing", "pres"),
    _ending("es", "2 3", "12", "2", "sing", "pres"),
    _ending("a", "1", "13", "3", "sing", "pres"),
    _ending("e", "2 3", "13", "3", "sing", "pres"),
    _ending("amos", "1", "14", "1", "plu", "pres"),
    _ending("emos", "2", "14", "1", "plu", "pres"),
    _ending("imos", "3", "14", "1", "plu", "pres"),
    _ending("áis", "1", "15", "2", "plu", "pres"),
    _ending("éis", "2", "15", "2", "plu", "pres"),
    _ending("ís", "3", "15", "2", "plu", "pres"),
    _ending("an", "1", "16", "3", "plu", "pres"),
    _ending("en", "2 3", "16", "3", "plu", "pres"),
    _ending("aba", "1", "21 23", "1 3", "sing", "impf"),
    _ending("abas", "1", "22", "2", "sing", "impf"),
    _ending("ábamos", "1", "24", "1", "plu", "impf"),
    _ending("abais", "1", "25", "2", "plu", "impf"),
    _ending("aban", "1", "26", "3", "plu", "impf"),
    _ending("ía", "2 3", "21 23", "1 3", "sing", "impf"),
    _ending("ías", "2 3", "22", "2", "sing", "impf"),
    _ending("íamos", "2 3", "24", "1", "plu", "impf"),
    _ending("íais", "2 3", "25", "2", "plu", "impf"),
    _ending("ían", "2 3", "26", "3", "plu", "impf"),
)

# (tense, pers, num) cells a single-cell generate request can ask for.
CELLS = tuple(
    (tense, pers, num)
    for tense in ("pres", "impf")
    for num in ("sing", "plu")
    for pers in ("1", "2", "3")
)


@dataclass(frozen=True, slots=True)
class Stem:
    surface: str
    lemma: str
    conj: str
    stt: frozenset


@dataclass(frozen=True, slots=True)
class Lemma:
    name: str
    conj: int
    stem_changing: bool  # MV8c: a second stem with e -> i

    @property
    def classes(self) -> str:
        return "%s C%d" % ("MV8c" if self.stem_changing else "MVreg", self.conj)

    def stems(self) -> tuple[Stem, ...]:
        first = self.name[:-2]  # rule rv0: $Xar/$Xer/$Xir -> $X
        if not self.stem_changing:
            return (Stem(first, self.name, str(self.conj), STT_REG),)
        # rule rv8c: $Xe$Cir -> $Xi$C
        second = first[:-2] + "i" + first[-1]
        return (
            Stem(first, self.name, "3", STT_8C_1),
            Stem(second, self.name, "3", STT_8C_2),
        )


def lemmas(seed: int, count: int) -> list[Lemma]:
    """The seeded lemma set: `count` distinct lemmas."""
    rng = random.Random("lexiforge-base-%d" % seed)
    names: set[str] = set()
    out: list[Lemma] = []
    while len(out) < count:
        lemma = _random_lemma(rng)
        if lemma.name not in names:
            names.add(lemma.name)
            out.append(lemma)
    return out


def forms(lemma: Lemma, cell=None) -> set[str]:
    """Surfaces of the lemma, all of them or those of one cell."""
    out = set()
    for stem in lemma.stems():
        for ending in ENDINGS:
            if not _agrees(stem, ending):
                continue
            if cell is not None:
                tense, pers, num = cell
                if ending.tense != tense or ending.num != num or pers not in ending.pers:
                    continue
            out.add(stem.surface + ending.surface)
    return out


class Base:
    """The seeded lemma set plus the indexes the reference needs."""

    def __init__(self, seed: int, count: int):
        self.lemmas = lemmas(seed, count)
        self.by_name = {lemma.name: lemma for lemma in self.lemmas}
        self.stems_by_surface: dict[str, list[Stem]] = {}
        for lemma in self.lemmas:
            for stem in lemma.stems():
                self.stems_by_surface.setdefault(stem.surface, []).append(stem)

    def source_text(self) -> str:
        chunks = ['#INCLUDE "classes.lex"\n#INCLUDE "morphemes.lex"\n\n#LEXEMES\n']
        for lemma in self.lemmas:
            chunks.append("\n%s (%s)\n" % (lemma.name, lemma.classes))
        return "".join(chunks)

    # -- reference answers -------------------------------------------------

    def readings(self, surface: str) -> set[tuple[str, str]]:
        """(category, canonical tree text) of every analysis of surface:
        each stem of the stem table followed by each agreeing ending."""
        out = set()
        for ending in ENDINGS:
            if not surface.endswith(ending.surface):
                continue
            head = surface[: len(surface) - len(ending.surface)]
            for stem in self.stems_by_surface.get(head, ()):
                if _agrees(stem, ending):
                    out.add(("Word", _reading_text(stem.lemma, ending)))
        return out

    def dictionary_blocks(self) -> list[tuple[str, str]]:
        """(surface, canonical tree text) of every object entry."""
        rows = []
        for ending in ENDINGS:
            rows.append((ending.surface, _leaves_text([
                ("agr num", ending.num),
                ("agr pers", _values(ending.pers)),
                ("concat", "vm"),
                ("conj", _values(ending.conj)),
                ("stt", _values(ending.stt)),
                ("sut", "reg"),
                ("vinfo mood", "ind"),
                ("vinfo tense", ending.tense),
            ])))
        for lemma in self.lemmas:
            for stem in lemma.stems():
                rows.append((stem.surface, _leaves_text([
                    ("concat", "vl"),
                    ("conj", stem.conj),
                    ("lex", stem.lemma),
                    ("stt", _values(stem.stt)),
                    ("sut", "reg"),
                ])))
        return rows

    def dictionary_text(self) -> str:
        """The object dictionary file the compiler must write."""
        out = ["LEXIFORGE-OBJDICT 1\n"]
        for surface, canon in sorted(self.dictionary_blocks()):
            out.append(surface + "\n")
            out.extend("  " + line + "\n" for line in canon.splitlines())
            out.append("\n")
        return "".join(out)

    # -- input properties ----------------------------------------------------

    def surfaces(self) -> set[str]:
        return set(self.stems_by_surface) | {e.surface for e in ENDINGS}

    def homograph_share(self) -> float:
        rows = self.dictionary_blocks()
        counts: dict[str, int] = {}
        for surface, _ in rows:
            counts[surface] = counts.get(surface, 0) + 1
        return sum(1 for c in counts.values() if c > 1) / len(counts)

    def split_hit_ratio(self, words) -> float:
        surfaces = self.surfaces()
        splits = hits = 0
        for word in words:
            for cut in range(1, len(word)):
                splits += 1
                hits += word[:cut] in surfaces and word[cut:] in surfaces
        return hits / splits

    def stem_changing_share(self) -> float:
        return sum(l.stem_changing for l in self.lemmas) / len(self.lemmas)


def _agrees(stem: Stem, ending: Ending) -> bool:
    return stem.conj in ending.conj and not stem.stt.isdisjoint(ending.stt)


def _values(texts) -> str:
    return " ".join(sorted(texts))


def _leaves_text(leaves) -> str:
    return "".join("%s = %s\n" % leaf for leaf in leaves)


def _reading_text(lemma: str, ending: Ending) -> str:
    return _leaves_text([
        ("agr num", ending.num),
        ("agr pers", _values(ending.pers)),
        ("lex", lemma),
        ("vinfo mood", "ind"),
        ("vinfo tense", ending.tense),
    ])


def _syllables(rng, n) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n))


def _random_lemma(rng: random.Random) -> Lemma:
    # Short names collide on their stems across conjugations, and short
    # stems are prefixes of longer ones: both make analysis ambiguous.
    n = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
    if rng.random() < 0.1:
        # MV8c needs ...e<consonant>ir; its second stem swaps e for i.
        body = _syllables(rng, n - 1) + rng.choice(CONSONANTS) + "e" + rng.choice(CONSONANTS)
        return Lemma(body + "ir", 3, True)
    conj = rng.choice((1, 1, 2, 3))
    body = _syllables(rng, n) + rng.choice(CONSONANTS)
    return Lemma(body + THEME[conj] + "r", conj, False)


# -- request streams --------------------------------------------------------
#
# Both streams are endless and draw every request afresh, so a run never
# serves a planned repeat: a word or a call recurs only as often as
# independent draws from 10k lemmas make it recur.

LETTERS = CONSONANTS + VOWELS


def analyze_stream(lemmas: list[Lemma], seed: int):
    """About three quarters valid inflected forms of random lemmas and
    cells, one quarter single character corruptions of valid forms."""
    rng = random.Random("lexiforge-analyze-%d" % seed)
    while True:
        word = rng.choice(sorted(forms(rng.choice(lemmas))))
        if rng.random() < 0.25:
            pos = rng.randrange(len(word))
            kind = rng.randrange(3)
            if kind == 0:
                word = word[:pos] + rng.choice(LETTERS) + word[pos:]
            elif kind == 1 and len(word) > 1:
                word = word[:pos] + word[pos + 1 :]
            else:
                word = word[:pos] + rng.choice(LETTERS) + word[pos + 1 :]
        yield word


def generate_stream(lemmas: list[Lemma], seed: int):
    """(lemma name, cell or None): full paradigms and single cells of
    random lemmas, alternating."""
    rng = random.Random("lexiforge-generate-%d" % seed)
    while True:
        yield rng.choice(lemmas).name, None
        yield rng.choice(lemmas).name, rng.choice(CELLS)
