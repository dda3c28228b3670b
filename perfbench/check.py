"""Checks of lexiforge's answers against the synthetic base's reference.

Serving answers are compared by digest, so that the serving process
need not keep them.  The reference comes from `synth.Base`, whose tables are independent of lexiforge;
nothing here calls the analyzer, the generator or the test oracles.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice

import synth


def digest(answer) -> str:
    """Digest of an answer: a sorted list of [category, canonical tree]
    pairs (analyze) or the list of surfaces (generate)."""
    text = json.dumps(answer, ensure_ascii=False).encode("utf-8")
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def expected(base: synth.Base, workload: str, request):
    """The reference answer to a request: a word to analyze, or a
    (lemma, cell or None) pair to generate."""
    if workload == "analyze":
        return sorted(base.readings(request))
    lemma, cell = request
    return sorted(synth.forms(base.by_name[lemma], cell))


def wrong_answers(base: synth.Base, workload: str, requests, digests) -> list:
    """The requests whose answer digest differs from the reference's."""
    return [
        request
        for request, got in zip(requests, digests)
        if got != digest(expected(base, workload, request))
    ]


def compile_failed(base: synth.Base, dic_bytes: bytes | None, stdout: str) -> bool:
    """The written dictionary must equal the reference byte for byte, and
    the summary line must give its entry and surface counts."""
    rows = base.dictionary_blocks()
    summary = "wrote %d entries for %d surfaces to " % (
        len(rows), len({surface for surface, _ in rows})
    )
    expected = base.dictionary_text().encode("utf-8")
    return dic_bytes != expected or not stdout.startswith(summary)


def selftest() -> None:
    """The checks must pass the reference's own answers and fail a
    dropped reading, an extra surface and a damaged dictionary."""
    base = synth.Base(0, 300)
    words = list(islice(synth.analyze_stream(base.lemmas, 0), 300))
    answers = [expected(base, "analyze", w) for w in words]
    dropped = list(answers)
    hit = next(i for i, a in enumerate(answers) if a)
    dropped[hit] = answers[hit][1:]

    requests = list(islice(synth.generate_stream(base.lemmas, 0), 40))
    surfaces = [expected(base, "generate", r) for r in requests]
    extra = list(surfaces)
    extra[1] = sorted(surfaces[1] + ["zzzo"])

    def wrong(workload, requests, answers):
        return wrong_answers(base, workload, requests, [digest(a) for a in answers])

    rows = base.dictionary_blocks()
    stdout = "wrote %d entries for %d surfaces to x.dic\n" % (
        len(rows), len({s for s, _ in rows})
    )
    good = base.dictionary_text().encode("utf-8")
    outcomes = {
        "reference analyses": not wrong("analyze", words, answers),
        "dropped reading": wrong("analyze", words, dropped) == [words[hit]],
        "reference surfaces": not wrong("generate", requests, surfaces),
        "extra surface": wrong("generate", requests, extra) == [requests[1]],
        "reference dictionary": not compile_failed(base, good, stdout),
        "damaged dictionary": compile_failed(base, good.replace(b"conj = 1\n", b"", 1), stdout),
    }
    broken = [name for name, ok in outcomes.items() if not ok]
    if broken:
        raise RuntimeError("checker self-test failed: %s" % ", ".join(broken))


if __name__ == "__main__":
    selftest()
    print("checker self-test passed")
