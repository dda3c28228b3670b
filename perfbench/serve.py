"""Serving process of the analyze and generate workloads.

    python3 perfbench/serve.py JOB.json

A fresh process that never compiles: it loads the compiled dictionary
and the word-formation rules `setup_reps` times, then answers the
seeded request stream of `synth.py` in a closed loop with one client,
until `count` requests are done or `seconds` have passed.  The stream
never plans a repeat.  With `trace` the tracer is installed before
set-up.  A `Calibrator` samples the machine's speed between requests.

The process keeps little state of its own, so that its peak RSS is the
program's: the lemma table the stream draws from, and the calibration
samples.  Each request is written to the job's `log` as it is served,
one tab-separated line: the request, its unscaled latency in CPU
seconds, the number of calibration samples taken before it, and the
digest of its answer (`error:` and the exception's name if it raised).  The job's
`out` file gets the set-up times, the calibration samples, the peak
RSS before the first load and at the end, and the trace.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import synth  # noqa: E402
import tracer as tracing  # noqa: E402
from calibrate import INTERVAL_S, Calibrator  # noqa: E402


def request_text(request) -> str:
    """One request as a log field: a word, or `lemma[ tense pers num]`."""
    if isinstance(request, str):
        return request
    lemma, cell = request
    return " ".join((lemma, *cell)) if cell else lemma


def parse_request(workload: str, text: str):
    if workload == "analyze":
        return text
    lemma, *cell = text.split(" ")
    return lemma, tuple(cell) or None


class Server:
    def __init__(self, job, calibrator: Calibrator):
        from lexiforge import morph_engine, object_dict
        from lexiforge.feature_tree import EMPTY_TREE, leaf

        self.job = job
        self.calibrator = calibrator
        self.morph_engine = morph_engine
        self.object_dict = object_dict
        self.lemmas = synth.lemmas(job["seed"], job["lemmas"])
        self.empty = EMPTY_TREE
        self.constraints = {
            cell: EMPTY_TREE.set(("vinfo", "tense"), leaf(cell[0]))
            .set(("agr", "pers"), leaf(cell[1]))
            .set(("agr", "num"), leaf(cell[2]))
            for cell in synth.CELLS
        }

    def setup(self) -> tuple[float, float]:
        """Load the dictionary and parse the rules; (raw, scaled) seconds."""
        self.dictionary = self.rules = None
        with self.calibrator:
            mark = self.calibrator.mark()
            self.dictionary = self.object_dict.load(self.job["dic"])
            with open(self.job["rules"], encoding="utf-8") as handle:
                self.rules = self.morph_engine.parse_wf_rules(handle.read(), self.job["rules"])
            return self.calibrator.since(mark)

    def serve(self) -> int:
        """Serve the stream, logging every request; returns how many were
        served.  The calibration kernel runs between requests, so that
        none is interrupted."""
        job, engine, dictionary, rules = self.job, self.morph_engine, self.dictionary, self.rules
        calibrator, clock = self.calibrator, self.calibrator.clock
        analyzing = job["workload"] == "analyze"
        if analyzing:
            stream, call = synth.analyze_stream(self.lemmas, job["seed"]), engine.analyze
        else:
            stream, call = synth.generate_stream(self.lemmas, job["seed"]), engine.generate
        count = job["count"] or float("inf")
        deadline = perf_counter() + job["seconds"] if job["seconds"] else float("inf")
        next_sample = perf_counter() + INTERVAL_S
        done = 0
        with open(job["log"], "w", encoding="utf-8") as log:
            for request in stream:
                if done >= count or perf_counter() >= deadline:
                    break
                if perf_counter() >= next_sample:
                    calibrator.sample()
                    next_sample = perf_counter() + INTERVAL_S
                if analyzing:
                    args = (request, dictionary, rules)
                else:
                    lemma, cell = request
                    args = (lemma, self.constraints[cell] if cell else self.empty, dictionary, rules)
                start = clock()
                try:
                    result = call(*args)
                except Exception as exc:  # the request counts as failed; serving goes on
                    elapsed = clock() - start
                    answer = "error:%s" % type(exc).__name__
                else:
                    elapsed = clock() - start
                    if analyzing:
                        result = sorted([r.category, r.tree.canonical_form()] for r in result)
                    answer = check.digest(result)
                log.write("%s\t%r\t%d\t%s\n" % (request_text(request), elapsed, len(calibrator.speeds), answer))
                done += 1
        calibrator.sample()
        return done


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    calibrator = Calibrator()
    server = Server(job, calibrator)
    if job["trace"]:
        tracer = tracing.Tracer(calibrator.clock)
        tracing.install_all(tracer, tracing.SERVE_SPANS)
    out = {"harness_rss_mb": maxrss_mb()}
    out["setup_s"] = [server.setup() for _ in range(job["setup_reps"])]
    out["served"] = server.serve()
    out["peak_rss_mb"] = maxrss_mb()
    out["speeds"] = calibrator.speeds
    if job["trace"]:
        out["trace"] = tracer.dump()
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
