"""The lexiforge benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload compile|analyze|generate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run builds a seeded
synthetic base of 10k lemmas on top of `fixtures/classes.lex` and
`fixtures/morphemes.lex` in a scratch directory under `.bench_work/`,
drives lexiforge from `src/` in child processes, checks every answer
against the reference in `synth.py`, and prints two JSON lines on
stdout: a summary (environment, input properties, sample counts,
failed share, layer map) and last the result object with the metrics
named in `BENCHMARK.json` (`end_to_end` untraced, `per_layer` traced).
See `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import synth  # noqa: E402
from calibrate import around  # noqa: E402
from serve import parse_request  # noqa: E402
from tracer import Trace  # noqa: E402

LEMMAS = 10_000
BUDGET_S = 170  # every run ends well within the 180 s a run may take
IMPORT_REPS = 15  # compile's set-up: `import lexiforge.cli` in a fresh process
SETUP_REPS = 3  # analyze/generate set-up: load plus parse_wf_rules
TRACED_REQUESTS = {"analyze": 4_000, "generate": 400}  # per traced serving process
MIN_TRACED = 2  # traced processes per run, so that their counts can be compared

LOAD, ANALYZE, GENERATE = "object_dict.load", "morph_engine.analyze", "morph_engine.generate"


def _ratio(part, whole):
    return part / whole if whole else 0.0


class Layer(NamedTuple):
    read: Callable[[Trace], float] | None  # None: not read from the trace
    workloads: tuple[str, ...]  # the workloads that run the layer
    moves: str  # the end-to-end metric the layer should move
    base: str | None = None  # phase whose time is the base of the layer's share


C, A, G = ("compile",), ("analyze",), ("generate",)
SERVING = "ops_per_s p99_ms"

# Every per-layer metric of BENCHMARK.json.  On a workload that does not
# run the layer a metric must read 0, and on one that does it must not
# (except where 0 is a valid outcome), so that a hook the program no
# longer calls cannot pass for a layer that got cheaper.
LAYERS = {
    "source.parse_s": Layer(lambda t: t.seconds("source.parse"), C, "p50_ms", "compile"),
    "inheritance.resolve_s": Layer(lambda t: t.seconds("inheritance.resolve_all"), C, "p50_ms", "compile"),
    "alo_rules.apply_calls": Layer(lambda t: t.calls("alo_rules.apply"), C, "p50_ms"),
    "alo_rules.apply_s": Layer(lambda t: t.seconds("alo_rules.apply"), C, "p50_ms", "compile"),
    "type_checker.check_s": Layer(lambda t: t.seconds("type_checker.check_base"), C, "p50_ms", "compile"),
    "dict_compiler.apply_calls": Layer(lambda t: t.calls("dict_compiler.apply_dict_rule"), C, "p50_ms"),
    "dict_compiler.apply_s": Layer(
        lambda t: t.seconds("dict_compiler.apply_dict_rule"), C, "p50_ms", "compile"),
    "dict_compiler.emit_ratio": Layer(
        lambda t: _ratio(t.tally("dict_compiler.apply_dict_rule"), t.calls("dict_compiler.apply_dict_rule")),
        C, "p50_ms"),
    "dict_compiler.self_s": Layer(
        lambda t: t.self_seconds("dict_compiler.compile_base"), C, "p50_ms", "compile"),
    "object_dict.build_s": Layer(
        lambda t: t.seconds("object_dict.build", exclude_root=LOAD), C, "p50_ms", "compile"),
    "object_dict.duplicates": Layer(lambda t: t.tally("object_dict.build"), C, "p50_ms"),
    "object_dict.save_s": Layer(lambda t: t.seconds("object_dict.save"), C, "p50_ms", "compile"),
    "feature_tree.trees_built": Layer(
        lambda t: t.count("feature_tree.trees_built"), C + A + G,
        "p50_ms and peak_rss_mb on compile, setup_s elsewhere"),
    "object_dict.load_s": Layer(lambda t: t.seconds(LOAD), A + G, "setup_s", "setup"),
    "object_dict.load_parse_equation_calls": Layer(
        lambda t: t.calls("source.parse_equation", LOAD), A + G, "setup_s"),
    "object_dict.load_parse_equation_s": Layer(
        lambda t: t.seconds("source.parse_equation", LOAD), A + G, "setup_s", "setup"),
    "object_dict.load_build_s": Layer(lambda t: t.seconds("object_dict.build", LOAD), A + G, "setup_s", "setup"),
    "object_dict.lookup_calls": Layer(lambda t: t.calls("object_dict.lookup", ANALYZE), A, SERVING),
    "object_dict.lookup_s": Layer(lambda t: t.seconds("object_dict.lookup", ANALYZE), A, SERVING, "analyze"),
    "object_dict.lookup_hit_ratio": Layer(
        lambda t: _ratio(t.tally("object_dict.lookup", ANALYZE), t.calls("object_dict.lookup", ANALYZE)),
        A, SERVING),
    "morph_engine.splits": Layer(lambda t: t.count("morph_engine.split", ANALYZE), A, SERVING),
    "morph_engine.combos": Layer(lambda t: t.count("morph_engine.combo", ANALYZE), A, SERVING),
    "morph_engine.readings": Layer(lambda t: t.tally(ANALYZE), A, SERVING),
    "morph_engine.yield": Layer(
        lambda t: _ratio(t.tally(ANALYZE), t.count("morph_engine.combo", ANALYZE)), A, SERVING),
    "morph_engine.analyze_self_s": Layer(lambda t: t.self_seconds(ANALYZE), A, SERVING, "analyze"),
    "feature_tree.canonical_form_calls": Layer(
        lambda t: t.calls("feature_tree.canonical_form", ANALYZE), A, SERVING),
    "object_dict.lookup_by_lemma_s": Layer(
        lambda t: t.seconds("object_dict.lookup_by_lemma", GENERATE), G, SERVING, "generate"),
    "object_dict.lookup_by_concat_s": Layer(
        lambda t: t.seconds("object_dict.lookup_by_concat", GENERATE), G, SERVING, "generate"),
    "morph_engine.gen_combos": Layer(lambda t: t.count("morph_engine.combo", GENERATE), G, SERVING),
    "morph_engine.gen_yield": Layer(
        lambda t: _ratio(t.tally(GENERATE), t.count("morph_engine.combo", GENERATE)), G, SERVING),
    "feature_tree.unify_calls": Layer(lambda t: t.calls("feature_tree.unify"), G, SERVING),
    "feature_tree.unify_s": Layer(lambda t: t.seconds("feature_tree.unify"), G, SERVING, "generate"),
    "morph_engine.generate_self_s": Layer(lambda t: t.self_seconds(GENERATE), G, SERVING, "generate"),
    "trace.overhead_ratio": Layer(None, C + A + G, "none: the cost of tracing"),
}
MAY_BE_ZERO = {"object_dict.duplicates"}


class BenchError(Exception):
    """The run cannot produce a result (missing program, crash, timeout)."""


def phase_seconds(trace: Trace, compile_wall_s: float) -> dict[str, float]:
    return {
        "compile": compile_wall_s,
        "setup": trace.seconds(LOAD) + trace.seconds("morph_engine.parse_wf_rules"),
        "analyze": trace.seconds(ANALYZE),
        "generate": trace.seconds(GENERATE),
    }


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.started = perf_counter()
        self.base = synth.Base(args.seed, LEMMAS)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for name in ("classes.lex", "morphemes.lex", "wf.rules"):
            shutil.copyfile(ROOT / "fixtures" / name, work / name)
        self.source = work / "base.lex"
        self.source.write_text(self.base.source_text(), encoding="utf-8")
        self.dic = work / "base.dic"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def fail(self, count: int, problem: str):
        self.failed += count
        self.problems.append(problem)

    # -- child processes ------------------------------------------------------

    def child(self, argv, log_name: str):
        """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
        remaining = BUDGET_S - (perf_counter() - self.started)
        if remaining < 1:
            raise BenchError("time budget exhausted before %s" % log_name)
        with open(self.work / (log_name + ".out"), "wb") as out, \
                open(self.work / (log_name + ".err"), "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(int(remaining))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:
                proc.kill()
                proc.wait()
                if isinstance(exc, TimeoutError):
                    raise BenchError("%s did not finish within the time budget" % log_name) from None
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def log(self, log_name: str, stream: str = "out") -> str:
        return (self.work / ("%s.%s" % (log_name, stream))).read_text(encoding="utf-8", errors="replace")

    def measured_child(self, mode: str, *args: str) -> dict:
        """One `child.py` run; its report plus the wall time and peak RSS."""
        report_path = self.work / "report.json"
        report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(report_path), mode, *args]
        wall, code, rss = self.child(argv, mode)
        if not report_path.exists():
            raise BenchError("%s child exited %d without a report: %s"
                             % (mode, code, self.log(mode, "err")[-600:]))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report.update(wall_s=wall, exit=code, rss_mb=rss)
        return report

    def compile_once(self, traced: bool) -> dict:
        """One compile child, checked against the reference."""
        self.dic.unlink(missing_ok=True)
        flags = ["--trace"] if traced else []
        report = self.measured_child("compile", *flags, str(self.source), "-o", str(self.dic))
        self.attempted += 1
        data = self.dic.read_bytes() if self.dic.exists() else None
        if report["exit"] != 0 or check.compile_failed(self.base, data, self.log("compile")):
            self.fail(1, "compile exit %d, output differs from the reference: %s"
                      % (report["exit"], self.log("compile", "err")[-300:]))
        report["sha256"] = hashlib.sha256(data or b"").hexdigest()
        return report

    def serve_once(self, trace: int, count: int, seconds: float, setup_reps: int) -> dict:
        """One serving process, every answer checked against the reference."""
        name = self.args.workload
        job = {
            "workload": name,
            "seed": self.args.seed,
            "lemmas": LEMMAS,
            "dic": str(self.dic),
            "rules": str(self.work / "wf.rules"),
            "setup_reps": setup_reps,
            "count": count,
            "seconds": seconds,
            "trace": trace,
            "log": str(self.work / "served.log"),
            "out": str(self.work / "served.json"),
        }
        (self.work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        _, code, _ = self.child([sys.executable, str(BENCH / "serve.py"), str(self.work / "job.json")], "serve")
        if code != 0:
            raise BenchError("serving process exited %d: %s" % (code, self.log("serve", "err")[-600:]))
        served = json.loads((self.work / "served.json").read_text(encoding="utf-8"))
        rows = [line.split("\t") for line in self.log("served", "log").splitlines()]
        if len(rows) != served["served"]:
            raise BenchError("the serving log has %d of %d requests" % (len(rows), served["served"]))
        served["requests"] = [parse_request(name, row[0]) for row in rows]
        speeds = served["speeds"]
        served["latencies_raw_s"] = [float(row[1]) for row in rows]
        served["latencies_s"] = [
            raw * around(speeds, int(row[2])) for raw, row in zip(served["latencies_raw_s"], rows)
        ]
        served["work_s"] = [  # (raw, scaled) seconds of set-up and requests
            sum(s[i] for s in served["setup_s"]) + sum(served[key])
            for i, key in enumerate(("latencies_raw_s", "latencies_s"))
        ]
        wrong = check.wrong_answers(self.base, name, served["requests"], [row[3] for row in rows])
        self.attempted += len(rows)
        if wrong:
            self.fail(len(wrong), "%d answers differ from the reference, first %r" % (len(wrong), wrong[0]))
        return served

    # -- workloads ---------------------------------------------------------------

    def compile_workload(self) -> dict:
        args = self.args
        self.record_inputs(None)
        if not args.trace:
            imports = [self.measured_child("import") for _ in range(IMPORT_REPS)]
            compiles = []
            deadline = perf_counter() + args.seconds
            while not compiles or perf_counter() < deadline:
                compiles.append(self.compile_once(traced=False))
            self.record_determinism(compiles)
            times = [c["scaled_s"] for c in compiles]
            self.info["samples"] = {"setup_s": len(imports), "compile": len(compiles)}
            self.info["p99_ms"] = "slowest of %d compiles (fewer than 1000 samples)" % len(times)
            self.info["raw"] = {
                "setup_s": statistics.median(i["raw_s"] for i in imports),
                "p50_ms": statistics.median(c["raw_s"] for c in compiles) * 1000,
                "compile_wall_s": [round(c["wall_s"], 4) for c in compiles],
            }
            return {
                "setup_s": statistics.median(i["scaled_s"] for i in imports),
                "ops_per_s": len(times) / sum(times),
                "p50_ms": statistics.median(times) * 1000,
                "p99_ms": max(times) * 1000,
                "peak_rss_mb": max(c["rss_mb"] for c in compiles),
                "dic_bytes": float(self.dic.stat().st_size),
            }
        untraced, traced = [], []
        deadline = perf_counter() + args.seconds
        while len(traced) < MIN_TRACED or perf_counter() < deadline:
            untraced.append(self.compile_once(traced=False))
            traced.append(self.compile_once(traced=True))
        self.record_determinism(untraced + traced)
        passes = [(Trace(r["trace"]), r["raw_s"], r["scaled_s"] / r["raw_s"]) for r in traced]
        overhead = statistics.median(r["scaled_s"] for r in traced) / statistics.median(
            r["scaled_s"] for r in untraced)
        return self.combine_layers(passes, overhead)

    def serve_workload(self) -> dict:
        args, name = self.args, self.args.workload
        _, code, _ = self.child(
            [sys.executable, "-m", "lexiforge.cli", "compile", str(self.source), "-o", str(self.dic)],
            "compile",
        )
        if code != 0:
            raise BenchError("compiling the base failed: %s" % self.log("compile", "err")[-300:])

        if args.trace:
            # Untraced and traced processes in pairs, each serving the same
            # first requests of the stream from a fresh start.
            untraced, traced = [], []
            deadline = perf_counter() + args.seconds
            while len(traced) < MIN_TRACED or perf_counter() < deadline:
                untraced.append(self.serve_once(0, TRACED_REQUESTS[name], 0, 1))
                traced.append(self.serve_once(1, TRACED_REQUESTS[name], 0, 1))
            self.record_inputs(traced[0]["requests"] if name == "analyze" else None)
            passes = [(Trace(r["trace"]), 0.0, r["work_s"][1] / r["work_s"][0]) for r in traced]
            overhead = statistics.median(r["work_s"][1] for r in traced) / statistics.median(
                r["work_s"][1] for r in untraced)
            return self.combine_layers(passes, overhead)

        served = self.serve_once(0, 0, args.seconds, SETUP_REPS)
        self.record_inputs(served["requests"] if name == "analyze" else None)
        latencies = sorted(served["latencies_s"])
        n = len(latencies)
        rank = math.ceil(0.99 * n)
        self.info["samples"] = {"setup_s": len(served["setup_s"]), name: n}
        self.info["repeat_share"] = 1 - len(set(served["requests"])) / n
        self.info["p99_ms"] = "nearest-rank 99th percentile of all %d latencies, %d beyond it" % (n, n - rank)
        self.info["harness_rss_mb"] = served["harness_rss_mb"]
        self.info["raw"] = {
            "setup_s": statistics.median(raw for raw, _ in served["setup_s"]),
            "p50_ms": statistics.median(served["latencies_raw_s"]) * 1000,
        }
        return {
            "setup_s": statistics.median(scaled for _, scaled in served["setup_s"]),
            "ops_per_s": n / sum(latencies),
            "p50_ms": statistics.median(latencies) * 1000,
            "p99_ms": latencies[rank - 1] * 1000,
            "peak_rss_mb": served["peak_rss_mb"],
            "dic_bytes": float(self.dic.stat().st_size),
        }

    # -- bookkeeping ---------------------------------------------------------------

    def record_determinism(self, compiles: list[dict]):
        hashes = {c["sha256"] for c in compiles}
        self.info["dic_sha256"] = sorted(hashes)
        if len(hashes) != 1:
            self.fail(1, "compile output differs between repetitions")

    def record_inputs(self, analyzed_words):
        self.info["input"] = {
            "lemmas": len(self.base.lemmas),
            "stem_changing_share": self.base.stem_changing_share(),
            "homograph_share": self.base.homograph_share(),
        }
        if analyzed_words:
            self.info["input"]["split_hit_ratio"] = self.base.split_hit_ratio(analyzed_words)

    def combine_layers(self, passes, overhead_ratio: float) -> dict:
        """Median of each layer metric over the traced repetitions, given
        as (trace, raw seconds of the traced compile, speed factor).
        Times are scaled by the factor; every count must repeat exactly."""
        workload = self.args.workload
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        metrics = {"trace.overhead_ratio": overhead_ratio}
        shares = {}
        phases = [phase_seconds(trace, compile_s) for trace, compile_s, _ in passes]
        for name, layer in LAYERS.items():
            if layer.read is None:
                continue
            raw = [layer.read(trace) for trace, _, _ in passes]
            if units[name] == "s":
                values = [value * factor for value, (_, _, factor) in zip(raw, passes)]
            else:
                values = raw
            if units[name] == "count" and len(set(values)) != 1:
                self.fail(1, "count %s differs between traced repetitions: %s" % (name, values))
            if workload not in layer.workloads and any(values):
                self.fail(1, "%s is not 0 on %s, which does not run that layer" % (name, workload))
            if workload in layer.workloads and not all(values) and name not in MAY_BE_ZERO:
                self.fail(1, "%s reads 0 on %s: its hook is no longer called" % (name, workload))
            metrics[name] = statistics.median(values)
            if layer.base and all(p[layer.base] for p in phases):
                shares[name] = statistics.median(v / p[layer.base] for v, p in zip(raw, phases))
        self.info["traced_repetitions"] = len(passes)
        self.info["layers"] = {
            name: {"workloads": " ".join(layer.workloads), "moves": layer.moves, "share": shares.get(name)}
            for name, layer in LAYERS.items()
        }
        return metrics


def _on_alarm(signum, frame):
    raise TimeoutError


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("compile", "analyze", "generate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "lexiforge" / "cli.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / "fixtures" / n for n in ("classes.lex", "morphemes.lex", "wf.rules")]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print("perfbench: not a lexiforge checkout, missing %s" % ", ".join(absent), file=sys.stderr)
        return 2
    check.selftest()
    # Termination unwinds like an error, so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=ROOT / ".bench_work"))
    try:
        run = Run(args, work)
        if args.workload == "compile":
            metrics = run.compile_workload()
        else:
            metrics = run.serve_workload()
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "failed_share": run.failed / run.attempted,
        "problems": run.problems[:10],
        **run.info,
    }
    print(json.dumps(summary))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
