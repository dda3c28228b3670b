"""One lexiforge command line in a measured child process.

    python3 perfbench/child.py REPORT.json import
    python3 perfbench/child.py REPORT.json compile [--trace] SOURCE -o OUTPUT

`import` only imports `lexiforge.cli`, the set-up every command pays.
`compile` runs the CLI's own entry point, as `lexiforge compile` does,
optionally with the tracer installed.  Both run under a `Calibrator`
and write the raw and speed-scaled CPU seconds of the work, the exit code
and the trace, if any, to REPORT.json.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from calibrate import Calibrator  # noqa: E402


def main(argv: list[str]) -> int:
    report_path, mode, *rest = argv
    traced = rest[:1] == ["--trace"]
    if traced:
        rest = rest[1:]
    report = {}
    with Calibrator() as calibrator:
        mark = calibrator.mark()
        if traced:
            tracer = tracing.Tracer(calibrator.clock)
            tracing.install_all(tracer, tracing.COMPILE_SPANS)
        from lexiforge import cli

        try:
            code = cli.main(["compile", *rest]) if mode == "compile" else 0
        except Exception:  # a crash is a failed compile, reported like any other
            traceback.print_exc()
            code = 70
        report["raw_s"], report["scaled_s"] = calibrator.since(mark)
    report["code"] = code
    if traced:
        report["trace"] = tracer.dump()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
