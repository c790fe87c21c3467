"""Run one workload in this (fresh) process and print its raw results.

Started by ``run.py``, one process per workload run, so the memory peak
belongs to this workload alone. Each op calls ``mzbell.cli.main`` with
stdout and stderr captured, is timed around that call only, and has its
output checked. The last stdout line is one JSON object.

    python3 bench/worker.py --workload W --seed N --seconds S --spec-dir DIR
        [--rounds R] [--spans FILE]

A first round warms up untimed. Then, without ``--rounds``, whole timed
rounds run as long as another round of average length fits in
``--seconds`` (at least one); with it exactly R timed rounds run, which is
how the traced run repeats the work of the untraced one. ``--spans`` turns
tracing on and names the file the spans are written to.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import workloads

MAX_REPORTED_ERRORS = 5


def _error_class(stderr: str) -> str:
    """Exception class named by the CLI's ``error: Class: message`` line."""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            return line[len("error: "):].split(":", 1)[0]
    return "no-message"


def invoke(cli, op, spec_file: Path) -> tuple[float, int | None, str, str]:
    """Run one op; returns (seconds, exit code or None, error class, stdout).
    A traceback gives exit code None and the exception's class."""
    document = op.spec_document
    if document is not None:
        spec_file.write_text(document, encoding="utf-8")
    argv = op.argv(str(spec_file))
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        error = "SystemExit"
    except Exception as exc:       # a traceback is a failure; the run goes on
        error = type(exc).__name__
    elapsed = perf_counter() - start
    if code not in (0, None) and not error:
        error = _error_class(err.getvalue())
    return elapsed, code, error, out.getvalue()


def outcome(op, code: int | None, error: str,
            stdout: str) -> tuple[str | None, bool]:
    """How the op failed (None if it did not), and whether that is the
    named fault it probes. Raises CheckError when a successful op's output
    is wrong."""
    if code != 0:
        how = (f"exit={code} {error}" if code is not None
               else f"traceback {error}")
        return how, (op.fault == workloads.DENSE_LIMIT_FAULT
                     and (code, error) == (2, "DimensionLimitError"))
    try:
        checks.check(op, stdout)
    except checks.KnownFault as exc:
        return f"exit=0 {exc.detail}", exc.fault == op.fault
    return None, False


def blas_info() -> str:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the run and write its spans here")
    parser.add_argument("--spec-dir", type=Path, required=True,
                        help="directory for spec files")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O would strip the __debug__ trig-form check in homodyne
        parser.error("run without -O")

    import numpy
    import mzbell.cli

    op_s: list[list[float | None]] = []   # per timed round, per op
    attempted, failed, bad = 0, 0, 0   # bad: unexpected failure or check
    failures: Counter = Counter()
    errors: list[str] = []
    args.spec_dir.mkdir(parents=True, exist_ok=True)
    spec_file = args.spec_dir / f"spec-{os.getpid()}.json"
    round_wall, round_units, loop_s = [], [], []

    def run_round(round_no: int) -> tuple[float, int, list[float | None]]:
        """Run, check and count one round: its summed op time, its units,
        and each op's time (None where the op failed)."""
        nonlocal attempted, failed, bad
        wall, units, times = 0.0, 0, []
        for op in workloads.round_ops(args.workload, args.seed, round_no):
            elapsed, code, error, stdout = invoke(mzbell.cli, op, spec_file)
            attempted += 1
            wall += elapsed
            try:
                how, known = outcome(op, code, error, stdout)
            except (checks.CheckError, ValueError) as exc:
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(f"{op.spec}: {exc}")
                bad += 1
                how, known = None, False
            times.append(elapsed if how is None else None)
            if how is None:
                units += op.units
                continue
            failed += 1
            if not known:
                bad += 1
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(f"{op.spec}: {how}")
            failures[f"{op.fault}: {how}" if known else how] += 1
        return wall, units, times

    # Round 0 warms up: first calls, lazy set-up and the pair-tensor cache.
    # It is checked and counted, but neither timed nor traced.
    run_round(0)
    tracer = None
    if args.spans is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    start = perf_counter()
    while True:
        begun = perf_counter()
        wall, units, times = run_round(len(round_wall) + 1)
        loop_s.append(perf_counter() - begun)
        round_wall.append(wall)
        round_units.append(units)
        op_s.append(times)
        if args.rounds:
            if len(round_wall) == args.rounds:
                break
        # start another round only if one of average length still fits
        elif perf_counter() - start + statistics.fmean(loop_s) > args.seconds:
            break
    rounds = len(round_wall)

    result = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "attempted": attempted, "failed": failed,
        "failures": dict(failures), "bad": bad, "errors": errors,
        "round_wall_s": round_wall, "round_units": round_units,
        "op_s": op_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "blas": blas_info()},
    }
    spec_file.unlink(missing_ok=True)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
