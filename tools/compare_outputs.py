"""Record the CLI's outputs on a fixed set of ops, and compare two records.

A hot-path change must leave every printed byte as it was. ``record``
imports ``mzbell`` from the given ``src`` directory and calls
``mzbell.cli.main`` in-process on every op of rounds 0 to 2 of each
benchmark workload at seed 7 (drawn by ``bench/workloads.py``, which is
only read) and on a fixed list of heavier probes. It writes each op's
argv, exit code, stdout and stderr to a JSON file. ``diff`` lists the ops
whose exit code, stdout or stderr differ between two such files and exits
1 if there are any. For each, it prints the largest absolute difference
between numeric stdout fields at the same place (CSV cells and report
values), with the size of that field and the difference relative to it.

    python3 tools/compare_outputs.py record --src OLD/src --out old.json
    python3 tools/compare_outputs.py record --src src --out new.json
    python3 tools/compare_outputs.py diff old.json new.json

Run ``record`` once per source tree: each run imports one ``mzbell``.
It pins the BLAS libraries to one thread before importing it, as the
benchmark does: a threaded BLAS may round differently.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ROUNDS = range(3)
#: Thread-count variables pinned to 1 before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Spec file of ops whose state is given as a document, relative to the
#: working directory, so the argv is the same in every run.
SPEC_FILE = "spec.json"
#: (|1500, 0> + |0, 1>)/sqrt 2 on cutoffs (1500, 1): a fringe scan that
#: padded both cutoffs to 1500 was refused at 1501^2 amplitudes; the
#: moment route reads its two stored amplitudes.
BIG_SPEC = {"family": "pure_explicit",
            "params": {"cutoffs": [1500, 1],
                       "amplitudes": [0, 1] + [0] * 2998 + [1, 0]}}
PROBES = (
    (["fringe", "--state", "split_thermal nbar=3", "--phases", "16"], None),
    (["fringe", "--state", "split_thermal nbar=1", "--phases", "64"], None),
    (["fringe", "--state", "split_number n=200"], None),
    (["fringe", "--state", "split_coherent alpha_re=4 alpha_im=1",
      "--phases", "64"], None),
    (["fringe", "--state", "split_single_photon", "--phases", "1"], None),
    (["fringe", "--state", "split_single_photon", "--phases", "3"], None),
    (["fringe", "--state", SPEC_FILE], json.dumps(BIG_SPEC)),
    (["fringe", "--state", "split_number n=50", "--phases", "16"], None),
    (["fringe", "--state", "noisy_split_photon w=0.5 alpha_re=0.7",
      "--phases", "16"], None),
    (["fringe", "--state", "split_coherent alpha_re=1.5 alpha_im=0.3",
      "--phases", "16"], None),
    (["bell-scan", "--state", "split_thermal nbar=0.1", "--grid", "4",
      "--route", "unitary"], None),
    (["bell-scan", "--state", "noisy_split_photon w=0.5 alpha_re=0.7",
      "--grid", "6", "--route", "unitary", "--beta", "0.3"], None),
    # the default input-operator route on a mixed state whose four-mode
    # product with its oscillators would have 1.4e5 nonzeros per angle pair
    (["bell-scan", "--state", "split_thermal nbar=1", "--grid", "4"], None),
    # the default route and grid on a pure state, where the off-diagonal
    # correlators dominate, with the largest array grid (576 rows)
    (["bell-scan", "--state", "split_coherent alpha_re=1.2 alpha_im=0.4"],
     None),
    # split inputs: one high sector, then refusals on the size bound
    # (rank 130 x 130^2 amplitudes, and 1449^2 amplitudes)
    (["analyze", "--state", "split_number n=200"], None),
    (["analyze", "--state", "split_thermal nbar=4.2"], None),
    (["analyze", "--state", "split_number n=1448"], None),
    # real alpha: m12 and anom are exactly imaginary, so m12_re, anom_re
    # and theta1 print 0; a rounding-level real part would move theta1
    (["analyze", "--state", "split_coherent alpha_re=0.7"], None),
    (["analyze", "--state", "split_coherent alpha_re=1.5"], None),
    (["analyze", "--state", "split_coherent alpha_re=3"], None),
    # the unitary route refuses a signal cutoff whose Gram stacks, five
    # angle pairs x 701^2 entries, would pass the amplitude bound
    (["bell-scan", "--state", "split_number n=700", "--grid", "4",
      "--route", "unitary"], None),
    # the default input-operator route on a high-sector split, where a
    # four-mode sum over the product with the oscillators took 0.8 s
    (["bell-scan", "--state", "split_number n=200", "--grid", "4"], None),
)


def ops() -> list[tuple[str, list[str], str | None]]:
    """(label, argv, spec document or None) for every recorded op."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    out = []
    for workload in workloads.WORKLOADS:
        for round_no in ROUNDS:
            for k, op in enumerate(workloads.round_ops(workload, SEED,
                                                       round_no)):
                out.append((f"{workload}/{round_no}/{k}", op.argv(SPEC_FILE),
                            op.spec_document))
    out += [(f"probe/{k}", argv, document)
            for k, (argv, document) in enumerate(PROBES)]
    return out


def run(cli, argv: list[str]) -> dict:
    """One in-process call: its exit code (or the class of the exception
    it raised), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:       # a traceback is an outcome too
            code = f"traceback {type(exc).__name__}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(src: Path, path: Path) -> int:
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(src.resolve()))
    import mzbell.cli
    todo = ops()
    results = {}
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for label, argv, document in todo:
                if document is not None:
                    Path(SPEC_FILE).write_text(document, encoding="utf-8")
                results[label] = {"argv": argv, **run(mzbell.cli, argv)}
        finally:
            os.chdir(cwd)
    path.write_text(json.dumps({"src": str(src), "ops": results}, indent=1),
                    encoding="utf-8")
    print(f"recorded {len(results)} ops from {mzbell.cli.__file__}")
    return 0


#: Separators of the fields of an output line: CSV commas and " = ".
FIELD_SEPARATOR = re.compile(r",| = ")


def largest_difference(old: str, new: str) -> tuple[float, float] | None:
    """The largest absolute difference between two numeric fields at the
    same line and position of two outputs, and the larger magnitude of
    the two; None when no numeric field differs."""
    best = None
    for line_a, line_b in zip(old.splitlines(), new.splitlines()):
        for x, y in zip(FIELD_SEPARATOR.split(line_a),
                        FIELD_SEPARATOR.split(line_b)):
            try:
                a, b = float(x), float(y)
            except ValueError:
                continue
            gap = abs(a - b)
            if a != b and math.isfinite(gap) and (best is None
                                                  or gap > best[0]):
                best = (gap, max(abs(a), abs(b)))
    return best


def diff(old: Path, new: Path) -> int:
    a = json.loads(old.read_text(encoding="utf-8"))["ops"]
    b = json.loads(new.read_text(encoding="utf-8"))["ops"]
    differ = 0
    for label in sorted(a.keys() | b.keys()):
        if label not in a or label not in b:
            print(f"{label}: only in {old if label in a else new}")
            differ += 1
            continue
        fields = [f for f in ("argv", "code", "stdout", "stderr")
                  if a[label][f] != b[label][f]]
        if fields:
            size = largest_difference(a[label]["stdout"], b[label]["stdout"])
            print(f"{label}: {' '.join(a[label]['argv'])}: "
                  f"{', '.join(fields)} differ" + (
                      "" if size is None else
                      f"; largest numeric difference {size[0]:.3g} on a "
                      f"value of {size[1]:.6g} (relative "
                      f"{size[0] / size[1]:.3g})"))
            differ += 1
    print(f"{len(a.keys() | b.keys())} ops, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every op and write a record")
    rec.add_argument("--src", type=Path, required=True,
                     help="directory holding the mzbell package")
    rec.add_argument("--out", type=Path, required=True)
    cmp_ = sub.add_parser("diff", help="list the ops two records differ on")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.src, args.out)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
