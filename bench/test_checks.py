"""Checks of the benchmark's checks: each output checker accepts the
program's real output and rejects a slightly perturbed copy of it.

Needs ``mzbell`` importable (``PYTHONPATH=src``); runs in about three
seconds, and its strong coherent state takes about 300 MiB.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import run
import workloads
from mzbell import cli
from workloads import WORKLOADS, Op

ANALYZE = Op("analyze", "split_coherent", {"alpha_re": 0.6, "alpha_im": 0.3})
STRONG = Op("analyze", "split_coherent", {"alpha_re": 4.8, "alpha_im": 0.0})
PROBE = Op("analyze", "split_coherent", workloads.BOUNDARY_PROBE,
           fault=workloads.BOUNDARY_FAULT)
ANTI = Op("analyze", "incoherent_anticorrelated", {"p": 0.3})
NUMBER = Op("analyze", "split_number", {"n": 3})
FRINGE = Op("fringe", "split_number", {"n": 2}, ("--phases", "8"))
BELL = Op("bell-scan", "noisy_split_photon",
          {"w": 0.8, "alpha_re": 0.2, "alpha_im": 0.1},
          ("--grid", "3", "--route", "input_operator"))


def _output(op: Op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv()) == 0
    return out.getvalue()


def _shift_value(text: str, key: str, delta: float) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{key} = "):
            lines[i] = f"{key} = {float(line.split(' = ')[1]) + delta!r}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {key} line")


def _scale_value(text: str, key: str, factor: float) -> str:
    value = float(checks.parse_output(text)[0][key])
    return _shift_value(text, key, value * (factor - 1.0))


def _edit_rows(text: str, edit) -> str:
    """Apply ``edit(index, columns)`` to every numeric CSV row."""
    lines, k = text.splitlines(), 0
    for i, line in enumerate(lines):
        if line[:1].isdigit() or line[:1] == "-":
            lines[i] = ",".join(repr(v) for v in edit(
                k, [float(x) for x in line.split(",")]))
            k += 1
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("op", [ANALYZE, NUMBER, ANTI, FRINGE, BELL],
                         ids=lambda op: op.command + "-" + op.family)
def test_accepts_real_output(op):
    checks.check(op, _output(op))


@pytest.mark.parametrize("op,key,delta", [
    (ANALYZE, "n1", 1e-6),
    (ANALYZE, "anom_im", 1e-6),
    (ANALYZE, "b_max", 1e-4),
    (NUMBER, "n1n2", 1e-6),
    (FRINGE, "visibility_fit", 1e-6),
    (BELL, "c1", 1e-6),
], ids=lambda v: v if isinstance(v, str) else "")
def test_rejects_shifted_value(op, key, delta):
    with pytest.raises(checks.CheckError):
        checks.check(op, _shift_value(_output(op), key, delta))


@pytest.mark.parametrize("key", ["n1", "n1n2", "m12_im", "anom_im"])
def test_rejects_strong_state_moment_off_by_1e_6_relative(key):
    text = _output(STRONG)
    checks.check(STRONG, text)
    with pytest.raises(checks.CheckError, match=key.split("_")[0]):
        checks.check(STRONG, _scale_value(text, key, 1.0 + 1e-6))


def test_boundary_probe_reports_its_fault():
    # a truncated coherent state reads violates_classical = true today;
    # once it reads false, the probe passes
    text = _output(PROBE)
    fixed = text.replace("violates_classical = true",
                         "violates_classical = false")
    checks.check(PROBE, fixed)
    if text != fixed:
        with pytest.raises(checks.KnownFault):
            checks.check(PROBE, text)
        # an op that does not probe the fault may show it ...
        checks.check(ANALYZE, _output(ANALYZE))
        # ... but not with a margin that does not violate
        margin = float(checks.parse_output(text)[0]["tg_margin"])
        with pytest.raises(checks.CheckError, match="boundary"):
            checks.check(PROBE, _shift_value(text, "tg_margin", -margin))


def test_rejects_boundary_state_read_as_violating():
    text = _output(ANTI).replace("violates_classical = false",
                                 "violates_classical = true")
    with pytest.raises(checks.CheckError, match="violates_classical"):
        checks.check(ANTI, text)


def test_rejects_flipped_verdict():
    text = _output(NUMBER).replace("violates_classical = true",
                                   "violates_classical = false")
    with pytest.raises(checks.CheckError, match="violates_classical"):
        checks.check(NUMBER, text)


def test_rejects_swapped_fringe_columns():
    text = _edit_rows(_output(FRINGE), lambda k, r: [r[0], r[2], r[1], r[3]])
    with pytest.raises(checks.CheckError, match="intensity_c"):
        checks.check(FRINGE, text)


def test_rejects_negative_coincidence():
    text = _edit_rows(_output(FRINGE),
                      lambda k, r: r[:3] + [-1e-6 if k == 2 else r[3]])
    with pytest.raises(checks.CheckError, match="coincidence"):
        checks.check(FRINGE, text)


def test_rejects_e_numeric_off_by_1e_7():
    text = _edit_rows(_output(BELL),
                      lambda k, r: r[:3] + [r[3] + (1e-7 if k == 4 else 0)])
    with pytest.raises(checks.CheckError, match="E_numeric"):
        checks.check(BELL, text)


def test_rejects_missing_row():
    lines = _output(BELL).splitlines()
    del lines[3]
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check(BELL, "\n".join(lines) + "\n")


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
