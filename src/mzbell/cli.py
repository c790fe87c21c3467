"""Command-line interface: state specs in, reports and CSV out.

Commands
--------
analyze     moments, g1/g2, fringe coefficients, CHSH maximum, verdict
fringe      Mach-Zehnder phase scan CSV plus fitted visibility
bell-scan   modulation-depth grid E(theta1, theta2) plus CHSH summary
sweep       verdict CSV over a swept family parameter
criterion   verdict from a measured (visibility, coincidence rate) pair
thresholds  the minimal requirements for any Bell violation

Reports are stable ``key = value`` lines; CSV fields carry 15 significant
digits. With a single-threaded BLAS, output is byte-identical for
identical inputs; a threaded one may round the last digits. Exit codes:
0 success, 2 input/parse error or out of memory, 3 degenerate state,
5 a numeric route that is not phase-covariant (``bell-scan`` only: it
fills E_numeric from four route evaluations and checks a fifth, see
``homodyne.numeric_fringe_coefficients``). ``fringe`` fills its rows from
eight normal-ordered moments in closed form (``coherence.fringe_scan``),
so it has no route to check. Code 4 is retired and no longer produced.

Every command resolves its state into weighted parts
(``catalog.resolve``), checked as building the state would check it.
``analyze``, ``fringe`` and ``sweep`` read the moments from the parts and
never build the two-mode split of a split family: a split single-mode
input is read from three moments of its own, so ``g1_mag`` is 1 for any
such input. ``bell-scan`` reads ``E_analytic`` from the parts the same
way, and assembles them into the two-mode state only for its numeric
route, so its analytic and numeric ``E`` come from different
constructions.

``main`` builds its parsers once per process and parses each call in one
argparse pass: an argv that starts with a command goes straight to that
command's parser, and only an argv with no known command, or one that the
command's parser leaves arguments over from, goes through the top-level
parser, so every usage message and exit code is the top level's. Only
callers that run many commands in one process notice: a one-shot
``mzbell`` spends far longer on its imports.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import shlex
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import catalog, coherence, fock, homodyne
from .catalog import StateSpec
from .errors import (DegenerateDenominatorError, DegenerateStateError,
                     RouteResidualError)

SWEEP_CSV_HEADER = ("state_id,g1,g2,c1,c2,thw_sum,b_max,"
                    "violates_bell,violates_classical")
FRINGE_CSV_HEADER = "phase,intensity_c,intensity_d,coincidence"
BELL_SCAN_CSV_HEADER = "theta1,theta2,E_analytic,E_numeric"


def _fmt(value: float) -> str:
    return f"{float(value):.15g}"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


# a run of anything but shlex's whitespace, which is not str.split's: \x0b,
# \x0c and NBSP stay inside a token
_SHLEX_WORD = re.compile(r"[^ \t\r\n]+")


def spec_tokens(text: str) -> list[str]:
    """``shlex.split(text.strip())``: text with no quote or backslash, on
    which shlex only splits at its whitespace, skips shlex's tokenizer."""
    text = text.strip()
    if "'" in text or '"' in text or "\\" in text:
        return shlex.split(text)
    return _SHLEX_WORD.findall(text)


def parse_inline_spec(text: str) -> StateSpec:
    """Parse a one-line spec: ``family key=value ...``.

    Values are parsed as JSON where possible (numbers, lists, objects),
    otherwise kept as strings. Quote values containing spaces.
    """
    tokens = spec_tokens(text)
    if not tokens:
        raise ValueError("empty state spec")
    family, params = tokens[0], {}
    for token in tokens[1:]:
        if "=" not in token:
            raise ValueError(f"expected key=value in state spec, got {token!r}")
        key, raw = token.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return StateSpec(family, params)


def parse_spec_file(path: Path) -> StateSpec:
    """Parse a structured spec file: JSON with ``family`` and ``params``."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "family" not in doc:
        raise ValueError(f"{path}: spec file needs a 'family' key")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{path}: 'params' must be an object")
    return StateSpec(doc["family"], params)


def resolve_state_arg(value: str) -> StateSpec:
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an inline spec longer than a file name may be
        is_file = False
    if is_file:
        return parse_spec_file(path)
    return parse_inline_spec(value)


def _emit(lines: Sequence[str], out: str | None):
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build(args) -> tuple[StateSpec, list[catalog.Part]]:
    """The spec of ``--state`` and its parts, checked as building its
    state would check it (``catalog.resolve``) but neither split nor
    mixed, and refused unless that state has two modes."""
    spec = resolve_state_arg(args.state)
    parts = catalog.resolve(spec, cutoff=args.cutoff, tail_eps=args.tail_eps)
    if len(parts[0].cutoffs) != 2:
        raise ValueError("this command needs a two-mode (two-channel) state")
    return spec, parts


def _verdict_lines(verdict: homodyne.Verdict) -> list[str]:
    return [
        f"g1_mag = {_fmt(verdict.g1_mag)}",
        f"g2 = {_fmt(verdict.g2)}",
        f"c1 = {_fmt(verdict.c1)}",
        f"c2 = {_fmt(verdict.c2) if verdict.c2 is not None else 'absent'}",
        "thw_sum = " + (_fmt(verdict.thw_sum)
                        if verdict.thw_sum is not None else "absent"),
        f"tg_margin = {_fmt(verdict.tg_margin)}",
        f"bell_margin = {_fmt(verdict.bell_margin)}",
        f"violates_bell = {_fmt_bool(verdict.violates_bell)}",
        f"violates_classical = {_fmt_bool(verdict.violates_classical)}",
    ]


def _verdict_csv_row(state_id: str, verdict: homodyne.Verdict,
                     b_max: float) -> str:
    return ",".join([
        state_id,
        _fmt(verdict.g1_mag),
        _fmt(verdict.g2),
        _fmt(verdict.c1),
        _fmt(verdict.c2) if verdict.c2 is not None else "",
        _fmt(verdict.thw_sum) if verdict.thw_sum is not None else "",
        _fmt(b_max),
        _fmt_bool(verdict.violates_bell),
        _fmt_bool(verdict.violates_classical),
    ])


def cmd_analyze(args) -> int:
    spec, parts = _build(args)
    moments = coherence.compute_moments(parts)
    verdict = homodyne.local_realism_verdict(moments)
    chsh = homodyne.maximize_chsh(verdict.coeffs)
    lines = [
        f"state = {catalog.spec_label(spec)}",
        f"n1 = {_fmt(moments.n1)}",
        f"n2 = {_fmt(moments.n2)}",
        f"n1n2 = {_fmt(moments.n1n2)}",
        f"m12_re = {_fmt(moments.m12.real)}",
        f"m12_im = {_fmt(moments.m12.imag)}",
        f"anom_re = {_fmt(moments.anom.real)}",
        f"anom_im = {_fmt(moments.anom.imag)}",
    ]
    lines += _verdict_lines(verdict)
    lines += [
        f"b_max = {_fmt(chsh.b_value)}",
        f"theta1 = {_fmt(chsh.angles[0])}",
        f"theta1_prime = {_fmt(chsh.angles[1])}",
        f"theta2 = {_fmt(chsh.angles[2])}",
        f"theta2_prime = {_fmt(chsh.angles[3])}",
    ]
    if args.format == "csv":
        lines += [SWEEP_CSV_HEADER,
                  _verdict_csv_row(catalog.spec_label(spec), verdict,
                                   chsh.b_value)]
    _emit(lines, args.out)
    return 0


def cmd_fringe(args) -> int:
    if args.phases < 3:
        raise ValueError("--phases must be an integer of at least 3 (the "
                         f"visibility fit needs three), got {args.phases}")
    # the phase list, its records and their rows are held until printed
    if args.phases > fock.AMPLITUDE_LIMIT:
        raise ValueError(f"--phases {args.phases} is above the limit of "
                         f"{fock.AMPLITUDE_LIMIT}")
    _, parts = _build(args)
    phases = [2.0 * math.pi * k / args.phases for k in range(args.phases)]
    # one ladder call per part serves the rows and the summary
    moments = coherence.fringe_moments(parts)
    records = coherence.fringe_scan(moments, phases)
    # the whole summary before any output, so an error leaves none
    summary = [
        f"visibility_fit = {_fmt(coherence.visibility(records))}",
        "visibility_analytic = "
        f"{_fmt(coherence.analytic_visibility(moments.channel))}",
        f"g1_mag = {_fmt(abs(coherence.g1(moments.channel)))}",
    ]
    rows = [FRINGE_CSV_HEADER]
    rows += [",".join([_fmt(r.phase), _fmt(r.intensity_c),
                       _fmt(r.intensity_d), _fmt(r.coincidence)])
             for r in records]
    _emit(rows, args.out)
    _emit(summary, None)
    return 0


def cmd_bell_scan(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be a positive integer, got {args.grid}")
    # the grid's angle arrays hold grid^2 points each
    if args.grid * args.grid > fock.AMPLITUDE_LIMIT:
        raise ValueError(f"--grid {args.grid} would evaluate {args.grid ** 2} "
                         f"angle pairs, above the limit of "
                         f"{fock.AMPLITUDE_LIMIT}")
    _, parts = _build(args)
    # E_analytic reads the parts; the numeric route, the cross-check,
    # reads the state they assemble into
    moments = coherence.compute_moments(parts)
    if args.beta == "auto":
        beta1, beta2 = homodyne.optimal_lo_amplitudes(moments)
    else:
        # + 0.0 turns a signed zero into 0, so no field prints -0
        beta1 = beta2 = float(args.beta) + 0.0
        if beta1 < 0:
            raise ValueError("--beta must be non-negative")
    angles = 2.0 * math.pi * np.arange(args.grid) / args.grid
    theta1, theta2 = np.repeat(angles, args.grid), np.tile(angles, args.grid)
    e_analytic = homodyne.modulation_depth_analytic(moments, beta1, beta2,
                                                    theta1, theta2) + 0.0
    # after E_analytic, whose errors come first
    numeric = homodyne.numeric_fringe_coefficients(
        catalog.assemble(parts), beta1, beta2, args.route,
        tail_eps=args.tail_eps)
    # + 0.0 turns a signed zero into 0, so no row prints -0
    e_numeric = homodyne.fringe_e(numeric, theta1, theta2) + 0.0
    # each angle is formatted once, then every row in one pass
    labels = [_fmt(theta) for theta in angles.tolist()]
    rows = [BELL_SCAN_CSV_HEADER]
    rows += [f"{t1},{t2},{e_an:.15g},{e_num:.15g}"
             for (t1, t2), e_an, e_num in zip(
                 itertools.product(labels, repeat=2), e_analytic.tolist(),
                 e_numeric.tolist())]
    _emit(rows, args.out)
    coeffs = homodyne.fringe_coefficients_at(moments, beta1, beta2)
    chsh = homodyne.maximize_chsh(coeffs)
    summary = [
        f"beta1 = {_fmt(beta1)}",
        f"beta2 = {_fmt(beta2)}",
        f"c1 = {_fmt(coeffs.c1)}",
        f"c2 = {_fmt(coeffs.c2)}",
        f"b_max = {_fmt(chsh.b_value)}",
        f"theta1 = {_fmt(chsh.angles[0])}",
        f"theta1_prime = {_fmt(chsh.angles[1])}",
        f"theta2 = {_fmt(chsh.angles[2])}",
        f"theta2_prime = {_fmt(chsh.angles[3])}",
    ]
    _emit(summary, None)
    return 0


def _sweep_range(spec_text: str) -> tuple[str, float, float, float, int]:
    """Key, start, stop, step and point count of one ``--sweep`` range:
    the points start + k step up to stop, or up to 1e-12 past it for
    rounding, counted in exact rational arithmetic, so that no range is
    too long or too fine to count."""
    try:
        key, rng = spec_text.split("=", 1)
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ValueError(
            f"--sweep expects key=start:stop:step, got {spec_text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"--sweep needs a finite start, stop and step, "
                         f"got {spec_text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"bad sweep range {spec_text!r}")
    # imported here, as only sweep counts with it: about 2 ms a start-up
    from fractions import Fraction
    span, stride = Fraction(stop) - Fraction(start), Fraction(step)
    count = min(round(span / stride),
                math.floor((span + Fraction(1e-12)) / stride)) + 1
    return key, start, stop, step, count


def cmd_sweep(args) -> int:
    spec = resolve_state_arg(args.state)
    ranges = [_sweep_range(s) for s in args.sweep or ()]
    if not ranges:
        raise ValueError("sweep needs at least one --sweep key=start:stop:step")
    # the rows are held until printed: their count is bounded before any
    # value or combination is listed
    points = 1
    for text, (*_, count) in zip(args.sweep, ranges):
        points *= count
        if points > fock.AMPLITUDE_LIMIT:
            raise ValueError(f"--sweep {text!r} takes the point count above "
                             f"the limit of {fock.AMPLITUDE_LIMIT}")
    combos: list[dict] = [{}]
    for key, start, stop, step, count in ranges:
        values = [v for v in (start + k * step for k in range(count))
                  if v <= stop + 1e-12]
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    rows = [SWEEP_CSV_HEADER]
    for overrides in combos:
        point = StateSpec(spec.family, {**spec.params, **overrides})
        moments = coherence.compute_moments(catalog.resolve(
            point, cutoff=args.cutoff, tail_eps=args.tail_eps))
        verdict = homodyne.local_realism_verdict(moments)
        chsh = homodyne.maximize_chsh(verdict.coeffs)
        rows.append(_verdict_csv_row(catalog.spec_label(point), verdict,
                                     chsh.b_value))
    _emit(rows, args.out)
    return 0


def cmd_criterion(args) -> int:
    verdict = homodyne.criterion_from_measurements(args.g1, args.g2)
    _emit(_verdict_lines(verdict), args.out)
    return 0


def cmd_thresholds(args) -> int:
    g1_min, g2_max = homodyne.violation_thresholds()
    _emit([f"g1_min = {_fmt(g1_min)}", f"g2_max = {_fmt(g2_max)}"], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``mzbell`` parser, built once per process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name, built once
    per process, so no default may be a mutable object."""
    parser = argparse.ArgumentParser(
        prog="mzbell",
        description="Coherence, Mach-Zehnder fringes and the homodyne Bell "
                    "criterion for two-channel states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state=True):
        if state:
            p.add_argument("--state", required=True,
                           help="inline spec ('family key=value ...') or a "
                                "JSON spec file path")
            p.add_argument("--cutoff", type=int, default=None,
                           help="override the input cutoff (number families)")
            p.add_argument("--tail-eps", dest="tail_eps", type=float,
                           default=fock.DEFAULT_TAIL_EPS,
                           help="tail probability for coherent/thermal "
                                "truncation")
        p.add_argument("--out", default=None, help="write output here "
                       "instead of stdout")

    p = sub.add_parser("analyze", help="full coherence/Bell report")
    add_common(p)
    p.add_argument("--format", choices=("report", "csv"), default="report",
                   help="csv appends a machine-readable block")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fringe", help="Mach-Zehnder phase scan")
    add_common(p)
    p.add_argument("--phases", type=int, default=64,
                   help="number of evenly spaced phases in [0, 2pi), at "
                        "least 3 and at most 2097152; the rows are filled "
                        "from eight normal-ordered moments of the state, "
                        "read once whatever the number")
    p.set_defaults(func=cmd_fringe)

    p = sub.add_parser("bell-scan", help="modulation-depth angle grid")
    add_common(p)
    p.add_argument("--beta", default="auto",
                   help="local-oscillator amplitude, or 'auto' for the "
                        "optimal choice (small-scale fallback when the "
                        "optimum is a limit)")
    p.add_argument("--grid", type=int, default=24,
                   help="points per angle of the E grid (a positive "
                        "integer, at most 1448); E_numeric is filled from "
                        "four anchor evaluations of the route plus one "
                        "held-out check, whatever the grid")
    p.add_argument("--route", choices=("unitary", "input_operator"),
                   default="input_operator",
                   help="numeric route for the E_numeric column")
    p.set_defaults(func=cmd_bell_scan)

    p = sub.add_parser("sweep", help="verdict CSV over family parameters")
    add_common(p)
    p.add_argument("--sweep", action="append",
                   metavar="KEY=START:STOP:STEP",
                   help="parameter range (repeatable; cartesian product "
                        "of at most 2097152 points)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("criterion",
                       help="verdict from measured visibility/coincidence")
    p.add_argument("g1", type=float, help="interference visibility |g1|")
    p.add_argument("g2", type=float, help="coincidence rate g2")
    add_common(p, state=False)
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("thresholds",
                       help="minimal g1/g2 requirements for violation")
    add_common(p, state=False)
    p.set_defaults(func=cmd_thresholds)

    return parser, sub.choices


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one argparse pass.

    An argv that starts with a command is parsed by that command's parser
    alone. Without a known command, or with arguments that parser leaves
    over, argv goes through the top-level parser, which prints the same
    usage message and exits with the same code as it always would.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateStateError, DegenerateDenominatorError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RouteResidualError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
