"""CLI surface tests: parsing, formats, exit codes, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mzbell import cli, fock, homodyne
from mzbell.catalog import StateSpec, build_state
from mzbell.coherence import compute_moments

from oracle import purity


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


class TestSpecParsing:
    def test_inline_simple(self):
        spec = cli.parse_inline_spec("split_thermal nbar=0.5")
        assert spec.family == "split_thermal"
        assert spec.params == {"nbar": 0.5}

    def test_inline_json_values(self):
        spec = cli.parse_inline_spec(
            'pure_explicit amplitudes=[[0,0],[0,1],[1,0],[0,0]]')
        assert len(spec.params["amplitudes"]) == 4

    def test_inline_errors(self):
        with pytest.raises(ValueError):
            cli.parse_inline_spec("")
        with pytest.raises(ValueError):
            cli.parse_inline_spec("split_thermal nbar")

    def test_spec_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(
            {"family": "incoherent_anticorrelated", "params": {"p": 0.25}}))
        spec = cli.resolve_state_arg(str(path))
        assert spec.family == "incoherent_anticorrelated"
        assert spec.params["p"] == 0.25

    def test_inline_spec_longer_than_a_file_name(self, tmp_path, capsys):
        amps = [[round(0.2 + 0.01 * k, 6), 0.0] for k in range(25)]
        text = json.dumps(amps, separators=(",", ":"))
        inline = f"pure_explicit amplitudes={text}"
        assert len(inline.encode()) > 255
        assert cli.resolve_state_arg(inline).params["amplitudes"] == amps
        path = tmp_path / "state.json"
        path.write_text(json.dumps(
            {"family": "pure_explicit", "params": {"amplitudes": amps}}))
        code, out, err = run_cli(capsys, "analyze", "--state", inline)
        assert code == 0, err
        _, from_file, _ = run_cli(capsys, "analyze", "--state", str(path))
        assert out == from_file

    def test_spec_file_missing_family(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="family"):
            cli.parse_spec_file(path)


class TestAnalyze:
    def test_split_single_photon(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--state",
                               "split_single_photon")
        assert code == 0
        report = parse_report(out)
        assert report["g1_mag"] == "1"
        assert report["g2"] == "0"
        assert report["c1"] == "1"
        assert report["violates_bell"] == "true"
        assert report["violates_classical"] == "true"
        assert abs(float(report["b_max"]) - 2 * math.sqrt(2)) < 1e-5

    def test_incoherent_mixture(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--state",
                               "incoherent_anticorrelated p=0.5")
        assert code == 0
        report = parse_report(out)
        assert float(report["c1"]) < 1e-12
        assert report["violates_bell"] == "false"
        assert report["violates_classical"] == "false"

    def test_split_thermal(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--state",
                               "split_thermal nbar=1")
        assert code == 0
        report = parse_report(out)
        assert abs(float(report["g2"]) - 2.0) < 1e-8
        assert report["violates_bell"] == "false"
        assert report["violates_classical"] == "false"

    def test_split_thermal_beyond_the_dense_basis(self, capsys):
        # rank 97 x dim 97^2 amplitudes; a dense rho would need 9409^2
        code, out, err = run_cli(capsys, "analyze", "--state",
                                 "split_thermal nbar=3")
        assert code == 0, err
        report = parse_report(out)
        assert abs(float(report["n1"]) - 1.5) < 1e-8
        assert abs(float(report["n2"]) - 1.5) < 1e-8
        assert abs(float(report["g2"]) - 2.0) < 1e-8

    def test_split_thermal_stores_only_its_nonzeros(self, capsys):
        # rank 83 x dim 83^2 = 571787 amplitudes (8.7 MiB as a dense stack),
        # of which 3486 are nonzero; measured after a first call, which
        # fills the memo of the split's edge columns
        command = ("analyze", "--state", "split_thermal nbar=2.5")
        first = run_cli(capsys, *command)
        tracemalloc.start()
        try:
            again = run_cli(capsys, *command)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first and first[0] == 0
        assert peak < 2 ** 20

    def test_amplitude_limit_refused_before_allocating(self, capsys):
        # rank 180 x dim 180^2 = 5832000 amplitudes (89 MiB) > 2^21
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "analyze", "--state",
                                     "split_thermal nbar=6")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "DimensionLimitError" in err and "5832000 amplitudes" in err
        assert peak < 8 * 2 ** 20

    def test_fringe_lifted_pad_refusal(self, capsys, tmp_path):
        # (|1500, 0> + |0, 1>)/sqrt 2 on cutoffs (1500, 1): a count scan pads
        # both cutoffs to 1500, 1501^2 = 2253001 amplitudes, past the bound;
        # the moment route reads the two stored amplitudes as they are
        amps = [0.0] * 3002
        amps[1] = amps[3000] = math.sqrt(0.5)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"family": "pure_explicit", "params": {
            "cutoffs": [1500, 1], "amplitudes": amps}}))
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "fringe", "--state", str(path),
                                     "--phases", "4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        # n1 = 750, n2 = 1/2, <a1^dag^2 a1^2> = 1500 * 1499 / 2, no m12
        assert out.splitlines()[1] == "0,375.25,375.25,281062.5"
        assert parse_report(out)["g1_mag"] == "0"
        assert peak < 2 ** 20
        # the bound that still applies is the state's own rank x dim check
        # (fock.AMPLITUDE_LIMIT): the split of |1500> would store the same
        # 2253001 amplitudes, and is refused before allocating
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "fringe", "--state",
                                     "split_number n=1500")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error: DimensionLimitError")
        assert "2253001 amplitudes" in err
        assert peak < 2 ** 20

    def test_csv_block_appended(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--state",
                               "split_single_photon", "--format", "csv")
        assert code == 0
        assert cli.SWEEP_CSV_HEADER in out
        last = out.strip().splitlines()[-1]
        assert last.startswith("split_single_photon,1,0,1,")

    @pytest.mark.parametrize("command", [
        ("analyze", "--state", "split_thermal nbar=0.5"),
        ("sweep", "--state", "split_thermal nbar=0.5",
         "--sweep", "nbar=0.5:0.7:0.1")])
    def test_grid_is_rejected(self, capsys, command):
        # the CHSH maximum is exact, so only bell-scan takes a --grid
        code, _, err = run_cli(capsys, *command)
        assert code == 0 and err == ""
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--grid", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --grid 4" in captured.err

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--state",
                               "incoherent_anticorrelated p=1")
        assert code == 3
        assert "DegenerateStateError" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--state", "no_such_family")
        assert code == 2
        assert "error" in err

    def test_memory_error_exit_code(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the state")
        monkeypatch.setattr(cli.catalog, "build_state", exhausted)
        code, out, err = run_cli(capsys, "analyze", "--state",
                                 "split_single_photon")
        assert code == 2
        assert out == ""
        assert err.startswith("error: MemoryError: cannot allocate")

    def test_split_number_200(self, capsys):
        # only the N = 200 sector is occupied, so no block above it is built
        code, out, err = run_cli(capsys, "analyze", "--state",
                                 "split_number n=200")
        assert code == 0, err
        report = parse_report(out)
        assert abs(float(report["g2"]) - 0.995) < 1e-12

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "--state",
                              "noisy_split_photon w=0.9 alpha_re=0.2 alpha_im=0")
        _, second, _ = run_cli(capsys, "analyze", "--state",
                               "noisy_split_photon w=0.9 alpha_re=0.2 alpha_im=0")
        assert first == second


class TestFringe:
    def test_header_and_visibility(self, capsys):
        code, out, _ = run_cli(capsys, "fringe", "--state",
                               "split_single_photon", "--phases", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phase,intensity_c,intensity_d,coincidence"
        assert len([l for l in lines if "," in l]) == 17  # header + 16 rows
        report = parse_report(out)
        assert abs(float(report["visibility_fit"]) - 1.0) < 1e-9
        assert abs(float(report["visibility_analytic"]) - 1.0) < 1e-12

    def test_flat_for_mixture(self, capsys):
        code, out, _ = run_cli(capsys, "fringe", "--state",
                               "incoherent_anticorrelated p=0.5",
                               "--phases", "16")
        assert code == 0
        report = parse_report(out)
        assert float(report["visibility_fit"]) < 1e-12

    @pytest.mark.parametrize("phases", ["2", "1", "0", "-2"])
    def test_too_few_phases_exit_before_output(self, capsys, phases):
        code, out, err = run_cli(capsys, "fringe", "--state",
                                 "split_single_photon", "--phases", phases)
        assert code == 2
        assert out == ""
        assert err == ("error: ValueError: --phases must be an integer of "
                       "at least 3 (the visibility fit needs three), got "
                       f"{phases}\n")

    def test_flat_fringe_prints_zero_visibility(self, capsys):
        # the fit's rounding noise is 0, as visibility_analytic prints
        code, out, _ = run_cli(capsys, "fringe", "--state",
                               "incoherent_anticorrelated p=0.3",
                               "--phases", "16")
        assert code == 0
        report = parse_report(out)
        assert report["visibility_fit"] == report["visibility_analytic"] == "0"

    def test_phases_bounded_before_the_phase_list(self, capsys):
        # 1e8 phases would fill about 41 GiB of records and rows
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "fringe", "--state",
                                     "split_single_photon", "--phases",
                                     "100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: ValueError: --phases 100000000 is above the "
                       "limit of 2097152\n")
        assert peak < 2 ** 20

    def test_most_phases_pass_the_bound(self, capsys, monkeypatch):
        # 2^21 phases fit the bound and go on to build the state (stopped
        # there), one more does not
        def build(args):
            raise KeyError("state built")
        monkeypatch.setattr(cli, "_build", build)
        for phases, message in [(fock.AMPLITUDE_LIMIT, "state built"),
                                (fock.AMPLITUDE_LIMIT + 1, "above the limit")]:
            code, _, err = run_cli(capsys, "fringe", "--state",
                                   "split_single_photon", "--phases",
                                   str(phases))
            assert code == 2 and message in err

    def test_degenerate_summary_leaves_stdout_empty(self, capsys):
        # |1, 0> has a dark second channel: g1 is undefined, and the whole
        # summary is formed before the first row is printed
        code, out, err = run_cli(
            capsys, "fringe", "--state",
            "pure_explicit amplitudes=[0,1] cutoffs=[1,0]", "--phases", "4")
        assert (code, out) == (3, "")
        assert err.startswith("error: DegenerateStateError: channel "
                              "intensities n1=1.000e+00, n2=0.000e+00")
        assert err.count("\n") == 1

    def test_one_ladder_call_and_no_block(self, capsys, monkeypatch):
        # the split writes closed-form edge columns, and the scan and its
        # summary take one expectations call: no beamsplitter block is
        # built anywhere
        calls = []
        expectations = fock.expectations

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return expectations(*args, **kwargs)

        def refuse(top):
            raise AssertionError(f"blocks up to U_{top} requested")
        monkeypatch.setattr(fock, "expectations", counting)
        monkeypatch.setattr(fock, "_bs_blocks", refuse)
        code, out, err = run_cli(capsys, "fringe", "--state",
                                 "split_thermal nbar=1", "--phases", "16")
        assert (code, err) == (0, "")
        assert calls == [8]
        assert len(out.splitlines()) == 1 + 16 + 3

    def test_out_file_splits_streams(self, capsys, tmp_path):
        target = tmp_path / "fringe.csv"
        code, out, _ = run_cli(capsys, "fringe", "--state",
                               "split_single_photon", "--phases", "8",
                               "--out", str(target))
        assert code == 0
        content = target.read_text()
        assert content.startswith("phase,intensity_c")
        assert "visibility_fit" in out
        assert "visibility_fit" not in content


class TestBellScan:
    def test_split_photon_auto_beta(self, capsys):
        code, out, _ = run_cli(capsys, "bell-scan", "--state",
                               "split_single_photon", "--grid", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta1,theta2,E_analytic,E_numeric"
        rows = [l.split(",") for l in lines[1:1 + 64]]
        e_analytic = [float(r[2]) for r in rows]
        e_numeric = [float(r[3]) for r in rows]
        assert max(abs(e) for e in e_analytic) == pytest.approx(
            1.0 / (1.0 + 1e-4), abs=1e-9)
        diffs = [abs(a - b) for a, b in zip(e_analytic, e_numeric)]
        assert max(diffs) < 1e-8
        report = parse_report(out)
        assert abs(float(report["beta1"]) - 0.01) < 1e-15
        assert float(report["b_max"]) > 2.8

    def test_split_coherent_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "bell-scan", "--state",
                               "split_coherent alpha_re=0.5 alpha_im=0",
                               "--grid", "4")
        assert code == 0
        report = parse_report(out)
        assert abs(float(report["b_max"]) - 2.0) < 1e-3

    def test_unitary_route_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "bell-scan", "--state",
                               "split_single_photon", "--grid", "4",
                               "--route", "unitary")
        assert code == 0
        lines = out.strip().splitlines()
        rows = [l.split(",") for l in lines[1:17]]
        diffs = [abs(float(r[2]) - float(r[3])) for r in rows]
        assert max(diffs) < 1e-8

    def test_explicit_beta(self, capsys):
        code, out, _ = run_cli(capsys, "bell-scan", "--state",
                               "split_single_photon", "--grid", "4",
                               "--beta", "0.05")
        assert code == 0
        report = parse_report(out)
        assert float(report["beta1"]) == 0.05
        assert float(report["beta2"]) == 0.05

    @pytest.mark.parametrize("beta", ["auto", "0.3"])
    @pytest.mark.parametrize("route", ["input_operator", "unitary"])
    @pytest.mark.parametrize("text", [
        "split_single_photon", "split_thermal nbar=0.1",
        "noisy_split_photon w=0.5 alpha_re=0.2 alpha_im=0.1"])
    def test_every_row_matches_the_pointwise_forms(self, capsys, text,
                                                   route, beta):
        # the grid is filled as arrays; each row must hold the values of
        # one pointwise call of each form at its angle pair
        grid = 5
        code, out, err = run_cli(capsys, "bell-scan", "--state", text,
                                 "--grid", str(grid), "--route", route,
                                 "--beta", beta)
        assert code == 0, err
        state = build_state(cli.parse_inline_spec(text))
        moments = compute_moments(state)
        betas = homodyne.lo_pair_for(moments) if beta == "auto" \
            else (0.3, 0.3)
        numeric = homodyne.numeric_fringe_coefficients(state, *betas, route)
        lines = out.splitlines()
        rows = [[float(x) for x in line.split(",")]
                for line in lines[1:1 + grid ** 2]]
        assert lines[1 + grid ** 2].startswith("beta1 = ")
        for k, (t1, t2, e_an, e_num) in enumerate(rows):
            theta1, theta2 = (2.0 * math.pi * j / grid
                              for j in divmod(k, grid))
            assert (t1, t2) == (float(f"{theta1:.15g}"),
                                float(f"{theta2:.15g}"))
            want = homodyne.modulation_depth_analytic(moments, *betas,
                                                      theta1, theta2)
            assert abs(e_an - want) <= 1e-14
            want = homodyne.fringe_e(numeric, theta1, theta2) + 0.0
            assert abs(e_num - want) <= 1e-14

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta_refused_before_arithmetic(self, capsys, beta):
        # checked before the grid's array arithmetic, which would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bell-scan", "--state",
                                     "split_single_photon", "--beta", beta)
        assert (code, out) == (2, "")
        assert err == ("error: ValueError: beta must be finite and >= 0, "
                       f"got {beta}\n")

    def test_degenerate_denominator_before_the_route(self, capsys,
                                                     monkeypatch):
        def route(*args):
            raise AssertionError("the route ran")
        monkeypatch.setattr(homodyne, "_dd_ss", route)
        code, out, err = run_cli(capsys, "bell-scan", "--state",
                                 "split_single_photon", "--beta", "0")
        assert (code, out) == (3, "")
        assert err == ("error: DegenerateDenominatorError: modulation-depth "
                       "denominator 0.000e+00 vanishes\n")

    def test_no_negative_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bell-scan", "--state",
                               "incoherent_anticorrelated p=0.3",
                               "--grid", "4")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:17]]
        assert [r[3] for r in rows] == ["0"] * 16

    @pytest.mark.parametrize("nbar", ["0.6", "2"])
    def test_unitary_route_on_split_thermal(self, capsys, nbar):
        # states whose padded four-mode stack would pass the amplitude
        # bound: the route never forms it
        code, out, err = run_cli(capsys, "bell-scan", "--state",
                                 f"split_thermal nbar={nbar}", "--grid", "4",
                                 "--route", "unitary")
        assert code == 0, err
        rows = [l.split(",") for l in out.strip().splitlines()[1:17]]
        assert max(abs(float(r[2]) - float(r[3])) for r in rows) < 1e-10

    def test_input_operator_route_reads_only_the_signal(self, capsys,
                                                        monkeypatch):
        # rank 127 x dim 16129 on the default route: every ladder
        # expectation is on the two-mode signal, none on its four-mode
        # product with the oscillators; measured after a first call, which
        # fills the memo of the split's edge columns
        command = ("bell-scan", "--state", "split_thermal nbar=4.1",
                   "--grid", "4")
        first = run_cli(capsys, *command)
        modes, real = [], fock.expectations

        def counted(state, terms):
            modes.append(state.system.mode_count)
            return real(state, terms)
        monkeypatch.setattr(fock, "expectations", counted)
        tracemalloc.start()
        try:
            again = run_cli(capsys, *command)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first and first[0] == 0, first[2]
        assert modes and set(modes) == {2}
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("grid", ["4", "12"])
    @pytest.mark.parametrize("route", ["input_operator", "unitary"])
    def test_five_route_evaluations_per_scan(self, capsys, monkeypatch,
                                             route, grid):
        # four anchors and one held-out pair, whatever the grid, in one
        # route call with five rows per oscillator
        calls = {"input_operator": [], "unitary": []}
        for name in calls:
            real = getattr(homodyne, f"_dd_ss_{name}")

            def counted(state, b1, b2, real=real, name=name):
                calls[name].append((b1.shape[0], b2.shape[0]))
                return real(state, b1, b2)
            monkeypatch.setattr(homodyne, f"_dd_ss_{name}", counted)
        code, out, err = run_cli(
            capsys, "bell-scan", "--state",
            "noisy_split_photon w=0.5 alpha_re=0.2 alpha_im=0.1",
            "--grid", grid, "--route", route)
        assert code == 0, err
        assert len(out.strip().splitlines()) == 1 + int(grid) ** 2 + 9
        other = "unitary" if route == "input_operator" else "input_operator"
        assert calls == {route: [(5, 5)], other: []}

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_grid_must_be_positive(self, capsys, grid):
        code, out, err = run_cli(capsys, "bell-scan", "--state",
                                 "split_single_photon", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == ("error: ValueError: --grid must be a positive "
                       f"integer, got {grid}\n")

    def test_grid_bounded_before_the_angle_arrays(self, capsys):
        # 20000^2 = 4e8 angle pairs would need several 3.2 GB arrays
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "bell-scan", "--state",
                                     "split_single_photon", "--grid", "20000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: ValueError: --grid 20000 would evaluate "
                       "400000000 angle pairs, above the limit of 2097152\n")
        assert peak < 2 ** 20

    def test_largest_grid_passes_the_bound(self, capsys, monkeypatch):
        # 1448^2 pairs fit the bound and go on to build the state (stopped
        # there), 1449^2 do not
        def build(args):
            raise KeyError("state built")
        monkeypatch.setattr(cli, "_build", build)
        for grid, message in (("1448", "KeyError: 'state built'"),
                              ("1449", "ValueError: --grid 1449")):
            code, out, err = run_cli(capsys, "bell-scan", "--state",
                                     "split_single_photon", "--grid", grid)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("beta", ["1e155", "1e200", "1.7e308"])
    def test_huge_beta_refused_before_arithmetic(self, capsys, beta):
        # beta ** 2 overflows from about 1.34e154 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bell-scan", "--state",
                                     "split_single_photon", "--beta", beta)
        assert (code, out) == (2, "")
        assert err == (f"error: ValueError: beta must be at most "
                       f"{homodyne.BETA_LIMIT!r}, or its square overflows, "
                       f"got {float(beta)!r}\n")

    @pytest.mark.parametrize("beta, message", [
        # beta^4 in E_analytic's denominator is finite: the oscillator's
        # size bound refuses it
        ("1.1e77", "DimensionLimitError: coherent amplitude |alpha|=1.1e+77"),
        # beta^4 overflows from about 1.16e77 up to the square bound: the
        # denominator is refused before it is divided by, with no warning
        ("1.2e77", "ValueError: modulation-depth denominator overflows"),
        (repr(homodyne.BETA_LIMIT),
         "ValueError: modulation-depth denominator overflows")])
    def test_beta_below_the_square_bound_keeps_its_refusal(self, capsys, beta,
                                                          message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bell-scan", "--state",
                                     "split_single_photon", "--beta", beta)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_horodecki_maximum_at_a_coarse_grid(self, capsys):
        # a 4-point angle search stopped at 0.828427125247177 here
        code, out, err = run_cli(capsys, "bell-scan", "--state",
                                 "split_thermal nbar=0.1", "--grid", "4",
                                 "--route", "unitary")
        assert code == 0, err
        assert parse_report(out)["b_max"] == "1.17157287596231"

    def test_route_residual_exit_code(self, capsys, monkeypatch):
        # E skewed by 1e-9 cos(theta1) on every pair, or by 1e-9 on any one
        # of the five pairs alone
        real = homodyne._dd_ss
        skews = [lambda angles: 1e-9 * np.cos(np.transpose(angles)[0])] + [
            lambda angles, k=k: 1e-9 * (np.arange(len(angles)) == k)
            for k in range(5)]
        for skew in skews:
            def skewed(state, beta1, beta2, angles, route, tail_eps,
                       skew=skew):
                dd, ss = real(state, beta1, beta2, angles, route, tail_eps)
                return dd + skew(angles) * ss, ss
            monkeypatch.setattr(homodyne, "_dd_ss", skewed)
            code, out, err = run_cli(capsys, "bell-scan", "--state",
                                     "split_single_photon", "--grid", "4")
            assert code == 5
            assert out == ""
            assert err.startswith("error: RouteResidualError")


class TestSweep:
    def test_noisy_family_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--state",
            "noisy_split_photon w=0.8 alpha_re=0.2 alpha_im=0",
            "--sweep", "w=0.8:1.0:0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == cli.SWEEP_CSV_HEADER
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 5
        g2_values = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(g2_values, g2_values[1:]))
        assert g2_values[-1] == 0.0  # w = 1 is the pure split photon
        # at least one mixed row certifies a Bell violation
        mixed_violations = []
        for row in rows:
            if row[7] == "true":
                w = float(row[0].split("w=")[1])
                state = build_state(StateSpec(
                    "noisy_split_photon",
                    {"w": w, "alpha_re": 0.2, "alpha_im": 0.0}))
                if purity(state) < 1 - 1e-6:
                    mixed_violations.append(row)
        assert mixed_violations

    def test_split_thermal_sweep_past_the_dense_limit(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--state",
                                 "split_thermal nbar=0.1",
                                 "--sweep", "nbar=0.1:2:0.1")
        assert code == 0, err
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 20
        assert all(abs(float(r[2]) - 2.0) < 1e-8 for r in rows)

    def test_incoherent_sweep_no_coherence(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--state",
                               "incoherent_anticorrelated p=0.5",
                               "--sweep", "p=0.2:0.8:0.2")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert len(rows) == 4
        assert all(float(r[3]) < 1e-12 for r in rows)

    def test_requires_sweep_flag(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--state",
                               "split_single_photon")
        assert code == 2
        assert "sweep" in err

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--state",
                             "incoherent_anticorrelated p=0.5",
                             "--sweep", "p=0.8:0.2:0.1")
        assert code == 2

    @pytest.mark.parametrize("sweep", ["nbar=0.1:inf:0.1", "nbar=0.1:2:nan",
                                       "nbar=-inf:2:0.1", "nbar=nan:2:0.1"])
    def test_non_finite_range_refused(self, capsys, monkeypatch, sweep):
        # refused before any state is built, quoting the --sweep text
        def refuse(*args, **kwargs):
            raise AssertionError("a state was built")
        monkeypatch.setattr(cli.catalog, "build_state", refuse)
        code, out, err = run_cli(capsys, "sweep", "--state",
                                 "split_thermal nbar=0.1", "--sweep", sweep)
        assert code == 2
        assert out == ""
        assert err == ("error: ValueError: --sweep needs a finite start, "
                       f"stop and step, got {sweep!r}\n")

    def test_deterministic(self, capsys):
        args = ("sweep", "--state", "split_coherent alpha_re=0.3 alpha_im=0",
                "--sweep", "alpha_re=0.1:0.5:0.2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestCriterionAndThresholds:
    def test_measured_pair(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "0.98", "0.18")
        assert code == 0
        report = parse_report(out)
        assert report["violates_bell"] == "false"
        assert report["violates_classical"] == "true"
        assert abs(float(report["c1"]) - 0.6880746495881836) < 1e-12
        assert report["c2"] == "absent"

    def test_perfect_photon(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "1", "0")
        report = parse_report(out)
        assert report["violates_bell"] == "true"

    def test_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "0.7071067811865476", "0")
        report = parse_report(out)
        assert report["violates_bell"] == "false"

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "criterion", "1.5", "0")
        assert code == 2

    def test_thresholds(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds")
        assert code == 0
        report = parse_report(out)
        assert abs(float(report["g1_min"]) - 1 / math.sqrt(2)) < 1e-14
        assert abs(float(report["g2_max"]) - (math.sqrt(2) - 1) ** 2) < 1e-14


class TestRefusedInputs:
    @pytest.mark.parametrize("command, named", [
        ("analyze --state 'split_coherent alpha_re=nan'", "alpha_re"),
        ("analyze --state 'split_thermal nbar=inf'", "nbar"),
        ("analyze --state 'split_thermal nbar=[1]'", "nbar"),
        ("analyze --state 'incoherent_anticorrelated p={}'", "p"),
        ("analyze --state 'pure_explicit amplitudes=5'", "amplitudes"),
        ("analyze --state 'mixed_ensemble components=[1]'", "components"),
        ("sweep --state 'split_number n=1' --sweep n=1:3:0.5", "got 1.5"),
        ("analyze --state 'split_coherent alpha_re=1e200'", "|alpha|=1e+200"),
        ("analyze --state 'split_thermal nbar=1e17'", "nbar=1e+17 needs"),
        ("criterion 0.5 nan", "g2 must be finite"),
        ("criterion 0.5 inf", "g2 must be finite"),
        # |10^9> would take 16 GiB: its size is checked first
        ("analyze --state 'split_number n=1000000000'", "store 1000000001"),
        # |2000000> fits, its split does not: that is checked before |n>
        # is built
        ("analyze --state 'split_number n=2000000'", "store 4000004000001"),
    ])
    def test_refused_before_allocating(self, capsys, command, named):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *shlex.split(command))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert peak < 4 * 2 ** 20


class TestParserReuse:
    """``main`` builds its parser once per process; every call must still
    behave as if it had a parser of its own."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sweep_lists_do_not_leak_between_calls(self, capsys):
        code, first, _ = run_cli(capsys, "sweep", "--state",
                                 "split_thermal nbar=0.5",
                                 "--sweep", "nbar=0.5:0.7:0.1")
        assert code == 0 and "nbar=0.7" in first
        code, second, err = run_cli(capsys, "sweep", "--state",
                                    "split_coherent alpha_re=1",
                                    "--sweep", "alpha_re=0.5:0.6:0.1")
        assert code == 0, err
        rows = second.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [
            "split_coherent alpha_re=0.5", "split_coherent alpha_re=0.6"]
        assert "nbar" not in second
        # and a call without --sweep sees none of them
        code, out, err = run_cli(capsys, "sweep", "--state",
                                 "split_coherent alpha_re=1")
        assert code == 2 and out == ""
        assert "sweep needs at least one --sweep" in err

    @pytest.mark.parametrize("bad", [
        ("analyze",),
        ("bell-scan", "--state", "split_single_photon", "--grid", "x"),
        ("no-such-command",),
    ])
    def test_parse_error_then_a_valid_call(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(bad))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        argv = ["analyze", "--state", "split_single_photon"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        # a fresh process builds its own parser
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run([sys.executable, "-m", "mzbell.cli", *argv],
                               capture_output=True, text=True, env=env,
                               check=True)
        assert out == fresh.stdout

    def test_help_follows_columns_of_each_call(self, capsys, monkeypatch):
        def widest_help_line(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                cli.main(["bell-scan", "--help"])
            assert exc.value.code == 0
            return max(len(line)
                       for line in capsys.readouterr().out.splitlines())
        narrow = widest_help_line(60)
        assert narrow <= 60 < widest_help_line(150) <= 150
        assert widest_help_line(60) == narrow
