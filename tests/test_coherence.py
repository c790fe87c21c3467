"""Coherence functions and Mach-Zehnder fringe tests."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from mzbell import (CoherenceMoments, DegenerateStateError, ModeSystem,
                    StateSpec, analytic_visibility, basis_state, build_state,
                    cli, coherent_state, compute_moments, fock, fringe_scan,
                    g1, g2, incoherent_anticorrelated, make_mixed, make_pure,
                    split_input, split_single_photon, thermal_state,
                    visibility)
from mzbell.coherence import classical_margin

from oracle import (apply_phase, assert_scan_matches_per_phase, brute_expect,
                    random_density, random_pure, tensor)

PHASES_64 = [2 * math.pi * k / 64 for k in range(64)]


class TestMoments:
    def test_split_photon_frozen_values(self):
        m = compute_moments(split_single_photon())
        assert abs(m.m12 - 0.5j) < 1e-14
        assert abs(m.anom) < 1e-14
        assert abs(m.n1 - 0.5) < 1e-14
        assert abs(m.n2 - 0.5) < 1e-14
        assert abs(m.n1n2) < 1e-14

    def test_split_photon_vs_brute_force(self):
        state = split_single_photon()
        m = compute_moments(state)
        assert abs(m.m12 - brute_expect(state, [(1, 0), (0, 1)])) < 1e-14
        assert abs(m.n1n2 - brute_expect(state, [(1, 1), (1, 1)]).real) < 1e-14

    def test_vacuum_moments_zero(self):
        m = compute_moments(basis_state(ModeSystem((1, 1)), (0, 0)))
        assert m.m12 == 0 and m.anom == 0
        assert m.n1 == m.n2 == m.n1n2 == 0

    def test_two_photons(self):
        state = basis_state(ModeSystem((1, 1)), (1, 1))
        m = compute_moments(state)
        assert abs(m.m12) < 1e-14
        assert abs(m.n1 - 1) < 1e-14 and abs(m.n2 - 1) < 1e-14
        assert abs(m.n1n2 - 1) < 1e-14

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            CoherenceMoments(m12=1.0, anom=0.0, n1=0.1, n2=0.1, n1n2=0.0)
        with pytest.raises(ValueError, match="negative"):
            CoherenceMoments(m12=0.0, anom=0.0, n1=-0.1, n2=0.1, n1n2=0.0)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            compute_moments(coherent_state(0.3))


class TestCoherenceFunctions:
    def test_split_photon(self):
        m = compute_moments(split_single_photon())
        assert abs(abs(g1(m)) - 1.0) < 1e-14
        assert abs(g2(m)) < 1e-14
        assert abs(classical_margin(abs(g1(m)), g2(m)) + 1.0) < 1e-14

    def test_incoherent_mixture_no_coherence(self):
        m = compute_moments(incoherent_anticorrelated(0.5))
        assert abs(g1(m)) < 1e-14
        assert abs(g2(m)) < 1e-14

    def test_split_coherent(self):
        m = compute_moments(split_input(coherent_state(0.7, 1e-13)))
        assert abs(abs(g1(m)) - 1.0) < 1e-11
        assert abs(g2(m) - 1.0) < 1e-10
        assert abs(classical_margin(abs(g1(m)), g2(m))) < 1e-10

    def test_split_thermal(self):
        m = compute_moments(split_input(thermal_state(1.0, 1e-12)))
        assert abs(abs(g1(m)) - 1.0) < 1e-9
        assert abs(g2(m) - 2.0) < 1e-8
        assert abs(classical_margin(abs(g1(m)), g2(m)) - 1.0) < 1e-8

    def test_degenerate_channel(self):
        m = compute_moments(incoherent_anticorrelated(1.0))
        with pytest.raises(DegenerateStateError):
            g1(m)
        with pytest.raises(DegenerateStateError):
            g2(m)

    def test_cauchy_schwarz_bound_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            state = random_density(rng, (2, 2)) if rng.random() < 0.5 \
                else random_pure(rng, (2, 2))
            m = compute_moments(state)
            assert abs(g1(m)) <= 1.0 + 1e-10

    def test_g2_invariant_under_phase(self):
        rng = np.random.default_rng(22)
        state = random_pure(rng, (2, 3))
        base = g2(compute_moments(state))
        for mode, phi in ((0, 0.9), (1, 2.2)):
            shifted = apply_phase(state, mode, phi)
            assert abs(g2(compute_moments(shifted)) - base) < 1e-12


class TestFringeScan:
    def test_intensity_sum_constant(self):
        records = fringe_scan(split_single_photon(), [0.0, math.pi / 2, math.pi])
        for r in records:
            assert abs(r.intensity_c + r.intensity_d - 1.0) < 1e-12

    def test_incoherent_mixture_flat(self):
        records = fringe_scan(incoherent_anticorrelated(0.5), PHASES_64)
        values = [r.intensity_c for r in records]
        assert max(values) - min(values) < 1e-12

    def test_split_photon_full_contrast(self):
        records = fringe_scan(split_single_photon(), PHASES_64)
        assert min(r.intensity_c for r in records) < 1e-10
        # the dark port at phase 0 is exactly dark, not rounding noise
        assert records[0].phase == 0.0 and records[0].intensity_c == 0.0
        # single photon never coincides with itself
        assert all(r.coincidence == 0.0 for r in records)

    def test_two_mode_required(self):
        with pytest.raises(ValueError):
            fringe_scan(coherent_state(0.3), PHASES_64)

    @pytest.mark.parametrize("family, params", [
        ("split_thermal", {"nbar": 0.99}),
        ("noisy_split_photon", {"w": 0.6, "alpha_re": 2.0, "alpha_im": 0.3}),
        ("split_coherent", {"alpha_re": 3.0, "alpha_im": -0.4}),
        ("incoherent_anticorrelated", {"p": 0.3}),
        # support in sectors 0, 1 and 3 of the (2, 2) basis, none in 2, so
        # the scan pads both cutoffs to 3
        ("pure_explicit", {"cutoffs": [2, 2], "amplitudes": [
            0.5, 0.5j, 0, -0.5, 0, 0, 0, 0.5, 0]}),
        # sector 2 is shared by three components: the coherent one, the
        # thermal n = 2 one and the number state
        ("mixed_ensemble", {"components": [
            {"weight": 0.5, "family": "split_coherent", "alpha_re": 0.8,
             "alpha_im": 0.5},
            {"weight": 0.3, "family": "split_thermal", "nbar": 0.4},
            {"weight": 0.2, "family": "split_number", "n": 2}]}),
    ])
    def test_planned_scan_matches_per_phase_path(self, family, params):
        state = build_state(StateSpec(family, params))
        assert_scan_matches_per_phase(state, PHASES_64[::4] + [0.3, -2.0, 9.5])

    def test_planned_scan_on_outer_modes_of_three(self):
        # a rank-2 mixture times a coherent third mode, scanned on the
        # pair (0, 2), whose sectors pass both cutoffs, so both are padded
        noisy = build_state(StateSpec("noisy_split_photon",
                                      {"w": 0.7, "alpha_re": 0.4}))
        state = tensor(noisy, coherent_state(0.5 - 0.3j))
        assert state.amps.shape[0] == 2
        assert_scan_matches_per_phase(state, PHASES_64[::8] + [9.5], 0, 2)

    def test_scan_memory_stays_per_sector(self):
        # a 16-phase scan of a rank-83 mixture over 83 x 83 levels reads
        # its moments from the stored amplitudes and forms no stack;
        # measured after a first scan, which caches the ladder tables
        state = build_state(StateSpec("split_thermal", {"nbar": 2.5}))
        assert state.amps.shape == (83, 83 * 83)
        fringe_scan(state, PHASES_64[::4])
        tracemalloc.start()
        try:
            fringe_scan(state, PHASES_64[::4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_vacuum_is_degenerate_not_a_residual(self, capsys):
        vacuum = basis_state(ModeSystem((1, 1)), (0, 0))
        records = fringe_scan(vacuum, PHASES_64)
        assert all(r.intensity_c == r.intensity_d == r.coincidence == 0.0
                   for r in records)
        with pytest.raises(DegenerateStateError):
            visibility(records)
        assert cli.main(["fringe", "--state", "split_number n=0"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: DegenerateStateError")


class TestFringeMomentRoute:
    def test_records_are_the_closed_form_in_eight_moments(self, monkeypatch):
        # the scan asks for the eight terms in one call and fills each phase
        # from their values alone
        values = [0.7, 0.2 + 0.3j, 0.4, 0.1 - 0.05j, 0.25, 0.3, 0.1,
                  0.05 - 0.02j]
        calls = []

        def fake(state, terms):
            calls.append([[tuple(pq) for pq in term] for term in terms])
            return [complex(v) for v in values]
        monkeypatch.setattr(fock, "expectations", fake)
        phases = [0.0, 0.4, 1.0, 2.5, -3.0, 9.5]
        records = fringe_scan(split_single_photon(), phases)
        num, none = (1, 1), (0, 0)
        assert calls == [[[num, none], [(1, 0), (0, 1)], [none, num],
                          [(0, 1), (0, 1)], [num, num], [(2, 2), none],
                          [none, (2, 2)], [(2, 0), (0, 2)]]]
        n1, m12, n2, _, _, pairs1, pairs2, cross = values
        for phi, r in zip(phases, records):
            swing = (1j * cmath.exp(-1j * phi) * m12).real
            assert r.phase == phi
            assert abs(r.intensity_c - ((n1 + n2) / 2 + swing)) < 1e-15
            assert abs(r.intensity_d - ((n1 + n2) / 2 - swing)) < 1e-15
            assert abs(r.coincidence - ((pairs1 + pairs2) / 4 + 0.5 * (
                cmath.exp(-2j * phi) * cross).real)) < 1e-15

    def test_dark_port_rule_scales_with_the_total_intensity(self):
        # intensity_c at phase 0 is (1 - w)/2 of a total intensity of 1:
        # within 1e-12 of it the record is 0, above it the value stays
        dark = fringe_scan(_partially_coherent_state(1.0 - 2e-13), [0.0])[0]
        assert dark.intensity_c == 0.0 and dark.coincidence == 0.0
        lit = fringe_scan(_partially_coherent_state(1.0 - 4e-12), [0.0])[0]
        assert abs(lit.intensity_c - 2e-12) < 1e-15


def _partially_coherent_state(w):
    """Mixture of the split photon with an incoherent anticorrelated
    background: balanced channels with |g1| = w exactly."""
    return make_mixed([(w, split_single_photon()),
                       (1.0 - w, incoherent_anticorrelated(0.5))])


class TestVisibility:
    def test_split_photon_unity(self):
        records = fringe_scan(split_single_photon(), PHASES_64)
        assert abs(visibility(records) - 1.0) < 1e-9

    def test_incoherent_mixture_zero(self):
        records = fringe_scan(incoherent_anticorrelated(0.5), PHASES_64)
        assert visibility(records) < 1e-12

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
    @pytest.mark.parametrize("count", [3, 7, 16, 64])
    def test_flat_fringe_fits_exactly_zero(self, p, count):
        # the fit's rounding noise on a flat fringe (1.3e-16 to 2.2e-16 on
        # these states) is within ROUTE_RESIDUAL_TOL of the mean: it is 0,
        # as the analytic visibility is
        state = incoherent_anticorrelated(p)
        phases = [2 * math.pi * k / count for k in range(count)]
        assert visibility(fringe_scan(state, phases)) == 0.0
        assert analytic_visibility(compute_moments(state)) == 0.0

    def test_swing_past_the_zero_rule_is_kept(self):
        # a visibility of 1e-9, above the 1e-12 rule, is fitted as it is
        state = _partially_coherent_state(1e-9)
        assert abs(visibility(fringe_scan(state, PHASES_64)) - 1e-9) < 1e-15

    def test_moment_matched_visibility(self):
        state = _partially_coherent_state(0.98)
        m = compute_moments(state)
        assert abs(abs(g1(m)) - 0.98) < 1e-14
        records = fringe_scan(state, PHASES_64)
        assert abs(visibility(records) - 0.98) < 1e-6

    def test_balanced_matches_g1(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            inp = random_pure(rng, (3,))
            state = split_input(inp)
            records = fringe_scan(state, PHASES_64)
            m = compute_moments(state)
            assert abs(m.n1 - m.n2) < 1e-12
            assert abs(visibility(records) - abs(g1(m))) < 1e-8

    def test_unbalanced_reports_both(self):
        state = make_pure(ModeSystem((1, 1)),
                          [0, 0.6j, 0.8, 0])  # 0.8|10> + 0.6i|01>
        m = compute_moments(state)
        records = fringe_scan(state, PHASES_64)
        fitted = visibility(records)
        analytic = analytic_visibility(m)
        assert abs(fitted - analytic) < 1e-10
        assert abs(analytic - 2 * 0.48 / 1.0) < 1e-12
        assert abs(abs(g1(m)) - 1.0) < 1e-12  # pure state stays coherent

    def test_fit_preconditions(self):
        records = fringe_scan(split_single_photon(), PHASES_64)
        with pytest.raises(ValueError):
            visibility(records[:2])
        with pytest.raises(ValueError):
            visibility(records[:5])  # span too small
        vac_records = fringe_scan(
            basis_state(ModeSystem((1, 1)), (0, 0)), PHASES_64)
        with pytest.raises(DegenerateStateError):
            visibility(vac_records)
