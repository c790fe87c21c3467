"""Homodyne Bell tests: modulation depth routes, CHSH, verdicts."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mzbell import (ChshResult, CoherenceMoments, DegenerateDenominatorError,
                    DegenerateLimit, DegenerateStateError, DimensionLimitError,
                    FringeCoefficients, LocalOscillator, ModeSystem,
                    QuantumState, RouteResidualError, basis_state,
                    coherent_state, compute_moments,
                    criterion_from_measurements, fock, fringe_coefficients,
                    fringe_coefficients_at, homodyne, local_realism_verdict,
                    maximize_chsh, modulation_depth_analytic,
                    numeric_fringe_coefficients, optimal_lo_amplitudes,
                    split_input, split_single_photon, thermal_state,
                    violation_thresholds)
from mzbell.homodyne import fringe_e

from oracle import (chsh_value, dd_ss_after_beamsplitters,
                    dd_ss_on_the_input_stack, modulation_depth_numeric,
                    random_density, random_state, search_chsh,
                    validate_trig_form)

ROOT_HALF = 1.0 / math.sqrt(2.0)


class TestLocalOscillator:
    def test_theta_wrapped(self):
        lo = LocalOscillator(0.1, -math.pi / 2)
        assert abs(lo.theta - 3 * math.pi / 2) < 1e-12
        assert abs(lo.alpha - 0.1 * np.exp(1j * lo.theta)) < 1e-15

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            LocalOscillator(-0.1, 0.0)


class TestFringeCoefficientTypes:
    def test_unit_bound_enforced(self):
        with pytest.raises(ValueError, match="unit bound"):
            FringeCoefficients(c1=0.8, phi1=0.0, c2=0.5, phi2=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            FringeCoefficients(c1=-0.1, phi1=0.0, c2=0.0, phi2=0.0)


class TestModulationDepthNumeric:
    def test_zero_beta_zero_correlation(self):
        state = basis_state(ModeSystem((1, 1)), (1, 1))
        lo = LocalOscillator(0.0, 0.0)
        for route in ("unitary", "input_operator"):
            assert modulation_depth_numeric(state, lo, lo, route) == 0.0

    def test_zero_beta_split_photon_degenerate(self):
        lo = LocalOscillator(0.0, 0.0)
        with pytest.raises(DegenerateDenominatorError):
            modulation_depth_numeric(split_single_photon(), lo, lo)

    def test_split_photon_peak_value(self):
        # peak of the difference fringe: theta1 - theta2 = -arg(m12) = -pi/2
        beta = 0.01
        lo1 = LocalOscillator(beta, -math.pi / 2)
        lo2 = LocalOscillator(beta, 0.0)
        want = 1.0 / (1.0 + beta ** 2)
        for route in ("unitary", "input_operator"):
            got = modulation_depth_numeric(split_single_photon(), lo1, lo2,
                                           route, tail_eps=1e-14)
            assert abs(got - want) < 1e-8

    def test_routes_agree_split_coherent(self):
        state = split_input(coherent_state(0.5, 1e-13))
        rng = np.random.default_rng(31)
        for _ in range(3):
            lo1 = LocalOscillator(rng.uniform(0.05, 0.3),
                                  rng.uniform(0, 2 * math.pi))
            lo2 = LocalOscillator(rng.uniform(0.05, 0.3),
                                  rng.uniform(0, 2 * math.pi))
            e_u = modulation_depth_numeric(state, lo1, lo2, "unitary")
            e_i = modulation_depth_numeric(state, lo1, lo2, "input_operator")
            assert abs(e_u - e_i) < 1e-8

    def test_bad_route(self):
        lo = LocalOscillator(0.1, 0.0)
        with pytest.raises(ValueError):
            modulation_depth_numeric(split_single_photon(), lo, lo, "magic")

    def test_unitary_route_forms_no_four_mode_state(self, monkeypatch):
        # each pair's outputs are weighted through its Gram matrices: no
        # ladder expectation on the unitary route
        state = random_density(np.random.default_rng(37), (2, 3), rank=3)
        want = numeric_fringe_coefficients(state, 0.4, 0.3, "input_operator")

        def refuse(*args, **kwargs):
            raise AssertionError("the unitary route called a four-mode step")
        monkeypatch.setattr(fock, "expectations", refuse)
        got = numeric_fringe_coefficients(state, 0.4, 0.3, "unitary")
        assert abs(got.c1 - want.c1) < 1e-12
        assert abs(got.c2 - want.c2) < 1e-12
        with pytest.raises(AssertionError, match="four-mode step"):
            numeric_fringe_coefficients(state, 0.4, 0.3, "input_operator")

    @pytest.mark.parametrize("route", ["unitary", "input_operator"])
    def test_routes_assume_no_unit_norm(self, route):
        # both correlators are linear in the signal's density operator and
        # in each oscillator's, so on a signal of norm 4 and oscillator rows
        # of other norms they still match both four-mode oracles
        rng = np.random.default_rng(43)
        state = random_density(rng, (2, 3), rank=3)
        state = QuantumState(state.system, amps=2 * state.amps,
                             validate=False)
        rows = [rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
                for width in (4, 3)]
        dds, sss = getattr(homodyne, f"_dd_ss_{route}")(state, *rows)
        for p, (dd, ss) in enumerate(zip(dds, sss)):
            b1, b2 = (QuantumState(ModeSystem((width - 1,)), vector=r[p],
                                   validate=False)
                      for r, width in zip(rows, (4, 3)))
            for want in (dd_ss_on_the_input_stack(state, b1, b2),
                         dd_ss_after_beamsplitters(state, b1, b2)):
                for got, value in zip((dd, ss), want):
                    assert abs(got - value) <= 1e-12 * max(1.0, abs(value))

    def test_gram_stacks_refused_before_allocating(self, monkeypatch):
        # a signal mode of cutoff 1448 gives one angle pair's Gram stacks
        # 1449^2 entries each, past the amplitude bound: refused before any
        # block is built or any Gram matrix (32 MiB each) allocated
        state = basis_state(ModeSystem((1448, 1)), (1448, 1))
        lo = LocalOscillator(0.5, 0.0)

        def refuse(top):
            raise AssertionError(f"blocks up to U_{top} requested")
        monkeypatch.setattr(fock, "_bs_blocks", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionLimitError,
                               match="1 x 2099601 entries"):
                modulation_depth_numeric(state, lo, lo, "unitary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_high_sectors_are_not_refused(self, monkeypatch):
        # a 460-photon signal mode beside an oscillator of cutoff c_l needs
        # the blocks up to sector 460 + c_l > 463: the route asks its
        # recursion for them and refuses nothing (zero blocks stand in,
        # as building the real ones takes about a second)
        requested = []

        def zeros(top):
            requested.append(top)
            return (np.zeros((n + 1, n + 1), dtype=np.complex128)
                    for n in range(top + 1))
        monkeypatch.setattr(fock, "_bs_blocks", zeros)
        state = basis_state(ModeSystem((460, 1)), (460, 1))
        lo = LocalOscillator(1.5, 0.0)
        top = 460 + coherent_state(lo.alpha).system.cutoffs[0]
        assert top > 463
        with pytest.raises(DegenerateDenominatorError):
            modulation_depth_numeric(state, lo, lo, "unitary")
        assert requested == [top]


class TestNumericFringeCoefficients:
    @pytest.mark.parametrize("route", ["unitary", "input_operator"])
    def test_match_pointwise_route(self, route):
        rng = np.random.default_rng(35)
        state = random_density(rng, (2, 2), rank=3)
        beta1, beta2 = 0.4, 0.3
        coeffs = numeric_fringe_coefficients(state, beta1, beta2, route)
        assert coeffs.c1 > 0.01 and coeffs.c2 > 0.01
        for t1, t2 in rng.uniform(0, 2 * math.pi, size=(8, 2)):
            want = modulation_depth_numeric(
                state, LocalOscillator(beta1, t1), LocalOscillator(beta2, t2),
                route)
            assert abs(fringe_e(coeffs, t1, t2) - want) < 1e-12

    @pytest.mark.parametrize("skew, message", [
        ("dd", "held-out angles"), ("ss", "varies with the oscillator")])
    def test_broken_phase_covariance_raises(self, monkeypatch, skew,
                                            message):
        # a 1e-9 wobble of cos(theta1) on every pair, or of 1 on any one of
        # the five pairs alone
        real = homodyne._dd_ss
        for pick in (None, 0, 1, 2, 3, 4):
            def skewed(state, beta1, beta2, angles, route, tail_eps,
                       pick=pick):
                dd, ss = real(state, beta1, beta2, angles, route, tail_eps)
                wobble = 1e-9 * (np.cos(np.transpose(angles)[0])
                                 if pick is None
                                 else np.arange(len(dd)) == pick)
                if skew == "dd":
                    return dd + wobble * ss, ss
                return dd, ss * (1.0 + wobble)
            monkeypatch.setattr(homodyne, "_dd_ss", skewed)
            for route in ("unitary", "input_operator"):
                with pytest.raises(RouteResidualError, match=message):
                    numeric_fringe_coefficients(split_single_photon(), 0.1,
                                                0.1, route)

    @pytest.mark.parametrize("route", ["unitary", "input_operator"])
    def test_one_oscillator_build_per_scan_and_no_tensor(self, monkeypatch,
                                                         route):
        # each oscillator is built once and rotated to all five pairs
        state = random_density(np.random.default_rng(41), (2, 3), rank=3)
        built = []
        real = fock.coherent_state

        def counted(alpha, *args, **kwargs):
            built.append(alpha)
            return real(alpha, *args, **kwargs)
        monkeypatch.setattr(fock, "coherent_state", counted)
        numeric_fringe_coefficients(state, 0.4, 0.3, route)
        assert built == [0.4, 0.3]

    def test_input_operator_scan_memory_is_bounded(self):
        # the four-mode product of split_thermal nbar=2 with its optimal
        # oscillators has 7.0e5 nonzeros per pair (11 MiB), 3.5e6 for the
        # five pairs; none of it is formed: the route reads the signal's
        # stored amplitudes once and the oscillator rows per pair
        state = split_input(thermal_state(2.0))
        betas = optimal_lo_amplitudes(compute_moments(state))
        numeric_fringe_coefficients(state, *betas, "input_operator")
        tracemalloc.start()
        try:
            numeric_fringe_coefficients(state, *betas, "input_operator")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestModulationDepthAnalytic:
    def test_zero_beta_product(self):
        m = compute_moments(basis_state(ModeSystem((1, 1)), (1, 1)))
        assert modulation_depth_analytic(m, 0.0, 0.2, 0.0, 0.0) == 0.0

    def test_fully_degenerate(self):
        m = compute_moments(split_single_photon())
        with pytest.raises(DegenerateDenominatorError):
            modulation_depth_analytic(m, 0.0, 0.0, 0.0, 0.0)

    def test_split_photon_closed_form(self):
        m = compute_moments(split_single_photon())
        beta = 0.01
        got = modulation_depth_analytic(m, beta, beta, -math.pi / 2, 0.0)
        assert abs(got - 1.0 / (1.0 + beta ** 2)) < 1e-14

    def test_matches_numeric_on_random_cases(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            state = random_state(rng, (2, 2))
            m = compute_moments(state)
            lo1 = LocalOscillator(rng.uniform(0.05, 0.3),
                                  rng.uniform(0, 2 * math.pi))
            lo2 = LocalOscillator(rng.uniform(0.05, 0.3),
                                  rng.uniform(0, 2 * math.pi))
            e_a = modulation_depth_analytic(m, lo1.beta, lo2.beta,
                                            lo1.theta, lo2.theta)
            e_n = modulation_depth_numeric(state, lo1, lo2, "input_operator",
                                           tail_eps=1e-14)
            assert abs(e_a - e_n) < 1e-8

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            state = random_state(rng, (2, 2))
            m = compute_moments(state)
            lo1 = LocalOscillator(rng.uniform(0.0, 0.5),
                                  rng.uniform(0, 2 * math.pi))
            lo2 = LocalOscillator(rng.uniform(0.01, 0.5),
                                  rng.uniform(0, 2 * math.pi))
            try:
                e = modulation_depth_analytic(m, lo1.beta, lo2.beta,
                                              lo1.theta, lo2.theta)
            except DegenerateDenominatorError:
                continue
            assert abs(e) <= 1.0 + 1e-9


class TestOptimalAmplitudes:
    def test_ratio_from_intensities(self):
        m = CoherenceMoments(m12=0.05j, anom=0.0, n1=0.4, n2=0.1, n1n2=0.02)
        beta1, beta2 = optimal_lo_amplitudes(m)
        assert abs(beta1 / beta2 - 2.0) < 1e-12
        assert abs(beta1 * beta2 - math.sqrt(0.02)) < 1e-12

    def test_split_coherent_closed_form(self):
        alpha = 0.6
        m = compute_moments(split_input(coherent_state(alpha, 1e-13)))
        assert abs(m.n1n2 - alpha ** 4 / 4) < 1e-10
        beta1, beta2 = optimal_lo_amplitudes(m)
        assert abs(beta1 - alpha / math.sqrt(2)) < 1e-9
        assert abs(beta2 - alpha / math.sqrt(2)) < 1e-9

    def test_split_photon_degenerate_limit(self):
        m = compute_moments(split_single_photon())
        result = optimal_lo_amplitudes(m)
        assert isinstance(result, DegenerateLimit)
        assert abs(result.ratio - 1.0) < 1e-12

    def test_dark_channel_rejected(self):
        m = CoherenceMoments(m12=0.0, anom=0.0, n1=0.0, n2=0.5, n1n2=0.0)
        with pytest.raises(DegenerateStateError):
            optimal_lo_amplitudes(m)


class TestFringeCoefficients:
    def test_perfect_interference(self):
        m = compute_moments(split_single_photon())
        coeffs = fringe_coefficients(m)
        assert abs(coeffs.c1 - 1.0) < 1e-14
        assert abs(coeffs.c2) < 1e-14
        assert abs(coeffs.phi1 - math.pi / 2) < 1e-12

    def test_measured_pair_arithmetic(self):
        # 0.98/(1 + sqrt(0.18)), frozen from direct evaluation
        c1 = criterion_from_measurements(0.98, 0.18).c1
        assert abs(c1 - 0.6880746495881836) < 1e-15

    def test_split_coherent_boundary(self):
        m = compute_moments(split_input(coherent_state(0.5, 1e-14)))
        coeffs = fringe_coefficients(m)
        assert abs(coeffs.c1 - 0.5) < 1e-10
        assert abs(coeffs.c2 - 0.5) < 1e-10

    def test_at_optimum_matches_limit_form(self):
        m = compute_moments(split_input(coherent_state(0.4, 1e-13)))
        beta1, beta2 = optimal_lo_amplitudes(m)
        at = fringe_coefficients_at(m, beta1, beta2)
        limit = fringe_coefficients(m)
        assert abs(at.c1 - limit.c1) < 1e-12
        assert abs(at.c2 - limit.c2) < 1e-12
        assert abs(at.phi1 - limit.phi1) < 1e-12
        assert abs(at.phi2 - limit.phi2) < 1e-12

    def test_trig_form_reproduces_moment_formula(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            state = random_state(rng, (2, 2))
            m = compute_moments(state)
            beta1 = rng.uniform(0.05, 0.4)
            beta2 = rng.uniform(0.05, 0.4)
            coeffs = fringe_coefficients_at(m, beta1, beta2)
            validate_trig_form(m, LocalOscillator(beta1, 0.0),
                               LocalOscillator(beta2, 0.0), coeffs)
            for _ in range(5):
                t1 = rng.uniform(0, 2 * math.pi)
                t2 = rng.uniform(0, 2 * math.pi)
                via_trig = fringe_e(coeffs, t1, t2)
                via_moments = modulation_depth_analytic(m, beta1, beta2,
                                                        t1, t2)
                assert abs(via_trig - via_moments) < 1e-12

    def test_runtime_validation_hard_failure(self):
        m = compute_moments(split_single_photon())
        good = fringe_coefficients_at(m, 0.1, 0.1)
        bad = FringeCoefficients(c1=good.c1 + 1e-6, phi1=good.phi1,
                                 c2=good.c2, phi2=good.phi2)
        with pytest.raises(AssertionError, match="trig-form"):
            validate_trig_form(m, LocalOscillator(0.1, 0.0),
                               LocalOscillator(0.1, 0.0), bad)


class TestChsh:
    def test_zero_coefficients(self):
        coeffs = FringeCoefficients(0.0, 0.0, 0.0, 0.0)
        assert chsh_value(coeffs, (0.1, 0.7, 1.3, 2.9)) == 0.0
        assert maximize_chsh(coeffs).b_value == 0.0

    def test_standard_angles_tsirelson(self):
        for phi1 in (0.0, 0.8, -2.0):
            coeffs = FringeCoefficients(1.0, phi1, 0.0, 0.0)
            angles = (-phi1, math.pi / 2 - phi1, math.pi / 4, -math.pi / 4)
            assert abs(chsh_value(coeffs, angles) - 2 * math.sqrt(2)) < 1e-12

    def test_linearity_in_c1(self):
        coeffs = FringeCoefficients(0.5, 0.0, 0.0, 0.0)
        angles = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        assert abs(chsh_value(coeffs, angles) - math.sqrt(2)) < 1e-12

    def test_maximize_pure_first_harmonic(self):
        result = maximize_chsh(FringeCoefficients(1.0, 0.3, 0.0, 0.0))
        assert abs(result.b_value - 2 * math.sqrt(2)) < 1e-5

    def test_maximize_at_quadrature_boundary(self):
        result = maximize_chsh(FringeCoefficients(0.5, 0.0, 0.5, 0.0))
        assert abs(result.b_value - 2.0) < 1e-5

    def test_maximum_matches_quadrature_sum(self):
        # the oracle's grid + descent search reaches the closed form
        # 2 sqrt(2) sqrt(c1^2 + c2^2) at the default grid
        rng = np.random.default_rng(35)
        for _ in range(8):
            c1 = rng.uniform(0, 0.8)
            c2 = rng.uniform(0, min(0.8, 1.0 - c1))
            coeffs = FringeCoefficients(c1, rng.uniform(0, 2 * math.pi),
                                        c2, rng.uniform(0, 2 * math.pi))
            result = search_chsh(coeffs)
            want = 2 * math.sqrt(2) * math.hypot(c1, c2)
            assert abs(result.b_value - want) < 1e-5
            assert maximize_chsh(coeffs).b_value == want
            assert abs(result.b_value) <= 2 * math.sqrt(2) + 1e-9

    def test_degenerate_coefficients(self):
        zero = maximize_chsh(FringeCoefficients(0.0, 1.0, 0.0, 2.0))
        assert zero == ChshResult(0.0, (0.0, 0.0, 0.0, 0.0))
        # one term: the other's phase is meaningless, and t1 is pinned at 0
        for coeffs, other in ((FringeCoefficients(0.6, 1.0, 0.0, 2.0),
                               {"phi2": 5.0}),
                              (FringeCoefficients(0.0, 1.0, 0.6, 2.0),
                               {"phi1": 4.0})):
            result = maximize_chsh(coeffs)
            assert result == maximize_chsh(replace(coeffs, **other))
            assert result.angles[0] == 0.0
            assert abs(chsh_value(coeffs, result.angles)
                       - 2 * math.sqrt(2) * 0.6) < 1e-12
        # c1 = c2: s2 = 0, so b and b' agree up to a half turn
        t2, t2p = maximize_chsh(FringeCoefficients(0.3, 1.0, 0.3, 2.0)).angles[2:]
        assert abs(math.sin(t2 - t2p)) < 1e-12

    def test_deterministic(self):
        coeffs = FringeCoefficients(0.61, 1.9, 0.2, 0.4)
        a = maximize_chsh(coeffs)
        b = maximize_chsh(coeffs)
        assert a == b

    def test_result_at_reported_angles(self):
        coeffs = FringeCoefficients(0.7, 0.5, 0.25, 2.2)
        result = maximize_chsh(coeffs)
        assert isinstance(result, ChshResult)
        assert abs(chsh_value(coeffs, result.angles) - result.b_value) < 1e-12

    def test_angle_covariance_without_c2(self):
        coeffs = FringeCoefficients(0.8, 1.1, 0.0, 0.0)
        rng = np.random.default_rng(36)
        for _ in range(10):
            t1, t2, delta = rng.uniform(0, 2 * math.pi, size=3)
            assert abs(fringe_e(coeffs, t1 + delta, t2 + delta)
                       - fringe_e(coeffs, t1, t2)) < 1e-12


class TestVerdicts:
    def test_split_photon_violates_both(self):
        verdict = local_realism_verdict(compute_moments(split_single_photon()))
        assert verdict.violates_bell and verdict.violates_classical
        assert abs(verdict.c1 - 1.0) < 1e-14
        assert abs(verdict.thw_sum - 1.0) < 1e-14

    def test_measured_pair_verdict(self):
        verdict = criterion_from_measurements(0.98, 0.18)
        assert verdict.violates_classical and not verdict.violates_bell
        assert verdict.c2 is None and verdict.thw_sum is None
        assert verdict.bell_margin > 0

    def test_split_thermal_no_violation(self):
        verdict = local_realism_verdict(
            compute_moments(split_input(thermal_state(0.8, 1e-12))))
        assert not verdict.violates_bell
        assert not verdict.violates_classical

    def test_boundary_is_not_a_violation(self):
        verdict = criterion_from_measurements(ROOT_HALF, 0.0)
        assert not verdict.violates_bell
        assert abs(verdict.bell_margin) < 1e-15

    def test_threshold_flip(self):
        g1_min, g2_max = violation_thresholds()
        assert abs(g1_min - 0.7071067811865476) < 1e-15
        assert abs(g2_max - 0.17157287525380988) < 1e-12
        below = criterion_from_measurements(g1_min, 0.0)
        above = criterion_from_measurements(g1_min + 1e-9, 0.0)
        assert not below.violates_bell
        assert above.violates_bell

    def test_range_validation(self):
        with pytest.raises(ValueError):
            criterion_from_measurements(1.2, 0.0)
        with pytest.raises(ValueError):
            criterion_from_measurements(0.5, -0.1)

    def test_bell_implies_classical_random(self):
        rng = np.random.default_rng(37)
        seen_bell = 0
        for _ in range(200):
            state = random_state(rng, (1, 1))
            try:
                verdict = local_realism_verdict(compute_moments(state))
            except DegenerateStateError:
                continue
            if verdict.violates_bell:
                seen_bell += 1
                assert verdict.violates_classical
        assert seen_bell > 0
