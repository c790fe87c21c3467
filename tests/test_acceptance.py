"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (the lines also appear in captured output on failure).
"""

import math

import numpy as np

from mzbell import (DegenerateStateError, LocalOscillator, StateSpec,
                    build_state, cli, coherent_state, compute_moments,
                    criterion_from_measurements, fringe_coefficients,
                    fringe_scan, g1, g2, incoherent_anticorrelated,
                    local_realism_verdict, maximize_chsh, mixed_ensemble,
                    modulation_depth_analytic, noisy_split_photon,
                    optimal_lo_amplitudes, split_input, split_single_photon,
                    thermal_state, visibility)
from mzbell.coherence import classical_margin
from mzbell.homodyne import FringeCoefficients

from oracle import (modulation_depth_numeric, purity, random_density,
                    random_pure, random_state)

ROOT_HALF = math.sqrt(0.5)
PHASES_64 = [2 * math.pi * k / 64 for k in range(64)]


def _criterion(num, description, ok):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_split_single_photon():
    moments = compute_moments(split_single_photon())
    verdict = local_realism_verdict(moments)
    ok = (abs(verdict.g1_mag - 1.0) <= 1e-12
          and abs(verdict.g2) <= 1e-12
          and abs(verdict.c1 - 1.0) <= 1e-12
          and verdict.violates_bell)
    _criterion(1, "split single photon: g1=1, g2=0 (1e-12), C1=1, "
                  "Bell violated", ok)


def test_criterion_02_measured_visibility_coincidence():
    verdict = criterion_from_measurements(0.98, 0.18)
    # 0.98/(1 + sqrt(0.18)) = 0.6880746495881836, frozen from direct
    # arithmetic (the value is strictly below 1/sqrt(2))
    ok = (verdict.violates_classical
          and not verdict.violates_bell
          and abs(verdict.c1 - 0.6880746495881836) <= 1e-4
          and verdict.c1 < ROOT_HALF)
    _criterion(2, "measured pair 0.98/0.18: classical violated, Bell not, "
                  "C1 = 0.68807 +- 1e-4 < 1/sqrt(2)", ok)


def _bisect(flips_true, lo, hi, tol):
    """Smallest point where the predicate flips to True, by bisection."""
    assert not flips_true(lo) and flips_true(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flips_true(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_03_thresholds_by_bisection():
    g1_root = _bisect(
        lambda v: criterion_from_measurements(v, 0.0).violates_bell,
        0.5, 1.0, 1e-8)
    g2_root = _bisect(
        lambda v: not criterion_from_measurements(1.0, v).violates_bell,
        0.0, 1.0, 1e-8)
    ok = (abs(g1_root - ROOT_HALF) <= 1e-6
          and abs(g2_root - (math.sqrt(2) - 1) ** 2) <= 1e-6)
    _criterion(3, f"thresholds by bisection: g1* = {g1_root:.8f} "
                  f"(1/sqrt2), g2* = {g2_root:.8f} ((sqrt2-1)^2), 1e-6", ok)


def test_criterion_04_triple_path_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        state = random_state(rng, (rng.integers(1, 4), rng.integers(1, 4)))
        lo1 = LocalOscillator(rng.uniform(0.01, 0.3),
                              rng.uniform(0, 2 * math.pi))
        lo2 = LocalOscillator(rng.uniform(0.01, 0.3),
                              rng.uniform(0, 2 * math.pi))
        moments = compute_moments(state)
        e_unitary = modulation_depth_numeric(state, lo1, lo2, "unitary",
                                             tail_eps=1e-14)
        e_input = modulation_depth_numeric(state, lo1, lo2, "input_operator",
                                           tail_eps=1e-14)
        e_analytic = modulation_depth_analytic(moments, lo1.beta, lo2.beta,
                                               lo1.theta, lo2.theta)
        worst = max(worst, abs(e_unitary - e_input),
                    abs(e_unitary - e_analytic), abs(e_input - e_analytic))
    _criterion(4, f"triple-path modulation depth, 20 random cases: "
                  f"max spread {worst:.2e} <= 1e-8", worst <= 1e-8)


def test_criterion_05_chsh_quadrature_boundary():
    def b_max(c1, c2):
        return maximize_chsh(FringeCoefficients(c1, 0.4, c2, 2.1)).b_value

    # boundary radius along several rays of the (C1, C2) quarter-plane
    worst_radius = 0.0
    for t in (0.0, math.pi / 10, math.pi / 5, 3 * math.pi / 10,
              2 * math.pi / 5, math.pi / 2):
        direction = (math.cos(t), math.sin(t))
        hi = min(0.97, 0.999 / (direction[0] + direction[1]))
        root = _bisect(
            lambda r: b_max(r * direction[0], r * direction[1]) > 2.0,
            0.5, hi, 1e-6)
        worst_radius = max(worst_radius, abs(root - ROOT_HALF))
    # sign agreement away from the boundary band
    agree = True
    for c1 in np.linspace(0.0, 0.95, 14):
        for c2 in np.linspace(0.0, 0.95, 14):
            if c1 + c2 > 0.999:
                continue
            sum_sq = c1 ** 2 + c2 ** 2
            if abs(sum_sq - 0.5) <= 2e-3:
                continue
            if (b_max(c1, c2) > 2.0) != (sum_sq > 0.5):
                agree = False
    ok = worst_radius <= 1e-4 and agree
    _criterion(5, f"CHSH > 2 iff C1^2+C2^2 > 1/2; boundary radius off by "
                  f"{worst_radius:.2e} <= 1e-4", ok)


def test_criterion_06_split_coherent_boundary():
    state = split_input(coherent_state(0.5, 1e-14))
    moments = compute_moments(state)
    coeffs = fringe_coefficients(moments)
    chsh = maximize_chsh(coeffs)
    tg = classical_margin(abs(g1(moments)), g2(moments))
    ok = (abs(coeffs.c1 - 0.5) <= 1e-10
          and abs(coeffs.c2 - 0.5) <= 1e-10
          and abs(chsh.b_value - 2.0) <= 1e-3
          and abs(tg) <= 1e-10)
    _criterion(6, f"split coherent: C1=C2=1/2 (1e-10), "
                  f"B_max = {chsh.b_value:.6f} = 2 +- 1e-3, |TG| <= 1e-10", ok)


def test_criterion_07_classical_catalog_compliance():
    rng = np.random.default_rng(7777)
    failures = 0
    checked = 0

    def check(state):
        nonlocal failures, checked
        checked += 1
        moments = compute_moments(state)
        verdict = local_realism_verdict(moments)
        if verdict.tg_margin < -1e-10 or verdict.violates_bell:
            failures += 1

    for _ in range(400):
        alpha = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        check(split_input(coherent_state(alpha, 1e-18)))
    for _ in range(100):
        check(split_input(thermal_state(rng.uniform(0.05, 0.6), 1e-10)))
    for _ in range(200):
        check(incoherent_anticorrelated(rng.uniform(0.02, 0.98)))
    for _ in range(300):
        count = int(rng.integers(2, 4))
        weights = rng.dirichlet(np.ones(count))
        parts = []
        for w in weights:
            alpha = rng.uniform(0.1, 0.9) * np.exp(
                1j * rng.uniform(0, 2 * math.pi))
            parts.append((float(w), split_input(coherent_state(alpha, 1e-18))))
        check(mixed_ensemble(parts))
    ok = checked == 1000 and failures == 0
    _criterion(7, f"classical catalog: {checked} states, TG margin >= -1e-10 "
                  f"and no Bell flags ({failures} failures)", ok)


def test_criterion_08_bell_implies_classical():
    rng = np.random.default_rng(88)
    exceptions = 0
    bell_count = 0
    usable = 0
    while usable < 1000:
        # mix unstructured random states with the noisy-photon family so a
        # healthy fraction actually violates the Bell criterion
        if usable % 4 == 0:
            state = noisy_split_photon(rng.uniform(0.3, 1.0),
                                       rng.uniform(0.05, 0.5))
        else:
            cutoffs = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            state = random_state(rng, cutoffs)
        try:
            verdict = local_realism_verdict(compute_moments(state))
        except DegenerateStateError:
            continue
        usable += 1
        if verdict.violates_bell:
            bell_count += 1
            if not verdict.violates_classical:
                exceptions += 1
    # the one-way converse: a state violating the classical bound only
    witness = local_realism_verdict(
        compute_moments(noisy_split_photon(0.82, 1.0, tail_eps=1e-13)))
    converse = witness.violates_classical and not witness.violates_bell
    ok = exceptions == 0 and bell_count > 0 and converse
    _criterion(8, f"over 1000 random states ({bell_count} Bell violations): "
                  f"Bell => classical with {exceptions} exceptions; "
                  f"classical-only witness exists", ok)


def _difference_fringe_amplitude(moments, beta1, beta2, samples=32):
    """Amplitude of the difference-frequency fringe of E at fixed angle sum,
    via a single-bin discrete Fourier projection."""
    grid = 2 * math.pi * np.arange(samples) / samples
    sigma = 0.7
    values = modulation_depth_analytic(moments, beta1, beta2,
                                       (sigma + grid) / 2, (sigma - grid) / 2)
    return abs(2.0 * np.mean(values * np.exp(-1j * grid)))


def test_criterion_09_optimal_amplitudes():
    rng = np.random.default_rng(99)
    factors = np.geomspace(0.7, 1.0 / 0.7, 7)
    worst_shortfall = 0.0
    cases = 0
    while cases < 100:
        state = random_state(rng, (int(rng.integers(1, 3)),
                                   int(rng.integers(1, 3))))
        moments = compute_moments(state)
        if moments.n1n2 <= 1e-3:
            continue
        cases += 1
        beta1, beta2 = optimal_lo_amplitudes(moments)
        amp_opt = _difference_fringe_amplitude(moments, beta1, beta2)
        amp_best = max(
            _difference_fringe_amplitude(moments, beta1 * f1, beta2 * f2)
            for f1 in factors for f2 in factors)
        shortfall = (amp_best - amp_opt) / amp_best
        worst_shortfall = max(worst_shortfall, shortfall)
    ok = worst_shortfall < 1e-3
    _criterion(9, f"optimal oscillator amplitudes maximize the fringe over "
                  f"100 states: worst relative shortfall "
                  f"{worst_shortfall:.2e} < 1e-3", ok)


def test_criterion_10_mixed_state_violation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--state",
                     "noisy_split_photon w=0.8 alpha_re=0.2 alpha_im=0",
                     "--sweep", "w=0.8:1.0:0.01",
                     "--out", str(out)])
    capsys.readouterr()
    rows = out.read_text().strip().splitlines()
    found = None
    for row in rows[1:]:
        fields = row.split(",")
        if fields[7] != "true":
            continue
        w = float(fields[0].split("w=")[1])
        state = build_state(StateSpec(
            "noisy_split_photon", {"w": w, "alpha_re": 0.2, "alpha_im": 0.0}))
        if purity(state) < 1.0 - 1e-6:
            found = (w, purity(state))
            break
    ok = code == 0 and found is not None
    if found:
        message = (f"sweep records a mixed Bell-violating state "
                   f"(w={found[0]:g}, purity={found[1]:.6f} < 1 - 1e-6)")
    else:
        message = "sweep found no mixed Bell-violating state"
    _criterion(10, message, ok)


def test_criterion_11_visibility_identity():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for case in range(50):
        if case % 3 == 0:
            inp = random_density(rng, (int(rng.integers(1, 4)),))
        else:
            inp = random_pure(rng, (int(rng.integers(1, 5)),))
        state = split_input(inp)
        moments = compute_moments(state)
        assert abs(moments.n1 - moments.n2) < 1e-12  # balanced by design
        fitted = visibility(fringe_scan(state, PHASES_64))
        worst = max(worst, abs(fitted - abs(g1(moments))))
    _criterion(11, f"fitted Mach-Zehnder visibility equals |g1| on 50 "
                   f"balanced states: worst gap {worst:.2e} <= 1e-8",
               worst <= 1e-8)
