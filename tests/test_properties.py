"""Property-based tests of the photon-number-sector beamsplitter and of
states stored as amplitude stacks, against the dense-matrix oracle, and of
the closed-form CHSH maximum, against the oracle's angle search."""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from mzbell import (DegenerateStateError, FringeCoefficients, LocalOscillator,
                    ModeSystem, QuantumState, StateSpec, apply_beamsplitter,
                    apply_phase, build_state, chsh_value, compute_moments,
                    expect_normal_ordered, expectations, fock,
                    fringe_coefficients_at, fringe_scan, local_realism_verdict,
                    maximize_chsh, modulation_depth_numeric,
                    numeric_fringe_coefficients, pad_cutoffs, purity)
from mzbell.homodyne import fringe_e

from oracle import (assert_scan_matches_per_phase, bs_unitary_spectral,
                    normal_ordered_matrix, phase_matrix, random_density,
                    random_pure, search_chsh, strided_lower)


@given(total=st.integers(0, 80), forward=st.booleans())
def test_blocks_are_unitary(total, forward):
    block = fock._bs_block(total, forward)
    assert block.shape == (total + 1, total + 1)
    eye = np.eye(total + 1)
    assert np.abs(block @ block.conj().T - eye).max() < 1e-12
    assert np.abs(block.conj().T @ block - eye).max() < 1e-12
    # the inverse block is the complex conjugate of the forward one
    np.testing.assert_array_equal(fock._bs_block(total, not forward),
                                  block.conj())


@st.composite
def states_and_pairs(draw):
    cutoffs = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    mode_i, mode_j = draw(st.permutations(range(len(cutoffs))))[:2]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        state = random_density(rng, cutoffs, rank=draw(st.integers(1, 3)))
    else:
        state = random_pure(rng, cutoffs)
    return state, mode_i, mode_j


@settings(max_examples=60, deadline=None)
@given(case=states_and_pairs(), inverse=st.booleans())
def test_forward_then_inverse_is_identity(case, inverse):
    state, mode_i, mode_j = case
    there = apply_beamsplitter(state, mode_i, mode_j, inverse=inverse)
    back = apply_beamsplitter(there, mode_i, mode_j, inverse=not inverse)
    padded = pad_cutoffs(state, there.system.cutoffs)
    assert back.system == there.system
    if padded.is_pure:
        np.testing.assert_allclose(back.vector, padded.vector, atol=1e-12)
    else:
        np.testing.assert_allclose(back.rho, padded.rho, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=states_and_pairs(), inverse=st.booleans())
def test_padding_keeps_the_norm(case, inverse):
    state, mode_i, mode_j = case
    out = apply_beamsplitter(state, mode_i, mode_j, inverse=inverse)
    # the largest occupied sector n_i + n_j, read off the support
    occupied = np.argwhere(state.tensorized() != 0)
    n_max = (occupied[:, 1 + mode_i] + occupied[:, 1 + mode_j]).max()
    want = list(state.system.cutoffs)
    for mode in (mode_i, mode_j):
        want[mode] = max(want[mode], n_max)
    assert out.system.cutoffs == tuple(want)
    assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-12


@st.composite
def stacks_and_powers(draw):
    """A random (rank, *dims) stack of 1-4 modes and rank 1-5, with a few
    power tuples of 0-3 per mode, some at or past a cutoff."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    rank = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = (rng.normal(size=(rank,) + dims)
             + 1j * rng.normal(size=(rank,) + dims))
    # some exact zeros, as the stored stacks have
    stack[rng.random(stack.shape) < 0.3] = 0
    powers = draw(st.lists(st.tuples(*[st.integers(0, 3) for _ in dims]),
                           min_size=1, max_size=4))
    return stack, powers


@settings(max_examples=200, deadline=None)
@given(case=stacks_and_powers())
@example(case=(np.arange(1, 25, dtype=complex).reshape(1, 2, 3, 4),
               [(1, 2, 3), (0, 3, 1), (2, 0, 0), (1, 1, 1)]))
def test_flat_lowering_equals_the_strided_oracle(case):
    stack, powers = case
    weights = {}
    for p in powers:
        want = strided_lower(stack, p)
        for got in (fock._lower(stack, p), fock._lower(stack, p, weights)):
            assert got.shape == stack.shape
            assert np.array_equal(got, want)


@st.composite
def ensembles(draw, modes=(2, 3)):
    """A random state of rank 1-4 stored as its amplitude stack."""
    cutoffs = draw(st.lists(st.integers(1, 3), min_size=modes[0],
                            max_size=modes[1]))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    system = ModeSystem(tuple(cutoffs))
    amps = (rng.normal(size=(rank, system.dim))
            + 1j * rng.normal(size=(rank, system.dim)))
    return QuantumState(system, amps=amps / np.linalg.norm(amps)), rng


@settings(max_examples=60, deadline=None)
@given(case=ensembles())
def test_ensemble_matches_dense_oracle(case):
    state, rng = case
    rho, dims = state.rho, state.system.dims
    for _ in range(3):
        powers = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                  for _ in dims]
        want = np.trace(rho @ normal_ordered_matrix(dims, powers))
        assert abs(expect_normal_ordered(state, powers) - want) < 1e-12
    mode, phi = int(rng.integers(0, len(dims))), float(rng.uniform(0, 7))
    p = phase_matrix(dims, mode, phi)
    np.testing.assert_allclose(apply_phase(state, mode, phi).rho,
                               p @ rho @ p.conj().T, atol=1e-12)
    assert abs(purity(state) - np.trace(rho @ rho).real) < 1e-12


@settings(max_examples=60, deadline=None)
@given(case=ensembles(), data=st.data())
def test_batched_expectations_match_dense_oracle(case, data):
    state, _ = case
    rho, dims = state.rho, state.system.dims
    power = st.integers(0, 4)
    terms = data.draw(st.lists(st.lists(st.tuples(power, power),
                                        min_size=len(dims),
                                        max_size=len(dims)), max_size=6))
    # always a repeated term, the all-zero term and a power above a cutoff
    above = [(0, 0)] * len(dims)
    mode = data.draw(st.integers(0, len(dims) - 1))
    above[mode] = data.draw(st.sampled_from(
        [(dims[mode], 0), (0, dims[mode]), (dims[mode], dims[mode] + 1)]))
    terms += [[(0, 0)] * len(dims), above]
    terms += [data.draw(st.sampled_from(terms))]
    terms = data.draw(st.permutations(terms))
    got = expectations(state, terms)
    assert len(got) == len(terms)
    for value, powers in zip(got, terms):
        want = np.trace(rho @ normal_ordered_matrix(dims, powers))
        assert abs(value - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(case=ensembles(), inverse=st.booleans())
def test_ensemble_beamsplitter_matches_dense_oracle(case, inverse):
    state, rng = case
    mode_i, mode_j = rng.permutation(state.system.mode_count)[:2].tolist()
    out = apply_beamsplitter(state, mode_i, mode_j, inverse=inverse)
    padded = pad_cutoffs(state, out.system.cutoffs)
    u = bs_unitary_spectral(padded.system.dims, mode_i, mode_j,
                            inverse=inverse)
    np.testing.assert_allclose(out.rho, u @ padded.rho @ u.conj().T,
                               atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(case=ensembles(modes=(2, 2)),
       betas=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
       thetas=st.tuples(st.floats(0, 6.3), st.floats(0, 6.3)))
def test_numeric_routes_agree_on_mixed_states(case, betas, thetas):
    state, _ = case
    lo1, lo2 = (LocalOscillator(b, t) for b, t in zip(betas, thetas))
    unitary = modulation_depth_numeric(state, lo1, lo2, route="unitary")
    operator = modulation_depth_numeric(state, lo1, lo2,
                                        route="input_operator")
    assert abs(unitary - operator) < 1e-10


@settings(max_examples=25, deadline=None)
@given(case=ensembles(modes=(2, 2)),
       betas=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
       thetas=st.tuples(st.floats(0, 6.3), st.floats(0, 6.3)),
       route=st.sampled_from(["unitary", "input_operator"]))
def test_numeric_fringe_coefficients_on_mixed_states(case, betas, thetas,
                                                     route):
    # the four-anchor trig form against one pointwise route evaluation,
    # and its c1, c2 against the analytic moment formula: with the
    # numeric routes, three independent values of C1
    state, _ = case
    coeffs = numeric_fringe_coefficients(state, *betas, route)
    lo1, lo2 = (LocalOscillator(b, t) for b, t in zip(betas, thetas))
    pointwise = modulation_depth_numeric(state, lo1, lo2, route=route)
    assert abs(fringe_e(coeffs, *thetas) - pointwise) < 1e-12
    analytic = fringe_coefficients_at(compute_moments(state), *betas)
    assert abs(coeffs.c1 - analytic.c1) < 1e-10
    assert abs(coeffs.c2 - analytic.c2) < 1e-10


@st.composite
def sparse_stacks(draw):
    """A mixed stack with a drawn share of its amplitudes set to zero, so
    that whole sectors, and whole components within one, are empty."""
    cutoffs = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    mode_i, mode_j = draw(st.permutations(range(len(cutoffs))))[:2]
    system = ModeSystem(tuple(cutoffs))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 4)), system.dim)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps[rng.random(shape) < draw(st.floats(0.0, 0.95))] = 0.0
    assume(np.any(amps))
    state = QuantumState(system, amps=amps / np.linalg.norm(amps))
    return state, mode_i, mode_j


@settings(max_examples=60, deadline=None)
@given(case=sparse_stacks(),
       phases=st.lists(st.floats(-10.0, 10.0), max_size=5))
def test_planned_scan_matches_per_phase_path(case, phases):
    state, mode_i, mode_j = case
    assert_scan_matches_per_phase(state, phases, mode_i, mode_j)


@st.composite
def chsh_coefficients(draw):
    """Fringe coefficients with c1 + c2 <= 1, the degenerate cases
    c1 = c2, c1 = 0, c2 = 0 and c1 = c2 = 0 drawn as often as generic ones."""
    c1 = draw(st.floats(0.0, 1.0))
    c2 = draw(st.floats(0.0, 1.0 - c1))
    kind = draw(st.sampled_from(["generic", "equal", "c1 = 0", "c2 = 0",
                                 "both 0"]))
    if kind == "equal":
        c1 = c2 = min(c1, 0.5)
    if kind in ("c1 = 0", "both 0"):
        c1 = 0.0
    if kind in ("c2 = 0", "both 0"):
        c2 = 0.0
    phase = st.floats(-7.0, 7.0)
    return FringeCoefficients(c1, draw(phase), c2, draw(phase))


@settings(max_examples=200, deadline=None)
@given(coeffs=chsh_coefficients())
@example(coeffs=FringeCoefficients(0.3, 0.0, 0.3, 1e-300))  # -5e-301 % 2 pi
def test_closed_form_chsh_is_reached_at_its_angles(coeffs):
    result = maximize_chsh(coeffs)
    want = 2.0 * math.sqrt(2.0) * math.hypot(coeffs.c1, coeffs.c2)
    assert abs(result.b_value - want) < 1e-12
    assert abs(chsh_value(coeffs, result.angles) - result.b_value) < 1e-12
    assert all(0.0 <= t < 2.0 * math.pi for t in result.angles)
    assert result.angles[0] <= 0.5 * math.pi


@settings(max_examples=40, deadline=None)
@given(coeffs=chsh_coefficients())
def test_search_never_exceeds_closed_form(coeffs):
    assert search_chsh(coeffs).b_value <= maximize_chsh(coeffs).b_value + 1e-12


def _circular_gap(a, b):
    gap = abs(a - b) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap)


@settings(max_examples=200, deadline=None)
@given(c1=st.floats(1e-3, 0.6), c2=st.floats(1e-3, 0.4),
       phis=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
       signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 4))
def test_chsh_angles_do_not_jump(c1, c2, phis, signs):
    # the canonical set jumps only where (phi1 + phi2)/2 crosses a
    # multiple of pi/2, so generic coefficients stay clear of that
    sigma = 0.5 * (phis[0] + phis[1]) % (0.5 * math.pi)
    assume(1e-6 < sigma < 0.5 * math.pi - 1e-6)
    coeffs = FringeCoefficients(c1, phis[0], c2, phis[1])
    nudged = FringeCoefficients(*(value + 1e-15 * sign for value, sign in
                                  zip((c1, phis[0], c2, phis[1]), signs)))
    for a, b in zip(maximize_chsh(coeffs).angles,
                    maximize_chsh(nudged).angles):
        assert _circular_gap(a, b) < 1e-9


@st.composite
def catalog_specs(draw):
    unit = st.floats(0.0, 1.0)
    amplitude = st.floats(-1.5, 1.5)
    family = draw(st.sampled_from([
        "split_single_photon", "split_number", "split_coherent",
        "split_thermal", "incoherent_anticorrelated", "noisy_split_photon",
        "pure_explicit", "mixed_ensemble"]))
    if family == "split_number":
        params = {"n": draw(st.integers(0, 6))}
    elif family == "split_coherent":
        params = {"alpha_re": draw(amplitude), "alpha_im": draw(amplitude)}
    elif family == "split_thermal":
        params = {"nbar": draw(st.floats(0.01, 2.0))}
    elif family == "incoherent_anticorrelated":
        params = {"p": draw(unit)}
    elif family == "noisy_split_photon":
        params = {"w": draw(unit), "alpha_re": draw(amplitude),
                  "alpha_im": draw(amplitude)}
    elif family == "pure_explicit":
        # down to norms whose squares underflow
        scale = draw(st.sampled_from([1.0, 1e-6, 1e-160, 1e-300, 1e-310]))
        params = {"amplitudes": [[draw(amplitude) * scale,
                                  draw(amplitude) * scale]
                                 for _ in range(9)]}
        assume(any(re or im for re, im in params["amplitudes"]))
    elif family == "mixed_ensemble":
        w = draw(st.floats(0.05, 0.95))
        params = {"components": [
            {"weight": w, "family": "split_single_photon"},
            {"weight": 1.0 - w, "family": "split_thermal",
             "nbar": draw(st.floats(0.01, 1.0))}]}
    else:
        params = {}
    return StateSpec(family, params)


@settings(max_examples=40, deadline=None)
@given(spec=catalog_specs(),
       phases=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
def test_fringe_fill_matches_pointwise_path(spec, phases):
    state = build_state(spec)
    records = fringe_scan(state, phases)
    for phi, record in zip(phases, records):
        out = apply_beamsplitter(apply_phase(state, 0, phi), 0, 1)
        ic, id_, cc = (value.real for value in expectations(
            out, [[(1, 1), (0, 0)], [(0, 0), (1, 1)], [(1, 1), (1, 1)]]))
        scale = ic + id_
        assert record.phase == phi
        assert abs(record.intensity_c - ic) <= 1e-12 * scale
        assert abs(record.intensity_d - id_) <= 1e-12 * scale
        assert abs(record.coincidence - cc) <= 1e-12 * scale * scale


@settings(max_examples=80, deadline=None)
@given(spec=catalog_specs())
def test_bell_violation_implies_classical_violation(spec):
    try:
        verdict = local_realism_verdict(compute_moments(build_state(spec)))
    except DegenerateStateError:
        assume(False)
    if verdict.violates_bell:
        assert verdict.violates_classical
        assert maximize_chsh(verdict.coeffs).b_value > 2.0
