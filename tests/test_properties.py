"""Property-based tests of the photon-number-sector beamsplitter and of
states stored as amplitude stacks, against the dense-matrix oracle, and of
the closed-form CHSH maximum, against the oracle's angle search."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from mzbell import (DegenerateStateError, FringeCoefficients, LocalOscillator,
                    ModeSystem, QuantumState, StateSpec, basis_state,
                    build_state, cli, coherent_state, compute_moments,
                    expectations, fock, fringe_coefficients_at,
                    fringe_moments, fringe_scan,
                    homodyne, local_realism_verdict, make_mixed,
                    maximize_chsh, numeric_fringe_coefficients, pad_cutoffs,
                    split_input)
from mzbell.catalog import resolve
from mzbell.homodyne import fringe_e

from oracle import (apply_beamsplitter, apply_phase,
                    assert_scan_matches_per_phase, assert_split_matches,
                    bs_unitary_spectral, chsh_value, count_moments,
                    dd_ss_after_beamsplitters, dd_ss_on_the_input_stack,
                    dense_support, density, expectations_dense_scan,
                    flat_lower, lowered_expectations, mix_dense,
                    modulation_depth_numeric, normal_ordered_matrix,
                    pad_dense, phase_matrix, photon_counts_after_phases,
                    purity, random_density, random_pure, search_chsh,
                    split_dense, strided_lower)


def test_blocks_are_unitary():
    # every block U_0..U_80 of one recursion
    for total, block in enumerate(fock._bs_blocks(80)):
        assert block.shape == (total + 1, total + 1)
        eye = np.eye(total + 1)
        assert np.abs(block @ block.conj().T - eye).max() < 1e-12
        assert np.abs(block.conj().T @ block - eye).max() < 1e-12
        # U_N is symmetric, so its conjugate, the oracle's inverse block,
        # is U_N^dag
        assert np.abs(block - block.T).max() < 1e-12


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
        np.testing.assert_allclose(density(back), density(padded), atol=1e-12)


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
        for got in (flat_lower(stack, p), flat_lower(stack, p, weights)):
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
    rho, dims = density(state), state.system.dims
    for _ in range(3):
        powers = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                  for _ in dims]
        want = np.trace(rho @ normal_ordered_matrix(dims, powers))
        assert abs(expectations(state, [powers])[0] - want) < 1e-12
    mode, phi = int(rng.integers(0, len(dims))), float(rng.uniform(0, 7))
    p = phase_matrix(dims, mode, phi)
    np.testing.assert_allclose(density(apply_phase(state, mode, phi)),
                               p @ rho @ p.conj().T, atol=1e-12)
    assert abs(purity(state) - np.trace(rho @ rho).real) < 1e-12


@settings(max_examples=60, deadline=None)
@given(case=ensembles(), data=st.data())
def test_batched_expectations_match_dense_oracle(case, data):
    state, _ = case
    rho, dims = density(state), state.system.dims
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


@st.composite
def mixed_signals(draw):
    """A random two-mode signal of rank 1-4, cutoffs 1-3 per mode."""
    system = ModeSystem(tuple(draw(st.lists(st.integers(1, 3), min_size=2,
                                            max_size=2))))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = (rng.normal(size=(rank, system.dim))
            + 1j * rng.normal(size=(rank, system.dim)))
    return QuantumState(system, amps=amps / np.linalg.norm(amps))


@settings(max_examples=40, deadline=None)
@given(state=mixed_signals(),
       betas=st.tuples(st.floats(0, 1.5), st.floats(0, 1.5)),
       angles=st.lists(st.tuples(st.floats(0, 6.3), st.floats(0, 6.3)),
                       min_size=5, max_size=5),
       route=st.sampled_from(["unitary", "input_operator"]))
def test_batched_routes_match_both_oracles(state, betas, angles, route):
    # one route call for five angle pairs, against each pair's oscillators
    # tensored into a stored four-mode stack: read by the input-side forms,
    # and transformed by both beamsplitters and read at the outputs
    dds, sss = homodyne._dd_ss(state, *betas, angles, route,
                               fock.DEFAULT_TAIL_EPS)
    assert dds.shape == sss.shape == (5,)
    for dd, ss, thetas in zip(dds, sss, angles):
        b1, b2 = (coherent_state(LocalOscillator(b, t).alpha)
                  for b, t in zip(betas, thetas))
        for want in (dd_ss_on_the_input_stack(state, b1, b2),
                     dd_ss_after_beamsplitters(state, b1, b2)):
            for got, value in zip((dd, ss), want):
                assert abs(got - value) <= 1e-13 * max(1.0, abs(value))


@st.composite
def oscillator_rows(draw):
    """A (P, d) batch of 1-5 random rows of length 1-5, some scaled by
    1e-160 or 1e-310, and one power pair (p, q), each up to two past the
    cutoff d - 1."""
    batch, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = (rng.normal(size=(batch, width))
            + 1j * rng.normal(size=(batch, width)))
    rows *= rng.choice([1.0, 1.0, 1e-160, 1e-310], size=(batch, 1))
    power = st.integers(0, width + 1)
    return rows, draw(power), draw(power)


@settings(max_examples=200, deadline=None)
@given(case=oscillator_rows())
@example(case=(np.array([[0.6 - 0.8j]]), 0, 1))     # one level, b past it
@example(case=(np.array([[0.6 - 0.8j]]), 1, 1))
def test_row_expectations_match_each_row_as_a_state(case):
    # the oscillator factor of the input-operator route: each row against
    # fock.expectations on that row as a pure single-mode state
    rows, p, q = case
    got = fock.row_expectations(rows, p, q)
    assert got.shape == (len(rows),)
    system = ModeSystem((rows.shape[1] - 1,))
    for value, row in zip(got, rows):
        want, = expectations(QuantumState(system, vector=row,
                                          validate=False), [[(p, q)]])
        # the same sum over |row|: a scale no cancellation can shrink
        size, = expectations(QuantumState(system, vector=np.abs(row),
                                          validate=False), [[(p, q)]])
        assert abs(value - want) <= 1e-13 * size.real + 1e-320


@st.composite
def sparse_stacks(draw):
    """A stack of 1-4 modes and rank 1-4 with a drawn share of exact zeros
    and of -0 parts, some single amplitudes scaled by 1e-310 (subnormal
    beside normal partners) and some rows by 1e-160 or 1e-310; terms with
    powers up to two past a cutoff, plus the all-zero term, one above a
    cutoff and a repeat; and the chunk length to read it in, small ones
    putting chunk boundaries inside the rows."""
    cutoffs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    system = ModeSystem(tuple(cutoffs))
    amps = (rng.normal(size=(rank, system.dim))
            + 1j * rng.normal(size=(rank, system.dim)))
    amps /= np.linalg.norm(amps)
    amps[rng.random(amps.shape) < draw(st.floats(0, 1))] = 0
    signed = amps.view(np.float64)
    signed[rng.random(signed.shape) < draw(st.floats(0, 0.5))] = -0.0
    amps[rng.random(amps.shape) < draw(st.floats(0, 0.5))] *= 1e-310
    amps *= rng.choice([1.0, 1.0, 1e-160, 1e-310], size=(rank, 1))
    state = QuantumState(system, amps=amps, validate=False)
    dims = system.dims
    term = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=len(dims), max_size=len(dims)).map(
        lambda powers: [(min(p, d + 1), min(q, d + 1))
                        for (p, q), d in zip(powers, dims)])
    terms = draw(st.lists(term, max_size=5))
    above = [(0, 0)] * len(dims)
    above[draw(st.integers(0, len(dims) - 1))] = (0, max(dims))
    terms += [[(0, 0)] * len(dims), above]
    terms += [draw(st.sampled_from(terms))]
    chunk = draw(st.sampled_from([1, 2, 5, 16, fock.CHUNK]))
    return state, draw(st.permutations(terms)), chunk


@settings(max_examples=200, deadline=None)
@given(case=sparse_stacks())
@example(case=(QuantumState(ModeSystem((1,)), amps=[[1e-310, 1.0]],
                            validate=False), [[(0, 1)], [(1, 0)]], fock.CHUNK))
def test_stored_support_matches_both_oracles(case):
    state, terms, chunk = case
    with mock.patch.object(fock, "CHUNK", chunk):
        got = expectations(state, terms)
    rho, dims = density(state), state.system.dims
    lowered = lowered_expectations(state, terms)
    # the same sums over |amps|: a scale no cancellation can shrink
    sizes = lowered_expectations(
        QuantumState(state.system, amps=np.abs(state.amps), validate=False),
        terms)
    for value, powers, want, size in zip(got, terms, lowered, sizes):
        dense = np.trace(rho @ normal_ordered_matrix(dims, powers))
        assert abs(value - dense) < 1e-12
        # relative to the scale, and a few thousand subnormal steps
        assert abs(value - want) <= 1e-13 * size.real + 1e-320


@settings(max_examples=60, deadline=None)
@given(case=ensembles(), inverse=st.booleans())
def test_ensemble_beamsplitter_matches_dense_oracle(case, inverse):
    state, rng = case
    mode_i, mode_j = rng.permutation(state.system.mode_count)[:2].tolist()
    out = apply_beamsplitter(state, mode_i, mode_j, inverse=inverse)
    padded = pad_cutoffs(state, out.system.cutoffs)
    u = bs_unitary_spectral(padded.system.dims, mode_i, mode_j,
                            inverse=inverse)
    np.testing.assert_allclose(density(out),
                               u @ density(padded) @ u.conj().T,
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
def single_mode_stacks(draw):
    """A single-mode stack of rank 1-4 and cutoff 0-30, not normalized: a
    drawn share of exact zeros, nothing above a drawn top sector, some rows
    real and non-negative (as number, thermal and real-alpha inputs are),
    all scaled by 1, 1e-160 or 1e-310."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 30)) + 1)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    real = rng.random(shape[0]) < draw(st.floats(0.0, 1.0))
    amps[real] = np.abs(amps[real].real)
    amps[rng.random(shape) < draw(st.floats(0.0, 0.9))] = 0.0
    amps[:, draw(st.integers(0, shape[1] - 1)) + 1:] = 0.0
    amps *= draw(st.sampled_from([1.0, 1e-160, 1e-310]))
    return QuantumState(ModeSystem((shape[1] - 1,)), amps=amps,
                        validate=False)


@settings(max_examples=200, deadline=None)
@given(state=single_mode_stacks())
def test_split_equals_the_beamsplitter_oracle(state):
    assert_split_matches(state, split_input(state))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 1447))
@example(n=1022)        # the last column taken without a scale
@example(n=1075)        # 2^-n underflows to 0 from here on
@example(n=1447)        # the largest split the size bound admits
def test_edge_column_within_an_ulp_of_the_exact_root(n):
    # every entry is +-sqrt(C(n, m) / 2^n) on the part i^(n - m) puts it
    # on, and +0 on the other; the magnitude is not 0 and lies within
    # 1 ulp of the root, compared in exact integers: with x = X / s and
    # ulp = u / s, (X - u)^2 2^n <= C(n, m) s^2 <= (X + u)^2 2^n
    column = fock._edge_column(n)
    j = n - np.arange(n + 1)
    parts = column.view(np.float64).reshape(-1, 2)
    signs = np.where(j % 4 < 2, 1.0, -1.0)
    assert np.array_equal(parts[np.arange(n + 1), 1 - j % 2].view(np.uint64),
                          np.zeros(n + 1, dtype=np.uint64))
    mags = signs * parts[np.arange(n + 1), j % 2]
    # C(n, m) downward from C(n, n) = 1, the other way from the package
    binom = 1
    for m in range(n, -1, -1):
        mag = float(mags[m])
        assert mag > 0
        num, den = mag.as_integer_ratio()
        scale = max(den, round(1 / math.ulp(mag)))
        x, u = num * (scale // den), round(scale * math.ulp(mag))
        assert (x - u) ** 2 << n <= binom * scale ** 2 <= (x + u) ** 2 << n
        # C(n, m - 1) = C(n, m) m / (n - m + 1), an exact quotient
        binom, rest = divmod(binom * m, n - m + 1)
        assert rest == 0


@st.composite
def stored_chains(draw):
    """A normalized single-mode stack of rank 1-4 and cutoff 0-12 with a
    drawn share of exact zeros and of -0 parts, some amplitudes 1e-310
    times a normal one (subnormal) and some rows but the first scaled by
    1e-160; the cutoffs to pad its split to, a weight to mix it with, and
    terms of two modes with powers up to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 13)))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps[rng.random(shape) < draw(st.floats(0, 0.9))] = 0
    signed = amps.view(np.float64)
    signed[rng.random(signed.shape) < draw(st.floats(0, 0.5))] = -0.0
    amps[rng.random(shape) < draw(st.floats(0, 0.5))] *= 1e-310
    amps[1:] *= rng.choice([1.0, 1e-160], size=(shape[0] - 1, 1))
    amps[0, draw(st.integers(0, shape[1] - 1))] = 0.6 - 0.8j
    amps /= np.linalg.norm(amps)
    pads = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    weight = draw(st.sampled_from([0.5, 1e-3, 0.999, 1e-300]))
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.lists(st.tuples(pair, pair).map(list), min_size=1,
                          max_size=4))
    return amps, pads, weight, terms


@settings(max_examples=200, deadline=None)
@given(case=stored_chains())
def test_stored_form_matches_the_dense_constructions(case):
    # each state of the chain built from amps=, split, padded and mixed
    # against the dense stack the package built for it before: (a) the
    # same support, (b) the same dense view bit for bit, with +0 where an
    # amplitude is wholly zero, (c) the same expectations within 1e-13 of
    # the sums over |amps|, from the dense scan
    amps, pads, weight, terms = case
    state = QuantumState(ModeSystem((amps.shape[1] - 1,)), amps=amps)
    split = split_input(state)
    old_split = split_dense(amps)
    cutoffs = tuple(c + pad for c, pad in zip(split.system.cutoffs, pads))
    padded = pad_cutoffs(split, cutoffs)
    old_padded = pad_dense(old_split, split.system.dims, padded.system.dims)
    vacuum = basis_state(padded.system, (0, 0))
    mixed = make_mixed([(0.0, padded), (weight, padded),
                        (1.0 - weight, vacuum)])
    old_mixed = mix_dense([(0.0, old_padded), (weight, old_padded),
                           (1.0 - weight, vacuum.amps)])
    for got, old, width in [(state, amps, 1), (split, old_split, 2),
                            (padded, old_padded, 2), (mixed, old_mixed, 2)]:
        assert np.array_equal(got.support, dense_support(old))
        want = old.copy()
        want[old == 0] = 0
        assert np.array_equal(got.amps.view(np.uint64), want.view(np.uint64))
        dims, here = got.system.dims, [term[:width] for term in terms]
        sizes = expectations_dense_scan(np.abs(old), dims, here)
        for value, ref, size in zip(expectations(got, here),
                                    expectations_dense_scan(old, dims, here),
                                    sizes):
            assert abs(value - ref) <= 1e-13 * size.real + 1e-320


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
# a 5e-324 weight: the fill and the pointwise path land one subnormal ulp
# apart (1e-323 against 5e-324), where the relative bound underflows to 0
@example(spec=StateSpec("noisy_split_photon",
                        {"w": 5e-324, "alpha_re": 0.0, "alpha_im": 0.0}),
         phases=[0.0, 3.0])
def test_fringe_fill_matches_pointwise_path(spec, phases):
    state = build_state(spec)
    records = fringe_scan(state, phases)
    for phi, record in zip(phases, records):
        out = apply_beamsplitter(apply_phase(state, 0, phi), 0, 1)
        ic, id_, cc = (value.real for value in expectations(
            out, [[(1, 1), (0, 0)], [(0, 0), (1, 1)], [(1, 1), (1, 1)]]))
        scale = ic + id_
        assert record.phase == phi
        # relative to the scale, and a few thousand subnormal steps
        assert abs(record.intensity_c - ic) <= 1e-12 * scale + 1e-320
        assert abs(record.intensity_d - id_) <= 1e-12 * scale + 1e-320
        assert abs(record.coincidence - cc) <= 1e-12 * scale * scale + 1e-320


@st.composite
def unequal_cutoff_states(draw):
    """A random pure or mixed two-mode state whose two cutoffs differ."""
    cutoffs = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2,
                            unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_density(rng, cutoffs, rank=draw(st.integers(2, 4)))
    return random_pure(rng, cutoffs)


@settings(max_examples=60, deadline=None)
@given(state=unequal_cutoff_states(),
       phases=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
def test_moment_route_matches_the_count_oracle(state, phases):
    # the oracle applies the phase and the padded beamsplitter at each
    # phase and reads the output photon counts; the drawn phases lie on
    # no grid, and 0 and pi/2 are added
    phases = phases + [0.0, math.pi / 2]
    records = fringe_scan(state, phases)
    counts = photon_counts_after_phases(state, 0, 1, phases)
    for phi, record, probs in zip(phases, records, counts):
        ic, id_, cc = count_moments(probs)
        total = ic + id_
        assert record.phase == phi
        assert abs(record.intensity_c - ic) <= 1e-12 * total
        assert abs(record.intensity_d - id_) <= 1e-12 * total
        assert abs(record.coincidence - cc) <= 1e-12 * total * total


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


def _scalar_slots(params):
    """(container, key) of each number in spec params, nested ones too."""
    items = params.items() if isinstance(params, dict) else enumerate(params)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _scalar_slots(value)
        elif not isinstance(value, str):
            yield params, key


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=catalog_specs(), data=st.data())
def test_a_bad_scalar_anywhere_exits_2(capsys, tmp_path, spec, data):
    # a list, object, boolean, NaN or infinity in place of any one number
    slots = list(_scalar_slots(spec.params))
    assume(slots)
    container, key = data.draw(st.sampled_from(slots))
    container[key] = data.draw(st.one_of(
        st.booleans(), st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
        st.sampled_from([math.nan, math.inf, -math.inf])))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": spec.family, "params": spec.params}))
    code = cli.main(["analyze", "--state", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ")


@st.composite
def split_inputs(draw):
    """A normalized single-mode input, pure or of rank 2-4, of cutoff 0-10:
    a drawn share of exact zeros, some amplitudes 1e-310 times a normal
    one (subnormal), some rows but the first scaled by 1e-160, and some
    rows real and non-negative (as number, thermal and real-alpha inputs
    are)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 11)))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    real = rng.random(shape[0]) < draw(st.floats(0.0, 1.0))
    amps[real] = np.abs(amps[real].real)
    amps[rng.random(shape) < draw(st.floats(0.0, 0.9))] = 0
    amps[rng.random(shape) < draw(st.floats(0.0, 0.5))] *= 1e-310
    amps[1:] *= rng.choice([1.0, 1e-160], size=(shape[0] - 1, 1))
    amps[0, draw(st.integers(0, shape[1] - 1))] = 0.6 - 0.8j
    amps /= np.linalg.norm(amps)
    return QuantumState(ModeSystem((shape[1] - 1,)), amps=amps)


#: The eight fringe terms, n1, m12, n2, anom, n1n2, pairs1, pairs2, cross.
FRINGE_TERMS = [[(1, 1), (0, 0)], [(1, 0), (0, 1)], [(0, 0), (1, 1)],
                [(0, 1), (0, 1)], [(1, 1), (1, 1)], [(2, 2), (0, 0)],
                [(0, 0), (2, 2)], [(2, 0), (0, 2)]]


def fringe_values(moments) -> list[complex]:
    m = moments.channel
    return [m.n1, m.m12, m.n2, m.anom, m.n1n2, moments.pairs1,
            moments.pairs2, moments.cross]


def assert_moments_close(got, want):
    """Each of the eight fringe moments within 1e-13 of the largest of its
    order in ``want`` (the four second-order ones, then the four
    fourth-order ones), and a few thousand subnormal steps, where a
    moment of subnormal rows is itself subnormal."""
    for lo, hi in ((0, 4), (4, 8)):
        scale = max(abs(w) for w in want[lo:hi])
        for g, w in zip(got[lo:hi], want[lo:hi]):
            assert abs(g - w) <= 1e-13 * scale + 1e-320, (got, want)


@settings(max_examples=200, deadline=None)
@given(state=split_inputs())
def test_input_moments_match_the_split_and_the_dense_oracle(state):
    # the reader never splits the input; its moments must equal those of
    # the split read as a two-mode state, and the dense oracle's traces
    got = fringe_values(fringe_moments([(1.0, state, True)]))
    assert got[0] == got[2] and got[1].real == 0.0
    assert_moments_close(got, fringe_values(fringe_moments(
        split_input(state))))
    d = state.dim
    rho = density(QuantumState(ModeSystem((d - 1, d - 1)),
                               amps=split_dense(state.amps), validate=False))
    assert_moments_close(got, [
        complex(np.trace(rho @ normal_ordered_matrix((d, d), powers)))
        for powers in FRINGE_TERMS])


@pytest.mark.parametrize("spec", [
    StateSpec("noisy_split_photon", {"w": 0.35, "alpha_re": 0.9,
                                     "alpha_im": -0.4}),
    StateSpec("mixed_ensemble", {"components": [
        {"weight": 0.2, "family": "split_single_photon"},
        {"weight": 0.3, "family": "split_number", "n": 3},
        {"weight": 0.1, "family": "split_coherent", "alpha_re": 1.1,
         "alpha_im": 0.5},
        {"weight": 0.25, "family": "split_thermal", "nbar": 0.6},
        {"weight": 0.15, "family": "noisy_split_photon", "w": 0.5,
         "alpha_re": -0.3, "alpha_im": 0.2}]}),
])
def test_mixtures_of_splits_read_as_their_built_state(spec):
    parts = resolve(spec)
    assert all(part.split for part in parts)
    got = fringe_moments(parts)
    assert got.channel == compute_moments(parts)
    assert_moments_close(fringe_values(got),
                         fringe_values(fringe_moments(build_state(spec))))
