"""Property-based tests of the photon-number-sector beamsplitter."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mzbell import apply_beamsplitter, fock
from mzbell.fock import pad_for_beamsplitter

from oracle import random_density, random_pure


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
    padded = pad_for_beamsplitter(state, mode_i, mode_j)
    there = apply_beamsplitter(padded, mode_i, mode_j, inverse=inverse)
    back = apply_beamsplitter(there, mode_i, mode_j, inverse=not inverse)
    assert abs(there.leakage) < 1e-12 and abs(back.leakage) < 1e-12
    if padded.is_pure:
        np.testing.assert_allclose(back.vector, padded.vector, atol=1e-12)
    else:
        np.testing.assert_allclose(back.rho, padded.rho, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=states_and_pairs(), inverse=st.booleans())
def test_leakage_is_the_lost_probability(case, inverse):
    state, mode_i, mode_j = case
    out = apply_beamsplitter(state, mode_i, mode_j, inverse=inverse,
                             leak_tol=None)
    kept = (np.vdot(out.vector, out.vector).real if out.is_pure
            else np.trace(out.rho).real)
    assert out.leakage > -1e-12
    assert abs(out.leakage - (1.0 - kept)) < 1e-12
