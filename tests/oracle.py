"""Brute-force oracles for the test suite.

Everything here is deliberately implemented by a different route than the
package: operators are explicit dense matrices assembled with kron, the
beamsplitter unitary comes from a spectral decomposition of its quadratic
generator, and expectations are literal <psi|M|psi> / Tr[rho M] products.
The CHSH maximum is found by grid search plus coordinate descent, and the
trig-form fringe coefficients are fitted from angle scans of the moment
formula. Slow and obvious by design.
"""

from __future__ import annotations

import cmath

import numpy as np

from mzbell import (ChshResult, LocalOscillator, ModeSystem, QuantumState,
                    apply_beamsplitter, apply_phase, chsh_value, expectations,
                    fock, fringe_scan, modulation_depth_analytic)


def annihilation_matrix(dims, mode) -> np.ndarray:
    """Dense annihilation operator for one mode of a multi-mode space."""
    ops = [np.eye(d, dtype=complex) for d in dims]
    d = dims[mode]
    ops[mode] = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
    full = ops[0]
    for op in ops[1:]:
        full = np.kron(full, op)
    return full


def normal_ordered_matrix(dims, powers) -> np.ndarray:
    """Dense matrix of prod_k (a_k^dag)^{p_k} (a_k)^{q_k}."""
    dim = int(np.prod(dims))
    out = np.eye(dim, dtype=complex)
    for mode, (p, q) in enumerate(powers):
        a = annihilation_matrix(dims, mode)
        out = out @ np.linalg.matrix_power(a.conj().T, p) \
                  @ np.linalg.matrix_power(a, q)
    return out


def strided_lower(stack: np.ndarray, powers) -> np.ndarray:
    """prod_k a_k^{p_k} on every row of a (rank, *dims) stack, as the package
    computed it before its flat-index shift: the shifted box of the tensor
    times one broadcast factor per lowered axis, in axis order, into a
    zero-filled output. The flat form must match it bit for bit."""
    if not any(powers):
        return stack
    out = np.zeros_like(stack)
    dims = stack.shape[1:]
    if any(p >= d for p, d in zip(powers, dims)):
        return out
    factors = []
    for axis, (p, d) in enumerate(zip(powers, dims), start=1):
        if p:
            n = np.arange(d - p, dtype=np.float64)
            f = np.ones(d - p)
            for step in range(p):
                f *= n + 1 + step
            shape = [1] * stack.ndim
            shape[axis] = d - p
            factors.append(np.sqrt(f).reshape(shape))
    src = (slice(None),) + tuple(slice(p, d) for p, d in zip(powers, dims))
    dst = (slice(None),) + tuple(slice(0, d - p) for p, d in zip(powers, dims))
    region = out[dst]
    np.multiply(stack[src], factors[0], out=region)
    for f in factors[1:]:
        region *= f
    return out


def brute_expect(state: QuantumState, powers) -> complex:
    """Expectation via the explicit operator matrix."""
    op = normal_ordered_matrix(state.system.dims, powers)
    if state.is_pure:
        return complex(state.vector.conj() @ op @ state.vector)
    return complex(np.trace(state.rho @ op))


def phase_matrix(dims, mode, phi) -> np.ndarray:
    """Dense phase shifter exp(i phi a^dag a) on one mode."""
    a = annihilation_matrix(dims, mode)
    return np.diag(np.exp(1j * phi * np.diag(a.conj().T @ a).real))


def bs_unitary_spectral(dims, mode_i, mode_j, inverse=False) -> np.ndarray:
    """50:50 beamsplitter unitary exp(i theta (a^dag b + a b^dag)) with
    theta = +-pi/4, via eigendecomposition of the (Hermitian) generator.

    On the truncated space this equals the package transform only on
    photon-number blocks that fit entirely below both cutoffs; comparisons
    must restrict to such inputs.
    """
    a = annihilation_matrix(dims, mode_i)
    b = annihilation_matrix(dims, mode_j)
    gen = a.conj().T @ b + a @ b.conj().T
    vals, vecs = np.linalg.eigh(gen)
    theta = -np.pi / 4 if inverse else np.pi / 4
    return (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T


def random_pure(rng, cutoffs) -> QuantumState:
    system = ModeSystem(tuple(cutoffs))
    vec = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
    return QuantumState(system, vector=vec / np.linalg.norm(vec))


def random_density(rng, cutoffs, rank=None) -> QuantumState:
    system = ModeSystem(tuple(cutoffs))
    rank = rank or system.dim
    g = rng.normal(size=(system.dim, rank)) \
        + 1j * rng.normal(size=(system.dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return QuantumState(system, rho=rho)


def random_state(rng, cutoffs) -> QuantumState:
    if rng.random() < 0.5:
        return random_pure(rng, cutoffs)
    return random_density(rng, cutoffs)


def search_chsh(coeffs, grid: int = 24, angle_tol: float = 1e-6) -> ChshResult:
    """Maximize B over the four analyzer angles by search.

    Coarse grid (first maximum in lexicographic angle order wins ties),
    then coordinate descent with a halving step down to ``angle_tol``. At a
    coarse grid the descent can stop at a stationary point below the
    maximum.
    """
    ang = 2.0 * np.pi * np.arange(grid) / grid
    e = (coeffs.c1 * np.cos(ang[:, None] - ang[None, :] + coeffs.phi1)
         + coeffs.c2 * np.cos(ang[:, None] + ang[None, :] + coeffs.phi2))
    b = (e[:, None, :, None] + e[:, None, None, :]
         + e[None, :, :, None] - e[None, :, None, :])
    idx = np.unravel_index(int(np.argmax(b)), b.shape)
    angles = [float(ang[i]) for i in idx]
    best = float(b[idx])
    step = 2.0 * np.pi / grid
    while step > angle_tol:
        moved = True
        while moved:
            moved = False
            for k in range(4):
                for delta in (step, -step):
                    trial = list(angles)
                    trial[k] = angles[k] + delta
                    value = chsh_value(coeffs, trial)
                    if value > best + 1e-15:
                        best, angles, moved = value, trial, True
        step *= 0.5
    return ChshResult(b_value=best,
                      angles=tuple(a % (2.0 * np.pi) for a in angles))


def validate_trig_form(moments, lo1, lo2, coeffs, samples: int = 16):
    """Fit the two-frequency fringe from angle scans of the moment formula
    and require agreement with the closed-form coefficients to 1e-9.

    The closed form (including the sign fold in phi2) is derived, not
    quoted, so the tests re-check it against this fit.
    """
    grid = 2.0 * np.pi * np.arange(samples) / samples
    # difference-frequency scan at fixed angle sum, then the reverse
    e_diff = np.array([modulation_depth_analytic(
        moments, LocalOscillator(lo1.beta, d / 2),
        LocalOscillator(lo2.beta, -d / 2)) for d in grid])
    e_sum = np.array([modulation_depth_analytic(
        moments, LocalOscillator(lo1.beta, s / 2),
        LocalOscillator(lo2.beta, s / 2)) for s in grid])
    z1 = 2.0 * np.mean(e_diff * np.exp(-1j * grid))
    z2 = 2.0 * np.mean(e_sum * np.exp(-1j * grid))
    err = max(abs(z1 - coeffs.c1 * cmath.exp(1j * coeffs.phi1)),
              abs(z2 - coeffs.c2 * cmath.exp(1j * coeffs.phi2)))
    if err > 1e-9:
        raise AssertionError(
            f"trig-form coefficients disagree with angle-scan fit by {err:.3e}")


def assert_scan_matches_per_phase(state: QuantumState, phases,
                                  mode_i: int = 0, mode_j: int = 1):
    """Require the planned phase scan to equal, bit for bit, the
    beamsplitter applied phase by phase, each planning (and padding) its
    own sectors, on the output stacks. On a two-mode state, require
    the fringe records filled by ``fringe_scan`` to match the pointwise
    ones to 1e-12 times the total intensity (its square for the
    coincidence)."""
    phases = [float(phi) for phi in phases]
    want = [apply_beamsplitter(apply_phase(state, mode_i, phi), mode_i,
                               mode_j) for phi in phases]
    got = list(fock.beamsplitter_after_phases(state, mode_i, mode_j, phases))
    assert len(got) == len(want)
    for out, ref in zip(got, want):
        assert np.array_equal(out.amps, ref.amps)
    if (state.system.mode_count, mode_i, mode_j) != (2, 0, 1):
        return
    records = [[phi, *(value.real for value in expectations(
        ref, [[(1, 1), (0, 0)], [(0, 0), (1, 1)], [(1, 1), (1, 1)]]))]
        for phi, ref in zip(phases, want)]
    scanned = np.reshape([[r.phase, r.intensity_c, r.intensity_d,
                           r.coincidence] for r in fringe_scan(state, phases)],
                         (-1, 4))
    records = np.reshape(records, (-1, 4))
    assert np.array_equal(scanned[:, 0], records[:, 0])
    total = np.max(records[:, 1] + records[:, 2], initial=0.0)
    tol = 1e-12 * np.array([total, total, total * total])
    assert np.all(np.abs(scanned[:, 1:] - records[:, 1:]) <= tol)
