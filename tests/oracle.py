"""Brute-force oracles for the test suite.

Everything here is deliberately implemented by a different route than the
package: operators are explicit dense matrices assembled with kron, the
beamsplitter unitary comes from a spectral decomposition of its quadratic
generator, and expectations are literal <psi|M|psi> / Tr[rho M] products.
Slow and obvious by design.
"""

from __future__ import annotations

import numpy as np

from mzbell import ModeSystem, QuantumState


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
