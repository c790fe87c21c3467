"""Brute-force oracles for the test suite, and the state tools only it uses.

Everything here is deliberately implemented by a different route than the
package: operators are explicit dense matrices assembled with kron, the
beamsplitter unitary comes from a spectral decomposition of its quadratic
generator, and expectations are literal <psi|M|psi> / Tr[rho M] products.
The CHSH maximum is found by grid search plus coordinate descent, and the
trig-form fringe coefficients are fitted from angle scans of the moment
formula. Slow and obvious by design.

The whole-stack phase shifter and beamsplitter are the exceptions: they
are the transforms the package applied before its phase scan read photon
counts sector by sector and its unitary E route reduced each pair's
outputs to Gram matrices. They, and that sector-wise count scan, take
their blocks from the package's recursion (``fock._bs_blocks``), which
the spectral unitary checks, once per sector plan here, under a bound of
their own (``BLOCK_ENTRY_LIMIT``). The count scan is the independent
route for the package's fringe records, which it fills from eight
normal-ordered moments in closed form. Likewise the input-operator E route's
stored four-mode stack, which the package no longer forms: it factors each
correlator of the product input into a signal and two oscillator factors.
So are the dense constructions and the dense-scan expectations of the
stack the package stored before it kept only each state's nonzeros.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from mzbell import (ChshResult, DimensionLimitError, ModeSystem,
                    QuantumState, StateSpec, basis_state, expectations, fock,
                    fringe_scan, homodyne, modulation_depth_analytic,
                    pad_cutoffs)
from mzbell.homodyne import fringe_e


def density(state: QuantumState) -> np.ndarray:
    """The dense density operator sum_k |phi_k><phi_k| of a stack."""
    return state.amps.T @ state.amps.conj()


def from_density(system: ModeSystem, rho) -> QuantumState:
    """The state of rho's eigencomponents, heaviest first; weights up to
    1e-14 (numerical zeros and negatives) are dropped."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=np.complex128))
    keep = np.flatnonzero(vals > 1e-14)[::-1]
    return QuantumState(system, amps=(vecs[:, keep] * np.sqrt(vals[keep])).T)


def tensor(left: QuantumState, right: QuantumState) -> QuantumState:
    """Tensor product; left modes come first (slowest) in the new basis.
    Every pair of components multiplies, so the ranks multiply."""
    system = ModeSystem(left.system.cutoffs + right.system.cutoffs)
    rank = len(left.amps) * len(right.amps)
    fock._check_size(rank, system.dim)
    amps = left.amps[:, None, :, None] * right.amps[None, :, None, :]
    return QuantumState(system, amps=amps.reshape(rank, system.dim),
                        validate=False)


def vacuum_state(system: ModeSystem) -> QuantumState:
    return basis_state(system, (0,) * system.mode_count)


def purity(state: QuantumState) -> float:
    """Tr(rho^2): the squared Frobenius norm of the components' Gram matrix."""
    gram = state.amps.conj() @ state.amps.T
    return float(np.vdot(gram, gram).real)


def chsh_value(coeffs, angles: Sequence[float]) -> float:
    """B = E(t1,t2) + E(t1,t2') + E(t1',t2) - E(t1',t2')."""
    t1, t1p, t2, t2p = (float(a) for a in angles)
    return (fringe_e(coeffs, t1, t2) + fringe_e(coeffs, t1, t2p)
            + fringe_e(coeffs, t1p, t2) - fringe_e(coeffs, t1p, t2p))


def modulation_depth_numeric(state_a, lo1, lo2, route="unitary", *,
                             tail_eps=fock.DEFAULT_TAIL_EPS) -> float:
    """E = <D1 D2>/<S1 S2> by one numeric route (``homodyne._dd_ss``) at
    one angle pair: the pointwise route oracle."""
    dd, ss = homodyne._dd_ss(state_a, lo1.beta, lo2.beta,
                             [(lo1.theta, lo2.theta)], route, tail_eps)
    return float(dd[0] / ss[0])


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


def _axis_weights(dims: tuple[int, ...], axis: int, power: int) -> np.ndarray:
    """sqrt((n_axis+1)...(n_axis+power)) at each flat index n of a row, and
    0 where n_axis + power passes the cutoff."""
    n = np.arange(dims[axis] - power, dtype=np.float64)
    f = np.ones(len(n))
    for step in range(power):
        f *= n + 1 + step
    w = np.zeros(dims[axis])
    w[:len(n)] = np.sqrt(f)
    return np.tile(np.repeat(w, math.prod(dims[axis + 1:])),
                   math.prod(dims[:axis]))


def flat_lower(stack: np.ndarray, powers: Sequence[int],
               weights: dict | None = None) -> np.ndarray:
    """Apply prod_k a_k^{p_k} to every row of a (rank, *dims) stack:
    out[:, n] = prod_k sqrt((n_k+1)...(n_k+p_k)) * stack[:, n + p], zero
    where n + p lies above a cutoff. Writes one new array.

    On flat row indices this is one shift by sum_k p_k * stride_k, times
    the weights of each lowered axis in axis order (:func:`_axis_weights`,
    kept in ``weights`` by (axis, power) for calls on the same dims), whose
    zeros blank what the shift carries across a cutoff. So every multiply
    is one contiguous loop along the rows. The package lowered whole rows
    this way before it read the stored nonzeros only.
    """
    if not any(powers):
        return stack
    dims = stack.shape[1:]
    if any(p >= d for p, d in zip(powers, dims)):
        return np.zeros_like(stack)
    weights = {} if weights is None else weights
    factors = []
    for axis, p in enumerate(powers):
        if p:
            if (axis, p) not in weights:
                weights[axis, p] = _axis_weights(dims, axis, p)
            factors.append(weights[axis, p])
    rows = stack.reshape(len(stack), math.prod(dims))
    size = rows.shape[1] - int(np.ravel_multi_index(powers, dims))
    out = np.empty_like(rows)
    region = out[:, :size]
    np.multiply(rows[:, -size:], factors[0][:size], out=region)
    for f in factors[1:]:
        region *= f[:size]
    out[:, size:] = 0
    return out.reshape(stack.shape)


def lowered_expectations(state: QuantumState, terms) -> list[complex]:
    """``fock.expectations`` as the package computed it before it read the
    stored nonzeros only: per slice of the stack, each distinct creation or
    annihilation power tuple is lowered whole (:func:`flat_lower`) and
    shared by every term that uses it, and each term is one ``vdot``."""
    pairs = []
    for powers in terms:
        powers = [(int(p), int(q)) for p, q in powers]
        if len(powers) != state.system.mode_count:
            raise ValueError("powers list length does not match mode count")
        if any(p < 0 or q < 0 for p, q in powers):
            raise ValueError("operator powers must be non-negative")
        pairs.append(tuple(zip(*powers)))
    # Tr[rho A^dag B] = sum_k <A phi_k | B phi_k>, A = prod a^p, B = prod a^q,
    # over slices of about 2^15 amplitudes (512 KiB): temporaries much larger
    # than that get fresh pages from the OS on every call
    stack = state.tensorized()
    step = max(1, (1 << 15) // state.dim)
    # a lowering is dropped after the last term that uses it, so callers
    # that list the terms sharing one next to each other hold few at once
    last = {powers: i for i, pair in enumerate(pairs) for powers in pair}
    parts = [[] for _ in pairs]
    # the axis weights serve every slice: dim floats each, half the bytes
    # of one lowered row
    weights = {}
    for k in range(0, len(stack), step):
        lowered = {}
        for i, (part, pair) in enumerate(zip(parts, pairs)):
            for powers in pair:
                if powers not in lowered:
                    lowered[powers] = flat_lower(stack[k:k + step], powers,
                                                 weights)
            part.append(np.vdot(lowered[pair[0]], lowered[pair[1]]))
            lowered = {p: v for p, v in lowered.items() if last[p] > i}
    return [complex(np.sum(part)) for part in parts]


def dense_support(amps) -> np.ndarray:
    """The flat indices of a dense stack that the package scanned as stored
    before it kept only its nonzeros: either part != 0, so a subnormal
    counts and a -0 does not."""
    flat = np.ascontiguousarray(amps, dtype=np.complex128).reshape(-1)
    return np.flatnonzero((flat.view(np.float64) != 0).view(np.uint16) != 0)


def expectations_dense_scan(amps: np.ndarray, dims: tuple[int, ...],
                            terms) -> list[complex]:
    """``fock.expectations`` as the package computed it
    on the dense ``(rank, dim)`` stack of a state of ``dims``: read in
    chunks of ``fock.CHUNK`` stack positions, each scanned for its
    nonzeros, and each shifted partner taken from the stack itself."""
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    plans = []
    for powers in terms:
        powers = [(int(p), int(q)) for p, q in powers]
        plans.append(([(k + 1, fock._ladder_table(dims[k] - 1, p, q))
                       for k, (p, q) in enumerate(powers) if p or q],
                      sum((q - p) * s for (p, q), s in zip(powers, strides))))
    flat = np.ascontiguousarray(amps, dtype=np.complex128).reshape(-1)
    sums = [0j] * len(plans)
    for start in range(0, flat.size, fock.CHUNK):
        at = dense_support(flat[start:start + fock.CHUNK]) + start
        found = flat[at]
        digits = np.unravel_index(at, (len(amps),) + tuple(dims))
        for i, (tables, shift) in enumerate(plans):
            left = found.conj()
            for axis, table in tables:
                left *= table[digits[axis]]
            right = found if shift == 0 else flat.take(at + shift, mode="clip")
            sums[i] += np.dot(left, right)
    return [complex(value) for value in sums]


def split_dense(amps: np.ndarray) -> np.ndarray:
    """A single-mode ``(rank, d)`` stack split against vacuum into its
    ``(rank, d * d)`` stack, as the package would write it densely from
    its edge columns (``fock._edge_column``)."""
    rank, d = amps.shape
    comps, ns = np.nonzero(amps)
    top = int(ns.max(initial=0))
    edges = np.concatenate([fock._edge_column(n) for n in range(top + 1)])
    which = np.repeat(np.arange(ns.size), ns + 1)
    n = ns[which]
    m = np.arange(which.size) - np.repeat(np.cumsum(ns + 1) - ns - 1, ns + 1)
    out = np.zeros((rank, d * d), dtype=np.complex128)
    out[comps[which], m * d + n - m] = \
        amps[comps, ns][which] * edges[n * (n + 1) // 2 + m] + 0
    return out


def pad_dense(amps: np.ndarray, dims, padded_dims) -> np.ndarray:
    """A ``(rank, dim)`` stack embedded into larger dims, zero-filled."""
    out = np.zeros((len(amps),) + tuple(padded_dims), dtype=np.complex128)
    out[(slice(None),) + tuple(slice(0, d) for d in dims)] = \
        amps.reshape((len(amps),) + tuple(dims))
    return out.reshape(len(amps), -1)


def mix_dense(ensemble) -> np.ndarray:
    """The stacks of a ``(weight, stack)`` ensemble, each scaled by
    sqrt(weight), stacked; zero weights are dropped."""
    return np.concatenate([math.sqrt(w) * amps for w, amps in ensemble
                           if w != 0.0])


def brute_expect(state: QuantumState, powers) -> complex:
    """Expectation via the explicit operator matrix."""
    op = normal_ordered_matrix(state.system.dims, powers)
    if state.is_pure:
        return complex(state.vector.conj() @ op @ state.vector)
    return complex(np.trace(density(state) @ op))


def phase_matrix(dims, mode, phi) -> np.ndarray:
    """Dense phase shifter exp(i phi a^dag a) on one mode."""
    a = annihilation_matrix(dims, mode)
    return np.diag(np.exp(1j * phi * np.diag(a.conj().T @ a).real))


def apply_phase(state: QuantumState, mode: int, phi: float) -> QuantumState:
    """Phase shifter: occupation n on `mode` gains e^{i n phi}. Exactly
    unitary on the truncated space."""
    d = state.system.dims[mode]
    phases = np.exp(1j * float(phi) * np.arange(d))
    shape = [d if k == mode + 1 else 1
             for k in range(state.system.mode_count + 1)]
    t = state.tensorized() * phases.reshape(shape)
    return QuantumState(state.system, amps=t.reshape(len(state.amps), -1),
                        validate=False)


#: Most entries the blocks U_0..U_N of one plan may hold, sum of
#: (n + 1)^2 up to N: 16 times the largest state, 512 MiB, which admits
#: sectors up to N = 463.
BLOCK_ENTRY_LIMIT = 16 * fock.AMPLITUDE_LIMIT


def check_blocks(total: int) -> None:
    """Refuse a sector whose blocks U_0..U_total, sum of (n + 1)^2
    entries, would pass ``BLOCK_ENTRY_LIMIT``."""
    entries = (total + 1) * (total + 2) * (2 * total + 3) // 6
    if entries > BLOCK_ENTRY_LIMIT:
        raise DimensionLimitError(
            f"the beamsplitter blocks up to {total} photons would hold "
            f"{entries} entries, above the limit of {BLOCK_ENTRY_LIMIT}")


def plan_sectors(state: QuantumState, mode_i: int,
                 mode_j: int) -> tuple[QuantumState, list]:
    """The state, padded so every sector N = n_i + n_j of the beamsplitter
    on (mode_i, mode_j) that carries support fits under both cutoffs, and
    those sectors, largest first, each as (rows, cols, block): its basis
    indices as a column, the components nonzero on it, and U_N. The
    blocks come from one recursion up to the top occupied sector, and
    only those of occupied sectors are kept. The padded size, then the
    block bound, is refused before anything is allocated.
    """
    m = state.system.mode_count
    if mode_i == mode_j or not (0 <= mode_i < m and 0 <= mode_j < m):
        raise ValueError(f"invalid beamsplitter modes ({mode_i}, {mode_j})")
    rank, dims = state.rank, state.system.dims
    # which components are nonzero on each sector N = n_i + n_j, read off
    # the support; padding adds only zeros, so this serves the padded state
    digits = np.unravel_index(state.support, (rank,) + dims)
    sectors = np.zeros((dims[mode_i] + dims[mode_j] - 1, rank), dtype=bool)
    sectors[digits[1 + mode_i] + digits[1 + mode_j], digits[0]] = True
    occupied = np.flatnonzero(sectors.any(axis=1))[::-1].tolist()
    top = occupied[0] if occupied else 0
    cutoffs = list(state.system.cutoffs)
    for mode in (mode_i, mode_j):
        cutoffs[mode] = max(cutoffs[mode], top)
    fock._check_size(rank, ModeSystem(cutoffs).dim)
    check_blocks(top)
    state = pad_cutoffs(state, cutoffs)
    # each occupied sector now fits whole: its rows are the pairs (k, N - k),
    # k = 0..N, each with the other modes in C order
    grid = np.moveaxis(np.arange(state.system.dim).reshape(state.system.dims),
                       (mode_i, mode_j), (0, 1))
    blocks = {total: block for total, block
              in enumerate(fock._bs_blocks(top)) if sectors[total].any()}
    plan = []
    for total in occupied:
        k = np.arange(total + 1)
        plan.append((grid[k, total - k].reshape(-1, 1),
                     np.flatnonzero(sectors[total]), blocks[total]))
    return state, plan


def photon_counts_after_phases(state: QuantumState, mode_i: int, mode_j: int,
                               phases) -> np.ndarray:
    """The photon counts P(n), summed over the stack, after mode_i gains
    e^{i n_i phi} and the beamsplitter acts on (mode_i, mode_j), for each
    phi, as a ``(len(phases), *dims)`` grid over the padded basis.

    One plan (:func:`plan_sectors`) serves every phase, as a phase shift
    keeps the support. Each occupied sector's nonzero components are
    gathered once; per phase, row k is multiplied by e^{i k phi}, U_N is
    applied, and the squared real and imaginary parts are each summed over
    the components in stack order: no phased or output stack is formed.
    """
    state, plan = plan_sectors(state, mode_i, mode_j)
    d = state.system.dims[mode_i]
    factors = np.array([np.exp(1j * float(phi) * np.arange(d))
                        for phi in phases]).reshape(-1, d, 1)
    dim = state.dim
    counts = np.zeros((len(factors), dim))
    # every sector's (rows, components) amplitudes in one search
    wanted = [(cols * dim + rows).reshape(-1) for rows, cols, _ in plan]
    gathered = np.split(fock._stored_at(state, np.concatenate(wanted)),
                        np.cumsum([len(w) for w in wanted[:-1]]))
    for (rows, cols, block), sub in zip(plan, gathered):
        n = len(block)
        out = block @ (sub.reshape(n, -1) * factors[:, :n])
        parts = out.view(np.float64).reshape(len(factors), rows.size,
                                             cols.size, 2)
        # components outermost, so each sum runs over them in stack order
        squares = np.square(parts.transpose(2, 0, 1, 3), order="C")
        sums = np.add.reduce(squares, axis=0)
        counts[:, rows[:, 0]] = sums[..., 0] + sums[..., 1]
    return counts.reshape((len(factors),) + state.system.dims)


def count_moments(probs: np.ndarray) -> np.ndarray:
    """<n_c>, <n_d> and <n_c n_d>, the first and mixed moments of a
    two-mode photon-count distribution P(n_c, n_d)."""
    n_c, n_d = (np.arange(d, dtype=np.float64) for d in probs.shape)
    return np.array([probs.sum(axis=1) @ n_c, probs.sum(axis=0) @ n_d,
                     n_c @ probs @ n_d])


def apply_beamsplitter(state: QuantumState, mode_i: int, mode_j: int, *,
                       inverse: bool = False) -> QuantumState:
    """50:50 beamsplitter on two modes: mode_i -> (mode_i + i mode_j)/sqrt(2),
    mode_j -> (i mode_i + mode_j)/sqrt(2) (inverse flips the sign of i),
    as a whole output stack from the package's sector plan.

    Each occupied sector N = n_i + n_j of every component goes through its
    block U_N (its conjugate, the inverse block, if ``inverse``). The plan
    first grows both cutoffs of the pair to the largest occupied N (the
    output's system shows them), so every block acts whole and the
    transform is exactly unitary; it refuses a padded state past
    ``fock.AMPLITUDE_LIMIT`` or a sector past ``BLOCK_ENTRY_LIMIT`` before
    allocating either.
    """
    state, plan = plan_sectors(state, mode_i, mode_j)
    amps = np.zeros_like(state.amps)
    mat, out = state.amps.T, amps.T
    for rows, cols, block in plan:
        if inverse:
            block = block.conj()
        sub = mat[rows, cols].reshape(len(block), -1)
        out[rows, cols] = (block @ sub).reshape(rows.size, -1)
    return QuantumState(state.system, amps=amps, validate=False)


def dd_ss_after_beamsplitters(state_a: QuantumState, b1: QuantumState,
                              b2: QuantumState) -> tuple[float, float]:
    """<D1 D2>, <S1 S2> of the homodyne test on the four-mode stack: the
    signal tensored with both oscillators, modes (a1, a2, b1, b2),
    transformed by :func:`apply_beamsplitter` on (0, 2) and (1, 3), and the
    four output number pairs read by ``expectations``."""
    four = apply_beamsplitter(apply_beamsplitter(
        tensor(tensor(state_a, b1), b2), 0, 2), 1, 3)
    num, none = (1, 1), (0, 0)
    n01, n03, n21, n23 = (value.real for value in expectations(four, [
        [num, num, none, none], [num, none, none, num],
        [none, num, num, none], [none, none, num, num]]))
    return n01 - n03 - n21 + n23, n01 + n03 + n21 + n23


def dd_ss_on_the_input_stack(state_a: QuantumState, b1: QuantumState,
                             b2: QuantumState) -> tuple[float, float]:
    """<D1 D2>, <S1 S2> from the input-side operator forms
    D_k = i(a_k^dag b_k - a_k b_k^dag) and S_k = a_k^dag a_k + b_k^dag b_k,
    as the package evaluated them before it factored each correlator over
    the product input: the signal's components tensored with both
    oscillators into a stored four-mode stack (in slices of components
    under ``fock.AMPLITUDE_LIMIT``), and the eight correlators read from
    it by ``expectations``."""
    up, down, num, none = (1, 0), (0, 1), (1, 1), (0, 0)
    terms = [[num, num, none, none], [up, up, down, down],
             [down, down, up, up], [none, none, num, num],
             [num, none, none, num], [up, down, down, up],
             [down, up, up, down], [none, num, num, none]]
    step = max(1, fock.AMPLITUDE_LIMIT // (state_a.dim * b1.dim * b2.dim))
    dd = ss = 0.0
    for start in range(0, len(state_a.amps), step):
        part = QuantumState(state_a.system,
                            amps=state_a.amps[start:start + step],
                            validate=False)
        s1, d1, d4, s4, s2, d2, d3, s3 = expectations(
            tensor(tensor(part, b1), b2), terms)
        dd -= (d1 - d2 - d3 + d4).real
        ss += (s1 + s2 + s3 + s4).real
    return dd, ss


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
    return from_density(system, rho)


def random_state(rng, cutoffs) -> QuantumState:
    if rng.random() < 0.5:
        return random_pure(rng, cutoffs)
    return random_density(rng, cutoffs)


def state_to_spec(state: QuantumState) -> StateSpec:
    """Snapshot any state as a reproducible StateSpec.

    Pure states become ``pure_explicit``; mixed states become a
    ``mixed_ensemble`` of their stored components, each normalized and
    weighted by its squared norm. ``build_state`` on the result rebuilds
    the same components up to rounding.
    """
    def amplitude_pairs(vec):
        return [[float(a.real), float(a.imag)] for a in vec]

    cutoffs = list(state.system.cutoffs)
    if state.is_pure:
        return StateSpec("pure_explicit",
                         {"amplitudes": amplitude_pairs(state.vector),
                          "cutoffs": cutoffs})
    amps = state.amps
    weights = [float(np.vdot(row, row).real) for row in amps]
    components = [
        {"weight": w, "family": "pure_explicit",
         "amplitudes": amplitude_pairs(row / math.sqrt(w)), "cutoffs": cutoffs}
        for w, row in zip(weights, amps)]
    return StateSpec("mixed_ensemble", {"components": components})


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
    e_diff = modulation_depth_analytic(moments, lo1.beta, lo2.beta,
                                       grid / 2, -grid / 2)
    e_sum = modulation_depth_analytic(moments, lo1.beta, lo2.beta,
                                      grid / 2, grid / 2)
    z1 = 2.0 * np.mean(e_diff * np.exp(-1j * grid))
    z2 = 2.0 * np.mean(e_sum * np.exp(-1j * grid))
    err = max(abs(z1 - coeffs.c1 * cmath.exp(1j * coeffs.phi1)),
              abs(z2 - coeffs.c2 * cmath.exp(1j * coeffs.phi2)))
    if err > 1e-9:
        raise AssertionError(
            f"trig-form coefficients disagree with angle-scan fit by {err:.3e}")


def split_via_beamsplitter(state: QuantumState) -> QuantumState:
    """A single-mode state split on the 50:50 beamsplitter as the package
    split it before writing the edge columns directly: tensored with a
    vacuum mode of equal cutoff, then planned and applied sector by
    sector."""
    vacuum = vacuum_state(ModeSystem(state.system.cutoffs))
    return apply_beamsplitter(tensor(state, vacuum), 0, 1)


def count_grid(state: QuantumState) -> np.ndarray:
    """P(n) = sum over the stack of |amps|^2, shaped to the state's dims:
    the squared real parts summed over the components in stack order, plus
    the squared imaginary parts summed the same way."""
    flat = state.amps.view(np.float64)
    probs = (flat * flat).sum(axis=0).reshape(-1, 2).sum(axis=1)
    return probs.reshape(state.system.dims)


def assert_scan_matches_per_phase(state: QuantumState, phases,
                                  mode_i: int = 0, mode_j: int = 1):
    """Require the planned photon-count scan to equal, bit for bit, the
    count grids of the beamsplitter applied phase by phase, each planning
    (and padding) its own sectors. On a two-mode state, require the
    fringe records filled by ``fringe_scan`` to match the pointwise ones
    to 1e-12 times the total intensity (its square for the
    coincidence)."""
    phases = [float(phi) for phi in phases]
    want = [apply_beamsplitter(apply_phase(state, mode_i, phi), mode_i,
                               mode_j) for phi in phases]
    got = photon_counts_after_phases(state, mode_i, mode_j, phases)
    assert len(got) == len(want)
    for counts, ref in zip(got, want):
        assert np.array_equal(counts, count_grid(ref))
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


def assert_split_matches(state: QuantumState, got: QuantumState):
    """Require the package's closed-form split ``got`` of a single-mode
    state to match :func:`split_via_beamsplitter`: each part within 2^-50
    (2 ulp of 1) of the size of the input amplitude it comes from, plus a
    subnormal ulp for each of the two products' roundings, and every zero
    part where the oracle has one, compared as integers so that the sign
    of every zero counts (+0 where the product gives -0)."""
    want = split_via_beamsplitter(state)
    assert got.system == want.system
    # |m, k> comes from input level n = m + k (none past the cutoff)
    d = state.dim
    n = np.add.outer(np.arange(d), np.arange(d)).reshape(-1)
    size = np.where(n < d, np.abs(state.amps)[:, np.minimum(n, d - 1)], 0.0)
    tol = (2.0 ** -50 * size[..., None]
           + 2 * np.finfo(np.float64).smallest_subnormal)
    ours, theirs = (split.amps.view(np.float64).reshape(state.rank, -1, 2)
                    for split in (got, want))
    assert np.all(np.abs(ours - theirs) <= tol)
    zeros = (ours == 0) | (theirs == 0)
    assert np.array_equal(ours[zeros].view(np.uint64),
                          theirs[zeros].view(np.uint64))
