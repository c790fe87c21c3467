"""Truncated Fock-space states for few-mode bosonic fields.

States live on a fixed occupation-number basis: tuples (n_0, ..., n_{M-1})
with 0 <= n_k <= cutoff_k, ordered lexicographically with mode 0 slowest.
That ordering is exactly numpy's C order for an array of shape
(cutoff_0 + 1, ..., cutoff_{M-1} + 1), so a flat amplitude vector reshaped
to those dims has axis k acting as mode k. All file formats and every
module in the package rely on this ordering.

Pure states are dense complex amplitude vectors; mixed states are dense
complex density operators. Transforms return new states and never mutate
or implicitly renormalize their inputs: a norm deficit after a transform
is a bug (or measured truncation leakage), not something to hide.

The 50:50 beamsplitter is kept as one cutoff-independent SU(2) block per
total photon number of its mode pair (Campos, Saleh & Teich, PRA 40,
1371 (1989)), built on first use and cached for the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionLimitError, TruncationLeakageError

DEFAULT_TAIL_EPS = 1e-12
#: Dense density operators above this basis size are refused by default.
DEFAULT_DIM_LIMIT = 4096
#: Amplitude vectors are far cheaper; allow much larger products.
DEFAULT_PURE_DIM_LIMIT = 1 << 21
DEFAULT_LEAK_TOL = 1e-9
NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class ModeSystem:
    """A list of per-mode occupation cutoffs (inclusive)."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.cutoffs)
        object.__setattr__(self, "cutoffs", cutoffs)
        if len(cutoffs) < 1:
            raise ValueError("a ModeSystem needs at least one mode")
        if any(c < 0 for c in cutoffs):
            raise ValueError(f"cutoffs must be non-negative, got {cutoffs}")

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


class QuantumState:
    """Immutable pure or mixed state over a :class:`ModeSystem` basis.

    Attributes
    ----------
    system : ModeSystem
    renormalized : bool
        True when construction had to rescale by more than ``NORM_TOL``.
    leakage : float
        Probability lost to truncation by the transform that produced this
        state (0.0 for freshly constructed states).
    """

    __slots__ = ("system", "_vector", "_rho", "renormalized", "leakage",
                 "_eigen_cache")

    def __init__(self, system: ModeSystem, *, vector=None, rho=None,
                 renormalized: bool = False, leakage: float = 0.0,
                 validate: bool = True):
        if (vector is None) == (rho is None):
            raise ValueError("exactly one of vector/rho must be given")
        self.system = system
        self.renormalized = bool(renormalized)
        self.leakage = float(leakage)
        self._eigen_cache = None
        if vector is not None:
            vector = np.ascontiguousarray(vector, dtype=np.complex128)
            if vector.shape != (system.dim,):
                raise ValueError(
                    f"amplitude vector has length {vector.shape}, "
                    f"system dimension is {system.dim}")
            vector.setflags(write=False)
            self._vector = vector
            self._rho = None
            if validate:
                self._validate_pure()
        else:
            rho = np.ascontiguousarray(rho, dtype=np.complex128)
            if rho.shape != (system.dim, system.dim):
                raise ValueError(
                    f"density operator has shape {rho.shape}, "
                    f"expected {(system.dim, system.dim)}")
            rho.setflags(write=False)
            self._vector = None
            self._rho = rho
            if validate:
                self._validate_density()

    def _validate_pure(self):
        if not np.all(np.isfinite(self._vector.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm2 = float(np.vdot(self._vector, self._vector).real)
        if abs(norm2 - 1.0) > 2 * NORM_TOL + self.leakage:
            raise ValueError(f"pure state norm^2 = {norm2!r}, expected 1")

    def _validate_density(self):
        rho = self._rho
        if not np.all(np.isfinite(rho.view(np.float64))):
            raise ValueError("density entries must be finite")
        herm = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density operator not Hermitian ({herm:.3e})")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > NORM_TOL + self.leakage:
            raise ValueError(f"density operator trace = {tr!r}, expected 1")

    @property
    def is_pure(self) -> bool:
        return self._vector is not None

    @property
    def vector(self) -> np.ndarray:
        if self._vector is None:
            raise ValueError("state is a density operator, not a pure vector")
        return self._vector

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            raise ValueError("state is pure; use to_density() for an operator")
        return self._rho

    @property
    def dim(self) -> int:
        return self.system.dim

    def tensorized(self) -> np.ndarray:
        """Amplitudes reshaped so axis k is mode k (2M axes for densities:
        row modes first, then column modes)."""
        dims = self.system.dims
        if self.is_pure:
            return self._vector.reshape(dims)
        return self._rho.reshape(dims + dims)

    def to_density(self) -> "QuantumState":
        if not self.is_pure:
            return self
        rho = np.outer(self._vector, self._vector.conj())
        return QuantumState(self.system, rho=rho, leakage=self.leakage,
                            validate=False)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the density operator (1.0-norm states
        should satisfy >= -1e-10). O(dim^3); meant for validation."""
        if self.is_pure:
            return 0.0
        return float(np.linalg.eigvalsh(self._rho)[0])

    def __repr__(self):
        kind = "pure" if self.is_pure else "mixed"
        return (f"QuantumState({kind}, cutoffs={self.system.cutoffs}, "
                f"dim={self.dim})")


def basis_state(system: ModeSystem, occupation: Sequence[int]) -> QuantumState:
    """The occupation-number basis vector |n_0, ..., n_{M-1}>."""
    occupation = tuple(int(n) for n in occupation)
    if len(occupation) != system.mode_count:
        raise ValueError("occupation length does not match mode count")
    if any(n < 0 or n > c for n, c in zip(occupation, system.cutoffs)):
        raise ValueError(f"occupation {occupation} outside cutoffs "
                         f"{system.cutoffs}")
    vec = np.zeros(system.dim, dtype=np.complex128)
    vec[int(np.ravel_multi_index(occupation, system.dims))] = 1.0
    return QuantumState(system, vector=vec)


def vacuum_state(system: ModeSystem) -> QuantumState:
    return basis_state(system, (0,) * system.mode_count)


def make_pure(system: ModeSystem, amplitudes: Iterable[complex]) -> QuantumState:
    """Normalize an amplitude list into a pure state.

    The returned state's ``renormalized`` flag records whether the input
    norm was off by more than ``NORM_TOL``.
    """
    vec = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray)
                     else amplitudes, dtype=np.complex128)
    if vec.shape != (system.dim,):
        raise ValueError(f"expected {system.dim} amplitudes, got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return QuantumState(system, vector=vec / norm,
                        renormalized=abs(norm - 1.0) > NORM_TOL)


def make_mixed(ensemble: Sequence[tuple[float, QuantumState]]) -> QuantumState:
    """Convex mixture of states sharing one ModeSystem.

    Pure members contribute |psi><psi|; mixed members their operators.
    Weights must be non-negative and sum to 1 within ``NORM_TOL``.
    """
    if not ensemble:
        raise ValueError("ensemble is empty")
    weights = [float(w) for w, _ in ensemble]
    if any(w < 0 for w in weights):
        raise ValueError(f"negative ensemble weight: {min(weights)}")
    total = sum(weights)
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"ensemble weights sum to {total!r}, expected 1")
    system = ensemble[0][1].system
    for _, state in ensemble:
        if state.system != system:
            raise ValueError("ensemble members live on different ModeSystems")
    rho = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for w, state in ensemble:
        if w == 0.0:
            continue
        if state.is_pure:
            rho += w * np.outer(state.vector, state.vector.conj())
        else:
            rho += w * state.rho
    return QuantumState(system, rho=rho)


def tensor(left: QuantumState, right: QuantumState, *,
           dim_limit: int | None = None) -> QuantumState:
    """Tensor product; left modes come first (slowest) in the new basis."""
    system = ModeSystem(left.system.cutoffs + right.system.cutoffs)
    both_pure = left.is_pure and right.is_pure
    limit = dim_limit if dim_limit is not None else (
        DEFAULT_PURE_DIM_LIMIT if both_pure else DEFAULT_DIM_LIMIT)
    if system.dim > limit:
        raise DimensionLimitError(
            f"tensor product dimension {system.dim} exceeds limit {limit}")
    if both_pure:
        return QuantumState(system,
                            vector=np.kron(left.vector, right.vector),
                            validate=False)
    lrho = left.to_density().rho
    rrho = right.to_density().rho
    return QuantumState(system, rho=np.kron(lrho, rrho), validate=False)


def coherent_state(alpha: complex, tail_eps: float = DEFAULT_TAIL_EPS, *,
                   max_cutoff: int = 512) -> QuantumState:
    """Single-mode coherent state, truncated by the Poisson tail rule.

    The cutoff is the smallest N with neglected probability below
    ``tail_eps``; the chosen N is visible as the state's cutoff. The
    retained amplitudes are renormalized.
    """
    if not 0.0 < tail_eps < 1.0:
        raise ValueError("tail_eps must lie in (0, 1)")
    alpha = complex(alpha)
    lam = abs(alpha) ** 2
    # Smallest N whose Poisson survival P(n > N) is certified below
    # tail_eps via the geometric bound P(n > N) <= p_{N+1}/(1 - lam/(N+2)).
    # Working in log space keeps tails far below float cancellation
    # (1 - cumsum saturates near 1e-16) meaningful.
    cutoff = 0
    if lam > 0.0:
        log_lam = math.log(lam)
        while True:
            ratio = lam / (cutoff + 2)
            if ratio < 1.0:
                log_p_next = -lam + (cutoff + 1) * log_lam \
                    - math.lgamma(cutoff + 2)
                if log_p_next <= math.log(tail_eps) + math.log1p(-ratio):
                    break
            cutoff += 1
            if cutoff > max_cutoff:
                raise DimensionLimitError(
                    f"coherent amplitude |alpha|={abs(alpha):.3g} needs a "
                    f"cutoff beyond {max_cutoff} for tail {tail_eps:g}")
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    mags = np.exp(-lam / 2 + n * np.log(abs(alpha)) - log_fact / 2) \
        if alpha != 0 else (n == 0).astype(float)
    phases = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else 1.0
    amps = mags * phases
    amps /= np.linalg.norm(amps)
    return QuantumState(ModeSystem((cutoff,)), vector=amps, validate=False)


def number_state(n: int, cutoff: int) -> QuantumState:
    if not 0 <= n <= cutoff:
        raise ValueError(f"need 0 <= n <= cutoff, got n={n}, cutoff={cutoff}")
    return basis_state(ModeSystem((cutoff,)), (n,))


def thermal_state(nbar: float, tail_eps: float = DEFAULT_TAIL_EPS, *,
                  max_cutoff: int = 4095) -> QuantumState:
    """Single-mode thermal state p_n = nbar^n / (1 + nbar)^(n+1), truncated
    when the geometric tail drops below ``tail_eps`` and renormalized."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if not 0.0 < tail_eps < 1.0:
        raise ValueError("tail_eps must lie in (0, 1)")
    if nbar == 0.0:
        return basis_state(ModeSystem((0,)), (0,)).to_density()
    q = nbar / (1.0 + nbar)
    # tail after cutoff N is q^(N+1)
    cutoff = max(0, math.ceil(math.log(tail_eps) / math.log(q)) - 1)
    while q ** (cutoff + 1) >= tail_eps:
        cutoff += 1
    if cutoff > max_cutoff:
        raise DimensionLimitError(
            f"thermal nbar={nbar:.3g} needs a cutoff beyond {max_cutoff} "
            f"for tail {tail_eps:g}")
    probs = (1 - q) * q ** np.arange(cutoff + 1)
    probs /= probs.sum()
    return QuantumState(ModeSystem((cutoff,)), rho=np.diag(probs.astype(complex)),
                        validate=False)


def pad_cutoffs(state: QuantumState, cutoffs: Sequence[int]) -> QuantumState:
    """Embed a state into a system with (elementwise) larger cutoffs."""
    cutoffs = tuple(int(c) for c in cutoffs)
    old = state.system.cutoffs
    if len(cutoffs) != len(old):
        raise ValueError("cutoff list length does not match mode count")
    if any(new < o for new, o in zip(cutoffs, old)):
        raise ValueError(f"cannot shrink cutoffs {old} -> {cutoffs}")
    if cutoffs == old:
        return state
    system = ModeSystem(cutoffs)
    old_dims = state.system.dims
    if state.is_pure:
        out = np.zeros(system.dims, dtype=np.complex128)
        out[tuple(slice(0, d) for d in old_dims)] = state.tensorized()
        return QuantumState(system, vector=out.reshape(-1),
                            leakage=state.leakage, validate=False)
    out = np.zeros(system.dims + system.dims, dtype=np.complex128)
    out[tuple(slice(0, d) for d in old_dims * 2)] = state.tensorized()
    return QuantumState(system, rho=out.reshape(system.dim, system.dim),
                        leakage=state.leakage, validate=False)


def _lower(arr: np.ndarray, axis: int, power: int) -> np.ndarray:
    """Apply the annihilation operator `power` times along one axis:
    out[n] = sqrt((n+1)...(n+power)) * arr[n+power]."""
    if power == 0:
        return arr
    d = arr.shape[axis]
    out = np.zeros_like(arr)
    if power >= d:
        return out
    n = np.arange(d - power, dtype=np.float64)
    f = np.ones(d - power)
    for step in range(power):
        f *= n + 1 + step
    f = np.sqrt(f)
    shape = [1] * arr.ndim
    shape[axis] = d - power
    src = [slice(None)] * arr.ndim
    src[axis] = slice(power, d)
    dst = [slice(None)] * arr.ndim
    dst[axis] = slice(0, d - power)
    out[tuple(dst)] = arr[tuple(src)] * f.reshape(shape)
    return out


def expect_normal_ordered(state: QuantumState,
                          powers: Sequence[tuple[int, int]]) -> complex:
    """Expectation of prod_k (a_k^dag)^{p_k} (a_k)^{q_k}.

    ``powers`` lists one (creation, annihilation) pair per mode. Computed
    by ladder-index arithmetic, so the result is exact up to state
    truncation: no operator matrices are built and no sampling occurs.
    """
    powers = [(int(p), int(q)) for p, q in powers]
    if len(powers) != state.system.mode_count:
        raise ValueError("powers list length does not match mode count")
    if any(p < 0 or q < 0 for p, q in powers):
        raise ValueError("operator powers must be non-negative")
    if state.is_pure:
        # <psi| A^dag B |psi> = <A psi | B psi> with A = prod a^p, B = prod a^q
        left = right = state.tensorized()
        for axis, (p, q) in enumerate(powers):
            left = _lower(left, axis, p)
            right = _lower(right, axis, q)
        return complex(np.vdot(left, right))
    # The operator sends column |n> to the single row |n - q + p> with a
    # product of sqrt factors, so the trace is a gather along that band:
    # Tr[rho O] = sum_n f(n) rho[n, n - q + p].
    dims = state.system.dims
    factors, col_parts, row_parts = [], [], []
    for k, (p, q) in enumerate(powers):
        d = dims[k]
        n = np.arange(q, min(d - 1, d - 1 + q - p) + 1)
        if n.size == 0:
            return 0j
        f = np.ones(n.size)
        for step in range(q):
            f *= n - step                 # n (n-1) ... (n-q+1)
        for step in range(p):
            f *= n - q + 1 + step         # (n-q+1) ... (n-q+p)
        factors.append(np.sqrt(f))
        col_parts.append(n)
        row_parts.append(n - q + p)
    grids = [f.reshape([-1 if j == k else 1 for j in range(len(dims))])
             for k, f in enumerate(factors)]
    coeff = grids[0]
    for g in grids[1:]:
        coeff = coeff * g
    strides = np.cumprod((dims[1:] + (1,))[::-1])[::-1]
    def flat(parts):
        total = 0
        for k, part in enumerate(parts):
            total = total + part.reshape(
                [-1 if j == k else 1 for j in range(len(dims))]) * strides[k]
        return total
    rho = state.rho
    return complex((coeff * rho[flat(col_parts), flat(row_parts)]).sum())


def apply_phase(state: QuantumState, mode: int, phi: float) -> QuantumState:
    """Phase shifter: occupation n on `mode` gains e^{i n phi}. Exactly
    unitary on the truncated space."""
    d = state.system.dims[mode]
    phases = np.exp(1j * float(phi) * np.arange(d))
    m = state.system.mode_count
    if state.is_pure:
        t = state.tensorized() * phases.reshape(
            [d if k == mode else 1 for k in range(m)])
        return QuantumState(state.system, vector=t.reshape(-1),
                            leakage=state.leakage, validate=False)
    t = state.tensorized()
    t = t * phases.reshape([d if k == mode else 1 for k in range(2 * m)])
    t = t * phases.conj().reshape(
        [d if k == m + mode else 1 for k in range(2 * m)])
    return QuantumState(state.system, rho=t.reshape(state.dim, state.dim),
                        leakage=state.leakage, validate=False)


#: Read-only beamsplitter blocks U_N keyed by (N, forward), from U_0 = [[1]].
_BLOCKS = {(0, forward): np.broadcast_to(np.complex128(1), (1, 1))
           for forward in (True, False)}


def _bs_block(total: int, forward: bool) -> np.ndarray:
    """Read-only block U_N[k, m] = <k, N-k| U |m, N-m> of the 50:50
    beamsplitter on the sector with N = ``total`` photons in its two modes.

    U_N is built from U_{N-1} by the SU(2) action on creation operators,
    A^dag = U a^dag U^dag = (a^dag + s b^dag)/sqrt(2) and B^dag = U b^dag
    U^dag = (s a^dag + b^dag)/sqrt(2), s = +i forward and -i inverse (so the
    inverse block is the conjugate). As a^dag a + b^dag b = N on the sector,
    U_N = (A^dag U_{N-1} a + B^dag U_{N-1} b) / N, a non-expansive map:
    rounding errors add up (about N ulp) instead of compounding.
    """
    start = total
    while (start, forward) not in _BLOCKS:
        start -= 1
    s = 1j if forward else -1j
    for n in range(start + 1, total + 1):
        parent = _BLOCKS[(n - 1, forward)]
        root = np.sqrt(np.arange(n + 1.0))
        a_dag = root[:, None] * np.pad(parent, ((1, 0), (0, 0)))
        b_dag = root[::-1, None] * np.pad(parent, ((0, 1), (0, 0)))
        up = a_dag + s * b_dag          # sqrt(2) A^dag U_{N-1}
        down = s * a_dag + b_dag        # sqrt(2) B^dag U_{N-1}
        # a |m, n-m> = sqrt(m) |m-1, n-m>, b |m, n-m> = sqrt(n-m) |m, n-m-1>
        block = np.empty((n + 1, n + 1), dtype=np.complex128)
        block[:, 0] = down[:, 0] / math.sqrt(2 * n)
        block[:, n] = up[:, n - 1] / math.sqrt(2 * n)
        block[:, 1:n] = (up[:, :-1] * root[1:n]
                         + down[:, 1:] * root[n - 1:0:-1]) / (n * math.sqrt(2))
        block.setflags(write=False)
        _BLOCKS.setdefault((n, forward), block)
    return _BLOCKS[(total, forward)]


def _transform_rows(mat: np.ndarray, out: np.ndarray, dims: tuple[int, ...],
                    mode_i: int, mode_j: int, forward: bool) -> None:
    """Write U @ mat into `out` (zero-filled, or `mat` itself), where U is
    the beamsplitter on modes (mode_i, mode_j) of the basis indexing the
    rows of the 2-D array `mat`. Sectors without a nonzero row build and
    apply no block; within a sector only nonzero columns are touched.
    """
    d_i, d_j = dims[mode_i], dims[mode_j]
    # flat basis index of (pair index n_i * d_j + n_j, other modes), with
    # the pair indices ordered by sector N = n_i + n_j, then by n_i
    totals = np.add.outer(np.arange(d_i), np.arange(d_j)).ravel()
    order = np.argsort(totals, kind="stable")
    index = np.moveaxis(np.arange(mat.shape[0]).reshape(dims),
                        (mode_i, mode_j), (0, 1)).reshape(d_i * d_j, -1)[order]
    counts = np.bincount(totals)
    starts = np.cumsum(counts) - counts
    nonzero = mat != 0
    occupied = np.logical_or.reduceat(
        nonzero.any(axis=1)[index].any(axis=1), starts)
    for total in np.flatnonzero(occupied).tolist():
        lo, size = int(starts[total]), int(counts[total])
        k_lo = max(0, total - (d_j - 1))
        rows = index[lo:lo + size].ravel()
        cols = np.flatnonzero(nonzero[rows].any(axis=0))
        block = _bs_block(total, forward)[k_lo:k_lo + size, k_lo:k_lo + size]
        sub = mat[rows[:, None], cols].reshape(size, -1)
        out[rows[:, None], cols] = (block @ sub).reshape(rows.size, -1)


def apply_beamsplitter(state: QuantumState, mode_i: int, mode_j: int, *,
                       inverse: bool = False,
                       leak_tol: float | None = DEFAULT_LEAK_TOL) -> QuantumState:
    """50:50 beamsplitter on two modes: mode_i -> (mode_i + i mode_j)/sqrt(2),
    mode_j -> (i mode_i + mode_j)/sqrt(2) (inverse flips the sign of i).

    Each sector N = n_i + n_j goes through its SU(2) block U_N (a density
    operator on its rows, then on its columns with the conjugate block).
    A sector that does not fit under the cutoffs gets the retained rows and
    columns of U_N; the probability so pushed above the cutoffs is
    measured, and above ``leak_tol`` a :class:`TruncationLeakageError` is
    raised (``leak_tol=None`` only records it as the returned state's
    ``leakage``). The output is never renormalized.
    """
    m = state.system.mode_count
    if mode_i == mode_j or not (0 <= mode_i < m and 0 <= mode_j < m):
        raise ValueError(f"invalid beamsplitter modes ({mode_i}, {mode_j})")
    dims, forward = state.system.dims, not inverse
    if state.is_pure:
        vector = np.zeros(state.dim, dtype=np.complex128)
        _transform_rows(state.vector[:, None], vector[:, None], dims,
                        mode_i, mode_j, forward)
        leakage = float(np.vdot(state.vector, state.vector).real
                        - np.vdot(vector, vector).real)
        fields = {"vector": vector}
    else:
        rho = np.zeros((state.dim, state.dim), dtype=np.complex128)
        _transform_rows(state.rho, rho, dims, mode_i, mode_j, forward)
        # (U rho) U^dag: the conjugate block is the inverse-direction one
        _transform_rows(rho.T, rho.T, dims, mode_i, mode_j, not forward)
        leakage = float(np.trace(state.rho).real - np.trace(rho).real)
        fields = {"rho": rho}
    if leak_tol is not None and leakage > leak_tol:
        raise TruncationLeakageError(leakage, leak_tol)
    return QuantumState(state.system, leakage=leakage, validate=False, **fields)


def max_joint_occupation(state: QuantumState, mode_i: int, mode_j: int) -> int:
    """Largest n_i + n_j carrying any population (support scan)."""
    m = state.system.mode_count
    if state.is_pure:
        weights = np.abs(state.tensorized()) ** 2
        axes = tuple(k for k in range(m) if k not in (mode_i, mode_j))
    else:
        diag = np.einsum("ii->i", state.rho).real
        weights = diag.reshape(state.system.dims)
        axes = tuple(k for k in range(m) if k not in (mode_i, mode_j))
    marg = weights.sum(axis=axes) if axes else weights
    nz = np.argwhere(marg > 0.0)
    if nz.size == 0:
        return 0
    return int((nz[:, 0] + nz[:, 1]).max())


def pad_for_beamsplitter(state: QuantumState, mode_i: int,
                         mode_j: int) -> QuantumState:
    """Pad the two modes so a 50:50 beamsplitter acts without leakage.

    Each total-photon-number block N needs both cutoffs >= N; padding to
    the largest occupied N makes the transform exactly unitary.
    """
    n_max = max_joint_occupation(state, mode_i, mode_j)
    cutoffs = list(state.system.cutoffs)
    cutoffs[mode_i] = max(cutoffs[mode_i], n_max)
    cutoffs[mode_j] = max(cutoffs[mode_j], n_max)
    return pad_cutoffs(state, cutoffs)


def purity(state: QuantumState) -> float:
    """Tr(rho^2); 1 for pure states (up to normalization rounding)."""
    if state.is_pure:
        return float(np.vdot(state.vector, state.vector).real ** 2)
    return float(np.vdot(state.rho, state.rho).real)


def eigen_components(state: QuantumState, *, weight_tol: float = 1e-14
                     ) -> tuple[tuple[float, QuantumState], ...]:
    """Spectral decomposition into (weight, pure state) pairs, heaviest
    first, dropping numerically zero weights. Cached on the (immutable)
    state, since sweeps and angle grids reuse it heavily."""
    if state.is_pure:
        return ((1.0, state),)
    if state._eigen_cache is None:
        vals, vecs = np.linalg.eigh(state.rho)
        parts = []
        for k in range(len(vals) - 1, -1, -1):
            w = float(vals[k])
            if w <= weight_tol:
                break
            parts.append((w, QuantumState(state.system, vector=vecs[:, k],
                                          validate=False)))
        state._eigen_cache = tuple(parts)
    return state._eigen_cache
