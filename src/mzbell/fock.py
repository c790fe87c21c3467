"""Truncated Fock-space states for few-mode bosonic fields.

States live on a fixed occupation-number basis: tuples (n_0, ..., n_{M-1})
with 0 <= n_k <= cutoff_k, ordered lexicographically with mode 0 slowest.
That ordering is exactly numpy's C order for an array of shape
(cutoff_0 + 1, ..., cutoff_{M-1} + 1), so a flat amplitude vector reshaped
to those dims has axis k acting as mode k. All file formats and every
module in the package rely on this ordering.

Every state, pure or mixed, is one stack of amplitude vectors of shape
(rank, dim) with the ensemble weights folded in: row k is sqrt(w_k)|phi_k>,
so rho = sum_k w_k |phi_k><phi_k|. A pure state has rank 1; a mixture keeps
the components its constructor knows (a thermal state its number states, a
convex mixture its members). Every operation is linear in the rows, so one
code path serves pure and mixed states alike, and none forms the dense
density operator (``QuantumState.rho`` derives it for tests and oracles).
A state may store at most ``AMPLITUDE_LIMIT`` complex amplitudes (rank
times dim); larger ones are refused before allocating.

Normal-ordered expectations are batched: ``expectations`` takes all terms
a caller needs on one state and makes each lowering once per slice. A
lowering shifts the flat row index by sum_k p_k * stride_k and multiplies
by one weight vector per lowered axis, built once per call and zero where
the shift would cross a cutoff, so its loops run contiguously along the
rows however short the last modes are.

Transforms return new states and never mutate or implicitly renormalize
their inputs: a norm deficit after a transform is a bug, not something to
hide.

The 50:50 beamsplitter is kept as one cutoff-independent SU(2) block per
total photon number of its mode pair (Campos, Saleh & Teich, PRA 40,
1371 (1989)), built on first use and cached for the process. The cache
is bounded by ``BLOCK_ENTRY_LIMIT`` entries per direction, checked before
any block is built or the pair is padded. A transform is planned (the
sectors a state occupies, with their rows, columns and blocks) and then
applied. The plan grows both cutoffs of the pair to the largest occupied
sector, so every block acts whole and the transform is exactly unitary,
and it scans the support once, padded or not. A phase scan
(``beamsplitter_after_phases``) makes its plan once, as a phase shift
never adds support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionLimitError

DEFAULT_TAIL_EPS = 1e-12
#: Most complex amplitudes (rank x dim) one state may store: 32 MiB.
AMPLITUDE_LIMIT = 1 << 21
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


def _check_size(rank: int, dim: int) -> None:
    """Refuse a state of this rank and dimension before allocating it."""
    if rank * dim > AMPLITUDE_LIMIT:
        raise DimensionLimitError(
            f"a state of rank {rank} and dimension {dim} would store "
            f"{rank * dim} amplitudes, above the limit of {AMPLITUDE_LIMIT}")


class QuantumState:
    """Immutable pure or mixed state over a :class:`ModeSystem` basis.

    Give exactly one of ``vector`` (a pure state), ``amps`` (a stack of
    weighted amplitude vectors) or ``rho`` (a density operator, factored
    once into such a stack; meant for tests and oracles).

    Attributes
    ----------
    system : ModeSystem
    amps : numpy.ndarray
        Read-only ``(rank, dim)`` stack with rho = amps.T @ amps.conj().
    renormalized : bool
        True when construction had to rescale by more than ``NORM_TOL``.
    """

    __slots__ = ("system", "amps", "renormalized")

    def __init__(self, system: ModeSystem, *, vector=None, amps=None,
                 rho=None, renormalized: bool = False,
                 validate: bool = True):
        if sum(x is not None for x in (vector, amps, rho)) != 1:
            raise ValueError("exactly one of vector/amps/rho must be given")
        self.system = system
        self.renormalized = bool(renormalized)
        if vector is not None:
            vector = np.asarray(vector, dtype=np.complex128)
            if vector.shape != (system.dim,):
                raise ValueError(
                    f"amplitude vector has length {vector.shape}, "
                    f"system dimension is {system.dim}")
            amps = vector[None]
        elif rho is not None:
            rho = np.asarray(rho, dtype=np.complex128)
            if rho.shape != (system.dim, system.dim):
                raise ValueError(f"density operator has shape {rho.shape}, "
                                 f"expected {(system.dim, system.dim)}")
            if validate:
                if not np.all(np.isfinite(rho.view(np.float64))):
                    raise ValueError("density entries must be finite")
                herm = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
                if herm > HERMITICITY_TOL:
                    raise ValueError(
                        f"density operator not Hermitian ({herm:.3e})")
            # factored once into eigencomponents, heaviest first; weights
            # up to 1e-14 (numerical zeros and negatives) are dropped
            vals, vecs = np.linalg.eigh(rho)
            keep = np.flatnonzero(vals > 1e-14)[::-1]
            amps = (vecs[:, keep] * np.sqrt(vals[keep])).T
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != system.dim:
            raise ValueError(f"amplitude stack has shape {amps.shape}, "
                             f"expected (rank, {system.dim})")
        amps.setflags(write=False)
        self.amps = amps
        if validate:
            if not np.all(np.isfinite(amps.view(np.float64))):
                raise ValueError("amplitudes must be finite")
            norm2 = float(np.vdot(amps, amps).real)
            if abs(norm2 - 1.0) > NORM_TOL:
                raise ValueError(f"state norm^2 = {norm2!r}, expected 1")

    @property
    def is_pure(self) -> bool:
        return len(self.amps) == 1

    @property
    def vector(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError(f"state is a mixture of rank {len(self.amps)}, "
                             "not a pure vector")
        return self.amps[0]

    @property
    def rho(self) -> np.ndarray:
        """The dense density operator, built on each access (dim^2 entries;
        for tests and oracles)."""
        return self.amps.T @ self.amps.conj()

    @property
    def dim(self) -> int:
        return self.system.dim

    def tensorized(self) -> np.ndarray:
        """The stack reshaped to (rank, *dims), so axis k + 1 is mode k."""
        return self.amps.reshape((len(self.amps),) + self.system.dims)

    def __repr__(self):
        kind = "pure" if self.is_pure else f"mixed, rank {len(self.amps)}"
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
    renormalized = abs(norm - 1.0) > NORM_TOL
    if norm < 1e-150:
        # the squares underflow: rescale by the largest amplitude first,
        # part by part (a complex quotient overflows on a subnormal peak)
        peak = float(np.max(np.abs(vec)))
        if peak == 0.0:
            raise ValueError("cannot normalize the zero vector")
        vec = vec.real / peak + 1j * (vec.imag / peak)
        norm = float(np.linalg.norm(vec))
    return QuantumState(system, vector=vec / norm, renormalized=renormalized)


def make_mixed(ensemble: Sequence[tuple[float, QuantumState]]) -> QuantumState:
    """Convex mixture of states sharing one ModeSystem: the members' stacks,
    each scaled by sqrt(weight), stacked (zero weights are dropped).

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
    members = [(w, state) for w, (_, state) in zip(weights, ensemble)
               if w != 0.0]
    _check_size(sum(len(state.amps) for _, state in members), system.dim)
    amps = np.concatenate([math.sqrt(w) * state.amps for w, state in members])
    return QuantumState(system, amps=amps)


def tensor(left: QuantumState, right: QuantumState) -> QuantumState:
    """Tensor product; left modes come first (slowest) in the new basis.
    Every pair of components multiplies, so the ranks multiply."""
    system = ModeSystem(left.system.cutoffs + right.system.cutoffs)
    rank = len(left.amps) * len(right.amps)
    _check_size(rank, system.dim)
    amps = left.amps[:, None, :, None] * right.amps[None, :, None, :]
    return QuantumState(system, amps=amps.reshape(rank, system.dim),
                        validate=False)


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
    when the geometric tail drops below ``tail_eps`` and renormalized; its
    components are the number states, rows sqrt(p_n)|n>."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if not 0.0 < tail_eps < 1.0:
        raise ValueError("tail_eps must lie in (0, 1)")
    if nbar == 0.0:
        return basis_state(ModeSystem((0,)), (0,))
    q = nbar / (1.0 + nbar)
    # tail after cutoff N is q^(N+1)
    cutoff = max(0, math.ceil(math.log(tail_eps) / math.log(q)) - 1)
    while q ** (cutoff + 1) >= tail_eps:
        cutoff += 1
    if cutoff > max_cutoff:
        raise DimensionLimitError(
            f"thermal nbar={nbar:.3g} needs a cutoff beyond {max_cutoff} "
            f"for tail {tail_eps:g}")
    _check_size(cutoff + 1, cutoff + 1)
    probs = (1 - q) * q ** np.arange(cutoff + 1)
    probs /= probs.sum()
    return QuantumState(ModeSystem((cutoff,)),
                        amps=np.diag(np.sqrt(probs).astype(np.complex128)),
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
    rank = len(state.amps)
    _check_size(rank, system.dim)
    out = np.zeros((rank,) + system.dims, dtype=np.complex128)
    out[(slice(None),) + tuple(slice(0, d) for d in state.system.dims)] = \
        state.tensorized()
    return QuantumState(system, amps=out.reshape(rank, system.dim),
                        validate=False)


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


def _lower(stack: np.ndarray, powers: Sequence[int],
           weights: dict | None = None) -> np.ndarray:
    """Apply prod_k a_k^{p_k} to every row of a (rank, *dims) stack:
    out[:, n] = prod_k sqrt((n_k+1)...(n_k+p_k)) * stack[:, n + p], zero
    where n + p lies above a cutoff. Writes one new array.

    On flat row indices this is one shift by sum_k p_k * stride_k, times
    the weights of each lowered axis in axis order (:func:`_axis_weights`,
    kept in ``weights`` by (axis, power) for calls on the same dims), whose
    zeros blank what the shift carries across a cutoff. So every multiply
    is one contiguous loop along the rows.
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


def expectations(state: QuantumState,
                 terms: Sequence[Sequence[tuple[int, int]]]) -> list[complex]:
    """Expectations of normal-ordered products, one per term (each given as
    for :func:`expect_normal_ordered`). Per slice of the stack, each
    distinct creation or annihilation power tuple is lowered once and
    shared by every term that uses it."""
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
                    lowered[powers] = _lower(stack[k:k + step], powers,
                                             weights)
            part.append(np.vdot(lowered[pair[0]], lowered[pair[1]]))
            lowered = {p: v for p, v in lowered.items() if last[p] > i}
    return [complex(np.sum(part)) for part in parts]


def expect_normal_ordered(state: QuantumState,
                          powers: Sequence[tuple[int, int]]) -> complex:
    """Expectation of prod_k (a_k^dag)^{p_k} (a_k)^{q_k}.

    ``powers`` lists one (creation, annihilation) pair per mode. Computed
    by ladder-index arithmetic, so the result is exact up to state
    truncation: no operator matrices are built and no sampling occurs.
    """
    return expectations(state, [powers])[0]


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


#: Most entries the cached blocks U_0..U_N of one direction may hold,
#: sum of (n + 1)^2 up to N: 16 times the largest state, 512 MiB, which
#: admits sectors up to N = 463.
BLOCK_ENTRY_LIMIT = 16 * AMPLITUDE_LIMIT
#: Read-only beamsplitter blocks U_N keyed by (N, forward), from U_0 = [[1]].
_BLOCKS = {(0, forward): np.broadcast_to(np.complex128(1), (1, 1))
           for forward in (True, False)}


def _check_blocks(total: int) -> None:
    """Refuse a sector whose blocks U_0..U_total, sum of (n + 1)^2
    entries, would pass ``BLOCK_ENTRY_LIMIT``."""
    entries = (total + 1) * (total + 2) * (2 * total + 3) // 6
    if entries > BLOCK_ENTRY_LIMIT:
        raise DimensionLimitError(
            f"the beamsplitter blocks up to {total} photons would hold "
            f"{entries} entries, above the limit of {BLOCK_ENTRY_LIMIT}")


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
    if start < total:
        _check_blocks(total)
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


def _plan(state: QuantumState, mode_i: int, mode_j: int,
          forward: bool) -> tuple[QuantumState, list]:
    """The state, padded so every sector N = n_i + n_j of the beamsplitter
    on (mode_i, mode_j) that carries support fits under both cutoffs, and
    those sectors, largest first, each as (rows, cols, block): its basis
    indices as a column, the components nonzero on it, and U_N. Sectors
    without support build no block.
    """
    m = state.system.mode_count
    if mode_i == mode_j or not (0 <= mode_i < m and 0 <= mode_j < m):
        raise ValueError(f"invalid beamsplitter modes ({mode_i}, {mode_j})")
    rank, dims = len(state.amps), state.system.dims
    d_i, d_j = dims[mode_i], dims[mode_j]
    # which components are nonzero on each pair (n_i, n_j), then on each
    # sector N = n_i + n_j; padding adds only zeros, so this one scan of the
    # state as given also serves the padded state
    pairs = np.moveaxis((state.amps != 0).T.reshape(dims + (rank,)),
                        (mode_i, mode_j), (0, 1)).any(axis=tuple(range(2, m)))
    sectors = np.zeros((d_i + d_j - 1, rank), dtype=bool)
    for n_i in range(d_i):
        sectors[n_i:n_i + d_j] |= pairs[n_i]
    occupied = np.flatnonzero(sectors.any(axis=1))[::-1].tolist()
    top = occupied[0] if occupied else 0
    cutoffs = list(state.system.cutoffs)
    for mode in (mode_i, mode_j):
        cutoffs[mode] = max(cutoffs[mode], top)
    # refuse the padded size, then the blocks, before anything is allocated
    _check_size(rank, ModeSystem(cutoffs).dim)
    _check_blocks(top)
    state = pad_cutoffs(state, cutoffs)
    # each occupied sector now fits whole: its rows are the pairs (k, N - k),
    # k = 0..N, each with the other modes in C order
    grid = np.moveaxis(np.arange(state.system.dim).reshape(state.system.dims),
                       (mode_i, mode_j), (0, 1))
    # largest sector first: its block builds every smaller one on the way
    plan = []
    for total in occupied:
        k = np.arange(total + 1)
        plan.append((grid[k, total - k].reshape(-1, 1),
                     np.flatnonzero(sectors[total]),
                     _bs_block(total, forward)))
    return state, plan


def _apply(state: QuantumState, plan) -> QuantumState:
    """Apply each planned sector's block to the state's rows."""
    amps = np.zeros_like(state.amps)
    mat, out = state.amps.T, amps.T
    for rows, cols, block in plan:
        sub = mat[rows, cols].reshape(len(block), -1)
        out[rows, cols] = (block @ sub).reshape(rows.size, -1)
    return QuantumState(state.system, amps=amps, validate=False)


def apply_beamsplitter(state: QuantumState, mode_i: int, mode_j: int, *,
                       inverse: bool = False) -> QuantumState:
    """50:50 beamsplitter on two modes: mode_i -> (mode_i + i mode_j)/sqrt(2),
    mode_j -> (i mode_i + mode_j)/sqrt(2) (inverse flips the sign of i).

    Each sector N = n_i + n_j of every component goes through its SU(2)
    block U_N. Both cutoffs of the pair are first grown to the largest
    occupied N (the output's system shows them), so every block acts whole
    and the transform is exactly unitary. A state that would pass
    ``AMPLITUDE_LIMIT`` once padded, or a sector whose blocks would pass
    ``BLOCK_ENTRY_LIMIT``, is refused before either is allocated.
    """
    return _apply(*_plan(state, mode_i, mode_j, not inverse))


def beamsplitter_after_phases(state: QuantumState, mode_i: int, mode_j: int,
                              phases: Iterable[float]) -> Iterator[QuantumState]:
    """Yield ``apply_beamsplitter(apply_phase(state, mode_i, phi), mode_i,
    mode_j)`` for each phi, bit for bit, with the sectors planned once.

    A phase shift multiplies each amplitude by a unit-modulus factor, so
    every shifted copy has the support of ``state`` (only an amplitude a
    few subnormal steps from zero, about 1e-323, can round away), and the
    plan made for it, with its padding, serves them all. It is made by
    this call, so a sector past the block cache bound is refused before
    any phase is applied.
    """
    state, plan = _plan(state, mode_i, mode_j, True)
    return (_apply(apply_phase(state, mode_i, phi), plan) for phi in phases)


def purity(state: QuantumState) -> float:
    """Tr(rho^2), the squared Frobenius norm of the components' Gram
    matrix; 1 for pure states (up to normalization rounding)."""
    gram = state.amps.conj() @ state.amps.T
    return float(np.vdot(gram, gram).real)
