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
density operator.

A state stores only the stack's nonzero amplitudes: its rank, the sorted
flat indices into the C-order (rank, dim) stack of every amplitude with
either part != 0, and the complex values there, 24 bytes per stored
amplitude (a fully dense state thus also stores one index per amplitude).
A split number-diagonal input fills 0.5-4.5 % of its stack. The
constructors write that form directly: no (rank, dim) array is built to
split, pad or mix a state. ``QuantumState.amps`` is the dense stack, built
on each read and not kept; only kernels that index rows densely read it.
``AMPLITUDE_LIMIT`` still bounds rank times dim, so larger states are
refused before allocating, whatever their support.

Normal-ordered expectations are batched: ``expectations`` takes all terms
a caller needs on one state and reads its stored amplitudes once, in
chunks. A term pairs each stored amplitude with the one a flat-index
shift away, sum_k (q_k - p_k) * stride_k, found by a binary search of the
support and weighted by small cached per-mode tables that are zero where
the pair would cross a cutoff; no lowered copy of a row is made.
``row_expectations`` takes one term on each row of a batch of pure
single-mode amplitude rows, with the same tables.

Transforms return new states and never mutate or implicitly renormalize
their inputs: a norm deficit after a transform is a bug, not something to
hide.

The 50:50 beamsplitter acts on each total photon number N of its mode
pair as one SU(2) block U_N (Campos, Saleh & Teich, PRA 40, 1371
(1989)). Two product paths use it, and neither keeps a block:
- a single-mode input split against vacuum (``_split``) writes |n, 0>
  from U_n's edge column, in closed form, sqrt(C(n, m) / 2^n) i^(n - m);
- a mode mixed with each of a batch of pure partner modes
  (``output_number_grams``) is reduced to two small Gram matrices of the
  output photon numbers per partner, from blocks built in that call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionLimitError

DEFAULT_TAIL_EPS = 1e-12
#: Most complex amplitudes (rank x dim) one state may store: 32 MiB.
AMPLITUDE_LIMIT = 1 << 21
NORM_TOL = 1e-9


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

    Give exactly one of ``vector`` (a pure state) or ``amps`` (a stack of
    weighted amplitude vectors); the nonzero amplitudes are kept, and the
    rest of the stack is implied zero.

    Attributes
    ----------
    system : ModeSystem
    rank : int
        Rows of the ``(rank, dim)`` stack.
    support : numpy.ndarray
        Read-only sorted flat indices into the stack of every amplitude
        with either part != 0 (a subnormal counts, a -0 does not).
    values : numpy.ndarray
        Read-only complex amplitudes at ``support``.
    renormalized : bool
        True when construction had to rescale by more than ``NORM_TOL``.
    """

    __slots__ = ("system", "rank", "support", "values", "renormalized")

    def __init__(self, system: ModeSystem, *, vector=None, amps=None,
                 renormalized: bool = False, validate: bool = True):
        if (vector is None) == (amps is None):
            raise ValueError("exactly one of vector/amps must be given")
        if vector is not None:
            vector = np.asarray(vector, dtype=np.complex128)
            if vector.shape != (system.dim,):
                raise ValueError(
                    f"amplitude vector has length {vector.shape}, "
                    f"system dimension is {system.dim}")
            amps = vector[None]
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != system.dim:
            raise ValueError(f"amplitude stack has shape {amps.shape}, "
                             f"expected (rank, {system.dim})")
        flat = amps.reshape(-1)
        support = np.flatnonzero(flat != 0)
        self._store(system, len(amps), support, flat[support], renormalized,
                    validate)

    @classmethod
    def _from_support(cls, system: ModeSystem, rank: int,
                      support: np.ndarray, values: np.ndarray, *,
                      validate: bool = False) -> QuantumState:
        """The state with amplitudes ``values`` at the sorted flat indices
        ``support`` of its stack, dropping any value that rounded to 0."""
        kept = values != 0
        if not kept.all():
            support, values = support[kept], values[kept]
        state = cls.__new__(cls)
        state._store(system, rank, support, values, False, validate)
        return state

    def _store(self, system, rank, support, values, renormalized, validate):
        support.setflags(write=False)
        values.setflags(write=False)
        self.system, self.rank, self.renormalized = system, rank, \
            bool(renormalized)
        self.support, self.values = support, values
        if validate:
            if not np.all(np.isfinite(values.view(np.float64))):
                raise ValueError("amplitudes must be finite")
            norm2 = float(np.vdot(values, values).real)
            if abs(norm2 - 1.0) > NORM_TOL:
                raise ValueError(f"state norm^2 = {norm2!r}, expected 1")

    @property
    def amps(self) -> np.ndarray:
        """The read-only ``(rank, dim)`` stack, rho = amps.T @ amps.conj(),
        built from the stored amplitudes on each read."""
        amps = np.zeros((self.rank, self.dim), dtype=np.complex128)
        amps.reshape(-1)[self.support] = self.values
        amps.setflags(write=False)
        return amps

    @property
    def is_pure(self) -> bool:
        return self.rank == 1

    @property
    def vector(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError(f"state is a mixture of rank {self.rank}, "
                             "not a pure vector")
        return self.amps[0]

    @property
    def dim(self) -> int:
        return self.system.dim

    def tensorized(self) -> np.ndarray:
        """The stack reshaped to (rank, *dims), so axis k + 1 is mode k."""
        return self.amps.reshape((self.rank,) + self.system.dims)

    def __repr__(self):
        kind = "pure" if self.is_pure else f"mixed, rank {self.rank}"
        return (f"QuantumState({kind}, cutoffs={self.system.cutoffs}, "
                f"dim={self.dim})")


def _stored_at(state: QuantumState, index: np.ndarray) -> np.ndarray:
    """The amplitudes at flat indices ``index`` of the state's stack (any
    integers), found by binary search on its support: 0 where none is
    stored."""
    support = state.support
    at = np.minimum(support.searchsorted(index), support.size - 1)
    return np.where(support[at] == index, state.values[at], 0)


def basis_state(system: ModeSystem, occupation: Sequence[int]) -> QuantumState:
    """The occupation-number basis vector |n_0, ..., n_{M-1}>."""
    occupation = tuple(int(n) for n in occupation)
    if len(occupation) != system.mode_count:
        raise ValueError("occupation length does not match mode count")
    if any(n < 0 or n > c for n, c in zip(occupation, system.cutoffs)):
        raise ValueError(f"occupation {occupation} outside cutoffs "
                         f"{system.cutoffs}")
    _check_size(1, system.dim)
    index = np.ravel_multi_index(occupation, system.dims)
    return QuantumState._from_support(system, 1, np.array([index]),
                                      np.ones(1, dtype=np.complex128))


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
    each scaled by sqrt(weight), stacked (zero weights are dropped), as
    their stored amplitudes, offset by the rows before them.

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
    ranks = [state.rank for _, state in members]
    _check_size(sum(ranks), system.dim)
    offsets = system.dim * np.cumsum([0] + ranks[:-1])
    return QuantumState._from_support(
        system, sum(ranks),
        np.concatenate([state.support + offset
                        for (_, state), offset in zip(members, offsets)]),
        np.concatenate([math.sqrt(w) * state.values for w, state in members]),
        validate=True)


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
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    magnitude = math.hypot(alpha.real, alpha.imag)  # inf, not an error
    too_big = (f"coherent amplitude |alpha|={magnitude:.3g} needs a cutoff "
               f"beyond {max_cutoff} for tail {tail_eps:g}")
    # the bound below needs lam < N + 2: refused before lam may overflow
    if magnitude >= math.sqrt(max_cutoff + 2):
        raise DimensionLimitError(too_big)
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
                raise DimensionLimitError(too_big)
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
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar!r}")
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if not 0.0 < tail_eps < 1.0:
        raise ValueError("tail_eps must lie in (0, 1)")
    if nbar == 0.0:
        return basis_state(ModeSystem((0,)), (0,))
    q = nbar / (1.0 + nbar)
    # tail after cutoff N is q^(N+1), falling with N: checked at max_cutoff
    # first, as q rounds to 1 from nbar ~ 1e16 on
    if q ** (max_cutoff + 1) >= tail_eps:
        raise DimensionLimitError(
            f"thermal nbar={nbar:.3g} needs a cutoff beyond {max_cutoff} "
            f"for tail {tail_eps:g}")
    cutoff = max(0, math.ceil(math.log(tail_eps) / math.log(q)) - 1)
    while q ** (cutoff + 1) >= tail_eps:
        cutoff += 1
    _check_size(cutoff + 1, cutoff + 1)
    probs = (1 - q) * q ** np.arange(cutoff + 1)
    probs /= probs.sum()
    # row n holds sqrt(p_n) at column n
    return QuantumState._from_support(
        ModeSystem((cutoff,)), cutoff + 1,
        np.arange(cutoff + 1) * (cutoff + 2),
        np.sqrt(probs).astype(np.complex128))


def pad_cutoffs(state: QuantumState, cutoffs: Sequence[int]) -> QuantumState:
    """Embed a state into a system with (elementwise) larger cutoffs: its
    stored amplitudes, re-indexed."""
    cutoffs = tuple(int(c) for c in cutoffs)
    old = state.system.cutoffs
    if len(cutoffs) != len(old):
        raise ValueError("cutoff list length does not match mode count")
    if any(new < o for new, o in zip(cutoffs, old)):
        raise ValueError(f"cannot shrink cutoffs {old} -> {cutoffs}")
    if cutoffs == old:
        return state
    system = ModeSystem(cutoffs)
    rank = state.rank
    _check_size(rank, system.dim)
    digits = np.unravel_index(state.support, (rank,) + state.system.dims)
    return QuantumState._from_support(
        system, rank, np.ravel_multi_index(digits, (rank,) + system.dims),
        state.values)


#: Amplitudes of the flat stack that :func:`expectations` reads at once
#: (512 KiB): temporaries much larger than that get fresh pages from the
#: OS on every call.
CHUNK = 1 << 15


# Ladder tables, cutoff + 1 floats each, for the last 256 (cutoff, p, q):
# an analyze-catalog round uses 162 of them.
@functools.lru_cache(maxsize=256)
def _ladder_table(cutoff: int, p: int, q: int) -> np.ndarray:
    """Read-only <m| (a^dag)^p a^q |m - p + q> over m = 0..cutoff of one
    mode, sqrt(m!/(m-p)!) * sqrt((m-p+q)!/(m-p)!), and 0 where m < p or
    m - p + q passes the cutoff."""
    table = np.zeros(cutoff + 1)
    if max(p, q) <= cutoff:
        n = np.arange(cutoff + 1 - max(p, q), dtype=np.float64)   # m - p
        up, down = np.ones(len(n)), np.ones(len(n))
        for step in range(1, p + 1):
            up *= n + step
        for step in range(1, q + 1):
            down *= n + step
        table[p:p + len(n)] = np.sqrt(up) * np.sqrt(down)
    table.setflags(write=False)
    return table


def expectations(state: QuantumState,
                 terms: Sequence[Sequence[tuple[int, int]]]) -> list[complex]:
    """Expectations of normal-ordered products prod_k (a_k^dag)^{p_k}
    (a_k)^{q_k}, one per term; a term lists one (creation, annihilation)
    power pair (p_k, q_k) per mode. The values are exact up to the state's
    truncation: no operator matrix is built and nothing is sampled.

    Tr[rho A^dag B], A = prod a^p and B = prod a^q, is the sum over the
    stored nonzeros phi[m] of conj(phi[m]) W(m) phi[m + shift], shift =
    sum_k (q_k - p_k) * stride_k and W the product of the per-axis tables
    of :func:`_ladder_table`, whose zeros drop every m whose partner leaves
    the row (any amplitude serves it there). The stored amplitudes are read
    in chunks of ``CHUNK``, and each partner phi[m + shift] is found by a
    binary search of the support (0 where none is stored); the terms are
    evaluated one by one, so no value depends on the others.
    """
    dims = state.system.dims
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    plans = []
    for powers in terms:
        powers = [(int(p), int(q)) for p, q in powers]
        if len(powers) != len(dims):
            raise ValueError("powers list length does not match mode count")
        if any(p < 0 or q < 0 for p, q in powers):
            raise ValueError("operator powers must be non-negative")
        plans.append(([(k + 1, _ladder_table(dims[k] - 1, p, q))
                       for k, (p, q) in enumerate(powers) if p or q],
                      sum((q - p) * s for (p, q), s in zip(powers, strides))))
    sums = [0j] * len(plans)
    for start in range(0, state.support.size, CHUNK):
        at = state.support[start:start + CHUNK]
        found = state.values[start:start + CHUNK]
        digits = np.unravel_index(at, (state.rank,) + dims)
        for i, (tables, shift) in enumerate(plans):
            left = found.conj()
            for axis, table in tables:
                left *= table[digits[axis]]
            right = found if shift == 0 else _stored_at(state, at + shift)
            sums[i] += np.dot(left, right)
    return [complex(value) for value in sums]


def row_expectations(rows: np.ndarray, p: int, q: int) -> np.ndarray:
    """<(a^dag)^p a^q> on each row b of a ``(P, d)`` batch of pure
    single-mode amplitude rows, as a (P,) array: sum_n conj(b[n]) W(n)
    b[n + q - p], with the ladder table W of :func:`_ladder_table`, whose
    zeros drop every n whose partner leaves the row."""
    width = rows.shape[-1]
    table = _ladder_table(width - 1, p, q)
    moved = rows[:, np.clip(np.arange(width) + q - p, 0, width - 1)]
    return np.einsum("pn,pn->p", rows.conj() * table, moved)


@functools.lru_cache(maxsize=None)
def _edge_column(n: int) -> np.ndarray:
    """Column n of U_n, along which |n, 0> leaves the beamsplitter:
    U_n[m, n] = sqrt(C(n, m) / 2^n) i^(n - m), m = 0..n, each magnitude
    within 1 ulp, the root of a correctly rounded quotient of exact
    integers, C(n, m + 1) = C(n, m) (n - m) // (m + 1). From n = 1023 on
    the quotient is scaled by 4^k and the root by 2^-k, so that 2^-n does
    not underflow: no entry is 0 up to n = 2044. Memoized per n; the
    split's size bound admits n <= 1447, about 16 MiB for all columns."""
    k = max(0, n - 1021) // 2
    full, binom, mags = 1 << n, 1, []
    for m in range(n + 1):
        mags.append(math.ldexp(math.sqrt((binom << 2 * k) / full), -k))
        binom = binom * (n - m) // (m + 1)
    column = np.array([1, 1j, -1, -1j])[np.arange(n, -1, -1) % 4] * mags
    column.setflags(write=False)
    return column


def _bs_blocks(top: int) -> Iterator[np.ndarray]:
    """The 50:50 beamsplitter's blocks U_0, ..., U_top in turn, U_N[k, m]
    = <k, N-k| U |m, N-m> on the sector of N photons in its two modes,
    each built from the one before; none is kept here.

    U_N comes from U_{N-1} by the SU(2) action on creation operators,
    A^dag = U a^dag U^dag = (a^dag + i b^dag)/sqrt(2) and B^dag = U b^dag
    U^dag = (i a^dag + b^dag)/sqrt(2). As a^dag a + b^dag b = N on the
    sector, U_N = (A^dag U_{N-1} a + B^dag U_{N-1} b) / N, a non-expansive
    map: rounding errors add up (about N ulp) instead of compounding. U_N
    is symmetric, so the inverse block is its conjugate.
    """
    block = np.ones((1, 1), dtype=np.complex128)
    yield block
    for n in range(1, top + 1):
        root = np.sqrt(np.arange(n + 1.0))
        # a^dag |m, n-1-m> lands on row m + 1, b^dag |m, n-1-m> on row m
        a_dag = np.zeros((n + 1, n), dtype=np.complex128)
        b_dag = np.zeros_like(a_dag)
        np.multiply(root[1:, None], block, out=a_dag[1:])
        np.multiply(root[:0:-1, None], block, out=b_dag[:-1])
        up = a_dag + 1j * b_dag         # sqrt(2) A^dag U_{N-1}
        down = 1j * a_dag + b_dag       # sqrt(2) B^dag U_{N-1}
        # a |m, n-m> = sqrt(m) |m-1, n-m>, b |m, n-m> = sqrt(n-m) |m, n-m-1>
        block = np.empty((n + 1, n + 1), dtype=np.complex128)
        block[:, 0] = down[:, 0] / math.sqrt(2 * n)
        block[:, n] = up[:, n - 1] / math.sqrt(2 * n)
        block[:, 1:n] = (up[:, :-1] * root[1:n]
                         + down[:, 1:] * root[n - 1:0:-1]) / (n * math.sqrt(2))
        yield block


def _split(state: QuantumState) -> QuantumState:
    """The beamsplitter on ``state`` x vacuum (modes 0, 1) for a
    single-mode state, refused by the size bound as that product would
    be: |n, 0> leaves along column n of U_n (:func:`_edge_column`), so
    component r has amps[r, n] * U_n[m, n] on |m, n - m>."""
    rank, d = state.rank, state.dim
    comps, ns = np.divmod(state.support, d)
    _check_size(rank, d * d)
    # one entry per nonzero (r, n) and m = 0..n: column n (none if empty)
    which = np.repeat(np.arange(ns.size), ns + 1)
    edges = np.concatenate([_edge_column(n) for n in ns.tolist()] or [[]])
    n = ns[which]
    m = np.arange(which.size) - np.repeat(np.cumsum(ns + 1) - ns - 1, ns + 1)
    index = comps[which] * (d * d) + m * d + n - m
    order = np.argsort(index)
    # + 0 makes a -0 part +0, as the block product does on a pure state
    values = state.values[which] * edges + 0
    return QuantumState._from_support(ModeSystem((d - 1, d - 1)), rank,
                                      index[order], values[order])


def output_number_grams(state: QuantumState, partners: Sequence[np.ndarray]
                        ) -> list[np.ndarray]:
    """Output photon numbers of one beamsplitter per mode, as Gram matrices
    on that mode: (G_D, G_S) per mode k of ``state``, for mode k mixed with
    each pure single-mode partner of the ``(P, d_k)`` batch of amplitude
    rows ``partners[k]``, as one ``(2, P, cutoff + 1, cutoff + 1)`` array.

    On sector N of the pair (mode, partner), input |m, N - m> carries
    partner[N - m], so a mode amplitude vector x leaves as U_N D_N x, with
    D_N[m, m] = partner[N - m]. Weighting the output |k, N - k> by the
    photon difference 2k - N, or by the sum N, gives
    G_D = sum_N (U_N D_N)^dag diag(2k - N) U_N D_N and
    G_S = sum_N N (U_N D_N)^dag U_N D_N. D_N is diagonal, so one loop over
    the sectors serves the whole batch: each sector's two block products
    U_N^dag diag(2k - N) U_N and N U_N^dag U_N are formed once per mode,
    and every partner's D_N scales their rows and columns. One recursion
    (:func:`_bs_blocks`) serves every mode, each block dropped once the
    next is built. Each mode's P (cutoff + 1)^2 Gram entries are checked
    against ``AMPLITUDE_LIMIT`` before anything is allocated.
    """
    cutoffs = state.system.cutoffs
    for c, partner in zip(cutoffs, partners, strict=True):
        if len(partner) * (c + 1) ** 2 > AMPLITUDE_LIMIT:
            raise DimensionLimitError(
                f"the output-number Gram stacks of a mode of cutoff {c} "
                f"would hold {len(partner)} x {(c + 1) ** 2} entries, above "
                f"the limit of {AMPLITUDE_LIMIT}")
    grams = [np.zeros((2, len(partner), c + 1, c + 1), dtype=np.complex128)
             for c, partner in zip(cutoffs, partners)]
    top = max(c + p.shape[-1] - 1 for c, p in zip(cutoffs, partners))
    for total, whole in enumerate(_bs_blocks(top)):
        # the photon difference 2k - N of the outputs k = 0..N
        diff = np.arange(-total, total + 1, 2.0)[:, None]
        for c, partner, (g_d, g_s) in zip(cutoffs, partners, grams):
            # the mode's occupations m that the partner reaches on sector N
            lo, hi = max(0, total - partner.shape[-1] + 1), min(total, c) + 1
            if lo >= hi:        # past this pair's top sector
                continue
            block = whole[:, lo:hi]
            adjoint = block.conj().T
            # conj(D_N[m, m]) D_N[m', m'] for every partner of the batch
            d = partner[:, total - np.arange(lo, hi)]
            scale = d.conj()[:, :, None] * d[:, None, :]
            g_d[:, lo:hi, lo:hi] += scale * (adjoint @ (diff * block))
            g_s[:, lo:hi, lo:hi] += scale * (total * (adjoint @ block))
    return grams
