"""First/second-order coherence and the Mach-Zehnder fringe experiment.

The five channel moments <a1^dag a2>, <a1 a2>, <n1>, <n2>, <n1 n2> drive
every analytic formula downstream: g1, g2, the classical-field bound, the
homodyne fringe coefficients. The Mach-Zehnder scan recombines the two
channels on a 50:50 beamsplitter after a relative phase shift and reads
output intensities and coincidences, which for balanced channels measures
|g1| directly as the fringe visibility.

The three fringe records are a degree-2 trig polynomial in the phase, so
``fringe_scan`` reads them off five anchor evaluations of the
interferometer, checks them against a sixth, held-out one, and fills any
number of phases from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .errors import DegenerateStateError, RouteResidualError
from .fock import QuantumState

#: n1*n2 below this is treated as a vacuum channel, not a tiny intensity.
DEGENERACY_FLOOR = 1e-15
#: Largest residual between a pointwise evaluation of a numeric route and
#: the trig form fitted from its anchors: of E (absolute) and <S1 S2>
#: (relative) in ``homodyne``, of the fringe records (relative to the total
#: intensity, its square for the coincidence) here.
ROUTE_RESIDUAL_TOL = 1e-12
#: Phases (rad) at which a fringe scan evaluates the route: 2 pi k/5, which
#: fix a degree-2 trig polynomial in the phase.
FRINGE_ANCHORS = tuple(2.0 * math.pi * k / 5 for k in range(5))
#: Phase (rad) evaluated pointwise to check a fringe scan: on no
#: 2 pi k/P grid.
HELD_OUT_PHASE = 1.0


@dataclass(frozen=True)
class CoherenceMoments:
    """Normal-ordered channel moments, photon-number units.

    m12 = <a1^dag a2>, anom = <a1 a2>, n1 = <a1^dag a1>,
    n2 = <a2^dag a2>, n1n2 = <a1^dag a1 a2^dag a2>
    (= <a1^dag a2^dag a2 a1> for distinct modes).
    """

    m12: complex
    anom: complex
    n1: float
    n2: float
    n1n2: float

    def __post_init__(self):
        for name in ("n1", "n2", "n1n2"):
            value = getattr(self, name)
            if value < -1e-12:
                raise ValueError(f"{name} = {value!r} is negative")
        if abs(self.m12) ** 2 > self.n1 * self.n2 + 1e-10:
            raise ValueError(
                f"Cauchy-Schwarz violated: |m12|^2 = {abs(self.m12)**2!r} "
                f"> n1*n2 = {self.n1 * self.n2!r}")


def compute_moments(state: QuantumState, mode1: int = 0,
                    mode2: int = 1) -> CoherenceMoments:
    """All five moments of two channels of a state, by ladder arithmetic;
    the five terms go to one batched call and share three lowerings."""
    m = state.system.mode_count
    if m < 2 or mode1 == mode2:
        raise ValueError("need two distinct modes of a multi-mode state")

    def powers(spec1, spec2):
        out = [(0, 0)] * m
        out[mode1] = spec1
        out[mode2] = spec2
        return out

    n1, m12, n2, anom, n1n2 = fock.expectations(state, [
        powers((1, 1), (0, 0)), powers((1, 0), (0, 1)), powers((0, 0), (1, 1)),
        powers((0, 1), (0, 1)), powers((1, 1), (1, 1))])
    return CoherenceMoments(m12=m12, anom=anom, n1=n1.real, n2=n2.real,
                            n1n2=n1n2.real)


def _check_degenerate(moments: CoherenceMoments):
    if moments.n1 * moments.n2 <= DEGENERACY_FLOOR:
        raise DegenerateStateError(
            f"channel intensities n1={moments.n1:.3e}, n2={moments.n2:.3e} "
            "are too small for normalized coherence functions")


def g1(moments: CoherenceMoments) -> complex:
    """Degree of first-order coherence <a1^dag a2>/sqrt(n1 n2)."""
    _check_degenerate(moments)
    return moments.m12 / np.sqrt(moments.n1 * moments.n2)


def g2(moments: CoherenceMoments) -> float:
    """Degree of second-order coherence <n1 n2>/(n1 n2)."""
    _check_degenerate(moments)
    return moments.n1n2 / (moments.n1 * moments.n2)


def classical_margin(g1_mag: float, g2_value: float) -> float:
    """g2 - |g1|^2. Negative means no classical stochastic field can
    reproduce the pair (interference plus anticorrelation)."""
    return g2_value - g1_mag ** 2


def titulaer_glauber_margin(moments: CoherenceMoments) -> float:
    """:func:`classical_margin` of the moments' g1 and g2."""
    return classical_margin(abs(g1(moments)), g2(moments))


@dataclass(frozen=True)
class FringeRecord:
    """One Mach-Zehnder phase point: output intensities and coincidence."""

    phase: float
    intensity_c: float
    intensity_d: float
    coincidence: float


def _count_moments(out: QuantumState) -> np.ndarray:
    """<n_c>, <n_d> and <n_c n_d> of a two-mode state, the first and mixed
    moments of its photon-count distribution P(n_c, n_d) = sum over the
    stack of |amps|^2."""
    flat = out.amps.view(np.float64)
    probs = (flat * flat).sum(axis=0).reshape(-1, 2).sum(axis=1)
    probs = probs.reshape(out.system.dims)
    n_c, n_d = (np.arange(d, dtype=np.float64) for d in out.system.dims)
    return np.array([probs.sum(axis=1) @ n_c, probs.sum(axis=0) @ n_d,
                     n_c @ probs @ n_d])


def _harmonics(phases) -> np.ndarray:
    """The degree-2 trig basis 1, cos, sin, cos 2phi, sin 2phi: one row
    per phase."""
    phases = np.asarray(phases, dtype=np.float64)
    return np.stack([np.ones_like(phases), np.cos(phases), np.sin(phases),
                     np.cos(2.0 * phases), np.sin(2.0 * phases)], axis=-1)


def fringe_scan(state: QuantumState,
                phases: Sequence[float]) -> list[FringeRecord]:
    """Scan the interferometer phase and record both output channels.

    At a phase phi the first channel is delayed by phi and the channels
    are recombined on the 50:50 beamsplitter, so the outputs are
    c = (e^{i phi} a1 + i a2)/sqrt(2) and d = (i e^{i phi} a1 + a2)/sqrt(2).
    Their mean photon numbers carry phase harmonics of order at most 1,
    and the coincidence <c^dag d^dag d c> of order at most 2: all three
    records are a degree-2 trig polynomial in phi. They are read off the
    output's photon-count distribution at the five anchors ``FRINGE_ANCHORS``,
    and every requested phase is filled from their five-point DFT. One
    more pointwise evaluation at ``HELD_OUT_PHASE`` must agree with the
    fill to ``ROUTE_RESIDUAL_TOL`` times the total intensity (its square
    for the coincidence), and the total intensity must agree to that
    tolerance on all six evaluations; otherwise :class:`RouteResidualError`
    is raised. A filled record within that tolerance of 0 is returned as
    0. A scan costs six evaluations at any number of phases.

    The recombiner pads the state to its largest occupied sector, so it
    is exactly unitary, and makes its sector plan once per scan.
    """
    if state.system.mode_count != 2:
        raise ValueError("fringe_scan expects a two-mode state")
    evaluated = np.array([_count_moments(out) for out in
                          fock.beamsplitter_after_phases(
                              state, 0, 1,
                              FRINGE_ANCHORS + (HELD_OUT_PHASE,))])
    anchors, held_out = evaluated[:-1], evaluated[-1]
    totals = evaluated[:, 0] + evaluated[:, 1]
    scale = float(totals.max())
    tol = ROUTE_RESIDUAL_TOL * np.array([scale, scale, scale * scale])
    if totals.max() - totals.min() > tol[0]:
        raise RouteResidualError(
            "the fringe route's total intensity varies with the phase: "
            f"{totals.min()!r} to {totals.max()!r}")
    # five-point DFT of the anchors, as coefficients of the trig basis
    weights = np.array([1.0, 2.0, 2.0, 2.0, 2.0])[:, None] / 5.0
    coeffs = weights * (_harmonics(FRINGE_ANCHORS).T @ anchors)
    residual = np.abs(_harmonics(HELD_OUT_PHASE) @ coeffs - held_out)
    if np.any(residual > tol):
        raise RouteResidualError(
            f"the fringe route at the held-out phase {HELD_OUT_PHASE} "
            "differs from its five-anchor fill by "
            f"{', '.join(f'{r:.3e}' for r in residual)} "
            "(intensity_c, intensity_d, coincidence)")
    # a record within the tolerance of 0, such as a dark port, is 0 (not
    # rounding noise, nor -0)
    filled = _harmonics(phases) @ coeffs
    filled[np.abs(filled) <= tol] = 0.0
    return [FringeRecord(phase=float(phi), intensity_c=float(ic),
                         intensity_d=float(id_), coincidence=float(cc))
            for phi, (ic, id_, cc) in zip(phases, filled)]


def visibility(records: Sequence[FringeRecord]) -> float:
    """(Imax - Imin)/(Imax + Imin) of intensity_c from a least-squares
    cosine fit A + B cos(phi) + C sin(phi).

    The fit makes the result robust to phase-grid granularity; for
    balanced channels it equals |g1|.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 fringe records to fit")
    phases = np.array([r.phase for r in records])
    if phases.max() - phases.min() < np.pi:
        raise ValueError("fringe records should span at least one period")
    intensity = np.array([r.intensity_c for r in records])
    design = np.column_stack(
        [np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, intensity, rcond=None)
    if rank < 3:
        raise ValueError("degenerate phase grid; cosine fit is underdetermined")
    mean, amp = coeffs[0], float(np.hypot(coeffs[1], coeffs[2]))
    if mean <= DEGENERACY_FLOOR:
        raise DegenerateStateError(
            "mean output intensity is numerically zero; no fringe to fit")
    return amp / mean


def analytic_visibility(moments: CoherenceMoments) -> float:
    """2|m12|/(n1+n2): the fringe contrast implied by the moments alone.

    Coincides with |g1| when the channels are balanced (n1 = n2); for
    unbalanced channels this is the quantity a scan actually produces, so
    report it alongside |g1| rather than guessing which one is meant.
    """
    total = moments.n1 + moments.n2
    if total <= DEGENERACY_FLOOR:
        raise DegenerateStateError("state carries no photons")
    return 2 * abs(moments.m12) / total
