"""First/second-order coherence and the Mach-Zehnder fringe experiment.

The five channel moments <a1^dag a2>, <a1 a2>, <n1>, <n2>, <n1 n2> drive
every analytic formula downstream: g1, g2, the classical-field bound, the
homodyne fringe coefficients. The Mach-Zehnder scan recombines the two
channels on a 50:50 beamsplitter after a relative phase shift and reads
output intensities and coincidences, which for balanced channels measures
|g1| directly as the fringe visibility.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .errors import DegenerateStateError
from .fock import QuantumState

#: n1*n2 below this is treated as a vacuum channel, not a tiny intensity.
DEGENERACY_FLOOR = 1e-15


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


def titulaer_glauber_margin(moments: CoherenceMoments) -> float:
    """g2 - |g1|^2. Negative means no classical stochastic field can
    reproduce the pair (interference plus anticorrelation)."""
    return g2(moments) - abs(g1(moments)) ** 2


@dataclass(frozen=True)
class FringeRecord:
    """One Mach-Zehnder phase point: output intensities and coincidence."""

    phase: float
    intensity_c: float
    intensity_d: float
    coincidence: float


def fringe_scan(state: QuantumState,
                phases: Sequence[float]) -> list[FringeRecord]:
    """Scan the interferometer phase and record both output channels.

    For each phase the first channel is delayed by phi, the channels are
    recombined on the 50:50 beamsplitter, and the output mean photon
    numbers plus the coincidence <c^dag d^dag d c> are recorded; the three
    terms of a phase go to one batched call, which lowers each once. The
    state is padded beforehand so the recombiner acts without leakage, and
    the recombiner's sector plan is made once per scan, not per phase.
    """
    if state.system.mode_count != 2:
        raise ValueError("fringe_scan expects a two-mode state")
    padded = fock.pad_for_beamsplitter(state, 0, 1)
    records = []
    for phi, out in zip(phases,
                        fock.beamsplitter_after_phases(padded, 0, 1, phases)):
        ic, id_, cc = (value.real for value in fock.expectations(
            out, [[(1, 1), (0, 0)], [(0, 0), (1, 1)], [(1, 1), (1, 1)]]))
        records.append(FringeRecord(phase=float(phi), intensity_c=ic,
                                    intensity_d=id_, coincidence=cc))
    return records


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


def phase_of_coherence(moments: CoherenceMoments) -> float:
    """arg <a1^dag a2>, the fringe phase offset."""
    return cmath.phase(moments.m12)
