"""First/second-order coherence and the Mach-Zehnder fringe experiment.

The five channel moments <a1^dag a2>, <a1 a2>, <n1>, <n2>, <n1 n2> drive
every analytic formula downstream: g1, g2, the classical-field bound, the
homodyne fringe coefficients. The Mach-Zehnder scan recombines the two
channels on a 50:50 beamsplitter after a relative phase shift and reads
output intensities and coincidences, which for balanced channels measures
|g1| directly as the fringe visibility.

The three fringe records are a closed form in eight normal-ordered
moments of the input: the channel moments and the three fourth-order
moments <a1^dag^2 a1^2>, <a2^dag^2 a2^2> and <a1^dag^2 a2^2>.
``fringe_moments`` reads all eight in one batched ``fock.expectations``
call, and ``fringe_scan`` fills any number of phases from them, with no
beamsplitter applied.

Both readers also take a catalog state as its weighted parts
(``catalog.resolve``) and sum the parts' moments by weight. A two-mode
part is read as a two-mode state. A single-mode input split against
vacuum is read from three moments of its own, <n>, <a^2> and
<a^dag^2 a^2>, in one call, and its split is never built: on
normal-ordered moments the outputs act as a1 = a/sqrt(2) and
a2 = i a/sqrt(2), as the vacuum port contributes nothing, so
n1 = n2 = <n>/2, m12 = i<n>/2, anom = i<a^2>/2 and
n1n2 = pairs1 = pairs2 = -cross = <a^dag^2 a^2>/4. Hence |g1| = 1 for any
split single-mode input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import fock
from .errors import DegenerateStateError
from .fock import QuantumState

#: n1*n2 below this is treated as a vacuum channel, not a tiny intensity.
DEGENERACY_FLOOR = 1e-15
#: Largest residual between a pointwise evaluation of a numeric route and
#: the trig form fitted from its anchors, of E (absolute) and <S1 S2>
#: (relative) in ``homodyne``. Here, a fringe record within it of 0,
#: relative to the total intensity (its square for the coincidence), is 0.
ROUTE_RESIDUAL_TOL = 1e-12
_NUM, _NONE = (1, 1), (0, 0)
#: The channel moments n1, m12, n2, anom, n1n2 as normal-ordered terms, one
#: (creation, annihilation) power pair per mode.
_CHANNEL_TERMS = [[_NUM, _NONE], [(1, 0), (0, 1)], [_NONE, _NUM],
                  [(0, 1), (0, 1)], [_NUM, _NUM]]
#: <a1^dag^2 a1^2>, <a2^dag^2 a2^2> and <a1^dag^2 a2^2>.
_PAIR_TERMS = [[(2, 2), _NONE], [_NONE, (2, 2)], [(2, 0), (0, 2)]]
#: <n>, <a^2> and <a^dag^2 a^2> of a single-mode input.
_INPUT_TERMS = [[_NUM], [(0, 2)], [(2, 2)]]
#: A two-mode state, or weighted parts (weight, state, split) whose state
#: is a two-mode one, or a single-mode input to split if ``split``.
Source = Union[QuantumState, Sequence[tuple[float, QuantumState, bool]]]


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


def _split_values(state: QuantumState) -> list:
    """The values of ``_CHANNEL_TERMS + _PAIR_TERMS`` on a single-mode
    input split against vacuum, from three moments of the input in one
    batched ladder call (module docstring); no real part is -0."""
    number, square, pairs = fock.expectations(state, _INPUT_TERMS)
    half, quarter = number.real / 2, pairs.real / 4
    anom = complex((0.0 - square.imag) / 2, square.real / 2)
    return [half, complex(0.0, half), half, anom, quarter, quarter, quarter,
            complex(0.0 - quarter)]


def _read(source: Source, terms: list) -> list:
    """The values of ``terms``, a prefix of ``_CHANNEL_TERMS +
    _PAIR_TERMS``, on a two-mode state, or summed by weight over parts,
    one batched ladder call per part of nonzero weight."""
    parts = ([(1.0, source, False)] if isinstance(source, QuantumState)
             else source)
    total = None
    for weight, state, split in parts:
        if weight == 0.0:
            continue
        if split:
            values = _split_values(state)[:len(terms)]
        elif state.system.mode_count != 2:
            raise ValueError("need a two-mode (two-channel) state")
        else:
            values = fock.expectations(state, terms)
        if weight != 1.0:
            values = [weight * value for value in values]
        total = values if total is None else [
            t + value for t, value in zip(total, values)]
    return total


def _channel(n1, m12, n2, anom, n1n2) -> CoherenceMoments:
    return CoherenceMoments(m12=m12, anom=anom, n1=n1.real, n2=n2.real,
                            n1n2=n1n2.real)


def compute_moments(source: Source) -> CoherenceMoments:
    """All five moments of the two channels of a two-mode state, or of the
    state of weighted parts, by ladder arithmetic in one batched call per
    part."""
    return _channel(*_read(source, _CHANNEL_TERMS))


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


@dataclass(frozen=True)
class FringeRecord:
    """One Mach-Zehnder phase point: output intensities and coincidence."""

    phase: float
    intensity_c: float
    intensity_d: float
    coincidence: float


@dataclass(frozen=True)
class FringeMoments:
    """The eight moments a Mach-Zehnder scan reads: the channel moments,
    and pairs1 = <a1^dag^2 a1^2>, pairs2 = <a2^dag^2 a2^2>,
    cross = <a1^dag^2 a2^2>."""

    channel: CoherenceMoments
    pairs1: float
    pairs2: float
    cross: complex


def fringe_moments(source: Source) -> FringeMoments:
    """The eight fringe moments of a two-mode state, or of the state of
    weighted parts, in one batched ladder call per part. Each term is
    evaluated on its own, so ``channel`` equals :func:`compute_moments`
    bit for bit."""
    *channel, pairs1, pairs2, cross = _read(source,
                                           _CHANNEL_TERMS + _PAIR_TERMS)
    return FringeMoments(channel=_channel(*channel), pairs1=pairs1.real,
                         pairs2=pairs2.real, cross=cross)


def fringe_scan(state: QuantumState | FringeMoments,
                phases: Sequence[float]) -> list[FringeRecord]:
    """Scan the interferometer phase and record both output channels.

    At a phase phi the first channel is delayed by phi and the channels
    are recombined on the 50:50 beamsplitter, so the outputs are
    c = (e^{i phi} a1 + i a2)/sqrt(2) and d = (i e^{i phi} a1 + a2)/sqrt(2).
    Their mean photon numbers are (n1 + n2)/2 +- Re(i e^{-i phi} m12). In
    the coincidence <c^dag d^dag d c> the cross terms cancel, as
    d c = i (e^{2 i phi} a1^2 + a2^2)/2, leaving
    (pairs1 + pairs2)/4 + Re(e^{-2 i phi} cross)/2. Every requested phase
    is filled from the eight moments (:func:`fringe_moments`, read here
    unless ``state`` is already a :class:`FringeMoments`). A record within
    ``ROUTE_RESIDUAL_TOL`` times n1 + n2 of 0 (its square for the
    coincidence), such as a dark port, is returned as 0: not rounding
    noise, nor -0.
    """
    moments = (state if isinstance(state, FringeMoments)
               else fringe_moments(state))
    m = moments.channel
    angles = np.asarray(phases, dtype=np.float64)
    total = m.n1 + m.n2
    swing = m.m12.real * np.sin(angles) - m.m12.imag * np.cos(angles)
    coincidence = 0.25 * (moments.pairs1 + moments.pairs2) + 0.5 * (
        moments.cross.real * np.cos(2.0 * angles)
        + moments.cross.imag * np.sin(2.0 * angles))
    filled = np.stack([0.5 * total + swing, 0.5 * total - swing,
                       coincidence], axis=-1)
    tol = ROUTE_RESIDUAL_TOL * np.array([total, total, total * total])
    filled[np.abs(filled) <= tol] = 0.0
    return [FringeRecord(phase=float(phi), intensity_c=float(ic),
                         intensity_d=float(id_), coincidence=float(cc))
            for phi, (ic, id_, cc) in zip(phases, filled)]


def visibility(records: Sequence[FringeRecord]) -> float:
    """(Imax - Imin)/(Imax + Imin) of intensity_c from a least-squares
    cosine fit A + B cos(phi) + C sin(phi).

    The fit makes the result robust to phase-grid granularity; for
    balanced channels it equals |g1|. A swing within ``ROUTE_RESIDUAL_TOL``
    times the mean, such as a flat fringe's rounding noise, gives 0.
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
    return 0.0 if amp <= ROUTE_RESIDUAL_TOL * mean else amp / mean


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
