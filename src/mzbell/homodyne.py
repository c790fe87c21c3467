"""Homodyne Bell experiment: modulation depth, CHSH, local-realism verdict.

Each signal channel is mixed with a coherent local oscillator on a 50:50
beamsplitter; the observable is the modulation depth
E = <D1 D2>/<S1 S2> built from photon-number differences and sums at the
two detector pairs. E reduces to a two-frequency fringe in the oscillator
phases whose leading coefficient, at the optimal oscillator amplitudes, is
C1 = |g1|/(1 + sqrt(g2)). Local realism bounds the CHSH combination of
four E values by 2, which C1^2 + C2^2 <= 1/2 guarantees; C1 > 1/sqrt(2)
therefore certifies a violation from interference visibility and
coincidence rate alone.

Three independent computation routes for E cross-validate one another and
are kept deliberately separate:
- ``unitary`` applies each pair's beamsplitter blocks, built per call,
  and weights the output photon numbers, reduced to two small Gram
  matrices per pair, so no four-mode state is formed;
- ``input_operator`` evaluates the equivalent input-side operator forms
  on the product input a1 x a2 x b1 x b2, with no transform: each of six
  correlators is a signal expectation times one sum per oscillator row
  (the other two of its eight are the conjugates of two of them);
- the analytic moment formula needs only the five channel moments.

On both numeric routes an oscillator phase is an exact rotation, so E at
fixed oscillator amplitudes is a two-frequency fringe in the phases:
``numeric_fringe_coefficients`` reads its coefficients off four route
evaluations and checks them against a fifth, pointwise one. A whole E grid
then costs five route evaluations, not one per grid point, and all five
go to the route in one call: each oscillator is built once and rotated
to every phase.

The CHSH maximum of the fringe, 2 sqrt(2) sqrt(c1^2 + c2^2), and its
angles come in closed form from a 2x2 singular value decomposition.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .coherence import (DEGENERACY_FLOOR, ROUTE_RESIDUAL_TOL,
                        CoherenceMoments, classical_margin, g1, g2)
from .errors import (DegenerateDenominatorError, DegenerateStateError,
                     RouteResidualError)
from .fock import QuantumState

# sqrt(0.5) is the correctly rounded double for 1/sqrt(2); dividing by
# sqrt(2) lands one ulp low and misclassifies the exact boundary probe
BELL_BOUND_C1 = math.sqrt(0.5)
#: Oscillator scale used for numeric E when the optimum is a limit point;
#: bias in E is O(beta^2) ~ 1e-4.
DEGENERATE_BETA_SCALE = 1e-2
_TWO_PI = 2.0 * math.pi
#: Angle pair (rad) evaluated pointwise to check numeric fringe
#: coefficients: neither an anchor nor a point of any 2 pi k/grid grid.
HELD_OUT_ANGLES = (1.0, 2.0)
#: Largest oscillator amplitude whose square is a finite float.
BETA_LIMIT = math.sqrt(sys.float_info.max)


def _check_beta(beta: float) -> None:
    """Refuse an oscillator amplitude that is negative, not finite, or so
    large that its square overflows."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if beta > BETA_LIMIT:
        raise ValueError(f"beta must be at most {BETA_LIMIT!r}, or its "
                         f"square overflows, got {beta!r}")


@dataclass(frozen=True)
class LocalOscillator:
    """Coherent local oscillator with real amplitude and phase."""

    beta: float
    theta: float

    def __post_init__(self):
        _check_beta(self.beta)
        object.__setattr__(self, "theta", float(self.theta) % _TWO_PI)

    @property
    def alpha(self) -> complex:
        return self.beta * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class FringeCoefficients:
    """Amplitudes/offsets of E = c1 cos(t1 - t2 + phi1) + c2 cos(t1 + t2 + phi2).

    phi1 = arg<a1^dag a2>. phi2 carries arg<a1^dag a2^dag> plus a pi offset
    that absorbs the minus sign of the sum-frequency term, so the trig form
    reproduces the moment formula exactly.
    """

    c1: float
    phi1: float
    c2: float
    phi2: float

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("fringe coefficients must be non-negative")
        if self.c1 + self.c2 > 1.0 + 1e-9:
            raise ValueError(
                f"c1 + c2 = {self.c1 + self.c2!r} exceeds the unit bound "
                "on the modulation depth")


@dataclass(frozen=True)
class DegenerateLimit:
    """Marker for states with <n1 n2> = 0: the optimal oscillator product
    is zero, so the optimum is approached as the common scale -> 0+ with
    beta1/beta2 fixed at ``ratio``."""

    ratio: float


@dataclass(frozen=True)
class ChshResult:
    b_value: float
    angles: tuple[float, float, float, float]


@dataclass(frozen=True)
class Verdict:
    """All inequality diagnostics for one state.

    c2, thw_sum and coeffs (the input of :func:`maximize_chsh`) are None
    when only (|g1|, g2) were measured. A Bell violation implies a
    classical-field violation; the converse fails.
    """

    g1_mag: float
    g2: float
    c1: float
    c2: float | None
    thw_sum: float | None
    bell_margin: float
    tg_margin: float
    violates_bell: bool
    violates_classical: bool
    coeffs: FringeCoefficients | None


def _dd_ss_unitary(state_a: QuantumState, b1: np.ndarray,
                   b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<D1 D2>, <S1 S2> from the output photon numbers of the two
    beamsplitters, pair (a_k, b_k) at a time, for each row p of the
    oscillator batches b1, b2.

    Detectors c_k/d_k are the a_k/b_k outputs of pair k. Each pair's
    output weights (difference or sum) reduce to Gram matrices G_k on a_k
    (``fock.output_number_grams``), so for each signal component S, a
    matrix over (n1, n2), a correlator is Tr[G_1 S conj(G_2) S^dag]. No
    four-mode state is formed.
    """
    # (G_D, G_S) of each pair over the rows p, refused before comps exist
    pairs = zip(*fock.output_number_grams(state_a, (b1, b2)))
    comps = state_a.tensorized()
    return tuple(np.array([np.vdot(comps, g1 @ comps @ g2.conj()).real
                           for g1, g2 in zip(*grams)]) for grams in pairs)


def _dd_ss_input_operator(state_a: QuantumState, b1: np.ndarray,
                          b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same two correlators evaluated directly on the input state
    a1 x a2 x b1 x b2 via D_k = i(a_k^dag b_k - a_k b_k^dag) and
    S_k = a_k^dag a_k + b_k^dag b_k, for each row p of the oscillator
    batches. <D1 D2> and <S1 S2> expand to eight correlators, of which two
    are the complex conjugates of two others, as <X^dag> = conj<X> on any
    state. The input is the product rho_a x |b1><b1| x |b2><b2|, so each
    of the other six is a signal factor times one factor per oscillator:
    the six signal factors come from one ``fock.expectations`` call on the
    two-mode state, and each oscillator's <b^dag b>, <b> and <1> per row
    from ``fock.row_expectations`` (<b^dag> = conj<b>). No four-mode sum
    is formed."""
    up, down, num, none = (1, 0), (0, 1), (1, 1), (0, 0)
    n1n2, pairs, norm, n1, m12, n2 = fock.expectations(
        state_a, [[num, num], [up, up], [none, none], [num, none],
                  [up, down], [none, num]])
    (num1, low1, one1), (num2, low2, one2) = (
        [fock.row_expectations(rows, *powers) for powers in (num, down, none)]
        for rows in (b1, b2))
    s1, s4 = n1n2 * one1 * one2, norm * num1 * num2
    s2, s3 = n1 * one1 * num2, n2 * num1 * one2
    # <a1^dag a2^dag b1 b2> and <a1^dag a2 b1 b2^dag>; their conjugates are
    # <a1 a2 b1^dag b2^dag> and <a1 a2^dag b1^dag b2>
    d1, d2 = pairs * low1 * low2, m12 * low1 * low2.conj()
    d4, d3 = d1.conj(), d2.conj()
    return -(d1 - d2 - d3 + d4).real, (s1 + s2 + s3 + s4).real


def _dd_ss(state_a: QuantumState, beta1: float, beta2: float,
           angles: Sequence[tuple[float, float]], route: str,
           tail_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """<D1 D2> and <S1 S2> by one route, for the signal state a1 x a2 with
    oscillator b_k of amplitude beta_k in front of detector pair k, at
    each (theta1, theta2) of ``angles``, as two arrays over the pairs.

    Each oscillator is built once, as ``fock.coherent_state(beta_k)``, and
    explicitly rotated to every theta_k: row p is b_k[n] e^{i n theta_k}.
    The route takes both batches in one call.
    """
    if state_a.system.mode_count != 2:
        raise ValueError("state_a must be a two-mode (signal-channel) state")
    if route not in ("unitary", "input_operator"):
        raise ValueError(f"unknown route {route!r}")
    evaluate = _dd_ss_unitary if route == "unitary" else _dd_ss_input_operator
    rows = []
    for beta, thetas in zip((beta1, beta2), np.transpose(angles)):
        b = fock.coherent_state(LocalOscillator(beta, 0.0).alpha,
                                tail_eps).vector
        rows.append(b * np.exp(1j * np.outer(thetas, np.arange(len(b)))))
    dd, ss = evaluate(state_a, *rows)
    if ss.min() <= 1e-15:
        raise DegenerateDenominatorError(f"<S1 S2> = {ss.min():.3e}: no joint "
                                         "signal, modulation depth undefined")
    return dd, ss


def numeric_fringe_coefficients(state_a: QuantumState, beta1: float,
                                beta2: float, route: str, *,
                                tail_eps: float = fock.DEFAULT_TAIL_EPS
                                ) -> FringeCoefficients:
    """Trig-form coefficients of the numeric E at the given oscillator
    amplitudes, from four route evaluations, checked against a fifth.

    Each term of <D1 D2> holds one b1 or b1^dag and one b2 or b2^dag, and
    an oscillator phase is a rotation diagonal in photon number (exact on
    the truncated oscillator), so <D1 D2> = Re[X e^{i(t1-t2)} +
    Y e^{i(t1+t2)}] and <S1 S2> does not depend on the angles. The anchor
    pairs (0, 0), (pi/2, 0), (0, pi/2) and (pi/2, pi/2) determine X and Y.
    One more pointwise evaluation at the held-out pair ``HELD_OUT_ANGLES``
    must then agree with the trig form to ``ROUTE_RESIDUAL_TOL``, and all
    five <S1 S2> to that relative tolerance; otherwise
    :class:`RouteResidualError` is raised. All five pairs go to the route
    in one :func:`_dd_ss` call, each on its own rotated oscillators.
    """
    half_pi = 0.5 * math.pi
    anchors = [(0.0, 0.0), (half_pi, 0.0), (0.0, half_pi), (half_pi, half_pi)]
    dds, sums = _dd_ss(state_a, beta1, beta2, anchors + [HELD_OUT_ANGLES],
                       route, tail_eps)
    (d00, dp0, d0p, dpp, dd), sums = dds.tolist(), sums.tolist()
    s00, sp0, s0p, spp, ss = sums
    if max(sums) - min(sums) > ROUTE_RESIDUAL_TOL * max(sums):
        raise RouteResidualError(
            f"<S1 S2> varies with the oscillator phases on the {route} "
            f"route: {min(sums)!r} to {max(sums)!r}")
    s = (s00 + sp0 + s0p + spp) / 4.0
    x = complex(d00 + dpp, d0p - dp0) / (2.0 * s)
    y = complex(d00 - dpp, -(dp0 + d0p)) / (2.0 * s)
    coeffs = FringeCoefficients(c1=abs(x), phi1=cmath.phase(x),
                                c2=abs(y), phi2=cmath.phase(y))
    residual = abs(dd / ss - fringe_e(coeffs, *HELD_OUT_ANGLES))
    if residual > ROUTE_RESIDUAL_TOL:
        raise RouteResidualError(
            f"the {route} route's E at the held-out angles "
            f"{HELD_OUT_ANGLES} differs from its four-anchor trig form "
            f"by {residual:.3e}")
    return coeffs


def modulation_depth_analytic(moments: CoherenceMoments, beta1: float,
                              beta2: float, theta1, theta2):
    """E from the five channel moments at oscillator amplitudes beta_k and
    phases theta_k. The phases may be arrays of one shape, as E is then
    evaluated at each pair; the amplitudes are checked first, and the
    denominator, which does not depend on the phases, next.

    Numerator and denominator are the closed forms obtained by inserting
    the input-operator expressions into coherent-state expectations; the
    numerator bracket is a sum of conjugate pairs and therefore real.
    """
    for beta in (beta1, beta2):
        _check_beta(beta)
    den = (moments.n1n2 + moments.n1 * beta2 ** 2 + moments.n2 * beta1 ** 2
           + beta1 ** 2 * beta2 ** 2)
    # beta1^2 beta2^2 overflows from beta ~ 1.16e77 on, before the bound
    if not math.isfinite(den):
        raise ValueError(f"modulation-depth denominator overflows at beta1 = "
                         f"{beta1!r}, beta2 = {beta2!r}")
    if den <= 1e-15:
        raise DegenerateDenominatorError(
            f"modulation-depth denominator {den:.3e} vanishes")
    diff = theta1 - theta2
    total = theta1 + theta2
    # Re[m12 e^{i diff}] and Re[conj(anom) e^{i total}], each formed from
    # real products as a scalar complex product forms it
    m12, anom = moments.m12, moments.anom.conjugate()
    bracket = 2.0 * (m12.real * np.cos(diff) - m12.imag * np.sin(diff)) \
        - 2.0 * (anom.real * np.cos(total) - anom.imag * np.sin(total))
    return beta1 * beta2 * bracket / den


def optimal_lo_amplitudes(moments: CoherenceMoments):
    """Oscillator amplitudes maximizing the fringe amplitude of E.

    Returns (beta1, beta2) with beta1*beta2 = sqrt(<n1 n2>) and
    beta1/beta2 = sqrt(n1/n2), or a :class:`DegenerateLimit` when
    <n1 n2> = 0 so the optimum is only approached as the scale -> 0+.
    """
    if moments.n1 <= DEGENERACY_FLOOR or moments.n2 <= DEGENERACY_FLOOR:
        raise DegenerateStateError("optimal amplitudes need both channels lit")
    ratio = math.sqrt(moments.n1 / moments.n2)
    if moments.n1n2 <= DEGENERACY_FLOOR:
        return DegenerateLimit(ratio=ratio)
    scale = math.sqrt(math.sqrt(moments.n1n2))
    return scale * math.sqrt(ratio), scale / math.sqrt(ratio)


def lo_pair_for(moments: CoherenceMoments) -> tuple[float, float]:
    """(beta1, beta2) at the optimal amplitudes, falling back to the small
    common scale ``DEGENERATE_BETA_SCALE`` (ratio preserved) for
    degenerate-limit states."""
    betas = optimal_lo_amplitudes(moments)
    if isinstance(betas, DegenerateLimit):
        root = math.sqrt(betas.ratio)
        return DEGENERATE_BETA_SCALE * root, DEGENERATE_BETA_SCALE / root
    return betas


def fringe_coefficients_at(moments: CoherenceMoments, beta1: float,
                           beta2: float) -> FringeCoefficients:
    """Trig-form coefficients of E at the given oscillator amplitudes."""
    for beta in (beta1, beta2):
        _check_beta(beta)
    den = (moments.n1n2 + moments.n1 * beta2 ** 2 + moments.n2 * beta1 ** 2
           + beta1 ** 2 * beta2 ** 2)
    # beta1^2 beta2^2 overflows from beta ~ 1.16e77 on, before the bound
    if not math.isfinite(den):
        raise ValueError(f"modulation-depth denominator overflows at beta1 = "
                         f"{beta1!r}, beta2 = {beta2!r}")
    if den <= 1e-15:
        raise DegenerateDenominatorError(
            f"modulation-depth denominator {den:.3e} vanishes")
    prefactor = beta1 * beta2 / den
    return FringeCoefficients(
        c1=2.0 * prefactor * abs(moments.m12),
        phi1=cmath.phase(moments.m12),
        c2=2.0 * prefactor * abs(moments.anom),
        phi2=(math.pi - cmath.phase(moments.anom)) % _TWO_PI)


def fringe_coefficients(moments: CoherenceMoments) -> FringeCoefficients:
    """Coefficients at the optimal oscillator amplitudes.

    c1 = |g1|/(1 + sqrt(g2)); c2 = |<a1 a2>|/(sqrt(n1 n2) (1 + sqrt(g2))),
    the analogous closed form for the sum-frequency term. Both are exact
    limits for <n1 n2> = 0 states, where finite-amplitude evaluation would
    carry an O(beta^2) bias.
    """
    gg2 = g2(moments)
    if gg2 < 0.0:
        gg2 = 0.0
    root = math.sqrt(moments.n1 * moments.n2) * (1.0 + math.sqrt(gg2))
    return FringeCoefficients(
        c1=abs(moments.m12) / root,
        phi1=cmath.phase(moments.m12),
        c2=abs(moments.anom) / root,
        phi2=(math.pi - cmath.phase(moments.anom)) % _TWO_PI)


def fringe_e(coeffs: FringeCoefficients, theta1, theta2):
    """E(theta1, theta2) in trig form, at each pair if the angles are
    arrays of one shape."""
    return (coeffs.c1 * np.cos(theta1 - theta2 + coeffs.phi1)
            + coeffs.c2 * np.cos(theta1 + theta2 + coeffs.phi2))


#: (source slot, half turns added) per slot of (t1, t1', t2, t2') for the
#: relabelings on which B is the same; each also holds with a half turn
#: added to all four angles.
_CHSH_RELABELINGS = (((0, 0), (1, 0), (2, 0), (3, 0)),
                     ((0, 0), (1, 1), (3, 0), (2, 0)),
                     ((1, 0), (0, 0), (2, 0), (3, 1)),
                     ((1, 1), (0, 0), (3, 0), (2, 1)))


def maximize_chsh(coeffs: FringeCoefficients) -> ChshResult:
    """Maximum of B over the four analyzer angles, in closed form.

    E = a^T M b with a = (cos t1, sin t1), b = (cos t2, sin t2) and a 2x2 M
    of singular values s1 = c1 + c2, s2 = |c1 - c2|, so B_max =
    2 sqrt(s1^2 + s2^2) = 2 sqrt(2) hypot(c1, c2) (Horodecki^3, Phys. Lett.
    A 200, 340 (1995)). It is reached at a = u1, a' = u2 and b, b' =
    cos(chi) v1 +- sin(chi) v2 with tan(chi) = s2/s1: t1 = -sigma,
    t1' = t1 + pi/2 (- pi/2 if c1 < c2) and t2, t2' = rho +- chi, where
    sigma, rho = (phi1 +- phi2)/2. Of the eight relabelings of that set, the
    lexicographically smallest in [0, 2 pi) is returned, so tied optima
    cannot flip; it jumps only where sigma crosses a multiple of pi/2.
    If c1 = c2, chi = 0 and b = b'. If c1 or c2 is 0, the other term's
    phase is meaningless and is set to put t1 at 0; if both are, B = 0
    and all four angles are 0.
    """
    c1, phi1, c2, phi2 = coeffs.c1, coeffs.phi1, coeffs.c2, coeffs.phi2
    b_value = 2.0 * math.sqrt(2.0) * math.hypot(c1, c2)
    if c1 == 0.0 and c2 == 0.0:
        return ChshResult(b_value=b_value, angles=(0.0, 0.0, 0.0, 0.0))
    if c1 == 0.0:
        phi1 = -phi2
    elif c2 == 0.0:
        phi2 = -phi1
    sigma, rho = 0.5 * (phi1 + phi2), 0.5 * (phi1 - phi2)
    chi = math.atan2(abs(c1 - c2), c1 + c2)
    quarter = 0.5 * math.pi if c1 >= c2 else -0.5 * math.pi
    angles = (-sigma, quarter - sigma, rho + chi, rho - chi)
    # each candidate is an input angle plus 0 or pi, so ties are exact; the
    # second % maps the 2 pi that a tiny negative angle rounds to onto 0
    return ChshResult(b_value=b_value, angles=min(
        tuple((angles[i] + (turns + shift) % 2 * math.pi) % _TWO_PI % _TWO_PI
              for i, turns in relabeling)
        for relabeling in _CHSH_RELABELINGS for shift in (0, 1)))


def local_realism_verdict(moments: CoherenceMoments) -> Verdict:
    """Full verdict from channel moments: all margins plus the two flags.

    Violations are strict inequalities; boundary states report False with
    a zero margin.
    """
    g1_mag = abs(g1(moments))
    gg2 = g2(moments)
    tg = classical_margin(g1_mag, gg2)
    coeffs = fringe_coefficients(moments)
    return Verdict(
        g1_mag=g1_mag,
        g2=gg2,
        c1=coeffs.c1,
        c2=coeffs.c2,
        thw_sum=coeffs.c1 ** 2 + coeffs.c2 ** 2,
        bell_margin=BELL_BOUND_C1 - coeffs.c1,
        tg_margin=tg,
        violates_bell=coeffs.c1 > BELL_BOUND_C1,
        violates_classical=tg < 0.0,
        coeffs=coeffs,
    )


def criterion_from_measurements(g1_mag: float, g2_value: float) -> Verdict:
    """Verdict from an interference visibility and a coincidence rate
    alone. c2 is unknown and reported as absent."""
    if not 0.0 <= g1_mag <= 1.0:
        raise ValueError(f"g1 magnitude must lie in [0, 1], got {g1_mag!r}")
    if not 0.0 <= g2_value < math.inf:
        raise ValueError(f"g2 must be finite and >= 0, got {g2_value!r}")
    c1 = g1_mag / (1.0 + math.sqrt(g2_value))
    tg = classical_margin(g1_mag, g2_value)
    return Verdict(
        g1_mag=float(g1_mag),
        g2=float(g2_value),
        c1=c1,
        c2=None,
        thw_sum=None,
        bell_margin=BELL_BOUND_C1 - c1,
        tg_margin=tg,
        violates_bell=c1 > BELL_BOUND_C1,
        violates_classical=tg < 0.0,
        coeffs=None,
    )


def violation_thresholds() -> tuple[float, float]:
    """(g1 minimum, g2 maximum) for any Bell violation to be possible:
    (1/sqrt(2), (sqrt(2)-1)^2)."""
    return BELL_BOUND_C1, (math.sqrt(2.0) - 1.0) ** 2
