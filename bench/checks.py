"""Output checks computed apart from the program.

Every expected value is derived here from the op's family and parameters:
closed-form channel moments for the split families, explicit dense ladder
matrices for ``pure_explicit``, and the textbook formulas for g1, g2, C1,
the Mach-Zehnder fringe and the modulation depth. No check compares
against saved program output.

Closed forms. Sending a single-mode input with <a^dag a> = N,
<a^dag^2 a^2> = G and <a^2> = A through the splitting beamsplitter
(a^dag -> (a1^dag + i a2^dag)/sqrt 2, vacuum in the other port) gives

    n1 = n2 = N/2,  n1n2 = G/4,  m12 = <a1^dag a2> = i N/2,
    anom = <a1 a2> = i A/2,

so split |n> has n1n2 = n(n-1)/4, split thermal n1n2 = nbar^2/2 and
anom = 0, split coherent n1n2 = |alpha|^4/4 and |m12| = |anom| =
|alpha|^2/2. Mixtures are linear in these.

Truncation. The program cuts coherent and thermal inputs where their
photon-number tail falls below 1e-12 and renormalizes. That moves a
moment by up to about 1e-9 absolute (``anom`` at |alpha| = 0.1), far more
than rounding does, but only on weak states. So each state's moments are
also derived cut at the earliest cutoff that tail allows (``edge``). The
program may cut there or later, so its values lie between the untruncated
closed form and the edge values. Every check allows that gap, computed
for the quantity it checks, plus ``RTOL`` relative and ``ATOL`` absolute.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from workloads import BOUNDARY_FAULT, TAIL_EPS

#: Relative and absolute tolerance on every checked value, beyond the
#: truncation gap.
RTOL = 1e-9
ATOL = 1e-10
#: Numeric and analytic modulation depth must agree this closely.
E_ATOL = 1e-8
#: The CHSH optimizer is accurate to this.
CHSH_ATOL = 1e-5

BELL_BOUND_C1 = math.sqrt(0.5)
#: Families whose closed form lies exactly on the classical boundary
#: g2 = |g1|^2, which ``local_realism_verdict`` documents as not violating.
BOUNDARY_FAMILIES = ("split_coherent", "incoherent_anticorrelated")


class CheckError(AssertionError):
    """An output disagrees with its independently derived value."""


class KnownFault(CheckError):
    """An output shows a named fault of the program, on an op that probes it."""

    def __init__(self, fault: str, detail: str):
        super().__init__(f"{fault}: {detail}")
        self.fault, self.detail = fault, detail


@dataclass(frozen=True)
class Moments:
    m12: complex
    anom: complex
    n1: float
    n2: float
    n1n2: float

    def scaled(self, w: float) -> "Moments":
        return Moments(w * self.m12, w * self.anom, w * self.n1, w * self.n2,
                       w * self.n1n2)

    def __add__(self, other: "Moments") -> "Moments":
        return Moments(self.m12 + other.m12, self.anom + other.anom,
                       self.n1 + other.n1, self.n2 + other.n2,
                       self.n1n2 + other.n1n2)


def _split(mean: float, pair: float, square: complex) -> Moments:
    return Moments(m12=0.5j * mean, anom=0.5j * square, n1=mean / 2,
                   n2=mean / 2, n1n2=pair / 4)


def _alpha(params) -> complex:
    return complex(float(params.get("alpha_re", 0.0)),
                   float(params.get("alpha_im", 0.0)))


def _earliest_cut(probs: list[float]) -> list[float]:
    """``probs[:N + 1]`` for the smallest N whose tail, the sum of
    ``probs[N + 1:]``, is at most ``TAIL_EPS``. ``probs`` must run on
    until what it leaves out is negligible."""
    tail = 0.0
    for n in range(len(probs) - 1, 0, -1):
        tail += probs[n]                 # the tail after n - 1
        if tail > TAIL_EPS:
            return probs[:n + 1]
    return probs[:1]


def _cut_split(probs: list[float], square: complex = 0j) -> Moments:
    """Split moments of an input with photon-number weights ``probs``,
    renormalized. ``square`` is <a^2> of a coherent input; cut at N it
    keeps only the weight of n <= N - 2."""
    total = math.fsum(probs)
    mean = math.fsum(n * p for n, p in enumerate(probs)) / total
    pair = math.fsum(n * (n - 1) * p for n, p in enumerate(probs)) / total
    return _split(mean, pair, square * math.fsum(probs[:-2]) / total)


def _coherent(alpha: complex, edge: bool) -> Moments:
    lam = abs(alpha) ** 2
    if not edge:
        return _split(lam, lam * lam, alpha * alpha)
    probs: list[float] = []
    while len(probs) <= 2 * lam + 1 or probs[-1] > 1e-30:
        n = len(probs)
        probs.append(math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
                     if lam > 0.0 else float(n == 0))
    return _cut_split(_earliest_cut(probs), alpha * alpha)


def _thermal(nbar: float, edge: bool) -> Moments:
    if not edge:
        return _split(nbar, 2 * nbar * nbar, 0.0)
    q = nbar / (1.0 + nbar)
    probs = [1.0 - q]
    while q > 0.0 and probs[-1] > 1e-30:
        probs.append(probs[-1] * q)
    return _cut_split(_earliest_cut(probs))


def _ladder(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)


def dense_moments(cutoffs, amplitudes) -> Moments:
    """Moments of a two-mode pure state from explicit operator matrices."""
    d1, d2 = (int(c) + 1 for c in cutoffs)
    psi = np.array([complex(re, im) for re, im in amplitudes])
    psi = psi / np.linalg.norm(psi)
    a1 = np.kron(_ladder(d1), np.eye(d2))
    a2 = np.kron(np.eye(d1), _ladder(d2))

    def expect(op):
        return complex(psi.conj() @ op @ psi)
    n1op, n2op = a1.conj().T @ a1, a2.conj().T @ a2
    return Moments(m12=expect(a1.conj().T @ a2), anom=expect(a1 @ a2),
                   n1=expect(n1op).real, n2=expect(n2op).real,
                   n1n2=expect(n1op @ n2op).real)


def family_moments(family: str, params: dict, edge: bool = False) -> Moments:
    """Closed-form (or dense-matrix) channel moments of a catalog spec;
    with ``edge``, coherent and thermal inputs cut at the earliest cutoff
    their tail allows."""
    if family == "split_single_photon":
        return _split(1.0, 0.0, 0.0)
    if family == "split_number":
        n = int(params["n"])
        return _split(n, n * (n - 1), 0.0)
    if family == "split_coherent":
        return _coherent(_alpha(params), edge)
    if family == "split_thermal":
        return _thermal(float(params["nbar"]), edge)
    if family == "incoherent_anticorrelated":
        p = float(params["p"])
        return Moments(0j, 0j, p, 1.0 - p, 0.0)
    if family == "noisy_split_photon":
        w = float(params["w"])
        return (_split(1.0, 0.0, 0.0).scaled(w)
                + _coherent(_alpha(params), edge).scaled(1.0 - w))
    if family == "pure_explicit":
        return dense_moments(params["cutoffs"], params["amplitudes"])
    if family == "mixed_ensemble":
        total = Moments(0j, 0j, 0.0, 0.0, 0.0)
        for comp in params["components"]:
            comp = dict(comp)
            weight = float(comp.pop("weight"))
            total = total + family_moments(comp.pop("family"), comp,
                                           edge).scaled(weight)
        return total
    raise ValueError(f"no closed form for family {family!r}")


def _close(what: str, got, want, rtol=RTOL, atol=ATOL):
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


@dataclass(frozen=True)
class Expected:
    """A state's moments untruncated (``ideal``) and cut at the earliest
    cutoff the tail allows (``edge``)."""

    ideal: Moments
    edge: Moments

    @classmethod
    def of(cls, family: str, params: dict) -> "Expected":
        return cls(family_moments(family, params),
                   family_moments(family, params, edge=True))

    def gap(self, f) -> float:
        """How far truncation can move ``f`` of the moments."""
        return abs(f(self.edge) - f(self.ideal))

    def close(self, what: str, got, f, rtol=RTOL, atol=ATOL) -> None:
        """``got`` must be ``f`` of the closed-form moments."""
        _close(what, got, f(self.ideal), rtol, atol + self.gap(f))


def parse_output(text: str) -> tuple[dict[str, str], list[list[float]]]:
    """Split CLI stdout into ``key = value`` lines and CSV data rows."""
    values, rows = {}, []
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            values[key] = value
        elif line and (line[0].isdigit() or line[0] == "-"):
            rows.append([float(x) for x in line.split(",")])
    return values, rows


def _num(values: dict, key: str) -> float:
    if key not in values:
        raise CheckError(f"missing output line {key!r}")
    return float(values[key])


@dataclass(frozen=True)
class Derived:
    """g1, g2 and the optimal-amplitude fringe coefficients."""

    g1_mag: float
    g2: float
    c1: float
    c2: float

    @classmethod
    def of(cls, m: Moments) -> "Derived":
        norm = math.sqrt(m.n1 * m.n2)
        gg2 = m.n1n2 / (m.n1 * m.n2)
        root = norm * (1.0 + math.sqrt(gg2))
        return cls(abs(m.m12) / norm, gg2, abs(m.m12) / root,
                   abs(m.anom) / root)

    @property
    def tg(self) -> float:
        """Margin of the classical bound g2 >= |g1|^2."""
        return self.g2 - self.g1_mag ** 2

    @property
    def b_max(self) -> float:
        """Horodecki maximum of the two-frequency CHSH combination."""
        return 2.0 * math.sqrt(2.0) * math.hypot(self.c1, self.c2)


def _derived(name: str):
    return lambda m: getattr(Derived.of(m), name)


def _chsh_at(m: Moments, t1: float, t1p: float, t2: float,
             t2p: float) -> float:
    """The CHSH combination of the optimal-amplitude correlations."""
    d = Derived.of(m)
    phi1 = cmath.phase(m.m12)
    phi2 = math.pi - cmath.phase(m.anom)

    def e(a, b):
        return d.c1 * math.cos(a - b + phi1) + d.c2 * math.cos(a + b + phi2)
    return e(t1, t2) + e(t1, t2p) + e(t1p, t2) - e(t1p, t2p)


def _check_flag(values, key: str, x: Expected, margin) -> None:
    """``key`` must read true exactly when ``margin`` of the moments is
    positive, wherever truncation and the tolerances settle its sign."""
    value = margin(x.ideal)
    if abs(value) > x.gap(margin) + RTOL + ATOL:
        want = "true" if value > 0 else "false"
        if values.get(key) != want:
            raise CheckError(f"{key}: got {values.get(key)!r}, expected "
                             f"{want!r} (margin {value:.3e})")


def _check_boundary_verdict(op, values) -> None:
    """A state on the classical boundary is documented to read
    ``violates_classical = false``. The known fault reads true with a
    negative margin: an op that probes the fault reports it, any other op
    may show it but nothing else."""
    flag = values.get("violates_classical")
    if flag == "false":
        return
    if flag != "true" or not _num(values, "tg_margin") < 0.0:
        raise CheckError(f"violates_classical: got {flag!r} on a boundary "
                         f"state with tg_margin {values.get('tg_margin')}")
    if op.fault == BOUNDARY_FAULT:
        raise KnownFault(BOUNDARY_FAULT, "violates_classical = true")


def check_analyze(op, stdout: str) -> None:
    values, _ = parse_output(stdout)
    if values.get("state", "").split(" ")[0] != op.family:
        raise CheckError(f"state line {values.get('state')!r}")
    x = Expected.of(op.family, op.params)
    for key in ("n1", "n2", "n1n2"):
        x.close(key, _num(values, key), lambda m: getattr(m, key))
    x.close("m12", complex(_num(values, "m12_re"), _num(values, "m12_im")),
            lambda m: m.m12)
    x.close("anom", complex(_num(values, "anom_re"),
                            _num(values, "anom_im")), lambda m: m.anom)
    g1_mag, g2, c1, c2 = (_num(values, k)
                          for k in ("g1_mag", "g2", "c1", "c2"))
    for key, got in (("g1_mag", g1_mag), ("g2", g2), ("c1", c1),
                     ("c2", c2)):
        x.close(key, got, _derived(key))
    _close("c1 = |g1|/(1+sqrt(g2))", c1, g1_mag / (1.0 + math.sqrt(g2)),
           rtol=1e-12, atol=1e-15)
    x.close("thw_sum", _num(values, "thw_sum"),
            lambda m: Derived.of(m).c1 ** 2 + Derived.of(m).c2 ** 2)
    # g1 and g2 are O(1) ratios, so their difference has an absolute error
    x.close("tg_margin", _num(values, "tg_margin"), _derived("tg"),
            rtol=0.0, atol=RTOL)
    b_max = _num(values, "b_max")
    x.close("b_max (Horodecki)", b_max, _derived("b_max"), rtol=0.0,
            atol=CHSH_ATOL)
    angles = [_num(values, k) for k in
              ("theta1", "theta1_prime", "theta2", "theta2_prime")]
    x.close("B at the reported angles", b_max,
            lambda m: _chsh_at(m, *angles))
    _check_flag(values, "violates_bell", x,
                lambda m: Derived.of(m).c1 - BELL_BOUND_C1)
    if op.family in BOUNDARY_FAMILIES:
        _check_boundary_verdict(op, values)
    else:
        _check_flag(values, "violates_classical", x,
                    lambda m: -Derived.of(m).tg)


def check_fringe(op, stdout: str) -> None:
    values, rows = parse_output(stdout)
    phases = int(op.option("--phases", "64"))
    if len(rows) != phases or any(len(r) != 4 for r in rows):
        raise CheckError(f"expected {phases} fringe rows of 4 columns")
    x = Expected.of(op.family, op.params)

    def total(m):
        return m.n1 + m.n2
    atol = ATOL * max(1.0, total(x.ideal))
    for k, (phase, ic, id_, cc) in enumerate(rows):
        _close(f"phase[{k}]", phase, 2.0 * math.pi * k / phases,
               rtol=1e-14, atol=1e-14)
        x.close(f"intensity_c + intensity_d [{k}]", ic + id_, total,
                atol=atol)
        # output c = (e^{i phi} a1 + i a2)/sqrt 2 after the phase shifter
        # and the recombining beamsplitter; near a dark fringe it is ~0,
        # so it is held to the scale of the total intensity
        x.close(f"intensity_c[{k}]", ic,
                lambda m: total(m) / 2
                + (1j * cmath.exp(-1j * phase) * m.m12).real,
                rtol=0.0, atol=atol + RTOL * total(x.ideal))
        if cc < -atol:
            raise CheckError(f"coincidence[{k}] = {cc!r} is negative")

    def visibility(m):
        return 2.0 * abs(m.m12) / total(m)
    x.close("visibility_fit", _num(values, "visibility_fit"), visibility)
    x.close("visibility_analytic", _num(values, "visibility_analytic"),
            visibility)
    x.close("g1_mag", _num(values, "g1_mag"), _derived("g1_mag"))


def _betas(m: Moments) -> tuple[float, float]:
    """Optimal local-oscillator amplitudes."""
    ratio = math.sqrt(m.n1 / m.n2)
    scale = math.sqrt(math.sqrt(m.n1n2))
    return scale * math.sqrt(ratio), scale / math.sqrt(ratio)


def _bell_den(m: Moments) -> float:
    beta1, beta2 = _betas(m)
    return (m.n1n2 + m.n1 * beta2 ** 2 + m.n2 * beta1 ** 2
            + beta1 ** 2 * beta2 ** 2)


def _modulation_depth(m: Moments, t1: float, t2: float) -> float:
    beta1, beta2 = _betas(m)
    bracket = 2.0 * (m.m12 * cmath.exp(1j * (t1 - t2))).real \
        - 2.0 * (m.anom.conjugate() * cmath.exp(1j * (t1 + t2))).real
    return beta1 * beta2 * bracket / _bell_den(m)


def _bell_c(m: Moments, moment: complex) -> float:
    beta1, beta2 = _betas(m)
    return 2.0 * beta1 * beta2 * abs(moment) / _bell_den(m)


def check_bell(op, stdout: str) -> None:
    values, rows = parse_output(stdout)
    grid = int(op.option("--grid", "24"))
    if len(rows) != grid * grid or any(len(r) != 4 for r in rows):
        raise CheckError(f"expected {grid * grid} grid rows of 4 columns")
    x = Expected.of(op.family, op.params)
    x.close("beta1", _num(values, "beta1"), lambda m: _betas(m)[0])
    x.close("beta2", _num(values, "beta2"), lambda m: _betas(m)[1])
    for k, (t1, t2, e_an, e_num) in enumerate(rows):
        _close(f"theta1[{k}]", t1, 2.0 * math.pi * (k // grid) / grid,
               rtol=1e-14, atol=1e-14)
        _close(f"theta2[{k}]", t2, 2.0 * math.pi * (k % grid) / grid,
               rtol=1e-14, atol=1e-14)
        _close(f"E_numeric - E_analytic [{k}]", e_num, e_an, rtol=0.0,
               atol=E_ATOL)
        # E lies in [-1, 1], so its error is absolute
        x.close(f"E_analytic[{k}]", e_an,
                lambda m: _modulation_depth(m, t1, t2), rtol=0.0, atol=RTOL)

    def c1(m):
        return _bell_c(m, m.m12)

    def c2(m):
        return _bell_c(m, m.anom)
    x.close("c1", _num(values, "c1"), c1)
    x.close("c2", _num(values, "c2"), c2)
    x.close("b_max (Horodecki)", _num(values, "b_max"),
            lambda m: 2.0 * math.sqrt(2.0) * math.hypot(c1(m), c2(m)),
            rtol=0.0, atol=CHSH_ATOL)


CHECKERS = {"analyze": check_analyze, "fringe": check_fringe,
            "bell-scan": check_bell}


def check(op, stdout: str) -> None:
    """Raise CheckError unless ``stdout`` is the right output for ``op``;
    KnownFault when it shows the named fault the op probes."""
    CHECKERS[op.command](op, stdout)
