"""Named two-channel input states and parametrized families for sweeps.

Every family produces a two-mode state of the signal channels, i.e. the
two outputs of the splitting beamsplitter. Families cover the extreme
quantum case (split single photon), classical references (split coherent,
split thermal, incoherent anticorrelated mixtures) and a noisy family that
mixes the split photon with a weak split coherent background to emulate
imperfect experimental states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fock
from .fock import ModeSystem, QuantumState

FAMILIES = (
    "split_single_photon",
    "split_number",
    "split_coherent",
    "split_thermal",
    "incoherent_anticorrelated",
    "noisy_split_photon",
    "pure_explicit",
    "mixed_ensemble",
)


@dataclass(frozen=True)
class StateSpec:
    """Reproducible description of a catalog state: family name plus its
    scalar parameters."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown state family {self.family!r}; "
                f"known: {', '.join(FAMILIES)}")
        object.__setattr__(self, "params", dict(self.params))


def split_single_photon() -> QuantumState:
    """(|10> + i|01>)/sqrt(2): one photon split on the 50:50 beamsplitter."""
    system = ModeSystem((1, 1))
    amps = np.zeros(4, dtype=np.complex128)
    amps[int(np.ravel_multi_index((1, 0), system.dims))] = math.sqrt(0.5)
    amps[int(np.ravel_multi_index((0, 1), system.dims))] = 1j * math.sqrt(0.5)
    return QuantumState(system, vector=amps)


def split_input(input_state: QuantumState) -> QuantumState:
    """Send a single-mode state through the splitting beamsplitter with a
    vacuum mode of equal cutoff: each input |n, 0> is written from its
    closed-form edge column (``fock._split``), with no tensor, plan or
    block, and refused where the size of that product would be.
    """
    if input_state.system.mode_count != 1:
        raise ValueError("split_input expects a single-mode state")
    return fock._split(input_state)


def incoherent_anticorrelated(p: float) -> QuantumState:
    """p |10><10| + (1-p) |01><01|: perfectly anticorrelated, but with no
    channel coherence and therefore no interference."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    system = ModeSystem((1, 1))
    one_zero = fock.basis_state(system, (1, 0))
    zero_one = fock.basis_state(system, (0, 1))
    return fock.make_mixed([(p, one_zero), (1.0 - p, zero_one)])


def mixed_ensemble(components: Sequence[tuple[float, QuantumState]]
                   ) -> QuantumState:
    """Mix states with possibly different cutoffs: pad everything to the
    elementwise-maximum cutoffs, drop zero weights, then combine."""
    if not components:
        raise ValueError("ensemble is empty")
    mode_count = components[0][1].system.mode_count
    if any(s.system.mode_count != mode_count for _, s in components):
        raise ValueError("ensemble members have different mode counts")
    cutoffs = tuple(
        max(s.system.cutoffs[k] for _, s in components)
        for k in range(mode_count))
    padded = [(w, fock.pad_cutoffs(s, cutoffs))
              for w, s in components if w != 0.0]
    return fock.make_mixed(padded)


def noisy_split_photon(w: float, alpha: complex, *,
                       tail_eps: float = fock.DEFAULT_TAIL_EPS) -> QuantumState:
    """Mixture w * (split single photon) + (1-w) * (split coherent alpha).

    A mixed family whose coherence stays maximal while the coincidence
    rate is tunable through the coherent background weight: the sweep
    knob for emulating imperfect single-photon experiments.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must lie in [0, 1], got {w!r}")
    parts: list[tuple[float, QuantumState]] = [(w, split_single_photon())]
    if w < 1.0:
        parts.append(
            (1.0 - w, split_input(fock.coherent_state(alpha, tail_eps))))
    return mixed_ensemble(parts)


def _number(key: str, value, *, integral: bool = False):
    """Spec parameter ``key`` as a finite float, or an int if ``integral``:
    a list, object, boolean, null, non-finite or fractional value is
    refused, naming ``key``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or integral and not number.is_integer():
        kind = "integer" if integral else "number"
        raise ValueError(f"{key} must be a finite {kind}, got {value!r}")
    return int(number) if integral else number


def _list(key: str, value) -> list:
    """Spec parameter ``key``, refused unless it is a list."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _complex_param(params: Mapping[str, object], stem: str) -> complex:
    return complex(*(_number(key, params.get(key, 0.0))
                     for key in (f"{stem}_re", f"{stem}_im")))


def _as_amplitude(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"amplitude {value!r} should be [re, im]")
        return complex(_number("amplitudes", value[0]),
                       _number("amplitudes", value[1]))
    if isinstance(value, (bool, dict)) or value is None:
        raise ValueError(f"amplitude {value!r} is not a number or [re, im]")
    return complex(value)


def build_state(spec: StateSpec, *, cutoff: int | None = None,
                tail_eps: float = fock.DEFAULT_TAIL_EPS) -> QuantumState:
    """Construct the two-mode state described by a StateSpec.

    ``cutoff`` overrides the single-mode input cutoff for number states;
    ``tail_eps`` controls coherent/thermal truncation.
    """
    params = spec.params
    family = spec.family
    if family == "split_single_photon":
        return split_single_photon()
    if family == "split_number":
        n = _number("n", params["n"], integral=True)
        cut = n if cutoff is None else cutoff
        if 0 <= n <= cut:
            # the sizes of |n> and of its split, as number_state and
            # fock._split refuse them, before |n> is allocated
            fock._check_size(1, cut + 1)
            fock._check_size(1, (cut + 1) ** 2)
        return split_input(fock.number_state(n, cut))
    if family == "split_coherent":
        return split_input(
            fock.coherent_state(_complex_param(params, "alpha"), tail_eps))
    if family == "split_thermal":
        return split_input(
            fock.thermal_state(_number("nbar", params["nbar"]), tail_eps))
    if family == "incoherent_anticorrelated":
        return incoherent_anticorrelated(_number("p", params["p"]))
    if family == "noisy_split_photon":
        return noisy_split_photon(_number("w", params["w"]),
                                  _complex_param(params, "alpha"),
                                  tail_eps=tail_eps)
    if family == "pure_explicit":
        amps = [_as_amplitude(a)
                for a in _list("amplitudes", params["amplitudes"])]
        if "cutoffs" in params:
            system = ModeSystem(tuple(
                _number("cutoffs", c, integral=True)
                for c in _list("cutoffs", params["cutoffs"])))
        else:
            side = math.isqrt(len(amps))
            if side * side != len(amps):
                raise ValueError(
                    "pure_explicit without cutoffs needs a square amplitude "
                    f"count for a two-mode state; got {len(amps)}")
            system = ModeSystem((side - 1, side - 1))
        return fock.make_pure(system, amps)
    if family == "mixed_ensemble":
        built = []
        for comp in _list("components", params["components"]):
            if not isinstance(comp, dict):
                raise ValueError(
                    f"each of components must be an object, got {comp!r}")
            comp = dict(comp)
            weight = _number("weight", comp.pop("weight"))
            fam = comp.pop("family")
            built.append((weight, build_state(StateSpec(fam, comp),
                                              cutoff=cutoff,
                                              tail_eps=tail_eps)))
        return mixed_ensemble(built)
    raise ValueError(f"unknown state family {family!r}")


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


def spec_label(spec: StateSpec) -> str:
    """Canonical one-line rendering of a spec, used as the state_id in
    sweep output."""
    if not spec.params:
        return spec.family
    parts = []
    for key in sorted(spec.params):
        value = spec.params[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.15g}")
        else:
            parts.append(f"{key}={value}")
    return spec.family + " " + " ".join(parts)
