"""Named two-channel input states and parametrized families for sweeps.

Every family describes a two-mode state of the signal channels, i.e. the
two outputs of the splitting beamsplitter. Families cover the extreme
quantum case (split single photon), classical references (split coherent,
split thermal, incoherent anticorrelated mixtures) and a noisy family that
mixes the split photon with a weak split coherent background to emulate
imperfect experimental states.

``resolve`` is the one family dispatch: it turns a spec into weighted
:class:`Part` s, each a single-mode input to split against vacuum or a
two-mode state, and runs every check that building the state would, in
the same order, without splitting or mixing anything. ``assemble`` splits
and mixes the parts into the state (``build_state`` is the two in turn),
and ``coherence`` reads a split part's moments from its input alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

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


#: |1>, the input of every split single photon. States are immutable, so
#: one serves every part, and :func:`split_single_photon` splits it once.
_PHOTON = fock.number_state(1, 1)


@functools.cache
def split_single_photon() -> QuantumState:
    """(|10> + i|01>)/sqrt(2): one photon split on the 50:50 beamsplitter,
    built once."""
    return split_input(_PHOTON)


def split_input(input_state: QuantumState) -> QuantumState:
    """Send a single-mode state through the splitting beamsplitter with a
    vacuum mode of equal cutoff: each input |n, 0> is written from its
    closed-form edge column (``fock._split``), with no tensor, plan or
    block, and refused where the size of that product would be.
    """
    if input_state.system.mode_count != 1:
        raise ValueError("split_input expects a single-mode state")
    return fock._split(input_state)


class Part(NamedTuple):
    """One weighted part of a catalog state: a single-mode input sent
    against vacuum through the splitting beamsplitter (``split``), or a
    state of the channels as it stands."""

    weight: float
    state: QuantumState
    split: bool

    @property
    def cutoffs(self) -> tuple[int, ...]:
        """The cutoffs of the part's channel state: (c, c) for a split
        input of cutoff c."""
        cutoffs = self.state.system.cutoffs
        return cutoffs * 2 if self.split else cutoffs

    def channels(self) -> QuantumState:
        """The part's channel state, split here if it is an input."""
        if not self.split:
            return self.state
        if self.state is _PHOTON:
            return split_single_photon()
        return split_input(self.state)


def _input(state: QuantumState) -> list[Part]:
    """A single-mode input to split, refused where its split would be."""
    fock._check_size(state.rank, state.dim * state.dim)
    return [Part(1.0, state, True)]


def _whole(state: QuantumState) -> list[Part]:
    return [Part(1.0, state, False)]


def _cutoffs(parts: Sequence[Part]) -> tuple[int, ...]:
    """The elementwise-maximum cutoffs of parts of one mode count."""
    return tuple(map(max, zip(*(part.cutoffs for part in parts))))


def _rank(parts: Sequence[Part]) -> int:
    return sum(part.state.rank for part in parts if part.weight != 0.0)


def _mixture(members: Sequence[tuple[float, list[Part]]]) -> list[Part]:
    """The parts of a mixture of members, each given by its parts: every
    part scaled by its member's weight, zero weights kept (they still set
    the cutoffs). Refused as ``mixed_ensemble`` and ``fock.make_mixed``
    would refuse the state built from them, in their order, with nothing
    built: an empty ensemble, unequal mode counts, a member whose rank
    times the padded dimension passes the size bound, a negative weight,
    weights that do not sum to 1, and the mixture's rank times its
    dimension. Weights of nested mixtures multiply, and their products
    are checked to sum to 1, as the built state's norm^2 is, with its
    message (its digits may differ at rounding level)."""
    if not members:
        raise ValueError("ensemble is empty")
    mode_count = len(members[0][1][0].cutoffs)
    if any(len(parts[0].cutoffs) != mode_count for _, parts in members):
        raise ValueError("ensemble members have different mode counts")
    cutoffs = _cutoffs([part for _, parts in members for part in parts])
    dim = math.prod(c + 1 for c in cutoffs)
    kept = [(w, parts) for w, parts in members if w != 0.0]
    for _, parts in kept:
        if _cutoffs(parts) != cutoffs:
            fock._check_size(_rank(parts), dim)
    fock._check_weights([float(w) for w, _ in kept])
    fock._check_size(sum(_rank(parts) for _, parts in kept), dim)
    mixed = [part._replace(weight=w * part.weight)
             for w, parts in members for part in parts]
    norm2 = sum(part.weight for part in mixed)
    if abs(norm2 - 1.0) > fock.NORM_TOL:
        raise ValueError(f"state norm^2 = {norm2!r}, expected 1")
    return mixed


def assemble(parts: Sequence[Part]) -> QuantumState:
    """The state of weighted parts: each input split, and several parts
    (or one of weight other than 1) padded to their elementwise-maximum
    cutoffs and mixed, zero weights dropped."""
    if len(parts) == 1 and parts[0].weight == 1.0:
        return parts[0].channels()
    cutoffs = _cutoffs(parts)
    return fock.make_mixed([(part.weight,
                             fock.pad_cutoffs(part.channels(), cutoffs))
                            for part in parts if part.weight != 0.0])


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
    return assemble(_mixture([(w, _whole(s)) for w, s in components]))


def _noisy_split_photon(w: float, alpha: complex,
                        tail_eps: float) -> list[Part]:
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must lie in [0, 1], got {w!r}")
    members = [(w, _input(_PHOTON))]
    if w < 1.0:
        members.append(
            (1.0 - w, _input(fock.coherent_state(alpha, tail_eps))))
    return _mixture(members)


def noisy_split_photon(w: float, alpha: complex, *,
                       tail_eps: float = fock.DEFAULT_TAIL_EPS) -> QuantumState:
    """Mixture w * (split single photon) + (1-w) * (split coherent alpha).

    A mixed family whose coherence stays maximal while the coincidence
    rate is tunable through the coherent background weight: the sweep
    knob for emulating imperfect single-photon experiments.
    """
    return assemble(_noisy_split_photon(w, alpha, tail_eps))


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


def resolve(spec: StateSpec, *, cutoff: int | None = None,
            tail_eps: float = fock.DEFAULT_TAIL_EPS) -> list[Part]:
    """The weighted parts of the state a StateSpec describes, each checked
    as building it would check it, in the same order, but not split or
    mixed: ``split_single_photon``, ``split_number``, ``split_coherent``
    and ``split_thermal`` are one input part each, ``noisy_split_photon``
    is w |1> plus (1-w) coherent, a ``mixed_ensemble`` its components'
    parts scaled by their weights, and the other families one two-mode
    part each.

    ``cutoff`` overrides the single-mode input cutoff for number states;
    ``tail_eps`` controls coherent/thermal truncation.
    """
    params = spec.params
    family = spec.family
    if family == "split_single_photon":
        return _input(_PHOTON)
    if family == "split_number":
        n = _number("n", params["n"], integral=True)
        return _input(fock.number_state(n, n if cutoff is None else cutoff))
    if family == "split_coherent":
        return _input(
            fock.coherent_state(_complex_param(params, "alpha"), tail_eps))
    if family == "split_thermal":
        return _input(
            fock.thermal_state(_number("nbar", params["nbar"]), tail_eps))
    if family == "incoherent_anticorrelated":
        return _whole(incoherent_anticorrelated(_number("p", params["p"])))
    if family == "noisy_split_photon":
        return _noisy_split_photon(_number("w", params["w"]),
                                   _complex_param(params, "alpha"), tail_eps)
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
        return _whole(fock.make_pure(system, amps))
    if family == "mixed_ensemble":
        members = []
        for comp in _list("components", params["components"]):
            if not isinstance(comp, dict):
                raise ValueError(
                    f"each of components must be an object, got {comp!r}")
            comp = dict(comp)
            weight = _number("weight", comp.pop("weight"))
            fam = comp.pop("family")
            members.append((weight, resolve(StateSpec(fam, comp),
                                            cutoff=cutoff,
                                            tail_eps=tail_eps)))
        return _mixture(members)
    raise ValueError(f"unknown state family {family!r}")


def build_state(spec: StateSpec, *, cutoff: int | None = None,
                tail_eps: float = fock.DEFAULT_TAIL_EPS) -> QuantumState:
    """Construct the two-mode state described by a StateSpec: its parts
    (:func:`resolve`), assembled (:func:`assemble`)."""
    return assemble(resolve(spec, cutoff=cutoff, tail_eps=tail_eps))


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
