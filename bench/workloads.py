"""Seeded workloads: the exact CLI invocations each benchmark round makes.

A run repeats whole rounds. Round ``r`` of workload ``w`` under seed ``s``
is drawn from ``random.Random(f"{w}:{s}:{r}")``, so a seed fixes every
input of every round, and every round has the same shape: the same
families, in the same order, each op with the same input cutoffs. Only
the values move with the seed, inside the truncation plateau of a fixed
target, never the op count, the failing points or an op's cutoffs, so
runs under different seeds measure the same amount of work.

Each op carries the family and the exact parameter values it passes, so
``checks`` can derive the expected output without the program.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
import shlex
from dataclasses import dataclass

WORKLOADS = ("analyze-catalog", "fringe-scan", "bell-grid")

#: split_thermal points refused today by the dense two-mode density limit
#: (fock.DEFAULT_DIM_LIMIT = 4096): the thermal cutoff at these nbar is 64
#: or more, so the (cutoff+1)^2 basis exceeds the limit. Fixed, not seeded.
DENSE_LIMIT_NBARS = (1.9, 2.05, 2.2, 2.5)
DENSE_LIMIT_FAULT = "dense-limit (fock.DEFAULT_DIM_LIMIT)"
#: A truncated coherent state sits a hair inside the nonclassical region
#: (tg_margin from -2e-7 to -1e-12), and the strict ``tg < 0`` test of
#: homodyne.local_realism_verdict reports it as violating, although that
#: function documents boundary states as not violating. Probed on one fixed
#: state per round, so the failed share is the same in every run.
BOUNDARY_FAULT = "boundary-verdict (homodyne.local_realism_verdict)"
BOUNDARY_PROBE = {"alpha_re": 2.0, "alpha_im": 0.0}


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what the checks need to know about it."""

    command: str                     # analyze | fringe | bell-scan
    family: str
    params: dict
    options: tuple[str, ...] = ()
    units: int = 1                   # states, phases or grid points
    fault: str | None = None         # named fault this op is known to hit

    @property
    def spec(self) -> str:
        """The inline ``family key=value ...`` form of the state."""
        parts = [self.family]
        for key, value in self.params.items():
            text = repr(value) if isinstance(value, float) else \
                json.dumps(value, separators=(",", ":"))
            parts.append(shlex.quote(f"{key}={text}"))
        return " ".join(parts)

    @property
    def spec_document(self) -> str | None:
        """JSON spec-file text for the structured families, else None.

        Their inline form runs to hundreds of characters, and the CLI first
        tries ``--state`` as a path, which the OS refuses when it is longer
        than a file name may be. Users pass such states as files.
        """
        if self.family not in ("pure_explicit", "mixed_ensemble"):
            return None
        return json.dumps({"family": self.family, "params": self.params})

    def argv(self, spec_file: str | None = None) -> list[str]:
        state = spec_file if self.spec_document is not None else self.spec
        return [self.command, "--state", state, *self.options]

    def option(self, name: str, default: str) -> str:
        opts = list(self.options)
        return opts[opts.index(name) + 1] if name in opts else default


def _strata(rng: random.Random, count: int, lo: float, hi: float):
    """One value per equal-width stratum of [lo, hi), ascending."""
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


def _midpoints(count: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / count
    return [lo + (k + 0.5) * width for k in range(count)]


#: The program's default tail weight left out of coherent and thermal inputs.
TAIL_EPS = 1e-12


def thermal_cutoff(nbar: float) -> int:
    """Cutoff of a thermal input: the smallest N with tail q^(N+1) below
    TAIL_EPS, q = nbar / (1 + nbar)."""
    q = nbar / (1.0 + nbar)
    cutoff = 0
    while q ** (cutoff + 1) >= TAIL_EPS:
        cutoff += 1
    return cutoff


def coherent_cutoff(magnitude: float) -> int:
    """Cutoff of a coherent input: the smallest N whose Poisson tail is
    certified below TAIL_EPS by the geometric bound p_{N+1} / (1 - lam /
    (N + 2)), as the program documents it."""
    lam = magnitude * magnitude
    cutoff = 0
    while True:
        ratio = lam / (cutoff + 2)
        if ratio < 1.0 and (-lam + (cutoff + 1) * math.log(lam)
                            - math.lgamma(cutoff + 2)
                            <= math.log(TAIL_EPS) + math.log1p(-ratio)):
            return cutoff
        cutoff += 1


@functools.lru_cache(maxsize=None)
def plateau(kind: str, target: float) -> tuple[float, float]:
    """The middle half of the interval around ``target`` on which the
    input cutoff stays that of ``target`` (``kind``: coherent magnitude
    or thermal nbar). Values drawn from it all cost the same."""
    cutoff_of = coherent_cutoff if kind == "coherent" else thermal_cutoff
    level = cutoff_of(target)

    def edge(inside: float, outside: float) -> float:
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if cutoff_of(mid) == level:
                inside = mid
            else:
                outside = mid
        return inside
    lo, hi = edge(target, target * 1e-3), edge(target, target * 2.0 + 1.0)
    return lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)


def _on_plateau(rng: random.Random, kind: str, target: float) -> float:
    return rng.uniform(*plateau(kind, target))


def _alpha(rng: random.Random, magnitude: float) -> dict:
    alpha = cmath.rect(magnitude, rng.uniform(0.0, 2.0 * math.pi))
    return {"alpha_re": alpha.real, "alpha_im": alpha.imag}


def _coherent_params(rng: random.Random, target: float) -> dict:
    return _alpha(rng, _on_plateau(rng, "coherent", target))


def _thermal_params(rng: random.Random, target: float) -> dict:
    return {"nbar": _on_plateau(rng, "thermal", target)}


#: Component kinds of the twelve mixed_ensemble slots of a round, and
#: the cutoffs of pure_explicit slots: drawn once, the same for every seed,
#: so the cutoffs and ranks of these states never move with the seed.
_SLOTS = random.Random("analyze-catalog-slots")
ENSEMBLE_KINDS = tuple(
    tuple(_SLOTS.randrange(4) for _ in range(_SLOTS.randint(2, 3)))
    for _ in range(12))
EXPLICIT_CUTOFFS = tuple((_SLOTS.randint(1, 3), _SLOTS.randint(1, 3))
                         for _ in range(12))


def _mixture_component(rng: random.Random, kind: int, slot: int) -> dict:
    if kind == 0:
        return {"family": "split_single_photon"}
    if kind == 1:
        return {"family": "split_coherent",
                **_coherent_params(rng, 0.3 + (slot + 0.5) * 1.7 / 12)}
    if kind == 2:
        return {"family": "split_number", "n": 1 + slot % 6}
    return {"family": "split_thermal",
            **_thermal_params(rng, 0.05 + (slot + 0.5) * 0.45 / 12)}


def _mixed_ensemble(rng: random.Random, slot: int) -> Op:
    comps = [_mixture_component(rng, kind, slot)
             for kind in ENSEMBLE_KINDS[slot]]
    raw = [rng.uniform(0.2, 1.0) for _ in comps]
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    components = [{"weight": w, **c} for w, c in zip(weights, comps)]
    return Op("analyze", "mixed_ensemble", {"components": components})


def _pure_explicit(rng: random.Random, slot: int) -> Op:
    cutoffs = list(EXPLICIT_CUTOFFS[slot])
    dim = (cutoffs[0] + 1) * (cutoffs[1] + 1)
    amps = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(dim)]
    return Op("analyze", "pure_explicit",
              {"amplitudes": amps, "cutoffs": cutoffs})


def analyze_round(rng: random.Random) -> list[Op]:
    """121 `analyze` calls over every catalog family; 4 are refused and 1
    probes the boundary-verdict fault.

    Every coherent and thermal value is drawn on the cutoff plateau of a
    fixed target, and every other size is fixed, so each op has the same
    cutoffs, and the pair-tensor cache sees the same cutoff sequence, under
    every seed and in every round.
    """
    ops = [Op("analyze", "split_coherent", _coherent_params(rng, mag))
           for mag in _midpoints(26, 0.3, 4.83)]
    ops += [Op("analyze", "split_number", {"n": 1 + 2 * k + k % 2})
            for k in range(18)]
    ops += [Op("analyze", "split_thermal", _thermal_params(rng, nbar))
            for nbar in _midpoints(18, 0.02, 1.43)]
    ops += [Op("analyze", "noisy_split_photon",
               {"w": w, **_coherent_params(rng, mag)})
            for w, mag in zip(_strata(rng, 12, 0.05, 0.95),
                              _midpoints(12, 0.1, 2.0))]
    ops += [Op("analyze", "incoherent_anticorrelated", {"p": p})
            for p in _strata(rng, 8, 0.1, 0.9)]
    ops += [_mixed_ensemble(rng, slot) for slot in range(12)]
    ops += [_pure_explicit(rng, slot) for slot in range(12)]
    ops += [Op("analyze", "split_single_photon", {}) for _ in range(4)]
    ops += [Op("analyze", "split_thermal", {"nbar": nbar},
               fault=DENSE_LIMIT_FAULT) for nbar in DENSE_LIMIT_NBARS]
    ops.append(Op("analyze", "split_coherent", BOUNDARY_PROBE,
                  fault=BOUNDARY_FAULT))
    # Interleave the families by one permutation shared by every seed and
    # round. Each round ends on a fixed sweep up to the largest
    # split_thermal state, which sets the memory peak: the six states before
    # it fill the six-entry pair-tensor cache the same way in every run.
    order = list(range(len(ops)))
    random.Random("analyze-catalog-order").shuffle(order)
    return [ops[i] for i in order] + [
        Op("analyze", "split_coherent", _alpha(rng, 5.0)),
        Op("analyze", "split_number", {"n": 40}),
        Op("analyze", "split_coherent", _alpha(rng, 1.0)),
        Op("analyze", "split_number", {"n": 8}),
        Op("analyze", "split_thermal", {"nbar": 0.2}),
        Op("analyze", "split_thermal", {"nbar": 1.5})]


# The fringe and bell workloads draw values inside one truncation plateau
# at the default tail_eps, where the cutoff, and so the cost of the op,
# does not change with the drawn value:
#   split_thermal nbar in [0.975, 1.0] -> cutoff 39, [0.50, 0.525] -> 25,
#   [0.095, 0.111] -> 11, [0.05, 0.067] -> 9;
#   coherent |alpha| in [1.985, 2.065] -> 25, [2.96, 3.025] -> 37,
#   [0.265, 0.345] -> 7, [0.1735, 0.257) -> 6, [0.102, 0.1735) -> 5.

def fringe_round(rng: random.Random) -> list[Op]:
    """Seven `fringe` scans led by dense mixed split_thermal states; the
    three noisy scans put the median op in one cost class."""
    def fringe(family, params, phases):
        return Op("fringe", family, params, ("--phases", str(phases)),
                  units=phases)

    def noisy():
        return fringe("noisy_split_photon",
                      {"w": rng.uniform(0.3, 0.7),
                       **_alpha(rng, rng.uniform(1.985, 2.065))}, 16)
    return [
        fringe("split_thermal", {"nbar": rng.uniform(0.975, 1.0)}, 8),
        noisy(),
        fringe("split_thermal", {"nbar": rng.uniform(0.50, 0.525)}, 8),
        noisy(),
        fringe("split_coherent", _alpha(rng, rng.uniform(2.96, 3.025)), 16),
        noisy(),
        fringe("incoherent_anticorrelated", {"p": rng.uniform(0.1, 0.9)}, 16),
    ]


def bell_round(rng: random.Random) -> list[Op]:
    """Five `bell-scan` grids on mixed states, one on the unitary route.

    The oscillator amplitude follows from the state's moments, so the
    ranges also keep the oscillator cutoff on one plateau (5, 6 or 7).
    """
    def scan(family, params, grid, route="input_operator"):
        return Op("bell-scan", family, params,
                  ("--grid", str(grid), "--route", route), units=grid * grid)

    def noisy(w_range, alpha_range):
        return {"w": rng.uniform(*w_range),
                **_alpha(rng, rng.uniform(*alpha_range))}
    return [
        scan("split_thermal", {"nbar": rng.uniform(0.095, 0.111)}, 6),
        scan("split_thermal", {"nbar": rng.uniform(0.05, 0.067)}, 6),
        scan("noisy_split_photon", noisy((0.2, 0.55), (0.18, 0.255)), 12),
        scan("noisy_split_photon", noisy((0.76, 0.9), (0.265, 0.345)), 12),
        scan("noisy_split_photon", noisy((0.2, 0.55), (0.18, 0.255)), 4,
             route="unitary"),
    ]


_ROUNDS = {"analyze-catalog": analyze_round, "fringe-scan": fringe_round,
           "bell-grid": bell_round}


def round_ops(workload: str, seed: int, round_no: int) -> list[Op]:
    """The ops of one round; the same arguments always give the same ops."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}:{round_no}"))
