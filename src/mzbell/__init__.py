"""Truncated Fock-space engine for two-channel coherence, Mach-Zehnder
interference and the homodyne Bell criterion |g1|/(1 + sqrt(g2)) <= 1/sqrt(2).
"""

from .catalog import (StateSpec, build_state, incoherent_anticorrelated,
                      mixed_ensemble, noisy_split_photon, split_input,
                      split_single_photon)
from .coherence import (CoherenceMoments, FringeMoments, FringeRecord,
                        analytic_visibility, compute_moments, fringe_moments,
                        fringe_scan, g1, g2, visibility)
from .errors import (DegenerateDenominatorError, DegenerateStateError,
                     DimensionLimitError, MzBellError, RouteResidualError)
from .fock import (ModeSystem, QuantumState, basis_state, coherent_state,
                   expectations, make_mixed, make_pure, number_state,
                   pad_cutoffs, thermal_state)
from .homodyne import (ChshResult, FringeCoefficients, LocalOscillator,
                       Verdict, criterion_from_measurements,
                       fringe_coefficients, fringe_coefficients_at,
                       local_realism_verdict, maximize_chsh,
                       modulation_depth_analytic, numeric_fringe_coefficients,
                       optimal_lo_amplitudes, violation_thresholds)

__version__ = "0.1.0"

__all__ = [
    "ModeSystem", "QuantumState", "make_pure", "make_mixed", "basis_state",
    "coherent_state", "number_state", "thermal_state", "pad_cutoffs",
    "expectations",
    "CoherenceMoments", "compute_moments", "g1", "g2", "FringeRecord",
    "FringeMoments", "fringe_moments", "fringe_scan", "visibility",
    "analytic_visibility",
    "LocalOscillator", "FringeCoefficients", "ChshResult",
    "Verdict", "modulation_depth_analytic", "optimal_lo_amplitudes",
    "fringe_coefficients", "fringe_coefficients_at",
    "numeric_fringe_coefficients", "maximize_chsh", "local_realism_verdict",
    "criterion_from_measurements", "violation_thresholds",
    "StateSpec", "build_state", "split_single_photon", "split_input",
    "incoherent_anticorrelated", "noisy_split_photon", "mixed_ensemble",
    "MzBellError", "DegenerateStateError", "DegenerateDenominatorError",
    "DimensionLimitError", "RouteResidualError",
]
