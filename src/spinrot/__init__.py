"""Nonadiabatic phases of a spin-1/2 coupled to a rotating frame.

The Hamiltonian H(t) = w(t) . S is solved exactly through a Hermitian
invariant whose angles obey two auxiliary ODEs; dynamical and geometric
phases are accumulated by quadrature and validated against an independent
brute-force propagator. A spectroscopy layer turns the phases into
transition-line shifts, and a scenario layer supplies C60 rotation
estimates.
"""

from .constants import HBAR_EV_S
from .errors import (ConfigError, GridMismatchError, NoSolutionError,
                     OutOfDomainError, SingularityError, SpinRotError)
from .invariant import (AuxiliarySolution, integrate_auxiliary, lvn_residual_samples,
                        lvn_residual_series, solve_precession_lambda)
from .oracle import PropagatorRun, fidelity, propagate
from .phases import PhaseHistory, accumulate_phases, berry_limit_check, lr_states
from .scenario import (MoleculeModel, RotationRegime, c60_model,
                       free_rotation_correlation_time, precession_from_torque,
                       regime_presets)
from .spectroscopy import (EnergyLevel, PerturbationModel, SpectralLine,
                           line_table, resonance_scan, spectral_shift,
                           transition_amplitude)
from .trajectory import OmegaTrajectory

__version__ = "0.1.0"

__all__ = [
    "AuxiliarySolution", "ConfigError", "EnergyLevel", "GridMismatchError",
    "HBAR_EV_S", "MoleculeModel", "NoSolutionError", "OmegaTrajectory",
    "OutOfDomainError", "PerturbationModel", "PhaseHistory", "PropagatorRun",
    "RotationRegime", "SingularityError", "SpectralLine", "SpinRotError",
    "accumulate_phases", "berry_limit_check", "c60_model", "fidelity",
    "free_rotation_correlation_time", "integrate_auxiliary",
    "line_table", "lr_states", "lvn_residual_samples", "lvn_residual_series",
    "precession_from_torque", "propagate", "regime_presets", "resonance_scan",
    "solve_precession_lambda", "spectral_shift", "transition_amplitude",
]
