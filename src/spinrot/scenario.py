"""C60 rotation scenarios: inertia, torque-driven precession, timescales.

The molecule is modelled as a hollow shell, I = (2/3) m a^2. Note the cage
radius is 3.55 Angstrom, not 0.355 -- the smaller figure (an easy misprint)
gives an inertia two orders of magnitude below the accepted
I ~ 1.0e-43 kg m^2.

A torque of magnitude |M| tilting the angular momentum L = I w drives
precession at Omega = |M| / (I w0 sin th); intermolecular (Van der Waals)
energies of 0.001-0.1 eV then put Omega in the 1e10-1e12 rad/s range for
the fast-rotation phase. The free-rotor reorientation time is
tau = (3/5) sqrt(I / kB T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CARBON12_ATOM_MASS_KG, EV_IN_JOULES, K_BOLTZMANN_J_PER_K

C60_ATOM_COUNT = 60
C60_RADIUS_M = 3.55e-10

VAN_DER_WAALS_WINDOW_EV = (0.001, 0.1)
TORQUE_MIDPOINT_EV = 0.01

OMEGA0_DISORDERED_RAD_S = 1e11  # quasi-free rotation, high-temperature phase
OMEGA0_ORDERED_RAD_S = 1e9      # hindered rotation, low-temperature phase


@dataclass(frozen=True)
class MoleculeModel:
    """Rigid spherical-shell molecule."""

    name: str
    mass_kg: float
    radius_m: float

    def __post_init__(self):
        if not (self.mass_kg > 0.0 and math.isfinite(self.mass_kg)):
            raise ValueError(f"mass must be positive, got {self.mass_kg!r}")
        if not (self.radius_m > 0.0 and math.isfinite(self.radius_m)):
            raise ValueError(f"radius must be positive, got {self.radius_m!r}")

    @property
    def moment_of_inertia(self) -> float:
        """Hollow-shell inertia (2/3) m a^2, kg m^2."""
        return (2.0 / 3.0) * self.mass_kg * self.radius_m**2


@dataclass(frozen=True)
class RotationRegime:
    """One rotational phase with its characteristic frequencies."""

    phase: str
    omega0: float
    Omega: float
    temperature_k: float
    torque_j: float
    theta: float


def c60_model() -> MoleculeModel:
    """C60 as sixty 12C atoms on a 3.55 Angstrom shell."""
    return MoleculeModel("C60", C60_ATOM_COUNT * CARBON12_ATOM_MASS_KG, C60_RADIUS_M)


def precession_from_torque(model: MoleculeModel, omega0: float, torque_j: float,
                           theta: float = math.pi / 2.0) -> float:
    """Omega = |M| / (I w0 sin th); sin th defaults to 1."""
    if not (omega0 > 0.0 and math.isfinite(omega0)):
        raise ValueError(f"omega0 must be positive, got {omega0!r}")
    if torque_j < 0.0:
        raise ValueError(f"torque must be >= 0, got {torque_j!r}")
    s = math.sin(theta)
    if s <= 0.0:
        raise ValueError(f"sin(theta) must be positive, got theta = {theta!r}")
    return torque_j / (model.moment_of_inertia * omega0 * s)


def free_rotation_correlation_time(model: MoleculeModel, temperature_k: float) -> float:
    """Free-rotor reorientation time (3/5) sqrt(I / kB T), seconds."""
    if not (temperature_k > 0.0 and math.isfinite(temperature_k)):
        raise ValueError(f"temperature must be positive, got {temperature_k!r}")
    return 0.6 * math.sqrt(model.moment_of_inertia / (K_BOLTZMANN_J_PER_K * temperature_k))


def regime_presets() -> list[RotationRegime]:
    """The two condensed-phase rotation regimes with torque-derived Omega.

    Torque is pinned at the Van der Waals midpoint 0.01 eV and th = pi/2;
    temperatures are representative points on each side of the ~249 K
    orientational transition.
    """
    model = c60_model()
    torque = TORQUE_MIDPOINT_EV * EV_IN_JOULES
    theta = math.pi / 2.0
    presets = []
    for phase, omega0, temp in (
        ("disordered", OMEGA0_DISORDERED_RAD_S, 283.0),
        ("ordered", OMEGA0_ORDERED_RAD_S, 240.0),
    ):
        presets.append(RotationRegime(
            phase=phase,
            omega0=omega0,
            Omega=precession_from_torque(model, omega0, torque, theta),
            temperature_k=temp,
            torque_j=torque,
            theta=theta,
        ))
    return presets


def regime_run_config(regime: RotationRegime, periods: float = 1.0,
                      steps_per_radian: float = 20.0) -> dict:
    """Ready-to-run simulate and verify config for a regime (CLI schema).

    The integrator step resolves the faster of the Larmor and precession
    rates: step = 1/(max(w0, |Omega|) * steps_per_radian). t_end spans the
    requested number of precession periods, and the oracle runs at step/4.
    """
    step = 1.0 / (max(regime.omega0, abs(regime.Omega)) * steps_per_radian)
    return {
        "schema_version": 1,
        "trajectory": {
            "kind": "constant_precession",
            "omega0": regime.omega0,
            "Omega": regime.Omega,
            "theta": regime.theta,
            "phi0": 0.0,
        },
        "initial_conditions": "precession-consistent",
        "sigmas": [0.5, -0.5],
        "integrator": {"step": step, "periods": periods, "adaptive": False},
        "oracle": {"step": step / 4.0, "method": "exponential_product"},
        "output": {"prefix": f"c60_{regime.phase}"},
        "scenario": regime.phase,
    }
