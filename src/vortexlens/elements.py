"""Beamline elements: drifts and axisymmetric electromagnetic lenses.

A lens combines a uniform accelerating field E0 and a uniform solenoid field
H0 with first-order axial gradients set by one dimensionless parameter,
kappa = L H1 / H0 = L E1 / E0.  The linearized fields are

    E_rho = -E1 rho / 2,   E_z = E0 + E1 z,
    H_rho = -H1 rho / 2,   H_z = H0 + H1 z,

which satisfy the source-free Maxwell equations identically at linear order.
All element configuration is in laboratory units (gauss, V/m, meters,
seconds); the dynamics modules convert at their own boundaries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import units
from .units import Particle

KAPPA_HARD_LIMIT = 0.2
KAPPA_SOFT_LIMIT = 0.1


class InhomogeneityWarning(UserWarning):
    """Gradient parameter large enough to strain the first-order treatment."""


def require_kappa(name: str, kappa: float) -> float:
    """kappa, once |kappa| is within KAPPA_HARD_LIMIT, which NaN is not."""
    if not abs(kappa) <= KAPPA_HARD_LIMIT:
        raise ValueError(f"|{name}| must not exceed {KAPPA_HARD_LIMIT}, got {kappa}")
    return kappa


@dataclass(frozen=True)
class Drift:
    """Field-free flight of the given duration."""

    duration_s: float

    def __post_init__(self) -> None:
        units.require("duration_s", self.duration_s)


@dataclass(frozen=True)
class LensConfig:
    """Accelerating solenoid lens with optional linear field gradients.

    duration_s is the element extent on the time axis (the independent
    variable of every propagation law here); length_m only normalizes the
    gradient parameters.
    """

    h0_gauss: float
    duration_s: float
    length_m: float
    e0_v_per_m: float = 0.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        units.require("h0_gauss", self.h0_gauss)
        units.require("e0_v_per_m", self.e0_v_per_m, "non-negative")  # a magnitude
        units.require("length_m", self.length_m)
        units.require("duration_s", self.duration_s)
        if abs(require_kappa("kappa", self.kappa)) > KAPPA_SOFT_LIMIT:
            warnings.warn(
                f"kappa = {self.kappa} is beyond the comfortable first-order "
                f"regime (> {KAPPA_SOFT_LIMIT})",
                InhomogeneityWarning,
                stacklevel=3,
            )


def landau_rho_sq_st(lens: LensConfig, n_prime: int, l: int, particle: Particle) -> float:
    """Stationary mean square radius (rho_H^2 / 2)(2 n' + |l| + 1) in m^2."""
    if not isinstance(n_prime, int) or n_prime < 0:  # a level, as LGPacket requires of n
        raise ValueError(f"n_prime must be a non-negative integer, got {n_prime}")
    rho_h = units.magnetic_radius(lens.h0_gauss, particle)
    return 0.5 * rho_h**2 * (2 * n_prime + abs(l) + 1)


def landau_energy(lens: LensConfig, n_prime: int, l: int, particle: Particle) -> float:
    """Transverse level energy (omega_0 / 2)(2 n' + |l| + l' + 1) in eV, with
    l' = particle.model_l(l) = -s l for charge sign s.

    For l' < 0 the |l| + l' cancellation makes the energy independent of the
    OAM magnitude.
    """
    if not isinstance(n_prime, int) or n_prime < 0:  # a level, as LGPacket requires of n
        raise ValueError(f"n_prime must be a non-negative integer, got {n_prime}")
    omega0_ev = units.cyclotron_frequency_natural(lens.h0_gauss, particle)
    return 0.5 * omega0_ev * (2 * n_prime + abs(l) + particle.model_l(l) + 1)
