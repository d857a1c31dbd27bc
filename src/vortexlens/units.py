"""Physical constants and unit conversions.

All dynamics modules work in natural units (hbar = c = 1) with energies in
eV.  Lengths and times are then both measured in 1/eV:

    length_natural = length_m / HBARC_EV_M
    time_natural   = time_s  / HBAR_EV_S

Velocities are dimensionless fractions of c, momenta are plain eV, and the
accelerating force e|E0| carries eV^2.  Conversion happens only at module
boundaries (element configuration, trajectory output, tests); everything in
between evaluates the closed forms verbatim in natural units.

The CODATA-2018 values below are pinned to 10 significant figures so golden
numbers are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA-2018.  Speed of light and elementary charge are exact in the SI;
# the reduced Planck constant is the 10-figure rounding of h/(2 pi).
LIGHT_SPEED_M_PER_S = 299792458.0
ELEMENTARY_CHARGE_C = 1.602176634e-19
REDUCED_PLANCK_JS = 1.054571817e-34
ELECTRON_MASS_EV = 510998.9500

HBAR_EV_S = REDUCED_PLANCK_JS / ELEMENTARY_CHARGE_C   # 6.582119565e-16 eV s
HBARC_EV_M = HBAR_EV_S * LIGHT_SPEED_M_PER_S          # 1.973269803e-7 eV m
GAUSS_PER_TESLA = 1.0e4

# kind: the open interval (lo, hi) a value must lie in (NaN never does; -5e-324 < x for every x >= 0)
_BOUNDS = {"positive": (0.0, math.inf), "non-negative": (-5e-324, math.inf), "subluminal": (-math.inf, 1.0),
           "finite": (-math.inf, math.inf)}


def require(name: str, value, must: str = "positive"):
    """value, once it is finite and `must` holds: "positive", "non-negative",
    "subluminal" (a squared velocity below c^2 = 1) or only "finite".  value is
    a scalar or an array with one entry per point; the ValueError names the
    first entry that fails."""
    lo, hi = _BOUNDS[must]
    if isinstance(value, np.ndarray):
        ok = np.isfinite(value) if must == "finite" else (lo < value) & (value < hi)  # one pass where one will do
        if ok.all():
            return value
        value = value.flat[np.argmin(ok)]
    elif lo < value < hi:
        return value
    raise ValueError(f"{name} must be {must}, got {value}")


@dataclass(frozen=True)
class Particle:
    """Point charge transported by the dynamics modules.

    mass_ev is the rest energy m c^2 in eV.  charge_sign is -1 for an
    electron-like charge and +1 for a positron-like one; the magnitude is
    always one elementary charge.
    """

    mass_ev: float
    charge_sign: int

    def __post_init__(self) -> None:
        require("mass_ev", self.mass_ev)
        if self.charge_sign not in (-1, 1):
            raise ValueError(f"charge_sign must be -1 or +1, got {self.charge_sign}")

    @classmethod
    def electron(cls) -> "Particle":
        return cls(ELECTRON_MASS_EV, -1)

    @classmethod
    def positron(cls) -> "Particle":
        return cls(ELECTRON_MASS_EV, +1)

    def model_l(self, l: int) -> int:
        """The OAM -s l that the model reads, s the charge sign: the model is
        written for s = -1, and the Larmor term -s (w/2) L_z of
        H = (p - qA)^2 / 2m holds the OAM only as -s l."""
        return -self.charge_sign * l


def length_to_natural(x_m: float) -> float:
    return x_m / HBARC_EV_M


def length_from_natural(x: float) -> float:
    return x * HBARC_EV_M


def area_to_natural(x_m2: float) -> float:
    return x_m2 / (HBARC_EV_M * HBARC_EV_M)


def area_from_natural(x: float) -> float:
    return x * (HBARC_EV_M * HBARC_EV_M)


def time_to_natural(t_s: float) -> float:
    return t_s / HBAR_EV_S


def time_from_natural(t: float) -> float:
    return t * HBAR_EV_S


def accelerating_force_natural(e0_v_per_m: float) -> float:
    """e|E0| in natural units (eV^2) for a field magnitude in V/m."""
    return e0_v_per_m * HBARC_EV_M


def cyclotron_frequency(h0_gauss: float, particle: Particle) -> float:
    """Cyclotron angular frequency |q| H0 / m in rad/s.

    Only H0 >= 0 is accepted.  A reversed solenoid is encoded by flipping
    the sign of the packet OAM, not by a negative field.
    """
    require("H0", h0_gauss, "non-negative")
    return (h0_gauss / GAUSS_PER_TESLA) * LIGHT_SPEED_M_PER_S**2 / particle.mass_ev


def cyclotron_frequency_natural(h0_gauss: float, particle: Particle) -> float:
    """Cyclotron frequency as a natural-unit energy (eV)."""
    return cyclotron_frequency(h0_gauss, particle) * HBAR_EV_S


def field_from_cyclotron_natural(omega0_ev: float, particle: Particle) -> float:
    """Solenoid field in gauss whose cyclotron frequency equals omega0_ev."""
    require("omega0", omega0_ev)
    omega_si = omega0_ev / HBAR_EV_S
    return omega_si * particle.mass_ev / LIGHT_SPEED_M_PER_S**2 * GAUSS_PER_TESLA


def magnetic_radius(h0_gauss: float, particle: Particle) -> float:
    """Characteristic orbit radius rho_H = sqrt(4 hbar / (|q| H0)) in meters."""
    require("H0", h0_gauss)
    h_tesla = h0_gauss / GAUSS_PER_TESLA
    return math.sqrt(4.0 * REDUCED_PLANCK_JS / (ELEMENTARY_CHARGE_C * h_tesla))


def diffraction_time(sigma_r_m: float, particle: Particle) -> float:
    """Spreading timescale t_d = m sigma_r^2 / hbar in seconds."""
    require("sigma_r", sigma_r_m)
    return particle.mass_ev * length_to_natural(sigma_r_m) ** 2 * HBAR_EV_S
