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
    gradient parameters and bounds the linearization region.
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

    @property
    def is_homogeneous(self) -> bool:
        return self.kappa == 0.0

    @property
    def e1_v_per_m2(self) -> float:
        """Axial gradient of E_z in V/m^2."""
        return self.kappa * self.e0_v_per_m / self.length_m

    @property
    def h1_gauss_per_m(self) -> float:
        """Axial gradient of H_z in gauss/m."""
        return self.kappa * self.h0_gauss / self.length_m


@dataclass(frozen=True)
class FieldSample:
    """Linearized fields at a probe point: E in V/m, H in gauss."""

    e_rho: float
    e_z: float
    h_rho: float
    h_z: float
    outside_linear_region: bool


def fields_at(lens: LensConfig, rho_m: float, z_m: float) -> FieldSample:
    """Evaluate the linearized lens fields at (rho, z)."""
    e1 = lens.e1_v_per_m2
    h1 = lens.h1_gauss_per_m
    outside = abs(rho_m) > lens.length_m or abs(z_m) > lens.length_m
    return FieldSample(
        e_rho=-0.5 * e1 * rho_m,
        e_z=lens.e0_v_per_m + e1 * z_m,
        h_rho=-0.5 * h1 * rho_m,
        h_z=lens.h0_gauss + h1 * z_m,
        outside_linear_region=outside,
    )


def maxwell_residual(lens: LensConfig, rho_m: float, z_m: float) -> float:
    """The largest finite-difference residual of the linearized fields against
    the source-free Maxwell equations: div E, div H and the azimuthal curls.

    Central differences are exact for linear fields at any stencil width, so
    the step L/8 keeps rounding noise at the 1e-15 level while
    staying inside the linearization region.  Residuals are normalized per
    characteristic length: r = |div F| L / (|F0| + |F1| L).
    """
    if rho_m <= 0:
        raise ValueError("rho must be positive for the cylindrical divergence")
    length = lens.length_m
    h = length / 8.0

    def div_curl(component_rho, component_z):
        def d_rho(f, r, z):
            return (f(r + h, z) - f(r - h, z)) / (2.0 * h)

        def d_z(f, r, z):
            return (f(r, z + h) - f(r, z - h)) / (2.0 * h)

        rho_term = d_rho(lambda r, z: r * component_rho(r, z), rho_m, z_m) / rho_m
        div = rho_term + d_z(component_z, rho_m, z_m)
        curl_phi = d_z(component_rho, rho_m, z_m) - d_rho(component_z, rho_m, z_m)
        return div, curl_phi

    div_e, curl_e = div_curl(
        lambda r, z: fields_at(lens, r, z).e_rho,
        lambda r, z: fields_at(lens, r, z).e_z,
    )
    div_h, curl_h = div_curl(
        lambda r, z: fields_at(lens, r, z).h_rho,
        lambda r, z: fields_at(lens, r, z).h_z,
    )

    e_scale = abs(lens.e0_v_per_m) + abs(lens.e1_v_per_m2) * length
    h_scale = abs(lens.h0_gauss) + abs(lens.h1_gauss_per_m) * length
    e_scale = e_scale if e_scale > 0 else 1.0
    h_scale = h_scale if h_scale > 0 else 1.0
    return max(abs(div_e * length / e_scale), abs(div_h * length / h_scale),
               abs(curl_e * length / e_scale), abs(curl_h * length / h_scale))


def potentials_at(lens: LensConfig, rho_m: float, z_m: float) -> tuple[float, float]:
    """Scalar potential (V) and azimuthal vector potential (T m).

    phi = E1 rho^2/4 - E0 z - E1 z^2/2 and A_phi = (H0 + H1 z) rho / 2,
    consistent with fields_at through E = -grad phi and H = curl A.
    """
    e1 = lens.e1_v_per_m2
    phi = 0.25 * e1 * rho_m**2 - lens.e0_v_per_m * z_m - 0.5 * e1 * z_m**2
    h0_t = lens.h0_gauss / units.GAUSS_PER_TESLA
    h1_t = lens.h1_gauss_per_m / units.GAUSS_PER_TESLA
    a_phi = 0.5 * (h0_t + h1_t * z_m) * rho_m
    return phi, a_phi


def landau_rho_sq_st(lens: LensConfig, n_prime: int, l: int, particle: Particle) -> float:
    """Stationary mean square radius (rho_H^2 / 2)(2 n' + |l| + 1) in m^2."""
    if n_prime < 0:
        raise ValueError(f"n_prime must be non-negative, got {n_prime}")
    rho_h = units.magnetic_radius(lens.h0_gauss, particle)
    return 0.5 * rho_h**2 * (2 * n_prime + abs(l) + 1)


def landau_energy(lens: LensConfig, n_prime: int, l: int, particle: Particle) -> float:
    """Transverse level energy (omega_0 / 2)(2 n' + |l| + l' + 1) in eV, with
    l' = particle.model_l(l) = -s l for charge sign s.

    For l' < 0 the |l| + l' cancellation makes the energy independent of the
    OAM magnitude.
    """
    if n_prime < 0:
        raise ValueError(f"n_prime must be non-negative, got {n_prime}")
    omega0_ev = units.cyclotron_frequency_natural(lens.h0_gauss, particle)
    return 0.5 * omega0_ev * (2 * n_prime + abs(l) + particle.model_l(l) + 1)
