"""Free Laguerre-Gaussian packet: mode data, optical functions, spreading law.

The optical functions (envelope, Gouy phase, wavefront curvature) are exposed
for free space only; inside a lens the mean square radius is the propagated
quantity and the phase functions are intentionally not computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import (
    Particle,
    area_from_natural,
    diffraction_time,
    length_to_natural,
    require,
)

# 2n + |l| + 1 above 2**53 is not exact in a float, which the formulas use
MAX_MODE_ORDER = 2**53


@dataclass(frozen=True)
class LGPacket:
    """Quantum numbers and focal waist of a free Laguerre-Gaussian mode.

    sigma_r_m is the focal RMS radius, defined through the mean square
    transverse radius at the focal instant: sigma_r^2 = <rho^2>(t0).  For
    the ground mode it coincides with the envelope width; for higher modes
    the envelope is narrower than the RMS radius.  All dynamics here track
    the RMS radius, so sigma_r is the quantity that matters.
    """

    n: int
    l: int
    sigma_r_m: float
    focus_time_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n}")
        if not isinstance(self.l, int):
            raise ValueError(f"l must be an integer, got {self.l}")
        if self.mode_order > MAX_MODE_ORDER:
            raise ValueError(f"mode order 2n+|l|+1 must not exceed 2**53, got {self.mode_order}")
        require("sigma_r_m", self.sigma_r_m)
        require("focus_time_s", self.focus_time_s, "finite")

    @property
    def mode_order(self) -> int:
        """Combined mode index 2n + |l| + 1 weighting spreading and phase."""
        return 2 * self.n + abs(self.l) + 1


@dataclass(frozen=True)
class OpticalFunctions:
    """Envelope, Gouy phase and squared wavefront-curvature radius.

    curvature_sq_m2 is +inf at the focal instant (flat wavefront).
    """

    sigma_perp_sq_m2: float
    gouy_phase_rad: float
    curvature_sq_m2: float


def optical_functions(packet: LGPacket, t_s: float, particle: Particle) -> OpticalFunctions:
    """Free-space optical functions at laboratory time t_s.

    The envelope is anchored so that sigma_perp^2(t0) equals sigma_r^2, the
    mean square radius at focus.
    """
    if not math.isfinite(t_s):
        raise ValueError("t must be finite")
    t_d = diffraction_time(packet.sigma_r_m, particle)
    x = (t_s - packet.focus_time_s) / t_d
    sigma_sq = packet.sigma_r_m**2 * (1.0 + x * x)
    gouy = packet.mode_order * math.atan(x)
    curvature_sq = sigma_sq / x if x != 0.0 else math.inf
    return OpticalFunctions(sigma_sq, gouy, curvature_sq)


def transverse_velocity_sq(packet: LGPacket, particle: Particle) -> float:
    """Conserved mean square transverse velocity (2n + |l| + 1) / (m sigma_r)^2.

    Natural units: the value is dimensionless, in units of c^2.  The 2n
    weighting of the radial index is the correct one; see the quadrature
    oracle for the independent check.
    """
    m_sigma = particle.mass_ev * length_to_natural(packet.sigma_r_m)
    return packet.mode_order / require("(m sigma_r)^2", m_sigma * m_sigma)


def rho_sq_free(packet: LGPacket, t_s: float, particle: Particle) -> float:
    """Mean square radius sigma_r^2 + <u_perp^2> (t - t0)^2 in m^2."""
    from .moments import MomentState

    if not math.isfinite(t_s):
        raise ValueError("t must be finite")
    return area_from_natural(MomentState.from_packet(packet, particle, t_s=t_s).rho_sq)
