"""Free Laguerre-Gaussian packet: mode data, spreading law, transverse velocity.

Only second moments are modelled: the mean square radius and the mean square
transverse velocity.  The phase functions (Gouy phase, wavefront curvature)
are not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import Particle, length_to_natural, require

# 2n + |l| + 1 above 2**53 is not exact in a float, which the formulas use
MAX_MODE_ORDER = 2**53


@dataclass(frozen=True)
class LGPacket:
    """Quantum numbers and focal waist of a free Laguerre-Gaussian mode.

    sigma_r_m is the focal RMS radius, defined through the mean square
    transverse radius at the focal instant: sigma_r^2 = <rho^2>(t0).  All
    dynamics here track the RMS radius, so sigma_r is the quantity that
    matters.
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


def transverse_velocity_sq(packet: LGPacket, particle: Particle) -> float:
    """Conserved mean square transverse velocity (2n + |l| + 1) / (m sigma_r)^2.

    Natural units: the value is dimensionless, in units of c^2.  The 2n
    weighting of the radial index is the correct one; see the quadrature
    oracle for the independent check.
    """
    m_sigma = particle.mass_ev * length_to_natural(packet.sigma_r_m)
    return packet.mode_order / require("(m sigma_r)^2", m_sigma * m_sigma)

