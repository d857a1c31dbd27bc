"""Second-order moment transport through drifts and homogeneous lenses.

State and formulas live in natural units (hbar = c = 1, energies in eV), so
the closed forms read exactly as derived:

    free space:  <rho^2>(t) = <rho^2>_0 + d<rho^2>_0 t + <u^2>_0 t^2
    lens:        <rho^2>(t) = R_st + (R_in - R_st) cos(w dt)
                              + (dR_in / w) sin(w dt)

with R_st = (2 <u^2> - 2 w l / m) / w^2 the stationary mean square radius.
The mean square transverse velocity is conserved in both regimes; the OAM l
rides along unchanged.  Longitudinal motion is uniformly accelerated inside
a lens and ballistic in a drift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import units
from .elements import LensConfig
from .units import Particle

RELATIVISTIC_VELOCITY_BOUND = 0.1


class OverFocusError(RuntimeError):
    """Mean square radius driven to the Compton-scale floor inside a lens.

    Transport below rho^2 = (hbar / m c)^2 has no single-particle meaning;
    propagation must stop at the crossing.
    """

    def __init__(self, t_crossing: float, message: str | None = None):
        super().__init__(
            message
            or f"over-focused: <rho^2> reached the Compton floor at t = {t_crossing}"
        )
        self.t_crossing = t_crossing


class RelativisticWarning(UserWarning):
    """Longitudinal velocity beyond the non-relativistic comfort zone."""


@dataclass(frozen=True)
class MomentState:
    """Propagated observables in natural units.

    rho_sq [1/eV^2], drho_sq_dt [1/eV], u_perp_sq [c^2], p_z [eV],
    z [1/eV], t [1/eV]; l is the conserved OAM.
    """

    rho_sq: float
    drho_sq_dt: float
    u_perp_sq: float
    p_z: float
    z: float
    t: float
    l: int

    def validated(self) -> "MomentState":
        """This state, once rho_sq and u_perp_sq (scalars or arrays) are finite
        and positive.  The formulas do not check the states they build."""
        for name, value in (("rho_sq", self.rho_sq), ("u_perp_sq", self.u_perp_sq)):
            if isinstance(value, np.ndarray):  # its first bad entry, else its first
                value = value[np.argmin(np.isfinite(value) & (value > 0))]
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        return self

    @classmethod
    def from_packet(
        cls,
        packet,
        particle: Particle,
        p0_ev: float = 0.0,
        t_s: float = 0.0,
        z_m: float = 0.0,
    ) -> "MomentState":
        """Free-packet state at laboratory time t_s, with z anchored at z_m."""
        from .packet import transverse_velocity_sq

        u_sq = transverse_velocity_sq(packet, particle)
        dt = units.time_to_natural(t_s - packet.focus_time_s)
        sigma_sq = units.length_to_natural(packet.sigma_r_m) ** 2
        return cls(
            rho_sq=sigma_sq + u_sq * dt * dt,
            drho_sq_dt=2.0 * u_sq * dt,
            u_perp_sq=u_sq,
            p_z=p0_ev,
            z=units.length_to_natural(z_m),
            t=units.time_to_natural(t_s),
            l=packet.l,
        ).validated()


def _negative(dt) -> bool:
    """Whether the offset dt, or any offset in an array dt, is negative."""
    return (dt < 0).any() if isinstance(dt, np.ndarray) else dt < 0


def propagate_drift(state: MomentState, dt, particle: Particle) -> MomentState:
    """Free expansion over dt, a scalar or an array of offsets; exact for dt >= 0."""
    if _negative(dt):
        raise ValueError(f"dt must be non-negative, got {dt}")
    u_sq = state.u_perp_sq
    return replace(
        state,
        rho_sq=state.rho_sq + state.drho_sq_dt * dt + u_sq * dt * dt,
        drho_sq_dt=state.drho_sq_dt + 2.0 * u_sq * dt,
        z=state.z + (state.p_z / particle.mass_ev) * dt,
        t=state.t + dt,
    )


def _trig(dt):
    """math for a scalar time, numpy for an array of times.

    The per-sample scalar path keeps math.sin/math.cos: the CSV output is
    pinned to their bits, and numpy trig on a scalar costs far more.
    """
    return np if isinstance(dt, np.ndarray) else math


def stationary_rho_sq(u_perp_sq: float, l: int, omega0: float, particle: Particle) -> float:
    """Oscillation center (2 <u^2> - 2 w l / m) / w^2 in natural units.

    A non-positive result means no stable orbit exists for this OAM and
    field (possible for l > 0 with small transverse velocity).
    """
    if not omega0 > 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    m = particle.mass_ev
    return (2.0 * u_perp_sq - 2.0 * omega0 * l / m) / (omega0 * omega0)


@dataclass(frozen=True)
class LensOrbit:
    """Zeroth-order solution inside a lens, dt from the entry state.

    <rho^2>(dt) = center + a_cos cos(w dt) + a_sin sin(w dt) and
    p_z(dt) = p_z + e|E0| dt.  Only the homogeneous field (H0, E0) enters;
    gradients are first-order corrections about this orbit.
    """

    entry: MomentState
    omega0: float
    center: float
    a_cos: float
    a_sin: float
    force: float
    mass: float

    @classmethod
    def from_entry(cls, state: MomentState, lens: LensConfig, particle: Particle) -> "LensOrbit":
        omega0 = units.cyclotron_frequency_natural(lens.h0_gauss, particle)
        center = stationary_rho_sq(state.u_perp_sq, state.l, omega0, particle)
        return cls(
            entry=state,
            omega0=omega0,
            center=center,
            a_cos=state.rho_sq - center,
            a_sin=state.drho_sq_dt / omega0,
            force=units.accelerating_force_natural(lens.e0_v_per_m),
            mass=particle.mass_ev,
        )

    @property
    def amplitude(self) -> float:
        return math.hypot(self.a_cos, self.a_sin)

    def rho_sq(self, dt):
        """<rho^2> at dt, a scalar or an array of offsets."""
        w = self.omega0 * dt
        trig = _trig(dt)
        return self.center + self.a_cos * trig.cos(w) + self.a_sin * trig.sin(w)

    def drho_sq(self, dt):
        """d<rho^2>/dt at dt, a scalar or an array of offsets."""
        w = self.omega0 * dt
        trig = _trig(dt)
        return self.omega0 * (-self.a_cos * trig.sin(w) + self.a_sin * trig.cos(w))

    def p_z(self, dt):
        return self.entry.p_z + self.force * dt

    def first_crossing_dt(self, threshold: float, dt_max: float) -> float | None:
        """First dt in [0, dt_max] with <rho^2>(dt) <= threshold, else None.

        The orbit dips below the threshold on the arc
        (phase + theta, phase + 2 pi - theta) with
        theta = arccos((threshold - center) / amplitude).
        """
        if self.rho_sq(0.0) <= threshold:
            return 0.0
        amp = self.amplitude
        if amp == 0.0 or self.center - amp > threshold:
            return None
        cos_arg = (threshold - self.center) / amp
        theta = math.acos(max(-1.0, min(1.0, cos_arg)))
        phase = math.atan2(self.a_sin, self.a_cos) % (2.0 * math.pi)  # of the maximum
        entry_angle = (phase + theta) % (2.0 * math.pi)
        dt_cross = entry_angle / self.omega0
        if dt_cross <= dt_max:
            return dt_cross
        return None


def compton_floor(particle: Particle) -> float:
    """Smallest meaningful mean square radius, (hbar / m c)^2 in natural units."""
    return (1.0 / particle.mass_ev) ** 2


def lens_state_at(orbit: LensOrbit, dt) -> MomentState:
    """State on a built lens orbit a time dt past entry, without the floor guard.

    dt is a scalar or an array of offsets.  The trajectory runner uses this
    to evaluate states up to and including an over-focus crossing; everyone
    else should call propagate_lens_homogeneous, which enforces the floor.
    """
    state = orbit.entry
    m = orbit.mass
    return replace(
        state,
        rho_sq=orbit.rho_sq(dt),
        drho_sq_dt=orbit.drho_sq(dt),
        p_z=orbit.p_z(dt),
        z=state.z + (state.p_z / m) * dt + 0.5 * (orbit.force / m) * dt * dt,
        t=state.t + dt,
    )


def propagate_lens_homogeneous(
    state: MomentState, lens: LensConfig, dt: float, particle: Particle
) -> MomentState:
    """Closed-form propagation through a homogeneous lens over dt.

    Transverse moments follow the oscillation around the stationary radius;
    the kinetic <u_perp^2> is conserved.  Longitudinally the packet is
    uniformly accelerated by e|E0|.  Raises OverFocusError if <rho^2> would
    touch the Compton floor anywhere in [0, dt]; warns once the exit
    velocity passes 0.1 c, where the non-relativistic model degrades.
    """
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    if not lens.is_homogeneous:
        raise ValueError(
            "lens has field gradients; propagate the homogeneous part and "
            "attach first-order corrections from the perturbation module"
        )
    orbit = LensOrbit.from_entry(state, lens, particle)
    crossing = orbit.first_crossing_dt(compton_floor(particle), dt)
    if crossing is not None:
        raise OverFocusError(state.t + crossing)
    out = lens_state_at(orbit, dt)
    if out.p_z / particle.mass_ev > RELATIVISTIC_VELOCITY_BOUND:
        warnings.warn(
            f"longitudinal velocity {out.p_z / particle.mass_ev:.3f} c exceeds "
            f"the non-relativistic bound {RELATIVISTIC_VELOCITY_BOUND} c",
            RelativisticWarning,
            stacklevel=2,
        )
    return out


def matching_ratio(n: int, l: int, n_prime: int) -> Fraction:
    """Exact waist-matching ratio rho_H^2 / sigma_r^2 = 4 (2n'+|l|+l+1)/(2n+|l|+1)."""
    if n < 0 or n_prime < 0:
        raise ValueError("n and n_prime must be non-negative")
    ratio = Fraction(4 * (2 * n_prime + abs(l) + l + 1), 2 * n + abs(l) + 1)
    assert ratio > 0
    return ratio


def matching_ratio_large_l(l: int) -> int:
    """Large-|l| limit of the matching ratio for n = n': 4 (1 + sgn l)."""
    if l == 0:
        raise ValueError("the large-|l| limit needs l != 0")
    return 4 * (1 + (1 if l > 0 else -1))


def large_l_waist(h0_gauss: float, particle: Particle) -> float:
    """Matched waist sigma_r = rho_H / sqrt(8) in the large positive-l limit (m)."""
    return units.magnetic_radius(h0_gauss, particle) / math.sqrt(8.0)


def radial_number_for_ratio(ratio: Fraction, l: int, n_prime: int) -> int:
    """Radial quantum number n that realizes a required matching ratio exactly.

    Inverts the matching relation; raises if no non-negative integer n works.
    """
    ratio = Fraction(ratio)
    n_twice = Fraction(4 * (2 * n_prime + abs(l) + l + 1), 1) / ratio - (abs(l) + 1)
    n = n_twice / 2
    if n.denominator != 1 or n < 0:
        raise ValueError(f"no integer radial number matches ratio {ratio}")
    return int(n)


def waist_dt(state: MomentState) -> float:
    """Time offset to the free-trajectory waist (negative if already past)."""
    return -state.drho_sq_dt / (2.0 * state.u_perp_sq)


def free_waist_rho_sq(state: MomentState) -> float:
    """Mean square radius at the free-trajectory waist through this state."""
    return state.rho_sq - state.drho_sq_dt**2 / (4.0 * state.u_perp_sq)


@dataclass(frozen=True)
class TransportReport:
    """Matching and transport diagnostics at a lens entry (natural units)."""

    rho_sq_st: float
    rho_sq_min: float
    matched: bool
    transportable: bool
    matching_ratio_required: Fraction
    matching_ratio_actual: float
    transportable_solved_form: bool


def transport_check(
    orbit: LensOrbit, n: int = 0, n_prime: int = 0, matched_tol: float = 5e-3
) -> TransportReport:
    """Evaluate matching and transport conditions for a lens orbit's entry.

    Transport is judged by the amplitude form
        rho_sq_min = R_st - sqrt((R_in - R_st)^2 + (dR_in / w)^2) > 0
    and cross-computed with the solved inequality
        R_st > R_in / 2 + dR_in^2 / (2 w^2 R_in);
    the two are algebraically equivalent and both are reported.  The actual
    matching ratio compares rho_H^2 against the waist of the free trajectory
    through the entry state.
    """
    state = orbit.entry
    rho_sq_min = orbit.center - orbit.amplitude
    solved = orbit.center > (
        0.5 * state.rho_sq
        + state.drho_sq_dt**2 / (2.0 * orbit.omega0**2 * state.rho_sq)
    )
    required = matching_ratio(n, state.l, n_prime)
    rho_h_sq = 4.0 / (orbit.mass * orbit.omega0)
    actual = rho_h_sq / free_waist_rho_sq(state)
    matched = abs(actual / float(required) - 1.0) <= matched_tol
    return TransportReport(
        rho_sq_st=orbit.center,
        rho_sq_min=rho_sq_min,
        matched=matched,
        transportable=rho_sq_min > 0.0,
        matching_ratio_required=required,
        matching_ratio_actual=actual,
        transportable_solved_form=solved,
    )


def emittance(state: MomentState) -> float:
    """Transverse emittance sqrt(<rho^2><u^2> - <rho.u>^2) in natural units.

    The correlation is identified with half the mean square radius rate,
    <rho.u> = d<rho^2>/dt / 2, the relation both regimes obey.  Constant
    along drifts and continuous at element boundaries; inside a lens the
    value oscillates with the orbit phase.
    """
    correlation = 0.5 * state.drho_sq_dt
    radicand = state.rho_sq * state.u_perp_sq - correlation * correlation
    scale = state.rho_sq * state.u_perp_sq
    if radicand < -1e-12 * scale:
        raise ValueError(
            f"inconsistent moments: emittance radicand {radicand} < 0"
        )
    return math.sqrt(max(0.0, radicand))
