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

Each formula has one body for a scalar and an array of points.  Write x * x,
not x ** 2, in one: numpy's power squares an array but calls pow on a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import units
from .elements import LensConfig
from .packet import LGPacket, transverse_velocity_sq
from .units import Particle

# transport_check's relative tolerance on the waist-matching ratio
MATCHED_TOLERANCE = 5e-3


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
        """This state, once every field is finite and rho_sq and u_perp_sq are
        positive; a field is a scalar or an array with one entry per point.
        The formulas do not check the states they build."""
        for name, must in (("rho_sq", "positive"), ("u_perp_sq", "positive"), ("drho_sq_dt", "finite"),
                           ("p_z", "finite"), ("z", "finite"), ("t", "finite")):
            units.require(name, getattr(self, name), must)
        return self

    def select(self, keep) -> "MomentState":
        """The points where keep, an array of booleans, holds (a scalar keep is true: every point)."""
        if not isinstance(keep, np.ndarray):  # an array keep comes with array fields
            return self
        arrays = {k: v for k, v in vars(self).items() if isinstance(v, np.ndarray)}
        keep = np.broadcast_to(keep, np.broadcast_shapes(*(v.shape for v in arrays.values())))
        return replace(self, **{k: v[keep] for k, v in arrays.items()})

    @classmethod
    def from_packet(cls, packet, particle: Particle, p0_ev: float = 0.0, t_s: float = 0.0) -> "MomentState":
        """Free-packet state at laboratory time t_s, with z anchored at 0; its
        l is particle.model_l(packet.l)."""
        u_sq = units.require("u_perp_sq", transverse_velocity_sq(packet, particle), "subluminal")
        dt = units.time_to_natural(t_s - packet.focus_time_s)
        sigma = units.length_to_natural(packet.sigma_r_m)
        sigma_sq = sigma * sigma
        return cls(
            rho_sq=sigma_sq + u_sq * dt * dt,
            drho_sq_dt=2.0 * u_sq * dt,
            u_perp_sq=u_sq,
            p_z=p0_ev,
            z=0.0,
            t=units.time_to_natural(t_s),
            l=particle.model_l(packet.l),
        ).validated()


def rho_sq_free(packet: LGPacket, t_s: float, particle: Particle) -> float:
    """Mean square radius sigma_r^2 + <u_perp^2> (t - t0)^2 of a free packet, in m^2."""
    units.require("t_s", t_s, "finite")
    return units.area_from_natural(MomentState.from_packet(packet, particle, t_s=t_s).rho_sq)


def propagate_drift(state: MomentState, dt, particle: Particle) -> MomentState:
    """Free expansion over dt, a scalar or an array of offsets; exact for dt >= 0."""
    units.require("dt", dt, "non-negative")
    u_sq = state.u_perp_sq
    return MomentState(  # not dataclasses.replace, which costs twice as much
        rho_sq=state.rho_sq + state.drho_sq_dt * dt + u_sq * dt * dt,
        drho_sq_dt=state.drho_sq_dt + 2.0 * u_sq * dt,
        u_perp_sq=u_sq,
        p_z=state.p_z,
        z=state.z + (state.p_z / particle.mass_ev) * dt,
        t=state.t + dt,
        l=state.l,
    )


def _per_point(function, *values):
    """A math function at each point of values, scalars or arrays that
    broadcast, as a float64 or an array: numpy's hypot, arccos and arctan2
    differ from math's in the last bit, and the CSV is pinned to math's."""
    if not any(isinstance(x, np.ndarray) for x in values):  # one point: the function, called once
        return np.float64(function(*values))
    arrays = [np.asarray(x) for x in values]
    if len({x.shape for x in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    columns = map(function, *(x.ravel().tolist() for x in arrays))
    return np.fromiter(columns, float, arrays[0].size).reshape(arrays[0].shape)[()]


def stationary_rho_sq(u_perp_sq: float, l: int, omega0: float, particle: Particle) -> float:
    """Oscillation center (2 <u^2> - 2 w l / m) / w^2 in natural units.

    A non-positive result means no stable orbit exists for this OAM and
    field (possible for l > 0 with small transverse velocity).
    """
    units.require("omega0", omega0)
    m = particle.mass_ev
    return (2.0 * u_perp_sq - 2.0 * omega0 * l / m) / (omega0 * omega0)


@dataclass(frozen=True)
class LensOrbit:
    """Zeroth-order solution inside a lens, dt from the entry state.

    <rho^2>(dt) = center + a_cos cos(w dt) + a_sin sin(w dt) and
    p_z(dt) = p_z + e|E0| dt.  Only the homogeneous field (H0, E0) enters;
    gradients are first-order corrections about this orbit, and length, the
    lens length in natural units, normalizes them.  An entry state or a
    field H0 with arrays gives an orbit with one entry per point.
    """

    entry: MomentState
    omega0: float
    center: float
    a_cos: float
    a_sin: float
    amplitude: float
    force: float
    mass: float
    length: float

    @classmethod
    def from_entry(cls, state: MomentState, lens: LensConfig, particle: Particle) -> "LensOrbit":
        omega0 = units.cyclotron_frequency_natural(lens.h0_gauss, particle)
        center = stationary_rho_sq(state.u_perp_sq, state.l, omega0, particle)
        a_cos, a_sin = state.rho_sq - center, state.drho_sq_dt / omega0
        amplitude = _per_point(math.hypot, a_cos, a_sin)  # center - amplitude cancels
        return cls(
            entry=state,
            omega0=omega0,
            center=units.require("rho_sq_st", center, "finite"),
            a_cos=a_cos,
            a_sin=a_sin,
            amplitude=units.require("amplitude", amplitude, "finite"),
            force=units.accelerating_force_natural(lens.e0_v_per_m),
            mass=particle.mass_ev,
            length=units.length_to_natural(lens.length_m),
        )

    def phase(self, dt):
        """(cos, sin) of omega0 dt, the one pair the lens formulas read."""
        w = self.omega0 * dt
        return np.cos(w), np.sin(w)

    def rho_sq(self, cos, sin):
        """<rho^2> at the offsets dt of (cos, sin) = self.phase(dt)."""
        return self.center + self.a_cos * cos + self.a_sin * sin

    def drho_sq(self, cos, sin):
        """d<rho^2>/dt at the offsets dt of (cos, sin) = self.phase(dt)."""
        return self.omega0 * (-self.a_cos * sin + self.a_sin * cos)

    def p_z(self, dt):
        return self.entry.p_z + self.force * dt

    def dz(self, dt):
        """Distance travelled since the entry, (p_z/m) dt + (e|E0|/m) dt^2 / 2."""
        m = self.mass
        return (self.entry.p_z / m) * dt + 0.5 * (self.force / m) * dt * dt

    def first_crossing_dt(self, threshold: float, dt_max: float):
        """First dt in [0, dt_max] with <rho^2>(dt) <= threshold, NaN if there is
        none; on an orbit of arrays, one entry per point.

        The orbit dips below the threshold on the arc
        (phase + theta, phase + 2 pi - theta) with
        theta = arccos((threshold - center) / amplitude); only the points
        that dip below the threshold after the entry are solved.
        """
        units.require("threshold", threshold, "finite")
        crossing = np.where(self.rho_sq(*self.phase(0.0)) <= threshold, 0.0, np.nan)
        dips = np.isnan(crossing) & (self.amplitude != 0.0) & (self.center - self.amplitude <= threshold)
        if np.count_nonzero(dips):
            # an array field has one entry per point; a scalar one is shared
            fields = (self.center, self.amplitude, self.a_cos, self.a_sin, self.omega0)
            center, amp, a_cos, a_sin, omega0 = (x[dips] if isinstance(x, np.ndarray) else x for x in fields)
            theta = _per_point(math.acos, np.minimum(np.maximum((threshold - center) / amp, -1.0), 1.0))
            phase = _per_point(math.atan2, a_sin, a_cos) % (2.0 * math.pi)  # of the maximum
            dt = (phase + theta) % (2.0 * math.pi) / omega0
            crossing[dips] = np.where(dt <= dt_max, dt, np.nan)
        return crossing[()]


def compton_floor(particle: Particle) -> float:
    """Smallest meaningful mean square radius, (hbar / m c)^2 in natural units."""
    return (1.0 / particle.mass_ev) ** 2


def lens_state_at(orbit: LensOrbit, dt) -> MomentState:
    """State on a built lens orbit a time dt past entry, a scalar or an array
    of offsets.  It does not check the Compton floor: a walk's Leg stops at
    the orbit's first crossing, and run samples up to and including it.
    """
    units.require("dt", dt, "non-negative")
    state, phase = orbit.entry, orbit.phase(dt)
    return MomentState(
        rho_sq=orbit.rho_sq(*phase),
        drho_sq_dt=orbit.drho_sq(*phase),
        u_perp_sq=state.u_perp_sq,
        p_z=orbit.p_z(dt),
        z=state.z + orbit.dz(dt),
        t=state.t + dt,
        l=state.l,
    )


def matching_ratio(n: int, l: int, n_prime: int) -> Fraction:
    """Exact waist-matching ratio rho_H^2 / sigma_r^2 = 4 (2n'+|l|+l+1)/(2n+|l|+1)."""
    if n < 0 or n_prime < 0:
        raise ValueError("n and n_prime must be non-negative")
    return Fraction(4 * (2 * n_prime + abs(l) + l + 1), 2 * n + abs(l) + 1)


def large_l_waist(h0_gauss: float, particle: Particle) -> float:
    """Matched waist sigma_r = rho_H / sqrt(8) in the large positive-l limit (m)."""
    return units.magnetic_radius(h0_gauss, particle) / math.sqrt(8.0)


def radial_number_for_ratio(ratio: Fraction, l: int, n_prime: int) -> int:
    """Radial quantum number n that realizes a required matching ratio exactly.

    Inverts the matching relation; raises if no non-negative integer n works.
    """
    ratio = Fraction(ratio)
    if ratio > 0:  # a ratio of 0 or less matches no n
        n = (Fraction(4 * (2 * n_prime + abs(l) + l + 1), 1) / ratio - (abs(l) + 1)) / 2
        if n.denominator == 1 and n >= 0:
            return int(n)
    raise ValueError(f"no integer radial number matches ratio {ratio}")


def waist_dt(state: MomentState) -> float:
    """Time offset to the free-trajectory waist (negative if already past)."""
    return -state.drho_sq_dt / (2.0 * state.u_perp_sq)


def free_waist_rho_sq(state: MomentState) -> float:
    """Mean square radius at the free-trajectory waist through this state."""
    return state.rho_sq - state.drho_sq_dt * state.drho_sq_dt / (4.0 * state.u_perp_sq)


@dataclass(frozen=True)
class TransportReport:
    """Matching and transport diagnostics at a lens entry (natural units)."""

    rho_sq_min: float
    matched: bool
    transportable: bool
    matching_ratio_required: Fraction
    matching_ratio_actual: float
    transportable_solved_form: bool


@np.errstate(all="ignore")  # as a decorator it costs half of a with block
def transport_check(orbit: LensOrbit, n: int = 0, n_prime: int = 0) -> TransportReport:
    """Evaluate matching and transport conditions for a lens orbit's entry.

    Transport is judged by the amplitude form
        rho_sq_min = R_st - sqrt((R_in - R_st)^2 + (dR_in / w)^2) > 0
    and cross-computed with the solved inequality
        R_st > R_in / 2 + dR_in^2 / (2 w^2 R_in);
    the two are algebraically equivalent and both are reported.  The actual
    matching ratio compares rho_H^2 against the waist of the free trajectory
    through the entry state; a waist that cancels to 0 makes it inf.  On an
    orbit of arrays, every field but the required ratio holds one entry per
    point.  A value past the float range is returned as numpy gives it.
    """
    state = orbit.entry
    rho_sq_min = orbit.center - orbit.amplitude
    required = matching_ratio(n, state.l, n_prime)
    rho_h_sq = 4.0 / (orbit.mass * orbit.omega0)
    solved = orbit.center > (
        0.5 * state.rho_sq
        + state.drho_sq_dt * state.drho_sq_dt / (2.0 * (orbit.omega0 * orbit.omega0) * state.rho_sq)
    )
    actual = np.divide(rho_h_sq, free_waist_rho_sq(state))
    matched = abs(actual / float(required) - 1.0) <= MATCHED_TOLERANCE
    return TransportReport(
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
    value oscillates with the orbit phase.  A non-finite rho_sq, drho_sq_dt
    or u_perp_sq raises, naming the field, and so does a radicand that
    leaves the float range.
    """
    for name in ("rho_sq", "drho_sq_dt", "u_perp_sq"):
        units.require(name, getattr(state, name), "finite")
    correlation = 0.5 * state.drho_sq_dt
    radicand = state.rho_sq * state.u_perp_sq - correlation * correlation
    scale = state.rho_sq * state.u_perp_sq
    if radicand < -1e-12 * scale:
        raise ValueError(
            f"inconsistent moments: emittance radicand {radicand} < 0"
        )
    return math.sqrt(max(0.0, units.require("emittance radicand", radicand, "finite")))
