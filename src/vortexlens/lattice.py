"""Beamline composition, the element walk, trajectory sampling and inverse design.

A beamline is an ordered list of drifts and lenses traversed by one packet.
walk() moves the moment state piecewise with the closed forms, so boundary
continuity is exact by construction; run, state_at and entry_states consume
it.  Over-focusing ends the walk with an event rather than raising.

Public state (MomentState, event times) stays in natural units; element
durations and the sampling step are laboratory seconds, converted on entry.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

from . import units
from .elements import Drift, LensConfig
from .moments import (
    LensOrbit,
    MomentState,
    RELATIVISTIC_VELOCITY_BOUND,
    compton_floor,
    free_waist_rho_sq,
    lens_state_at,
    matching_ratio,
    propagate_drift,
    waist_dt,
)
from .packet import LGPacket
from .perturbation import ZerothOrderInputs, correction_closed_form
from .units import Particle

FLAG_FOCAL = "FOCAL"
FLAG_OVERFOCUS = "OVERFOCUS"
FLAG_RELATIVISTIC = "RELATIVISTIC"

EVENT_BOUNDARY = "boundary"
EVENT_FOCAL = "focal_point"
EVENT_OVERFOCUS = "overfocus"
EVENT_RELATIVISTIC = "relativistic_warning"

MAX_SAMPLES = 1_000_000


class BeamlineConfigError(ValueError):
    """Beamline or element configuration that cannot be run."""


class NoFocusError(RuntimeError):
    """No focal point (waist) inside the examined drift segment."""


class NoCaptureFieldError(RuntimeError):
    """No positive solenoid field realizes the requested stationary radius."""


@dataclass(frozen=True)
class Beamline:
    """Ordered elements traversed by one packet with entry momentum p0."""

    elements: tuple[Drift | LensConfig, ...]
    particle: Particle
    packet: LGPacket
    p0_ev: float = 0.0

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise BeamlineConfigError("beamline must contain at least one element")
        for element in self.elements:
            if not isinstance(element, (Drift, LensConfig)):
                raise BeamlineConfigError(f"unsupported element type: {element!r}")

    @property
    def duration_s(self) -> float:
        """Laboratory time from launch to the end of the last element."""
        return math.fsum(element.duration_s for element in self.elements)


@dataclass(frozen=True)
class TrajectoryEvent:
    t: float
    kind: str
    element_index: int


@dataclass(frozen=True)
class TrajectorySample:
    state: MomentState
    element_index: int
    rho_sq_corr1: float | None
    flags: frozenset[str]


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples plus events; completed is False after truncation."""

    samples: tuple[TrajectorySample, ...]
    events: tuple[TrajectoryEvent, ...]
    completed: bool

    def events_of(self, kind: str) -> tuple[TrajectoryEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)


@dataclass(frozen=True)
class Leg:
    """One reachable element of a walk; times are natural offsets from entry."""

    index: int
    element: Drift | LensConfig
    entry: MomentState
    duration: float
    evaluate: Callable[[float], MomentState]
    focal: float | None
    crossing: float | None


def walk(beamline: Beamline) -> Iterator[Leg]:
    """Yield one Leg per reachable element; each exit state is the next entry.

    focal is a drift's waist when it lies inside the drift.  crossing is a
    lens's first over-focus crossing, which ends the walk; a lens evaluates
    its zeroth-order orbit, built once per leg.  A drift whose <rho^2> would
    fall to zero (a lens left <rho^2><u^2> < <rho.u>^2) or an exit state
    that is not a valid state raises BeamlineConfigError.
    """
    particle = beamline.particle
    floor = compton_floor(particle)
    entry = MomentState.from_packet(beamline.packet, particle, beamline.p0_ev, t_s=0.0)
    leg = None
    for index, element in enumerate(beamline.elements):
        if leg is not None:
            try:
                entry = leg.evaluate(leg.duration)
            except ValueError as exc:  # e.g. <rho^2> overflowing a long drift
                raise BeamlineConfigError(f"beamline[{leg.index}]: exit state: {exc}") from None
        duration = units.time_to_natural(element.duration_s)
        focal = crossing = None
        if isinstance(element, Drift):
            evaluate = partial(propagate_drift, entry, particle=particle)
            if entry.drho_sq_dt <= 0.0:
                waist = waist_dt(entry)
                focal = waist if 0.0 <= waist < duration else None
                rho_sq = free_waist_rho_sq(entry)
                if rho_sq <= 0.0 and waist - math.sqrt(-rho_sq / entry.u_perp_sq) <= duration:
                    raise BeamlineConfigError(
                        f"beamline[{index}]: <rho^2> falls to zero in this drift "
                        "(the lens before it left <rho^2><u^2> < <rho.u>^2)"
                    )
        else:
            orbit = LensOrbit.from_entry(entry, element, particle)
            evaluate = partial(lens_state_at, orbit)
            crossing = orbit.first_crossing_dt(floor, duration)
        leg = Leg(index, element, entry, duration, evaluate, focal, crossing)
        yield leg
        if crossing is not None:
            return


def run(beamline: Beamline, sample_dt_s: float) -> Trajectory:
    """Sample every leg of the walk on a grid of step sample_dt_s from its entry.

    Focal points and an over-focus crossing get exact extra samples; the
    crossing ends the trajectory.  Gradient lenses carry the first-order
    radius correction.  Over MAX_SAMPLES raises before any sample is built.
    """
    if not sample_dt_s > 0:
        raise ValueError("sample_dt_s must be positive")
    count = beamline.duration_s / sample_dt_s + 3 * len(beamline.elements)  # grid, focal, end
    if not count <= MAX_SAMPLES:
        raise BeamlineConfigError(f"up to {count:.3g} samples, over MAX_SAMPLES = {MAX_SAMPLES}")
    mass = beamline.particle.mass_ev
    dt_sample = units.time_to_natural(sample_dt_s)
    bound = RELATIVISTIC_VELOCITY_BOUND
    samples: list[TrajectorySample] = []
    events: list[TrajectoryEvent] = []
    relativistic_seen = False
    for leg in walk(beamline):
        index, element, entry, crossing = leg.index, leg.element, leg.entry, leg.crossing
        if index > 0:
            events.append(TrajectoryEvent(entry.t, EVENT_BOUNDARY, index))
        elif entry.p_z / mass > bound:
            events.append(TrajectoryEvent(entry.t, EVENT_RELATIVISTIC, 0))
            relativistic_seen = True
        horizon = crossing if crossing is not None else leg.duration
        grid = range(math.ceil(horizon / dt_sample) + 1)
        offsets = {k * dt_sample: set() for k in grid if k * dt_sample < horizon}
        if crossing is not None or index == len(beamline.elements) - 1:
            offsets.setdefault(horizon, set())
        if leg.focal is not None:
            events.append(TrajectoryEvent(entry.t + leg.focal, EVENT_FOCAL, index))
            offsets.setdefault(leg.focal, set()).add(FLAG_FOCAL)
        if crossing is not None:
            events.append(TrajectoryEvent(entry.t + crossing, EVENT_OVERFOCUS, index))
            offsets[crossing].add(FLAG_OVERFOCUS)
        corr_of = None
        if isinstance(element, LensConfig):
            force = units.accelerating_force_natural(element.e0_v_per_m)
            if not relativistic_seen and force > 0.0:
                cross_rel = (bound * mass - entry.p_z) / force
                if 0.0 <= cross_rel <= horizon:
                    events.append(TrajectoryEvent(entry.t + cross_rel, EVENT_RELATIVISTIC, index))
                    relativistic_seen = True
            if not element.is_homogeneous:
                inputs = ZerothOrderInputs.from_entry_state(entry, element, beamline.particle)
                corr_of = partial(correction_closed_form, inputs, element.kappa)
        for off in sorted(offsets):
            st = leg.evaluate(off)
            if st.p_z / mass > bound:
                offsets[off].add(FLAG_RELATIVISTIC)
            corr = corr_of(off) if corr_of is not None else None
            samples.append(TrajectorySample(st, index, corr, frozenset(offsets[off])))
    return Trajectory(tuple(samples), tuple(events), completed=crossing is None)


def state_at(beamline: Beamline, t: float) -> MomentState:
    """Exact state at natural time t, piecewise closed forms, no sampling.

    Raises if t precedes the start, lies beyond the end, or falls past an
    over-focus crossing (the model stops being meaningful there).
    """
    for leg in walk(beamline):
        offset = t - leg.entry.t
        if offset < 0.0:
            raise ValueError(f"t = {t} precedes the beamline start")
        if leg.crossing is not None and leg.crossing <= offset:
            at = leg.entry.t + leg.crossing
            raise ValueError(f"t = {t} lies beyond the over-focus crossing at {at}")
        if offset <= leg.duration:
            return leg.evaluate(offset)
    raise ValueError(f"t = {t} lies beyond the end of the beamline")


def find_focal_time(state: MomentState, max_dt: float | None = None) -> float:
    """Absolute time of the waist of the free segment starting at state.

    The free derivative is linear in time, so the root is exact.  Raises
    NoFocusError when the segment only expands (waist in the past) or when
    the waist falls beyond max_dt.
    """
    if state.drho_sq_dt > 0.0:
        raise NoFocusError("segment is expanding; the waist lies in the past")
    dt = waist_dt(state)
    if max_dt is not None and dt > max_dt:
        raise NoFocusError(f"waist at offset {dt} is beyond the segment end {max_dt}")
    return state.t + dt


FOCAL_SLOPE_TOLERANCE = 1e-9


def design_direct_capture(
    state: MomentState, particle: Particle, n_prime: int = 0, length_m: float = 0.1,
    duration_s: float | None = None, e0_v_per_m: float = 0.0,
) -> LensConfig:
    """Solenoid field that captures a focal-point state with no oscillation.

    Solves R_st(omega) = <rho^2>_in, a quadratic in omega, taking the
    positive root; placed at a waist (slope zero within tolerance) the
    resulting lens holds <rho^2> constant.  n_prime only labels the target
    stationary level; the field solve is fixed by <u^2> and l.
    """
    slope_scale = 2.0 * math.sqrt(state.rho_sq * state.u_perp_sq)
    if abs(state.drho_sq_dt) > FOCAL_SLOPE_TOLERANCE * slope_scale:
        raise ValueError(
            f"state is not at a focal point: d<rho^2>/dt = {state.drho_sq_dt} exceeds tolerance"
        )
    if n_prime < 0:
        raise ValueError("n_prime must be non-negative")
    m = particle.mass_ev
    b = 2.0 * state.l / m
    disc = b * b + 8.0 * state.rho_sq * state.u_perp_sq
    omega = (-b + math.sqrt(disc)) / (2.0 * state.rho_sq)
    if not omega > 0.0:
        raise NoCaptureFieldError("no positive cyclotron frequency fits this state")
    h0_gauss = units.field_from_cyclotron_natural(omega, particle)
    if duration_s is None:
        duration_s = 3.0 * 2.0 * math.pi / units.cyclotron_frequency(h0_gauss, particle)
    return LensConfig(
        h0_gauss=h0_gauss, duration_s=duration_s, length_m=length_m, e0_v_per_m=e0_v_per_m
    )


def solve_matching(packet: LGPacket, n_prime: int, particle: Particle) -> float:
    """Solenoid field in gauss that matches the packet waist exactly.

    Inverts rho_H^2(H0) / sigma_r^2 = 4 (2n'+|l|+l+1) / (2n+|l|+1) through
    rho_H^2 = 4 hbar / (|q| H0); closed form, no iteration.
    """
    ratio = matching_ratio(packet.n, packet.l, n_prime)
    rho_h_sq_m2 = float(ratio) * packet.sigma_r_m**2
    h_tesla = 4.0 * units.REDUCED_PLANCK_JS / (units.ELEMENTARY_CHARGE_C * rho_h_sq_m2)
    return h_tesla * units.GAUSS_PER_TESLA


def entry_states(beamline: Beamline) -> tuple[tuple[int, MomentState], ...]:
    """Index and exact entry state of every reachable lens; an over-focusing
    lens still reports its own entry, but everything downstream is unreachable."""
    return tuple((g.index, g.entry) for g in walk(beamline) if isinstance(g.element, LensConfig))
