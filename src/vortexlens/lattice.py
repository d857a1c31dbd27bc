"""Beamline composition, the element walk, trajectory sampling and inverse design.

A beamline is an ordered list of drifts and lenses traversed by one packet.
walk() moves the moment state piecewise with the closed forms, so boundary
continuity is exact by construction.  It is the only source of lens entries:
run, state_at and entry_states here, and the CLI's check, sweep and design,
consume it, and each lens leg carries the one LensOrbit that
moments.transport_check reads.  Over-focusing ends the walk with an event
rather than raising.

Public state (MomentState, event times) stays in natural units; element
durations and the sampling step are laboratory seconds, converted on entry.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import units
from .elements import Drift, LensConfig
from .moments import (
    LensOrbit,
    MomentState,
    compton_floor,
    free_waist_rho_sq,
    lens_state_at,
    matching_ratio,
    propagate_drift,
    stationary_rho_sq,
    waist_dt,
)
from .packet import LGPacket, transverse_velocity_sq
from .perturbation import correction_closed_form
from .units import Particle

# sample flags: bit i of flag_bits is FLAG_NAMES[i]
FLAG_NAMES = ("FOCAL", "OVERFOCUS", "RELATIVISTIC")
FLAG_FOCAL, FLAG_OVERFOCUS, FLAG_RELATIVISTIC = 1, 2, 4

STATE_FIELDS = ("rho_sq", "drho_sq_dt", "u_perp_sq", "p_z", "z", "t", "l")
SAMPLE_DTYPE = np.dtype(
    [(name, np.int64 if name == "l" else np.float64) for name in STATE_FIELDS]
    + [("element_index", np.int64), ("rho_sq_corr1", np.float64), ("flag_bits", np.uint8)]
)

EVENT_BOUNDARY = "boundary"
EVENT_FOCAL = "focal_point"
EVENT_OVERFOCUS = "overfocus"
EVENT_RELATIVISTIC = "relativistic_warning"

# p_z / m above which the non-relativistic model degrades
RELATIVISTIC_VELOCITY_BOUND = 0.1
MAX_SAMPLES = 1_000_000
# relative distance in time within which a grid point k * dt is a sampled
# focal point or end, up to the rounding of k * dt, of the conversions to
# natural units and of the entry time
GRID_ROUNDING = 8 * np.finfo(float).eps


class BeamlineConfigError(ValueError):
    """Beamline or element configuration that cannot be run."""


class NoCaptureFieldError(RuntimeError):
    """No positive solenoid field in the float range realizes the requested radius."""


@dataclass(frozen=True)
class Beamline:
    """Ordered elements traversed by one packet with entry momentum p0; launch, the
    validated state at t = 0 that every walk starts from, is built here unless given."""

    elements: tuple[Drift | LensConfig, ...]
    particle: Particle
    packet: LGPacket
    p0_ev: float = 0.0
    launch: MomentState | None = None

    def __post_init__(self) -> None:
        if len(self.elements) == 0:
            raise BeamlineConfigError("beamline must contain at least one element")
        for element in self.elements:
            if not isinstance(element, (Drift, LensConfig)):
                raise BeamlineConfigError(f"unsupported element type: {element!r}")
        if self.launch is None:
            object.__setattr__(self, "launch", MomentState.from_packet(self.packet, self.particle, self.p0_ev))

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
class Trajectory:
    """Samples, a record array of SAMPLE_DTYPE (rho_sq_corr1 is NaN outside gradient
    lenses), and events, both in time order: each leg adds its boundary, relativistic,
    focal point and over-focus events in that order.  completed is False after truncation."""

    samples: np.recarray
    events: tuple[TrajectoryEvent, ...]
    completed: bool

    def events_of(self, kind: str) -> tuple[TrajectoryEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)


class Leg(NamedTuple):  # not a frozen dataclass, whose __init__ costs ~2 us per leg
    """One reachable element of a walk; times are natural offsets from entry,
    a scalar or an array for evaluate, and focal and crossing are NaN where
    there is none (see walk).  orbit is a lens's orbit, else None."""

    index: int
    element: Drift | LensConfig
    entry: MomentState
    duration: float
    evaluate: Callable[..., MomentState]
    focal: float
    crossing: float
    orbit: LensOrbit | None


def walk(beamline: Beamline) -> Iterator[Leg]:
    """Yield one Leg per reachable element; each exit state is the next entry.

    focal is a drift's waist when it lies inside the drift.  crossing is a
    lens's first over-focus crossing, which ends the walk; a lens evaluates
    its zeroth-order orbit, built once per leg.  A drift whose <rho^2> would
    fall to zero (a lens left <rho^2><u^2> < <rho.u>^2) or an exit state
    that is not a valid state raises BeamlineConfigError; numpy's overflow
    warnings are silenced, since validation catches the overflow.

    The packet's sigma_r_m, and a field of an element up to and including
    the first lens, may be an array with one entry per point.  States,
    orbits, focal and crossing then hold arrays, any point that fails
    raises, and only the points that have not crossed go on past a lens.
    """
    particle = beamline.particle
    floor = compton_floor(particle)
    entry = beamline.launch
    leg = None
    for index, element in enumerate(beamline.elements):
        with np.errstate(all="ignore"):
            if leg is not None:
                try:
                    entry = leg.evaluate(leg.duration).select(alive).validated()
                except ValueError as exc:  # e.g. <rho^2> overflowing a long drift, or an inf duration
                    raise BeamlineConfigError(f"beamline[{leg.index}]: exit state: {exc}") from None
            duration = units.time_to_natural(element.duration_s)
            focal = crossing = math.nan
            orbit = None
            if isinstance(element, Drift):
                evaluate = partial(propagate_drift, entry, particle=particle)
                waist, rho_sq = waist_dt(entry), free_waist_rho_sq(entry)
                # before the waist, <rho^2> reaches zero at waist - sqrt(-rho_sq / <u^2>) if rho_sq <= 0
                zero_at = waist - np.sqrt(abs(rho_sq) / entry.u_perp_sq)
                approaching = entry.drho_sq_dt <= 0.0
                if np.count_nonzero(approaching & (rho_sq <= 0.0) & (zero_at <= duration)):
                    raise BeamlineConfigError(
                        f"beamline[{index}]: <rho^2> falls to zero in this drift "
                        "(the lens before it left <rho^2><u^2> < <rho.u>^2)"
                    )
                focal = np.where(approaching & (0.0 <= waist) & (waist < duration), waist, math.nan)[()]
            else:
                orbit = LensOrbit.from_entry(entry, element, particle)
                evaluate = partial(lens_state_at, orbit)
                crossing = orbit.first_crossing_dt(floor, duration)
        leg = Leg(index, element, entry, duration, evaluate, focal, crossing, orbit)
        yield leg
        alive = crossing != crossing  # NaN: the points that have not crossed go on
        if not np.count_nonzero(alive):
            return


def run(beamline: Beamline, sample_dt_s: float) -> Trajectory:
    """Sample every leg of the walk on a grid of step sample_dt_s from its entry.

    Each leg is evaluated once, on the array of its offsets.  Focal points,
    an over-focus crossing and the end of the line get exact samples, which
    replace a grid point within rounding of them; the crossing ends the
    trajectory.  Gradient lenses carry the first-order radius
    correction.  Over MAX_SAMPLES raises before any sample is built; the
    samples fill one array of that bound, whose filled prefix is returned.
    """
    units.require("sample_dt_s", sample_dt_s)
    count = beamline.duration_s / sample_dt_s + 3 * len(beamline.elements)  # grid, focal, end
    if not count <= MAX_SAMPLES:
        raise BeamlineConfigError(f"up to {count:.3g} samples, over MAX_SAMPLES = {MAX_SAMPLES}")
    samples = np.zeros(math.ceil(count), SAMPLE_DTYPE)
    filled = 0
    mass = beamline.particle.mass_ev
    dt_sample = units.time_to_natural(sample_dt_s)
    bound = RELATIVISTIC_VELOCITY_BOUND
    events: list[TrajectoryEvent] = []
    relativistic_seen = False
    for leg in walk(beamline):
        index, element, entry, crossing, orbit = leg.index, leg.element, leg.entry, leg.crossing, leg.orbit
        crossed = not math.isnan(crossing)
        if index > 0:
            events.append(TrajectoryEvent(entry.t, EVENT_BOUNDARY, index))
        horizon = crossing if crossed else leg.duration
        # p_z / m passes the bound at the entry, or inside a lens whose field accelerates the packet
        if entry.p_z / mass > bound:
            passage = 0.0
        elif orbit is not None and orbit.force > 0.0:
            passage = (bound * mass - entry.p_z) / orbit.force
        else:
            passage = math.nan
        if not relativistic_seen and 0.0 <= passage <= horizon:
            events.append(TrajectoryEvent(entry.t + passage, EVENT_RELATIVISTIC, index))
            relativistic_seen = True
        end = horizon if crossed or index == len(beamline.elements) - 1 else math.nan
        extra = [x for x in (leg.focal, end) if not math.isnan(x)]
        grid = np.arange(math.ceil(horizon / dt_sample) + 1) * dt_sample
        keep = grid < horizon
        for x in extra:  # the nearest grid point repeats x's row if their times agree within rounding
            k = round(x / dt_sample)
            keep[k] &= abs(k * dt_sample - x) > GRID_ROUNDING * (entry.t + x)
        offsets = np.unique(np.append(grid[keep], extra))
        block = samples[filled:filled + offsets.size]
        filled += offsets.size
        block["rho_sq_corr1"] = np.nan
        if not math.isnan(leg.focal):
            events.append(TrajectoryEvent(entry.t + leg.focal, EVENT_FOCAL, index))
            block["flag_bits"][offsets == leg.focal] |= FLAG_FOCAL
        if crossed:
            events.append(TrajectoryEvent(entry.t + crossing, EVENT_OVERFOCUS, index))
            block["flag_bits"][offsets == crossing] |= FLAG_OVERFOCUS
        try:
            with np.errstate(all="ignore"):  # an offset past the float range fails validation
                state = leg.evaluate(offsets)
            state.validated()
            if orbit is not None and element.kappa != 0.0:
                block["rho_sq_corr1"] = correction_closed_form(orbit, element.kappa, offsets)
        except ValueError as exc:
            raise BeamlineConfigError(f"beamline[{index}]: {exc}") from None
        for name in STATE_FIELDS:
            block[name] = getattr(state, name)
        block["element_index"] = index
        block["flag_bits"][block["p_z"] / mass > bound] |= FLAG_RELATIVISTIC
    # under half filled (an early crossing), a copy frees more than it costs; a shrink in place splits the heap
    kept = samples[:filled] if 2 * filled >= len(samples) else samples[:filled].copy()
    return Trajectory(kept.view(np.recarray), tuple(events), completed=not crossed)


def state_at(beamline: Beamline, t: float) -> MomentState:
    """Exact state at natural time t, piecewise closed forms, no sampling.

    Raises if t precedes the start, lies beyond the end, or falls past an
    over-focus crossing (the model stops being meaningful there); at the
    crossing itself it gives the state that run samples there.
    """
    units.require("t", t, "finite")
    for leg in walk(beamline):
        offset = t - leg.entry.t
        if offset < 0.0:
            raise ValueError(f"t = {t} precedes the beamline start")
        if leg.crossing < offset:  # False for NaN, no crossing
            at = leg.entry.t + leg.crossing
            raise ValueError(f"t = {t} lies beyond the over-focus crossing at {at}")
        if offset <= leg.duration:
            return leg.evaluate(offset)
    raise ValueError(f"t = {t} lies beyond the end of the beamline")


FOCAL_SLOPE_TOLERANCE = 1e-9
# length_m of a designed capture lens: it only normalizes gradients, which that lens has none of
CAPTURE_LENS_LENGTH_M = 0.1


def design_direct_capture(state: MomentState, particle: Particle) -> LensConfig:
    """Solenoid field that captures a focal-point state with no oscillation.

    Solves R_st(omega) = <rho^2>_in, a quadratic in omega, taking the
    positive root; placed at a waist (slope zero within tolerance) the
    resulting lens holds <rho^2> constant.  The lens lasts three cyclotron
    periods, has no accelerating field and is CAPTURE_LENS_LENGTH_M long.
    """
    slope_scale = 2.0 * math.sqrt(state.rho_sq * state.u_perp_sq)
    if abs(state.drho_sq_dt) > FOCAL_SLOPE_TOLERANCE * slope_scale:
        raise ValueError(
            f"state is not at a focal point: d<rho^2>/dt = {state.drho_sq_dt} exceeds tolerance"
        )
    m = particle.mass_ev
    b = 2.0 * state.l / m
    disc = b * b + 8.0 * state.rho_sq * state.u_perp_sq
    omega = (-b + math.sqrt(disc)) / (2.0 * state.rho_sq)
    try:  # a field a lens can use: omega0 and omega0^2 are positive, and the orbit of this state builds
        h0_gauss = units.field_from_cyclotron_natural(omega, particle)
        duration_s = 3.0 * 2.0 * math.pi / units.cyclotron_frequency(h0_gauss, particle)
        lens = LensConfig(h0_gauss=h0_gauss, duration_s=duration_s, length_m=CAPTURE_LENS_LENGTH_M)
        LensOrbit.from_entry(state, lens, particle)
    except ValueError as exc:
        raise NoCaptureFieldError(f"no cyclotron frequency a lens can use fits this state: {exc}") from None
    return lens


def solve_matching(packet: LGPacket, n_prime: int, particle: Particle) -> float:
    """Solenoid field in gauss that matches the packet waist exactly.

    Inverts rho_H^2(H0) / sigma_r^2 = 4 (2n'+|l|+l'+1) / (2n+|l|+1), with
    l' = particle.model_l(l), through rho_H^2 = 4 hbar / (|q| H0); closed
    form, no iteration.  Raises NoCaptureFieldError where the field, its
    omega0^2 or the lens orbit of the packet's waist leaves the float range.
    """
    ratio = matching_ratio(packet.n, particle.model_l(packet.l), n_prime)
    try:
        rho_h_sq_m2 = float(ratio) * packet.sigma_r_m**2
        h_tesla = 4.0 * units.REDUCED_PLANCK_JS / (units.ELEMENTARY_CHARGE_C * rho_h_sq_m2)
        h0_gauss = h_tesla * units.GAUSS_PER_TESLA
        omega0 = units.cyclotron_frequency_natural(h0_gauss, particle)
        u_sq = transverse_velocity_sq(packet, particle)  # the lens orbit of the packet's waist has this center
        units.require("rho_sq_st", stationary_rho_sq(u_sq, particle.model_l(packet.l), omega0, particle), "finite")
        return h0_gauss
    except ArithmeticError:  # rho_H^2 underflows to 0
        cause = "out of the float range"
    except ValueError as exc:  # H0, omega0^2 or the orbit leaves the float range: name which
        cause = f"one no lens can use: {exc}"
    raise NoCaptureFieldError(f"the matching field for sigma_r_m = {packet.sigma_r_m} is {cause}")


def entry_states(beamline: Beamline) -> tuple[tuple[int, MomentState], ...]:
    """Index and exact entry state of every reachable lens; an over-focusing
    lens still reports its own entry, but everything downstream is unreachable."""
    return tuple((g.index, g.entry) for g in walk(beamline) if isinstance(g.element, LensConfig))
