"""First-order corrections to the lens orbit from linear field gradients.

For a lens whose magnetic and electric gradients share a single dimensionless
parameter kappa, the correction <rho^2>^(1) obeys a driven oscillator

    d2r1/dt2 + w^2 r1 = 2 u1(t)
                        - kappa (2 w l / (m L)) z0(t)
                        - kappa (2 w^2 / L) z0(t) r0(t)
                        + kappa (2 e|E0| / (m L)) r0(t)

    du1/dt = (kappa w / (m^2 L)) (l + (m w / 2) r0(t)) pz0(t)

with the zeroth-order inputs r0, z0 and pz0 read from the lens orbit
(moments.LensOrbit: rho_sq, dz and p_z) built at the entry, L its length,
and vanishing initial value, slope and u1 at the lens entry.  Every
function here takes that orbit.  Two evaluation routes are provided: the
algebraic closed form of the solution, and direct numerical integration of
the system.  The numerical route is authoritative; verify_closed_form
cross-checks the two and reports any mismatch instead of trusting either
silently.  The system is linear in (u1, r1, dr1), so correction_by_quadrature
and verify_closed_form integrate it with the exact one-step map of classical
RK4 (oracle.integrate_rk4_linear): a prefix scan over blocks of steps, which
arrive one at a time; a test pins that map to the generic RK4 integrator.
verify_closed_form evaluates the closed form on each block's grid, with the
forcing's cos/sin there, applies the oscillator to it exactly and keeps only
the block's largest values, so its memory does not grow with the span.

Everything here is in natural units (see the units module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import units
from .elements import LensConfig, require_kappa
from .moments import LensOrbit, MomentState
from .oracle import integrate_rk4  # noqa: F401  bench/spans.py wraps perturbation.integrate_rk4
from .oracle import MAX_STEPS, integrate_rk4_linear
from .units import Particle

VALIDITY_FRACTION = 0.3
MIN_STEPS_PER_PERIOD = 200


# The three closures behind the driven system above, recorded so that every
# correction carries its own fine print.  omega_1 denotes the gradient rate
# kappa * omega_0 / L implied by omega_c(z) = omega_0 (1 + kappa z / L).
APPROXIMATIONS = MappingProxyType({
    "cyclotron-radius-split": (
        "<omega_c^2(z) rho^2> is expanded to first order in the gradient "
        "and factorized as omega_0^2 <rho^2>^(0) + omega_0^2 <rho^2>^(1) "
        "+ 2 omega_0 omega_1 <z>^(0) <rho^2>^(0)"
    ),
    "radius-momentum-sq-factorization": (
        "the O(kappa) mixed average kappa <rho^2 p_z^2> is factorized "
        "into kappa <rho^2>^(0) <p_z^2>^(0)"
    ),
    "radius-momentum-symmetrized-factorization": (
        "the symmetrized <rho^2 p_z> combinations (including the "
        "gradient-weighted z terms) are factorized into "
        "<rho^2>^(0) <p_z>^(0), dropping O(kappa^2) remainders"
    ),
})


@dataclass(frozen=True)
class CorrectionState:
    """First-order corrections at a fixed time past the lens entry.

    rho_sq_1 and u_perp_sq_1 are the corrections to <rho^2> and <u_perp^2>;
    validity_exceeded marks |rho_sq_1| creeping past 30% of the zeroth-order
    value, the point where first-order theory leaves its regime.
    """

    rho_sq_1: float
    u_perp_sq_1: float
    validity_exceeded: bool
    assumptions: MappingProxyType[str, str]  # APPROXIMATIONS


class ZerothOrderInputs:
    """The zeroth-order inputs of a gradient lens are its LensOrbit."""

    @staticmethod
    def from_entry_state(state: MomentState, lens: LensConfig, particle: Particle) -> LensOrbit:
        """The lens orbit at a lens entry."""
        return LensOrbit.from_entry(state, lens, particle)


def closed_form_groups(orbit: LensOrbit, kappa: float, dt, phase) -> tuple:
    """The five closed-form groups of <rho^2>^(1), individually.

    Two sine groups, a cosine group, a cosine-times-dt group and a secular
    polynomial; their sum is the correction.  Exposed separately so a failed
    cross-check can report which group disagrees.  dt is a scalar or an
    array of times and phase its pair orbit.phase(dt).  The powers of w are
    numpy's: inf or 0 past the float range, where Python's raise.
    """
    a_in = orbit.entry.rho_sq
    a_st = orbit.center
    rate = orbit.entry.drho_sq_dt
    p0 = orbit.entry.p_z
    f = orbit.force
    w = np.float64(orbit.omega0)
    ll = orbit.length
    m = orbit.mass
    cos_w, sin_w = phase
    gap, w3 = a_in - a_st, w**3  # scalars, each computed once (dt-wide terms stay inline: fewer temporaries)
    return (
        -(kappa * sin_w / (2.0 * ll * m * w))
        * (f * dt * (rate * dt - 4.0 * gap) + 2.0 * p0 * (rate * dt - a_in)),
        -(kappa * sin_w / (6.0 * ll * m * w3))
        * (w**4 * (dt * dt) * gap * (f * dt + 3.0 * p0) - 12.0 * f * rate),
        (kappa * cos_w / (ll * m * w**2))
        * (f * (a_in - 4.0 * a_st - 2.0 * rate * dt) - p0 * rate),
        (kappa * cos_w * dt / (6.0 * ll * m))
        * (f * dt * (rate * dt - 3.0 * gap) + 3.0 * p0 * (rate * dt - 2.0 * gap)),
        -(kappa / (2.0 * ll * m * w3))
        * (2.0 * w * (f * (a_in - 4.0 * a_st) - p0 * rate) + a_st * w3 * dt * (f * dt + 2.0 * p0)),
    )


def _closed_form(orbit: LensOrbit, kappa: float, dt, phase):
    g1, g2, g3, g4, g5 = closed_form_groups(orbit, kappa, dt, phase)
    return g1 + g2 + g3 + g4 + g5


def _oscillator_operator(orbit: LensOrbit, kappa: float, dt, phase):
    """r1'' + w^2 r1 of the closed form r1 = S sin + C cos + Q (S, C, Q cubics in dt), written out as
    (S'' - 2w C') sin + (C'' + 2w S') cos + Q'' + w^2 Q, so that no w^2 r1 term is left to cancel."""
    w, f, p0, rate, st = orbit.omega0, orbit.force, orbit.entry.p_z, orbit.entry.drho_sq_dt, orbit.center
    gap, poly = orbit.entry.rho_sq - st, f * dt * dt + 2.0 * p0 * dt
    return (kappa / (orbit.length * orbit.mass)) * (
        phase[1] * (3.0 * f * rate / w + w * (gap * (f * dt + p0) - rate * poly))
        + phase[0] * (3.0 * f * gap - p0 * rate - f * rate * dt - w * w * gap * poly)
        - (f * (gap - 2.0 * st) - p0 * rate + 0.5 * st * w * w * poly)
    )


@np.errstate(all="ignore")  # as a decorator it costs half of a with block
def correction_closed_form(orbit: LensOrbit, kappa: float, dt):
    """Closed-form <rho^2>^(1) a time dt past the lens entry.

    dt is a scalar or an array of offsets.  Exactly linear in kappa; value and slope
    vanish at dt = 0; a value past the float range raises, with no numpy warning.
    The integrated system is the authority; verify_closed_form cross-checks the two.
    """
    require_kappa("kappa", kappa)
    units.require("dt", dt, "non-negative")
    return units.require("rho_sq_corr1", _closed_form(orbit, kappa, dt, orbit.phase(dt)), "finite")


def _gradient_forcing(orbit: LensOrbit, kappa: float, t, phase):
    """Gradient terms of the driven system at t past the lens entry.

    Returns (du1/dt, drive), where drive is the right-hand side of
    r1'' + w^2 r1 = 2 u1 + drive without its 2 u1 term.  t is a scalar or
    an array of times and phase its pair orbit.phase(t).
    """
    w = orbit.omega0
    m = orbit.mass
    l = orbit.entry.l
    ll = orbit.length
    rho0 = orbit.rho_sq(*phase)
    z0 = orbit.dz(t)
    du1 = (kappa * w / (m * m * ll)) * (l + 0.5 * m * w * rho0) * orbit.p_z(t)
    drive = (
        -kappa * (2.0 * w * l / (m * ll)) * z0
        - kappa * (2.0 * w * w / ll) * z0 * rho0
        + kappa * (2.0 * orbit.force / (m * ll)) * rho0
    )
    return du1, drive


def _integrate_linear(orbit: LensOrbit, kappa: float, t_end: float, step: float):
    """Yields (ts, states, drive, cos, sin) per block: the driven first-order system, state (u1, r1, dr1), from
    rest at the lens entry to t_end by the exact RK4 step map, and the drive and phase pair at the block's ts,
    read off the forcing's even half-steps.  A midpoint's pair is the grid pair before it turned by the half
    step: within 4 eps max(1, omega0 t) of np.cos/np.sin, the rounding of omega0 t itself."""
    matrix = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, -orbit.omega0 * orbit.omega0, 0.0]])
    slot = []  # the drive and phase pair of the block the forcing last built

    def forcing(t: np.ndarray) -> np.ndarray:
        b = np.empty((3, t.size))  # its first two rows hold the phase pair until the forcing is built
        cos, sin = orbit.phase(t[::2])
        cos_d, sin_d = orbit.phase(t[1:2] - t[:1])  # empty on a zero span, which has no midpoint
        b[0, ::2], b[1, ::2] = cos, sin
        b[0, 1::2], b[1, 1::2] = cos[:-1] * cos_d - sin[:-1] * sin_d, sin[:-1] * cos_d + cos[:-1] * sin_d
        du1, drive = _gradient_forcing(orbit, kappa, t, b[:2])
        slot[:] = drive[::2], cos, sin
        b[0], b[1], b[2] = du1, 0.0, drive
        return b

    for ts, states in integrate_rk4_linear(matrix, forcing, (0.0, 0.0, 0.0), 0.0, t_end, step):
        yield ts, states, *slot


def correction_by_quadrature(orbit: LensOrbit, kappa: float, dt: float, step: float) -> CorrectionState:
    """Corrections at dt by direct integration of the driven system.

    This is the authoritative route.  The step must resolve the oscillation:
    step <= period / 200.
    """
    require_kappa("kappa", kappa)
    units.require("dt", dt, "non-negative")
    period = 2.0 * math.pi / orbit.omega0
    if step > period / MIN_STEPS_PER_PERIOD:
        raise ValueError(f"step must be at most {period / MIN_STEPS_PER_PERIOD}, got {step}")
    if step > 0 and not dt / step <= MAX_STEPS:  # the step count _time_grid checks
        raise ValueError(f"dt must be at most {MAX_STEPS * step}, got {dt}")
    for _, states, *_ in _integrate_linear(orbit, kappa, dt, step):
        u1, r1, _ = states[-1].tolist()  # the last block's last state is the one returned
    return CorrectionState(
        rho_sq_1=r1,
        u_perp_sq_1=u1,
        validity_exceeded=abs(r1) > VALIDITY_FRACTION * abs(orbit.rho_sq(*orbit.phase(dt))),
        assumptions=APPROXIMATIONS,
    )


@dataclass(frozen=True)
class ClosedFormCheck:
    """Outcome of cross-checking the closed form against the integral route."""

    max_mismatch_over_peak: float
    max_ode_residual_over_drive: float
    tolerance: float
    consistent: bool
    worst_time: float
    groups_at_worst_time: tuple[float, ...]

    def report(self) -> str:
        lines = [
            f"consistent: {self.consistent}",
            f"max |closed - integrated| / peak: {self.max_mismatch_over_peak:.3e}",
            f"max ODE residual / drive: {self.max_ode_residual_over_drive:.3e}",
            f"tolerance: {self.tolerance:.1e}",
        ]
        if not self.consistent:
            lines.append(f"worst time: {self.worst_time}")
            for i, g in enumerate(self.groups_at_worst_time, start=1):
                lines.append(f"closed-form group {i} at worst time: {g:.6e}")
        return "\n".join(lines)


def verify_closed_form(
    orbit: LensOrbit,
    kappa: float,
    n_periods: float = 4.0,
    tolerance: float = 1e-6,
) -> ClosedFormCheck:
    """Cross-check the closed form against the integrated system.

    Compares the two routes on the RK4 grid (period / 2048) over n_periods
    and substitutes the closed form into the oscillator equation exactly
    (_oscillator_operator) at every grid point past the entry, against the
    drive from the integrated u1.  The integral route is authoritative: a
    failed check means the closed form (or its transcription) is wrong, and
    the per-group values at the worst time are reported for diagnosis.
    """
    require_kappa("kappa", kappa)
    units.require("n_periods", n_periods, "non-negative")
    units.require("tolerance", tolerance, "non-negative")
    period = 2.0 * math.pi / orbit.omega0
    t_end, step = n_periods * period, period / 2048.0
    if not t_end / step <= MAX_STEPS:  # the step count _time_grid checks
        raise ValueError(f"n_periods must be at most {MAX_STEPS / 2048.0}, got {n_periods}")
    maxima = []  # per block: the largest |closed - r1| and its time, and the largest |r1|, |drive| and |residual|
    for ts, states, forced, *phase in _integrate_linear(orbit, kappa, t_end, step):
        r1 = states[:, 1]
        gap = np.abs(_closed_form(orbit, kappa, ts, phase) - r1)  # the grid's phase is the forcing's
        worst = int(np.argmax(gap))
        drive = forced[1:] + 2.0 * states[1:, 0]  # a block's start is the last block's end: no residual there
        residual = _oscillator_operator(orbit, kappa, ts[1:], [p[1:] for p in phase]) - drive
        maxima.append((gap[worst], ts[worst], *(np.max(np.abs(x), initial=0.0) for x in (r1, drive, residual))))
        del ts, states, forced, phase, r1, gap, drive, residual  # no block is held while the next is built
    gaps, times, peaks, drives, residuals = np.array(maxima).T
    worst = int(np.argmax(gaps))
    peak = float(np.max(peaks))
    with np.errstate(over="ignore"):  # a peak that underflows reads the rounding noise over it as inf
        max_mismatch = float(gaps[worst] / (peak if peak > 0 else 1.0))
    drive_scale = float(np.max(drives))
    max_residual = float(np.max(residuals)) / (drive_scale if drive_scale > 0 else 1.0)
    worst_time = float(times[worst])

    consistent = max_mismatch <= tolerance and max_residual <= tolerance
    return ClosedFormCheck(
        max_mismatch_over_peak=max_mismatch,
        max_ode_residual_over_drive=max_residual,
        tolerance=tolerance,
        consistent=consistent,
        worst_time=worst_time,
        groups_at_worst_time=closed_form_groups(orbit, kappa, worst_time, orbit.phase(worst_time)),
    )
