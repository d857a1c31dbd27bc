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
integrates it with the exact one-step map of classical RK4
(oracle.integrate_rk4_linear): a prefix scan over blocks of steps, which
arrive one at a time; a test pins that map to the generic RK4 integrator.
Its forcing lies in the span of the nine functions tau^k, tau^k cos tau and
tau^k sin tau (k <= 2) of tau = omega0 t, which a constant matrix carries,
so the system and its forcing are one constant 12x12 linear system (Van
Loan, IEEE Trans. Automat. Control 23, 1978).  verify_closed_form propagates
it exactly, by the matrix exponential of one step (oracle.integrate_exact),
with no truncation error to tell apart from the closed form's; tests pin
that propagator to the generic RK4 integrator too.  On each block's grid it
evaluates the closed form, applies the oscillator to it exactly and keeps
only the block's largest values, so its memory does not grow with the span.

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
from .oracle import MAX_STEPS, integrate_exact, integrate_rk4_linear
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
    """Yields (ts, states) per block: the driven first-order system, state (u1, r1, dr1), from rest at the
    lens entry to t_end by the exact RK4 step map.  The forcing takes the phase pair once per grid point; a
    midpoint's pair is the grid pair before it turned by the half step: within 4 eps max(1, omega0 t) of
    np.cos/np.sin, the rounding of omega0 t itself."""
    matrix = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, -orbit.omega0 * orbit.omega0, 0.0]])

    def forcing(t: np.ndarray) -> np.ndarray:
        b = np.empty((3, t.size))  # its first two rows hold the phase pair until the forcing is built
        cos, sin = orbit.phase(t[::2])
        cos_d, sin_d = orbit.phase(t[1:2] - t[:1])  # empty on a zero span, which has no midpoint
        b[0, ::2], b[1, ::2] = cos, sin
        b[0, 1::2], b[1, 1::2] = cos[:-1] * cos_d - sin[:-1] * sin_d, sin[:-1] * cos_d + cos[:-1] * sin_d
        du1, drive = _gradient_forcing(orbit, kappa, t, b[:2])
        b[0], b[1], b[2] = du1, 0.0, drive
        return b

    return integrate_rk4_linear(matrix, forcing, (0.0, 0.0, 0.0), 0.0, t_end, step)


def _forcing_coefficients(orbit: LensOrbit, kappa: float) -> np.ndarray:
    """_gradient_forcing's (du1/dt, drive) as a 2x9 array of coefficients on the functions g(tau) tau^k of
    tau = omega0 t, g = 1, cos, sin and k = 0, 1, 2, in the order 3 * g + k: a second transcription of the
    forcing, in which each product of a function of the phase and a polynomial in t is an outer product."""
    w, m, ll, f = np.float64(orbit.omega0), orbit.mass, orbit.length, orbit.force
    l, p0 = orbit.entry.l, orbit.entry.p_z
    one, rho = np.array([1.0, 0.0, 0.0]), np.array([orbit.center, orbit.a_cos, orbit.a_sin])  # on 1, cos, sin
    p_z, z0 = np.array([p0, f / w, 0.0]), np.array([0.0, p0 / (m * w), 0.5 * f / (m * w * w)])  # on 1, tau, tau^2
    du1 = (kappa * w / (m * m * ll)) * np.outer(l * one + 0.5 * m * w * rho, p_z)
    drive = np.outer(-kappa * (2.0 * w * l / (m * ll)) * one - kappa * (2.0 * w * w / ll) * rho, z0) + np.outer(
        kappa * (2.0 * f / (m * ll)) * rho, one
    )
    return np.array([du1.ravel(), drive.ravel()])


# d/dtau of the functions g tau^k, in _forcing_coefficients' order: (tau^k)' = k tau^(k-1), cos' = -sin, sin' = cos
_BASIS_RATE = np.kron(np.eye(3), [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]) + np.kron(
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]], np.eye(3)
)


@np.errstate(all="ignore")  # a coefficient past the float range is a non-finite state, which integrate_exact names
def _exact_system(orbit: LensOrbit, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, y0): the driven system as x' = A x from rest at the lens entry, with x = (U, r1, v, basis),
    (U, r1, v) = (2 u1 / omega0^2, r1, r1' / omega0) and basis the functions of _forcing_coefficients.  In
    tau = omega0 t it reads U' = 2 du1/dt / omega0^3, r1' = v and v' = U - r1 + drive / omega0^2, so A is
    omega0 times a matrix of numbers near 1: its coupling to the basis is divided by a power of two, 2^e,
    that brings it under 1, and the basis starts 2^e times its value, so that (U, r1, v) is unchanged
    while the norm of A, which sets the exponential's scaling, stays that of the oscillation."""
    w = np.float64(orbit.omega0)
    du1, drive = _forcing_coefficients(orbit, kappa)
    coupling = np.array([(2.0 / (w * w * w)) * du1, np.zeros(9), drive / (w * w)])
    scale = math.ldexp(1.0, math.frexp(np.max(np.abs(coupling)))[1])
    a = np.zeros((12, 12))
    a[:3, :3] = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, -1.0, 0.0]]
    a[:3, 3:] = coupling / scale
    a[3:, 3:] = _BASIS_RATE
    y0 = np.zeros(12)
    y0[[3, 6]] = scale  # 1 and cos tau, at tau = 0
    return w * a, y0


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
    for _, states in _integrate_linear(orbit, kappa, dt, step):
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
    """Cross-check the closed form against the exactly propagated system.

    Compares the two routes on the grid of step period / 2048 over n_periods
    and substitutes the closed form into the oscillator equation exactly
    (_oscillator_operator) at every grid point past the entry, against the
    drive from the propagated u1.  The reference is the exact propagator of
    the system and its forcing (_exact_system, oracle.integrate_exact), so
    it carries only rounding, and the closed form, the operator and the
    drive read cos and sin at the phase it propagates.  A failed check means
    the closed form (or its transcription) is wrong, and the per-group
    values at the worst time are reported for diagnosis.
    """
    require_kappa("kappa", kappa)
    units.require("n_periods", n_periods, "non-negative")
    units.require("tolerance", tolerance, "non-negative")
    period = 2.0 * math.pi / orbit.omega0
    t_end, step = n_periods * period, period / 2048.0
    if not t_end / step <= MAX_STEPS:  # the step count _time_grid checks
        raise ValueError(f"n_periods must be at most {MAX_STEPS / 2048.0}, got {n_periods}")
    w2 = orbit.omega0 * orbit.omega0
    matrix, y0 = _exact_system(orbit, kappa)
    maxima = []  # per block: the largest |closed - r1| and its time, and the largest |r1|, |drive| and |residual|
    for ts, states in integrate_exact(matrix, y0, 0.0, t_end, step):
        # cos tau and sin tau as the propagator carries them: the rounding of its one-step matrix turns
        # them off omega0 t (by 4e-11 at 488 periods), and the propagated r1 follows that phase, not omega0 t
        phase = states[:, 6] / y0[3], states[:, 9] / y0[3]
        r1 = states[:, 1]
        gap = np.abs(_closed_form(orbit, kappa, ts, phase) - r1)
        worst = int(np.argmax(gap))
        later = [p[1:] for p in phase]  # a block's start is the last block's end: no residual there
        drive = _gradient_forcing(orbit, kappa, ts[1:], later)[1] + w2 * states[1:, 0]
        residual = _oscillator_operator(orbit, kappa, ts[1:], later) - drive
        maxima.append((gap[worst], ts[worst], *(np.max(np.abs(x), initial=0.0) for x in (r1, drive, residual))))
        del ts, states, phase, r1, gap, later, drive, residual  # no block is held while the next is built
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
