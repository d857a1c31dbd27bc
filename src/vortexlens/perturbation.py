"""First-order corrections to the lens orbit from linear field gradients.

For a lens whose magnetic and electric gradients share a single dimensionless
parameter kappa, the correction <rho^2>^(1) obeys a driven oscillator

    d2r1/dt2 + w^2 r1 = 2 u1(t)
                        - kappa (2 w l / (m L)) z0(t)
                        - kappa (2 w^2 / L) z0(t) r0(t)
                        + kappa (2 e|E0| / (m L)) r0(t)

    du1/dt = (kappa w / (m^2 L)) (l + (m w / 2) r0(t)) pz0(t)

with the zeroth-order inputs r0, z0 and pz0 taken from the lens orbit
(moments.LensOrbit) built at the entry, and vanishing initial value, slope
and u1 at the lens entry.  Two evaluation routes are provided: the
algebraic closed form of the solution, and direct numerical integration of
the system.  The numerical route is authoritative; verify_closed_form
cross-checks the two and reports any mismatch instead of trusting either
silently.  The system is linear in (u1, r1, dr1), so both
correction_by_quadrature and verify_closed_form integrate it with the
exact one-step map of classical RK4 (oracle.integrate_rk4_linear), and
verify_closed_form evaluates the closed form on arrays; a test pins that
map to the generic RK4 integrator.

Everything here is in natural units (see the units module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import units
from .elements import KAPPA_HARD_LIMIT, LensConfig
from .moments import LensOrbit, MomentState, _negative, _trig
from .oracle import integrate_rk4  # noqa: F401  bench/spans.py wraps perturbation.integrate_rk4
from .oracle import integrate_rk4_linear
from .units import Particle

VALIDITY_FRACTION = 0.3
MIN_STEPS_PER_PERIOD = 200
# grid points per array evaluation in verify_closed_form
VERIFY_BLOCK = 256


@dataclass(frozen=True)
class Assumption:
    """Factorization assumed when closing the first-order moment system."""

    key: str
    statement: str


# The three closures behind the driven system above, recorded so that every
# correction carries its own fine print.  omega_1 denotes the gradient rate
# kappa * omega_0 / L implied by omega_c(z) = omega_0 (1 + kappa z / L).
APPROXIMATIONS: tuple[Assumption, ...] = (
    Assumption(
        key="cyclotron-radius-split",
        statement=(
            "<omega_c^2(z) rho^2> is expanded to first order in the gradient "
            "and factorized as omega_0^2 <rho^2>^(0) + omega_0^2 <rho^2>^(1) "
            "+ 2 omega_0 omega_1 <z>^(0) <rho^2>^(0)"
        ),
    ),
    Assumption(
        key="radius-momentum-sq-factorization",
        statement=(
            "the O(kappa) mixed average kappa <rho^2 p_z^2> is factorized "
            "into kappa <rho^2>^(0) <p_z^2>^(0)"
        ),
    ),
    Assumption(
        key="radius-momentum-symmetrized-factorization",
        statement=(
            "the symmetrized <rho^2 p_z> combinations (including the "
            "gradient-weighted z terms) are factorized into "
            "<rho^2>^(0) <p_z>^(0), dropping O(kappa^2) remainders"
        ),
    ),
)


def approximation_ledger() -> tuple[Assumption, ...]:
    """Machine-readable list of the closures behind every correction result."""
    return APPROXIMATIONS


@dataclass(frozen=True)
class CorrectionState:
    """First-order corrections at a fixed time past the lens entry.

    rho_sq_1 and u_perp_sq_1 are the corrections to <rho^2> and <u_perp^2>;
    validity_exceeded marks |rho_sq_1| creeping past 30% of the zeroth-order
    value, the point where first-order theory leaves its regime.
    """

    rho_sq_1: float
    u_perp_sq_1: float
    kappa: float
    validity_exceeded: bool
    assumptions: tuple[Assumption, ...]


@dataclass(frozen=True)
class ZerothOrderInputs:
    """The homogeneous lens orbit and the lens length (natural units)."""

    orbit: LensOrbit
    length: float

    @classmethod
    def from_entry_state(
        cls, state: MomentState, lens: LensConfig, particle: Particle
    ) -> "ZerothOrderInputs":
        """Collect the zeroth-order inputs at a lens entry.

        The gradient model assumes a single kappa, so lenses with
        kappa_m != kappa_e are rejected rather than guessed at.
        """
        lens.kappa  # raises on mixed gradients
        return cls(LensOrbit.from_entry(state, lens, particle), units.length_to_natural(lens.length_m))

    @property
    def omega0(self) -> float:
        return self.orbit.omega0

    def rho0(self, dt):
        return self.orbit.rho_sq(dt)

    def z0(self, dt):
        orbit = self.orbit
        return (orbit.entry.p_z * dt + 0.5 * orbit.force * dt * dt) / orbit.mass


def closed_form_groups(inputs: ZerothOrderInputs, kappa: float, dt) -> tuple:
    """The five closed-form groups of <rho^2>^(1), individually.

    Two sine groups, a cosine group, a cosine-times-dt group and a secular
    polynomial; their sum is the correction.  Exposed separately so a failed
    cross-check can report which group disagrees.  dt is a scalar or an
    array of times.
    """
    orbit = inputs.orbit
    a_in = orbit.entry.rho_sq
    a_st = orbit.center
    rate = orbit.entry.drho_sq_dt
    p0 = orbit.entry.p_z
    f = orbit.force
    w = orbit.omega0
    ll = inputs.length
    m = orbit.mass
    trig = _trig(dt)
    sin_w = trig.sin(w * dt)
    cos_w = trig.cos(w * dt)
    return (
        -(kappa * sin_w / (2.0 * ll * m * w))
        * (f * dt * (rate * dt - 4.0 * (a_in - a_st)) + 2.0 * p0 * (rate * dt - a_in)),
        -(kappa * sin_w / (6.0 * ll * m * w**3))
        * (w**4 * dt**2 * (a_in - a_st) * (f * dt + 3.0 * p0) - 12.0 * f * rate),
        (kappa * cos_w / (ll * m * w**2))
        * (f * (a_in - 4.0 * a_st - 2.0 * rate * dt) - p0 * rate),
        (kappa * cos_w * dt / (6.0 * ll * m))
        * (f * dt * (rate * dt - 3.0 * (a_in - a_st)) + 3.0 * p0 * (rate * dt - 2.0 * (a_in - a_st))),
        -(kappa / (2.0 * ll * m * w**3))
        * (2.0 * w * (f * (a_in - 4.0 * a_st) - p0 * rate) + a_st * w**3 * dt * (f * dt + 2.0 * p0)),
    )


def _closed_form(inputs: ZerothOrderInputs, kappa: float, dt):
    g1, g2, g3, g4, g5 = closed_form_groups(inputs, kappa, dt)
    return g1 + g2 + g3 + g4 + g5


def _check_kappa(kappa: float) -> None:
    if abs(kappa) > KAPPA_HARD_LIMIT:
        raise ValueError(f"|kappa| must not exceed {KAPPA_HARD_LIMIT}, got {kappa}")


def correction_closed_form(inputs: ZerothOrderInputs, kappa: float, dt):
    """Closed-form <rho^2>^(1) a time dt past the lens entry.

    dt is a scalar or an array of offsets.  Exactly linear in kappa; value
    and slope vanish at dt = 0.  The integrated system is the authority;
    verify_closed_form cross-checks the two routes.
    """
    _check_kappa(kappa)
    if _negative(dt):
        raise ValueError(f"dt must be non-negative, got {dt}")
    return _closed_form(inputs, kappa, dt)


def _gradient_forcing(inputs: ZerothOrderInputs, kappa: float, t):
    """Gradient terms of the driven system at t past the lens entry.

    Returns (du1/dt, drive), where drive is the right-hand side of
    r1'' + w^2 r1 = 2 u1 + drive without its 2 u1 term.  t is a scalar or
    an array of times.
    """
    orbit = inputs.orbit
    w = orbit.omega0
    m = orbit.mass
    l = orbit.entry.l
    ll = inputs.length
    rho0 = orbit.rho_sq(t)
    z0 = inputs.z0(t)
    du1 = (kappa * w / (m * m * ll)) * (l + 0.5 * m * w * rho0) * orbit.p_z(t)
    drive = (
        -kappa * (2.0 * w * l / (m * ll)) * z0
        - kappa * (2.0 * w * w / ll) * z0 * rho0
        + kappa * (2.0 * orbit.force / (m * ll)) * rho0
    )
    return du1, drive


def _integrate_linear(inputs: ZerothOrderInputs, kappa: float, t_end: float, step: float):
    """The driven first-order system, state (u1, r1, dr1), from rest at the
    lens entry to t_end by the exact RK4 step map."""
    w = inputs.omega0
    matrix = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, -w * w, 0.0]])

    def forcing(t: np.ndarray) -> np.ndarray:
        du1, drive = _gradient_forcing(inputs, kappa, t)
        return np.array([du1, np.zeros_like(t), drive])

    return integrate_rk4_linear(matrix, forcing, (0.0, 0.0, 0.0), 0.0, t_end, step)


def _attach(inputs: ZerothOrderInputs, kappa: float, dt: float, r1: float, u1: float) -> CorrectionState:
    exceeded = abs(r1) > VALIDITY_FRACTION * abs(inputs.rho0(dt))
    return CorrectionState(
        rho_sq_1=r1,
        u_perp_sq_1=u1,
        kappa=kappa,
        validity_exceeded=exceeded,
        assumptions=approximation_ledger(),
    )


def correction_by_quadrature(
    inputs: ZerothOrderInputs, kappa: float, dt: float, step: float
) -> CorrectionState:
    """Corrections at dt by direct integration of the driven system.

    This is the authoritative route.  The step must resolve the oscillation:
    step <= period / 200.
    """
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    period = 2.0 * math.pi / inputs.omega0
    if step > period / MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"step {step} too coarse; need <= period/{MIN_STEPS_PER_PERIOD} = "
            f"{period / MIN_STEPS_PER_PERIOD}"
        )
    _, states = _integrate_linear(inputs, kappa, dt, step)
    u1, r1, _ = states[-1]
    return _attach(inputs, kappa, dt, float(r1), float(u1))


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
    inputs: ZerothOrderInputs,
    kappa: float,
    n_periods: float = 4.0,
    tolerance: float = 1e-6,
) -> ClosedFormCheck:
    """Cross-check the closed form against the integrated system.

    Compares the two routes on a dense grid over n_periods and substitutes
    the closed form into the oscillator equation by central differences.
    The integral route is authoritative: a failed check means the closed
    form (or its transcription) is wrong, and the per-group values at the
    worst time are reported for diagnosis.
    """
    _check_kappa(kappa)
    period = 2.0 * math.pi / inputs.omega0
    t_end = n_periods * period
    ts, states = _integrate_linear(inputs, kappa, t_end, period / 2048.0)
    u1s = states[:, 0]
    r1_num = states[:, 1]
    peak = float(np.max(np.abs(r1_num)))
    scale = peak if peak > 0 else 1.0

    # residual of the closed form in r1'' + w^2 r1 = D(t), D built from the
    # integrated u1; central differences with a rounding-balanced step, and
    # no residual within h of the entry, where t - h precedes it
    w = inputs.omega0
    h = period * 1e-4
    # per-block maxima, combined below with numpy so that a NaN anywhere
    # fails the check exactly as a whole-grid np.max/np.argmax would
    mismatch_max, mismatch_at, drive_max, residual_max = [], [], [], []
    for start in range(0, ts.size, VERIFY_BLOCK):
        block = slice(start, start + VERIFY_BLOCK)
        t = ts[block]
        closed, plus, minus = _closed_form(inputs, kappa, t + np.array([[0.0], [h], [-h]]))
        mismatch = np.abs(closed - r1_num[block]) / scale
        i = int(np.argmax(mismatch))
        mismatch_max.append(mismatch[i])
        mismatch_at.append(start + i)
        _, drive = _gradient_forcing(inputs, kappa, t)
        drive += 2.0 * u1s[block]
        second = (plus - 2.0 * closed + minus) / (h * h)
        residual = second + w * w * closed - drive
        near_entry = t < h
        drive[near_entry] = 0.0
        residual[near_entry] = 0.0
        drive_max.append(np.max(np.abs(drive)))
        residual_max.append(np.max(np.abs(residual)))
    worst_block = int(np.argmax(mismatch_max))
    worst = mismatch_at[worst_block]
    max_mismatch = float(mismatch_max[worst_block])
    drive_scale = float(np.max(drive_max))
    drive_scale = drive_scale if drive_scale > 0 else 1.0
    max_residual = float(np.max(residual_max)) / drive_scale

    consistent = max_mismatch <= tolerance and max_residual <= tolerance
    return ClosedFormCheck(
        max_mismatch_over_peak=max_mismatch,
        max_ode_residual_over_drive=max_residual,
        tolerance=tolerance,
        consistent=consistent,
        worst_time=float(ts[worst]),
        groups_at_worst_time=closed_form_groups(inputs, kappa, float(ts[worst])),
    )
