import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vortexlens import perturbation, units
from vortexlens.elements import Drift, LensConfig
from vortexlens.lattice import Beamline, state_at
from vortexlens.moments import MomentState, lens_state_at, propagate_drift, rho_sq_free
from vortexlens.oracle import LINEAR_BLOCK, MAX_STEPS, integrate_rk4
from vortexlens.packet import LGPacket
from vortexlens.perturbation import (
    APPROXIMATIONS,
    ClosedFormCheck,
    ZerothOrderInputs,
    correction_by_quadrature,
    correction_closed_form,
    verify_closed_form,
)
from vortexlens.units import Particle

ELECTRON = Particle.electron()


def gradient_lens(kappa=0.081, h0=85.0, e0=0.0):
    return LensConfig(
        h0_gauss=h0, duration_s=20e-9, length_m=0.1, e0_v_per_m=e0, kappa=kappa
    )


def entry_inputs(e0=0.0, p0=0.43, sigma=0.622e-6, t1_ns=1.0, kappa=0.081):
    packet = LGPacket(0, -4, sigma)
    state = MomentState.from_packet(packet, ELECTRON, p0_ev=p0)
    entry = propagate_drift(state, units.time_to_natural(t1_ns * 1e-9), ELECTRON)
    return ZerothOrderInputs.from_entry_state(entry, gradient_lens(kappa=kappa, e0=e0), ELECTRON)


def period_of(inputs):
    return 2.0 * math.pi / inputs.omega0


def integrated(inputs, kappa, t_end, step):
    """_integrate_linear's blocks joined into one grid: each block after the first starts at the
    last point of the one before, which it does not repeat here."""
    columns = zip(*perturbation._integrate_linear(inputs, kappa, t_end, step))
    return tuple(np.concatenate([blocks[0][:1], *(b[1:] for b in blocks)]) for blocks in columns)


def test_zero_kappa_gives_zero_correction():
    inputs = entry_inputs()
    t = 2.5 * period_of(inputs)
    assert correction_closed_form(inputs, 0.0, t) == 0.0
    state = correction_by_quadrature(inputs, 0.0, t, period_of(inputs) / 512)
    assert state.rho_sq_1 == 0.0
    assert state.u_perp_sq_1 == 0.0


def test_initial_conditions():
    inputs = entry_inputs(e0=25e6)
    period = period_of(inputs)
    peak = max(
        abs(correction_closed_form(inputs, 0.081, d))
        for d in np.linspace(0, 4 * period, 2001)
    )
    assert abs(correction_closed_form(inputs, 0.081, 0.0)) < 1e-12 * peak
    # second-order one-sided stencil: cancels the curvature term, which is
    # genuinely nonzero at entry (the drive does not vanish there)
    h = period * 1e-5
    slope = (
        4.0 * correction_closed_form(inputs, 0.081, h)
        - correction_closed_form(inputs, 0.081, 2.0 * h)
    ) / (2.0 * h)
    assert abs(slope) * period < 1e-10 * peak


def test_exact_linearity_and_antisymmetry_in_kappa():
    inputs = entry_inputs(e0=25e6)
    for dt_frac in (0.3, 1.7, 3.9):
        dt = dt_frac * period_of(inputs)
        one = correction_closed_form(inputs, 0.081, dt)
        assert correction_closed_form(inputs, 0.162, dt) == 2.0 * one
        assert correction_closed_form(inputs, -0.081, dt) == -one
        assert correction_closed_form(inputs, 0.027, dt) == pytest.approx(one / 3.0, rel=1e-12)


def test_quiet_longitudinal_state_gives_zero_correction():
    # E0 = 0 and p0 = 0: z0 and pz0 vanish, so every drive dies
    inputs = entry_inputs(e0=0.0, p0=0.0)
    period = period_of(inputs)
    state = correction_by_quadrature(inputs, 0.081, 3 * period, period / 512)
    assert state.rho_sq_1 == 0.0
    assert state.u_perp_sq_1 == 0.0
    assert correction_closed_form(inputs, 0.081, 1.3 * period) == pytest.approx(0.0, abs=1e-30)


@pytest.mark.parametrize("e0", [0.0, 25e6])
@pytest.mark.parametrize("kappa", [0.081, -0.081])
def test_closed_form_consistent_with_integrated_system(e0, kappa):
    inputs = entry_inputs(e0=e0)
    check = verify_closed_form(inputs, kappa, n_periods=4.0)
    assert check.consistent, check.report()
    assert check.max_mismatch_over_peak < 1e-6
    assert check.max_ode_residual_over_drive <= 1e-13


@pytest.mark.parametrize("n_periods", [0.003, 0.001, 0.0])
@pytest.mark.parametrize("kappa", [0.081, -0.081])
def test_closed_form_check_holds_on_short_spans(kappa, n_periods):
    # the closed form's groups nearly cancel this close to the entry, and its
    # mismatch and its exact residual must both stay within the tolerance
    check = verify_closed_form(entry_inputs(e0=0.0), kappa, n_periods=n_periods)
    assert check.consistent, check.report()


@pytest.mark.parametrize("e0", [0.0, 25e6])
def test_closed_form_matches_the_integral_on_a_long_span(e0):
    # mismatch/peak read 1.5e-10 and 1.2e-10 at 100 periods: the closed form holds there
    check = verify_closed_form(entry_inputs(e0=e0), 0.081, n_periods=100.0)
    assert check.max_mismatch_over_peak <= 1e-9


@pytest.mark.parametrize("n_periods", [0.5, 4.0, 50.0, 100.0, 200.0, 488.0])
@pytest.mark.parametrize("e0", [0.0, 25e6])
def test_closed_form_check_holds_at_every_span(e0, n_periods):
    # the operator is applied to the closed form exactly, so its residual has no
    # floor that grows with the span; 488 periods is nearly the whole step budget
    check = verify_closed_form(entry_inputs(e0=e0), 0.081, n_periods=n_periods)
    assert check.consistent, check.report()
    assert check.max_ode_residual_over_drive <= 1e-13


@pytest.mark.parametrize("e0", [0.0, 25e6])
def test_a_uniform_lens_checks_exactly_at_zero_tolerance(e0):
    # kappa = 0 drives nothing: the closed form and the integral are both 0, so no gap or residual exceeds 0
    check = verify_closed_form(entry_inputs(e0=e0), 0.0, n_periods=1.0, tolerance=0.0)
    assert (check.max_mismatch_over_peak, check.max_ode_residual_over_drive, check.consistent) == (0.0, 0.0, True)


def test_closed_form_check_takes_its_whole_span_budget_and_names_it():
    # MAX_STEPS steps of period / 2048 are 488.28125 periods, to the bit
    assert verify_closed_form(entry_inputs(), 0.081, n_periods=488.28125).consistent
    with pytest.raises(ValueError, match=r"^n_periods must be at most 488\.28125, got 489\.0$"):
        verify_closed_form(entry_inputs(), 0.081, n_periods=489.0)


def stencil_operator(inputs, kappa, ts):
    """r'' + w^2 r of the closed form at ts, r'' by the five-point fourth-order central difference."""
    h = ts[1] - ts[0]
    r = [perturbation._closed_form(inputs, kappa, ts + j * h, inputs.phase(ts + j * h)) for j in (-2, -1, 0, 1, 2)]
    second = (16.0 * (r[1] + r[3]) - r[0] - r[4] - 30.0 * r[2]) / (12.0 * h * h)
    return second + inputs.omega0**2 * r[2]


@pytest.mark.parametrize("e0", [0.0, 25e6])
@pytest.mark.parametrize("kappa", [0.081, -0.081])
def test_oscillator_operator_matches_a_stencil_of_the_closed_form(e0, kappa):
    # a reference that shares no algebra with the operator: the closed form, differenced
    inputs = entry_inputs(e0=e0)
    period = period_of(inputs)
    ts = np.linspace(0.0, 4.0 * period, 4 * 2048 + 1)[1:]
    exact = perturbation._oscillator_operator(inputs, kappa, ts, inputs.phase(ts))
    peak = np.max(np.abs(exact))
    assert np.max(np.abs(exact - stencil_operator(inputs, kappa, ts))) <= 1e-8 * peak


def test_closed_form_check_flags_a_wrong_operator(monkeypatch):
    inputs = entry_inputs(e0=25e6)
    operator = perturbation._oscillator_operator
    monkeypatch.setattr(perturbation, "_oscillator_operator", lambda *args: (1.0 + 1e-3) * operator(*args))
    check = verify_closed_form(inputs, 0.081, n_periods=4.0)
    assert not check.consistent
    assert check.max_mismatch_over_peak <= check.tolerance < check.max_ode_residual_over_drive


def system_rhs(inputs, kappa):
    """Right-hand side of the driven first-order system, state (u1, r1, dr1)."""
    w = inputs.omega0

    def rhs(t, y):
        u1, r1, dr1 = y
        du1, drive = perturbation._gradient_forcing(inputs, kappa, t, inputs.phase(t))
        return np.array([du1, dr1, 2.0 * u1 + drive - w * w * r1])

    return rhs


@pytest.mark.parametrize("e0", [0.0, 25e6])
@pytest.mark.parametrize("kappa", [0.081, -0.081])
def test_linear_step_map_matches_generic_rk4(e0, kappa):
    # both integral routes use the exact RK4 step map; the generic
    # integrator on the same right-hand side is its reference
    inputs = entry_inputs(e0=e0)
    period = period_of(inputs)
    t_end, step = 4.0 * period, period / 2048.0
    ts, states, *_ = integrated(inputs, kappa, t_end, step)
    ts_ref, ref = integrate_rk4(system_rhs(inputs, kappa), (0.0, 0.0, 0.0), 0.0, t_end, step)
    assert np.array_equal(ts, ts_ref)
    peak = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(states - ref), axis=0) <= 1e-12 * peak)


@pytest.mark.parametrize("n_periods", [4.0, 0.3, 0.0, 5.0])
def test_integrated_drive_is_the_forcing_at_the_grid_points(monkeypatch, n_periods):
    # verify_closed_form reads each block's drive and phase (from the block's start on) off the forcing
    # the step map evaluates for that block: a view of the drive it computed, not a copy
    inputs = entry_inputs(e0=25e6)
    period = period_of(inputs)
    gradient_forcing = perturbation._gradient_forcing
    seen = []
    monkeypatch.setattr(perturbation, "_gradient_forcing", lambda *args: seen.append(gradient_forcing(*args)) or seen[-1])
    blocks = list(perturbation._integrate_linear(inputs, 0.081, n_periods * period, period / 2048.0))
    assert len(blocks) == len(seen) == max(1, math.ceil(n_periods * 2048 / LINEAR_BLOCK))
    for (ts, _, drive, *phase), (_, forced) in zip(blocks, seen):
        assert drive.base is forced
        assert np.array_equal(drive, gradient_forcing(inputs, 0.081, ts, inputs.phase(ts))[1])
        assert np.array_equal(phase, inputs.phase(ts))


@pytest.mark.parametrize("n_periods", [5.0, 50.0])
def test_each_block_starts_where_the_one_before_ends(n_periods):
    inputs = entry_inputs(e0=25e6)
    period = period_of(inputs)
    blocks = list(perturbation._integrate_linear(inputs, 0.081, n_periods * period, period / 2048.0))
    assert len(blocks) == math.ceil(n_periods * 2048 / LINEAR_BLOCK)
    for (ts, states, *_), (ts_next, states_next, *_) in zip(blocks, blocks[1:]):
        assert ts_next[:1].tobytes() == ts[-1:].tobytes()
        assert states_next[0].tobytes() == states[-1].tobytes()


@pytest.mark.parametrize("n_periods", [0.3, 4.0, 5.0, 50.0])
def test_forcing_phase_is_one_cos_sin_per_grid_point(monkeypatch, n_periods):
    # the grid points (even half-steps) take np.cos/np.sin of omega0 t; the midpoints
    # turn them by the half step, within 4 eps max(1, omega0 t), the rounding of omega0 t
    inputs = entry_inputs(e0=25e6)
    period = period_of(inputs)
    gradient_forcing = perturbation._gradient_forcing
    seen = []
    monkeypatch.setattr(
        # a copy: the forcing's phase rows are overwritten once the forcing is built
        perturbation, "_gradient_forcing", lambda *args: seen.append((args[2], np.array(args[3]))) or gradient_forcing(*args)
    )
    ts, *_ = integrated(inputs, 0.081, n_periods * period, period / 2048.0)
    assert len(seen) == math.ceil((ts.size - 1) / LINEAR_BLOCK)
    bound = 4 * np.finfo(float).eps * max(1.0, 2.0 * math.pi * n_periods)
    for t, (cos, sin) in seen:
        want_cos, want_sin = np.cos(inputs.omega0 * t), np.sin(inputs.omega0 * t)
        assert np.array_equal(cos[::2], want_cos[::2]) and np.array_equal(sin[::2], want_sin[::2])
        assert np.max(np.abs(cos - want_cos)) <= bound and np.max(np.abs(sin - want_sin)) <= bound


@pytest.mark.parametrize(
    "e0, kappa, n_periods",
    [(0.0, 0.081, 4.0), (0.0, -0.081, 4.0), (25e6, 0.081, 4.0), (25e6, -0.081, 4.0), (25e6, 0.081, 5.0)],
)
def test_closed_form_reads_the_phase_of_the_forcing_bit_for_bit(monkeypatch, e0, kappa, n_periods):
    # verify_closed_form evaluates the closed form once per block, at its grid points only, with cos
    # and sin off the forcing's even half-steps; 5 periods span two blocks of the step map
    inputs = entry_inputs(e0=e0)
    period = period_of(inputs)
    blocks = list(perturbation._integrate_linear(inputs, kappa, n_periods * period, period / 2048.0))
    closed_form = perturbation._closed_form
    seen = []
    monkeypatch.setattr(perturbation, "_closed_form", lambda *args: seen.append(closed_form(*args)) or seen[-1])
    verify_closed_form(inputs, kappa, n_periods=n_periods)
    assert len(seen) == len(blocks) == math.ceil(n_periods * 2048 / LINEAR_BLOCK)
    for (ts, *_), closed in zip(blocks, seen):
        assert np.array_equal(closed, closed_form(inputs, kappa, ts, inputs.phase(ts)))


@pytest.mark.parametrize("factor", [1.0 + 1e-3, math.nan])
def test_closed_form_check_flags_a_wrong_group(monkeypatch, factor):
    inputs = entry_inputs(e0=25e6)
    groups = perturbation.closed_form_groups

    def third_group_off(*args):
        g = list(groups(*args))
        g[2] = g[2] * factor
        return tuple(g)

    monkeypatch.setattr(perturbation, "closed_form_groups", third_group_off)
    check = verify_closed_form(inputs, 0.081, n_periods=4.0)
    assert not check.consistent
    assert not check.max_mismatch_over_peak <= check.tolerance
    report = check.report()
    assert "consistent: False" in report
    for i in range(1, 6):
        assert f"closed-form group {i} at worst time" in report


def test_closed_form_report_names_the_worst_time_only_for_an_inconsistent_check():
    fields = dict(
        max_mismatch_over_peak=2e-9, max_ode_residual_over_drive=3e-10, tolerance=1e-6,
        worst_time=2.5, groups_at_worst_time=(1.0, -0.5),
    )
    verdict = ["max |closed - integrated| / peak: 2.000e-09", "max ODE residual / drive: 3.000e-10", "tolerance: 1.0e-06"]
    assert ClosedFormCheck(consistent=True, **fields).report().splitlines() == ["consistent: True", *verdict]
    assert ClosedFormCheck(consistent=False, **fields).report().splitlines() == [
        "consistent: False",
        *verdict,
        "worst time: 2.5",
        "closed-form group 1 at worst time: 1.000000e+00",
        "closed-form group 2 at worst time: -5.000000e-01",
    ]


def test_quadrature_rejects_coarse_step():
    inputs = entry_inputs()
    period = period_of(inputs)
    for step in (period / 50, math.inf):
        with pytest.raises(ValueError) as coarse:
            correction_by_quadrature(inputs, 0.081, period, step)
        assert str(coarse.value) == f"step must be at most {period / 200}, got {step}"
    for step in (math.nan, 0.0, -period / 512):
        with pytest.raises(ValueError) as bad:
            correction_by_quadrature(inputs, 0.081, period, step)
        assert str(bad.value) == "step must be positive"
    # the coarsest step allowed is period / 200 itself
    assert math.isfinite(correction_by_quadrature(inputs, 0.081, period, period / 200).rho_sq_1)
    step = period / 512  # MAX_STEPS steps run; a span over them names the longest span this step may take
    assert math.isfinite(correction_by_quadrature(inputs, 0.081, MAX_STEPS * step, step).rho_sq_1)
    with pytest.raises(ValueError) as long_span:
        correction_by_quadrature(inputs, 0.081, 2 * MAX_STEPS * step, step)
    assert str(long_span.value) == f"dt must be at most {MAX_STEPS * step}, got {2 * MAX_STEPS * step}"


@pytest.mark.parametrize("e0", [0.0, 25e6])
def test_quadrature_matches_the_closed_form_past_a_block_that_ends_between_periods(e0):
    # at period / 300 the second block starts 8192 / 300 periods in, so a midpoint's phase must come
    # from the half step alone, not from the block's start time
    inputs = entry_inputs(e0=e0)
    period = period_of(inputs)
    quadrature = correction_by_quadrature(inputs, 0.081, 30 * period, period / 300).rho_sq_1
    assert quadrature == pytest.approx(correction_closed_form(inputs, 0.081, 30 * period), rel=1e-6)


def test_validity_is_exceeded_past_the_fraction_of_the_radius_not_at_it(monkeypatch):
    inputs = entry_inputs()
    dt = period_of(inputs)
    at = perturbation.VALIDITY_FRACTION * abs(inputs.rho_sq(*inputs.phase(dt)))
    for r1, exceeded in ((at, False), (-at, False), (math.nextafter(at, math.inf), True)):
        # the integral's last state, (u1, r1, dr1), is all the flag reads
        monkeypatch.setattr(perturbation, "_integrate_linear", lambda *args: [(None, np.array([[0.0, r1, 0.0]]))])
        assert correction_by_quadrature(inputs, 0.081, dt, dt / 512).validity_exceeded == exceeded


def test_correction_state_carries_assumptions():
    inputs = entry_inputs()
    period = period_of(inputs)
    state = correction_by_quadrature(inputs, 0.081, 0.5 * period, period / 512)
    assert state.assumptions == APPROXIMATIONS
    assert len(APPROXIMATIONS) == 3
    keys = set(APPROXIMATIONS)
    assert keys == {
        "cyclotron-radius-split",
        "radius-momentum-sq-factorization",
        "radius-momentum-symmetrized-factorization",
    }
    at_entry = correction_by_quadrature(inputs, 0.081, 0.0, period / 512)
    assert at_entry.assumptions == APPROXIMATIONS


def test_validity_horizon_flag():
    # crank the gradient drive (large E0, long time) until the correction
    # swamps the zeroth-order radius
    inputs = entry_inputs(e0=25e6)
    period = period_of(inputs)
    early = correction_by_quadrature(inputs, 0.081, 0.05 * period, period / 512)
    late = correction_by_quadrature(inputs, 0.081, 6.0 * period, period / 512)
    assert not early.validity_exceeded
    assert late.validity_exceeded
    assert abs(late.rho_sq_1) > 0.3 * abs(inputs.rho_sq(*inputs.phase(6.0 * period)))


def test_closed_form_agrees_with_quadrature_pointwise():
    inputs = entry_inputs(e0=25e6)
    period = period_of(inputs)
    ts = np.linspace(0.0, 4 * period, 9)[1:]
    peak = max(abs(correction_closed_form(inputs, 0.081, t)) for t in ts)
    for t in ts:
        numeric = correction_by_quadrature(inputs, 0.081, float(t), period / 2048)
        closed = correction_closed_form(inputs, 0.081, float(t))
        assert abs(closed - numeric.rho_sq_1) < 1e-6 * peak


def test_kappa_bound_enforced():
    inputs = entry_inputs()
    with pytest.raises(ValueError):
        correction_closed_form(inputs, 0.5, 1.0)
    with pytest.raises(ValueError):
        correction_closed_form(inputs, 0.081, -1.0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 0.5])
@pytest.mark.parametrize(
    "entry",
    [
        lambda orbit, kappa: correction_closed_form(orbit, kappa, period_of(orbit)),
        lambda orbit, kappa: correction_by_quadrature(orbit, kappa, period_of(orbit), period_of(orbit) / 512),
        lambda orbit, kappa: verify_closed_form(orbit, kappa),
    ],
    ids=["closed_form", "quadrature", "verify"],
)
def test_every_entry_point_rejects_kappa_out_of_range(entry, kappa):
    # |kappa| <= KAPPA_HARD_LIMIT is False for NaN, which a > test lets through
    inputs = entry_inputs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kappa"):
            entry(inputs, kappa)


# the guard property's lens: E0 = 25 MV/m, kappa = 0.081, and the packet at its waist
GUARD_PACKET = LGPacket(0, -4, 0.622e-6)
GUARD_WAIST = MomentState.from_packet(GUARD_PACKET, ELECTRON, p0_ev=0.43)
GUARD_ORBIT = entry_inputs(e0=25e6)
GUARD_PERIOD = period_of(GUARD_ORBIT)
GUARD_LINE = Beamline((Drift(1e-9), gradient_lens(e0=25e6)), ELECTRON, GUARD_PACKET, 0.43)
# any float a caller can pass: NaN, +-inf, subnormals, +-0 and +-1e308
ANY_FLOAT = st.floats() | st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0])


def capped(bound):
    """Any offset, its finite draws within bound: the formulas do not check the
    states they build (walk and run validate them), and an offset far past any
    lens leaves the float range; the RK4 routes take a few periods."""
    return st.floats(-bound, bound) | st.sampled_from([math.nan, math.inf, -math.inf])


def state_numbers(state, start):
    """The fields of a state, which must not precede start."""
    assert state.t >= start.t, f"a state at t = {state.t}, before the entry at {start.t}"
    return [state.rho_sq, state.drho_sq_dt, state.u_perp_sq, state.p_z, state.z, state.t]


def crossing_numbers(threshold):
    dt = GUARD_ORBIT.first_crossing_dt(threshold, 2.0 * GUARD_PERIOD)  # the whole orbit
    if math.isnan(dt):  # no crossing, so the orbit stays above the threshold
        assert threshold < GUARD_ORBIT.center - GUARD_ORBIT.amplitude, f"no crossing of {threshold}"
        return []
    return [dt]


def verdict_numbers(check):
    # a span so short that the peak underflows makes the mismatch inf, never NaN
    assert not np.isnan([check.max_mismatch_over_peak, check.max_ode_residual_over_drive]).any()
    return [check.tolerance, check.worst_time, *check.groups_at_worst_time]


# entry point: (the names its ValueError may start with, draws, the numbers of a call)
GUARDED = {
    "propagate_drift": (
        ("dt",), capped(1e6 * GUARD_PERIOD),
        lambda x: state_numbers(propagate_drift(GUARD_WAIST, x, ELECTRON), GUARD_WAIST),
    ),
    "lens_state_at": (
        ("dt",), capped(1e6 * GUARD_PERIOD),
        lambda x: state_numbers(lens_state_at(GUARD_ORBIT, x), GUARD_ORBIT.entry),
    ),
    # any float: a finite offset whose correction leaves the float range names it
    "correction_closed_form": (
        ("dt", "rho_sq_corr1"), ANY_FLOAT, lambda x: [correction_closed_form(GUARD_ORBIT, 0.081, x)],
    ),
    "correction_by_quadrature": (
        ("dt",), capped(4.0 * GUARD_PERIOD),
        lambda x: [correction_by_quadrature(GUARD_ORBIT, 0.081, x, GUARD_PERIOD / 512).rho_sq_1],
    ),
    "verify_closed_form n_periods": (
        ("n_periods",), capped(4.0), lambda x: verdict_numbers(verify_closed_form(GUARD_ORBIT, 0.081, x)),
    ),
    "verify_closed_form tolerance": (
        ("tolerance",), ANY_FLOAT, lambda x: verdict_numbers(verify_closed_form(GUARD_ORBIT, 0.081, 1.0, x)),
    ),
    "first_crossing_dt": (("threshold",), ANY_FLOAT, crossing_numbers),
    # a finite time whose radius overflows fails the state's own check
    "rho_sq_free": (("t_s", "rho_sq"), ANY_FLOAT, lambda x: [rho_sq_free(GUARD_PACKET, x, ELECTRON)]),
    "state_at": (("t",), ANY_FLOAT, lambda x: state_numbers(state_at(GUARD_LINE, x), GUARD_WAIST)),
}


@settings(max_examples=300, deadline=None)
@given(case=st.one_of([st.tuples(st.just(name), draws) for name, (_, draws, _) in GUARDED.items()]))
@example(case=("lens_state_at", math.inf))
@example(case=("correction_closed_form", math.inf))
@example(case=("correction_closed_form", 1e150))  # a numpy overflow
@example(case=("correction_closed_form", 1e300))  # dt**2 would raise OverflowError
@example(case=("lens_state_at", math.nan))
@example(case=("lens_state_at", -GUARD_PERIOD))
@example(case=("propagate_drift", math.inf))
@example(case=("verify_closed_form tolerance", math.nan))
@example(case=("first_crossing_dt", math.nan))
@example(case=("correction_by_quadrature", math.nan))
@example(case=("verify_closed_form n_periods", 5e-324))  # a subnormal span
@example(case=("verify_closed_form n_periods", 500.0))  # over the step budget
@example(case=("correction_by_quadrature", 1e6 * GUARD_PERIOD))  # over the step budget
@example(case=("verify_closed_form n_periods", 1.3e-163))  # noise over a subnormal peak
def test_guarded_entry_point_returns_finite_values_or_names_its_argument(case):
    name, value = case
    names, _, numbers_of = GUARDED[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            numbers = numbers_of(value)
        except ValueError as exc:
            assert str(exc).split()[0] in names, f"{name}({value!r}): {exc}"
            return
    assert np.isfinite(numbers).all(), f"{name}({value!r}) gave {numbers}"


def nan_group_from(fraction):
    """closed_form_groups with its third group NaN from fraction periods past the entry on."""
    groups = perturbation.closed_form_groups

    def third_group_nan(inputs, kappa, dt, phase):
        g = list(groups(inputs, kappa, dt, phase))
        g[2] = np.where(np.asarray(dt) >= fraction * period_of(inputs), math.nan, g[2])
        return tuple(g)

    return third_group_nan


@pytest.mark.parametrize("n_periods", [1.0, 5.0])  # one block and two
@pytest.mark.parametrize(
    "e0, kappa, nan_from",
    [(0.0, 0.081, None), (25e6, -0.081, None), (25e6, 0.081, 0.0), (25e6, 0.081, 0.37), (25e6, 0.081, 0.99)],
)
def test_closed_form_check_compares_the_whole_grid(monkeypatch, e0, kappa, nan_from, n_periods):
    inputs = entry_inputs(e0=e0)
    if nan_from is not None:
        monkeypatch.setattr(perturbation, "closed_form_groups", nan_group_from(nan_from * n_periods))
    check = verify_closed_form(inputs, kappa, n_periods=n_periods)
    period = period_of(inputs)
    ts, states, forced, *phase = integrated(inputs, kappa, n_periods * period, period / 2048.0)
    r1 = states[:, 1]
    gap = np.abs(perturbation._closed_form(inputs, kappa, ts, inputs.phase(ts)) - r1)
    assert np.array_equal(check.max_mismatch_over_peak, np.max(gap) / np.max(np.abs(r1)), equal_nan=True)
    assert check.worst_time == ts[np.argmax(gap)]
    drive = forced[1:] + 2.0 * states[1:, 0]
    residual = perturbation._oscillator_operator(inputs, kappa, ts[1:], inputs.phase(ts[1:])) - drive
    assert check.max_ode_residual_over_drive == np.max(np.abs(residual)) / np.max(np.abs(drive))
    assert check.consistent == (nan_from is None)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator hint is a glibc mallopt")
def test_verify_closed_form_does_not_fault_the_heap_in_again():
    # a fresh interpreter: the package's import keeps 2 MiB of freed heap top, so
    # each call's 16,385-point temporaries of one block land on pages the last
    # block or call mapped (hundreds of faults a call without it), whatever the span
    script = textwrap.dedent(
        """
        import resource, sys
        sys.path.insert(0, sys.argv[1])
        from test_perturbation import entry_inputs
        from vortexlens.perturbation import verify_closed_form
        inputs = entry_inputs()
        for n_periods, calls in ((4.0, 20), (50.0, 10), (400.0, 3)):
            for _ in range(2):
                verify_closed_form(inputs, 0.081, n_periods)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(calls):
                verify_closed_form(inputs, 0.081, n_periods)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls)
        """
    )
    env = {k: v for k, v in os.environ.items() if k not in ("MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")}
    run = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent)], env=env, capture_output=True, text=True, check=True
    )
    short, long, longest = map(float, run.stdout.split())
    assert short < 32
    assert long < 320
    assert longest < 320


def test_verify_closed_form_memory_does_not_grow_with_the_span():
    # one block at a time: a call holds the arrays of a block or two, whatever its span
    inputs = entry_inputs()

    def traced_peak(n_periods):
        tracemalloc.start()
        try:
            verify_closed_form(inputs, 0.081, n_periods)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long, longest = map(traced_peak, (4.0, 50.0, 488.0))
    assert longest <= 1.1 * long
    assert longest <= 2.0 * short
