import math

import numpy as np
import pytest

from vortexlens import perturbation, units
from vortexlens.elements import LensConfig
from vortexlens.moments import MomentState, propagate_drift
from vortexlens.oracle import ODESpec, integrate_rk4
from vortexlens.packet import LGPacket
from vortexlens.perturbation import (
    APPROXIMATIONS,
    ZerothOrderInputs,
    approximation_ledger,
    correction_by_quadrature,
    correction_closed_form,
    verify_closed_form,
)
from vortexlens.units import Particle

ELECTRON = Particle.electron()


def gradient_lens(kappa=0.081, h0=85.0, e0=0.0):
    return LensConfig(
        h0_gauss=h0, duration_s=20e-9, length_m=0.1, e0_v_per_m=e0, kappa_m=kappa, kappa_e=kappa
    )


def entry_inputs(e0=0.0, p0=0.43, sigma=0.622e-6, t1_ns=1.0, kappa=0.081):
    packet = LGPacket(0, -4, sigma)
    state = MomentState.from_packet(packet, ELECTRON, p0_ev=p0)
    entry = propagate_drift(state, units.time_to_natural(t1_ns * 1e-9), ELECTRON)
    return ZerothOrderInputs.from_entry_state(entry, gradient_lens(kappa=kappa, e0=e0), ELECTRON)


def period_of(inputs):
    return 2.0 * math.pi / inputs.omega0


def test_mixed_gradients_rejected():
    packet = LGPacket(0, -4, 0.622e-6)
    state = MomentState.from_packet(packet, ELECTRON, p0_ev=0.43)
    lens = LensConfig(
        h0_gauss=85.0, duration_s=5e-9, length_m=0.1, kappa_m=0.05, kappa_e=0.02
    )
    with pytest.raises(ValueError):
        ZerothOrderInputs.from_entry_state(state, lens, ELECTRON)


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
    assert check.max_ode_residual_over_drive < 1e-6


def system_rhs(inputs, kappa):
    """Right-hand side of the driven first-order system, state (u1, r1, dr1)."""
    w = inputs.omega0

    def rhs(t, y):
        u1, r1, dr1 = y
        du1, drive = perturbation._gradient_forcing(inputs, kappa, t)
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
    ts, states = perturbation._integrate_linear(inputs, kappa, t_end, step)
    ts_ref, ref = integrate_rk4(
        ODESpec(system_rhs(inputs, kappa), (0.0, 0.0, 0.0), 0.0, t_end, step)
    )
    assert np.array_equal(ts, ts_ref)
    peak = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(states - ref), axis=0) <= 1e-12 * peak)


@pytest.mark.parametrize("factor", [1.0 + 1e-3, math.nan])
def test_closed_form_check_flags_a_wrong_group(monkeypatch, factor):
    inputs = entry_inputs(e0=25e6)
    groups = perturbation.closed_form_groups

    def third_group_off(inputs, kappa, dt):
        g = list(groups(inputs, kappa, dt))
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


def test_quadrature_rejects_coarse_step():
    inputs = entry_inputs()
    period = period_of(inputs)
    with pytest.raises(ValueError):
        correction_by_quadrature(inputs, 0.081, period, period / 50)


def test_correction_state_carries_assumptions():
    inputs = entry_inputs()
    period = period_of(inputs)
    state = correction_by_quadrature(inputs, 0.081, 0.5 * period, period / 512)
    assert state.assumptions == APPROXIMATIONS
    assert len(approximation_ledger()) == 3
    keys = {a.key for a in approximation_ledger()}
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
    assert abs(late.rho_sq_1) > 0.3 * abs(inputs.rho0(6.0 * period))


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
