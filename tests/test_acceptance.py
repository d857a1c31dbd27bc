"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from vortexlens import units
from vortexlens.elements import LensConfig
from vortexlens.lattice import (
    Beamline,
    Drift,
    design_direct_capture,
    run,
    solve_matching,
    state_at,
)
from vortexlens.moments import (
    LensOrbit,
    MomentState,
    emittance,
    lens_state_at,
    matching_ratio,
    propagate_drift,
    radial_number_for_ratio,
    transport_check,
)
from vortexlens.oracle import (
    integrate_rk4,
    lg_quadrature,
    mode_velocity_coefficient_moments,
    mode_velocity_coefficient_quadrature,
    x_moment_exact,
    y_moment_exact,
)
from vortexlens.packet import LGPacket, transverse_velocity_sq
from vortexlens.perturbation import (
    APPROXIMATIONS,
    ZerothOrderInputs,
    correction_by_quadrature,
    correction_closed_form,
    verify_closed_form,
)
from vortexlens.units import Particle

ELECTRON = Particle.electron()


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS: {text}")


def test_criterion_01_matching_ratio_and_field_waist_pairings():
    assert matching_ratio(0, -4, 0) == Fraction(4, 5)
    field_574 = solve_matching(LGPacket(0, -4, 0.574e-6), 0, ELECTRON)
    field_622 = solve_matching(LGPacket(0, -4, 0.622e-6), 0, ELECTRON)
    assert abs(field_574 / 100.0 - 1.0) <= 5e-3
    assert abs(field_622 / 85.0 - 1.0) <= 5e-3
    # and the inverse direction: quoted fields produce the quoted waists
    for field, sigma in ((100.0, 0.574e-6), (85.0, 0.622e-6)):
        waist = math.sqrt(units.magnetic_radius(field, ELECTRON) ** 2 / float(Fraction(4, 5)))
        assert abs(waist / sigma - 1.0) <= 5e-3
    _report(1, f"ratio 4/5 exact; pairings {field_574:.2f} G / 0.574 um and "
               f"{field_622:.2f} G / 0.622 um within 0.5%")


def test_criterion_02_large_l_matching_waists():
    from vortexlens.moments import large_l_waist

    sigma_10g = large_l_waist(10.0, ELECTRON)
    sigma_10kg = large_l_waist(1e4, ELECTRON)
    assert 573e-9 * 0.99 <= sigma_10g <= 574e-9 * 1.01
    assert abs(sigma_10kg / 18e-9 - 1.0) <= 1e-2
    _report(2, f"large-l waists {sigma_10g * 1e9:.2f} nm at 10 G and "
               f"{sigma_10kg * 1e9:.2f} nm at 10 kG within 1%")


def test_criterion_03_drift_distance_estimate():
    state = MomentState.from_packet(LGPacket(0, -4, 0.574e-6), ELECTRON, p0_ev=0.43)
    out = propagate_drift(state, units.time_to_natural(1e-9), ELECTRON)
    z_m = units.length_from_natural(out.z)
    assert abs(z_m / 0.253e-6 - 1.0) <= 1e-2
    _report(3, f"0.43 eV over 1 ns drifts {z_m * 1e6:.4f} um (quoted 0.253 um, within 1%)")


def test_criterion_04_transverse_velocity_quadrature_oracle():
    worst = 0.0
    for n in range(0, 6):
        for l in range(-5, 6):
            expected = 2 * n + abs(l) + 1
            for value in (
                mode_velocity_coefficient_quadrature(n, l),
                mode_velocity_coefficient_moments(n, l),
            ):
                worst = max(worst, abs(value / expected - 1.0))
            pk = LGPacket(n, l, 0.5e-6)
            sigma_nat = units.length_to_natural(pk.sigma_r_m)
            closed = transverse_velocity_sq(pk, ELECTRON) * (ELECTRON.mass_ev * sigma_nat) ** 2
            worst = max(worst, abs(closed / expected - 1.0))
    assert worst <= 1e-10

    # moment identities on the n, l <= 8 grid; the first-derivative moment
    # carries its closed form one power above the diagonal one
    for n in range(0, 9):
        for l in range(0, 9):
            y_exact = y_moment_exact(n, l)
            assert lg_quadrature(n, l, l, 0) == pytest.approx(y_exact, rel=1e-10)
            if n >= 1 and l >= 1:
                assert abs(lg_quadrature(n, l, l, 1)) <= 1e-10 * max(1.0, y_exact)
                assert lg_quadrature(n, l, l + 1, 1) == pytest.approx(
                    x_moment_exact(n, l), rel=1e-10
                )
            if n >= 2 and l >= 1:
                assert abs(lg_quadrature(n, l, l + 1, 2)) <= 1e-10 * max(
                    1.0, y_moment_exact(n, l + 1)
                )
    _report(4, f"closed form matches both quadrature assemblies to {worst:.1e} "
               "(<= 1e-10) for n <= 5, |l| <= 5; moment identities hold for n, l <= 8")


def test_criterion_05_closed_form_versus_rk4():
    packet = LGPacket(0, -4, 0.622e-6)
    field = solve_matching(packet, 0, ELECTRON)
    lens = LensConfig(h0_gauss=field, duration_s=25e-9, length_m=0.1)
    entry = propagate_drift(
        MomentState.from_packet(packet, ELECTRON, 0.43), units.time_to_natural(1e-9), ELECTRON
    )
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    omega0 = orbit.omega0
    m = ELECTRON.mass_ev

    def lens_rhs(t, y):
        return np.array(
            [y[1], 2.0 * entry.u_perp_sq - 2.0 * omega0 * entry.l / m - omega0**2 * y[0]]
        )

    period = 2.0 * math.pi / omega0
    ts, ys = integrate_rk4(lens_rhs, (entry.rho_sq, entry.drho_sq_dt), 0.0, 5 * period, period / 1000)
    closed = np.array([orbit.rho_sq(*orbit.phase(t)) for t in ts])
    lens_err = float(np.max(np.abs(closed - ys[:, 0]) / np.abs(closed)))
    assert lens_err <= 1e-8

    def free_rhs(t, y):
        return np.array([y[1], 2.0 * entry.u_perp_sq])

    span = units.time_to_natural(5e-9)
    ts, ys = integrate_rk4(free_rhs, (entry.rho_sq, entry.drho_sq_dt), 0.0, span, span / 500)
    free = entry.rho_sq + entry.drho_sq_dt * ts + entry.u_perp_sq * ts**2
    free_err = float(np.max(np.abs(ys[:, 0] - free) / free))
    assert free_err <= 1e-12
    _report(5, f"lens closed form vs RK4: {lens_err:.1e} over 5 periods (<= 1e-8); "
               f"free space exact to {free_err:.1e}")


def test_criterion_06_transport_predicate_and_thresholds():
    # the two algebraic forms agree on 10^4 random physical states
    rng = np.random.default_rng(271828)
    for _ in range(10_000):
        rho = 10.0 ** rng.uniform(-1, 3)
        u_sq = 10.0 ** rng.uniform(-14, -9)
        slope = rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(rho * u_sq)
        l = int(rng.integers(-8, 9))
        omega0 = 10.0 ** rng.uniform(-8, -5)
        state = MomentState(rho, slope, u_sq, 0.0, 0.0, 0.0, l)
        lens = LensConfig(
            h0_gauss=units.field_from_cyclotron_natural(omega0, ELECTRON),
            duration_s=1e-9,
            length_m=0.1,
        )
        report = transport_check(LensOrbit.from_entry(state, lens, ELECTRON))
        assert report.transportable == report.transportable_solved_form

    # matched-packet over-focus threshold: bisection against the analytic
    # drift-time constant sqrt(0.6 + sqrt(3.36)) in units of t_s
    x_star = math.sqrt(0.6 + math.sqrt(3.36))
    quoted = {0.574e-6: 1.99, 0.622e-6: 2.33}
    thresholds = {}
    for sigma, quoted_ns in quoted.items():
        packet = LGPacket(0, -4, sigma)
        field = solve_matching(packet, 0, ELECTRON)
        lens = LensConfig(h0_gauss=field, duration_s=30e-9, length_m=0.1)
        start = MomentState.from_packet(packet, ELECTRON, 0.43)

        def transportable(t1_s):
            entry = propagate_drift(start, units.time_to_natural(t1_s), ELECTRON)
            return transport_check(LensOrbit.from_entry(entry, lens, ELECTRON)).transportable

        lo, hi = 0.0, 5e-9
        assert transportable(lo) and not transportable(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if transportable(mid):
                lo = mid
            else:
                hi = mid
        threshold_s = 0.5 * (lo + hi)
        t_s_scale = units.diffraction_time(sigma, ELECTRON) / math.sqrt(5.0)
        assert abs(threshold_s / (x_star * t_s_scale) - 1.0) <= 1e-6
        assert round(threshold_s * 1e9, 2) == quoted_ns
        thresholds[sigma] = threshold_s * 1e9
    _report(6, "amplitude and solved transport forms agree on 10^4 states; "
               f"thresholds {thresholds[0.574e-6]:.5f} ns and {thresholds[0.622e-6]:.5f} ns "
               "equal 1.55982 t_s within 1e-6 (quoted 1.99 / 2.33 ns)")


def test_criterion_07_rematching_radial_number():
    ratio_after_expansion = Fraction(4, 5) / 21
    n_required = radial_number_for_ratio(ratio_after_expansion, -4, 0)
    assert n_required == 50
    assert matching_ratio(50, -4, 0) == ratio_after_expansion
    _report(7, "21-fold mean-square expansion forces radial number n = 50 exactly")


def test_criterion_08_direct_capture_closure():
    # geometry frozen from the forward model: drift time solved so the
    # inter-lens waist equals the stationary radius of a 97.8 G lens
    t1_ns = 0.3200492156380533
    line = Beamline(
        (
            Drift(t1_ns * 1e-9),
            LensConfig(h0_gauss=97.8, duration_s=(2.5 - t1_ns) * 1e-9, length_m=0.1),
            Drift(6e-9),
        ),
        ELECTRON,
        LGPacket(0, -4, 0.574e-6),
        0.43,
    )
    traj = run(line, 0.05e-9)
    focal = [e for e in traj.events_of("focal_point") if e.t > 0.0]
    assert focal
    state = state_at(line, focal[0].t)

    # the waist reproduces the capture-matched mean square radius within 2%
    omega_target = units.cyclotron_frequency_natural(97.8, ELECTRON)
    from vortexlens.moments import stationary_rho_sq

    rho_target = stationary_rho_sq(state.u_perp_sq, state.l, omega_target, ELECTRON)
    assert abs(state.rho_sq / rho_target - 1.0) <= 0.02

    # the designed capture field reproduces the quoted 97.8 G within 2%
    lens = design_direct_capture(state, ELECTRON)
    assert abs(lens.h0_gauss / 97.8 - 1.0) <= 0.02

    # three periods of propagation hold the radius constant to 1e-12
    period = units.time_to_natural(2 * math.pi / units.cyclotron_frequency(lens.h0_gauss, ELECTRON))
    worst = 0.0
    for frac in np.linspace(0.0, 3.0, 601):
        out = lens_state_at(LensOrbit.from_entry(state, lens, ELECTRON), float(frac) * period)
        worst = max(worst, abs(out.rho_sq / state.rho_sq - 1.0))
    assert worst <= 1e-12
    t_focal_ns = units.time_from_natural(focal[0].t) * 1e9
    _report(8, f"designed field {lens.h0_gauss:.4f} G (quoted 97.8 G) holds the radius "
               f"constant to {worst:.1e} over 3 periods; model focal time "
               f"{t_focal_ns:.3f} ns (quoted companion 3.32 ns; depends on the "
               "unstated drift time, reported only)")


def test_criterion_09_perturbation_correction():
    # Fig-2c-style parameters; the accelerating field is unspecified there,
    # so the residual check runs at E0 = 0 and again with a 25 MV/m drive
    packet = LGPacket(0, -4, 0.622e-6)
    start = MomentState.from_packet(packet, ELECTRON, p0_ev=0.43)
    entry = propagate_drift(start, units.time_to_natural(1e-9), ELECTRON)

    for e0 in (0.0, 25e6):
        lens = LensConfig(
            h0_gauss=85.0,
            duration_s=20e-9,
            length_m=0.1,
            e0_v_per_m=e0,
            kappa=0.081,
        )
        inputs = ZerothOrderInputs.from_entry_state(entry, lens, ELECTRON)
        period = 2.0 * math.pi / inputs.omega0

        # exact linearity and the stated entry conditions
        probe = 1.7 * period
        assert correction_closed_form(inputs, 0.162, probe) == 2.0 * correction_closed_form(
            inputs, 0.081, probe
        )
        assert correction_closed_form(inputs, -0.081, probe) == -correction_closed_form(
            inputs, 0.081, probe
        )
        peak = max(
            abs(correction_closed_form(inputs, 0.081, d))
            for d in np.linspace(0.0, 4 * period, 1601)
        )
        assert abs(correction_closed_form(inputs, 0.081, 0.0)) <= 1e-12 * peak

        for kappa in (0.081, -0.081):
            check = verify_closed_form(inputs, kappa, n_periods=4.0, tolerance=1e-6)
            assert check.consistent, check.report()
            assert check.max_ode_residual_over_drive <= 1e-6

        # corrections always carry the three-entry assumption ledger
        state = correction_by_quadrature(inputs, 0.081, period, period / 512)
        assert len(state.assumptions) == 3
    assert len(APPROXIMATIONS) == 3
    _report(9, "correction exactly linear in kappa, vanishing value and slope at "
               "entry; closed form satisfies the driven system to < 1e-6 of the "
               "drive at kappa = +/-0.081, 85 G, 0.622 um, 0.43 eV")


def test_criterion_10_conservation_suite():
    packet = LGPacket(0, -4, 0.622e-6)
    field = solve_matching(packet, 0, ELECTRON)
    period_s = 2 * math.pi / units.cyclotron_frequency(field, ELECTRON)
    line = Beamline(
        (
            Drift(1e-9),
            LensConfig(h0_gauss=field, duration_s=period_s, length_m=0.1),
            Drift(1.5e-9),
        ),
        ELECTRON,
        packet,
        0.43,
    )
    traj = run(line, 0.02e-9)
    assert traj.completed

    # OAM and mean square velocity are bitwise constant along the line
    assert {s.l for s in traj.samples} == {-4}
    assert {s.u_perp_sq for s in traj.samples} == {traj.samples[0].u_perp_sq}

    # emittance across the three-element line (drift samples bracket the lens)
    eps = [emittance(s) for s in traj.samples if s.element_index in (0, 2)]
    eps_drift = max(eps) / min(eps) - 1.0
    assert eps_drift <= 1e-10

    # full-period lens propagation is the transverse identity, k = 1..5
    entry = propagate_drift(
        MomentState.from_packet(packet, ELECTRON, 0.43), units.time_to_natural(1e-9), ELECTRON
    )
    lens = LensConfig(h0_gauss=field, duration_s=30e-9, length_m=0.1)
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    worst_periodicity = 0.0
    for k in range(1, 6):
        dt = k * 2.0 * math.pi / orbit.omega0
        worst_periodicity = max(
            worst_periodicity,
            abs(orbit.rho_sq(*orbit.phase(dt)) / entry.rho_sq - 1.0),
            abs((orbit.drho_sq(*orbit.phase(dt)) - entry.drho_sq_dt) / (entry.rho_sq * orbit.omega0)),
        )
    assert worst_periodicity <= 1e-12
    _report(10, f"OAM and <u^2> bitwise constant; emittance drift {eps_drift:.1e} "
                f"across 3 elements (<= 1e-10); lens periodicity defect "
                f"{worst_periodicity:.1e} for k = 1..5 (<= 1e-12)")


def _maxwell_residual(lens, rho, z):
    """Largest L/8 central-difference div and curl residual, per characteristic
    length, of F_rho = -F1 rho / 2, F_z = F0 + F1 z with F1 = kappa F0 / L."""
    length = lens.length_m
    h = length / 8.0
    worst = 0.0
    for f0 in (lens.e0_v_per_m, lens.h0_gauss):
        f1 = lens.kappa * f0 / length
        scale = (abs(f0) + abs(f1) * length) or 1.0
        (r_rp, z_rp), (r_rm, z_rm), (r_zp, z_zp), (r_zm, z_zm) = (
            (-0.5 * f1 * r, f0 + f1 * zz) for r, zz in ((rho + h, z), (rho - h, z), (rho, z + h), (rho, z - h)))
        div = ((rho + h) * r_rp - (rho - h) * r_rm) / (2.0 * h) / rho + (z_zp - z_zm) / (2.0 * h)
        curl_phi = (r_zp - r_zm) / (2.0 * h) - (z_rp - z_rm) / (2.0 * h)
        worst = max(worst, abs(div * length / scale), abs(curl_phi * length / scale))
    return worst


def test_criterion_11_maxwell_residuals():
    rng = np.random.default_rng(1905)
    worst = 0.0
    for kappa in (0.0, 0.01, 0.081):
        lens = LensConfig(
            h0_gauss=85.0,
            duration_s=5e-9,
            length_m=0.1,
            e0_v_per_m=25e6,
            kappa=kappa,
        )
        for _ in range(10):
            rho = rng.uniform(0.05, 0.9) * lens.length_m
            z = rng.uniform(-0.9, 0.9) * lens.length_m
            worst = max(worst, _maxwell_residual(lens, rho, z))
    assert worst <= 1e-12
    _report(11, f"divergence and curl residuals <= {worst:.1e} (<= 1e-12) at 10 "
                "random probe points per lens")
