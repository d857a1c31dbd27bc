import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlens import units
from vortexlens.elements import Drift, LensConfig
from vortexlens.lattice import EVENT_OVERFOCUS, Beamline, run, solve_matching
from vortexlens.moments import (
    LensOrbit,
    MomentState,
    compton_floor,
    emittance,
    free_waist_rho_sq,
    lens_state_at,
    matching_ratio,
    propagate_drift,
    radial_number_for_ratio,
    stationary_rho_sq,
    transport_check,
    waist_dt,
)
from vortexlens.oracle import integrate_rk4
from vortexlens.packet import LGPacket
from vortexlens.units import Particle

ELECTRON = Particle.electron()

# frozen oracle values for the (n=0, l=-4) packets
DRIFT_Z_1NS_M = 2.522720583672432e-07       # p0 = 0.43 eV over 1 ns
DRIFT_RHO_SQ_0574_1NS_M2 = 5.328617634020349e-13


def focal_state(sigma_m, l=-4, n=0, p0_ev=0.43, t_s=0.0):
    return MomentState.from_packet(LGPacket(n, l, sigma_m), ELECTRON, p0_ev, t_s=t_s)


def lens_for(sigma_m, duration_s=20e-9, n=0, l=-4, n_prime=0):
    field = solve_matching(LGPacket(n, l, sigma_m), n_prime, ELECTRON)
    return LensConfig(h0_gauss=field, duration_s=duration_s, length_m=0.1)


def test_drift_identity_at_zero_dt():
    state = focal_state(0.574e-6)
    assert propagate_drift(state, 0.0, ELECTRON) == state


def test_drift_golden_numbers():
    state = focal_state(0.574e-6)
    out = propagate_drift(state, units.time_to_natural(1e-9), ELECTRON)
    assert units.length_from_natural(out.z) == pytest.approx(DRIFT_Z_1NS_M, rel=1e-12)
    assert units.area_from_natural(out.rho_sq) == pytest.approx(
        DRIFT_RHO_SQ_0574_1NS_M2, rel=1e-12
    )
    assert out.u_perp_sq == state.u_perp_sq
    assert out.p_z == state.p_z
    assert out.l == state.l


def test_drift_rejects_negative_dt():
    with pytest.raises(ValueError):
        propagate_drift(focal_state(0.5e-6), -1.0, ELECTRON)


def test_lens_stationary_entry_is_fixed_point():
    lens = lens_for(0.622e-6)
    omega0 = units.cyclotron_frequency_natural(lens.h0_gauss, ELECTRON)
    state = focal_state(0.622e-6)
    rho_st = stationary_rho_sq(state.u_perp_sq, state.l, omega0, ELECTRON)
    captured = MomentState(rho_st, 0.0, state.u_perp_sq, 0.0, 0.0, 0.0, state.l)
    orbit = LensOrbit.from_entry(captured, lens, ELECTRON)
    for dt_frac in (0.1, 0.5, 2.3):
        out = lens_state_at(orbit, dt_frac * 2 * math.pi / omega0)
        assert out.rho_sq == pytest.approx(rho_st, rel=1e-12)
        assert abs(out.drho_sq_dt) < 1e-12 * rho_st * omega0


def test_lens_periodicity():
    lens = lens_for(0.622e-6)
    omega0 = units.cyclotron_frequency_natural(lens.h0_gauss, ELECTRON)
    entry = propagate_drift(focal_state(0.622e-6), units.time_to_natural(1e-9), ELECTRON)
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    for k in range(1, 6):
        out = lens_state_at(orbit, k * 2.0 * math.pi / omega0)
        assert out.rho_sq == pytest.approx(entry.rho_sq, rel=1e-12)
        assert out.drho_sq_dt == pytest.approx(entry.drho_sq_dt, rel=1e-12)
        assert out.u_perp_sq == entry.u_perp_sq


def test_lens_oscillates_about_stationary_value():
    # 1 ns drift of the matched 0.622 um packet, then the lens orbit center
    # sits at 2 sigma_r^2
    lens = lens_for(0.622e-6)
    entry = propagate_drift(focal_state(0.622e-6), units.time_to_natural(1e-9), ELECTRON)
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    assert units.area_from_natural(orbit.center) == pytest.approx(2 * 0.622e-6**2, rel=1e-12)
    # inside toward the exact quoted value at exactly 85 G within the
    # field-rounding tolerance
    lens85 = LensConfig(h0_gauss=85.0, duration_s=20e-9, length_m=0.1)
    orbit85 = LensOrbit.from_entry(entry, lens85, ELECTRON)
    assert units.area_from_natural(orbit85.center) == pytest.approx(7.7377e-13, rel=5e-3)


def test_lens_closed_form_matches_rk4():
    lens = lens_for(0.622e-6)
    omega0 = units.cyclotron_frequency_natural(lens.h0_gauss, ELECTRON)
    entry = propagate_drift(focal_state(0.622e-6), units.time_to_natural(1e-9), ELECTRON)
    m = ELECTRON.mass_ev

    def rhs(t, y):
        rho, drho = y
        return np.array(
            [drho, 2.0 * entry.u_perp_sq - 2.0 * omega0 * entry.l / m - omega0**2 * rho]
        )

    period = 2.0 * math.pi / omega0
    ts, ys = integrate_rk4(rhs, (entry.rho_sq, entry.drho_sq_dt), 0.0, 5 * period, period / 1000)
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    closed = np.array([orbit.rho_sq(*orbit.phase(t)) for t in ts])
    assert np.max(np.abs(closed - ys[:, 0]) / np.abs(closed)) < 1e-8


def test_stationary_rho_sq_cases():
    omega0 = units.cyclotron_frequency_natural(85.0, ELECTRON)
    m = ELECTRON.mass_ev
    # ground orbit: u^2 = omega/m gives rho_H^2 / 2 = 2 / (m omega)
    assert stationary_rho_sq(omega0 / m, 0, omega0, ELECTRON) == pytest.approx(
        2.0 / (m * omega0), rel=1e-14
    )
    # large positive l with small velocity: no stable orbit
    assert stationary_rho_sq(1e-16, 40, omega0, ELECTRON) < 0.0
    for bad in (0.0, -omega0):  # the center divides by omega0^2, and a negative omega0 is no field
        with pytest.raises(ValueError, match=f"^omega0 must be positive, got {bad}$"):
            stationary_rho_sq(omega0 / m, 0, bad, ELECTRON)


def test_run_overfocus_event_sits_at_the_floor():
    # drift well past the transport threshold, then a long matched lens
    state = focal_state(0.574e-6)
    entry = propagate_drift(state, units.time_to_natural(2.5e-9), ELECTRON)
    lens = lens_for(0.574e-6, duration_s=20e-9)
    line = Beamline((Drift(2.5e-9), lens), ELECTRON, LGPacket(0, -4, 0.574e-6), 0.43)
    (event,) = run(line, 0.05e-9).events_of(EVENT_OVERFOCUS)
    t_cross = event.t
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    floor = compton_floor(ELECTRON)
    # the closed form indeed sits at the floor there and above it just before
    assert orbit.rho_sq(*orbit.phase(t_cross - entry.t)) == pytest.approx(floor, rel=1e-6)
    dense = np.linspace(0.0, t_cross - entry.t, 20000)[:-1]
    assert all(orbit.rho_sq(*orbit.phase(d)) > floor for d in dense[::37])


def test_matching_ratio_exact_fractions():
    assert matching_ratio(0, -4, 0) == Fraction(4, 5)
    assert matching_ratio(50, -4, 0) == Fraction(4, 105)
    assert matching_ratio(0, 4, 0) == Fraction(36, 5)
    with pytest.raises(ValueError):
        matching_ratio(-1, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(-(10**6), 10**6), st.integers(0, 10**6))
def test_matching_ratio_and_radial_number_round_trip(n, l, n_prime):
    assert radial_number_for_ratio(matching_ratio(n, l, n_prime), l, n_prime) == n


def test_radial_number_for_ratio():
    assert radial_number_for_ratio(Fraction(4, 5) / 21, -4, 0) == 50
    assert radial_number_for_ratio(Fraction(4, 5), -4, 0) == 0
    with pytest.raises(ValueError):
        radial_number_for_ratio(Fraction(3, 7), -4, 0)


@pytest.mark.parametrize("ratio", [0, Fraction(-4, 5)])
def test_no_radial_number_matches_a_non_positive_ratio(ratio):
    with pytest.raises(ValueError, match=rf"^no integer radial number matches ratio {ratio}$"):
        radial_number_for_ratio(ratio, -4, 0)


def test_transport_check_examples():
    # matched packet entering at its focal point is always transportable
    for sigma in (0.574e-6, 0.622e-6):
        lens = lens_for(sigma)
        report = transport_check(LensOrbit.from_entry(focal_state(sigma), lens, ELECTRON), n=0, n_prime=0)
        assert report.matched
        assert report.transportable
        assert report.matching_ratio_required == Fraction(4, 5)
        assert report.matching_ratio_actual == pytest.approx(0.8, rel=1e-12)

    # t1 = 2.1 ns: the 0.574/100 G pairing over-focuses, 0.622/85 G survives
    dt = units.time_to_natural(2.1e-9)
    tight = transport_check(
        LensOrbit.from_entry(
            propagate_drift(focal_state(0.574e-6), dt, ELECTRON), lens_for(0.574e-6), ELECTRON
        )
    )
    loose = transport_check(
        LensOrbit.from_entry(
            propagate_drift(focal_state(0.622e-6), dt, ELECTRON), lens_for(0.622e-6), ELECTRON
        )
    )
    assert not tight.transportable
    assert loose.transportable
    assert tight.rho_sq_min < 0.0 < loose.rho_sq_min


def test_an_orbit_that_touches_zero_is_transportable_in_neither_form():
    # omega0 = 2**-20 and powers of two throughout: R_st = 8 = R_in / 2 + dR_in^2 / (2 w^2 R_in) exactly
    state = MomentState(8.0, 2.0**-17, 2.0**-38, 0.43, 0.0, 0.0, 0)
    lens = LensConfig(h0_gauss=82.37831823714913, duration_s=1e-9, length_m=0.1)
    orbit = LensOrbit.from_entry(state, lens, ELECTRON)
    assert (orbit.omega0, orbit.center, orbit.amplitude) == (2.0**-20, 8.0, 8.0)
    report = transport_check(orbit)
    assert (report.rho_sq_min, report.transportable, report.transportable_solved_form) == (0.0, False, False)


def test_a_stationary_orbit_never_dips_below_its_radius():
    # amplitude 0: no point dips, so no arccos of (threshold - center) / 0 is taken, and nothing warns
    state = MomentState(8.0, 0.0, 2.0**-38, 0.43, 0.0, 0.0, 0)
    lens = LensConfig(h0_gauss=82.37831823714913, duration_s=1e-9, length_m=0.1)
    orbit = LensOrbit.from_entry(state, lens, ELECTRON)
    assert (orbit.center, orbit.amplitude) == (8.0, 0.0)
    assert math.isnan(orbit.first_crossing_dt(4.0, math.inf))


def test_transport_amplitude_and_solved_forms_agree():
    rng = np.random.default_rng(3141)
    for _ in range(1000):
        rho = 10.0 ** rng.uniform(-1, 3)
        u_sq = 10.0 ** rng.uniform(-14, -9)
        slope = rng.uniform(-0.95, 0.95) * 2.0 * math.sqrt(rho * u_sq)
        l = int(rng.integers(-8, 9))
        omega0 = 10.0 ** rng.uniform(-8, -5)
        field = units.field_from_cyclotron_natural(omega0, ELECTRON)
        state = MomentState(rho, slope, u_sq, 0.0, 0.0, 0.0, l)
        lens = LensConfig(h0_gauss=field, duration_s=1e-9, length_m=0.1)
        report = transport_check(LensOrbit.from_entry(state, lens, ELECTRON))
        assert report.transportable == report.transportable_solved_form
        assert report.transportable == (report.rho_sq_min > 0.0)


def test_emittance_focal_and_drift_conservation():
    state = focal_state(0.574e-6)
    eps0 = emittance(state)
    assert eps0 == pytest.approx(math.sqrt(state.rho_sq * state.u_perp_sq), rel=1e-14)
    cur = state
    step = units.time_to_natural(0.25e-9)
    for _ in range(40):
        cur = propagate_drift(cur, step, ELECTRON)
        assert emittance(cur) == pytest.approx(eps0, rel=1e-12)


def test_emittance_continuous_at_lens_boundary():
    entry = propagate_drift(focal_state(0.622e-6), units.time_to_natural(1e-9), ELECTRON)
    lens = lens_for(0.622e-6)
    exit_state = lens_state_at(LensOrbit.from_entry(entry, lens, ELECTRON), 0.0)
    assert emittance(exit_state) == emittance(entry)
    assert (exit_state.rho_sq, exit_state.drho_sq_dt, exit_state.u_perp_sq) == (
        entry.rho_sq,
        entry.drho_sq_dt,
        entry.u_perp_sq,
    )


def test_emittance_rejects_inconsistent_moments():
    bad = MomentState(1.0, 10.0, 1e-12, 0.0, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        emittance(bad)


def test_emittance_radicand_at_the_rounding_allowance_is_zero():
    # <rho^2><u^2> - <rho.u>^2 = 2.5e11 * 4 - (1e6 + 5e-7)^2 rounds to -1, exactly -1e-12 of <rho^2><u^2>
    state = MomentState(2.5e11, 2000000.000001, 4.0, 0.0, 0.0, 0.0, 0)
    assert state.rho_sq * state.u_perp_sq - (0.5 * state.drho_sq_dt) ** 2 == -1.0
    assert emittance(state) == 0.0


@pytest.mark.parametrize("field", ["rho_sq", "drho_sq_dt", "u_perp_sq"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emittance_rejects_a_non_finite_moment(field, value):
    state = replace(MomentState(1e12, 0.0, 1e-12, 0.0, 0.0, 0.0, -4), **{field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
        emittance(state)


def test_lens_orbit_broadcasts_an_array_radius_against_a_scalar_rate():
    sigma = 0.574e-6
    entry = propagate_drift(focal_state(sigma), units.time_to_natural(0.3e-9), ELECTRON)
    entry = replace(entry, rho_sq=entry.rho_sq * np.array([0.5, 1.0, 2.0]))
    orbit = LensOrbit.from_entry(entry, lens_for(sigma), ELECTRON)
    assert np.ndim(orbit.a_sin) == 0 and orbit.a_cos.shape == (3,)
    assert orbit.amplitude.tolist() == [math.hypot(a, orbit.a_sin) for a in orbit.a_cos.tolist()]


def test_waist_helpers():
    state = focal_state(0.574e-6)
    moved = propagate_drift(state, units.time_to_natural(1e-9), ELECTRON)
    assert waist_dt(moved) == pytest.approx(-units.time_to_natural(1e-9), rel=1e-12)
    assert free_waist_rho_sq(moved) == pytest.approx(state.rho_sq, rel=1e-12)


@st.composite
def lens_entries(draw):
    """A packet drifted a random time to a lens whose field is within 3x of matched."""
    packet = LGPacket(draw(st.integers(0, 2)), draw(st.integers(-6, 6)), draw(st.floats(0.3, 1.0)) * 1e-6)
    entry = MomentState.from_packet(
        packet, ELECTRON, draw(st.floats(0.0, 1.0)), t_s=draw(st.floats(-3e-9, 3e-9))
    )
    lens = LensConfig(
        h0_gauss=solve_matching(packet, 0, ELECTRON) * draw(st.floats(0.3, 3.0)),
        duration_s=1e-9,
        length_m=0.1,
        e0_v_per_m=draw(st.sampled_from([0.0, 1e5, 25e6])),
    )
    return entry, lens


@settings(max_examples=100, deadline=None)
@given(lens_entries(), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=16))
def test_lens_state_is_the_orbit_formulas_bit_for_bit(case, periods):
    orbit = LensOrbit.from_entry(*case, ELECTRON)
    dts = np.array(periods) * (2.0 * math.pi / orbit.omega0)
    for dt in (dts, float(dts[0])):
        state = lens_state_at(orbit, dt)
        w = orbit.omega0 * dt
        assert np.array_equal(state.rho_sq, orbit.rho_sq(*orbit.phase(dt)))
        assert np.array_equal(state.drho_sq_dt, orbit.drho_sq(*orbit.phase(dt)))
        assert np.array_equal(state.rho_sq, orbit.center + orbit.a_cos * np.cos(w) + orbit.a_sin * np.sin(w))
        assert np.array_equal(state.drho_sq_dt, orbit.omega0 * (-orbit.a_cos * np.sin(w) + orbit.a_sin * np.cos(w)))


def test_lens_formulas_take_the_phase_pair_not_the_offsets():
    # rho_sq(dt) once took the offsets; passing them, even two of them, now raises
    orbit = LensOrbit.from_entry(
        MomentState.from_packet(LGPacket(0, 2, 0.6e-6), ELECTRON), LensConfig(80.0, 1e-9, 0.1), ELECTRON
    )
    for dt in (1e4, np.array([0.0, 1e4])):
        for formula in (orbit.rho_sq, orbit.drho_sq):
            with pytest.raises(TypeError):
                formula(dt)


@settings(max_examples=100, deadline=None)
@given(lens_entries(), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=16))
def test_orbit_on_an_array_matches_the_scalar_path(case, periods):
    orbit = LensOrbit.from_entry(*case, ELECTRON)
    dts = np.array(periods) * (2.0 * math.pi / orbit.omega0)
    scale = abs(orbit.center) + orbit.amplitude
    rho_sq, drho_sq = orbit.rho_sq(*orbit.phase(dts)), orbit.drho_sq(*orbit.phase(dts))
    for dt, r, d in zip(dts.tolist(), rho_sq, drho_sq):
        assert abs(r - orbit.rho_sq(*orbit.phase(dt))) <= 1e-13 * scale
        assert abs(d - orbit.drho_sq(*orbit.phase(dt))) <= 1e-13 * orbit.omega0 * scale


@settings(max_examples=100, deadline=None)
@given(lens_entries(), st.floats(-1.2, 1.2), st.floats(0.0, 3.0))
def test_first_crossing_against_dense_sampling(case, level, periods):
    orbit = LensOrbit.from_entry(*case, ELECTRON)
    threshold = orbit.center + level * orbit.amplitude
    dt_max = periods * 2.0 * math.pi / orbit.omega0
    crossing = orbit.first_crossing_dt(threshold, dt_max)
    dts = np.linspace(0.0, dt_max, 4001)
    values = orbit.rho_sq(*orbit.phase(dts))
    tol = 1e-9 * (abs(orbit.center) + orbit.amplitude)
    below = dts[values < threshold - tol]
    if math.isnan(crossing):
        assert below.size == 0
        return
    assert 0.0 <= crossing <= dt_max
    assert np.all(values[dts < crossing] >= threshold - tol)
    assert below.size == 0 or crossing <= below[0]
    if crossing > 0.0:
        assert abs(orbit.rho_sq(*orbit.phase(crossing)) - threshold) <= tol
    else:
        assert orbit.rho_sq(*orbit.phase(0.0)) <= threshold


def test_first_crossing_at_the_dip_bound_is_the_orbit_minimum():
    # a threshold equal to center - amplitude is reached only at the minimum, which still counts as a crossing
    entry = propagate_drift(focal_state(0.574e-6), units.time_to_natural(1e-9), ELECTRON)  # past its waist
    orbit = LensOrbit.from_entry(entry, lens_for(0.574e-6), ELECTRON)
    threshold = orbit.center - orbit.amplitude
    assert orbit.rho_sq(*orbit.phase(0.0)) > threshold
    period = 2.0 * math.pi / orbit.omega0
    crossing = orbit.first_crossing_dt(threshold, period)
    assert 0.0 < crossing < period
    scale = abs(orbit.center) + orbit.amplitude
    assert abs(orbit.drho_sq(*orbit.phase(crossing))) <= 1e-12 * orbit.omega0 * scale
    # an entry at the threshold itself crosses at once, though the radius is growing there
    assert orbit.first_crossing_dt(orbit.rho_sq(*orbit.phase(0.0)), period) == 0.0
    # a lens that ends at the crossing, to the bit, still crosses: dt_max is included
    assert orbit.first_crossing_dt(threshold, crossing) == crossing
    assert math.isnan(orbit.first_crossing_dt(threshold, math.nextafter(crossing, 0.0)))
    assert abs(orbit.rho_sq(*orbit.phase(crossing)) - threshold) <= 1e-12 * scale


def test_validated_requires_every_field_finite():
    state = focal_state(0.622e-6)
    assert state.validated() is state
    for name in ("drho_sq_dt", "p_z", "z", "t"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            replace(state, **{name: math.inf}).validated()
    with pytest.raises(ValueError, match="^u_perp_sq must be positive, got 0.0$"):
        replace(state, u_perp_sq=0.0).validated()
    # a state of arrays names its first bad entry
    with pytest.raises(ValueError, match="^z must be finite, got nan$"):
        replace(state, rho_sq=np.array([1.0, 2.0, 3.0]), z=np.array([0.0, np.nan, np.inf])).validated()


@settings(max_examples=100, deadline=None)
@given(lens_entries(), st.lists(st.floats(0.3, 3.0), min_size=1, max_size=16), st.floats(-1.2, 1.2))
def test_orbit_of_a_field_array_matches_the_scalar_orbits(case, factors, level):
    entry, lens = case
    fields = lens.h0_gauss * np.array(factors)
    orbits = LensOrbit.from_entry(entry, replace(lens, h0_gauss=fields), ELECTRON)
    scalars = [LensOrbit.from_entry(entry, replace(lens, h0_gauss=h), ELECTRON) for h in fields.tolist()]
    # bit for bit: the transport verdict is the sign of center - amplitude
    assert orbits.center.tolist() == [orbit.center for orbit in scalars]
    assert orbits.amplitude.tolist() == [orbit.amplitude for orbit in scalars]
    threshold = float(np.median(orbits.center) + level * np.median(orbits.amplitude))
    dt_max = 2.0 * math.pi / float(np.min(orbits.omega0))
    crossings = orbits.first_crossing_dt(threshold, dt_max)
    for crossing, orbit in zip(crossings.tolist(), scalars):
        expected = orbit.first_crossing_dt(threshold, dt_max)
        if math.isnan(expected):
            assert math.isnan(crossing)
        else:  # one body, math per point: bit for bit
            assert crossing == expected


def test_states_and_orbits_of_arrays_are_each_scalar_bit_for_bit():
    # x * x, not x ** 2, and math.hypot for each point: Python's pow and
    # numpy's square, like np.hypot and math.hypot, differ in the last bit
    # for about one value in a thousand
    sigmas = np.linspace(0.3, 1.0, 5001) * 1e-6
    packet = LGPacket(1, -3, 0.5e-6, focus_time_s=0.4e-9)
    lens = lens_for(0.5e-6, n=1, l=-3)
    states = MomentState.from_packet(replace(packet, sigma_r_m=sigmas), ELECTRON, 0.43)
    scalars = [MomentState.from_packet(replace(packet, sigma_r_m=s), ELECTRON, 0.43) for s in sigmas.tolist()]
    for name in ("rho_sq", "drho_sq_dt", "u_perp_sq"):
        assert getattr(states, name).tobytes() == np.array([getattr(s, name) for s in scalars]).tobytes()
    orbits = LensOrbit.from_entry(states, lens, ELECTRON)
    for name in ("center", "amplitude"):
        expected = [getattr(LensOrbit.from_entry(s, lens, ELECTRON), name) for s in scalars]
        assert getattr(orbits, name).tobytes() == np.array(expected).tobytes()
