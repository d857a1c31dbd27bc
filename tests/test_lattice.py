import math
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from vortexlens import units
from vortexlens.cli import CSV_COLUMNS, load_scenario, trajectory_rows
from vortexlens.elements import Drift, LensConfig
from vortexlens.lattice import (
    FLAG_FOCAL,
    FLAG_OVERFOCUS,
    FLAG_RELATIVISTIC,
    SAMPLE_DTYPE,
    STATE_FIELDS,
    Beamline,
    BeamlineConfigError,
    NoCaptureFieldError,
    Trajectory,
    design_direct_capture,
    entry_states,
    run,
    solve_matching,
    state_at,
    walk,
)
from vortexlens.moments import (
    LensOrbit,
    MomentState,
    compton_floor,
    emittance,
    lens_state_at,
    propagate_drift,
    rho_sq_free,
    stationary_rho_sq,
    transport_check,
)
from vortexlens.packet import LGPacket, transverse_velocity_sq
from vortexlens.perturbation import ZerothOrderInputs, correction_closed_form
from vortexlens.units import Particle

ELECTRON = Particle.electron()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# frozen forward-model constants for the two-lens scenarios (0.574 um packet)
MATCHED_FIELD_0574 = 99.88769387567038
MATCHED_FIELD_0622 = 85.06580222335472
RECAPTURE_T1_NS = 2.0
RECAPTURE_LENS1_END_NS = 2.5
RECAPTURE_FOCAL_NS = 2.8325352173971496
CAPTURE_FIELD_G = 97.8
CAPTURE_T1_NS = 0.3200492156380533
CAPTURE_FOCAL_NS = 3.5493461204694436


def packet_0574():
    return LGPacket(0, -4, 0.574e-6)


def matched_lens(field, duration_s):
    return LensConfig(h0_gauss=field, duration_s=duration_s, length_m=0.1)


def test_beamline_validation():
    with pytest.raises(BeamlineConfigError):
        Beamline((), ELECTRON, packet_0574(), 0.43)
    with pytest.raises(BeamlineConfigError):
        Beamline(("drift",), ELECTRON, packet_0574(), 0.43)


def test_drift_only_trajectory_matches_free_law():
    packet = packet_0574()
    line = Beamline((Drift(3e-9),), ELECTRON, packet, 0.43)
    traj = run(line, 0.1e-9)
    assert traj.completed
    for sample in traj.samples:
        t_s = units.time_from_natural(sample.t)
        expected = rho_sq_free(packet, t_s, ELECTRON)
        assert units.area_from_natural(sample.rho_sq) == pytest.approx(expected, rel=1e-12)
    # strictly increasing sample times
    ts = [s.t for s in traj.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_boundary_continuity_is_exact():
    field = MATCHED_FIELD_0622
    line = Beamline(
        (Drift(1e-9), matched_lens(field, 2e-9), Drift(1e-9)),
        ELECTRON,
        LGPacket(0, -4, 0.622e-6),
        0.43,
    )
    traj = run(line, 0.25e-9)
    by_element = {}
    for sample in traj.samples:
        by_element.setdefault(sample.element_index, []).append(sample)
    # the first state of each element continues the previous element exactly
    for index in (1, 2):
        prev_exit_t = by_element[index][0].t
        resumed = state_at(line, prev_exit_t)
        first = by_element[index][0]
        assert first.rho_sq == resumed.rho_sq
        assert first.drho_sq_dt == resumed.drho_sq_dt
        assert first.u_perp_sq == resumed.u_perp_sq
        assert first.p_z == resumed.p_z
        assert first.z == resumed.z
    # OAM never changes, mean square velocity never changes
    assert {s.l for s in traj.samples} == {-4}
    assert {s.u_perp_sq for s in traj.samples} == {traj.samples[0].u_perp_sq}


def test_overfocus_truncates_with_event():
    line = Beamline(
        (Drift(2.5e-9), matched_lens(MATCHED_FIELD_0574, 20e-9)),
        ELECTRON,
        packet_0574(),
        0.43,
    )
    traj = run(line, 0.05e-9)
    assert not traj.completed
    over = traj.events_of("overfocus")
    assert len(over) == 1
    last = traj.samples[-1]
    assert last.flag_bits & FLAG_OVERFOCUS
    assert last.t == over[0].t
    floor = (1.0 / ELECTRON.mass_ev) ** 2
    assert last.rho_sq == pytest.approx(floor, rel=1e-6)


def test_sample_dt_halving_keeps_events_identical():
    line = Beamline(
        (Drift(2.0e-9), matched_lens(MATCHED_FIELD_0574, 0.5e-9), Drift(2e-9)),
        ELECTRON,
        packet_0574(),
        0.43,
    )
    events_a = run(line, 0.1e-9).events
    events_b = run(line, 0.05e-9).events
    assert [(e.kind, e.t, e.element_index) for e in events_a] == [
        (e.kind, e.t, e.element_index) for e in events_b
    ]


@pytest.mark.parametrize("sample_dt_s", [math.nan, math.inf, 0.0, -1e-9])
def test_run_requires_a_finite_positive_step(sample_dt_s):
    line = Beamline((Drift(2.0e-9),), ELECTRON, packet_0574(), 0.43)
    with pytest.raises(ValueError, match=f"^sample_dt_s must be positive, got {sample_dt_s}$"):
        run(line, sample_dt_s)


def test_two_lens_recapture_scenario():
    # over-focusing first lens terminated early; identical second lens placed
    # at the inter-lens waist captures and transports
    field = MATCHED_FIELD_0574
    d2 = (RECAPTURE_FOCAL_NS - RECAPTURE_LENS1_END_NS) * 1e-9
    period_s = 2 * math.pi / units.cyclotron_frequency(field, ELECTRON)
    line = Beamline(
        (
            Drift(RECAPTURE_T1_NS * 1e-9),
            matched_lens(field, (RECAPTURE_LENS1_END_NS - RECAPTURE_T1_NS) * 1e-9),
            Drift(d2),
            matched_lens(field, 2 * period_s),
        ),
        ELECTRON,
        packet_0574(),
        0.43,
    )
    # first lens alone would over-focus
    entries = entry_states(line)
    first_entry = entries[0][1]
    report1 = transport_check(LensOrbit.from_entry(first_entry, line.elements[1], ELECTRON))
    assert not report1.transportable
    # second lens, entered at the waist, transports
    second_entry = entries[1][1]
    report2 = transport_check(LensOrbit.from_entry(second_entry, line.elements[3], ELECTRON))
    assert report2.transportable
    assert units.time_from_natural(second_entry.t) * 1e9 == pytest.approx(
        RECAPTURE_FOCAL_NS, rel=1e-12
    )
    traj = run(line, 0.02e-9)
    assert traj.completed


def test_focal_event_located_between_lenses():
    field = MATCHED_FIELD_0574
    line = Beamline(
        (
            Drift(RECAPTURE_T1_NS * 1e-9),
            matched_lens(field, (RECAPTURE_LENS1_END_NS - RECAPTURE_T1_NS) * 1e-9),
            Drift(2e-9),
        ),
        ELECTRON,
        packet_0574(),
        0.43,
    )
    traj = run(line, 0.05e-9)
    focal = [e for e in traj.events_of("focal_point") if e.element_index == 2]
    assert len(focal) == 1
    assert units.time_from_natural(focal[0].t) * 1e9 == pytest.approx(
        RECAPTURE_FOCAL_NS, rel=1e-12
    )
    # the flagged sample sits at the event and at the waist
    flagged = [s for s in traj.samples if s.flag_bits & FLAG_FOCAL and s.element_index == 2]
    assert len(flagged) == 1
    assert flagged[0].t == focal[0].t
    assert abs(flagged[0].drho_sq_dt) < 1e-20


def test_direct_capture_closure():
    # drift solved so the inter-lens waist equals the stationary radius of a
    # 97.8 G lens; the designed capture lens then holds the radius constant
    line = Beamline(
        (
            Drift(CAPTURE_T1_NS * 1e-9),
            matched_lens(CAPTURE_FIELD_G, (RECAPTURE_LENS1_END_NS - CAPTURE_T1_NS) * 1e-9),
            Drift(6e-9),
        ),
        ELECTRON,
        packet_0574(),
        0.43,
    )
    traj = run(line, 0.05e-9)
    focal = [e for e in traj.events_of("focal_point") if e.element_index == 2]
    assert len(focal) == 1
    t_focal = focal[0].t
    assert units.time_from_natural(t_focal) * 1e9 == pytest.approx(CAPTURE_FOCAL_NS, rel=1e-12)
    state = state_at(line, t_focal)
    lens = design_direct_capture(state, ELECTRON, length_m=0.1)
    assert lens.h0_gauss == pytest.approx(CAPTURE_FIELD_G, rel=1e-12)
    # three periods of constancy
    period = units.time_to_natural(2 * math.pi / units.cyclotron_frequency(lens.h0_gauss, ELECTRON))
    from vortexlens.moments import lens_state_at

    for frac in np.linspace(0.0, 3.0, 301):
        out = lens_state_at(LensOrbit.from_entry(state, lens, ELECTRON), float(frac) * period)
        assert abs(out.rho_sq / state.rho_sq - 1.0) < 1e-12


def test_design_direct_capture_fixed_point():
    # a state already sitting on a stationary orbit designs back its own field
    field = 91.3
    omega0 = units.cyclotron_frequency_natural(field, ELECTRON)
    packet = LGPacket(0, -4, 0.6e-6)
    u_sq = transverse_velocity_sq(packet, ELECTRON)
    rho_st = stationary_rho_sq(u_sq, -4, omega0, ELECTRON)
    state = MomentState(rho_st, 0.0, u_sq, 0.0, 0.0, 0.0, -4)
    lens = design_direct_capture(state, ELECTRON)
    assert lens.h0_gauss == pytest.approx(field, rel=1e-12)


def test_design_direct_capture_requires_waist():
    state = propagate_drift(
        MomentState.from_packet(packet_0574(), ELECTRON, 0.43),
        units.time_to_natural(1e-9),
        ELECTRON,
    )
    with pytest.raises(ValueError):
        design_direct_capture(state, ELECTRON)


def test_drift_leg_focal_is_the_in_range_waist():
    start = MomentState.from_packet(packet_0574(), ELECTRON, 0.43)
    expanding = propagate_drift(start, units.time_to_natural(1e-9), ELECTRON)
    # a packet launched past its focus only expands: no focal point
    past = LGPacket(0, -4, 0.574e-6, focus_time_s=-1e-9)
    (leg,) = walk(Beamline((Drift(3e-9),), ELECTRON, past, 0.43))
    assert leg.entry.drho_sq_dt == expanding.drho_sq_dt
    assert math.isnan(leg.focal)
    # launched 1 ns before its focus, the waist is 1 ns into the drift
    before = LGPacket(0, -4, 0.574e-6, focus_time_s=1e-9)
    (leg,) = walk(Beamline((Drift(3e-9),), ELECTRON, before, 0.43))
    assert leg.focal == pytest.approx(units.time_to_natural(1e-9), rel=1e-12)
    # a drift that ends before the waist has none
    (leg,) = walk(Beamline((Drift(0.5e-9),), ELECTRON, before, 0.43))
    assert math.isnan(leg.focal)
    # a packet launched at its focus has its waist at the entry
    (leg,) = walk(Beamline((Drift(3e-9),), ELECTRON, packet_0574(), 0.43))
    assert leg.focal == 0.0


def test_solve_matching_golden_pairings():
    assert solve_matching(packet_0574(), 0, ELECTRON) == pytest.approx(100.0, rel=5e-3)
    assert solve_matching(LGPacket(0, -4, 0.622e-6), 0, ELECTRON) == pytest.approx(85.0, rel=5e-3)
    assert solve_matching(packet_0574(), 0, ELECTRON) == pytest.approx(
        MATCHED_FIELD_0574, rel=1e-12
    )


# a waist from 1e-3 um to 1e200 um, log-uniform; past about 5e147 um (m sigma_r)^2 overflows
WAIST_UM = st.floats(-3.0, 200.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(WAIST_UM, st.integers(0, 2**1000), st.integers(-6, 6))
@example(4.923487084420574e77, 0, -4)  # the widest waist whose matching field a lens can use
@example(4.923487084420575e77, 0, -4)  # the next float: omega0 * omega0 underflows
@example(1e146, 0, -4)
@example(1.0, 2**509, -4)
@example(1.0, 2**512, -4)  # omega0 * omega0 > 0, but the center of the waist's orbit overflows
def test_a_matching_field_is_one_a_lens_can_use(sigma_r_um, n_prime, l):
    packet = LGPacket(0, l, sigma_r_um * 1e-6)
    try:
        field = solve_matching(packet, n_prime, ELECTRON)
    except NoCaptureFieldError:
        return
    lens = LensConfig(h0_gauss=field, duration_s=1e-9, length_m=0.1)
    orbit = LensOrbit.from_entry(MomentState.from_packet(packet, ELECTRON, 0.43), lens, ELECTRON)
    assert math.isfinite(orbit.center) and math.isfinite(orbit.amplitude)


@settings(max_examples=300, deadline=None)
@given(WAIST_UM, st.integers(-6, 6))
@example(6.641789373952156e77, -4)  # the widest waist whose capture field a lens can use
@example(6.641789373952158e77, -4)  # the next float: omega0 * omega0 underflows
@example(1e146, -4)
@example(1.0, 6)
def test_a_capture_field_is_one_a_lens_can_use(sigma_r_um, l):
    packet = LGPacket(0, l, sigma_r_um * 1e-6)  # focus_time 0: the launch state is a waist
    try:
        state = MomentState.from_packet(packet, ELECTRON, 0.43)
    except ValueError:  # load rejects the packet, so no design starts from it
        assert sigma_r_um > 1e147
        return
    try:
        lens = design_direct_capture(state, ELECTRON)
    except NoCaptureFieldError:
        return
    orbit = LensOrbit.from_entry(state, lens, ELECTRON)
    assert math.isfinite(orbit.center) and math.isfinite(orbit.amplitude)


def test_the_capture_field_edge_is_pinned_on_both_sides():
    # the matching field's edge is pinned through the CLI, in tests/test_cli.py
    def launch(sigma_r_um):
        return MomentState.from_packet(LGPacket(0, -4, sigma_r_um * 1e-6), ELECTRON, 0.43)

    edge = 6.641789373952156e77
    assert design_direct_capture(launch(edge), ELECTRON).h0_gauss > 0.0
    with pytest.raises(NoCaptureFieldError, match=r"omega0 \* omega0 must be positive, got 0.0"):
        design_direct_capture(launch(math.nextafter(edge, math.inf)), ELECTRON)


def test_solve_matching_reproduces_requested_ratio():
    from vortexlens.moments import matching_ratio

    for n, l, n_prime, sigma in [(0, -4, 0, 0.574e-6), (2, 3, 1, 0.3e-6), (50, -4, 0, 2.63e-6)]:
        packet = LGPacket(n, l, sigma)
        field = solve_matching(packet, n_prime, ELECTRON)
        ratio = units.magnetic_radius(field, ELECTRON) ** 2 / sigma**2
        assert ratio == pytest.approx(float(matching_ratio(n, l, n_prime)), rel=1e-12)


def test_emittance_constant_across_full_period_lens_line():
    field = MATCHED_FIELD_0622
    period_s = 2 * math.pi / units.cyclotron_frequency(field, ELECTRON)
    line = Beamline(
        (Drift(1e-9), matched_lens(field, period_s), Drift(1.5e-9)),
        ELECTRON,
        LGPacket(0, -4, 0.622e-6),
        0.43,
    )
    traj = run(line, 0.05e-9)
    drift_eps = [
        emittance(s) for s in traj.samples if s.element_index in (0, 2)
    ]
    spread = max(drift_eps) / min(drift_eps) - 1.0
    assert spread < 1e-10


def test_state_at_matches_run_samples():
    field = MATCHED_FIELD_0622
    line = Beamline(
        (Drift(1e-9), matched_lens(field, 3e-9), Drift(1e-9)),
        ELECTRON,
        LGPacket(0, -4, 0.622e-6),
        0.43,
    )
    traj = run(line, 0.3e-9)
    for sample in traj.samples[:: max(1, len(traj.samples) // 7)]:
        direct = state_at(line, sample.t)
        assert direct.rho_sq == pytest.approx(sample.rho_sq, rel=1e-13)
        assert direct.z == pytest.approx(sample.z, rel=1e-13)
    with pytest.raises(ValueError):
        state_at(line, units.time_to_natural(10e-9))


def test_gradient_lens_carries_corrections():
    lens = LensConfig(
        h0_gauss=85.0, duration_s=5e-9, length_m=0.1, kappa=0.05
    )
    line = Beamline((Drift(1e-9), lens), ELECTRON, LGPacket(0, -4, 0.622e-6), 0.43)
    traj = run(line, 0.2e-9)
    lens_samples = [s for s in traj.samples if s.element_index == 1]
    assert all(not math.isnan(s.rho_sq_corr1) for s in lens_samples)
    assert lens_samples[0].rho_sq_corr1 == pytest.approx(0.0, abs=1e-25)
    assert any(s.rho_sq_corr1 != 0.0 for s in lens_samples[1:])
    drift_samples = [s for s in traj.samples if s.element_index == 0]
    assert all(math.isnan(s.rho_sq_corr1) for s in drift_samples)


def test_relativistic_event_in_accelerating_lens():
    lens = LensConfig(h0_gauss=85.0, duration_s=0.05e-9, length_m=0.1, e0_v_per_m=25e6)
    line = Beamline((Drift(0.1e-9), lens), ELECTRON, LGPacket(0, -4, 0.622e-6), 0.43)
    traj = run(line, 0.002e-9)
    rel = traj.events_of("relativistic_warning")
    assert len(rel) == 1
    # flags switch on at the crossing
    flagged = [s for s in traj.samples if s.flag_bits & FLAG_RELATIVISTIC]
    assert flagged
    assert all(s.t >= rel[0].t for s in flagged)
    bound_p = 0.1 * ELECTRON.mass_ev
    assert all(s.p_z > bound_p for s in flagged)


@st.composite
def valid_lines(draw):
    """A line of 1-5 drifts and lenses, with a sampling step, that the walk accepts."""
    l = draw(st.integers(-6, 6))
    packet = LGPacket(draw(st.integers(0, 2)), l, draw(st.floats(0.45, 0.75)) * 1e-6)
    matched = solve_matching(packet, 0, ELECTRON)
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            elements.append(Drift(draw(st.floats(0.05, 3.0)) * 1e-9))
            continue
        field = matched * draw(st.floats(0.5, 1.5))
        period_s = 2 * math.pi / units.cyclotron_frequency(field, ELECTRON)
        kappa = draw(st.sampled_from([0.0, 0.0, -0.08, 0.05]))
        elements.append(
            LensConfig(
                h0_gauss=field,
                duration_s=draw(st.floats(0.2, 3.0)) * period_s,
                length_m=0.1,
                e0_v_per_m=draw(st.sampled_from([0.0, 1e5])),
                kappa=kappa,
            )
        )
    p0_ev = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.2, 1.0)))
    line = Beamline(tuple(elements), ELECTRON, packet, p0_ev)
    try:
        legs = list(walk(line))
    except BeamlineConfigError:
        assume(False)
    sample_dt_s = line.duration_s / draw(st.integers(20, 200))
    return line, legs, sample_dt_s


def assert_walk_run_state_at_and_entry_states_agree(line, legs, sample_dt_s):
    traj = run(line, sample_dt_s)
    # each leg's exit state is the next leg's entry, bit for bit
    for leg, after in zip(legs, legs[1:]):
        assert leg.evaluate(leg.duration) == after.entry
    # run anchors each lens at the entry state that entry_states reports
    first = {}
    for sample in traj.samples:
        first.setdefault(sample.element_index, sample)
    lens_entries = entry_states(line)
    assert [index for index, _ in lens_entries] == [
        leg.index for leg in legs if isinstance(leg.element, LensConfig)
    ]
    for index, entry in lens_entries:
        lens = line.elements[index]
        anchor = lens_state_at(LensOrbit.from_entry(entry, lens, ELECTRON), 0.0)
        assert tuple(getattr(first[index], name) for name in STATE_FIELDS) == astuple(anchor)
    # the closed forms at a sampled time reproduce the sample
    inner = [s for s in traj.samples[:-1] if not s.flag_bits & FLAG_OVERFOCUS]
    # state_at rebuilds the offset from the absolute t, which moves it by up
    # to ulp(t): on a steep, large orbit that is more than 1e-13 of <rho^2>
    for sample in inner[:: max(1, len(inner) // 7)]:
        direct = state_at(line, sample.t)
        time_rounding = 2.0 * abs(sample.drho_sq_dt) * math.ulp(sample.t)
        assert abs(direct.rho_sq - sample.rho_sq) <= 1e-13 * sample.rho_sq + time_rounding
        assert direct.z == pytest.approx(sample.z, rel=1e-13)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_lines())
def test_walk_run_state_at_and_entry_states_agree(case):
    assert_walk_run_state_at_and_entry_states_agree(*case)


def test_state_at_on_a_steep_large_orbit_within_time_rounding():
    # four lenses where state_at and run differ by 1.2e-13 of <rho^2> = 8.96
    # in the last lens, on an orbit of amplitude 620: 0.12 of the allowance
    fields = (8.117947464087159, 4.168675724801513, 3.784718750148743, 9.873179348214112)
    durations = (
        4.606881725327824e-08, 3.280548534178848e-08, 1.7845563040703157e-07, 1.809136969415637e-08,
    )
    lenses = tuple(
        LensConfig(h0_gauss=field, duration_s=duration, length_m=0.1)
        for field, duration in zip(fields, durations)
    )
    line = Beamline(lenses, ELECTRON, LGPacket(0, 2, 7.5e-7), 1.0)
    assert_walk_run_state_at_and_entry_states_agree(line, list(walk(line)), line.duration_s / 100)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_lines())
def test_no_two_csv_rows_share_time_and_element(case):
    line, _, sample_dt_s = case
    rows = trajectory_rows(run(line, sample_dt_s))[1:]
    keys = [tuple(row.split(",")[:2]) for row in rows]
    assert len(set(keys)) == len(keys)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_lines(), st.data())
def test_a_leg_evaluated_before_its_crossing_gives_a_valid_state(case, data):
    _, legs, _ = case
    floor = compton_floor(ELECTRON)
    for leg in legs:
        crossing = leg.crossing
        horizon = leg.duration if math.isnan(crossing) else crossing
        offsets = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))) * horizon
        if math.isnan(crossing):  # the whole leg, both ends included
            offsets = np.append(offsets, [0.0, horizon])
        else:
            offsets = offsets[offsets < crossing]
        state = leg.evaluate(offsets).validated()
        for offset in offsets.tolist()[:4]:
            leg.evaluate(offset).validated()
        if leg.orbit is not None:  # above the floor, up to the rounding of the orbit
            rounding = 1e-13 * (abs(leg.orbit.center) + leg.orbit.amplitude)
            assert np.all(state.rho_sq > floor - rounding)


def emittance_sq(state):
    """<rho^2><u^2> - <rho.u>^2, the radicand of emittance(); a lens can leave
    it negative, and drifts and joins keep it all the same."""
    return state.rho_sq * state.u_perp_sq - 0.25 * state.drho_sq_dt * state.drho_sq_dt


def rounding_scale(leg, state):
    """The size of the terms whose rounding moves emittance_sq of a state on this leg."""
    rho_sq = state.rho_sq if leg.orbit is None else abs(leg.orbit.center) + leg.orbit.amplitude
    return max(rho_sq, state.rho_sq) * state.u_perp_sq + 0.25 * state.drho_sq_dt * state.drho_sq_dt


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_lines(), st.data())
def test_emittance_is_constant_along_drifts_and_continuous_at_joins(case, data):
    _, legs, _ = case
    for leg in legs:
        start = leg.evaluate(0.0)
        if isinstance(leg.element, Drift):
            fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
            for offset in (np.array(fractions) * leg.duration).tolist():
                state = leg.evaluate(offset)
                tol = 1e-14 * (rounding_scale(leg, state) + rounding_scale(leg, start))
                assert abs(emittance_sq(state) - emittance_sq(start)) <= tol
                if emittance_sq(start) > 1e6 * tol:  # then the rounding moves emittance by under 1e-6
                    assert emittance(state) == pytest.approx(emittance(start), rel=1e-6)
    for before, after in zip(legs, legs[1:]):  # each leg's own closed form on either side
        end, start = before.evaluate(before.duration), after.evaluate(0.0)
        tol = 1e-14 * (rounding_scale(before, end) + rounding_scale(after, start))
        assert abs(emittance_sq(end) - emittance_sq(start)) <= tol


PINNED_COLUMNS = ("t", "z", "p_z", "rho_sq", "drho_sq_dt")
NUMPY_VS_MATH = "numpy and math disagree on this host; the CSV golden digests will move"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_lines(), st.data())
def test_leg_on_an_offset_array_matches_the_scalar_route(case, data):
    line, legs, _ = case
    for leg in legs:
        horizon = leg.duration if math.isnan(leg.crossing) else leg.crossing
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
        offsets = np.sort(np.array(fractions) * horizon)
        state = leg.evaluate(offsets)
        for i, offset in enumerate(offsets.tolist()):
            scalar = leg.evaluate(offset)
            for name in PINNED_COLUMNS:
                column = np.broadcast_to(getattr(state, name), offsets.shape)
                assert column[i] == getattr(scalar, name), (
                    f"{name} at offset {offset!r}: array {column[i]!r}, "
                    f"scalar {getattr(scalar, name)!r}: {NUMPY_VS_MATH}"
                )
        element = leg.element
        if isinstance(element, LensConfig) and not element.is_homogeneous:
            inputs = leg.orbit
            corr = correction_closed_form(inputs, element.kappa, offsets)
            scale = 1e-15 * np.max(np.abs(corr))
            for i, offset in enumerate(offsets.tolist()):
                scalar = correction_closed_form(inputs, element.kappa, offset)
                assert abs(corr[i] - scalar) <= scale, (
                    f"rho_sq_corr1 at offset {offset!r}: array {corr[i]!r}, "
                    f"scalar {scalar!r}: {NUMPY_VS_MATH}"
                )


def test_negative_offset_in_an_array_is_rejected():
    entry = MomentState.from_packet(packet_0574(), ELECTRON, 0.43)
    with pytest.raises(ValueError):
        propagate_drift(entry, np.array([0.0, 1.0, -1.0]), ELECTRON)
    lens = LensConfig(h0_gauss=85.0, duration_s=5e-9, length_m=0.1, kappa=0.05)
    inputs = ZerothOrderInputs.from_entry_state(entry, lens, ELECTRON)
    with pytest.raises(ValueError):
        correction_closed_form(inputs, 0.05, np.array([0.0, -1.0]))


@pytest.mark.parametrize("offset", [math.nan, np.float64(math.nan), np.array([0.0, math.nan])])
def test_nan_offset_is_rejected_without_a_warning(offset):
    entry = MomentState.from_packet(packet_0574(), ELECTRON, 0.43)
    lens = LensConfig(h0_gauss=85.0, duration_s=5e-9, length_m=0.1, kappa=0.05)
    orbit = LensOrbit.from_entry(entry, lens, ELECTRON)
    message = "dt must be non-negative, got " + ("nan" if np.ndim(offset) == 0 else "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            propagate_drift(entry, offset, ELECTRON)
        with pytest.raises(ValueError, match=message):
            correction_closed_form(orbit, 0.05, offset)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_state_at_rejects_a_non_finite_time(t):
    line = Beamline((Drift(1e-9), matched_lens(MATCHED_FIELD_0622, 3e-9)), ELECTRON, packet_0574(), 0.43)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            state_at(line, t)


def reference_rows(trajectory):
    """The CSV rows built one field at a time with format(x, ".12g"), as the
    format was first defined; trajectory_rows must give the same bytes."""
    def fmt(x):
        return format(x, ".12g")

    rows = [",".join(CSV_COLUMNS)]
    for s in trajectory.samples:
        rho2_m2 = units.area_from_natural(float(s.rho_sq))
        corr = float(s.rho_sq_corr1)
        flags = (
            (FLAG_FOCAL, "FOCAL"), (FLAG_OVERFOCUS, "OVERFOCUS"), (FLAG_RELATIVISTIC, "RELATIVISTIC")
        )
        rows.append(
            ",".join(
                (
                    fmt(units.time_from_natural(float(s.t)) * 1e9),
                    str(int(s.element_index)),
                    fmt(units.length_from_natural(float(s.z)) * 1e6),
                    fmt(float(s.p_z)),
                    fmt(rho2_m2 * 1e12),
                    fmt(math.sqrt(rho2_m2) * 1e6),
                    fmt(units.area_from_natural(float(s.drho_sq_dt)) / units.HBAR_EV_S * 1e12 * 1e-9),
                    fmt(float(s.u_perp_sq)),
                    "" if math.isnan(corr) else fmt(units.area_from_natural(corr) * 1e12),
                    ";".join(name for bit, name in flags if s.flag_bits & bit),
                )
            )
        )
    return rows


@pytest.mark.parametrize("refine", [1, 10])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_trajectory_rows_match_the_reference_on_shipped_scenarios(name, refine):
    scenario = load_scenario(SCENARIOS / name)
    traj = run(scenario.beamline(), scenario.sample_dt_ns * 1e-9 / refine)
    assert trajectory_rows(traj) == reference_rows(traj)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(valid_lines())
def test_trajectory_rows_match_the_reference(case):
    line, _, sample_dt_s = case
    traj = run(line, sample_dt_s)
    assert trajectory_rows(traj) == reference_rows(traj)


def test_trajectory_rows_match_the_reference_on_signed_zeros_and_subnormals():
    tiny = 5e-324
    samples = np.zeros(4, SAMPLE_DTYPE).view(np.recarray)
    samples.rho_sq = [-0.0, tiny, 2.5e-308, 1e300]
    samples.drho_sq_dt = [-0.0, -tiny, 0.0, -1e-310]
    samples.u_perp_sq = [-0.0, tiny, 1e-320, 1.0]
    samples.p_z = [-0.0, -tiny, 3e-310, 0.43]
    samples.z = [-0.0, tiny, -1e-315, 0.0]
    samples.t = [-0.0, tiny, 1e-300, 7e-310]
    samples.element_index = [0, 1, 2, 3]
    samples.rho_sq_corr1 = [-0.0, -tiny, np.nan, 1e-310]
    samples.flag_bits = [0, 7, 5, 2]
    traj = Trajectory(samples, (), True)
    rows = trajectory_rows(traj)
    assert rows == reference_rows(traj)
    assert rows[1].startswith("-0,0,-0,-0,-0,-0,-0,-0,-0,")


def hand_built_trajectory(element_index, **columns):
    """A trajectory of the given legs whose samples are 1.0 in every state
    column and NaN in rho_sq_corr1, except for the columns given."""
    samples = np.zeros(len(element_index), SAMPLE_DTYPE).view(np.recarray)
    for name in ("rho_sq", "drho_sq_dt", "u_perp_sq", "p_z", "z", "t"):
        samples[name] = 1.0
    samples.rho_sq_corr1 = np.nan
    samples.element_index = element_index
    for name, values in columns.items():
        samples[name] = values
    return Trajectory(samples, (), True)


nan = math.nan


@pytest.mark.parametrize(
    "element_index, columns",
    [
        pytest.param(  # equal under ==, not bit for bit
            [0, 0, 0, 1, 1, 1],
            {"p_z": [0.0, -0.0, 0.0, -0.0, -0.0, -0.0], "z": [0.0, 0.0, -0.0, 0.0, 0.0, 0.0]},
            id="signed-zero-p_z-and-z",
        ),
        pytest.param(
            [0, 1, 2, 2],
            {"t": [0.0, 1.0, 2.0, 3.0], "flag_bits": [0, 1, 0, 6], "rho_sq_corr1": [nan, 2e-3, 1e-3, 1e-3]},
            id="one-sample-legs",
        ),
        pytest.param(
            [0, 0, 0, 1, 1],
            {"t": [0.0, 1.0, 2.0, 3.0, 4.0], "rho_sq_corr1": [-4e-5, -4e-5, -4e-5, nan, nan]},
            id="finite-constant-correction",
        ),
        pytest.param(
            [0, 0, 0, 0, 1, 1, 1],
            {
                "t": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                "rho_sq_corr1": [nan, 1e-3, 2e-3, nan, nan, 5e-4, 5e-4],
                "flag_bits": [0, 0, 0, 1, 4, 0, 2],
            },
            id="nan-and-finite-corrections",
        ),
        pytest.param(  # NaNs of either sign are one absent correction
            [0, 0, 0],
            {"t": [0.0, 1.0, 2.0], "rho_sq_corr1": [nan, -nan, nan]},
            id="signed-nan-corrections",
        ),
        pytest.param(  # a run that repeats an earlier index is a leg of its own
            [3, 3, 0, 0, 3],
            {"rho_sq": [1.0, 2.0, 2.0, 2.0, 2.0], "p_z": [0.5, 0.5, 0.5, -0.0, -0.0]},
            id="repeated-index",
        ),
    ],
)
def test_trajectory_rows_match_the_reference_on_hand_built_legs(element_index, columns):
    traj = hand_built_trajectory(element_index, **columns)
    assert trajectory_rows(traj) == reference_rows(traj)


def test_trajectory_rows_of_no_samples_is_the_header():
    traj = hand_built_trajectory([])
    assert trajectory_rows(traj) == reference_rows(traj) == [",".join(CSV_COLUMNS)]


def test_an_array_walk_goes_on_with_the_points_that_have_not_crossed():
    lens = LensConfig(h0_gauss=99.88769387567038, duration_s=20e-9, length_m=0.1)
    tail = (Drift(0.5e-9), LensConfig(h0_gauss=60.0, duration_s=5e-9, length_m=0.1))

    def line(h0_gauss):
        elements = (Drift(2.5e-9), replace(lens, h0_gauss=h0_gauss)) + tail
        return Beamline(elements, ELECTRON, LGPacket(0, -4, 0.574e-6), 0.43)

    fields = lens.h0_gauss * np.array([0.5, 1.0, 0.6, 2.0])
    legs = list(walk(line(fields)))
    crossed = ~np.isnan(legs[1].crossing)
    assert crossed.tolist() == [False, True, False, True]
    survivors = [list(walk(line(h))) for h in fields[~crossed].tolist()]
    assert all(len(list(walk(line(h)))) == 2 for h in fields[crossed].tolist())
    assert len(legs) == len(survivors[0]) == len(survivors[1]) == 4
    for leg in legs[2:]:
        for k, scalar in enumerate(survivors):
            expected = scalar[leg.index].entry
            for name in ("rho_sq", "drho_sq_dt", "z", "t"):
                got = np.broadcast_to(getattr(leg.entry, name), 2)[k]
                assert got == pytest.approx(getattr(expected, name), rel=1e-13)
    # once every point has crossed, the walk ends as a scalar walk does
    assert len(list(walk(line(fields[crossed])))) == 2


@st.composite
def launched_lines(draw):
    """A packet launched a random time from its focus into one to three elements:
    drifts, and lenses whose field is within 3x of matched."""
    packet = LGPacket(
        draw(st.integers(0, 2)), draw(st.integers(-6, 6)), draw(st.floats(0.3, 1.0)) * 1e-6,
        focus_time_s=draw(st.floats(-3e-9, 3e-9)),
    )
    matched = solve_matching(packet, 0, ELECTRON)
    elements = [
        Drift(draw(st.floats(0.1e-9, 3e-9))) if draw(st.booleans()) else LensConfig(
            h0_gauss=matched * draw(st.floats(0.3, 3.0)),
            duration_s=draw(st.floats(0.1e-9, 5e-9)),
            length_m=0.1,
            e0_v_per_m=draw(st.sampled_from([0.0, 1e5, 25e6])),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return tuple(elements), packet, draw(st.floats(0.0, 1.0))


def leg_bits(leg):
    """A leg's numbers as bytes, so that equal legs are bitwise equal (NaN included)."""
    orbit = () if leg.orbit is None else (*astuple(leg.orbit.entry), *astuple(leg.orbit)[1:])
    exit_state = astuple(leg.evaluate(leg.duration))
    numbers = (*astuple(leg.entry), leg.duration, leg.focal, leg.crossing, *exit_state, *orbit)
    return leg.index, leg.element, np.array(numbers, dtype=float).tobytes()


def walk_bits(line):
    try:
        return [leg_bits(leg) for leg in walk(line)]
    except BeamlineConfigError as exc:  # a lens may leave a drift after it to fall to zero radius
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(launched_lines())
def test_a_walk_from_the_carried_launch_state_is_the_walk_that_builds_it(case):
    elements, packet, p0_ev = case
    launch = MomentState.from_packet(packet, ELECTRON, p0_ev)  # as load_scenario carries it
    carried = Beamline(elements, ELECTRON, packet, p0_ev, launch)
    built = Beamline(elements, ELECTRON, packet, p0_ev)
    assert carried.launch is launch and built.launch is not launch
    assert walk_bits(carried) == walk_bits(built)
