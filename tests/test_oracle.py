import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vortexlens import oracle
from vortexlens.oracle import (
    IntegrationError,
    expm,
    generating_product_coefficient,
    integrate_exact,
    integrate_rk4,
    integrate_rk4_linear,
    laguerre,
    laguerre_derivative,
    lg_quadrature,
    mode_velocity_coefficient_moments,
    mode_velocity_coefficient_quadrature,
    x_moment_exact,
    y_moment_exact,
)


def test_rk4_exact_on_quadratic_system():
    # quadratic growth: d2r/dt2 = 2u, du/dt = 0; the update polynomial of the
    # integrator matches the exponential exactly for this nilpotent system
    u0 = 0.7

    def rhs(t, y):
        return np.array([y[1], 2.0 * u0, 0.0])

    ts, ys = integrate_rk4(rhs, (1.0, 0.3, u0), 0.0, 10.0, 0.25)
    exact = 1.0 + 0.3 * ts + u0 * ts**2
    assert np.max(np.abs(ys[:, 0] - exact) / exact) < 1e-13


def test_rk4_harmonic_oscillator_energy_drift():
    w = 2.0 * math.pi

    def rhs(t, y):
        return np.array([y[1], -w * w * y[0]])

    period = 2.0 * math.pi / w
    ts, ys = integrate_rk4(rhs, (1.0, 0.0), 0.0, 10.0 * period, period / 1000)
    energy = 0.5 * ys[:, 1] ** 2 + 0.5 * w * w * ys[:, 0] ** 2
    assert np.max(np.abs(energy / energy[0] - 1.0)) < 1e-8


def test_rk4_fourth_order_convergence():
    w = 1.0

    def rhs(t, y):
        return np.array([y[1], -w * w * y[0]])

    period = 2.0 * math.pi / w

    def final_error(step):
        ts, ys = integrate_rk4(rhs, (1.0, 0.0), 0.0, period, step)
        return abs(ys[-1, 0] - 1.0)

    ratio = final_error(period / 200) / final_error(period / 400)
    assert ratio > 14.0


def test_rk4_reports_nonfinite_state():
    def rhs(t, y):
        with np.errstate(over="ignore"):
            return y * y

    with pytest.raises(IntegrationError) as blowup:
        integrate_rk4(rhs, (1.0,), 0.0, 10.0, 0.05)
    assert str(blowup.value) == f"non-finite state at t = {blowup.value.t}"
    assert 0.0 < blowup.value.t <= 10.0


@pytest.mark.parametrize("t0, t_end", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_both_integrators_name_an_end_that_is_not_finite(t0, t_end):
    with pytest.raises(ValueError, match="^t0 and t_end must be finite$"):
        integrate_rk4(lambda t, y: y, (1.0,), t0, t_end, 0.1)
    with pytest.raises(ValueError, match="^t0 and t_end must be finite$"):
        list(integrate_rk4_linear(np.eye(3), lambda t: np.zeros((3, t.size)), (1.0, 0.0, 0.0), t0, t_end, 0.1))


@pytest.mark.parametrize("matrix, y0", [(np.eye(2), (1.0, 0.0)), (np.eye(3), (1.0, 0.0)), (np.eye(4), (1.0,) * 4)])
def test_rk4_linear_needs_a_3x3_system(matrix, y0):
    with pytest.raises(ValueError, match="^integrate_rk4_linear needs a 3x3 matrix and a 3-component state$"):
        list(integrate_rk4_linear(matrix, lambda t: np.zeros((len(y0), t.size)), y0, 0.0, 1.0, 0.1))


def rk4_linear(matrix, forcing, y0, t0, t_end, step):
    """integrate_rk4_linear's blocks joined into one grid: each block after the first starts at the
    last point of the one before, which it does not repeat here."""
    columns = zip(*integrate_rk4_linear(matrix, forcing, y0, t0, t_end, step))
    return tuple(np.concatenate([blocks[0][:1], *(b[1:] for b in blocks)]) for blocks in columns)


def _linear_system(rate, drive=1.0):
    matrix = rate * np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])

    def forcing(t):
        return drive * np.array([np.cos(t), np.zeros_like(t), np.ones_like(t)])

    def rhs(t, y):
        return matrix @ y + drive * np.array([math.cos(t), 0.0, 1.0])

    return matrix, forcing, rhs


@pytest.mark.parametrize("drive", [1.0, 1e100, 1e200])
def test_rk4_linear_blow_up_reported_at_same_time(drive):
    # the generic route overflows in its stages and the step map in the
    # state, so the growth per step (about 1e13) dwarfs the stage factors
    # and both overflow in the same step; a huge drive overflows a kick,
    # which must not reach the earlier steps
    matrix, forcing, rhs = _linear_system(1e4, drive)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as generic:
            integrate_rk4(rhs, (1.0, 0.0, 0.0), 0.0, 100.0, 0.5)
        with pytest.raises(IntegrationError) as linear:
            rk4_linear(matrix, forcing, (1.0, 0.0, 0.0), 0.0, 100.0, 0.5)
    assert linear.value.t == generic.value.t


def test_rk4_linear_blow_up_raises_no_warning():
    # the overflow is reported by the IntegrationError alone
    matrix, forcing, _ = _linear_system(1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            rk4_linear(matrix, forcing, (1.0, 0.0, 0.0), 0.0, 100.0, 0.5)


def test_rk4_linear_overflowing_powers_are_no_blow_up():
    # P^k of this matrix overflows within the first block; times a zero
    # state it would read NaN, so the step map must not scan with it
    matrix, _, _ = _linear_system(1e4)

    def forcing(t):
        return np.zeros((3, t.size))

    def rhs(t, y):
        return matrix @ y

    ts_ref, ref = integrate_rk4(rhs, (0.0, 0.0, 0.0), 0.0, 100.0, 0.5)
    ts, states = rk4_linear(matrix, forcing, (0.0, 0.0, 0.0), 0.0, 100.0, 0.5)
    assert np.array_equal(ts, ts_ref)
    assert np.array_equal(states, ref)
    assert not np.any(states)


@pytest.mark.parametrize("y0", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1e-300, 0.0, 0.0)])
def test_rk4_linear_overflowing_chunk_powers_are_no_blow_up(y0):
    # P^32 is finite but (P^32)^4 overflows, so blocks are cut to 127 steps.
    # From rest the states stay zero, not NaN; a growing state is reported
    # where the generic route reports it, at step 109 from a unit state and
    # at step 216 from a tiny one, with no warning
    matrix, _, _ = _linear_system(20.0)
    m = 0.5 * matrix
    p = np.eye(3) + m + m @ m / 2.0 + m @ m @ m / 6.0 + m @ m @ m @ m / 24.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(np.linalg.matrix_power(p, 32)).all()
        assert not np.isfinite(np.linalg.matrix_power(p, 4 * 32)).all()

    def forcing(t):
        return np.zeros((3, t.size))

    def rhs(t, y):
        return matrix @ y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not any(y0):
            ts_ref, ref = integrate_rk4(rhs, y0, 0.0, 200.0, 0.5)
            ts, states = rk4_linear(matrix, forcing, y0, 0.0, 200.0, 0.5)
            assert np.array_equal(ts, ts_ref)
            assert np.array_equal(states, ref)
            assert not np.any(states)
            return
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as generic:
            integrate_rk4(rhs, y0, 0.0, 200.0, 0.5)
        with pytest.raises(IntegrationError) as linear:
            rk4_linear(matrix, forcing, y0, 0.0, 200.0, 0.5)
    assert linear.value.t == generic.value.t


@pytest.mark.parametrize("t_star", [0.37, 0.375, 2.0, 5.55, 10.3])
def test_rk4_linear_nonfinite_forcing_reported_at_same_time(t_star):
    # a NaN kick inside a block must not reach the earlier steps of that block
    matrix = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, -4.0, 0.0]])

    def forcing(t):
        t = np.asarray(t)
        return np.where(t < t_star, 1.0, math.nan) * np.array([np.cos(t), np.zeros_like(t), np.ones_like(t)])

    def rhs(t, y):
        return matrix @ y + forcing(t)

    with pytest.raises(IntegrationError) as generic:
        integrate_rk4(rhs, (1.0, 0.0, 0.0), 0.0, 12.0, 0.01)
    with pytest.raises(IntegrationError) as linear:
        rk4_linear(matrix, forcing, (1.0, 0.0, 0.0), 0.0, 12.0, 0.01)
    assert linear.value.t == generic.value.t


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _matrices(draw):
    """A dense 3x3 matrix, or a non-diagonalisable one: a repeated
    eigenvalue over a nonzero superdiagonal, permuted off the triangle."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(_UNIT, min_size=9, max_size=9))).reshape(3, 3)
    lam = draw(_UNIT)
    mu = draw(st.one_of(st.just(lam), _UNIT))
    a = np.array(
        [[lam, draw(st.floats(0.1, 1.0)), draw(_UNIT)], [0.0, lam, draw(_UNIT)], [0.0, 0.0, mu]]
    )
    order = draw(st.permutations([0, 1, 2]))
    return a[order][:, order]


# a small block reaches the block edges in a few steps
_BLOCK = 48


@settings(max_examples=100, deadline=None)
@given(
    _matrices(),
    st.tuples(*[st.one_of(st.floats(0.5, 1.0), st.floats(-1.0, -0.5))] * 3),
    # the scan's edges (1, 2, 3 steps, a power of two and its neighbours) in
    # one block, and the block edges B, B + 1 and 2B + 1 of a patched block
    st.sampled_from(
        [(n, oracle.LINEAR_BLOCK) for n in (1, 2, 3, 63, 64, 65)]
        + [(n, _BLOCK) for n in (_BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)]
    ),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
# 3073 steps of 1/3073 end a rounding below 1.0, while t + h of the last step
# reads 1.0: a route that evaluates there meets the NaN and the other does not
@example(np.zeros((3, 3)), (1.0, 1.0, 1.0), (3073, oracle.LINEAR_BLOCK), 1.0)
def test_rk4_linear_matches_generic_rk4(matrix, y0, plan, nan_from):
    # the two routes round differently, by about steps * eps of the state's
    # size; a unit span and |y0| components of at least 1/2 keep every
    # component's peak comparable to that size
    steps, block = plan

    def forcing(t):
        t = np.asarray(t)
        on = 1.0 if nan_from is None else np.where(t < nan_from, 1.0, math.nan)
        return on * np.array([np.cos(t), np.sin(2.0 * t), np.ones_like(t)])

    def rhs(t, y):
        return matrix @ y + forcing(t)

    with mock.patch.object(oracle, "LINEAR_BLOCK", block):
        try:
            ts_ref, ref = integrate_rk4(rhs, y0, 0.0, 1.0, 1.0 / steps)
        except IntegrationError as generic:
            with pytest.raises(IntegrationError) as linear:
                rk4_linear(matrix, forcing, y0, 0.0, 1.0, 1.0 / steps)
            assert linear.value.t == generic.t
            return
        ts, states = rk4_linear(matrix, forcing, y0, 0.0, 1.0, 1.0 / steps)
    assert np.array_equal(ts, ts_ref)
    peak = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(states - ref), axis=0) <= 1e-12 * peak)


def test_rk4_linear_windowed_blow_up_crosses_block_edge():
    # P^128 overflows, so blocks are cut from 200 steps to 127;
    # a tiny state grows past the float range at step 216, in the second block
    matrix, _, _ = _linear_system(20.0)

    def forcing(t):
        return np.zeros((3, t.size))

    def rhs(t, y):
        return matrix @ y

    y0 = (1e-300, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as generic:
        integrate_rk4(rhs, y0, 0.0, 200.0, 0.5)
    assert generic.value.t == 108.0
    with warnings.catch_warnings(), mock.patch.object(oracle, "LINEAR_BLOCK", 200):
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as linear:
            rk4_linear(matrix, forcing, y0, 0.0, 200.0, 0.5)
    assert linear.value.t == generic.value.t


def test_rk4_grid_is_bounded_before_allocation():
    matrix, forcing, rhs = _linear_system(1.0)
    message = f"MAX_STEPS = {oracle.MAX_STEPS}"
    with pytest.raises(ValueError, match=message):
        oracle._time_grid(0.0, 1e13, 1.0)
    with pytest.raises(ValueError, match=message):
        rk4_linear(matrix, forcing, (1.0, 0.0, 0.0), 0.0, 1e13, 1.0)
    with pytest.raises(ValueError, match=message):
        integrate_rk4(rhs, (1.0, 0.0, 0.0), 0.0, 1.0, 1e-320)
    assert oracle._time_grid(0.0, float(oracle.MAX_STEPS), 1.0) == (oracle.MAX_STEPS, 1.0)


@pytest.mark.parametrize("steps", [oracle.LINEAR_BLOCK, oracle.LINEAR_BLOCK + 1])
def test_rk4_linear_yields_one_block_per_linear_block_steps(steps):
    blocks = integrate_rk4_linear(
        np.zeros((3, 3)), lambda t: np.ones((3, t.size)), (1.0, 0.0, 0.0), 0.0, 1.0, 1 / steps
    )
    assert sum(1 for _ in blocks) == math.ceil(steps / oracle.LINEAR_BLOCK)


def test_rk4_linear_zero_span_yields_its_start_point_alone():
    matrix, forcing, rhs = _linear_system(1.0)
    blocks = list(integrate_rk4_linear(matrix, forcing, (1.0, 2.0, 3.0), 0.5, 0.5, 0.1))
    assert len(blocks) == 1
    assert all(np.array_equal(a, b) for a, b in zip(blocks[0], integrate_rk4(rhs, (1.0, 2.0, 3.0), 0.5, 0.5, 0.1)))
    assert blocks[0][1].tolist() == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize(
    "t0, t_end, step, y0",
    [
        (0.0, 1.0, 0.0, (1.0, 0.0, 0.0)),
        (1.0, 0.0, 0.1, (1.0, 0.0, 0.0)),
        (0.0, math.nan, 0.1, (1.0, 0.0, 0.0)),
        (0.0, math.inf, 0.1, (1.0, 0.0, 0.0)),
        (0.0, 1.0, 0.1, (1.0, 0.0)),
    ],
)
def test_rk4_rejects_bad_plan(t0, t_end, step, y0):
    matrix, forcing, rhs = _linear_system(1.0)
    with pytest.raises(ValueError) as linear:
        rk4_linear(matrix, forcing, y0, t0, t_end, step)
    if len(y0) == 3:
        with pytest.raises(ValueError) as propagated:
            exact(matrix, y0, t0, t_end, step)
        assert str(propagated.value) == str(linear.value)
    if len(y0) == 3:
        with pytest.raises(ValueError) as generic:
            integrate_rk4(rhs, y0, t0, t_end, step)
        assert str(generic.value) == str(linear.value)  # one plan check serves both


@pytest.mark.parametrize("theta", [1e-3, 0.3, 1.0, 10.0, 100.0])
def test_expm_of_a_rotation_generator_is_the_rotation(theta):
    # a 1-norm of 2 theta is halved 0 to 9 times before the series and squared back as often
    got = expm(np.array([[0.0, -theta], [theta, 0.0]]))
    c, s = math.cos(theta), math.sin(theta)
    assert np.max(np.abs(got - np.array([[c, -s], [s, c]]))) <= 1e-15 * max(1.0, theta)


def test_expm_of_a_nilpotent_matrix_is_its_finite_series():
    t = 3.0
    got = expm(np.array([[0.0, t, 0.0], [0.0, 0.0, t], [0.0, 0.0, 0.0]]))
    want = np.array([[1.0, t, t * t / 2.0], [0.0, 1.0, t], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


def test_expm_of_a_diagonal_matrix_is_the_exponential_of_each_entry():
    d = np.array([-20.0, -1.0, 0.0, 0.5, 30.0])
    got = expm(np.diag(d))
    assert np.array_equal(got, np.diag(np.diag(got)))
    assert np.all(np.abs(np.diag(got) / np.exp(d) - 1.0) <= 1e-14)


def test_expm_of_zero_is_the_identity_and_of_a_non_finite_matrix_is_not_finite():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, -math.inf, math.nan):
            assert not np.isfinite(expm(np.array([[bad, 0.0], [0.0, 1.0]]))).all()


def exact(matrix, y0, t0, t_end, step):
    """integrate_exact's blocks joined into one grid, as rk4_linear joins integrate_rk4_linear's."""
    columns = zip(*integrate_exact(matrix, y0, t0, t_end, step))
    return tuple(np.concatenate([blocks[0][:1], *(b[1:] for b in blocks)]) for blocks in columns)


@settings(max_examples=100, deadline=None)
@given(
    _matrices(),
    st.tuples(*[st.one_of(st.floats(0.5, 1.0), st.floats(-1.0, -0.5))] * 3),
    # the doubling's edges (a power of two and its neighbours) in one block, and the block edges B, B + 1
    # and 2B + 1 of a patched block
    st.sampled_from(
        [(n, oracle.LINEAR_BLOCK) for n in (63, 64, 65)] + [(n, _BLOCK) for n in (_BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)]
    ),
)
def test_exact_propagation_matches_generic_rk4(matrix, y0, plan):
    # the gap is RK4's global truncation, of order h^4: measured at most 0.85 h^4 of the peak over 3000 draws
    steps, block = plan

    def rhs(t, y):
        return matrix @ y

    ts_ref, ref = integrate_rk4(rhs, y0, 0.0, 1.0, 1.0 / steps)
    with mock.patch.object(oracle, "LINEAR_BLOCK", block):
        ts, states = exact(matrix, y0, 0.0, 1.0, 1.0 / steps)
    assert np.array_equal(ts, ts_ref)
    peak = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(states - ref), axis=0) <= 2.0 * steps**-4.0 * peak)


def test_exact_propagation_of_an_oscillator_keeps_its_phase():
    # 100 periods at period / 2048: RK4 drifts by 4.6e-10 here, the exact step by the rounding of its
    # matrix alone, 9.0e-12
    ts, states = exact(np.array([[0.0, 1.0], [-1.0, 0.0]]), (1.0, 0.0), 0.0, 200.0 * math.pi, math.pi / 1024.0)
    assert ts.size == 204_801
    assert np.max(np.abs(states - np.column_stack([np.cos(ts), -np.sin(ts)]))) <= 2e-11


@pytest.mark.parametrize("steps", [oracle.LINEAR_BLOCK, oracle.LINEAR_BLOCK + 1, 3 * oracle.LINEAR_BLOCK])
def test_exact_blocks_start_where_the_one_before_ends(steps):
    blocks = list(integrate_exact(np.array([[0.0, 1.0], [-1.0, 0.0]]), (1.0, 0.0), 0.0, 1.0, 1.0 / steps))
    assert len(blocks) == math.ceil(steps / oracle.LINEAR_BLOCK)
    for (ts, states), (ts_next, states_next) in zip(blocks, blocks[1:]):
        assert ts_next[:1].tobytes() == ts[-1:].tobytes()
        assert states_next[0].tobytes() == states[-1].tobytes()


def test_exact_zero_span_yields_its_start_point_alone():
    blocks = list(integrate_exact(np.ones((3, 3)), (1.0, 2.0, 3.0), 0.5, 0.5, 0.1))
    assert len(blocks) == 1
    assert blocks[0][0].tolist() == [0.5]
    assert blocks[0][1].tolist() == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize(
    "matrix, y0", [(np.eye(2), (1.0, 0.0, 0.0)), (np.ones((3, 2)), (1.0, 0.0, 0.0)), (np.eye(3), (1.0,))]
)
def test_exact_needs_a_square_matrix_of_the_states_size(matrix, y0):
    with pytest.raises(ValueError, match="^integrate_exact needs a square matrix of the state's size$"):
        list(integrate_exact(matrix, y0, 0.0, 1.0, 0.1))


@pytest.mark.parametrize(
    "y0, t_star",
    # exp(0.5 * 20) per step: E^128 overflows, so blocks are cut from 200 steps to 127, and a unit state
    # leaves the float range at step 71, a tiny one at step 141, in the second block; a zero state never
    [((1.0, 0.0), 35.5), ((1e-300, 0.0), 70.5), ((0.0, 0.0), None)],
)
def test_exact_blow_up_is_reported_at_the_first_step_past_the_float_range(y0, t_star):
    matrix = np.array([[20.0, 0.0], [1.0, -1.0]])
    with warnings.catch_warnings(), mock.patch.object(oracle, "LINEAR_BLOCK", 200):
        warnings.simplefilter("error")
        if t_star is None:
            ts, states = exact(matrix, y0, 0.0, 200.0, 0.5)
            assert ts.size == 401 and not np.any(states)
            return
        with pytest.raises(IntegrationError) as blowup:
            exact(matrix, y0, 0.0, 200.0, 0.5)
    assert blowup.value.t == t_star


def test_exact_step_past_the_float_range_is_reported_at_the_first_step():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as blowup:
            exact(np.array([[2000.0]]), (1.0,), 0.0, 10.0, 0.5)
    assert blowup.value.t == 0.5


def test_laguerre_recurrence_against_explicit_polynomial():
    y = np.linspace(0.0, 12.0, 7)
    explicit = 10.0 - 5.0 * y + 0.5 * y**2  # n=2, alpha=3
    assert np.allclose(laguerre(2, 3, y), explicit, rtol=1e-14)
    assert np.allclose(laguerre_derivative(2, 3, y, 1), -5.0 + y, rtol=1e-14)
    assert np.allclose(laguerre_derivative(2, 3, y, 2), 1.0, rtol=1e-14)
    assert np.all(laguerre_derivative(2, 3, y, 3) == 0.0)


def test_laguerre_derivative_of_order_zero_is_the_polynomial():
    y = np.linspace(0.0, 30.0, 41)
    for n in range(5):
        assert laguerre_derivative(n, 3, y, 0).tolist() == laguerre(n, 3, y).tolist()
    with pytest.raises(ValueError, match=r"^derivative order must be non-negative$"):
        laguerre_derivative(2, 3, y, -1)


def test_x_moment_vanishes_without_a_radial_node():
    assert [x_moment_exact(0, l) for l in range(5)] == [0] * 5


def test_the_integrand_sees_panels_times_order_nodes():
    seen = []

    def integrand(y):
        seen.append(y.size)
        return np.exp(-y)

    value = oracle.gauss_legendre_integral(oracle.QuadratureSpec(integrand, panels=40))
    assert seen == [40 * oracle.QuadratureSpec.order]
    assert value == pytest.approx(-math.expm1(-80.0), rel=1e-14)


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("l", range(0, 9))
def test_diagonal_moment_identity(n, l):
    assert lg_quadrature(n, l, l, 0) == pytest.approx(y_moment_exact(n, l), rel=1e-11)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("l", range(1, 9))
def test_first_derivative_moment_identities(n, l):
    exact = x_moment_exact(n, l)
    scale = max(1.0, abs(exact))
    # the moment at the natural power vanishes, the one power up is closed form
    assert abs(lg_quadrature(n, l, l, 1)) < 1e-10 * scale
    assert lg_quadrature(n, l, l + 1, 1) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("l", range(1, 9))
def test_second_derivative_moment_vanishes(n, l):
    scale = max(1.0, y_moment_exact(n, l + 1))
    assert abs(lg_quadrature(n, l, l + 1, 2)) < 1e-10 * scale


def test_quadrature_guards():
    for n, l in [(12, 0), (0, 12), (0, -12), (12, 12)]:  # the largest indices it takes
        assert lg_quadrature(n, l, abs(l), 0) == pytest.approx(y_moment_exact(n, abs(l)), rel=1e-11)
    for n, l in [(13, 0), (0, 13), (0, -13)]:
        with pytest.raises(ValueError):
            lg_quadrature(n, l, abs(l), 0)
    with pytest.raises(ValueError):
        lg_quadrature(2, 3, -1, 1)


@pytest.mark.parametrize("n,l", [(0, 0), (0, -4), (1, 2), (3, 5), (5, 1), (2, -3)])
def test_mode_velocity_coefficient(n, l):
    expected = 2 * n + abs(l) + 1
    assert mode_velocity_coefficient_quadrature(n, l) == pytest.approx(expected, rel=1e-10)
    assert mode_velocity_coefficient_moments(n, l) == pytest.approx(expected, rel=1e-10)


def test_moment_extraction_from_generating_function():
    # every lg_quadrature value is a coefficient of the closed-form product
    for n, l, m, k in [(2, 3, 3, 0), (2, 3, 4, 0), (2, 3, 2, 1), (2, 3, 3, 1), (1, 1, 0, 1), (3, 2, 3, 2)]:
        if n - k < 0:
            continue
        coeff = generating_product_coefficient(m, l, l + k, n, n - k)
        expected = (-1) ** k * float(coeff)
        scale = max(1.0, abs(expected))
        assert abs(lg_quadrature(n, l, m, k) - expected) < 1e-10 * scale


def test_cutoff_keeps_tail_negligible():
    # the tail beyond the cutoff is bounded by the integrand value there
    n, l = 8, 8
    y_max = oracle._cutoff(n, l)
    y = np.array([y_max])
    tail_scale = float((y ** (l + 1) * laguerre(n, l, y) ** 2 * np.exp(-y))[0])
    assert tail_scale < 1e-12 * y_moment_exact(n, l + 1)
