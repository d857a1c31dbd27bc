"""Independent numerical verification paths.

Two families live here: a fixed-step classical Runge-Kutta integrator for
the moment ODE systems, and Gauss-Legendre quadrature of the generalized
Laguerre integrals behind the free-packet transverse velocity.  Both exist
to check closed forms elsewhere in the package, so they deliberately share
no code with them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

MAX_LAGUERRE_INDEX = 12
# steps per integration: the grid and the states are allocated whole
MAX_STEPS = 1_000_000


class IntegrationError(RuntimeError):
    """Raised when the integrator meets a non-finite state."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t = {t}")
        self.t = t


def _time_grid(t0: float, t_end: float, step: float) -> tuple[np.ndarray, float]:
    """Uniform grid from t0 to t_end with the largest step not exceeding step.

    Checks the plan of both integrators; over MAX_STEPS steps raises before
    the grid is allocated.
    """
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError("t0 and t_end must be finite")
    if not step > 0:
        raise ValueError("step must be positive")
    if t_end < t0:
        raise ValueError("t_end must not precede t0")
    span = t_end - t0
    if span == 0.0:
        return np.array([t0]), 0.0
    count = span / step
    if not count <= MAX_STEPS:
        raise ValueError(f"{count:.3g} steps, over MAX_STEPS = {MAX_STEPS}")
    n = max(1, math.ceil(count - 1e-12))
    h = span / n
    return t0 + h * np.arange(n + 1), h


def integrate_rk4(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: tuple[float, ...],
    t0: float,
    t_end: float,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fourth-order fixed-step integration of y' = rhs(t, y), sampled at every step.

    The span is subdivided uniformly with the largest step not exceeding
    step, so the final sample lands exactly on t_end.  Returns arrays
    (times, states) of shapes (n+1,) and (n+1, dim).
    """
    ts, h = _time_grid(t0, t_end, step)
    y = np.asarray(y0, dtype=float)
    out = np.empty((ts.size, y.size))
    out[0] = y
    for i in range(1, ts.size):
        # stages at the times integrate_rk4_linear uses; t + h can miss ts[i] by an ulp
        mid = t0 + (0.5 * h) * (2 * i - 1)
        k1 = rhs(ts[i - 1], y)
        k2 = rhs(mid, y + (0.5 * h) * k1)
        k3 = rhs(mid, y + (0.5 * h) * k2)
        k4 = rhs(ts[i], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(float(ts[i]))
        out[i] = y
    return ts, out


# steps per block of integrate_rk4_linear, at most: one forcing evaluation
# and one scan each
LINEAR_BLOCK = 8192


def integrate_rk4_linear(
    matrix: np.ndarray,
    forcing: Callable[[np.ndarray], np.ndarray],
    y0: tuple[float, float, float],
    t0: float,
    t_end: float,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for the three-component linear system y' = A y + b(t).

    For a linear system one RK4 step is exactly the map
    y+ = P y + c with c = h (Q0 b(t) + Qm b(t + h/2) + Q1 b(t + h)), M = h A,
    P = I + M + M^2/2 + M^3/6 + M^4/24, Q0 = (I + M + M^2/2 + M^3/4)/6,
    Qm = (4I + 2M + M^2/2)/6 and Q1 = I/6.  forcing maps an array of times
    to b as an array of shape (3, len(times)); it is evaluated once per block
    of up to LINEAR_BLOCK steps.  Each block is a prefix scan of the map
    (Blelloch, "Prefix sums and their applications", 1990) with no loop over
    steps: column 0 holds the block's start state and columns 1..n the kicks
    c, and y[:, s:] += P^s y[:, :-s] for s = 1, 2, 4, ..., the powers by
    repeated squaring, leaves every column at its state.  The scan only
    moves values forward, so the first non-finite column is the step that
    blows up.  Where P^(2^K) leaves the float range (an inf power times a
    zero state would read NaN), a block is scanned in windows of 2^K - 1
    steps, each started from the last state of the one before.  The grid,
    the input validation and the IntegrationError on a non-finite state
    match integrate_rk4, which stays the reference for this map.
    """
    ts, h = _time_grid(t0, t_end, step)
    a = np.asarray(matrix, dtype=float)
    if a.shape != (3, 3) or len(y0) != 3:
        raise ValueError("integrate_rk4_linear needs a 3x3 matrix and a 3-component state")
    out = np.empty((3, ts.size))
    out[:, 0] = y0
    eye = np.eye(3)
    m = h * a
    m2 = m @ m
    m3 = m2 @ m
    p = eye + m + m2 / 2.0 + m3 / 6.0 + (m3 @ m) / 24.0
    q0 = (h / 6.0) * (eye + m + m2 / 2.0 + m3 / 4.0)
    qm = (h / 6.0) * (4.0 * eye + 2.0 * m + m2 / 2.0)
    q1 = (h / 6.0) * eye
    squares = [p]  # P^(2^k), kept up to the first that leaves the float range
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1, min(LINEAR_BLOCK, ts.size - 1).bit_length()):
            squares.append(squares[-1] @ squares[-1])
    finite = np.logical_and.accumulate(np.isfinite(squares).all(axis=(1, 2))[1:])
    squares = squares[: 1 + np.count_nonzero(finite)]
    width = (1 << len(squares)) - 1  # steps one scan covers with these powers
    for start in range(0, ts.size - 1, LINEAR_BLOCK):
        stop = min(start + LINEAR_BLOCK, ts.size - 1)
        # grid points at even indices (equal to ts: (h/2)(2i) == h i), midpoints at odd
        b = np.asarray(forcing(t0 + (0.5 * h) * np.arange(2 * start, 2 * stop + 1)), dtype=float)
        y = out[:, start : stop + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # a state that overflows raises below
            y[:, 1:] = q0 @ b[:, :-2:2] + qm @ b[:, 1::2] + q1 @ b[:, 2::2]
            for lo in range(0, stop - start, width):
                w = y[:, lo : lo + width + 1]
                for k in range((w.shape[1] - 1).bit_length()):
                    w[:, 1 << k :] += squares[k] @ w[:, : -(1 << k)]
        ok = np.isfinite(y).all(axis=0)
        if not ok.all():
            raise IntegrationError(float(ts[start + int(np.argmin(ok))]))
    return ts, out.T


def laguerre(n: int, alpha: int, y):
    """Generalized Laguerre polynomial L_n^alpha(y), stable three-term recurrence."""
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    if n == 0:
        return prev
    cur = 1.0 + alpha - y
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - y) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def laguerre_derivative(n: int, alpha: int, y, order: int = 1):
    """d^k/dy^k L_n^alpha(y) via the ladder identity (-1)^k L_{n-k}^{alpha+k}."""
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if order == 0:
        return laguerre(n, alpha, y)
    if order > n:
        return np.zeros_like(np.asarray(y, dtype=float))
    return (-1) ** order * laguerre(n - order, alpha + order, y)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre plan on [0, y_max] for exp(-y)-damped integrands."""

    integrand: Callable[[np.ndarray], np.ndarray]
    y_max: float
    panels: int
    order: int = 24

    def __post_init__(self) -> None:
        if not (self.y_max > 0 and self.panels > 0 and self.order > 1):
            raise ValueError("y_max, panels and order must be positive")


@functools.cache
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre_integral(spec: QuadratureSpec) -> float:
    x, w = _gl_nodes(spec.order)
    edges = np.linspace(0.0, spec.y_max, spec.panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = spec.integrand(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(vals * w[None, :] * half[:, None]))


def _cutoff(n: int, l_abs: int) -> float:
    # exp(-y) tail of degree <= 2n + l + 1 polynomials is certifiably
    # negligible beyond this point (documented in the module tests)
    return max(80.0, 20.0 + 10.0 * (n + l_abs))


def _laguerre_integral(n: int, l: int, integrand: Callable[[np.ndarray], np.ndarray]) -> float:
    """integrand, an exp(-y)-damped product of L_n^{|l|}, integrated over [0, _cutoff(n, |l|)]
    in panels of width 2 or less; n and |l| are guarded against factorial overflow."""
    if n < 0 or n > MAX_LAGUERRE_INDEX or abs(l) > MAX_LAGUERRE_INDEX:
        raise ValueError(f"indices out of guarded range: n={n}, l={l}")
    y_max = _cutoff(n, abs(l))
    return gauss_legendre_integral(QuadratureSpec(integrand, y_max, panels=int(math.ceil(y_max / 2.0))))


def lg_quadrature(n: int, l: int, m_power: int, k_deriv: int = 0) -> float:
    """Laguerre moment integral by numerical quadrature.

    Evaluates X_{m,k} = integral_0^inf y^m L_n^{|l|}(y) d^k L_n^{|l|}/dy^k
    exp(-y) dy; k_deriv = 0 gives the diagonal moments Y_m.  Indices are
    guarded against factorial overflow (n, |l| <= 12); m_power must keep the
    weight integrable (m_power >= 0).
    """
    a = abs(l)
    if m_power < 0:
        raise ValueError(f"m_power must be non-negative, got {m_power}")

    def integrand(y: np.ndarray) -> np.ndarray:
        values = laguerre(n, a, y)
        derivative = values if k_deriv == 0 else laguerre_derivative(n, a, y, k_deriv)
        return y**m_power * values * derivative * np.exp(-y)

    return _laguerre_integral(n, l, integrand)


def y_moment_exact(n: int, l_abs: int) -> int:
    """Diagonal moment Y_l = l! C(n+l, n) at the natural power m = l."""
    return math.factorial(l_abs) * math.comb(n + l_abs, n)


def x_moment_exact(n: int, l_abs: int) -> int:
    """First-derivative moment at power l+1: (l+n)!/(n-1)!, zero for n = 0."""
    if n == 0:
        return 0
    return math.factorial(l_abs + n) // math.factorial(n - 1)


def mode_velocity_coefficient_quadrature(n: int, l: int) -> float:
    """m^2 sigma_r^2 <u_perp^2> of the (n, l) mode by direct quadrature.

    Integrates the squared transverse gradient of the focal-plane mode
    profile (radial plus centrifugal pieces) with no algebraic reduction.
    """
    a = abs(l)

    def integrand(y: np.ndarray) -> np.ndarray:
        lag = laguerre(n, a, y)
        dlag = laguerre_derivative(n, a, y, 1)
        grad = 0.5 * (a - y) * lag + y * dlag
        radial = 4.0 * grad * grad
        if a > 0:
            return y ** (a - 1) * (radial + a * a * lag * lag) * np.exp(-y)
        # a = 0: the centrifugal term vanishes and grad carries a factor y
        return (radial / y) * np.exp(-y)

    return _laguerre_integral(n, l, integrand) / lg_quadrature(n, a, a, 0)


def mode_velocity_coefficient_moments(n: int, l: int) -> float:
    """Same coefficient assembled from diagonal moments only.

    Integration by parts reduces the gradient integral to
    (Y_{l+1} - 2 l Y_l + 2 l^2 Y_{l-1}) / Y_l, each Y evaluated numerically.
    """
    a = abs(l)
    y_l = lg_quadrature(n, a, a, 0)
    total = lg_quadrature(n, a, a + 1, 0) - 2.0 * a * y_l
    if a >= 1:
        total += 2.0 * a * a * lg_quadrature(n, a, a - 1, 0)
    return total / y_l


def _series_binomial(p: int, k: int) -> Fraction:
    """Coefficient of s^k in (1 - s)^p for integer p of either sign."""
    num = Fraction(1)
    for idx in range(k):
        num *= p - idx
    return Fraction((-1) ** k) * num / math.factorial(k)


def generating_product_coefficient(
    gamma: int, alpha: int, beta: int, i: int, j: int
) -> Fraction:
    """Exact coefficient of s1^i s2^j in gamma! (1 - s1)^(gamma - alpha)
    (1 - s2)^(gamma - beta) / (1 - s1 s2)^(gamma + 1), the generating function
    of integral L_i^alpha(y) y^gamma L_j^beta(y) exp(-y) dy: the exact
    rational reference for lg_quadrature."""
    a = gamma - alpha
    b = gamma - beta
    c = gamma + 1
    total = Fraction(0)
    for k in range(0, min(i, j) + 1):
        total += (
            _series_binomial(a, i - k)
            * _series_binomial(b, j - k)
            * _series_binomial(-c, k)
        )
    return total * math.factorial(gamma)
