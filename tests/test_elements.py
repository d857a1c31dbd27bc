import math
import warnings

import pytest

from vortexlens import units
from vortexlens.elements import (
    Drift,
    InhomogeneityWarning,
    LensConfig,
    landau_energy,
    landau_rho_sq_st,
)
from vortexlens.moments import MomentState, emittance
from vortexlens.units import Particle

ELECTRON = Particle.electron()

# frozen: (rho_H^2 / 2) * 5 at 85 G
LANDAU_RHO_SQ_85G = 7.743670077030677e-13


def _lens(**kw):
    base = dict(h0_gauss=85.0, duration_s=5e-9, length_m=0.1)
    base.update(kw)
    return LensConfig(**base)


def test_drift_validation():
    with pytest.raises(ValueError):
        Drift(0.0)
    assert Drift(1e-9).duration_s == 1e-9


def test_lens_validation_and_kappa_limits():
    with pytest.raises(ValueError):
        _lens(h0_gauss=-5.0)
    with pytest.raises(ValueError):
        _lens(e0_v_per_m=-1.0)
    with pytest.raises(ValueError, match=r"^\|kappa\| must not exceed 0.2, got 0.25$"):
        _lens(kappa=0.25)
    with pytest.warns(InhomogeneityWarning):
        _lens(kappa=0.15)
    assert _lens(kappa=0.05).kappa == 0.05


@pytest.mark.parametrize(
    "name, value, must",
    [
        ("h0_gauss", math.nan, "positive"),
        ("h0_gauss", math.inf, "positive"),
        ("h0_gauss", 0.0, "positive"),
        ("h0_gauss", -85.0, "positive"),
        ("duration_s", math.nan, "positive"),
        ("duration_s", math.inf, "positive"),
        ("duration_s", 0.0, "positive"),
        ("duration_s", -5e-9, "positive"),
        ("length_m", math.nan, "positive"),
        ("length_m", math.inf, "positive"),
        ("length_m", 0.0, "positive"),
        ("length_m", -0.1, "positive"),
        ("e0_v_per_m", math.nan, "non-negative"),
        ("e0_v_per_m", math.inf, "non-negative"),
        ("e0_v_per_m", -1.0, "non-negative"),
    ],
)
def test_a_lens_input_out_of_range_is_named(name, value, must):
    with pytest.raises(ValueError, match=rf"^{name} must be {must}, got {value}$"):
        _lens(**{name: value})


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0, -1e-9])
def test_a_drift_duration_must_be_positive(duration_s):
    with pytest.raises(ValueError, match=rf"^duration_s must be positive, got {duration_s}$"):
        Drift(duration_s)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 0.25, -0.25, 0.2000001])
def test_kappa_past_the_hard_limit_is_refused(kappa):
    with pytest.raises(ValueError, match=rf"^\|kappa\| must not exceed 0.2, got {kappa}$"):
        _lens(kappa=kappa)


@pytest.mark.parametrize("kappa, warns", [
    (-0.2, True), (-0.15, True), (-0.1, False), (0.0, False), (0.1, False), (0.15, True), (0.2, True),
])
def test_kappa_past_the_soft_limit_warns(kappa, warns):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _lens(kappa=kappa).kappa == kappa
    assert [str(w.message) for w in caught] == [
        f"kappa = {kappa} is beyond the comfortable first-order regime (> 0.1)"
    ] * warns
    # the warning points at the code that built the lens, not at the dataclass
    assert all(w.category is InhomogeneityWarning and w.filename == __file__ for w in caught)


RADICAND = r"^emittance radicand must be finite, got "


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: emittance(MomentState(1e200, 1e200, 1e200, 0, 0, 0, -4)), RADICAND + "nan$"),
        (lambda: emittance(MomentState(1e200, 0.0, 1e200, 0, 0, 0, -4)), RADICAND + "inf$"),
    ],
)
def test_a_result_past_the_float_range_raises_naming_it(call, message):
    # the radicand's products leave the float range: the result is named, not returned as 0.0 or inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_landau_rho_sq_st():
    lens = _lens()
    assert landau_rho_sq_st(lens, 0, -4, ELECTRON) == pytest.approx(LANDAU_RHO_SQ_85G, rel=1e-12)
    assert math.sqrt(landau_rho_sq_st(lens, 0, -4, ELECTRON)) == pytest.approx(0.880e-6, rel=1e-3)
    rho_h = units.magnetic_radius(85.0, ELECTRON)
    assert landau_rho_sq_st(lens, 0, 0, ELECTRON) == pytest.approx(rho_h**2 / 2, rel=1e-14)
    assert landau_rho_sq_st(lens, 2, 5, ELECTRON) == landau_rho_sq_st(lens, 2, -5, ELECTRON)


def test_landau_energy():
    lens = _lens()
    omega0_ev = units.cyclotron_frequency_natural(85.0, ELECTRON)
    assert landau_energy(lens, 0, -4, ELECTRON) == pytest.approx(omega0_ev / 2, rel=1e-14)
    assert landau_energy(lens, 0, 4, ELECTRON) == pytest.approx(9 * omega0_ev / 2, rel=1e-14)
    assert landau_energy(lens, 2, 0, ELECTRON) == pytest.approx(5 * omega0_ev / 2, rel=1e-14)
    # negative-l levels do not depend on |l|
    values = {landau_energy(lens, 1, l, ELECTRON) for l in range(-8, 0)}
    assert len(values) == 1
    # a positive charge with l sits on the electron's level with -l
    positron = Particle.positron()
    for l in range(-5, 6):
        assert landau_energy(lens, 1, l, positron) == landau_energy(lens, 1, -l, ELECTRON)


@pytest.mark.parametrize("level", [landau_rho_sq_st, landau_energy])
def test_landau_level_needs_a_non_negative_n_prime(level):
    with pytest.raises(ValueError, match=r"^n_prime must be a non-negative integer, got -1$"):
        level(_lens(), -1, -4, ELECTRON)


@pytest.mark.parametrize("level", [landau_rho_sq_st, landau_energy])
@pytest.mark.parametrize("n_prime", [1.5, math.nan, 1.0])
def test_landau_level_needs_an_integer_n_prime(level, n_prime):
    with pytest.raises(ValueError, match=rf"^n_prime must be a non-negative integer, got {n_prime}$"):
        level(_lens(), n_prime, -4, ELECTRON)


def test_landau_rho_sq_cyclotron_identity():
    # rho_st^2 omega_0 = (2 / m)(2 n' + |l| + 1) in natural units
    lens = _lens()
    omega0_ev = units.cyclotron_frequency_natural(85.0, ELECTRON)
    for n_prime in range(0, 11):
        for l in range(-10, 11):
            lhs = units.area_to_natural(landau_rho_sq_st(lens, n_prime, l, ELECTRON)) * omega0_ev
            rhs = (2.0 / ELECTRON.mass_ev) * (2 * n_prime + abs(l) + 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)
