import math

import numpy as np
import pytest

from vortexlens import units
from vortexlens.units import Particle

ELECTRON = Particle.electron()

# frozen against the pinned CODATA-2018 table
CYCLOTRON_100G = 1758820010.7589607
CYCLOTRON_85G = 1494997009.1451166
RHO_H_100G_M = 5.131128361472192e-07
TD_0574_S = 2.8460112967896084e-09
TD_0622_S = 3.3419011841443714e-09


def test_particle_validation():
    with pytest.raises(ValueError):
        Particle(-1.0, -1)
    with pytest.raises(ValueError):
        Particle(510998.95, 2)
    assert Particle.positron().charge_sign == 1


def test_compton_scales():
    lc = units.HBARC_EV_M / ELECTRON.mass_ev
    assert lc == pytest.approx(3.8615926799e-13, rel=1e-9)
    assert units.HBAR_EV_S / ELECTRON.mass_ev == lc / units.LIGHT_SPEED_M_PER_S


def test_cyclotron_frequency_golden():
    assert units.cyclotron_frequency(0.0, ELECTRON) == 0.0
    assert units.cyclotron_frequency(100.0, ELECTRON) == pytest.approx(CYCLOTRON_100G, rel=1e-13)
    assert units.cyclotron_frequency(85.0, ELECTRON) == pytest.approx(CYCLOTRON_85G, rel=1e-13)


def test_cyclotron_frequency_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        units.cyclotron_frequency(-1.0, ELECTRON)
    with pytest.raises(ValueError):
        units.cyclotron_frequency(math.nan, ELECTRON)


def test_magnetic_radius_golden():
    assert units.magnetic_radius(100.0, ELECTRON) == pytest.approx(RHO_H_100G_M, rel=1e-13)
    # matched-waist scale rho_H / sqrt(8) at the two quoted fields
    assert units.magnetic_radius(10.0, ELECTRON) / math.sqrt(8) == pytest.approx(573.7e-9, rel=5e-3)
    assert units.magnetic_radius(1e4, ELECTRON) / math.sqrt(8) == pytest.approx(18.14e-9, rel=5e-3)
    with pytest.raises(ValueError):
        units.magnetic_radius(0.0, ELECTRON)


def test_diffraction_time_golden():
    assert units.diffraction_time(0.574e-6, ELECTRON) == pytest.approx(TD_0574_S, rel=1e-13)
    assert units.diffraction_time(0.622e-6, ELECTRON) == pytest.approx(TD_0622_S, rel=1e-13)
    # sigma_r equal to the Compton length gives the Compton time
    lc = units.HBARC_EV_M / ELECTRON.mass_ev
    assert units.diffraction_time(lc, ELECTRON) == pytest.approx(units.HBAR_EV_S / ELECTRON.mass_ev, rel=1e-12)
    with pytest.raises(ValueError):
        units.diffraction_time(-1e-9, ELECTRON)


def test_diffraction_time_quadratic_scaling():
    base = units.diffraction_time(0.3e-6, ELECTRON)
    assert units.diffraction_time(0.6e-6, ELECTRON) == pytest.approx(4.0 * base, rel=1e-14)


def test_rho_h_omega_identity():
    # rho_H^2 omega_0 = 4 hbar / m for any field
    m_kg = ELECTRON.mass_ev * units.ELEMENTARY_CHARGE_C / units.LIGHT_SPEED_M_PER_S**2
    for h in (0.5, 10.0, 85.0, 100.0, 1e4):
        lhs = units.magnetic_radius(h, ELECTRON) ** 2 * units.cyclotron_frequency(h, ELECTRON)
        assert lhs == pytest.approx(4.0 * units.REDUCED_PLANCK_JS / m_kg, rel=1e-12)


def test_round_trip_conversions_within_one_ulp():
    rng = np.random.default_rng(20240811)
    exponents = rng.uniform(-13, 2, size=400)
    for x in 10.0**exponents:
        for to_nat, from_nat in (
            (units.length_to_natural, units.length_from_natural),
            (units.time_to_natural, units.time_from_natural),
            (units.area_to_natural, units.area_from_natural),
        ):
            rt = from_nat(to_nat(x))
            assert abs(rt - x) <= math.ulp(x)


def test_field_from_cyclotron_round_trip():
    for h in (3.0, 85.0, 97.8, 100.0):
        w = units.cyclotron_frequency_natural(h, ELECTRON)
        assert units.field_from_cyclotron_natural(w, ELECTRON) == pytest.approx(h, rel=1e-13)
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match=f"^omega0 must be positive, got {bad}$"):
            units.field_from_cyclotron_natural(bad, ELECTRON)


def test_require_checks_a_scalar_or_each_entry_of_an_array():
    assert units.require("x", 2.0) == 2.0
    assert units.require("x", 0.0, "non-negative") == 0.0
    assert units.require("x", -3.0, "finite") == -3.0
    values = np.array([1.0, 2.0])
    assert units.require("x", values) is values
    for value, must in ((0.0, "positive"), (-1e-300, "non-negative"), (math.inf, "finite"), (math.nan, "finite")):
        with pytest.raises(ValueError, match=f"^x must be {must}, got {value}$"):
            units.require("x", value, must)
    # the first entry that fails is named, not the worst one
    with pytest.raises(ValueError, match=r"^sigma must be positive, got -0\.5$"):
        units.require("sigma", np.array([1.0, -0.5, math.nan, 0.0]))
