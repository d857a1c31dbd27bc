import math

import numpy as np
import pytest

from vortexlens import units
from vortexlens.elements import (
    Drift,
    InhomogeneityWarning,
    LensConfig,
    fields_at,
    landau_energy,
    landau_rho_sq_st,
    maxwell_residual,
    potentials_at,
)
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


def test_fields_homogeneous():
    lens = _lens(e0_v_per_m=25e6)
    sample = fields_at(lens, 0.03, -0.02)
    assert (sample.e_rho, sample.e_z) == (0.0, 25e6)
    assert (sample.h_rho, sample.h_z) == (0.0, 85.0)
    assert not sample.outside_linear_region


def test_fields_linear_laws():
    lens = _lens(kappa=0.081, e0_v_per_m=1e6)
    assert fields_at(lens, 0.0, lens.length_m).h_z == pytest.approx(1.081 * 85.0, rel=1e-12)
    lens2 = _lens(kappa=0.1, e0_v_per_m=2e6)
    sample = fields_at(lens2, lens2.length_m / 2, 0.0)
    assert sample.e_rho == pytest.approx(-0.025 * 2e6, rel=1e-12)


def test_fields_linear_region_flag():
    lens = _lens()
    assert fields_at(lens, 2.0 * lens.length_m, 0.0).outside_linear_region
    assert not fields_at(lens, 0.5 * lens.length_m, 0.0).outside_linear_region


def test_maxwell_residuals_homogeneous_exact_zero():
    lens = _lens(e0_v_per_m=25e6)
    res = maxwell_residual(lens, lens.length_m / 10, lens.length_m / 10)
    assert res == 0.0


def test_maxwell_residuals_with_gradients():
    rng = np.random.default_rng(7)
    for kappa in (0.01, 0.081):
        lens = _lens(kappa=kappa, e0_v_per_m=25e6)
        for _ in range(10):
            rho = rng.uniform(0.05, 0.9) * lens.length_m
            z = rng.uniform(-0.9, 0.9) * lens.length_m
            assert maxwell_residual(lens, rho, z) < 1e-12


def test_potentials_golden():
    assert potentials_at(_lens(e0_v_per_m=25e6), 0.0, 0.0) == (0.0, 0.0)
    lens = LensConfig(h0_gauss=85.0, duration_s=5e-9, length_m=2.0, e0_v_per_m=25e6)
    phi, _ = potentials_at(lens, 0.0, 1.0)
    assert phi == pytest.approx(-2.5e7, rel=1e-12)


def test_potentials_reproduce_fields():
    # E = -grad(phi) and H = curl(A) by central differences; the potentials
    # are quadratic so the stencil is exact up to rounding
    rng = np.random.default_rng(11)
    lens = _lens(kappa=0.081, e0_v_per_m=25e6)
    h = lens.length_m / 16
    for _ in range(10):
        rho = rng.uniform(0.1, 0.8) * lens.length_m
        z = rng.uniform(-0.8, 0.8) * lens.length_m
        sample = fields_at(lens, rho, z)

        def phi(r, zz):
            return potentials_at(lens, r, zz)[0]

        def a_phi(r, zz):
            return potentials_at(lens, r, zz)[1]

        e_rho = -(phi(rho + h, z) - phi(rho - h, z)) / (2 * h)
        e_z = -(phi(rho, z + h) - phi(rho, z - h)) / (2 * h)
        h_rho_t = -(a_phi(rho, z + h) - a_phi(rho, z - h)) / (2 * h)
        h_z_t = ((rho + h) * a_phi(rho + h, z) - (rho - h) * a_phi(rho - h, z)) / (2 * h * rho)

        e_scale = abs(lens.e0_v_per_m)
        h_scale = lens.h0_gauss / units.GAUSS_PER_TESLA
        assert abs(e_rho - sample.e_rho) < 1e-10 * e_scale
        assert abs(e_z - sample.e_z) < 1e-10 * e_scale
        assert abs(h_rho_t - sample.h_rho / units.GAUSS_PER_TESLA) < 1e-10 * h_scale
        assert abs(h_z_t - sample.h_z / units.GAUSS_PER_TESLA) < 1e-10 * h_scale


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


def test_landau_rho_sq_cyclotron_identity():
    # rho_st^2 omega_0 = (2 / m)(2 n' + |l| + 1) in natural units
    lens = _lens()
    omega0_ev = units.cyclotron_frequency_natural(85.0, ELECTRON)
    for n_prime in range(0, 11):
        for l in range(-10, 11):
            lhs = units.area_to_natural(landau_rho_sq_st(lens, n_prime, l, ELECTRON)) * omega0_ev
            rhs = (2.0 / ELECTRON.mass_ev) * (2 * n_prime + abs(l) + 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)
