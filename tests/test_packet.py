import math

import pytest

from vortexlens import units
from vortexlens.moments import rho_sq_free
from vortexlens.oracle import mode_velocity_coefficient_quadrature
from vortexlens.packet import LGPacket, transverse_velocity_sq
from vortexlens.units import Particle

ELECTRON = Particle.electron()

# frozen oracle value: sigma_r^2 (1 + 5 t^2 / t_d^2) at t = 1 ns for the
# (n=0, l=-4, 0.622 um) packet
RHO_SQ_0622_1NS_M2 = 5.600902524752868e-13


def test_packet_validation():
    with pytest.raises(ValueError):
        LGPacket(-1, 0, 1e-6)
    with pytest.raises(ValueError):
        LGPacket(0, 0, -1e-6)
    assert LGPacket(1, 2, 1e-6).mode_order == 5
    # the mode order 2n+|l|+1 stays exact in a float
    assert LGPacket(0, 2**53 - 1, 1e-6).mode_order == 2**53
    with pytest.raises(ValueError, match=r"mode order"):
        LGPacket(0, 2**53, 1e-6)
    with pytest.raises(ValueError, match=r"mode order"):
        LGPacket(2**52, 0, 1e-6)


def test_packet_l_must_be_an_integer():
    with pytest.raises(ValueError, match=r"^l must be an integer, got 1\.5$"):
        LGPacket(0, 1.5, 1e-6)


def test_transverse_velocity_sq_values():
    ground = LGPacket(0, 0, 0.574e-6)
    sigma_nat = units.length_to_natural(ground.sigma_r_m)
    base = 1.0 / (ELECTRON.mass_ev * sigma_nat) ** 2
    assert transverse_velocity_sq(ground, ELECTRON) == pytest.approx(base, rel=1e-14)
    assert transverse_velocity_sq(LGPacket(0, -4, 0.574e-6), ELECTRON) == pytest.approx(
        5.0 * base, rel=1e-14
    )
    assert transverse_velocity_sq(LGPacket(1, 2, 0.574e-6), ELECTRON) == pytest.approx(
        5.0 * base, rel=1e-14
    )


def test_transverse_velocity_sq_is_even_in_l():
    for l in (1, 3, 7):
        plus = transverse_velocity_sq(LGPacket(2, l, 0.4e-6), ELECTRON)
        minus = transverse_velocity_sq(LGPacket(2, -l, 0.4e-6), ELECTRON)
        assert plus == minus


@pytest.mark.parametrize("n,l", [(0, 0), (0, -4), (1, 2), (2, 3), (3, -1)])
def test_transverse_velocity_sq_against_quadrature(n, l):
    pk = LGPacket(n, l, 0.5e-6)
    sigma_nat = units.length_to_natural(pk.sigma_r_m)
    coefficient = transverse_velocity_sq(pk, ELECTRON) * (ELECTRON.mass_ev * sigma_nat) ** 2
    assert coefficient == pytest.approx(mode_velocity_coefficient_quadrature(n, l), rel=1e-10)


def test_rho_sq_free_golden():
    pk = LGPacket(0, -4, 0.622e-6, focus_time_s=0.0)
    # exact up to the unit round trip (a couple of ulp)
    assert rho_sq_free(pk, 0.0, ELECTRON) == pytest.approx(pk.sigma_r_m**2, rel=5e-16)
    assert rho_sq_free(pk, 1e-9, ELECTRON) == pytest.approx(RHO_SQ_0622_1NS_M2, rel=1e-12)


@pytest.mark.parametrize("t_s", [math.nan, math.inf, -math.inf])
def test_rho_sq_free_names_a_time_that_is_not_finite(t_s):
    with pytest.raises(ValueError, match=f"^t_s must be finite, got {t_s}$"):
        rho_sq_free(LGPacket(0, -4, 0.622e-6), t_s, ELECTRON)


def test_rho_sq_free_quadratic_growth():
    pk = LGPacket(0, -4, 0.622e-6)
    g1 = rho_sq_free(pk, 1e-9, ELECTRON) - pk.sigma_r_m**2
    g2 = rho_sq_free(pk, 2e-9, ELECTRON) - pk.sigma_r_m**2
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)


def test_ground_mode_spreads_on_the_diffraction_time():
    pk = LGPacket(0, 0, 0.45e-6)
    td = units.diffraction_time(pk.sigma_r_m, ELECTRON)
    for t in (0.0, 0.7e-9, 3.1e-9):
        expected = pk.sigma_r_m**2 * (1.0 + (t / td) ** 2)
        assert rho_sq_free(pk, t, ELECTRON) == pytest.approx(expected, rel=1e-13)
