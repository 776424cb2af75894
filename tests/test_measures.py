import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargedgauss as cg
from chargedgauss.equilibrium import _disk_potential
from chargedgauss.measures import (PerturbedPotential, PointChargeMeasure,
                                   charge_potential_grid)

finite = st.floats(-3.0, 3.0, allow_nan=False)


def test_point_charge_validation():
    with pytest.raises(ValueError):
        PointChargeMeasure(((0.3, -0.5),))
    with pytest.raises(ValueError):
        PointChargeMeasure(((0.3, 0.5), (0.3, 0.2)))


def test_point_charge_potential_at_charge():
    nu = PointChargeMeasure(((0.3, 0.5),))
    assert float(charge_potential_grid(nu.charges, 0.3 + 0j)) == math.inf
    grid = charge_potential_grid(nu.charges, np.array([0.3 + 0j, 1.0 + 0j]))
    assert np.isposinf(grid[0])
    assert np.isclose(grid[1], 0.5 * math.log(1 / 0.7))


def test_point_charge_total_mass():
    nu = PointChargeMeasure(((0.3, 0.5), (1j, 0.25)))
    assert nu.total_mass == 0.75
    assert np.allclose(nu.locations, [0.3, 1j])


@given(x=finite, y=finite, cr=st.floats(0.2, 2.0), R=st.floats(0.3, 2.0))
@settings(max_examples=50, deadline=None)
def test_disk_potential_continuous_across_boundary(x, y, cr, R):
    c = complex(x, y)
    direction = np.exp(1j * cr)
    zb = c + R * direction
    inner = _disk_potential(c, R, zb - 1e-9 * direction)
    outer = _disk_potential(c, R, zb + 1e-9 * direction)
    assert abs(inner - outer) < 1e-6


@given(t=st.floats(0.0, 2 * math.pi), s=st.floats(1.3, 4.0))
@settings(max_examples=30, deadline=None)
def test_disk_potential_harmonic_outside(t, s):
    z = s * np.exp(1j * t)
    h = 1e-4
    u = _disk_potential(0.0, 1.0, z + h * np.array([1, -1, 1j, -1j, 0]))
    lap = (np.sum(u[:4]) - 4 * u[4]) / h**2
    assert abs(lap) < 1e-4


def test_disk_potential_matches_point_mass_far_away():
    z = 50.0 + 3.0j
    assert abs(_disk_potential(0.2 + 0.1j, 0.7, z)
               - math.pi * 0.7**2 * math.log(1 / abs(z - 0.2 - 0.1j))) < 1e-3


def test_perturbed_value_and_weight(cavity_potential):
    p = cavity_potential
    assert float(p.value_grid(0.3)) == math.inf
    assert p.weight(0.3) == 0.0
    z = 1.0 + 0.5j
    v = p.alpha * abs(z) ** 2 + 0.5 * math.log(1 / abs(z - 0.3))
    assert np.isclose(float(p.value_grid(z)), v)
    assert np.isclose(p.weight(z), math.exp(-p.N * v))


def test_weight_grid_zero_at_charge(cavity_potential):
    w = cavity_potential.weight_grid(np.array([0.3 + 0j, 1.0 + 0j]))
    assert w[0] == 0.0 and w[1] > 0


@pytest.mark.parametrize("charges,N,degree", [
    ((), 4.0, 0),
    (((0.0, 0.3),), 4.0, 0),            # radial: any mass at 0
    (((0.3, 0.5),), 4.0, 1),
    (((0.3, 0.5), (0.4j, 1.5)), 4.0, 4),
    (((0.3, 0.5), (0.0, 0.3)), 4.0, 1),
    (((0.3, 0.3),), 4.0, None),         # N*beta/2 = 0.6
    (((0.3, 0.5),), 2.0, None),         # N*beta/2 = 1/2
    (((0.3, 0.5), (0.4j, 0.3)), 4.0, None),
])
def test_angular_degree(charges, N, degree):
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(charges), N=N)
    assert p.angular_degree() == degree


def test_value_grid_keeps_extended_precision(cavity_potential):
    z = np.array([1.0 + 0.5j, 0.3 + 0j])
    assert cavity_potential.value_grid(z).dtype == np.float64
    assert cavity_potential.value_grid(z.astype(np.clongdouble)).dtype \
        == np.longdouble
    assert cavity_potential.value_grid([1.0, 2.0]).dtype == np.float64


def test_potential_validation():
    with pytest.raises(ValueError):
        PerturbedPotential(alpha=-1.0)
    with pytest.raises(ValueError):
        PerturbedPotential(alpha=1.0, N=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            PerturbedPotential(alpha=bad)
        with pytest.raises(ValueError, match="finite"):
            PerturbedPotential(alpha=1.0, N=bad)
        with pytest.raises(ValueError, match="finite"):
            PointChargeMeasure(((0.3, bad),))
        with pytest.raises(ValueError, match="finite"):
            PointChargeMeasure(((complex(bad, 0.0), 0.5),))

