import math

import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss.planarquad import (absolute_moment, build_grid,
                                     cauchy_tail_split, cauchy_transform,
                                     inner_product, load_grid, total_mass,
                                     truncation_radius)


def test_total_mass_radial(radial_potential, radial_grid):
    # int exp(-N*alpha*|z|^2) dm = pi/(N*alpha)
    na = radial_potential.N * radial_potential.alpha
    assert np.isclose(total_mass(radial_grid), math.pi / na, rtol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
def test_absolute_moments_radial(radial_potential, radial_grid, k):
    na = radial_potential.N * radial_potential.alpha
    exact = math.pi * math.gamma(k / 2 + 1) / na ** (k / 2 + 1)
    assert np.isclose(absolute_moment(radial_grid, k), exact, rtol=1e-10)


def test_moment_validation(radial_grid):
    with pytest.raises(ValueError):
        absolute_moment(radial_grid, -1)


def test_grid_save_load_roundtrip(tmp_path, cavity_potential, cavity_grid):
    path = tmp_path / "grid.npz"
    cavity_grid.save(path)
    g2 = load_grid(path, cavity_potential)
    assert np.allclose(g2.nodes.astype(complex),
                       cavity_grid.nodes.astype(complex))
    assert np.isclose(total_mass(g2), total_mass(cavity_grid))


def test_inner_product_conjugate_symmetry(cavity_grid):
    f = cavity_grid.nodes ** 2
    g = 1.0 + cavity_grid.nodes
    assert np.isclose(inner_product(cavity_grid, f, g),
                      np.conj(inner_product(cavity_grid, g, f)))


def test_grid_refinement_stability(cavity_potential, cavity_grid):
    fine = build_grid(cavity_potential, orders=(32, 192), max_degree=24)
    assert abs(total_mass(fine) - total_mass(cavity_grid)) < 1e-12


def test_truncation_radius_grows_with_degree(cavity_potential):
    r0 = truncation_radius(cavity_potential, 1e-12, 0)
    r1 = truncation_radius(cavity_potential, 1e-12, 40)
    assert r1 > r0


def test_cauchy_transform_radial_oracle(radial_potential, radial_grid):
    # for a radial integrand, int g(|w|)/(z-w) dm = (1/z) * (mass inside |z|)
    na = radial_potential.N * radial_potential.alpha
    ones = np.ones(radial_grid.nodes.size)
    for z in [1.5 + 0.5j, -2.0 + 1.0j]:
        exact = math.pi / na * (1 - math.exp(-na * abs(z) ** 2)) / z
        value = complex(cauchy_transform(radial_grid, ones, z))
        # exact in angle, and the panel holding |z| is split at |z|
        assert abs(value - exact) < 1e-13


def test_cauchy_transform_array_matches_scalar(cavity_grid):
    dens = np.conj(cavity_grid.nodes)
    # inside, on and beyond the grid, on a charge modulus and at 0, then
    # enough points to take more than one chunk of the array path
    special = [0.7 - 0.4j, -0.3, 0.0, 1.9 + 0.8j, 2 * cavity_grid.r_trunc,
               0.1 + 0.05j]
    more = 2.5 * np.exp(np.linspace(0, 40, 194) * 1j) * np.linspace(0, 1, 194)
    zs = np.concatenate([special, more]).reshape(2, 100)
    values = cauchy_transform(cavity_grid, dens, zs)
    assert values.shape == zs.shape and values.dtype == np.clongdouble
    for i in [0, 1, 2, 3, 4, 5, 168, 169, 170, 199]:
        z, v = zs.flat[i], values.flat[i]
        assert abs(cauchy_transform(cavity_grid, dens, z) - v) < 1e-17


def test_cauchy_tail_split_matches_direct(cavity_potential, cavity_grid):
    dens = np.conj(cavity_grid.nodes)
    z = 6.0 + 2.0j
    val, dev, m1 = cauchy_tail_split(cavity_grid, dens, 1, z)
    direct = complex(np.sum(cavity_grid.measure_weights * dens
                            / (z - cavity_grid.nodes)))
    assert abs(val - direct) < 1e-14
    assert abs(val - (dev + m1 / z**2)) < 1e-16


def test_build_grid_validation(cavity_potential):
    with pytest.raises(ValueError):
        build_grid(cavity_potential, orders=(1, 384))
