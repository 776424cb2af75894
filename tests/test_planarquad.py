import math

import mpmath as mp
import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss import planarquad
from chargedgauss.planarquad import (LD, build_grid, cauchy_tail_split,
                                     cauchy_transform, inner_product,
                                     polynomial_rule, truncation_radius)


def total_mass(grid):
    return float(np.sum(grid.measure_weights))


def test_total_mass_radial(radial_potential, radial_grid):
    # int exp(-N*alpha*|z|^2) dm = pi/(N*alpha)
    na = radial_potential.N * radial_potential.alpha
    assert np.isclose(total_mass(radial_grid), math.pi / na, rtol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
def test_absolute_moments_radial(radial_potential, radial_grid, k,
                                 absolute_moment):
    na = radial_potential.N * radial_potential.alpha
    exact = math.pi * math.gamma(k / 2 + 1) / na ** (k / 2 + 1)
    assert np.isclose(absolute_moment(radial_grid, k), exact, rtol=1e-10)


def test_moment_validation(radial_grid, absolute_moment):
    with pytest.raises(ValueError):
        absolute_moment(radial_grid, -1)


def _mp(x):
    """A longdouble as an mpf, exactly: the sum of two doubles."""
    hi = float(x)
    return mp.mpf(hi) + mp.mpf(float(x - LD(hi)))


@pytest.mark.parametrize("charges", [((0.3, 0.5),),
                                     ((0.3, 0.5), (0.4j, 0.3))])
def test_weight_values_extended_precision(charges):
    # evaluated in complex double, the weight is off by up to 5e-14
    # relative at these grids' nodes
    p = cg.PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(charges),
                              N=20.0)
    grid = build_grid(p, orders=(24, 64), max_degree=20)
    T = grid.angular_order
    rings = grid.nodes.size // T
    with mp.workdps(40):
        for i in [0, 3, rings // 2, rings - 1]:
            for j in [0, 5, 17, T // 2, T - 5]:
                z = grid.nodes[i * T + j]
                x, y = _mp(z.real), _mp(z.imag)
                V = p.alpha * (x * x + y * y) - mp.fsum(
                    b * mp.log(mp.hypot(x - a.real, y - a.imag))
                    for a, b in p.nu.charges)
                exact = mp.exp(-p.N * V)
                got = _mp(grid.weight_values[i * T + j])
                assert abs(got / exact - 1) <= 1e-17


@pytest.mark.parametrize("charges,n,T,rule", [
    (((0.3, 0.5),), 10, 256, (8, 16)),   # c = 5: L = 16
    (((0.3, 0.5),), 30, 256, (23, 46)),  # c = 15: L = 46
    (((0.3, 0.5),), 10, 384, (8, 16)),   # the rule does not depend on T
    ((), 10, 64, (6, 11)),               # radial: c = 0
    (((0.3, 0.3),), 12, 256, None),      # N*beta/2 = 3.6: the grid
    (((0.3, 0.5),), 10, 30, (8, 16)),
    (((0.3, 0.5),), 10, 33, (8, 16)),    # T odd
    (((0.3, 1.5),), 10, 24, (13, 26)),   # L = 26 > T: the rule all the same
])
def test_polynomial_rule_size(monkeypatch, charges, n, T, rule):
    # m = ceil(L/2) radii, L = n + c + 1 angles; folded to L//2 + 1
    # columns for these real charges
    p = cg.PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(charges),
                              N=2.0 * n)
    grid = build_grid(p, orders=(8, T), max_degree=2 * n)
    m, L = rule or (grid.nodes.size // T, T)
    x, w, phi = polynomial_rule(p, grid, n)
    assert x.shape == w.shape == (m, L // 2 + 1)
    assert phi == 0.0
    # the memory check counts the rule's nodes before building it: the
    # basis of n + 1 rows over them fits a budget of its size exactly
    basis = x.size * (n + 1) * np.dtype(planarquad.CLD).itemsize
    monkeypatch.setattr(planarquad, "memory_budget", lambda: basis)
    polynomial_rule(p, grid, n)
    monkeypatch.setattr(planarquad, "memory_budget", lambda: basis - 1)
    with pytest.raises(planarquad.OverMemoryBudget):
        polynomial_rule(p, grid, n)


def _moments(x, w, n):
    """Mass and |z|^(2k) moments, k <= n, of a rule."""
    u = np.abs(x.ravel()) ** 2
    return np.array([np.sum(w.ravel() * u ** k) for k in range(n + 1)])


@pytest.mark.parametrize("charges", [
    ((0.3 * np.exp(0.7j), 0.5),),              # c = 5, folded
    ((0.3, 0.5), (0.4j, 0.5)),                 # c = 10, not folded
    ((0.0, 0.35), (0.3 * np.exp(0.7j), 0.5)),  # radial factor |z|^7
])
def test_polynomial_rule_integrates_weight_exactly(exact_gram, charges):
    # the rule's mass and |z|^(2k) moments are the diagonal of the
    # weight's exact Gram matrix
    n = 10
    p = cg.PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(charges),
                              N=20.0)
    grid = build_grid(p, orders=(24, 256), max_degree=2 * n)
    G = exact_gram(p, n)
    exact = np.array([float(mp.re(G[k, k])) for k in range(n + 1)])
    x, w, _ = polynomial_rule(p, grid, n)
    assert x.size < grid.nodes.size // 50
    assert np.max(np.abs(_moments(x, w, n) / exact - 1)) < 1e-15


@pytest.mark.parametrize("charges,folded", [
    (((0.3 * np.exp(0.7j), 0.5),), True),               # in its own frame
    (((0.3 + 0.2j, 0.25), (0.3 - 0.2j, 0.25)), True),   # a conjugate pair
    (((-0.5, 0.5), (0.3 * np.exp(0.7j), 0.5)), False),
])
def test_polynomial_rule_outside_exact_class_is_the_grids(charges, folded):
    # N*beta/2 = 1.75 and 0.875: the rule's nodes, in the frame, are the
    # grid's, and each weighs its area times exp(-N*V) of the charges as
    # given, at its image back in the plane
    n = 10
    p = cg.PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(charges),
                              N=7.0)
    assert p.angular_degree() is None
    grid = build_grid(p, orders=(24, 64), max_degree=2 * n)
    T = grid.angular_order
    x, w, phi = polynomial_rule(p, grid, n)
    assert (phi is not None) == folded
    cols = T // 2 + 1 if folded else T
    nodes = grid.nodes.reshape(-1, T)[:, :cols]
    areas = np.repeat(grid.ring_areas[:, None], cols, axis=1)
    if folded:
        areas[:, 1:(T + 1) // 2] *= 2
    assert x.shape == nodes.shape
    assert np.max(np.abs(x - nodes) / np.abs(nodes)) < 1e-18
    plane = x * np.exp(1j * LD(phi or 0.0)).astype(planarquad.CLD)
    ref = areas * p.weight_grid(plane)
    assert np.max(np.abs(w / ref - 1)) < 1e-12


@pytest.mark.parametrize("N,beta0", [(4.0, 0.35), (2.0, 3.5), (2.0, 0.5)])
def test_laguerre_rule_mass_matches_mpmath(N, beta0):
    # s = N*beta_0/2 = 0.7, 3.5, 0.5: Gamma(1 + frac(s)) in long double
    # puts the mass pi Gamma(s + 1)/(N alpha)^(s + 1) within 1e-17
    p = cg.PerturbedPotential(alpha=0.5,
                              nu=cg.PointChargeMeasure(((0.0, beta0),)), N=N)
    _, w = planarquad._laguerre_rule(p, 12)
    total = np.sum(w)
    s = mp.mpf(0.5 * N * beta0)
    with mp.workdps(40):
        exact = mp.pi * mp.gamma(s + 1) / mp.mpf(0.5 * N) ** (s + 1)
        mass = mp.mpf(float(total)) + mp.mpf(float(total - LD(float(total))))
        assert abs(mass / exact - 1) < 1e-17


def test_legendre_rule_integrates_even_powers():
    # numpy's double leggauss, cast to long double, is off by up to 2e-15
    x, w = planarquad._legendre_rule(24)
    assert x.dtype == w.dtype == LD
    for k in range(24):
        assert abs(np.sum(w * x ** (2 * k)) - LD(2) / (2 * k + 1)) < 1e-18


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


@pytest.mark.parametrize("charges", [
    ((0.0, 0.5),),                   # at 0: the two envelopes coincide
    ((0.3 * np.exp(0.7j), 0.5),),    # off the real axis
    ((2.0, 0.5),),                   # criterion 03's exterior charge
    ((0.3, 0.5), (0.4j, 0.3)),
])
def test_truncation_radius_bounds_the_moment_tail(monkeypatch, charges,
                                                  absolute_moment):
    # the |z|^(2n) moment beyond r_trunc is below 1e-12 of the moment:
    # cutting at 1.5 r_trunc instead does not change it by more.  48
    # radii per panel: with 24, the wider grid's last panel, 1.8 long,
    # leaves up to 1.2e-9 of radial quadrature error at N = 80
    n = 40
    p = cg.PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(charges),
                              N=2.0 * n)
    grid = build_grid(p, orders=(48, 256), max_degree=2 * n)
    monkeypatch.setattr(planarquad, "truncation_radius",
                        lambda *args: 1.5 * grid.r_trunc)
    wide = build_grid(p, orders=(48, 256), max_degree=2 * n)
    assert wide.r_trunc == 1.5 * grid.r_trunc
    m = absolute_moment(grid, 2 * n)
    assert abs(m / absolute_moment(wide, 2 * n) - 1) <= 1e-12


def test_truncation_radius_raises_beyond_its_mesh(cavity_potential):
    # a tail of 1e-300 lies beyond the radial mesh: no radius is returned
    with pytest.raises(ValueError, match="no radius"):
        truncation_radius(cavity_potential, 1e-300, 24)


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


def test_build_grid_resolves_its_degree(cavity_potential):
    # T = max(n_t, max_degree + 2): the degree-100 moments need 102 angles
    grid = build_grid(cavity_potential, orders=(24, 64), max_degree=100)
    assert grid.angular_order == 102
    assert grid.nodes.size % 102 == 0
    assert build_grid(cavity_potential, orders=(24, 64),
                      max_degree=24).angular_order == 64


def test_grid_keeps_one_area_per_ring(cavity_grid):
    # the node weights are each ring's area times the weight at its nodes,
    # the same long-double products as from a per-node area array
    T = cavity_grid.angular_order
    assert cavity_grid.ring_areas.shape == (cavity_grid.nodes.size // T,)
    assert np.array_equal(cavity_grid.measure_weights,
                          np.repeat(cavity_grid.ring_areas, T)
                          * cavity_grid.weight_values)


def test_measure_weights_formed_once(cavity_potential):
    # inner_product and the moment sums share one array per grid
    grid = build_grid(cavity_potential, orders=(4, 64))
    assert "measure_weights" not in grid.__dict__
    f = np.ones(grid.nodes.size)
    inner_product(grid, f, f)
    w = grid.__dict__["measure_weights"]
    inner_product(grid, f, f)
    assert grid.measure_weights is w


def test_build_grid_refuses_over_memory_budget(monkeypatch, cavity_potential):
    monkeypatch.setattr(planarquad, "memory_budget", lambda: 1e6)
    build_grid(cavity_potential, orders=(4, 64))   # 28 x 64 nodes: 115 kB
    with pytest.raises(planarquad.OverMemoryBudget):
        build_grid(cavity_potential, orders=(24, 384))   # 4.1 MB
