import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargedgauss as cg
from chargedgauss.equilibrium import classify_support, scaled_potential
from chargedgauss import fekete
from chargedgauss.fekete import (_circle_lens_area, _min_eigenvalue,
                                 discrepancy, energy, gradient,
                                 gradient_fd_check, hessian, minimize)
from chargedgauss.measures import PerturbedPotential


def _rescaled(p, z):
    """Q(z) = (gamma/2) V(z) at one point."""
    return p.gamma / 2 * float(p.value_grid(complex(z)))


def test_energy_single_point(cavity_potential):
    z = np.array([1.0 + 0.2j])
    q = _rescaled(cavity_potential, z[0])
    assert np.isclose(energy(z, cavity_potential), q)


def test_energy_pair_term(cavity_potential):
    # the interaction part of the antipodal pair is -log 2
    z = np.array([-1.0 + 0j, 1.0 + 0j])
    qs = 2 * sum(_rescaled(cavity_potential, w) for w in z)
    assert np.isclose(energy(z, cavity_potential) - qs, -math.log(2))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7])
def test_energy_terms_are_those_of_q(gamma):
    # E, its gradient and its Hessian are Q = (gamma/2) V's: p and
    # scaled_potential(p) give the same, exactly where gamma/2 is a power
    # of two, and E's external term is n (gamma/2) sum V(z_i)
    n = 10
    p = PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(
        ((0.3, 0.5), (-0.2 + 0.4j, 0.25))), N=gamma * n, gamma=gamma)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rtol = 0.0 if gamma in (0.5, 1.0) else 1e-14
    for f in (energy, gradient, hessian):
        got, want = f(z, p), f(z, scaled_potential(p))
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
    d = np.abs(z[:, None] - z[None, :])[~np.eye(n, dtype=bool)]
    assert math.isclose(energy(z, p), -0.5 * np.sum(np.log(d))
                        + n * gamma / 2 * np.sum(p.value_grid(z)),
                        rel_tol=1e-14)


def test_energy_coincident_points(cavity_potential):
    assert energy(np.array([1.0 + 0j, 1.0 + 0j]), cavity_potential) == math.inf
    assert energy(np.array([0.3 + 0j]), cavity_potential) == math.inf


def test_energy_brute_force_oracle(cavity_potential):
    rng = np.random.default_rng(7)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e = 0.0
    for i in range(5):
        for j in range(5):
            if i != j:
                e += 0.5 * math.log(1 / abs(z[i] - z[j]))
        e += 5 * _rescaled(cavity_potential, z[i])
    assert np.isclose(energy(z, cavity_potential), e)


def test_gradient_matches_finite_differences(cavity_potential):
    rng = np.random.default_rng(3)
    z = 2 * rng.standard_normal(8) + 2j * rng.standard_normal(8)
    assert gradient_fd_check(z, cavity_potential) < 1e-6


def test_hessian_matches_finite_differences(cavity_potential):
    # columns of the real Hessian against central differences of the
    # real gradient 2 g.view(float), in the coordinates z.view(float)
    rng = np.random.default_rng(5)
    z = 1.5 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
    H = hessian(z, cavity_potential)
    assert np.array_equal(H, H.T)
    h = 1e-6
    for k in range(20):
        dz = np.zeros(20)
        dz[k] = h
        fd = (gradient(z + dz.view(complex), cavity_potential)
              - gradient(z - dz.view(complex), cavity_potential)) / h
        assert np.max(np.abs(fd.view(float) - H[:, k])) \
            < 1e-6 * max(np.max(np.abs(H[:, k])), 1.0)


def test_hessian_single_point_is_field_curvature():
    # E = n (gamma/2) alpha |z|^2 for one point and no charges
    p = PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE, gamma=3.0)
    assert np.allclose(hessian(np.array([0.4 - 0.2j]), p), 1.5 * np.eye(2))


@given(phi=st.floats(0.0, 2 * math.pi))
@settings(max_examples=25, deadline=None)
def test_energy_rotation_invariant_radial(phi):
    p = PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE)
    rng = np.random.default_rng(11)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.isclose(energy(z, p), energy(z * np.exp(1j * phi), p),
                      atol=1e-12)


def test_minimize_single_point_gaussian():
    p = PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE)
    res = minimize(1, p, seed=0, n_starts=2)
    assert abs(res.points[0]) < 1e-6
    assert res.converged


def test_minimize_pair_radial_oracle():
    # two points: antipodal at radius where pair repulsion balances the
    # field, -1/r + 2*n*gamma*alpha*r = 0 with n=2 -> r = 0.5
    p = PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE, gamma=2.0)
    res = minimize(2, p, seed=1, n_starts=3)
    assert np.allclose(np.abs(res.points), 0.5, atol=1e-5)
    assert abs(res.points[0] + res.points[1]) < 1e-5


def test_minimize_energy_not_above_start(cavity_potential):
    rng = np.random.default_rng(0)
    z0 = 0.5 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    res = minimize(20, cavity_potential, seed=0, n_starts=1)
    assert res.energy <= float(energy(z0, cavity_potential)) + 1e-9


def test_lens_area_cases():
    assert _circle_lens_area(3.0, 1.0, 1.0) == 0.0
    assert np.isclose(_circle_lens_area(0.1, 2.0, 0.5), math.pi * 0.25)
    # Monte Carlo cross-check of a proper intersection
    d, r1, r2 = 1.0, 0.8, 0.9
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 2, (200000, 2))
    inside = ((pts**2).sum(1) < r1**2) \
        & (((pts - [d, 0])**2).sum(1) < r2**2)
    mc = inside.mean() * 9.0
    assert abs(_circle_lens_area(d, r1, r2) - mc) < 0.01


def test_discrepancy_counts(cavity_potential):
    geom = classify_support(cavity_potential)
    res = minimize(60, cavity_potential, seed=0, n_starts=1)
    rep = discrepancy(res, geom)
    assert rep["points_in_cavities"] == 0
    assert rep["fraction_inside"] > 0.9


def test_minimize_certifies_strict_minimum_n200(cavity_potential):
    # criterion 12's configuration: the gradient reaches the tolerance and
    # the Hessian is positive definite there
    res = minimize(200, cavity_potential, seed=0, n_starts=1)
    assert res.converged
    assert res.grad_norm < 1e-8
    assert res.min_eigenvalue > 0
    assert res.min_eigenvalue == pytest.approx(
        np.linalg.eigvalsh(hessian(res.points, cavity_potential))[0])


def test_minimize_radial_pair_certified_modulo_rotation():
    # a rotation-invariant energy has a circle of minimizers; the
    # certificate is on the complement of the rotation direction
    p = PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE, gamma=2.0)
    res = minimize(2, p, seed=1, n_starts=1)
    assert np.linalg.eigvalsh(hessian(res.points, p))[0] < 1e-8
    assert res.converged and res.min_eigenvalue > 1.0


@pytest.mark.parametrize("charges", [((0.0, 0.5),), ((0.3, 0.5),)])
def test_hessian_peak_within_memory_check(charges):
    # `minimize` checks _PEAK_BYTES_PER_PAIR n^2 bytes before solving; the
    # Hessian and its smallest eigenvalue (with the rotation projected out
    # for a charge at 0) stay within it.  Assembled from kron products the
    # Hessian peaked at 112.1 n^2
    n = 400
    p = PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure(charges),
                           N=2.0 * n, gamma=2.0)
    rng = np.random.default_rng(1)
    z = np.sqrt(rng.uniform(0, 1, n)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    for f in (hessian, _min_eigenvalue):
        f(z, p)   # the first call also traces scipy's import
        tracemalloc.start()
        try:
            f(z, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fekete._PEAK_BYTES_PER_PAIR * n * n
