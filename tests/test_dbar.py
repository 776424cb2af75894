import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss import dbar
from chargedgauss.dbar import (FD_STEPS, assemble_Y, asymptotic_normalization,
                               dbar_residual, fd_order, uniqueness_crosscheck,
                               wirtinger_dbar)
from chargedgauss.equilibrium import outer_radius
from chargedgauss.orthopoly import build_orthopolys
from chargedgauss.planarquad import build_grid, cauchy_transform


@pytest.fixture(scope="module")
def cavity_Y(cavity_potential, cavity_grid, cavity_ops):
    return assemble_Y(cavity_ops, cavity_potential, cavity_grid, 3)


def test_wirtinger_on_antiholomorphic():
    # d/d(conj z) of conj(z)^2 at z0 is 2*conj(z0)
    z0 = 0.4 + 0.9j
    d = wirtinger_dbar(lambda z: np.conj(z) ** 2, z0, 1e-5)
    assert abs(d - 2 * np.conj(z0)) < 1e-8


def test_gaussian_Y21_is_minus_one(radial_potential, radial_grid):
    # N*alpha = 1: h_0 = pi, so Y21 = -pi/h_0 * P_0 = -1
    ops = build_orthopolys(radial_potential, radial_grid, 2)
    Y = assemble_Y(ops, radial_potential, radial_grid, 1)
    assert abs(complex(Y.Y21(0.7 + 0.2j)) + 1.0) < 1e-12
    assert abs(complex(Y.Y11(0.7 + 0.2j)) - (0.7 + 0.2j)) < 1e-12


def test_entries_finite_at_random_points(cavity_Y):
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
    for z in zs:
        entries = np.array([[cavity_Y.Y11(z), cavity_Y.Y12(z)],
                            [cavity_Y.Y21(z), cavity_Y.Y22(z)]])
        assert np.all(np.isfinite(entries.view(float)))


def test_column_one_entire(cavity_Y, cavity_potential):
    # column 1 is polynomial, so the residual is pure FD truncation
    # error, h^2 |f'''| / 6
    r1 = dbar_residual(cavity_Y, cavity_potential, 0.8 - 0.3j, 1e-3)
    assert r1[0, 0] < 5e-6 and r1[1, 0] < 5e-6
    r2 = dbar_residual(cavity_Y, cavity_potential, 0.8 - 0.3j, 5e-4)
    assert r2[0, 0] < 0.3 * r1[0, 0] + 1e-12


def test_fd_order_column_two(cavity_Y, cavity_potential):
    rep = fd_order(cavity_Y, cavity_potential, 0.5 + 0.5j)
    assert rep["order_12"] >= 1.8
    assert rep["order_22"] >= 1.8
    assert rep["monotone"]


def test_fd_order_evaluates_each_entry_once(cavity_Y, cavity_potential,
                                            monkeypatch):
    # Y12 and Y22 each go through one Cauchy transform, on the stencils
    # of all of FD_STEPS, with the residuals of one step at a time
    calls = []

    def counted(grid, values, z):
        calls.append(np.shape(z))
        return cauchy_transform(grid, values, z)

    monkeypatch.setattr(dbar, "cauchy_transform", counted)
    rep = fd_order(cavity_Y, cavity_potential, 0.5 + 0.5j)
    assert calls == [(len(FD_STEPS), 4)] * 2
    for i, h in enumerate(FD_STEPS):
        r = dbar_residual(cavity_Y, cavity_potential, 0.5 + 0.5j, h)
        assert r.shape == (2, 2)
        assert rep["residuals_12"][i] == r[0, 1]
        assert rep["residuals_22"][i] == r[1, 1]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_fd_order_two_charges(k):
    # a two-charge cavity configuration of the dbar_cavities workload: a
    # transform whose quadrature error changes across the FD stencil
    # gives orders far below 2 here
    p = cg.PerturbedPotential(
        alpha=0.34, nu=cg.PointChargeMeasure(((-0.534 + 0.18j, 0.13),
                                              (0.542 + 0.573j, 0.137))),
        N=4.0, gamma=2.0)
    grid = build_grid(p, orders=(24, 128), max_degree=24)
    Y = assemble_Y(build_orthopolys(p, grid, 12), p, grid, k)
    rep = fd_order(Y, p, -1.05 + 0.71j)
    assert rep["order_12"] >= 1.8
    assert rep["order_22"] >= 1.8


def test_residual_negligible_far_out(cavity_Y, cavity_potential):
    # weight ~ 0 there, so column 2 vanishes identically; column 1 is
    # polynomial, leaving only FD truncation/roundoff relative to |z|^k
    z = 1e3 + 0j
    r = dbar_residual(cavity_Y, cavity_potential, z, 1e-2)
    assert r[0, 1] < 1e-12 and r[1, 1] < 1e-12
    assert r[0, 0] / abs(z) ** 3 < 1e-10
    assert r[1, 0] / abs(z) ** 2 < 1e-10


def test_asymptotic_slopes(cavity_Y, cavity_potential):
    R = outer_radius(cavity_potential)
    rep = asymptotic_normalization(cavity_Y, np.geomspace(2.5 * R, 20 * R, 8))
    assert abs(rep.slope_Y12 + 4) < 0.2
    assert abs(rep.slope_Y22_dev + 1) < 0.2
    assert abs(rep.slope_Y21_ratio + 1) < 0.2
    assert rep.max_Y11_ratio_dev < 0.05


def test_uniqueness_trivial_gaussian(radial_potential, radial_grid):
    ops = build_orthopolys(radial_potential, radial_grid, 2)
    rep = uniqueness_crosscheck(ops, radial_potential, radial_grid, 1)
    assert rep["max_orthogonality_residual"] < 1e-12
    assert rep["normalization_deviation"] < 1e-12


def test_uniqueness_cavity(cavity_potential, cavity_grid, cavity_ops):
    rep = uniqueness_crosscheck(cavity_ops, cavity_potential, cavity_grid, 2)
    assert rep["max_orthogonality_residual"] < 1e-8
    assert rep["normalization_deviation"] < 1e-8


def test_assemble_validation(cavity_ops, cavity_potential, cavity_grid):
    with pytest.raises(ValueError):
        assemble_Y(cavity_ops, cavity_potential, cavity_grid, 0)


def test_potential_mismatch_rejected(cavity_Y, cavity_ops, cavity_grid,
                                     radial_potential):
    # the polynomials weigh with their own potential, not the one passed
    with pytest.raises(ValueError):
        dbar_residual(cavity_Y, radial_potential, 0.5 + 0.5j, 1e-2)
    with pytest.raises(ValueError):
        fd_order(cavity_Y, radial_potential, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        uniqueness_crosscheck(cavity_ops, radial_potential, cavity_grid, 2)


def test_grid_of_another_potential_rejected(cavity_ops, cavity_potential,
                                            radial_grid):
    # the Cauchy transforms and moment integrals would run against the
    # radial weight
    with pytest.raises(ValueError, match="QuadGrid"):
        assemble_Y(cavity_ops, cavity_potential, radial_grid, 3)
    with pytest.raises(ValueError, match="QuadGrid"):
        uniqueness_crosscheck(cavity_ops, cavity_potential, radial_grid, 2)
