"""End-to-end acceptance checks.

Each test prints a single ``[criterion NN] PASS/FAIL`` line with the
measured quantities, then asserts the stated tolerance.  The criteria are
independent and can be run standalone, e.g.::

    pytest tests/test_acceptance.py -k criterion_03 -s
"""

import functools
import math
import time

import numpy as np
import pytest

from chargedgauss.dbar import (assemble_Y, asymptotic_normalization, fd_order,
                               uniqueness_crosscheck)
from chargedgauss.equilibrium import (DiskWithCavities, _cubic,
                                      classify_support, effective_potential,
                                      outer_radius, solve_exterior_map,
                                      support_area, system_residuals,
                                      verify_equilibrium)
from chargedgauss.fekete import discrepancy, gradient_fd_check, minimize
from chargedgauss.measures import PerturbedPotential, PointChargeMeasure
from chargedgauss.orthopoly import build_orthopolys, compute_zeros
from chargedgauss.planarquad import build_grid, cauchy_tail_split, inner_product
from chargedgauss.schwarz import (boundary_curve, branch_points,
                                  critical_trajectories,
                                  external_potential_compare,
                                  zero_attractor_candidates)

DEFAULT_CHARGE = PointChargeMeasure(((0.3 + 0.0j, 0.5),))


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def _random_cavity_potential(rng):
    while True:
        alpha = float(rng.uniform(0.3, 2.0))
        k = int(rng.integers(1, 3))
        betas = rng.uniform(0.1, 0.8, k)
        R = math.sqrt((1.0 + betas.sum()) / (2.0 * alpha))
        charges = []
        ok = True
        for b in betas:
            r = math.sqrt(b / (2.0 * alpha))
            room = R - r - 0.05
            if room <= 0:
                ok = False
                break
            a = rng.uniform(0.0, room) * np.exp(2j * np.pi * rng.uniform())
            charges.append((complex(a), float(b)))
        if not ok:
            continue
        disjoint = all(
            abs(charges[i][0] - charges[j][0])
            > math.sqrt(charges[i][1] / (2 * alpha))
            + math.sqrt(charges[j][1] / (2 * alpha)) + 0.05
            for i in range(len(charges)) for j in range(i))
        if not disjoint:
            continue
        p = PerturbedPotential(alpha=alpha, nu=PointChargeMeasure(tuple(charges)),
                               N=2.0, gamma=2.0)
        geom = classify_support(p)
        if isinstance(geom, DiskWithCavities):
            return p, geom


def test_criterion_01_closed_form_geometry():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_dev = 0.0
    worst_margin = math.inf
    for _ in range(100):
        p, geom = _random_cavity_potential(rng)
        R = geom.outer_radius
        F = geom.robin_constant(p)

        inside = []
        while len(inside) < 20:
            z = (R - 2e-3) * math.sqrt(rng.uniform()) \
                * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - c) > r + 1e-3 for c, r in geom.cavities):
                inside.append(z)
        dev = np.max(np.abs(effective_potential(geom, p, np.array(inside)) - F))
        worst_dev = max(worst_dev, float(dev))

        outside = [(R + 1e-3 + rng.uniform(0.0, 0.5 * R))
                   * np.exp(2j * np.pi * rng.uniform()) for _ in range(10)]
        outside += [c + 0.5 * r * np.exp(2j * np.pi * rng.uniform())
                    for c, r in geom.cavities if r > 5e-3]
        margin = np.min(effective_potential(geom, p, np.array(outside)) - F)
        worst_margin = min(worst_margin, float(margin))
    dt = time.perf_counter() - t0
    ok = worst_dev < 1e-8 and worst_margin > 0.0 and dt < 10.0
    _report(1, "closed-form geometry (100 random cavity inputs)", ok,
            f"max on-support dev {worst_dev:.2e} (< 1e-8), "
            f"min off-support margin {worst_margin:.2e} (> 0), "
            f"runtime {dt:.2f}s (< 10s)")


def test_criterion_02_conformal_map_system():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_area = 0.0
    worst_changes = 1
    xs = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    for _ in range(100):
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.1, 1.0))
        R = math.sqrt((1.0 + beta) / (2.0 * alpha))
        r = math.sqrt(beta / (2.0 * alpha))
        t = (R - r) + rng.uniform(0.05, 0.95) * (2.0 * r)
        a = t * np.exp(2j * np.pi * rng.uniform())
        em = solve_exterior_map(alpha, beta, complex(a))
        worst_res = max(worst_res, float(np.max(
            system_residuals(em, alpha, beta, complex(a)))))
        worst_area = max(worst_area, abs(support_area(em)
                                         - math.pi / (2.0 * alpha)))
        sg = np.sign(np.polyval(_cubic(alpha, beta, float(t)), xs))
        sg = sg[sg != 0]
        worst_changes = max(worst_changes, int(np.sum(np.diff(sg) != 0)))
    dt = time.perf_counter() - t0
    ok = (worst_res < 1e-10 and worst_changes == 1
          and worst_area < 1e-10 and dt < 5.0)
    _report(2, "conformal-map system (100 random exterior inputs)", ok,
            f"max equation residual {worst_res:.2e} (< 1e-10), "
            f"max sign changes of g on (0,1) = {worst_changes} (== 1), "
            f"max |area - pi/(2a)| {worst_area:.2e} (< 1e-10), "
            f"runtime {dt:.2f}s (< 5s)")


def test_criterion_03_numerical_equilibrium_exterior():
    alpha, beta, a = 0.5, 0.5, 2.0
    p = PerturbedPotential(alpha=alpha,
                           nu=PointChargeMeasure(((a + 0j, beta),)),
                           N=2.0, gamma=2.0)
    geom = solve_exterior_map(alpha, beta, a + 0j)
    t0 = time.perf_counter()
    rep = verify_equilibrium(geom, p, {"n": 200, "tol_on": 1e-8})
    dt = time.perf_counter() - t0
    ok = rep.passed and dt < 120.0
    _report(3, "numerical equilibrium, non-contained charge", ok,
            f"on-support dev {rep.max_dev_on:.2e} (< 1e-8), "
            f"off-support margin {rep.min_margin_off:.2e} (>= -1e-8), "
            f"{rep.n_on}/{rep.n_off} on/off points, runtime {dt:.1f}s (< 2min)")


def test_criterion_04_radial_oracle(radial_norm_oracle):
    worst_norm = 0.0
    worst_mass = 0.0
    for nu in (PointChargeMeasure(()),
               PointChargeMeasure(((0.0 + 0.0j, 0.5),))):
        p = PerturbedPotential(alpha=0.5, nu=nu, N=2.0, gamma=2.0)
        grid = build_grid(p, orders=(24, 64), max_degree=50)
        ops = build_orthopolys(p, grid, 25)
        for k in range(26):
            h = float(ops.norms[k])
            worst_norm = max(worst_norm,
                             abs(h - radial_norm_oracle(p, k))
                             / radial_norm_oracle(p, k))
            dev = ops.evaluate(k, grid.nodes) - grid.nodes ** k
            mass = math.sqrt(max(float(np.real(
                inner_product(grid, dev, dev))), 0.0) / h)
            worst_mass = max(worst_mass, mass)
    ok = worst_norm < 1e-8 and worst_mass < 1e-10
    _report(4, "rotation-invariant weights reduce to monomials", ok,
            f"max relative norm error {worst_norm:.2e} (< 1e-8), "
            f"max off-monomial coefficient mass {worst_mass:.2e} (< 1e-10)")


def test_criterion_05_gram_residual_n40():
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=80.0, gamma=2.0)
    grid = build_grid(p, orders=(24, 256), max_degree=80)
    ops = build_orthopolys(p, grid, 40)
    ok = ops.gram_residual < 1e-8
    _report(5, "Gram residual up to degree 40", ok,
            f"max normalized off-diagonal Gram entry "
            f"{ops.gram_residual:.2e} (< 1e-8)")


def test_criterion_06_cauchy_tail_slopes(cavity_grid, cavity_ops):
    radii = np.geomspace(1e2, 1e3, 6)
    detail = []
    ok = True
    for n in (2, 5):
        dens = np.conj(cavity_ops.evaluate(n, cavity_grid.nodes))
        devs = [abs(cauchy_tail_split(cavity_grid, dens, n,
                                      complex(r * np.exp(0.31j)))[1])
                for r in radii]
        slope = float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
        ok &= slope <= -(n + 2) + 0.2
        detail.append(f"n={n}: slope {slope:.3f} (<= {-(n + 2) + 0.2})")
    _report(6, "Cauchy transform tail decay", ok, "; ".join(detail))


def test_criterion_07_dbar_problem(cavity_potential, cavity_grid, cavity_ops):
    R = outer_radius(cavity_potential)
    radii = np.geomspace(2.5 * R, 20.0 * R, 8)
    detail = []
    ok = True
    for k in (1, 3, 5):
        Y = assemble_Y(cavity_ops, cavity_potential, cavity_grid, k)
        fd = fd_order(Y, cavity_potential, 0.5 + 0.5j)
        rep = asymptotic_normalization(Y, radii)
        good = (min(fd["order_12"], fd["order_22"]) >= 1.8
                and abs(rep.slope_Y12 + (k + 1)) < 0.2
                and abs(rep.slope_Y22_dev + 1.0) < 0.2
                and abs(rep.slope_Y21_ratio + 1.0) < 0.2)
        ok &= good
        detail.append(
            f"k={k}: FD orders ({fd['order_12']:.2f}, {fd['order_22']:.2f}) "
            f">= 1.8, slopes ({rep.slope_Y12:.2f}, {rep.slope_Y22_dev:.2f}, "
            f"{rep.slope_Y21_ratio:.2f}) vs ({-(k + 1)}, -1, -1)")
    _report(7, "dbar identities and normalization", ok, "; ".join(detail))


def test_criterion_08_uniqueness_relations(cavity_potential, cavity_grid,
                                           cavity_ops):
    worst_orth = 0.0
    worst_norm = 0.0
    for k in range(1, 11):
        rep = uniqueness_crosscheck(cavity_ops, cavity_potential,
                                    cavity_grid, k)
        worst_orth = max(worst_orth, rep["max_orthogonality_residual"])
        worst_norm = max(worst_norm, rep["normalization_deviation"])
    ok = worst_orth < 1e-8 and worst_norm < 1e-8
    _report(8, "moment conditions for k <= 10", ok,
            f"max orthogonality residual {worst_orth:.2e} (< 1e-8), "
            f"max normalization deviation {worst_norm:.2e} (< 1e-8)")


def test_criterion_09_schwarz_identity(exterior_map, schwarz_value):
    bc = boundary_curve(exterior_map, 720)
    zc = np.conj(bc.points)
    s1, s2 = (schwarz_value(exterior_map, zeta)
              for zeta in exterior_map._preimages(bc.points))
    bdry = float(np.max(np.minimum(np.abs(s1 - zc), np.abs(s2 - zc))))
    disc = 0.0
    for z in branch_points(exterior_map):
        b = exterior_map.u - z - exterior_map.A * exterior_map.rho
        c = exterior_map.A * (z - exterior_map.u) + exterior_map.v
        disc = max(disc, abs(b * b - 4 * exterior_map.rho * c))
    trajs = critical_trajectories(exterior_map)
    traj_res = max(t.max_residual for t in trajs)
    ok = bdry < 1e-10 and disc < 1e-12 and traj_res < 1e-3
    _report(9, "Schwarz function identities", ok,
            f"boundary residual {bdry:.2e} (< 1e-10), "
            f"discriminant at branch points {disc:.2e} (< 1e-12), "
            f"max trajectory residual {traj_res:.2e} (< 1e-3)")


@functools.lru_cache(maxsize=None)
def _zeros_for(n):
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE,
                           N=float(2 * n), gamma=2.0)
    grid = build_grid(p, orders=(24, max(256, 2 * n + 2)), max_degree=2 * n)
    ops = build_orthopolys(p, grid, n)
    return p, compute_zeros(ops, n)


def test_criterion_10_zero_attractor_sweep():
    base = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=2.0, gamma=2.0)
    R = outer_radius(base)
    _, trajs = zero_attractor_candidates(base)
    attractor = np.concatenate([t.points for t in trajs])
    t0 = time.perf_counter()
    means = []
    for n in (10, 20, 30, 40, 50):
        _, zs = _zeros_for(n)
        d = np.min(np.abs(zs.zeros[:, None] - attractor[None, :]), axis=1)
        means.append(float(np.mean(d)))
    dt = time.perf_counter() - t0
    ok = (all(b < a for a, b in zip(means, means[1:]))
          and means[-1] < 0.05 * R and dt < 600.0)
    _report(10, "zeros accumulate on the connecting trajectory", ok,
            f"mean distances {[f'{m:.4f}' for m in means]} "
            f"(monotone decreasing), final {means[-1]:.4f} "
            f"(< {0.05 * R:.4f}), runtime {dt:.0f}s (< 10min)")


def test_criterion_11_external_potential_match():
    rng = np.random.default_rng(12)
    sups = {}
    for n in (15, 30):
        p, zs = _zeros_for(n)
        R = outer_radius(p)
        pts = rng.uniform(1.5 * R, 3.0 * R, 200) \
            * np.exp(2j * np.pi * rng.uniform(size=200))
        sups[n] = external_potential_compare(zs, p, pts)["sup_error"]
    ok = sups[30] < 0.05 and sups[30] < sups[15]
    _report(11, "exterior potential of the zero counting measure", ok,
            f"sup error n=30: {sups[30]:.2e} (< 0.05), "
            f"n=15: {sups[15]:.2e} (decreasing)")


def test_criterion_12_fekete(cavity_potential):
    rng = np.random.default_rng(4)
    z = 1.5 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    fd = gradient_fd_check(z, cavity_potential)
    geom = classify_support(cavity_potential)
    res = minimize(200, cavity_potential, seed=0, n_starts=1)
    rep = discrepancy(res, geom)
    bound = 3.0 / math.sqrt(200)
    ok = (fd < 1e-6 and rep["fraction_inside"] >= 0.97
          and rep["max_annulus_discrepancy"] < bound)
    _report(12, "Fekete point configuration", ok,
            f"gradient FD error {fd:.2e} (< 1e-6), "
            f"fraction inside support {rep['fraction_inside']:.3f} (>= 0.97), "
            f"annulus discrepancy {rep['max_annulus_discrepancy']:.4f} "
            f"(< {bound:.4f})")
