import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss.measures import PerturbedPotential, PointChargeMeasure
from chargedgauss.orthopoly import (build_orthopolys, compute_zeros,
                                    one_point_function, reconstruct_coeffs,
                                    zero_potential_grid)
from chargedgauss.planarquad import (CLD, LD, build_grid, inner_product,
                                     polynomial_rule)

DEFAULT_CHARGE = PointChargeMeasure(((0.3 + 0.0j, 0.5),))
# a tilted direction: 0.3 TILT and -0.5 TILT are on one line through 0
# only to within rounding
TILT = np.exp(2j * np.pi * 0.37)


def test_radial_norms_match_oracle(radial_potential, radial_grid,
                                   radial_norm_oracle):
    ops = build_orthopolys(radial_potential, radial_grid, 10)
    for k in range(11):
        assert np.isclose(float(ops.norms[k]),
                          radial_norm_oracle(radial_potential, k), rtol=1e-10)


def test_charge_at_origin_norms(radial_norm_oracle):
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.0, 0.5),)),
                           N=2.0)
    g = build_grid(p, orders=(24, 64), max_degree=20)
    ops = build_orthopolys(p, g, 8)
    for k in range(9):
        assert np.isclose(float(ops.norms[k]), radial_norm_oracle(p, k),
                          rtol=1e-8)


def test_monic_leading_coefficient(cavity_ops):
    for c in cavity_ops.monic_coeffs:
        assert complex(c[-1]) == 1.0 + 0.0j


def test_gram_residual_small(cavity_ops):
    assert cavity_ops.gram_residual < 1e-8


def _mgs2_hessenberg(nodes, weights, n_max):
    """Arnoldi on the rule (nodes, weights) by modified Gram-Schmidt with
    a full second pass, one inner product and one axpy at a time, in
    clongdouble."""
    def ip(f, g):
        return np.sum(f * np.conj(g))

    sq = np.sqrt(weights).astype(CLD)
    q = [sq / np.sqrt(np.real(ip(sq, sq)))]
    H = np.zeros((n_max + 2, n_max + 1), dtype=CLD)
    for k in range(n_max):
        v = nodes * q[k]
        for _pass in range(2):
            for j in range(k + 1):
                hj = ip(v, q[j])
                v = v - hj * q[j]
                H[j, k] += hj
        H[k + 1, k] = np.sqrt(np.real(ip(v, v)))
        q.append(v / H[k + 1, k])
    return H


def _unfolded_rule(p, grid, n):
    """`polynomial_rule(p, grid, n)` unfolded: when folded, its columns and
    their mirror images, back in the plane's frame, each doubled weight
    halved."""
    x, w, phi = polynomial_rule(p, grid, n)
    if phi is not None:
        c = p.angular_degree()
        L = grid.angular_order if c is None else n + c + 1
        off = slice(1, (L + 1) // 2)
        w[:, off] /= 2
        x = np.concatenate([x, np.conj(x[:, off])], axis=1) \
            * np.exp(CLD(1j) * LD(phi))
        w = np.concatenate([w, w[:, off]], axis=1)
    return x.ravel(), w.ravel()


def test_hessenberg_matches_mgs2_reference(cavity_potential, cavity_grid,
                                           cavity_ops):
    # the folded Arnoldi against MGS2 on the same rule, unfolded
    ref = _mgs2_hessenberg(*_unfolded_rule(cavity_potential, cavity_grid, 12),
                           12)
    assert cavity_ops.hessenberg.dtype == CLD
    assert np.max(np.abs(cavity_ops.hessenberg - ref)) < 1e-17


def _mirror_case(charges, n=12):
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(charges), N=4.0,
                           gamma=2.0)
    grid = build_grid(p, orders=(24, 128), max_degree=2 * n)
    return p, grid, build_orthopolys(p, grid, n)


def test_mirror_grid_off_axis_charge():
    phi = 0.7
    p, grid, ops = _mirror_case(((0.3 * np.exp(1j * phi), 0.5),))
    assert abs(polynomial_rule(p, grid, 12)[2] - phi) < 1e-15
    assert ops.gram_residual < 5e-17
    ref = _mgs2_hessenberg(*_unfolded_rule(p, grid, 12), 12)
    assert np.max(np.abs(ops.hessenberg - ref)) < 1e-17


def test_mirror_grid_charges_on_both_sides():
    # -2a is exactly on the line through 0 and a
    a = 0.3 * np.exp(0.7j)
    p, grid, ops = _mirror_case(((a, 0.5), (-2 * a, 0.3)))
    phi = polynomial_rule(p, grid, 12)[2]
    assert abs(np.exp(2j * phi) - np.exp(1.4j)) < 1e-15
    ref = _mgs2_hessenberg(*_unfolded_rule(p, grid, 12), 12)
    assert np.max(np.abs(ops.hessenberg - ref)) < 1e-17


@pytest.mark.parametrize("charges,phi", [
    # a conjugate pair of equal masses: the real axis is a mirror line
    (((0.3 + 0.2j, 0.25), (0.3 - 0.2j, 0.25)), 0.0),
    (((0.3 + 0.2j, 0.5), (0.3 - 0.2j, 0.5)), 0.0),
    # unequal masses, or charges on a line only to within rounding
    (((0.3 + 0.2j, 0.25), (0.3 - 0.2j, 0.5)), None),
    (((0.3 * TILT, 0.5), (-0.5 * TILT, 0.3)), None),
])
def test_mirror_decision(charges, phi):
    # folded or not, the Arnoldi runs on its rule exactly as MGS2 does
    p, grid, ops = _mirror_case(charges)
    assert polynomial_rule(p, grid, 12)[2] == phi
    ref = _mgs2_hessenberg(*_unfolded_rule(p, grid, 12), 12)
    assert np.max(np.abs(ops.hessenberg - ref)) < 1e-17


def test_non_collinear_charges_use_full_grid():
    p, grid, ops = _mirror_case(((0.3, 0.5), (0.4j, 0.3), (-0.2 - 0.3j, 0.2)))
    assert polynomial_rule(p, grid, 12)[2] is None
    ref = _mgs2_hessenberg(grid.nodes, grid.measure_weights, 12)
    assert np.max(np.abs(ops.hessenberg - ref)) < 1e-17


def _exact_norms(exact_gram, p, n):
    """h_0..h_n of an exact-class weight, by Cholesky of its moment
    matrix (`conftest._exact_gram`) in mpmath."""
    with mp.workdps(60):
        L = mp.cholesky(exact_gram(p, n))
        return [mp.re(L[k, k]) ** 2 for k in range(n + 1)]


def _norm_error(h, exact):
    """Max relative error of the longdouble norms h against the oracle's;
    each h_k enters exactly, as the sum of two doubles."""
    lo = h - h.astype(float)
    with mp.workdps(40):
        return max(abs(float((mp.mpf(float(hi)) + mp.mpf(float(e))) / x - 1))
                   for hi, e, x in zip(h, lo, exact))


@pytest.mark.parametrize("charges,n,N,T,rule", [
    # criterion 05's charge at N = 2n: with beta = 0.5 the weight is a
    # trigonometric polynomial of degree 15 on circles, and the Arnoldi
    # runs on 23 radii x 24 folded columns; N*beta/2 = 10.5 keeps the grid
    (((0.3, 0.5),), 30, 60, 256, (23, 24)),
    (((0.3, 0.35),), 30, 60, 256, (144, 129)),
    (((2.0, 0.5),), 20, 40, 256, (16, 16)),
    (((2.0, 0.5),), 30, 60, 256, (23, 24)),
    # non-collinear charges, c = 2 and 3: the unfolded rule
    (((0.3, 0.5), (0.4j, 0.5)), 12, 4, 128, (8, 15)),
    (((0.3, 0.5), (0.4j, 0.5), (-0.2 - 0.3j, 0.5)), 12, 4, 128, (8, 16)),
    # a charge at 0 is radial: c = 0, then c = 10 with an off-axis charge
    (((0.0, 0.35),), 20, 40, 256, (11, 11)),
    (((0.0, 0.35), (0.3 * np.exp(0.7j), 0.5)), 20, 40, 256, (16, 16)),
    # 4 radii per panel on 8 rings put the grid's h_k 51 % off; the rule
    # does not read the grid
    ((), 30, 60, 128, (16, 16)),
    (((0.3, 0.5),), 60, 120, 384, (46, 46)),
    # a charge on a tilted line: folded in its own frame, where it is
    # exactly real
    (((0.3 * TILT, 0.5),), 50, 100, 256, (38, 39)),
])
def test_rule_arnoldi_matches_full_grid_reference(exact_gram, charges, n, N,
                                                  T, rule):
    # exact-class weights: h_k against the exact-moment oracle, and H
    # against MGS2 on the same rule, unfolded; the others, on the real
    # axis: H against MGS2 on the full grid, whose nodes the rule keeps
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(charges), N=N,
                           gamma=2.0)
    grid = build_grid(p, orders=(4 if not charges else 24, T),
                      max_degree=2 * n)
    assert polynomial_rule(p, grid, n)[0].shape == rule
    ops = build_orthopolys(p, grid, n)
    if p.angular_degree() is None:
        assert all(a.imag == 0 for a, _ in p.nu.charges)
        ref = _mgs2_hessenberg(grid.nodes, grid.measure_weights, n)
    else:
        err = _norm_error(ops.norms, _exact_norms(exact_gram, p, n))
        assert err < 1e-16
        ref = _mgs2_hessenberg(*_unfolded_rule(p, grid, n), n)
    assert np.max(np.abs(ops.hessenberg - ref)) < 1e-17


def test_rule_arnoldi_leaves_grid_weight_unevaluated():
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=40.0, gamma=2.0)
    grid = build_grid(p, orders=(24, 256), max_degree=40)
    build_orthopolys(p, grid, 20)
    assert "weight_values" not in grid.__dict__


def test_rule_arnoldi_does_not_depend_on_the_grid():
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=40.0, gamma=2.0)
    H = [build_orthopolys(p, build_grid(p, orders=orders, max_degree=40),
                          20).hessenberg
         for orders in [(4, 64), (24, 384)]]
    assert np.array_equal(*H)


def test_rule_arnoldi_ignores_the_grids_degree():
    # a grid built for degree 0 has 16 angles, too few for the grid's own
    # degree-40 moments; the exact class never reads them
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=40.0, gamma=2.0)
    coarse = build_grid(p, orders=(4, 16))
    assert coarse.angular_order == 16
    H = [build_orthopolys(p, grid, 20).hessenberg
         for grid in (coarse, build_grid(p, orders=(24, 384)), None)]
    assert all(np.array_equal(H[0], h) for h in H[1:])


def test_weight_outside_exact_class_builds_its_grid():
    # N*beta/2 = 3.3: the Arnoldi runs on the rings of build_grid's own
    # grid for the degree-20 moments, given or not
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3, 0.33),)),
                           N=20.0, gamma=2.0)
    assert p.angular_degree() is None
    assert np.array_equal(
        build_orthopolys(p, None, 10).hessenberg,
        build_orthopolys(p, build_grid(p, max_degree=20), 10).hessenberg)


def test_grid_of_another_potential_rejected(cavity_potential, radial_grid):
    # the rule would otherwise be the radial weight's, and so would H,
    # labelled as the cavity charge's
    with pytest.raises(ValueError, match="different potential"):
        build_orthopolys(cavity_potential, radial_grid, 10)


@pytest.mark.parametrize("a,n,T", [
    # the CLI default charge: its grids at n = 40 and 50 were once cut at
    # 1.3, which put h_k 20 % off
    (0.3, 40, 256), (0.3, 40, 384), (0.3, 50, 256), (0.3, 50, 384),
    # criterion 03's exterior charge: the grid's h_k were 1.6e-10 off at
    # n = 30
    (2.0, 20, 256), (2.0, 30, 256),
])
def test_norms_match_exact_moment_oracle(exact_gram, a, n, T):
    # beta = 0.5 and N = 2n: w = |z - a|^n exp(-n |z|^2), so c = n/2
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((a, 0.5),)),
                           N=2.0 * n, gamma=2.0)
    grid = build_grid(p, orders=(24, T), max_degree=2 * n)
    h = build_orthopolys(p, grid, n).norms
    assert _norm_error(h, _exact_norms(exact_gram, p, n)) < 1e-16


def _exact_zeros(exact_gram, p, n, dps=300):
    """Zeros of the monic P_n, whose coefficients solve
    sum_k c_k <z^k, z^j> = -<z^n, z^j>, j < n, at dps digits."""
    with mp.workdps(dps):
        G = exact_gram(p, n, dps)
        c = mp.lu_solve(G[:n, :n].T, -G[n, :n].T)
        roots = mp.polyroots([1] + [c[k] for k in range(n - 1, -1, -1)],
                             maxsteps=200, extraprec=50)
        return np.array([complex(r) for r in roots])


@pytest.mark.parametrize("turn,n,tol", [
    (0.0, 20, 1e-12), (0.0, 30, 1e-8),
    # on a tilted line, folded in the charge's own frame: a fold that took
    # the charge as on the line put them 1.0e-12 and 8.7e-10 off
    (0.37, 20, 1e-13), (0.37, 30, 1e-10),
])
def test_exterior_zeros_match_exact_oracle(exact_gram, turn, n, tol):
    # criterion 03's exterior charge 2 e^{2 pi i turn}: the grid's H put
    # the n = 30 zeros 1.9e-2 off
    a = 2.0 * np.exp(2j * np.pi * turn)
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((a, 0.5),)),
                           N=2.0 * n, gamma=2.0)
    grid = build_grid(p, orders=(24, 256), max_degree=2 * n)
    zeros = compute_zeros(build_orthopolys(p, grid, n), n).zeros
    ref = _exact_zeros(exact_gram, p, n)
    d = np.abs(zeros[:, None] - ref[None, :])
    assert max(d.min(axis=0).max(), d.min(axis=1).max()) < tol


def test_gram_residual_extended_precision():
    # criterion 05's configuration; complex double arithmetic would
    # leave about 1.5e-16
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=80.0, gamma=2.0)
    grid = build_grid(p, orders=(24, 256), max_degree=80)
    assert build_orthopolys(p, grid, 40).gram_residual < 5e-17


def test_norm_positivity(cavity_ops):
    assert np.all(np.asarray(cavity_ops.norms, dtype=float) > 0)


def test_orthogonality_between_monic_polys(cavity_grid, cavity_ops):
    vals = [cavity_ops.evaluate(k, cavity_grid.nodes) for k in range(6)]
    for j in range(6):
        for k in range(j):
            ip = inner_product(cavity_grid, vals[j], vals[k])
            scale = math.sqrt(float(cavity_ops.norms[j])
                              * float(cavity_ops.norms[k]))
            assert abs(ip) / scale < 1e-10


def _horner(coeffs, z):
    """Monic polynomial from its ascending coefficients, by Horner in
    clongdouble."""
    z = np.asarray(z, dtype=CLD)
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def test_recurrence_matches_horner(cavity_potential, cavity_grid, cavity_ops):
    z = cavity_grid.nodes
    rho = np.zeros(z.shape)
    for k in range(cavity_ops.n_max + 1):
        ref = _horner(cavity_ops.monic_coeffs[k], z)
        got = cavity_ops.evaluate(k, z)
        assert got.dtype == CLD
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        if k < 5:
            rho += np.abs(ref.astype(complex)) ** 2 / float(cavity_ops.norms[k])
    rho *= cavity_potential.weight_grid(z.astype(complex)) / 5
    got = one_point_function(cavity_ops, 5, z.astype(complex))
    assert np.max(np.abs(got - rho)) <= 1e-12 * np.max(rho)


def test_angular_order_precondition():
    # N*beta/2 = 0.33: the Arnoldi runs on the grid, whose 64 angles
    # cannot resolve the degree-200 moments
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3, 0.33),)),
                           N=2.0, gamma=2.0)
    grid = build_grid(p, orders=(24, 64), max_degree=24)
    with pytest.raises(ValueError):
        build_orthopolys(p, grid, 100)


def test_monomial_zeros(radial_potential, radial_grid):
    ops = build_orthopolys(radial_potential, radial_grid, 6)
    zs = compute_zeros(ops, 5)
    assert np.all(zs.zeros == 0)
    assert zs.max_residual == 0.0


def test_zero_residual_and_product_form(cavity_ops):
    zs = compute_zeros(cavity_ops, 8)
    assert zs.max_residual < 1e-10
    rec = reconstruct_coeffs(zs)
    ref = np.asarray(cavity_ops.monic_coeffs[8], dtype=complex)
    assert np.max(np.abs(rec - ref)) / np.max(np.abs(ref)) < 1e-8


def _hessenberg_eigenvalues(H, n, dps=30):
    """Eigenvalues of H[:n, :n] to dps digits, by Newton's method on
    p_n(z), proportional to det(zI - H_n), with p_n and p_n' from the
    orthonormal recurrence p_{k+1} = (z p_k - sum_j H[j,k] p_j) / H[k+1,k]."""
    start = np.linalg.eigvals(np.asarray(H[:n, :n], dtype=complex))
    out = []
    with mp.workdps(dps + 10):
        h = [[mp.mpc(str(H[j, k].real), str(H[j, k].imag))
              for k in range(n)] for j in range(n + 1)]
        for z in map(mp.mpc, start):
            for _ in range(50):
                p, dp = [mp.mpc(1)], [mp.mpc(0)]
                for k in range(n):
                    s = mp.fsum(h[j][k] * p[j] for j in range(k + 1))
                    ds = mp.fsum(h[j][k] * dp[j] for j in range(k + 1))
                    p.append((z * p[k] - s) / h[k + 1][k])
                    dp.append((p[k] + z * dp[k] - ds) / h[k + 1][k])
                step = p[n] / dp[n]
                z -= step
                if abs(step) <= mp.mpf(10) ** -dps * max(1, abs(z)):
                    break
            out.append(complex(z))
    return np.array(out)


def test_zeros_match_hessenberg_eigenvalues():
    # the zeros are polished against the stored clongdouble coefficients,
    # not a double-rounded copy of them
    n = 30
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=2.0 * n, gamma=2.0)
    grid = build_grid(p, orders=(24, 256), max_degree=2 * n)
    ops = build_orthopolys(p, grid, n)
    zeros = compute_zeros(ops, n).zeros
    ref = _hessenberg_eigenvalues(ops.hessenberg, n)
    d = np.abs(zeros[:, None] - ref[None, :])
    assert max(d.min(axis=0).max(), d.min(axis=1).max()) < 1e-13


def test_zeros_match_hessenberg_eigenvalues_n50():
    n = 50
    p = PerturbedPotential(alpha=0.5, nu=DEFAULT_CHARGE, N=2.0 * n, gamma=2.0)
    grid = build_grid(p, orders=(24, 256), max_degree=2 * n)
    ops = build_orthopolys(p, grid, n)
    zeros = compute_zeros(ops, n).zeros
    ref = _hessenberg_eigenvalues(ops.hessenberg, n)
    d = np.abs(zeros[:, None] - ref[None, :])
    assert max(d.min(axis=0).max(), d.min(axis=1).max()) < 1e-12


def test_zeros_without_mpmath():
    code = (
        "import sys\n"
        "import chargedgauss as cg\n"
        "from chargedgauss.orthopoly import build_orthopolys, compute_zeros\n"
        "from chargedgauss.planarquad import build_grid\n"
        "p = cg.PerturbedPotential(alpha=0.5, nu=cg.PointChargeMeasure("
        "((0.3, 0.5),)), N=16.0, gamma=2.0)\n"
        "ops = build_orthopolys(p, build_grid(p, orders=(24, 64), "
        "max_degree=16), 8)\n"
        "assert compute_zeros(ops, 8).max_residual < 1e-10\n"
        "sys.exit('mpmath' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_zero_conjugation_symmetry(cavity_ops):
    # real charge locations force a conjugation-symmetric zero set;
    # match each conjugated zero to its nearest partner (sorting is
    # unstable under the ~1e-15 imaginary noise of near-real parts)
    zs = compute_zeros(cavity_ops, 8).zeros
    d = np.min(np.abs(np.conj(zs)[:, None] - zs[None, :]), axis=1)
    assert np.max(d) < 1e-9


def test_zero_rotation_equivariance():
    phi = 0.7
    res = {}
    for rot in [1.0, np.exp(1j * phi)]:
        p = PerturbedPotential(alpha=0.5,
                               nu=PointChargeMeasure(((0.3 * rot, 0.5),)),
                               N=8.0, gamma=2.0)
        g = build_grid(p, orders=(24, 96), max_degree=12)
        ops = build_orthopolys(p, g, 6)
        res[rot] = compute_zeros(ops, 6).zeros
    base = np.sort_complex(res[1.0] * np.exp(1j * phi))
    rotated = np.sort_complex(res[np.exp(1j * phi)])
    assert np.max(np.abs(base - rotated)) < 1e-8


def test_one_point_function_normalized(cavity_potential, cavity_grid,
                                       cavity_ops):
    rho = one_point_function(cavity_ops, 5,
                             cavity_grid.nodes.astype(complex))
    rho = rho.reshape(-1, cavity_grid.angular_order)
    mass = float(np.sum(cavity_grid.ring_areas.astype(float)[:, None] * rho))
    assert np.isclose(mass, 1.0, atol=1e-10)
    assert np.all(rho >= 0)


def test_one_point_function_decays(cavity_ops):
    assert one_point_function(cavity_ops, 5, np.array([6.0 + 0j]))[0] < 1e-10


def test_zero_potential_trivial(radial_potential, radial_grid):
    ops = build_orthopolys(radial_potential, radial_grid, 4)
    zs = compute_zeros(ops, 4)
    z = 2.0 + 1.0j
    assert np.isclose(float(zero_potential_grid(zs, z)), math.log(1 / abs(z)))
    assert float(zero_potential_grid(zs, 0.0)) == math.inf
    grid_val = zero_potential_grid(zs, np.array([z]))[0]
    assert np.isclose(grid_val, math.log(1 / abs(z)))


def test_compute_zeros_degree_validation(cavity_ops):
    with pytest.raises(ValueError):
        compute_zeros(cavity_ops, 99)
