import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargedgauss as cg
from chargedgauss import equilibrium, orthopoly
from chargedgauss.equilibrium import (DiskWithCavities, ExteriorMap,
                                      NoRootError, UnsupportedGeometry,
                                      _exterior_map_potential,
                                      classify_support, effective_potential,
                                      mesh_axis, outer_radius, robin_constant,
                                      solve_exterior_map, support_area,
                                      system_residuals, verify_equilibrium)
from chargedgauss.measures import PerturbedPotential, PointChargeMeasure


def test_outer_radius(cavity_potential):
    assert np.isclose(outer_radius(cavity_potential), math.sqrt(1.5))


def test_classify_cavity_case(cavity_potential):
    geom = classify_support(cavity_potential)
    assert isinstance(geom, DiskWithCavities)
    (a, r), = geom.cavities
    assert a == 0.3 and np.isclose(r, math.sqrt(0.5))
    assert np.isclose(geom.area(), math.pi)
    assert geom.contains(-1.0)  # in the disk, away from the cavity
    assert not geom.contains(0.3)  # inside the cavity
    assert not geom.contains(2.0)  # outside the disk


def test_classify_rejects_overlapping_cavities():
    p = PerturbedPotential(alpha=2.0, nu=PointChargeMeasure(
        ((0.1, 0.2), (0.2, 0.2))))
    with pytest.raises(UnsupportedGeometry):
        classify_support(p)


def test_classify_rejects_multi_charge_escape():
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(
        ((0.3, 0.5), (3.0, 0.5))))
    with pytest.raises(UnsupportedGeometry):
        classify_support(p)


def test_classify_dispatches_to_exterior_map():
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)))
    geom = classify_support(p)
    assert isinstance(geom, ExteriorMap)


def test_exterior_map_worked_example(exterior_map):
    em = exterior_map
    assert np.max(system_residuals(em, 0.5, 0.5, 2.0)) < 1e-10
    assert abs(support_area(em) - math.pi) < 1e-10
    # non-intersecting regime: the cubic has two (0,1) roots and the
    # physical one is the smaller
    assert np.isclose(abs(em.A) ** 2, 0.19731103, atol=1e-6)
    assert not em.contains(2.0)
    assert em.contains(complex(np.mean(em.boundary(
        2 * np.pi * np.arange(64) / 64))))


def test_exterior_map_contains_matches_scalar_roots(exterior_map):
    em = exterior_map
    xs = np.linspace(-3.0, 3.0, 41)
    grid = (xs[None, :] + 1j * xs[:, None]).ravel()
    # images of circles just inside and outside the unit circle hug the
    # support boundary from both sides
    zeta = np.exp(2j * np.pi * np.arange(90) / 90)
    near = np.concatenate([em.map(zeta * (1.0 + d))
                           for d in (-1e-3, -1e-9, 1e-9, 1e-3)])
    z = np.concatenate([grid, near])
    got = em.contains(z)

    def scalar_contains(w):
        z1, z2 = em.zeta_roots(complex(w))
        return abs(z1) < 1.0 and abs(z2) < 1.0

    assert got.dtype == bool and got.shape == z.shape
    assert np.array_equal(got, [scalar_contains(w) for w in z])
    assert got.any() and not got.all()
    assert isinstance(em.contains(0.3 + 0.1j), bool)
    # both paths put the exterior sheet (larger |zeta|) first
    z1, z2 = em._preimages(z)
    assert np.all(np.abs(z1) >= np.abs(z2))
    assert all(abs(r1) >= abs(r2)
               for r1, r2 in (em.zeta_roots(complex(w)) for w in z))


def test_exterior_map_intersecting_regime():
    # cavity circle crosses the outer circle: unique cubic root
    em = solve_exterior_map(0.5, 0.5, 1.5)
    assert np.max(system_residuals(em, 0.5, 0.5, 1.5)) < 1e-10
    assert abs(em.area() - math.pi) < 1e-10


def test_exterior_map_on_the_negative_real_axis_is_real():
    # the direction a/|a| of a = -2 is -1 exactly, so A, u and v are real
    # and the map is that of a = 2 turned by pi, z -> -z, bit for bit
    em, neg = (solve_exterior_map(0.5, 0.5, a) for a in (2.0, -2.0))
    assert neg.A.imag == neg.u.imag == neg.v.imag == 0.0
    assert (neg.rho, neg.A, neg.u, neg.v) == (em.rho, -em.A, -em.u, em.v)
    assert equilibrium._real_symmetric(neg, PerturbedPotential(
        alpha=0.5, nu=PointChargeMeasure(((-2.0, 0.5),))))


def test_exterior_map_rejects_contained_cavity():
    with pytest.raises(NoRootError):
        solve_exterior_map(0.5, 0.5, 0.3)


@given(phi=st.floats(0.0, 2 * math.pi))
@settings(max_examples=20, deadline=None)
def test_exterior_map_rotation_equivariance(phi):
    em0 = solve_exterior_map(0.5, 0.5, 2.0)
    em1 = solve_exterior_map(0.5, 0.5, 2.0 * np.exp(1j * phi))
    # rotating the charge rotates the boundary and shifts its
    # parametrization by the same angle
    th = 2 * np.pi * np.arange(32) / 32
    b0 = em0.boundary(th - phi) * np.exp(1j * phi)
    b1 = em1.boundary(th)
    assert np.max(np.abs(b0 - b1)) < 1e-8


def test_robin_constant_cavity(cavity_potential):
    geom = classify_support(cavity_potential)
    F = robin_constant(geom, cavity_potential)
    assert np.isclose(F, 0.5 * 1.5 * (math.log(1 / 1.5) + 1))
    # equals the effective potential at interior points
    assert np.isclose(float(effective_potential(geom, cavity_potential,
                                                1.0 + 0.1j)[0]), F)


_EXTERIOR_MESH_CASES = [
    (0.5, 0.5, 2.0, 200),                                 # criterion 03
    (0.5, 0.5, 2.0, 199),                                 # an odd mesh
    (0.5, 0.5, -2.0, 200),                                # the mirror charge
    (1.5349565601577209, 0.6497336667932423,              # a deep bite
     -0.12961022181931692 - 0.30445041927152344j, 60),
]


@pytest.mark.parametrize("alpha, beta, a, n", _EXTERIOR_MESH_CASES)
def test_robin_constant_exterior_at_a_critical_value(alpha, beta, a, n):
    # F is the effective potential at f(zeta_+), a point of the support;
    # it agrees with the F of both mesh rules it replaces: the first
    # on-support node of smallest |z1|, and the on-support node farthest
    # from the boundary samples
    p = PerturbedPotential(alpha=alpha, nu=PointChargeMeasure(((a, beta),)),
                           N=2.0, gamma=2.0)
    geom = classify_support(p)
    zeta = geom.critical_points()[0]
    assert geom.contains(geom.map(zeta))
    F = robin_constant(geom, p)
    *_, F_deep, F_far = _full_mesh_report(geom, p, n)
    assert abs(F - F_deep) <= 1e-15
    assert abs(F - F_far) <= 1e-15


def test_robin_constant_just_past_the_transition():
    # a = R - r + 1e-6, just past the contained/exterior transition: F
    # differs from the deepest node's by 1.0e-10, as U^sigma + V itself
    # varies by about 1e-10 over the support's nodes, inside tol_on 1e-8
    R, r = math.sqrt(1.5), math.sqrt(0.5)
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(
        ((R - r + 1e-6, 0.5),)), N=2.0, gamma=2.0)
    geom = classify_support(p)
    assert isinstance(geom, ExteriorMap)
    F = robin_constant(geom, p)
    *_, F_deep, F_far = _full_mesh_report(geom, p, 200)
    assert abs(F - F_deep) <= 2e-10 and abs(F - F_far) <= 2e-10
    rep = verify_equilibrium(geom, p, {"n": 200})
    assert rep.robin_constant == F
    assert rep.max_dev_on < 1e-9
    assert rep.passed


def test_effective_potential_off_support(cavity_potential):
    geom = classify_support(cavity_potential)
    F = robin_constant(geom, cavity_potential)
    for z in [2.0 + 0j, 0.3 + 0.01j, 3j]:
        assert float(effective_potential(geom, cavity_potential, z)[0]) > F


def test_verify_equilibrium_cavity(cavity_potential):
    rep = verify_equilibrium(classify_support(cavity_potential),
                             cavity_potential, {"n": 80})
    assert rep.passed
    assert rep.max_dev_on < 1e-12


def test_verify_equilibrium_exterior(exterior_map):
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)))
    rep = verify_equilibrium(exterior_map, p, {"n": 80})
    assert rep.passed


@pytest.mark.parametrize("spec", [{"N": 200}, {"tol": 1e-4},
                                  {"n": 40, "margin": 1.0}])
def test_verify_equilibrium_rejects_unknown_keys(exterior_map, spec):
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)))
    unknown = sorted(set(spec) - {"n"})
    with pytest.raises(ValueError, match=re.escape(str(unknown))):
        verify_equilibrium(exterior_map, p, spec)


@pytest.mark.parametrize("alpha, beta, a", [
    # criterion 02 draws whose boundary-sample mean u lies in the bite,
    # outside the support
    (1.5349565601577209, 0.6497336667932423,
     -0.12961022181931692 - 0.30445041927152344j),
    (1.6154630189964023, 0.859711408113607,
     0.014279677711985605 - 0.31069652642999995j),
])
def test_verify_equilibrium_exterior_deep_bite(alpha, beta, a):
    p = PerturbedPotential(alpha=alpha, nu=PointChargeMeasure(((a, beta),)))
    geom = classify_support(p)
    assert not geom.contains(geom.u)
    rep = verify_equilibrium(geom, p, {"n": 60})
    assert rep.passed


@pytest.mark.parametrize("alpha, beta, a", [
    # criterion 02 draws with |A| = 0.94 and 0.81, whose boundaries a
    # 4,096-sample contour quadrature under-resolves (off-support margins
    # -1.6e-7 and -6.4e-7 against tol_off 1e-8)
    (1.8706939488798846, 0.33616145829463673,
     0.05476695717498928 + 0.3355933320065999j),
    (0.31049932914672085, 0.947582296674085,
     0.799244809730694 - 0.10584828700894237j),
])
def test_verify_equilibrium_exterior_drawn(alpha, beta, a):
    p = PerturbedPotential(alpha=alpha, nu=PointChargeMeasure(((a, beta),)),
                           N=2.0, gamma=2.0)
    rep = verify_equilibrium(classify_support(p), p, {"n": 200})
    assert rep.tol_on == 1e-8
    assert rep.passed


def test_verify_equilibrium_criterion_03_masks(exterior_map):
    # every node of criterion 03's grid is on the support (the preimage
    # test) or off it
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)),
                           N=2.0, gamma=2.0)
    rep = verify_equilibrium(exterior_map, p, {"n": 200, "tol_on": 1e-4})
    assert (rep.n_on, rep.n_off) == (10092, 29908)
    assert rep.n_on + rep.n_off == 200**2
    assert rep.max_dev_on < 1e-14


def test_verify_equilibrium_counts_the_charge_node():
    # n = 201 puts a node on the charge at 0, where V = +inf: it counts
    # off the support with margin +inf, and nothing warns
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.0, 0.5),)),
                           N=4.0, gamma=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_equilibrium(classify_support(p), p, {"n": 201})
    assert rep.n_on + rep.n_off == 201**2
    assert rep.passed


def test_verify_equilibrium_sees_the_boundary_band(monkeypatch,
                                                   cavity_potential):
    # a 1e-6 error in U^sigma + V within 0.015 of the outer circle, on
    # nodes a boundary collar would skip, fails the check
    geom = classify_support(cavity_potential)
    R = geom.outer_radius

    def defect(geom, p, z):
        u = effective_potential(geom, p, z)
        return u + 1e-6 * (np.abs(np.abs(z) - R) < 0.015)

    assert verify_equilibrium(geom, cavity_potential).passed
    monkeypatch.setattr(equilibrium, "effective_potential", defect)
    rep = verify_equilibrium(geom, cavity_potential)
    assert rep.max_dev_on > 5e-7
    assert not rep.passed


def _full_mesh_report(geom, p, n):
    """verify_equilibrium's masks, F and deviations on its mesh
    (`mesh_axis`), over the whole mesh at once: the potential at every
    node, on-support nodes by geom.contains and F = robin_constant.  For
    an exterior map it also gives F by the two mesh rules that came
    before: F_deep, the effective potential at the first on-support node
    of smallest |z1|, z1 the larger preimage, and F_far, at the
    on-support node farthest from every 8th of 720 boundary samples, by
    the full distance matrix.  Returns (F, max_dev_on, min_margin_off,
    n_on, n_off, F_deep, F_far); F_deep and F_far are None for a disk."""
    xs = mesh_axis(geom, n)
    z = (xs[None, :] + 1j * xs[:, None]).ravel()
    u = effective_potential(geom, p, z)
    on = geom.contains(z)
    F, F_deep, F_far = robin_constant(geom, p), None, None
    if isinstance(geom, ExteriorMap):
        bpts = geom.boundary(np.linspace(0.0, 2.0 * np.pi, 720,
                                         endpoint=False))
        z_deep = z[on][np.argmin(np.abs(geom._preimages(z[on])[0]))]
        F_deep = float(effective_potential(geom, p, z_deep)[0])
        far = np.min(np.abs(z[on][:, None] - bpts[None, ::8]), axis=1)
        F_far = float(effective_potential(geom, p, z[on][np.argmax(far)])[0])
    return (F, float(np.max(np.abs(u[on] - F))), float(np.min(u[~on] - F)),
            int(on.sum()), int((~on).sum()), F_deep, F_far)


@pytest.mark.parametrize("alpha, beta, a, n", [
    *_EXTERIOR_MESH_CASES,
    (0.5, 0.5, 0.3, 80),                                  # a cavity
])
def test_verify_equilibrium_matches_full_mesh(monkeypatch, alpha, beta, a,
                                              n):
    # the row-block stream gives the whole mesh's report, and evaluates
    # effective_potential at one point, f(zeta_+) for an exterior map, where
    # robin_constant takes F.  A real charge's mesh is folded across the
    # real axis, and its report is the whole mesh's bit for bit
    tol = 0.0 if complex(a).imag == 0.0 else 1e-15
    p = PerturbedPotential(alpha=alpha, nu=PointChargeMeasure(((a, beta),)),
                           N=2.0, gamma=2.0)
    geom = classify_support(p)
    F, dev, margin, n_on, n_off, _, _ = _full_mesh_report(geom, p, n)
    points = []

    def spy(geom, p, z):
        points.append(z)
        return effective_potential(geom, p, z)

    monkeypatch.setattr(equilibrium, "effective_potential", spy)
    rep = verify_equilibrium(geom, p, {"n": n})
    if isinstance(geom, ExteriorMap):
        f_crit = geom.map(geom.critical_points()[0])
        assert len(points) == 1
        assert abs(points[0] - f_crit) <= 1e-15 * abs(f_crit)
    assert (rep.n_on, rep.n_off) == (n_on, n_off)
    assert abs(rep.robin_constant - F) <= tol
    assert abs(rep.max_dev_on - dev) <= tol
    assert abs(rep.min_margin_off - margin) <= tol
    assert rep.passed


def test_verify_equilibrium_on_a_mesh_that_misses_the_support(
        exterior_map):
    # the 2 x 2 mesh's nodes are the corners of its square, all off the
    # support; F needs no mesh node, and the report counts them all
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)),
                           N=2.0, gamma=2.0)
    rep = verify_equilibrium(exterior_map, p, {"n": 2})
    assert (rep.n_on, rep.n_off) == (0, 4)
    assert rep.max_dev_on == 0.0 and rep.min_margin_off > 0.0
    assert rep.robin_constant == robin_constant(exterior_map, p)
    assert rep.passed


@pytest.mark.parametrize("charges, n, nodes", [
    (((2.0, 0.5),), 200, 200 * 100),                      # criterion 03
    (((2.0, 0.5),), 199, 199 * 100),                      # an odd mesh
    (((-2.0, 0.5),), 60, 60 * 30),
    (((0.3, 0.5),), 81, 81 * 41),                         # a cavity
    (((2.0 * np.exp(0.7j), 0.5),), 60, 60 * 60),          # tilted
    (((0.3 + 0.4j, 0.1), (0.3 - 0.4j, 0.1)), 61, 61 * 61),  # a pair
])
def test_verify_equilibrium_folds_real_charges(monkeypatch, charges, n,
                                               nodes):
    # a real charge's mesh is evaluated on its rows y <= 0 only, n
    # ceil(n/2) nodes; a tilted charge or a conjugate pair, whose charge
    # sum a mirror reorders, evaluates all n^2.  An exterior map also
    # evaluates V at f(zeta_+), where robin_constant takes F
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(charges),
                           N=2.0, gamma=2.0)
    geom = classify_support(p)
    sizes = []
    value_grid = PerturbedPotential.value_grid

    def spy(self, z):
        sizes.append(np.size(z))
        return value_grid(self, z)

    monkeypatch.setattr(PerturbedPotential, "value_grid", spy)
    rep = verify_equilibrium(geom, p, {"n": n})
    assert sum(sizes) == nodes + isinstance(geom, ExteriorMap)
    assert rep.n_on + rep.n_off == n * n
    assert rep.passed


def test_mesh_axis_is_antisymmetric(exterior_map, cavity_potential):
    # xs[i] == -xs[n-1-i], an odd mesh's middle node 0.0, and the upper
    # half np.linspace's
    for geom in (exterior_map, classify_support(cavity_potential)):
        for n in (2, 59, 60, 199, 200):
            xs = mesh_axis(geom, n)
            ref = np.linspace(-xs[-1], xs[-1], n)
            assert np.array_equal(xs, -xs[::-1])
            assert np.array_equal(xs[n // 2 + n % 2:], ref[n // 2 + n % 2:])
            assert np.all(np.diff(xs) > 0)


@pytest.mark.parametrize("n", [200, 400])
def test_verify_equilibrium_memory_is_bounded(exterior_map, n):
    # node x boundary-sample matrices once peaked at 23.1 MB (n = 200)
    # and 91.9 MB (n = 400); the row blocks, with no n x n collar mask,
    # stay below 1.5 MB
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)),
                           N=2.0, gamma=2.0)
    tracemalloc.start()
    try:
        rep = verify_equilibrium(exterior_map, p, {"n": n})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 1.5e6


def region_log_potential(boundary_pts, boundary_elems, z):
    """Reference: U^S(z) = -int_S log|z-w| dm(w) for the region S enclosed
    by the sampled boundary, reduced to a contour integral by Stokes,

        int_S log|z-w| dm(w) = (1/2i) oint F(w) dw,
        F(w) = (conj(w) - conj(z)) (log|z-w|^2 - 1) / 2,

    and summed by the trapezoid rule.  boundary_elems are the complex
    line elements w'(theta) * dtheta, positively oriented."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=float)
    chunk = 256
    for i in range(0, z.size, chunk):
        zz = z[i:i + chunk, None]
        d = zz - boundary_pts[None, :]
        F = (np.conj(boundary_pts)[None, :] - np.conj(zz)) \
            * (np.log(np.abs(d) ** 2) - 1.0) / 2.0
        out[i:i + chunk] = -np.real(np.sum(F * boundary_elems[None, :],
                                           axis=1) / 2j)
    return out


def _criterion_02_draws(rng, k):
    for _ in range(k):
        alpha = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.1, 1.0)
        R = math.sqrt((1.0 + beta) / (2.0 * alpha))
        r = math.sqrt(beta / (2.0 * alpha))
        t = (R - r) + rng.uniform(0.05, 0.95) * (2.0 * r)
        yield alpha, beta, t * np.exp(2j * np.pi * rng.uniform())


def _criterion_02_maps(rng, k):
    for draw in _criterion_02_draws(rng, k):
        yield solve_exterior_map(*draw)


def _general_maps(rng, k):
    while k:
        rho = rng.uniform(0.5, 2.0)
        em = ExteriorMap(
            rho=rho, u=complex(*rng.normal(size=2)),
            v=rho * rng.uniform(0.0, 1.0) ** 2 * np.exp(2j * np.pi * rng.uniform()),
            A=rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        if em.is_univalent():
            k -= 1
            yield em


def test_exterior_potential_matches_contour_quadrature():
    rng = np.random.default_rng(11)
    n = 65536
    th = 2 * np.pi * np.arange(n) / n
    coarse = th[::64]
    n_in = n_out = 0
    for em in [*_criterion_02_maps(rng, 50), *_general_maps(rng, 50)]:
        bpts = em.boundary(coarse)
        c = complex(np.mean(bpts))
        ext = float(np.max(np.abs(bpts - c))) + 0.5
        z = c + ext * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
        z = z[np.min(np.abs(z[:, None] - bpts[None, :]), axis=1) > 0.05]
        inside = em.contains(z)
        z = np.concatenate([z[inside][:4], z[~inside][:4]])
        n_in += int(inside.sum() > 0)
        n_out += int((~inside).sum() > 0)
        # boundary element d f(e^{i theta}) / d theta = f'(zeta) i zeta
        zeta = np.exp(1j * th)
        ref = region_log_potential(
            em.boundary(th),
            em.map_derivative(zeta) * 1j * zeta * (2 * np.pi / n), z)
        assert np.max(np.abs(_exterior_map_potential(em, z) - ref)) < 1e-12
    assert n_in == n_out == 100


def test_exterior_potential_is_continuous_across_the_boundary():
    # the reflection of a preimage into the disk switches at |zeta| = 1,
    # which the contour test keeps away from.  The log potential of a set
    # of area |S| is Lipschitz with constant 2 sqrt(pi |S|), so the images
    # of (1 +- delta) e^{i theta} differ in U by at most that times their
    # distance; a wrong branch of the reflection would jump by O(1)
    rng = np.random.default_rng(12)
    circle = np.exp(2j * np.pi * np.arange(97) / 97)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for em in [*_criterion_02_maps(rng, 30), *_general_maps(rng, 30)]:
            lip = 2.0 * math.sqrt(math.pi * em.area())
            for delta in (1e-9, 1e-6):
                z_out = em.map((1.0 + delta) * circle)
                z_in = em.map((1.0 - delta) * circle)
                assert not em.contains(z_out).any()
                assert em.contains(z_in).all()
                jump = np.abs(_exterior_map_potential(em, z_out)
                              - _exterior_map_potential(em, z_in))
                worst = max(worst, float(np.max(
                    jump / (lip * np.abs(z_out - z_in)))))
    assert worst <= 1.0


def test_exterior_map_preimages_solve_their_quadratic():
    # both returned roots satisfy rho zeta^2 + (u - z - A rho) zeta
    # + A(z - u) + v = 0, the larger in modulus first, at random points
    # and within 1e-6 of the branch points f(A +- sqrt(v/rho)), where the
    # discriminant vanishes (at a branch point itself the double root's
    # two evaluations, q/rho and c/q, may differ in the last bit)
    rng = np.random.default_rng(13)
    for em in [*_criterion_02_maps(rng, 20), *_general_maps(rng, 20)]:
        s = np.sqrt(complex(em.v) / em.rho)
        branch = em.map(em.A + np.array([s, -s]))
        near = branch[:, None] + 1e-6 * rng.uniform(size=(2, 50)) * np.exp(
            2j * np.pi * rng.uniform(size=(2, 50)))
        z = np.concatenate([
            em.u + 3.0 * em.rho * (rng.normal(size=200)
                                   + 1j * rng.normal(size=200)),
            near.ravel()])
        z1, z2 = em._preimages(z)
        assert np.all(np.abs(z1) >= np.abs(z2))
        for zeta in (z1, z2):
            terms = [em.rho * zeta**2, (em.u - z - em.A * em.rho) * zeta,
                     em.A * (z - em.u), em.v]
            residual = np.abs(sum(terms)) / sum(np.abs(t) for t in terms)
            assert np.max(residual) < 1e-12


def test_disk_with_cavities_contains_vectorised(cavity_potential):
    geom = classify_support(cavity_potential)
    (c, r), = geom.cavities
    R = geom.outer_radius
    # 40 points: no grid point falls on a boundary circle to rounding
    xs = np.linspace(-2.0, 2.0, 40)
    grid = (xs[None, :] + 1j * xs[:, None]).ravel()
    rim = np.exp(2j * np.pi * np.arange(16) / 16)
    near = np.concatenate([np.concatenate([R * rim * f, c + r * rim * f])
                           for f in (1.0 - 1e-9, 1.0 + 1e-9)])
    z = np.concatenate([grid, near])
    got = geom.contains(z)

    def scalar_contains(w):
        w = complex(w)
        return abs(w) <= R and abs(w - c) >= r

    assert got.dtype == bool and got.shape == z.shape
    assert np.array_equal(got, [scalar_contains(w) for w in z])
    assert got.any() and not got.all()
    assert isinstance(geom.contains(-1.0), bool)
    # both boundary circles belong to the support
    exact = DiskWithCavities(outer_radius=2.0, cavities=((0.5 + 0j, 0.5),))
    assert exact.contains(np.array([0.0, 1.0, 0.5 + 0.5j, 2.0, -2.0j])).all()
    assert not exact.contains(np.array([0.5, 0.75, 2.0 + 1e-15])).any()


def test_exterior_potential_far_field(exterior_map):
    # far away the support looks like a point mass of its total measure;
    # the leftover dipole term decays like area*|centroid|/|z|
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((2.0, 0.5),)))
    z = 500.0 + 70.0j
    u = float(effective_potential(exterior_map, p, z)[0]) - float(
        p.value_grid(np.array([z]))[0])
    dens = 2 * p.alpha / math.pi
    assert abs(u - dens * exterior_map.area() * math.log(1 / abs(z))) < 1e-3


def test_radius_bound_check(cavity_potential, cavity_ops):
    # the zeros of P_1 .. P_12 lie in the closed disk B(0, R + 0.1)
    R = outer_radius(cavity_potential)
    for n in range(1, 13):
        zeros = orthopoly.compute_zeros(cavity_ops, n).zeros
        assert np.all(np.abs(zeros) <= R + 0.1)
