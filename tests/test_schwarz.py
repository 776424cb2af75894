import math

import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss import schwarz
from chargedgauss.equilibrium import ExteriorMap, outer_radius
from chargedgauss.measures import PerturbedPotential, PointChargeMeasure
from chargedgauss.orthopoly import ZeroSet
from chargedgauss.schwarz import (CavityDeltaS, DegenerateMap, ExteriorDeltaS,
                                  SelfIntersection, SignFlip, boundary_curve,
                                  branch_points, cavity_jump_field,
                                  connecting_trajectories,
                                  critical_trajectories,
                                  effective_zero_density,
                                  equilibrium_measure_potential,
                                  external_potential_compare, schwarz_branches,
                                  schwarz_value, zero_attractor_candidates)


def test_boundary_identity(exterior_map):
    bc = boundary_curve(exterior_map, 720)
    worst = 0.0
    for z in bc.points:
        br = schwarz_branches(exterior_map, z)
        worst = max(worst, min(abs(br.s_plus - np.conj(z)),
                               abs(br.s_minus - np.conj(z))))
    assert worst < 1e-10


def test_boundary_area(exterior_map):
    bc = boundary_curve(exterior_map, 8192)
    assert abs(bc.enclosed_area() - math.pi) < 1e-6


def _segments_intersect(p):
    """Any proper crossing among closed-polyline segments (vectorized)."""
    a, b = p, np.roll(p, -1)
    n = len(a)

    def cross(o, u, v):
        return (u.real - o.real) * (v.imag - o.imag) \
            - (u.imag - o.imag) * (v.real - o.real)

    A, B = a[:, None], b[:, None]
    C, D = a[None, :], b[None, :]
    d1 = cross(A, B, C)
    d2 = cross(A, B, D)
    d3 = cross(C, D, A)
    d4 = cross(C, D, B)
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    i, j = np.indices(hit.shape)
    adjacent = (np.abs(i - j) <= 1) | (np.abs(i - j) >= n - 1)
    return bool(np.any(hit & ~adjacent))


def _signed_area(w):
    return 0.5 * np.sum(w.real * np.roll(w.imag, -1)
                        - np.roll(w.real, -1) * w.imag)


def test_is_univalent_matches_sampled_boundary():
    # reference: the sampled boundary is a simple polyline traced
    # counterclockwise.  A critical point just outside the unit circle
    # folds the boundary into a loop smaller than the sample spacing, so
    # maps within 0.01 of the threshold are beyond the reference and
    # skipped (about 2 % of the draws).
    rng = np.random.default_rng(3)
    zeta = np.exp(2j * np.pi * np.arange(128) / 128)
    checked = accepted = 0
    for _ in range(1000):
        rho = rng.uniform(0.5, 2.0)
        em = ExteriorMap(
            rho=rho, u=complex(*rng.normal(size=2)),
            v=rho * rng.uniform(0.0, 1.0) ** 2 * np.exp(2j * np.pi * rng.uniform()),
            A=rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        s = np.sqrt(complex(em.v / em.rho))
        if abs(max(abs(em.A + s), abs(em.A - s)) - 1.0) < 0.01:
            continue
        w = em.map(zeta)
        simple_ccw = not _segments_intersect(w) and _signed_area(w) > 0
        assert em.is_univalent() == simple_ccw
        checked += 1
        accepted += simple_ccw
    assert checked > 950 and 0.3 < accepted / checked < 0.7


def test_boundary_curve_rejects_reversed_orientation():
    # critical points 0.6 +- 0.837i lie outside the unit circle: the
    # sampled boundary has no crossing but runs clockwise
    em = ExteriorMap(rho=1.0, u=0.0, v=-0.7, A=0.6)
    w = em.boundary(2 * np.pi * np.arange(720) / 720)
    assert not _segments_intersect(w)
    assert _signed_area(w) < 0
    with pytest.raises(SelfIntersection):
        boundary_curve(em)


def test_circle_schwarz_function():
    # v -> 0 limit: boundary is a circle of radius rho around u
    em = ExteriorMap(rho=1.3, u=0.2, v=1e-14, A=0.4)
    z = 2.0 + 1.0j
    br = schwarz_branches(em, z)
    expected = 1.3**2 / (z - 0.2) + 0.2
    assert min(abs(br.s_plus - expected), abs(br.s_minus - expected)) < 1e-9


def test_branch_points_zero_discriminant(exterior_map):
    bps = branch_points(exterior_map)
    assert len(bps) == 2
    for z in bps:
        b = exterior_map.u - z - exterior_map.A * exterior_map.rho
        c = exterior_map.A * (z - exterior_map.u) + exterior_map.v
        assert abs(b * b - 4 * exterior_map.rho * c) < 1e-12


def test_branch_points_symmetric_and_inside(exterior_map):
    bps = branch_points(exterior_map)
    assert abs(bps[0] - np.conj(bps[1])) < 1e-8
    for z in bps:
        assert exterior_map.contains(z)


def test_circle_degenerate_branch_points():
    em = ExteriorMap(rho=1.3, u=0.2, v=1e-16, A=0.4)
    with pytest.raises(DegenerateMap):
        branch_points(em)


def test_exterior_trajectories(exterior_map):
    trajs = critical_trajectories(exterior_map)
    assert len(trajs) == 6  # three per branch point
    assert all(t.max_residual < 1e-3 for t in trajs)
    conn = connecting_trajectories(trajs)
    assert len(conn) >= 1
    bps = branch_points(exterior_map)
    # at least one trajectory joins the two branch points
    joined = any(abs(t.points[0] - bps[0]) < 1e-4
                 and abs(t.points[-1] - bps[1]) < 1e-2 for t in trajs)
    joined |= any(abs(t.points[0] - bps[1]) < 1e-4
                  and abs(t.points[-1] - bps[0]) < 1e-2 for t in trajs)
    assert joined


def test_trajectories_conjugation_symmetric(exterior_map):
    # real charge location: the trajectory family maps to itself under conj
    trajs = critical_trajectories(exterior_map)
    allpts = np.concatenate([t.points for t in trajs])
    for t in trajs:
        sample = t.points[:: max(1, len(t.points) // 50)]
        d = np.min(np.abs(np.conj(sample)[:, None] - allpts[None, :]), axis=1)
        assert np.max(d) < 5e-3


def test_cavity_field_critical_points(cavity_potential):
    ds = cavity_jump_field(cavity_potential)
    crit = np.sort(ds.critical_points().real)
    assert np.allclose(np.sort_complex(ds.critical_points()).imag, 0)
    assert np.isclose(crit[0], 0.47492236, atol=1e-6)
    assert np.isclose(crit[1], 3.15841097, atol=1e-6)
    for z in crit:
        assert abs(ds(z)) < 1e-12


def test_cavity_attractor_loops(cavity_potential):
    ds, trajs = zero_attractor_candidates(cavity_potential)
    assert len(trajs) >= 1
    assert all(t.end_tag == "closed" for t in trajs)
    assert all(t.max_residual < 1e-3 for t in trajs)


def test_cavity_attractor_traced_once_per_launch(monkeypatch):
    # a closing chord back to the start point would pass the saddle and
    # force every launch to be retraced at halved steps
    steps = []
    trace = schwarz._trace

    def counted(*args, **kwargs):
        steps.append(args[4])
        return trace(*args, **kwargs)

    monkeypatch.setattr(schwarz, "_trace", counted)
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3, 0.5),)),
                           N=2.0, gamma=2.0)
    _, trajs = zero_attractor_candidates(p)
    assert steps == [2e-3] * 4
    assert all(t.end_tag == "closed" for t in trajs)
    assert max(t.max_residual for t in trajs) < 2e-4


def test_effective_zero_density(cavity_potential):
    ds, trajs = zero_attractor_candidates(cavity_potential)
    mids, w = effective_zero_density(trajs[0], ds)
    assert np.isclose(np.sum(w), 1.0)
    assert np.all(w >= 0)
    rng = np.random.default_rng(1)
    R = outer_radius(cavity_potential)
    zs = 2 * R * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    pot = np.array([np.sum(w * np.log(1 / np.abs(z - mids))) for z in zs])
    exact = equilibrium_measure_potential(cavity_potential, zs)
    assert np.max(np.abs(pot - exact)) < 0.02


def test_external_potential_trivial_gaussian():
    # empty measure: all zeros at 0 and U^{mu_Q} = log 1/|z| outside
    p = PerturbedPotential(alpha=0.5, nu=cg.EMPTY_MEASURE, N=2.0, gamma=2.0)
    zs = ZeroSet(n=5, zeros=np.zeros(5, dtype=complex), max_residual=0.0)
    rep = external_potential_compare(zs, p, np.array([2.0 + 1.0j, -3.0j]))
    assert rep["sup_error"] < 1e-12


def test_density_sign_flip_detection(cavity_potential):
    ds, trajs = zero_attractor_candidates(cavity_potential)
    t = trajs[0]
    # corrupt the polyline so no orientation gives one-signed weights
    bad = t.points.copy()
    k = len(bad) // 2
    bad[k: k + len(bad) // 4] = np.conj(bad[k: k + len(bad) // 4])
    corrupted = type(t)(points=bad, start_tag=t.start_tag, end_tag=t.end_tag,
                        max_residual=t.max_residual)
    with pytest.raises(SignFlip):
        effective_zero_density(corrupted, ds)
