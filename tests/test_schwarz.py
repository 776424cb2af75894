import cmath
import math

import numpy as np
import pytest

import chargedgauss as cg
from chargedgauss import schwarz
from chargedgauss.equilibrium import (ExteriorMap, outer_radius,
                                      solve_exterior_map)
from chargedgauss.measures import PerturbedPotential, PointChargeMeasure
from chargedgauss.orthopoly import ZeroSet
from chargedgauss.schwarz import (CavityDeltaS, DegenerateMap, ExteriorDeltaS,
                                  SelfIntersection, SignFlip, boundary_curve,
                                  branch_points, connecting_trajectories,
                                  critical_trajectories,
                                  effective_zero_density,
                                  equilibrium_measure_potential,
                                  external_potential_compare,
                                  zero_attractor_candidates)


def test_boundary_identity(exterior_map, schwarz_value):
    bc = boundary_curve(exterior_map, 720)
    zc = np.conj(bc.points)
    s1, s2 = (schwarz_value(exterior_map, zeta)
              for zeta in exterior_map._preimages(bc.points))
    assert np.max(np.minimum(np.abs(s1 - zc), np.abs(s2 - zc))) < 1e-10


def test_boundary_area(exterior_map):
    bc = boundary_curve(exterior_map, 8192)
    assert abs(_signed_area(bc.points) - math.pi) < 1e-6


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


def test_circle_schwarz_function(schwarz_value):
    # v -> 0 limit: boundary is a circle of radius rho around u
    em = ExteriorMap(rho=1.3, u=0.2, v=1e-14, A=0.4)
    z = 2.0 + 1.0j
    expected = 1.3**2 / (z - 0.2) + 0.2
    assert min(abs(schwarz_value(em, zeta) - expected)
               for zeta in em._preimages(z)) < 1e-9


def test_branch_points_zero_discriminant(exterior_map):
    # the images of the critical points, where f' = 0, are the roots of
    # the discriminant of the sheet quadratic in zeta
    em = exterior_map
    bps = branch_points(em)
    crit = em.critical_points()
    assert len(bps) == 2
    for z, zeta in zip(bps, crit):
        assert abs(em.map_derivative(zeta)) < 1e-15
        assert abs(z - em.map(zeta)) < 1e-15
        b = em.u - z - em.A * em.rho
        c = em.A * (z - em.u) + em.v
        assert abs(b * b - 4 * em.rho * c) < 1e-12


def test_branch_points_symmetric_and_inside(exterior_map):
    bps = branch_points(exterior_map)
    assert abs(bps[0] - np.conj(bps[1])) < 1e-8
    for z in bps:
        assert exterior_map.contains(z)


def test_circle_degenerate_branch_points():
    em = ExteriorMap(rho=1.3, u=0.2, v=1e-16, A=0.4)
    with pytest.raises(DegenerateMap):
        branch_points(em)


def test_circle_exact_branch_points_degenerate():
    # v = 0 is a circle: f(zeta_+-) is taken without dividing by v/(zeta - A)
    em = ExteriorMap(rho=1.3, u=0.2, v=0.0, A=0.4)
    with pytest.raises(DegenerateMap):
        branch_points(em)


def test_exterior_trajectories(exterior_map):
    # three launches per branch point, but the two curves joining the
    # branch points are traced once each: 2 of them and 2 exit rays
    trajs = critical_trajectories(exterior_map)
    assert len(trajs) == 4
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


def _cavity_jump_field(p):
    """Jump field of the single-cavity disk that is p's support."""
    ds = zero_attractor_candidates(p)[0]
    assert isinstance(ds, CavityDeltaS)
    return ds


def test_cavity_field_critical_points(cavity_potential):
    ds = _cavity_jump_field(cavity_potential)
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
    assert steps == [2e-3] * 2   # two loops, each traced once
    assert all(t.end_tag == "closed" for t in trajs)
    assert max(t.max_residual for t in trajs) < 2e-4


def test_cavity_centred_at_zero_launches_nothing(monkeypatch):
    # dS = (R^2 - r^2)/z: its pole is no launch point, and no curve is
    # traced
    traced = []
    monkeypatch.setattr(schwarz, "_trace", lambda *a: traced.append(a))
    ds = CavityDeltaS(R=1.0, a=0.0, r=0.5)
    assert ds.critical_points().size == 0 and ds.launch_points() == []
    assert critical_trajectories(ds) == []
    assert traced == []


def test_support_trajectories_decide_per_support(exterior_map):
    disk = cg.DiskWithCavities(outer_radius=1.0, cavities=())
    assert schwarz.support_trajectories(disk) == (None, [])
    two = cg.DiskWithCavities(outer_radius=2.0,
                              cavities=((0.5, 0.2), (-0.5, 0.2)))
    with pytest.raises(cg.UnsupportedGeometry):
        schwarz.support_trajectories(two)
    ds, trajs = schwarz.support_trajectories(exterior_map)
    assert isinstance(ds, ExteriorDeltaS)
    ref = critical_trajectories(ExteriorDeltaS(exterior_map))
    assert len(trajs) == len(ref) == 4
    for t, u in zip(trajs, ref):
        assert np.array_equal(t.points, u.points)


def test_cavity_field_carries_its_launch_data(cavity_potential):
    # the field alone gives zero_attractor_candidates' loops
    ds = _cavity_jump_field(cavity_potential)
    assert ds.launch_points() == [z for z in ds.critical_points()
                                  if abs(z - ds.a) < ds.r]
    assert ds.escape_radius == 3.0 * outer_radius(cavity_potential)
    got = connecting_trajectories(critical_trajectories(ds))
    want = zero_attractor_candidates(cavity_potential)[1]
    assert len(got) == len(want) > 0
    for t, u in zip(got, want):
        assert np.array_equal(t.points, u.points)
        assert t.end_tag == u.end_tag


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


@pytest.mark.parametrize("a", [2.0, 0.3])
def test_equilibrium_measure_potential_unit_mass(a):
    # exterior map (a = 2) and cavity (a = 0.3): mu_Q has mass 1, so
    # U^{mu_Q}(z) = log 1/|z| + O(1/|z|) far out
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((a, 0.5),)),
                           N=2.0, gamma=2.0)
    z = 1e4 * np.exp(2j * np.pi * np.arange(16) / 16)
    u = equilibrium_measure_potential(p, z)
    assert np.max(np.abs(u + np.log(np.abs(z)))) < 1e-3


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


# ---------------------------------------------------------------------
# Reference: the z-plane tracer the sheet-parameter tracer replaced.  It
# solves the preimage quadratic at every field evaluation, relabels the
# sheets by nearest-zeta continuity with the previous call, and keeps the
# direction continuous by flipping it against the previous one.


class _ReferenceExteriorField:
    def __init__(self, geom, schwarz_value):
        self.geom, self.S, self.prev = geom, schwarz_value, None

    def reset(self):
        self.prev = None

    def __call__(self, z):
        z1, z2 = self.geom.zeta_roots(complex(z))
        if self.prev is not None:
            p1, p2 = self.prev
            if abs(z1 - p1) + abs(z2 - p2) > abs(z2 - p1) + abs(z1 - p2):
                z1, z2 = z2, z1
        elif abs(z1) < abs(z2):
            z1, z2 = z2, z1
        self.prev = (z1, z2)
        return self.S(self.geom, z1) - self.S(self.geom, z2)


class _ReferenceCavityField:
    def __init__(self, ds):
        self.ds = ds

    def reset(self):
        pass

    def __call__(self, z):
        return self.ds(z)


def _reference_weights(points, field):
    """Unnormalized (1/2pi) Im[dS(mid) dz], one scalar call per segment."""
    field.reset()
    mids = 0.5 * (points[:-1] + points[1:])
    return np.array([(field(m) * d).imag / (2.0 * math.pi)
                     for m, d in zip(mids, np.diff(points))])


def _reference_residual(points, field):
    field.reset()
    worst = 0.0
    for m, d in zip(0.5 * (points[:-1] + points[1:]), np.diff(points)):
        s = field(m)
        if abs(s) * abs(d) > 0:
            worst = max(worst, abs((s * d).real) / (abs(s) * abs(d)))
    return worst


def _reference_trace(field, z0, origin, init_dir, step, stop_points,
                     escape_radius, ds_tol=1e-9, max_steps=100000):
    field.reset()
    prev_dir = [init_dir]

    def f(z):
        d = field(z)
        m = abs(d)
        if m == 0:
            return 0.0
        u = 1j * d.conjugate() / m
        if (u * prev_dir[0].conjugate()).real < 0:
            u = -u
        return u

    singular = [origin] + list(stop_points)
    pts, z, end, travelled = [z0], z0, "maxsteps", 0.0
    for _ in range(max_steps):
        h = min(step, max(0.1 * min(abs(z - s) for s in singular), 1e-7))
        k1 = f(z)
        if k1 == 0.0:
            end = "node"
            break
        prev_dir[0] = k1
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z_new = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        travelled += abs(z_new - z)
        z = z_new
        pts.append(z)
        prev_dir[0] = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if abs(field(z)) < ds_tol:
            end = "node"
            break
        if abs(z) > escape_radius:
            end = "exit"
            break
        if travelled > 20.0 * step:
            if any(abs(z - bp) < 0.5 * step for bp in stop_points):
                end = "branch"
                break
            if abs(z - z0) < 1.5 * step:
                end = "closed"
                break
    points = np.array(pts)
    return end, points, _reference_residual(points, field)


def _reference_trajectories(field, starts, escape_radius, step=2e-3,
                            tol=1e-3, offset=1e-6):
    out = []
    for z0 in starts:
        others = [b for b in starts if b != z0]
        field.reset()
        v1 = field(z0 + 1e-5)
        field.reset()
        v2 = field(z0 + 2e-5)
        p = 0.5 if abs(math.log2(abs(v2) / abs(v1)) - 0.5) < 0.25 else 1.0
        psi0 = (0.5 * math.pi - cmath.phase(v1)) / (p + 1.0)
        for m in range(int(round(2 * (p + 1)))):
            psi = psi0 + m * math.pi / (p + 1.0)
            h = step
            while True:
                tr = _reference_trace(field, z0 + offset * cmath.exp(1j * psi),
                                      z0, cmath.exp(1j * psi), h, others,
                                      escape_radius)
                if tr[2] < tol or tr[0] == "node":
                    break
                h *= 0.5
            out.append(tr)
    return out


def _criterion_02_draws(k):
    """The first k (alpha, beta, a) of criterion 02's generator."""
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(k):
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.1, 1.0))
        R = math.sqrt((1.0 + beta) / (2.0 * alpha))
        r = math.sqrt(beta / (2.0 * alpha))
        t = (R - r) + rng.uniform(0.05, 0.95) * (2.0 * r)
        draws.append((alpha, beta,
                      complex(t * np.exp(2j * np.pi * rng.uniform()))))
    return draws


def _segment_distance(points, poly):
    """Distance of each point to the nearest segment of the polyline poly,
    in blocks of 256 points."""
    a, ab = poly[:-1], np.diff(poly)
    out = np.empty(len(points))
    for i in range(0, len(points), 256):
        z = points[i:i + 256, None]
        t = np.clip(((z - a) * ab.conj()).real / np.abs(ab) ** 2, 0.0, 1.0)
        out[i:i + 256] = np.min(np.abs(z - a - t * ab), axis=1)
    return out


def _chord_sagitta(poly):
    """The largest chord sagitta of a polyline, L * theta / 8 for a
    segment of length L that turns by theta from the one before it."""
    d = np.diff(poly)
    return float(np.max(np.abs(d[1:]) * np.abs(np.angle(d[1:] / d[:-1])))
                 / 8.0)


def _compare_to_reference(trajs, ref, starts, escape):
    """Each returned curve against the reference curve of the same launch
    (the one starting nearest to it): the reference traces every launch,
    so a curve joining two vanishing points appears there twice.  The
    tags agree, every returned point inside escape lies within twice the
    reference polyline's chord sagitta of it (a 'branch' or 'closed'
    reference extended to the vanishing point it ends at), and the
    residual is at most 10 % above the reference's."""
    same = [ref[int(np.argmin([abs(r[1][0] - t.points[0]) for r in ref]))]
            for t in trajs]
    assert [t.end_tag for t in trajs] == [r[0] for r in same]
    for t, (end, pts, _) in zip(trajs, same):
        if end in ("branch", "closed"):
            pts = np.append(pts, min(starts, key=lambda b: abs(b - pts[-1])))
        # only an exit ray's last step, at most 10 points, runs past escape
        inside = np.abs(t.points) <= escape
        n = int(np.sum(inside))
        assert np.all(inside[:n]) and len(t.points) - n <= 10
        assert np.max(_segment_distance(t.points[:n], pts)) \
            <= 2.0 * _chord_sagitta(pts)
    new = max(t.max_residual for t in trajs)
    old = max(r[2] for r in same)
    assert new <= 1.1 * old


def test_zeta_tracer_matches_z_plane_reference(exterior_map, schwarz_value):
    draws = _criterion_02_draws(3)
    assert any(abs(a.imag) > 0.1 for _, _, a in draws)  # an off-axis charge
    maps = [exterior_map] + [solve_exterior_map(*d) for d in draws]
    th = 2.0 * np.pi * np.arange(256) / 256
    for em in maps:
        trajs = critical_trajectories(em)
        escape = 2.0 * float(np.max(np.abs(em.boundary(th))))
        starts = [complex(z) for z in branch_points(em)]
        ref = _reference_trajectories(
            _ReferenceExteriorField(em, schwarz_value), starts, escape)
        _compare_to_reference(trajs, ref, starts, escape)


def test_cavity_attractor_matches_z_plane_reference():
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3, 0.5),)),
                           N=2.0, gamma=2.0)
    ds, trajs = zero_attractor_candidates(p)
    crit = [complex(z) for z in ds.critical_points() if abs(z - ds.a) < ds.r]
    escape = 3.0 * outer_radius(p)
    ref = _reference_trajectories(_ReferenceCavityField(ds), crit, escape)
    _compare_to_reference(trajs, ref, crit, escape)


def test_cavity_loops_conserve_the_harmonic_potential():
    # Re[dS dz] = 0 is dF = 0 for F = R^2 log|z| - Re(conj(a) z)
    # - r^2 log|z - a|, whose z-derivative is dS/2: each loop is a level
    # line of F through its launch zero, Hermite points included
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3, 0.5),)),
                           N=2.0, gamma=2.0)
    ds, trajs = zero_attractor_candidates(p)

    def F(z):
        return (ds.R ** 2 * np.log(np.abs(z)) - (np.conj(ds.a) * z).real
                - ds.r ** 2 * np.log(np.abs(z - ds.a)))

    assert len(trajs) == 2
    for t in trajs:
        z0 = min(ds.launch_points(), key=lambda b: abs(b - t.points[0]))
        assert np.max(np.abs(F(t.points) - F(z0))) < 1e-7


def test_exterior_trajectories_cost(exterior_map, monkeypatch):
    # steps sized by the curve's turning: the a = 2 map's three traced
    # curves take under 4,000 field evaluations (11,091 at fixed steps)
    calls = []
    flow = ExteriorDeltaS.flow

    def counted(self, zeta):
        calls.append(zeta)
        return flow(self, zeta)

    monkeypatch.setattr(ExteriorDeltaS, "flow", counted)
    trajs = critical_trajectories(exterior_map)
    assert len(trajs) == 4
    assert 0 < len(calls) <= 4000


def _traces_same_curve(t, u, tol=1e-2):
    """u runs along t backwards: their endpoints swap and every 50th
    point of u lies within tol of t."""
    if abs(t.points[0] - u.points[-1]) > tol \
            or abs(t.points[-1] - u.points[0]) > tol:
        return False
    d = np.abs(u.points[::50, None] - t.points[None, :])
    return float(np.max(np.min(d, axis=1))) < tol


def test_each_curve_traced_once(exterior_map):
    # no returned curve is another traced in reverse: branch-to-branch
    # curves (the a = 2 map and three criterion-02 draws) and the loops
    # of the cavity charge
    families = [critical_trajectories(em) for em in
                [exterior_map] + [solve_exterior_map(*d)
                                  for d in _criterion_02_draws(3)]]
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((0.3, 0.5),)),
                           N=2.0, gamma=2.0)
    families.append(zero_attractor_candidates(p)[1])
    for trajs in families:
        assert any(t.end_tag in ("branch", "closed") for t in trajs)
        for i, t in enumerate(trajs):
            for u in trajs[i + 1:]:
                assert not _traces_same_curve(t, u)


@pytest.mark.xfail(strict=True, reason="a saddle this close to its charge "
                   "returns one loop three times (ROADMAP item 11)")
@pytest.mark.parametrize("a,beta", [(0.2, 0.001), (0.05, 0.01)])
def test_small_cavity_loops_traced_once(a, beta):
    # the saddle lies within the tracer's closing radius of the charge, the
    # field's pole: the three loops returned run within 1.5e-3 of each
    # other, and the second loop of the four launch directions is missing
    p = PerturbedPotential(alpha=0.5, nu=PointChargeMeasure(((a, beta),)),
                           N=2.0, gamma=2.0)
    trajs = zero_attractor_candidates(p)[1]
    for i, t in enumerate(trajs):
        for u in trajs[i + 1:]:
            assert not _traces_same_curve(t, u)


def test_tracer_solves_no_quadratic_per_step(exterior_map, monkeypatch):
    calls = []
    roots = ExteriorMap.zeta_roots

    def counted(self, z):
        calls.append(z)
        return roots(self, z)

    monkeypatch.setattr(ExteriorMap, "zeta_roots", counted)
    trajs = critical_trajectories(exterior_map)
    assert len(calls) <= 3 * len(trajs)


def test_twin_branch_point_curves_are_reflected(exterior_map, monkeypatch):
    # the second branch point is the first's mirror image across the line
    # through 0 and the charge: only the first one's three launches are
    # traced, and the second's exit ray is the first's, reflected
    origins = []
    trace = schwarz._trace

    def counted(*args, **kwargs):
        origins.append(args[2])
        return trace(*args, **kwargs)

    monkeypatch.setattr(schwarz, "_trace", counted)
    for em in [exterior_map] + [solve_exterior_map(*d)
                                for d in _criterion_02_draws(3)]:
        origins.clear()
        trajs = critical_trajectories(em)
        assert origins == [complex(branch_points(em)[0])] * 3
        exits = [t for t in trajs if t.end_tag == "exit"]
        assert len(trajs) == 4 and len(exits) == 2
        ds = ExteriorDeltaS(em)
        twin = exits[1].points
        assert np.array_equal(twin,
                              cmath.exp(2j * ds.axis) * np.conj(exits[0].points))
        assert exits[1].max_residual == schwarz.trajectory_residual(twin, ds)
    # u off the line through 0 and A: no mirror, every direction is traced
    assert ExteriorDeltaS(ExteriorMap(rho=1.3, u=0.2j, v=0.1, A=0.4)).axis \
        is None


@pytest.mark.parametrize("alpha,beta,a", [(0.5, 0.5, 2.0),
                                          (1.2, 0.4, 0.9 + 0.3j)])
def test_exterior_field_escapes_at_twice_the_extent(alpha, beta, a):
    em = solve_exterior_map(alpha, beta, complex(a))
    assert ExteriorDeltaS(em).escape_radius == 2.0 * em.extent()


@pytest.mark.parametrize("alpha,beta,a", [(0.5, 0.5, 2.0),
                                          (1.2, 0.4, 0.9 + 0.3j)])
def test_exterior_density_matches_scalar_continuity(alpha, beta, a,
                                                   schwarz_value):
    em = solve_exterior_map(alpha, beta, complex(a))
    ds = ExteriorDeltaS(em)
    conn = connecting_trajectories(critical_trajectories(em))
    assert len(conn) >= 2
    for t in conn:
        _, w = effective_zero_density(t, ds)
        ref = _reference_weights(t.points,
                                 _ReferenceExteriorField(em, schwarz_value))
        ref = np.clip(ref * np.sign(np.sum(ref)), 0.0, None)
        assert np.max(np.abs(w - ref / np.sum(ref))) <= 1e-15


def test_exterior_density_sign_flip_detection(exterior_map):
    ds = ExteriorDeltaS(exterior_map)
    t = connecting_trajectories(critical_trajectories(exterior_map))[0]
    n, k = len(t.points), len(t.points) // 2
    conjugated = t.points.copy()
    conjugated[k: k + n // 4] = np.conj(conjugated[k: k + n // 4])
    reversed_block = t.points.copy()
    reversed_block[k: k + 50] = reversed_block[k: k + 50][::-1]
    for bad in (conjugated, reversed_block):
        corrupted = type(t)(points=bad, start_tag=t.start_tag,
                            end_tag=t.end_tag, max_residual=t.max_residual)
        with pytest.raises(SignFlip):
            effective_zero_density(corrupted, ds)


def test_exterior_field_continues_around_a_branch_point(exterior_map,
                                                       schwarz_value):
    # a loop around a square-root branch point swaps the sheets: the
    # exterior-sheet label jumps where |zeta_1| = |zeta_2|, while
    # continuity brings dS back as -dS
    bp = branch_points(exterior_map)[0]
    path = bp + 0.05 * np.exp(2j * np.pi * np.arange(401) / 400)
    d = ExteriorDeltaS(exterior_map)(path)
    ref = _ReferenceExteriorField(exterior_map, schwarz_value)
    expected = np.array([ref(z) for z in path])
    assert np.max(np.abs(d - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert abs(d[-1] + d[0]) <= 1e-12 * abs(d[0])
