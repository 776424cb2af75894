"""Schwarz function of the support boundary: branches, branch points,
critical trajectories of Re[dS * dz] = 0, the effective zero density
carried by the connecting trajectory, and external-potential comparisons
against the zero counting measure.

Exterior-map boundaries have a genuinely two-sheeted Schwarz function
(square-root branch points); the disk-with-cavity boundary contributes a
single-valued analytic jump field with simple zeros.  Both are traced by
the same integrator, whose state is the sheet parameter zeta for the
exterior map (where the jump is single-valued and the branch points are
regular) and z for the cavity field; each field carries its launch
points, local exponent and escape radius.  A single charge's jump field is
symmetric across the line through 0 and the charge, so the curves of a
vanishing point's mirror twin are reflected instead of traced.

support_trajectories alone decides which supports have critical
trajectories, and which: see there.

RK4 steps follow the curve's turning: each is sized so that the unit
z-velocity turns by about _TURN radians, capped at 10 _STEP and at a
tenth of the distance to the nearest vanishing point.  The returned
polyline samples each step's cubic Hermite interpolant (dense output,
Hairer, Norsett & Wanner, Solving ODEs I, II.6) at spacing at most _STEP,
from the end values the integrator already has.  The output spacing
_STEP, step limit _MAX_STEPS, turning target _TURN, residual bound
TRAJECTORY_TOL, launch offset _OFFSET and node threshold _DS_TOL are
module constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (DiskWithCavities, ExteriorMap,
                          UnsupportedGeometry, classify_support,
                          scaled_potential)
from .measures import PerturbedPotential
from .orthopoly import ZeroSet, zero_potential_grid

_STEP = 2e-3
_MAX_STEPS = 100000
_TURN = 0.02
TRAJECTORY_TOL = 1e-3
_OFFSET = 1e-6
_DS_TOL = 1e-9

class SelfIntersection(Exception):
    """Map not univalent on |zeta| >= 1: its boundary curve crosses
    itself, has a cusp, or runs clockwise."""


class DegenerateMap(Exception):
    """Map parameters collapse the two branch points onto each other."""


class StiffRegion(Exception):
    """Trajectory step underflowed while enforcing the residual bound."""


class SignFlip(Exception):
    """No orientation makes all density weights nonnegative."""


@dataclass(frozen=True)
class BoundaryCurve:
    theta: np.ndarray
    points: np.ndarray


def boundary_curve(geom: ExteriorMap, n_samples: int = 720) -> BoundaryCurve:
    if not geom.is_univalent():
        raise SelfIntersection("a critical point of the map lies on or "
                               "outside the unit circle")
    th = 2.0 * np.pi * np.arange(n_samples) / n_samples
    return BoundaryCurve(theta=th, points=geom.boundary(th))


def branch_points(geom: ExteriorMap) -> list:
    """Square-root branch points of the Schwarz function: the images
    (ExteriorMap.critical_value) of the critical points of f, in their
    order, kept where the critical point lies in the closed unit disk (to
    1e-12)."""
    crit = geom.critical_points()
    roots = [geom.critical_value(zeta) for zeta in crit]
    if abs(roots[0] - roots[1]) < 1e-7 * max(1.0, abs(roots[0])):
        # v -> 0 collapses the branch points onto each other, and the
        # boundary onto a circle, whose Schwarz function has no branch point
        raise DegenerateMap("branch points numerically coincident")
    return [z for z, zeta in zip(roots, crit) if abs(zeta) <= 1.0 + 1e-12]


class ExteriorDeltaS:
    """Jump field S_plus - S_minus of an exterior map.

    f identifies zeta and its sheet partner A + (v/rho)/(zeta - A) (see
    ExteriorMap.is_univalent), so on the sheet parameter the jump
    S(zeta) - S(partner) is single-valued, with the square-root branch
    points of the z-plane unfolded into simple zeros at the critical
    points of f, where zeta and its partner coincide.

    axis is the angle phi = arg A of the field's mirror line when f
    commutes with the reflection z -> e^{2i phi} conj(z): rho is real, so
    that holds when u e^{-i phi} and v e^{-2i phi} are real, as the map
    equations give (v = s e^{2i phi}, u = v/A).  The jump field then has
    dS(e^{2i phi} conj z) = e^{-2i phi} conj(dS(z)), and its critical
    trajectories are symmetric across the line.  axis is None for a map
    without the symmetry (to a relative 1e-12).  Its trajectories launch
    from the branch points (exponent 1/2) and exit at twice the support's
    extent."""

    exponent = 0.5

    def __init__(self, geom: ExteriorMap):
        self.geom = geom
        self.rho = float(geom.rho)
        self.u, self.v, self.A = (complex(c) for c in (geom.u, geom.v, geom.A))
        self._w = self.v / self.rho
        self._cv, self._cA = self.v.conjugate(), self.A.conjugate()
        e = self._cA / abs(self.A)   # e^{-i phi}
        symmetric = (abs((self.u * e).imag) <= 1e-12 * abs(self.u)
                     and abs((self.v * e * e).imag) <= 1e-12 * abs(self.v))
        self.axis = cmath.phase(self.A) if symmetric else None
        self.escape_radius = 2.0 * geom.extent()

    def launch_points(self) -> list:
        return branch_points(self.geom)

    def _jump(self, z1, z2):
        """S(z1) - S(z2) for two preimages of one point; the conj(u) terms
        cancel and the factor z1 - z2 carries the zero at a branch point."""
        return (z1 - z2) * (self._cv / ((1.0 - self._cA * z1)
                                        * (1.0 - self._cA * z2))
                            - self.rho / (z1 * z2))

    def __call__(self, z) -> np.ndarray:
        """dS at the points of a path z (array): S_plus is the exterior
        sheet (larger |zeta|) at the first point, and each later dS takes
        the sign that keeps Re(dS_i * conj(dS_{i-1})) nonnegative."""
        d = self._jump(*self.geom._preimages(
            np.atleast_1d(np.asarray(z, dtype=complex))))
        flip = np.where((d[1:] * d[:-1].conj()).real < 0, -1.0, 1.0)
        d[1:] *= np.cumprod(flip)
        return d

    # integrator interface: state zeta, in plain Python complex arithmetic

    def state(self, z: complex) -> complex:
        """The exterior-sheet preimage of z."""
        return self.geom.zeta_roots(z)[0]

    def point(self, zeta: complex) -> complex:
        return self.rho * zeta + self.u + self.v / (zeta - self.A)

    def flow(self, zeta: complex):
        """(dS, dz/dzeta) at the sheet parameter zeta."""
        t = zeta - self.A
        return (self._jump(zeta, self.A + self._w / t),
                self.rho - self.v / (t * t))


class CavityDeltaS:
    """Single-valued jump field for a disk-with-one-cavity boundary:
    dS(z) = R^2/z - conj(a) - r^2/(z - a), symmetric across the line
    through 0 and a, at angle axis = arg a.  Its trajectories launch from
    its simple zeros (exponent 1) inside the cavity and exit at 3R."""

    exponent = 1.0

    def __init__(self, R: float, a: complex, r: float):
        self.R, self.a, self.r = float(R), complex(a), float(r)
        self.axis = cmath.phase(self.a)
        self.escape_radius = 3.0 * self.R

    def __call__(self, z):
        a = self.a
        return self.R**2 / z - a.conjugate() - self.r**2 / (z - a)

    # integrator interface: the state is z itself

    def state(self, z: complex) -> complex:
        return z

    def point(self, z: complex) -> complex:
        return z

    def flow(self, z: complex):
        return self(z), 1.0

    def critical_points(self) -> np.ndarray:
        """Zeros of dS: roots of R^2 (z-a) - conj(a) z (z-a) - r^2 z other
        than 0, a root only for a = 0, where dS = (R^2 - r^2)/z has none."""
        a, R2, r2 = self.a, self.R**2, self.r**2
        roots = np.sort(np.roots(
            [-a.conjugate(), R2 + a.conjugate() * a - r2, -R2 * a]))
        return roots[roots != 0]

    def launch_points(self) -> list:
        return [z for z in self.critical_points() if abs(z - self.a) < self.r]


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray
    start_tag: str
    end_tag: str       # 'closed' | 'branch' | 'node' | 'exit' | 'maxsteps'
    max_residual: float

    @property
    def closed(self) -> bool:
        return self.end_tag == "closed"


def trajectory_residual(points: np.ndarray, ds_field) -> float:
    """max over segments of |Re[dS(mid) * dz]| / (|dS| |dz|)."""
    s = ds_field(0.5 * (points[:-1] + points[1:]))
    dz = np.diff(points)
    denom = np.abs(s) * np.abs(dz)
    ok = denom > 0
    return float(np.max(np.abs((s * dz).real[ok]) / denom[ok], initial=0.0))


def _trace(ds_field, z0: complex, origin: complex, init_dir: complex,
           step: float, stop_points) -> Trajectory:
    """RK4 for the unit-speed z-velocity sign * i * conj(dS)/|dS|, carried
    over to the field's state x by dx/dt = (dz/dt) / (dz/dx).  The sign is
    fixed once, from the launch direction init_dir; on the state the jump
    is single-valued, so the field never flips sign along the way.

    Steps h are in z arc length, the smallest of three bounds: the length
    over which the unit z-velocity turns by _TURN * step/_STEP radians at
    the previous step's curvature, growing at most 2x per step; 10 * step;
    and a tenth of the distance to the nearest singular point, where the
    direction field rotates on that length scale.  Halving step so scales
    the first two.  The stop tests run at step ends; 'branch' and
    'closed' fire within 1.5 step of a singular point, where the last
    bound keeps h below step.  The returned polyline is each step's cubic
    Hermite interpolant in z from its end points and end z-velocities, at
    ceil(h/step) points per step, so its spacing stays at most step and
    no field evaluation is added."""
    flow, point = ds_field.flow, ds_field.point
    x = ds_field.state(z0)
    d, dz_dx = flow(x)
    sign = -1.0 if (1j * d.conjugate() * init_dir.conjugate()).real < 0 \
        else 1.0

    def velocity(d, dz_dx):
        m = abs(d)
        if m == 0:
            return 0.0
        return sign * 1j * d.conjugate() / (m * dz_dx)

    singular = [origin] + list(stop_points)
    turn = _TURN * step / _STEP
    k1 = velocity(d, dz_dx)
    # per step: its length, and the z-velocity at its end
    hs, vel = [], [k1 * dz_dx]
    pts = [z0]
    z = z0
    end = "maxsteps"
    travelled = 0.0
    h_turn = math.inf
    for i in range(_MAX_STEPS):
        dmin = min(abs(z - s) for s in singular)
        h = min(h_turn, 10.0 * step, max(0.1 * dmin, 1e-7))
        if k1 == 0.0:
            end = "node"
            break
        k2 = velocity(*flow(x + 0.5 * h * k1))
        k3 = velocity(*flow(x + 0.5 * h * k2))
        k4 = velocity(*flow(x + h * k3))
        x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        z_new = point(x)
        travelled += abs(z_new - z)
        z = z_new
        pts.append(z)
        hs.append(h)
        d, dz_dx = flow(x)
        k1 = velocity(d, dz_dx)
        v = k1 * dz_dx
        theta = abs(cmath.phase(v * vel[-1].conjugate())) if v else 0.0
        h_turn = h * (2.0 if 2.0 * theta <= turn else turn / theta)
        vel.append(v)
        if abs(d) < _DS_TOL:
            end = "node"
            break
        if abs(z) > ds_field.escape_radius:
            end = "exit"
            break
        if travelled > 20.0 * step:
            if any(abs(z - bp) < 0.5 * step for bp in stop_points):
                end = "branch"
                break
            # the loop ends at its last RK4 point: a chord back to z0
            # would pass the saddle, where the field turns on the scale
            # of the distance to it
            if abs(z - z0) < 1.5 * step:
                end = "closed"
                break
    points = _hermite(np.array(pts), np.array(vel), np.array(hs), step)
    return Trajectory(points=points, start_tag="branch", end_tag=end,
                      max_residual=trajectory_residual(points, ds_field))


def _hermite(knots: np.ndarray, vel: np.ndarray, hs: np.ndarray,
             step: float) -> np.ndarray:
    """The cubic Hermite interpolant of each step between knots k and k+1
    (length hs[k], end z-velocities vel[k] and vel[k+1]) at
    m = ceil(hs[k]/step) equal parameter spacings, ending at each knot."""
    dz, hv0, hv1 = np.diff(knots), hs * vel[:-1], hs * vel[1:]
    # z0 + s (h v0 + s (3 dz - 2 h v0 - h v1 + s (h v0 + h v1 - 2 dz)))
    coeffs = (hv0 + hv1 - 2.0 * dz, 3.0 * dz - 2.0 * hv0 - hv1, hv0,
              knots[:-1])
    m = np.ceil(hs / step).astype(np.intp)
    ends = np.cumsum(m)
    k = np.repeat(np.arange(len(hs)), m)
    s = np.arange(1.0, len(k) + 1.0)
    s -= np.repeat(ends - m, m)
    s /= m[k]
    out = np.zeros(len(k) + 1, dtype=complex)
    for c in coeffs:   # Horner, in place on out[1:]
        out[1:] *= s
        out[1:] += c[k]
    out[0] = knots[0]
    out[ends] = knots[1:]
    return out


def critical_trajectories(field_fn) -> list:
    """Integral curves of Re[dS * dz] = 0 seeded at each point where dS
    vanishes, the launch points of the jump field field_fn; a field
    without launch points has none, and a support geometry in place of
    the field gives support_trajectories' curves.

    Near a vanishing point dS ~ C (z-z0)^p, p the field's exponent, and
    the admissible launch directions solve (p+1)*psi + arg C = pi/2
    (mod pi): three directions for a square-root branch point, four for a
    simple zero.  Each is integrated by RK4; if a returned polyline
    violates TRAJECTORY_TOL the step is halved and it is retraced.  Each
    curve is traced once, from the end launched first: a curve that ends
    at another vanishing point ('branch') or closes on its own ('closed')
    records its arrival direction there, the direction to its point 4
    steps before the end, and a later launch within half the launch
    spacing, pi/(2(p+1)), of a recorded arrival is skipped.  Exit rays
    and 'node' ends are always kept.

    The field is symmetric across the line at angle axis through 0 (None
    if it is not), so a vanishing point that is the mirror image of one
    launched from before, its twin, has the twin's curves reflected: a
    direction whose mirror image the twin launched along takes that
    curve's reflection, with its end tag and the residual of the
    reflected points, and records its arrival like a traced curve.  Only
    directions the twin did not launch along are traced.  A jump field
    provides launch_points, exponent, escape_radius, state, point, flow
    and axis, as CavityDeltaS does.
    """
    if isinstance(field_fn, (ExteriorMap, DiskWithCavities)):
        return support_trajectories(field_fn)[1]
    # numpy scalars would carry numpy arithmetic through every RK4 step
    starts = [complex(z) for z in field_fn.launch_points()]
    p = field_fn.exponent
    n_dir = int(round(2 * (p + 1)))  # 3 for p=1/2, 4 for p=1
    half = 0.5 * math.pi / (p + 1.0)   # half the launch spacing

    axis = field_fn.axis
    if axis is not None:
        turn = cmath.exp(2j * axis)   # the mirror is z -> turn * conj(z)

    trajs = []
    arrivals = {z: [] for z in starts}   # arrival angles of traced curves
    launched = {}   # start point -> (launch angle, curve) of each trace
    for z0 in starts:
        others = [b for b in starts if b != z0]
        # a probe at a real positive offset: its phase is arg C (mod pi)
        arg_c = cmath.phase(field_fn(np.array([z0 + 1e-5]))[0])
        psi0 = (0.5 * math.pi - arg_c) / (p + 1.0)
        # a point launched from before whose mirror image is z0
        twin = None if axis is None else next(
            (b for b in launched
             if abs(turn * b.conjugate() - z0) < 1e-3 * _OFFSET), None)
        launched[z0] = []
        for m in range(n_dir):
            psi = psi0 + 2.0 * m * half
            # this direction's curve was traced from its other end
            if any(abs(math.remainder(psi - chi, 2.0 * math.pi)) < half
                   for chi in arrivals[z0]):
                continue
            # the twin's curve launched along the mirror image of psi,
            # reflected, is this direction's curve
            mirrored = None if twin is None else next(
                (tr for chi, tr in launched[twin]
                 if abs(math.remainder(2.0 * axis - psi - chi, 2.0 * math.pi))
                 < half), None)
            if mirrored is not None:
                pts = turn * np.conj(mirrored.points)
                tr = Trajectory(points=pts, start_tag="branch",
                                end_tag=mirrored.end_tag,
                                max_residual=trajectory_residual(pts, field_fn))
            else:
                zstart = z0 + _OFFSET * cmath.exp(1j * psi)
                h = _STEP
                while True:
                    tr = _trace(field_fn, zstart, z0, cmath.exp(1j * psi), h,
                                others)
                    if tr.max_residual < TRAJECTORY_TOL or tr.end_tag == "node":
                        break
                    h *= 0.5
                    if h < 1e-9:
                        raise StiffRegion(
                            f"step underflow near {z0} direction {psi:.3f}")
                launched[z0].append((psi, tr))
            trajs.append(tr)
            if tr.end_tag in ("branch", "closed"):
                end = z0 if tr.closed else \
                    min(others, key=lambda b: abs(tr.points[-1] - b))
                arrivals[end].append(cmath.phase(tr.points[-5] - end))
    return trajs


def connecting_trajectories(trajs: list) -> list:
    """Bounded trajectories that start and end at vanishing points (or
    close on themselves): the candidates carrying the zero attractor."""
    return [t for t in trajs if t.end_tag in ("closed", "branch", "node")]


def effective_zero_density(traj: Trajectory, ds_field):
    """Per-segment weights (1/2pi) Im[dS(mid) * dz] along the trajectory,
    orientation-corrected and normalized to total mass 1.

    Returns (midpoints, weights).  Raises SignFlip when no global
    orientation makes all weights nonnegative.
    """
    pts = traj.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    w = (ds_field(mids) * np.diff(pts)).imag / (2.0 * math.pi)
    total = np.sum(w)
    if total < 0:
        w = -w
        total = -total
    if total <= 0:
        raise SignFlip("zero total mass along trajectory")
    neg = w < 0
    if np.any(np.abs(w[neg]) > 1e-6 * total):
        raise SignFlip("mixed-sign density weights beyond tolerance")
    w = np.clip(w, 0.0, None)
    return mids, w / np.sum(w)


def equilibrium_measure_potential(p: PerturbedPotential, z) -> np.ndarray:
    """U^{mu_Q}(z) for the rescaled potential Q = (gamma/2) V: mu_Q is
    uniform with density 2 alpha_Q/pi on Q's support, classify_support's,
    of either kind."""
    q = scaled_potential(p)
    return 2.0 * q.alpha / math.pi * classify_support(q).potential(z)


def external_potential_compare(zs: ZeroSet, p: PerturbedPotential,
                               z_points) -> dict:
    """|-(1/n) log|P_n(z)| - U^{mu_Q}(z)| over exterior sample points,
    using the product form of P_n through its zero set."""
    z_points = np.atleast_1d(np.asarray(z_points, dtype=complex))
    approx = zero_potential_grid(zs, z_points)
    exact = equilibrium_measure_potential(p, z_points)
    err = np.abs(approx - exact)
    return {"n": zs.n, "points": z_points, "errors": err,
            "sup_error": float(np.max(err)), "mean_error": float(np.mean(err))}


def support_trajectories(geom):
    """(jump field, critical trajectories) of the boundary of the support
    geom: ExteriorDeltaS and all of its curves for an exterior map,
    CavityDeltaS and its connecting loops for a disk with one cavity, and
    (None, []) for a disk without cavities, whose circle dS = R^2/z has
    no zeros.  A disk with several cavities raises UnsupportedGeometry."""
    if isinstance(geom, ExteriorMap):
        ds = ExteriorDeltaS(geom)
        return ds, critical_trajectories(ds)
    if len(geom.cavities) > 1:
        raise UnsupportedGeometry(
            f"critical trajectories of a support with {len(geom.cavities)} "
            f"cavities are not covered")
    if not geom.cavities:
        return None, []
    (a, r), = geom.cavities
    ds = CavityDeltaS(R=geom.outer_radius, a=a, r=r)
    return ds, connecting_trajectories(critical_trajectories(ds))


def zero_attractor_candidates(p: PerturbedPotential):
    """support_trajectories of p's support: (field, trajectories)."""
    return support_trajectories(classify_support(p))
