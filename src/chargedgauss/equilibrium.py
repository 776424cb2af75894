"""Support geometry of the equilibrium measure for a perturbed Gaussian
potential, and the check of its equilibrium conditions.  The problem is
Q = (gamma/2) V's (N = gamma*n): scaled_potential, the one place gamma
enters, is the identity at gamma = 2, and classify_support, outer_radius,
effective_potential and verify_equilibrium work on p's Q.  The support,
a disk with cavities or the image of a rational exterior conformal map,
answers for its own kind (extent, outline, its log potential U^S,
locate, robin_constant, is_real).  Constants: the cavity gap _GAP, the
map equations' residual bound SYSTEM_TOL (criterion 02), and
verify_equilibrium's mesh margin _MESH_MARGIN and off-support tolerance
TOL_OFF.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .measures import PerturbedPotential, PointChargeMeasure


_GAP = 1e-9
_MESH_MARGIN = 0.6
TOL_OFF = 1e-8
SYSTEM_TOL = 1e-10
# mesh nodes per block of whole rows in verify_equilibrium
_BLOCK = 4096


class UnsupportedGeometry(Exception):
    """Configuration the closed-form constructions do not cover."""


class NoRootError(Exception):
    """The conformal-map cubic has no admissible root."""


@dataclass(frozen=True)
class DiskWithCavities:
    """Closed disk B(0, R) minus disjoint cavity disks, uniform density."""

    outer_radius: float
    cavities: tuple  # tuple of (center: complex, radius: float)

    def area(self) -> float:
        return math.pi * (self.outer_radius**2
                          - sum(r**2 for _, r in self.cavities))

    def contains(self, z):
        """z lies in the closed disk and outside every open cavity.

        Vectorised over z; a scalar z gives a bool."""
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) <= self.outer_radius
        for c, r in self.cavities:
            inside = inside & (np.abs(z - c) >= r)
        return bool(inside) if inside.ndim == 0 else inside

    def extent(self) -> float:
        """The support's largest modulus, R."""
        return self.outer_radius

    def outline(self, theta) -> list:
        """(name, points at theta) per circle: outer, cavity0, cavity1..."""
        e = np.exp(1j * np.asarray(theta, dtype=float))
        return [("outer", self.outer_radius * e)] + [
            (f"cavity{i}", c + r * e) for i, (c, r)
            in enumerate(self.cavities)]

    def potential(self, z) -> np.ndarray:
        """U^S(z) = -int_S log|z-w| dm(w) for the Lebesgue measure on the
        support S: the disk's closed-form potential less each cavity's."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        u = _disk_potential(0.0, self.outer_radius, z)
        for c, r in self.cavities:
            u = u - _disk_potential(c, r, z)
        return u

    def locate(self, z) -> tuple:
        """(contains(z), potential(z)) over an array z."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return self.contains(z), self.potential(z)

    def robin_constant(self, p: PerturbedPotential) -> float:
        """F = U^sigma + V on the support, for the p (gamma 2) whose
        support this is: alpha R^2 (log(1/R^2) + 1)."""
        R = self.outer_radius
        return p.alpha * R**2 * (math.log(1.0 / R**2) + 1.0)

    def is_real(self) -> bool:
        """Every cavity centre is exactly real."""
        return all(complex(c).imag == 0.0 for c, _ in self.cavities)


@dataclass(frozen=True)
class ExteriorMap:
    """Support described by f(zeta) = rho*zeta + u + v/(zeta - A), a
    univalent map from the exterior of the unit disk onto the exterior
    of the support."""

    rho: float
    u: complex
    v: complex
    A: complex

    def __post_init__(self):
        if not (0.0 < abs(self.A) < 1.0):
            raise ValueError("need 0 < |A| < 1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    def map(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return self.rho * zeta + self.u + self.v / (zeta - self.A)

    def map_derivative(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return self.rho - self.v / (zeta - self.A) ** 2

    def boundary(self, theta):
        return self.map(np.exp(1j * np.asarray(theta, dtype=float)))

    def area(self) -> float:
        return math.pi * (self.rho**2 - abs(self.v) ** 2
                          / (1.0 - abs(self.A) ** 2) ** 2)

    def is_univalent(self) -> bool:
        """f is univalent on |zeta| >= 1, boundary circle included.

        f(z1) - f(z2) = (z1 - z2) [rho - v / ((z1 - A)(z2 - A))], so f
        identifies two distinct points exactly when
        (z1 - A)(z2 - A) = v/rho, and f' vanishes where (zeta - A)^2 =
        v/rho, at the critical points A +- sqrt(v/rho).  A critical point
        on or outside the unit circle breaks univalence (a fold inside the
        domain, a cusp on the circle).  Conversely, if two distinct points
        of |zeta| >= 1 have (z1 - A)(z2 - A) = v/rho, the Grace-Walsh-Szego
        coincidence theorem (for the symmetric multi-affine w1 w2, of
        full degree 2, and the circular region {w : |w + A| >= 1} that
        holds w1 = z1 - A and w2 = z2 - A) gives a w in that region with
        w^2 = v/rho: a critical point A + w with |A + w| >= 1.  So f is
        univalent iff both critical points lie in the open unit disk.
        This also rejects maps that trace the boundary clockwise, which a
        crossing test on the sampled boundary cannot see.
        """
        return all(abs(c) < 1.0 for c in self.critical_points())

    def critical_points(self):
        """The zeros A + s and A - s of f', s the principal sqrt(v/rho)."""
        s = cmath.sqrt(complex(self.v) / self.rho)
        return self.A + s, self.A - s

    def critical_value(self, zeta):
        """f(zeta) at a critical point zeta, where v/(zeta - A) = rho (zeta
        - A): u + rho (2 zeta - A), with no division."""
        return self.u + self.rho * (2.0 * zeta - self.A)

    def zeta_roots(self, z: complex):
        """Both preimages of z under the map extended to all of C, the
        exterior sheet (larger |zeta|) first, as Python complex."""
        z1, z2 = self._preimages(complex(z))
        return complex(z1), complex(z2)

    def _preimages(self, z: np.ndarray):
        """Both solutions of rho*zeta^2 + (u-z-A*rho)*zeta + A(z-u) + v = 0
        over an array z, the larger in modulus first."""
        b = self.u - z - self.A * self.rho
        c = self.A * (z - self.u) + self.v
        disc = np.sqrt(b * b - 4.0 * self.rho * c)
        # |b + disc|^2 - |b - disc|^2 = 4 Re(b conj(disc)): q is the larger
        q = -0.5 * np.where((b * np.conj(disc)).real > 0.0, b + disc, b - disc)
        return q / self.rho, np.divide(c, q, out=np.zeros_like(q), where=q != 0)

    def contains(self, z):
        """z lies in the support iff both preimages are in the unit disk.

        Vectorised over z; a scalar z gives a bool."""
        z1, z2 = self._preimages(np.asarray(z, dtype=complex))
        inside = (np.abs(z1) < 1.0) & (np.abs(z2) < 1.0)
        return bool(inside) if inside.ndim == 0 else inside

    def extent(self) -> float:
        """The largest modulus of 720 boundary samples (np.linspace's)."""
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return float(np.max(np.abs(self.boundary(th))))

    def outline(self, theta) -> list:
        """[('boundary', f(e^{i theta}))]."""
        return [("boundary", self.boundary(theta))]

    def potential(self, z) -> np.ndarray:
        """U^S(z), exact by residues inside and outside S: see locate."""
        return self.locate(z)[1]

    def locate(self, z) -> tuple:
        """(contains(z), U^S(z)) over an array z, from one preimage solve.

        By Stokes, I = int_S log|z-w|^2 dm(w) = (1/2i) oint h (log|z - f|^2
        - 1) dzeta over |zeta| = 1, with h = (g - conj(z)) f' and g(zeta) =
        rho/zeta + conj(u) + conj(v) zeta/(1 - conj(A) zeta) = conj(f) on the
        circle; (1/2i) oint h = |S|.  As z - f = -rho (zeta - z1)(zeta -
        z2)/(zeta - A), z1, z2 the preimages of z, I = (log rho^2 - 1)|S| +
        T(z1) + T(z2) - T(A) with T(c) = (1/2i) oint h log|zeta - c|^2.
        Reflect c into the disk, d = c/m with m = max(1, |c|^2): log|zeta -
        c|^2 = log m + log(1 - conj(d) zeta) + log(1 - d/zeta) on the
        circle.  Residues of the first log times h inside (only A's double
        pole, h2 = -v (g(A) - conj(z)), h1 = -v g'(A)) and of the second
        outside (at 1/conj(A), where h has residue r = -conj(v)
        f'(1/conj(A))/conj(A)^2, and at infinity, where h -> hinf = rho
        (conj(u - v/A) - conj(z))) give, w = 1 - conj(d) A, T(c) = |S| log m
        + pi [h1 log w - h2 conj(d)/w - r log(1 - d conj(A)) - d hinf].  Only
        Re I is used, and four identities make it cheap.  (1) One logarithm
        per preimage: Re w > 0 as |d| <= 1 and |A| < 1, so log(1 - d
        conj(A)) = conj(log w), and the log terms are Re(g log w), g = h1 -
        conj(r).  (2) Real parts only: Re(g log w) = Re(g) log|w|^2/2 - Im(g)
        arg w.  (3) T(A), with d = A and w_A = 1 - |A|^2 real, is a constant
        and the first terms of the sums of conj(d)/w and conj(d).  (4)
        |c|^2, once per preimage, gives d by a real division, and log m.
        Nothing is singular (z1, z2 != A), and the map equations are not
        used.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        rho = self.rho
        u, v, A = complex(self.u), complex(self.v), complex(self.A)
        ub, vb, Ab = u.conjugate(), v.conjugate(), A.conjugate()
        area, zc, wA = self.area(), np.conj(z), 1.0 - abs(A) ** 2
        h2 = -v * (rho / A + ub + vb * A / wA - zc)
        h1 = -v * (vb / wA**2 - rho / A**2)
        r = -vb * complex(self.map_derivative(1.0 / Ab)) / Ab**2
        g = h1 - r.conjugate()
        hinf_c = rho * (u - v / A - z)   # conj(hinf)
        z1, z2 = self._preimages(z)
        I = (math.log(rho**2) - 1.0) * area - math.pi * g.real * math.log(wA)
        Q, Dc = -Ab / wA, -Ab   # sums of conj(d)/w and of conj(d), less T(A)'s
        for c in (z1, z2):
            m = np.maximum(c.real**2 + c.imag**2, 1.0)
            dc = np.conj(c) / m
            w = 1.0 - dc * A
            I = I + area * np.log(m) + math.pi * (
                0.5 * g.real * np.log(w.real**2 + w.imag**2)
                - g.imag * np.arctan2(w.imag, w.real))
            Q = Q + dc / w
            Dc = Dc + dc
        return ((np.abs(z1) < 1.0) & (np.abs(z2) < 1.0),
                -0.5 * (I - math.pi * ((h2 * Q).real + (hinf_c * Dc).real)))

    def robin_constant(self, p: PerturbedPotential) -> float:
        """F = U^sigma + V on the support, for the p (gamma 2) whose
        support this is: effective_potential at f(zeta_+), zeta_+ the first
        critical point, in the support as both its preimages are zeta_+."""
        z = self.critical_value(self.critical_points()[0])
        return float(effective_potential(self, p, z)[0])

    def is_real(self) -> bool:
        """u, v and A are exactly real."""
        return all(complex(c).imag == 0.0 for c in (self.u, self.v, self.A))


def scaled_potential(p: PerturbedPotential) -> PerturbedPotential:
    """Q = (gamma/2) V as a potential of its own, gamma 2: alpha and every
    charge mass times gamma/2, and N times 2/gamma, so the weight
    exp(-N V) is the same.  p itself at gamma = 2."""
    g = p.gamma / 2.0
    return p if g == 1.0 else PerturbedPotential(
        alpha=g * p.alpha, N=p.N / g, gamma=2.0, nu=PointChargeMeasure(
            tuple((a, g * b) for a, b in p.nu.charges)))


def outer_radius(p: PerturbedPotential) -> float:
    """R = sqrt((1 + nu(C)) / (2*alpha)) of Q = (gamma/2) V."""
    p = scaled_potential(p)
    return math.sqrt((1.0 + p.nu.total_mass) / (2.0 * p.alpha))


def cavity_radius(p: PerturbedPotential, beta: float) -> float:
    return math.sqrt(beta / (2.0 * p.alpha))


def classify_support(p: PerturbedPotential):
    """Return the support of Q = (gamma/2) V, or raise UnsupportedGeometry.

    Cavities must be pairwise disjoint and strictly inside B(0, R) with
    margin _GAP; the single-charge non-contained case is handed to the
    conformal-map solver.  Everything else is out of reach of the
    closed-form constructions.
    """
    p = scaled_potential(p)
    R = outer_radius(p)
    cavities = [(a, cavity_radius(p, b)) for a, b in p.nu.charges]

    contained = all(abs(a) + r < R - _GAP for a, r in cavities)
    if contained:
        for i in range(len(cavities)):
            for j in range(i + 1, len(cavities)):
                ai, ri = cavities[i]
                aj, rj = cavities[j]
                if abs(ai - aj) < ri + rj + _GAP:
                    raise UnsupportedGeometry(
                        f"cavities {i} and {j} overlap or touch")
        return DiskWithCavities(outer_radius=R, cavities=tuple(cavities))

    if len(cavities) == 1:
        a, r = cavities[0]
        if abs(a) + r > R:
            if a == 0:
                raise UnsupportedGeometry("charge at origin cannot escape B(0,R)")
            return solve_exterior_map(p.alpha, p.nu.charges[0][1], a)
        raise UnsupportedGeometry("cavity tangent to the outer boundary")

    raise UnsupportedGeometry(
        "multi-charge configuration with a non-contained cavity")


def _cubic(alpha: float, beta: float, t: float) -> tuple:
    """The coefficients, highest first, of g(x) = 2 t^4 x^3 - (t^4 +
    (1+2 beta)/alpha t^2) x^2 + 1/(4 alpha^2)."""
    return (2.0 * t**4, -(t**4 + (1.0 + 2.0 * beta) / alpha * t**2), 0.0,
            1.0 / (4.0 * alpha**2))


def _map_from_root(alpha: float, t: float, e: complex, x: float) -> ExteriorMap:
    K = math.sqrt(x)
    rho = (K**2 * t**2 + 1.0 / (2.0 * alpha)) / (2.0 * K * t)
    s = (1.0 - K**2) * (K**2 * t**2 - 1.0 / (2.0 * alpha)) / (2.0 * K * t)
    A = K * e
    v = s * (e * e)
    # second system equation, conj(u) = conj(v)/conj(A), i.e. u = v/A
    u = v / A
    return ExteriorMap(rho=rho, u=u, v=v, A=A)


def solve_exterior_map(alpha: float, beta: float, a: complex) -> ExteriorMap:
    """Solve the four-equation system for the exterior map parameters.

    The phases of A and v are fixed by the direction e = a/|a| of a (A
    along e, v along e^2), so a real charge, of either sign, gives exactly
    real A, u and v; the modulus reduces to the cubic in x = K^2.  Its
    real roots in (0, 1), polished by Newton steps, are tried in
    increasing order, and the first one
    whose map is univalent (both critical points inside the unit disk,
    see ExteriorMap.is_univalent) with the charge outside the support is
    returned.  When the cavity and outer-disk boundary circles intersect
    the cubic changes sign on (0, 1) and has one root there; when the
    cavity disk lies entirely outside B(0, R) it has two, and only one
    passes.
    """
    a = complex(a)
    t = abs(a)
    if t == 0:
        raise NoRootError("degenerate charge location a = 0")
    e = a / t
    r = math.sqrt(beta / (2.0 * alpha))
    R = math.sqrt((1.0 + beta) / (2.0 * alpha))
    if t + r <= R:
        raise NoRootError("cavity is contained in B(0,R); no exterior map")

    g = _cubic(alpha, beta, t)
    dg = np.polyder(g)
    for rr in np.sort(np.roots(g)):
        if abs(rr.imag) >= 1e-9 or not 1e-12 < rr.real < 1.0 - 1e-12:
            continue
        x = rr.real
        for _ in range(3):
            x -= np.polyval(g, x) / np.polyval(dg, x)
        try:
            em = _map_from_root(alpha, t, e, x)
        except ValueError:
            continue
        if em.is_univalent() and not em.contains(a):
            return em
    raise NoRootError(
        f"no admissible root of the map cubic for alpha={alpha}, "
        f"beta={beta}, a={a}")


def system_residuals(em: ExteriorMap, alpha: float, beta: float,
                     a: complex) -> np.ndarray:
    """Absolute residuals of the four map equations."""
    rho, u, v, A = em.rho, em.u, em.v, em.A
    one = 1.0 - abs(A) ** 2
    r1 = rho**2 - abs(v) ** 2 / one**2 - 1.0 / (2.0 * alpha)
    r2 = v.conjugate() / A.conjugate() - u.conjugate()
    r3 = u + rho / A.conjugate() + v * A.conjugate() / one - a
    r4 = (v.conjugate() / A.conjugate() ** 2
          * (rho - v * A.conjugate() ** 2 / one**2) + beta / (2.0 * alpha))
    return np.abs(np.array([r1, r2, r3, r4]))


def support_area(geom) -> float:
    return geom.area()


def _disk_potential(center: complex, R: float, z: np.ndarray) -> np.ndarray:
    """-int log|z-w| dm(w) over the disk B(center, R), d = |z - center|:
    (pi R^2/2)(log(1/R^2) + 1 - d^2/R^2) inside and pi R^2 log(1/d)
    outside, continuous across d = R."""
    d = np.abs(z - center)
    inner = 0.5 * R**2 * math.pi * (np.log(1.0 / R**2) + 1.0 - d**2 / R**2)
    outer = R**2 * math.pi * -np.log(np.maximum(d, 1e-300))
    return np.where(d <= R, inner, outer)


def effective_potential(geom, p: PerturbedPotential, z) -> np.ndarray:
    """U^sigma(z) + Q(z), Q = (gamma/2) V with its own alpha, for sigma
    uniform with density 2*alpha/pi on the support geom."""
    p = scaled_potential(p)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return 2.0 * p.alpha / math.pi * geom.potential(z) + p.value_grid(z)


@dataclass(frozen=True)
class EquilibriumReport:
    robin_constant: float
    max_dev_on: float
    min_margin_off: float
    n_on: int
    n_off: int
    tol_on: float
    tol_off: float = TOL_OFF

    @property
    def passed(self) -> bool:
        return (self.max_dev_on < self.tol_on
                and self.min_margin_off >= -self.tol_off)


def mesh_axis(geom, n: int) -> np.ndarray:
    """The n coordinates, on either axis, of verify_equilibrium's mesh,
    from -extent to extent: geom.extent() plus _MESH_MARGIN.  The upper
    half is np.linspace's, the lower half its exact negative (xs[i] ==
    -xs[n-1-i], an odd mesh's middle node 0.0), so each mesh row's mirror
    image is a mesh row."""
    extent = geom.extent() + _MESH_MARGIN
    xs = np.linspace(-extent, extent, n)
    xs[:n // 2] = -xs[:(n - 1) // 2:-1]
    if n % 2:
        xs[n // 2] = 0.0
    return xs


def verify_equilibrium(geom, p: PerturbedPotential,
                       grid_spec: dict | None = None) -> EquilibriumReport:
    """Check U^sigma + Q = F on the support and >= F off it, Q = (gamma/2)
    V of p, at every node of a cartesian n x n mesh (`mesh_axis` on both
    axes) covering the support plus a margin annulus.  grid_spec may set
    n (200), an integer >= 1, and tol_on (1e-8), and no other key.

    U^sigma is exact for both geometries, so no node is skipped: geom.locate
    puts each on the support or off it, and n_on + n_off = n^2.  A node
    on a charge has V = +inf and counts off the support with margin +inf.
    F is geom.robin_constant's, which takes no mesh node: a mesh that
    misses the support reports n_on = 0 and max_dev_on = 0.

    The mesh is streamed in blocks of whole rows, about _BLOCK nodes each.
    Each block's potential is reduced to the minimum and maximum of
    U^sigma + V over its on-support nodes and the minimum over its
    off-support nodes, so memory grows with the block, not with the mesh.
    As p -> fl(p - F) is monotone, max(pmax - F, F - pmin) is the largest
    |U^sigma + V - F| over the on-support nodes.

    Mirror fold: when every charge and the geometry (geom.is_real) are
    exactly real, only the first ceil(n/2) rows, y <= 0, are evaluated,
    each but an odd mesh's middle row (y = 0.0) counting for its mirror
    too.  The report is the full mesh's bit for bit: every operation on
    this path (hypot moduli, complex products, numpy's quotients, the
    complex square root, the odd arctan2, the charge sums in their order)
    gives conjugate results for conjugate inputs.  Conjugate pairs of
    charges are not folded: the mirror swaps the order of their charge
    sum, so a node and its mirror agree only to rounding.
    """
    spec = {"n": 200, "tol_on": 1e-8, **(grid_spec or {})}
    unknown = sorted(spec.keys() - {"n", "tol_on"})
    if unknown:
        raise ValueError(f"grid_spec keys {unknown}: only n and tol_on")
    n = spec["n"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"grid_spec n {n!r}: expected an integer >= 1")

    n, p = int(n), scaled_potential(p)
    xs = mesh_axis(geom, n)
    # how many mesh rows each evaluated row counts for
    if geom.is_real() and all(a.imag == 0.0 for a, _ in p.nu.charges):
        mult = np.where(np.arange((n + 1) // 2) < n // 2, 2, 1)
    else:
        mult = np.ones(n, dtype=int)

    pmin, pmax, pmin_off = np.inf, -np.inf, np.inf
    n_on = 0
    ys = xs[:mult.size]   # y of the evaluated rows
    rows = max(1, _BLOCK // n)
    for r0 in range(0, ys.size, rows):
        y = ys[r0:r0 + rows]
        z = (xs[None, :] + 1j * y[:, None]).ravel()
        on, u = geom.locate(z)
        u = 2.0 * p.alpha / math.pi * u + p.value_grid(z)
        u_on = u[on]
        pmin = np.minimum(pmin, np.min(u_on, initial=np.inf))
        pmax = np.maximum(pmax, np.max(u_on, initial=-np.inf))
        pmin_off = np.minimum(pmin_off, np.min(u[~on], initial=np.inf))
        n_on += int(mult[r0:r0 + rows] @ on.reshape(y.size, n).sum(1))

    F = geom.robin_constant(p)
    dev_on = float(np.maximum(pmax - F, F - pmin)) if n_on else 0.0
    return EquilibriumReport(robin_constant=F, max_dev_on=dev_on,
                             min_margin_off=float(pmin_off - F),
                             n_on=n_on, n_off=n * n - n_on,
                             tol_on=spec["tol_on"])
