"""Planar quadrature against the weight exp(-N*V): polar tensor grids,
moments, inner products, and singularity-aware Cauchy transforms.

Grids are polar tensor products: Gauss-Legendre panels radially (panel
boundaries at each charge modulus and cavity radius, where the integrand
has kinks or high-order zeros) and periodic trapezoid angularly.  Node
sums run in 80-bit extended precision because moment matrices are
exponentially ill-conditioned in the degree.

When every charge lies on one line through 0 (the paper's single charge,
or any collinear configuration), the weight is symmetric under reflection
across that line.  The angular nodes then start on the line, at angle
phi + 2*pi*j/T, so node T-j is the mirror image of node j; the weight is
evaluated on 0 <= j <= T/2 only and copied to the mirrored nodes, which
therefore carry exactly equal weights.  phi is kept as `QuadGrid.axis`
(None for charges not collinear with 0), and `QuadGrid.mirror_half`
gives the half grid on which `orthopoly` folds its inner products.  A
charge counts as on the line when it lies within a few ulps of its
modulus from it; mirroring then changes the weight by less than the error
of its double-precision evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .measures import PerturbedPotential, weight_upper_bound

LD = np.longdouble
CLD = np.clongdouble
# pi to extended precision: with the double pi, node T-j sits 2.4e-16 rad
# off the mirror image of node j
_PI = np.arccos(LD(-1.0))
# a charge is on the mirror axis within this many ulps of its modulus
_AXIS_ULPS = 4


@dataclass(frozen=True)
class QuadGrid:
    """Weighted quadrature nodes for integrals against exp(-N*V) dm."""

    nodes: np.ndarray          # complex nodes (clongdouble)
    areas: np.ndarray          # plain area weights (longdouble)
    weight_values: np.ndarray  # exp(-N*V) at nodes (longdouble)
    r_trunc: float
    radial_order: int
    angular_order: int
    eps_tail: float
    potential: PerturbedPotential = field(repr=False)
    axis: float | None = None  # angle of the mirror line; None: no mirror

    @property
    def measure_weights(self) -> np.ndarray:
        """Combined weights w_i * exp(-N*V(z_i)) for d(lambda) integrals."""
        return self.areas * self.weight_values

    def mirror_half(self):
        """Nodes 0 <= j <= T/2 of every ring rotated by -axis into the
        closed upper half plane, and their measure weights, with each
        off-axis node also carrying the weight of its mirror image.

        For polynomials f, g with real coefficients in that frame the
        full-grid inner product <f, g> is Re sum_i w_i f(x_i) conj(g(x_i))
        over these nodes: a mirrored pair contributes 2 Re of either term.
        """
        if self.axis is None:
            raise ValueError("grid has no mirror axis")
        T = self.angular_order
        x = self.nodes.reshape(-1, T)[:, :T // 2 + 1] \
            * np.exp(CLD(-1j) * LD(self.axis))
        w = self.measure_weights.reshape(-1, T)[:, :T // 2 + 1].copy()
        w[:, 1:(T + 1) // 2] *= 2
        return x.ravel(), w.ravel()

    def save(self, path):
        # extended precision: nodes rounded to double are mirror images
        # only to 1e-16, which the folded inner product would not see
        np.savez(path,
                 version=np.int64(2),
                 nodes=self.nodes,
                 areas=self.areas,
                 weight_values=self.weight_values,
                 meta=np.array([self.r_trunc, self.radial_order,
                                self.angular_order, self.eps_tail]),
                 axis=np.float64(np.nan if self.axis is None else self.axis))


def load_grid(path, p: PerturbedPotential) -> QuadGrid:
    """Grid saved by `QuadGrid.save`; version-1 files have no axis."""
    d = np.load(path)
    version = int(d["version"])
    if version not in (1, 2):
        raise ValueError(f"unknown grid cache version {version}")
    meta = d["meta"]
    axis = float(d["axis"]) if version == 2 else math.nan
    return QuadGrid(nodes=d["nodes"].astype(CLD),
                    areas=d["areas"].astype(LD),
                    weight_values=d["weight_values"].astype(LD),
                    r_trunc=float(meta[0]), radial_order=int(meta[1]),
                    angular_order=int(meta[2]), eps_tail=float(meta[3]),
                    potential=p, axis=None if math.isnan(axis) else axis)


def mirror_axis(p: PerturbedPotential) -> float | None:
    """Angle in [-pi/2, pi/2] of a line through 0 that carries every
    charge, or None.  The line through the charge of largest modulus is
    tried; the others must lie within _AXIS_ULPS ulps of their modulus
    from it.  Without a charge off the origin the weight is radial and
    the real axis is returned."""
    locs = [a for a in p.nu.locations if a != 0]
    if not locs:
        return 0.0
    phi = math.remainder(cmath.phase(max(locs, key=abs)), math.pi)
    turn = cmath.exp(-1j * phi)
    tol = _AXIS_ULPS * np.finfo(float).eps
    if all(abs((a * turn).imag) <= tol * abs(a) for a in locs):
        return phi
    return None


def truncation_radius(p: PerturbedPotential, eps_tail: float,
                      max_degree: int = 0) -> float:
    """R_T with exp(-L) * int_{|z|>R_T} |z|^max_degree *
    exp(-N*alpha*|z|^2/2) dm < eps_tail; max_degree is the largest
    monomial power the grid must still resolve (2*n for degree-n
    polynomial inner products)."""
    L, _ = weight_upper_bound(p)
    na = p.N * p.alpha
    # tail of the weight alone is (2*pi/(N*alpha)) * exp(-N*alpha*R^2/2)
    arg = math.log(2.0 * math.pi / (na * eps_tail)) - L
    rt = math.sqrt(2.0 * max(arg, 1.0) / na)
    for _ in range(50):
        rt_new = math.sqrt(2.0 * max(arg + max_degree
                                     * math.log(max(rt, 1.0)), 1.0) / na)
        if abs(rt_new - rt) < 1e-10:
            break
        rt = rt_new
    if p.nu.charges:
        rt = max(rt, float(np.max(np.abs(p.nu.locations))) + 1.0)
    return rt


def build_grid(p: PerturbedPotential, eps_tail: float = 1e-12,
               orders: tuple = (24, 384), max_degree: int = 0) -> QuadGrid:
    """Polar tensor grid resolving exp(-N*V) up to the tail tolerance."""
    n_r, n_t = orders
    if n_r < 2 or n_t < 4:
        raise ValueError(f"invalid quadrature orders {orders}")
    rt = truncation_radius(p, eps_tail, max_degree)

    # panel boundaries on circles where the integrand kinks or vanishes
    breaks = {0.0, rt}
    two_a = 2.0 * p.alpha
    r_outer = math.sqrt((1.0 + p.nu.total_mass) / two_a)
    if r_outer < rt:
        breaks.add(r_outer)
    for a, b in p.nu.charges:
        t = abs(a)
        rc = math.sqrt(b / two_a)
        for x in (t, t - rc, t + rc):
            if 1e-12 < x < rt:
                breaks.add(x)
    breaks = sorted(breaks)

    # refine panels adjacent to each charge modulus, cap panel length
    charge_moduli = {abs(a) for a, _ in p.nu.charges}
    panels = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if any(abs(lo - t) < 1e-12 or abs(hi - t) < 1e-12 for t in charge_moduli):
            mid = 0.5 * (lo + hi)
            sub = [(lo, mid), (mid, hi)]
        else:
            sub = [(lo, hi)]
        for a_, b_ in sub:
            pieces = max(1, int(math.ceil((b_ - a_) / 2.0)))
            edges = np.linspace(a_, b_, pieces + 1)
            panels.extend(zip(edges[:-1], edges[1:]))

    xs, ws = leggauss(n_r)
    xs = xs.astype(LD)
    ws = ws.astype(LD)
    r_list, wr_list = [], []
    for lo, hi in panels:
        half = LD(0.5) * LD(hi - lo)
        r_list.append(half * xs + LD(0.5) * LD(hi + lo))
        wr_list.append(half * ws)
    r = np.concatenate(r_list)
    wr = np.concatenate(wr_list)

    axis = mirror_axis(p)
    th = LD(2.0) * _PI * np.arange(n_t, dtype=LD) / LD(n_t)
    if axis is not None:
        th += LD(axis)
    e = np.exp(1j * th.astype(CLD))
    nodes = r.astype(CLD)[:, None] * e[None, :]
    dth = LD(2.0) * _PI / LD(n_t)
    areas = (wr[:, None] * r[:, None] * dth * np.ones(n_t, dtype=LD)[None, :]).ravel()

    # column j takes the weight of column min(j, T-j), its mirror image
    cols = np.arange(n_t)
    if axis is not None:
        cols = np.minimum(cols, n_t - cols)
    logw = p.log_weight_grid(
        nodes[:, :cols.max() + 1].astype(complex))[:, cols].astype(LD)
    wv = np.where(np.isneginf(logw), LD(0.0), np.exp(logw)).ravel()
    return QuadGrid(nodes=nodes.ravel(), areas=areas, weight_values=wv,
                    r_trunc=float(rt), radial_order=n_r, angular_order=n_t,
                    eps_tail=eps_tail, potential=p, axis=axis)


def _values(grid: QuadGrid, f):
    if callable(f):
        return np.asarray(f(grid.nodes))
    return np.asarray(f)


def inner_product(grid: QuadGrid, f, g) -> complex:
    """<f, g> = sum_i w_i f(z_i) conj(g(z_i)) exp(-N*V(z_i)).

    numpy's pairwise-summed reduction keeps the result deterministic.
    """
    fv = _values(grid, f).astype(CLD)
    gv = _values(grid, g).astype(CLD)
    return complex(np.sum(grid.measure_weights * fv * np.conj(gv)))


def absolute_moment(grid: QuadGrid, k: int) -> float:
    """int |z|^k exp(-N*V) dm."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    return float(np.sum(grid.measure_weights * np.abs(grid.nodes) ** LD(k)))


def total_mass(grid: QuadGrid) -> float:
    return float(np.sum(grid.measure_weights))


@dataclass(frozen=True)
class CauchyTransformEstimate:
    value: complex
    bound: float       # H_lambda, uniform bound on int d|lambda|(w)/|z-w|
    tail_error: float


def _bump(rho):
    """C^3 radial cutoff: 1 at 0, 0 for rho >= 1."""
    out = np.zeros_like(rho)
    m = rho < 1.0
    out[m] = (1.0 - rho[m] ** 2) ** 4
    return out


def cauchy_transform(p: PerturbedPotential, grid: QuadGrid, density, z: complex,
                     r_loc: float | None = None,
                     local_orders: tuple = (48, 256)) -> CauchyTransformEstimate:
    """[C lambda](z) = int density(w) exp(-N*V(w)) / (z-w) dm(w).

    The integrand is split with a smooth radial bump supported on
    B(z, r_loc): the bump part is integrated on a polar rule centered at z
    (the r dr Jacobian annihilates the 1/|z-w| singularity), the remainder
    on the fixed global grid.  The smooth partition keeps the value a
    smooth function of z, which finite-difference d-bar checks rely on.
    """
    z = complex(z)
    if r_loc is None:
        # keep the charge singularities outside the local polar disk
        r_loc = 0.5
        for a, _ in p.nu.charges:
            if abs(z - a) > 0:
                r_loc = min(r_loc, 0.5 * abs(z - a))
    nodes = grid.nodes.astype(complex)
    dens_glob = np.asarray(density(nodes), dtype=complex)
    lam = grid.measure_weights.astype(float) * dens_glob

    d = z - nodes
    absd = np.abs(d)
    phi = _bump(absd / r_loc)
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.where(absd > 0, (1.0 - phi) / np.where(absd > 0, d, 1.0), 0.0)
    far = np.sum(lam * kern)

    # local polar rule centered at z for the bump part
    loc = 0.0 + 0.0j
    if r_loc > 0:
        n_r, n_t = local_orders
        xr, wrad = leggauss(n_r)
        rr = 0.5 * r_loc * (xr + 1.0)
        wrad = 0.5 * r_loc * wrad
        tt = 2.0 * np.pi * np.arange(n_t) / n_t
        et = np.exp(1j * tt)
        w_pts = z + rr[:, None] * et[None, :]
        gv = (np.asarray(density(w_pts.ravel()), dtype=complex).reshape(w_pts.shape)
              * p.weight_grid(w_pts))
        # 1/(z-w) * r dr dtheta = -exp(-i theta) dr dtheta
        phi_r = _bump(rr / r_loc)
        integ = gv * (-np.conj(et))[None, :] * phi_r[:, None]
        loc = (2.0 * np.pi / n_t) * np.sum(wrad[:, None] * integ)

    mass = float(np.sum(np.abs(lam)))
    dens_sup = float(np.max(np.abs(dens_glob) * grid.weight_values.astype(float)))
    bound = 2.0 * math.sqrt(2.0 * math.pi * max(dens_sup, 1e-300) * mass)
    return CauchyTransformEstimate(value=complex(far + loc), bound=bound,
                                   tail_error=grid.eps_tail)


def cauchy_tail_split(grid: QuadGrid, dens_values: np.ndarray, n: int,
                      z: complex):
    """Evaluate CT(z) = int conj-poly density/(z-w) dlambda and its deviation
    from m_n / z^(n+1) without cancellation, via the geometric-series split

        1/(z-w) = sum_{k<=n} w^k/z^(k+1) + (w/z)^(n+1) / (z-w).

    Returns (value, deviation, m_n) with m_k the discrete moments of the
    density; for density conj(P_n) the moments below n vanish by discrete
    orthogonality, so the deviation decays like z^-(n+2).
    """
    zl = CLD(z)
    lam = grid.measure_weights * np.asarray(dens_values).astype(CLD)
    zw = grid.nodes
    moments = np.empty(n + 1, dtype=CLD)
    pw = np.ones_like(zw)
    for k in range(n + 1):
        moments[k] = np.sum(lam * pw)
        pw = pw * zw
    # pw is now w^(n+1)
    rem = np.sum(lam * pw / (zl - zw)) / zl ** (n + 1)
    series = sum(moments[k] / zl ** (k + 1) for k in range(n + 1))
    value = series + rem
    dev = sum(moments[k] / zl ** (k + 1) for k in range(n)) + rem
    return complex(value), complex(dev), complex(moments[n])
