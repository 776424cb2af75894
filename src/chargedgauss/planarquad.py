"""Planar quadrature against the weight exp(-N*V): polar tensor grids,
moments, inner products, and a Cauchy transform exact in angle.

Grids are polar tensor products: Gauss-Legendre panels radially (panel
boundaries at each charge modulus and cavity radius, where the integrand
has kinks or high-order zeros) and periodic trapezoid angularly.  Node
sums run in 80-bit extended precision because moment matrices are
exponentially ill-conditioned in the degree; the Legendre rule and, on
first use (`QuadGrid.weight_values`), the weight are computed in that
precision too.  The grid is cut at `truncation_radius`, which bounds the
weight on each circle by radial envelopes: beyond the cut lies at most
_EPS_TAIL = 1e-12 of the degree-2n moment int |z|^(2n) exp(-N*V) dm,
relative to that moment.

When N*beta/2 is an integer for every charge off 0, the weight is
g(|z|) h(z): g(r) = exp(-N*alpha*r^2) r^(N*beta_0) is radial (the Gaussian
and any charge at 0), and h = prod_{a != 0} |z - a|^(N*beta) is a
trigonometric polynomial of degree c = `PerturbedPotential.angular_degree`
on every circle |z| = r (the exact-moment class of Balogh, Bertola, Lee &
McLaughlin, CPAM 2015).  For deg f, g <= n the ring integrand f conj(g) h
then has degree n + c in angle, so any trapezoid rule of L = n + c + 1 or
more nodes integrates it exactly, and the ring integral is P(r^2) times
g(r), with P a polynomial of degree <= n + c, to be integrated against
2*pi*r g(r) dr = pi u^s exp(-N*alpha*u) du, u = r^2, s = N*beta_0/2.  That
generalized Laguerre weight's ceil(L/2)-node Gauss rule does so exactly.
`polynomial_rule(p, grid, n)` gives it, radii times L angles, for the
Arnoldi in `orthopoly`, from the potential p alone; it alone tells the
classes apart.  Other weights' rules take the rings and angles of a grid
built for p, by `polynomial_rule` itself when none is given; a grid is
otherwise needed only to integrate on it (`inner_product`,
`cauchy_transform`).  A grid keeps one area weight per ring.

The problem is rotation covariant: for charges a e^{i phi},
P_n(z) = e^{in phi} P~_n(z e^{-i phi}), with P~_n the polynomial for the
charges a.  `polynomial_rule` therefore lays its nodes out in the frame
of the weight's mirror line, the line through 0 that carries every
charge exactly; each charge sits there at its long-double signed
modulus, exactly real.  Charges in conjugate pairs of equal mass are
mirrored by the real axis itself.  The weight is then exactly even under
conjugation in that frame, and the rule keeps only the closed upper half
plane, each node off the real axis weighted for its mirror image too, on
which `orthopoly` folds its inner products.  The decision is exact, with
no tolerance: charges on a line only to within rounding are not folded,
since mirrored nodes would then see a moved charge.  For the charge
0.3 e^(2 pi i 0.37) the folded norms h_k are 1.2e-18 (n = 30) and
1.6e-18 (n = 50) off the exact-moment oracle.  The grid itself is a
plain polar grid, with angles 2*pi*j/T.
"""

from __future__ import annotations

import cmath
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .equilibrium import cavity_radius, outer_radius
from .measures import PerturbedPotential, charge_potential_grid

LD = np.longdouble
CLD = np.clongdouble
# pi to extended precision: the double pi would put node angles up to
# 2.4e-16 rad off
_PI = np.arccos(LD(-1.0))
# `truncation_radius`'s mesh: its nodes, and how far past the weight's
# bulk it reaches (see there)
_RADIAL_MESH = 4096
_MESH_DECAY = 400.0
# the share of the |z|^max_degree moment that `build_grid` leaves past its cut
_EPS_TAIL = 1e-12


class OverMemoryBudget(Exception):
    """The arrays a computation would allocate exceed `memory_budget()`."""


def memory_budget() -> float:
    """Bytes one grid, rule or basis may take: half the physical memory,
    or no bound where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2
    except (AttributeError, ValueError, OSError):
        return math.inf


def check_memory(nbytes: float, what: str) -> None:
    """Raise OverMemoryBudget, before anything is allocated, when what
    needs more than `memory_budget()` bytes."""
    budget = memory_budget()
    if nbytes > budget:
        raise OverMemoryBudget(
            f"{what} needs {nbytes / 1e9:.3g} GB, more than half the "
            f"physical memory ({budget / 1e9:.3g} GB)")


@dataclass(frozen=True)
class QuadGrid:
    """Weighted quadrature nodes for integrals against exp(-N*V) dm."""

    nodes: np.ndarray          # complex nodes (clongdouble), ring by ring
    ring_areas: np.ndarray     # one area weight per ring (longdouble)
    r_trunc: float
    radial_order: int
    angular_order: int
    potential: PerturbedPotential = field(repr=False)

    @cached_property
    def weight_values(self) -> np.ndarray:
        """exp(-N*V) at the nodes (longdouble), evaluated on first use in
        extended precision."""
        logw = self.potential.log_weight_grid(self.nodes)
        return np.where(np.isneginf(logw), LD(0.0), np.exp(logw))

    @property
    def measure_weights(self) -> np.ndarray:
        """Combined weights w_i * exp(-N*V(z_i)) for d(lambda) integrals."""
        return (self.ring_areas[:, None] * self.weight_values.reshape(
            -1, self.angular_order)).ravel()


def _gauss_rule(a: np.ndarray, b: np.ndarray, mu0):
    """Nodes and weights (longdouble) of the m-node Gauss rule, exact to
    degree 2m - 1, of the measure of mass mu0 whose orthonormal p_k obey
    x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1}, given a_0..a_{m-1} and
    b_1..b_{m-1} in longdouble.  The Jacobi matrix's eigenvalues (Golub &
    Welsch, Math. Comp. 23, 1969), computed in double, are polished by 3
    Newton steps on the recurrence; the weights are the Christoffel
    numbers mu0 / sum_{k<m} p_k(x_j)^2."""
    m = a.size
    b = np.concatenate([[LD(0.0)], b, [LD(1.0)]])   # b[m] = 1

    def recurrence(x, derivative=True):
        # row k+1: p_k for k < m, then b_m p_m (zero at the nodes);
        # D: their derivatives, if asked for
        P = np.zeros((m + 2, x.size), dtype=LD)
        D = np.zeros_like(P) if derivative else None
        P[1] = 1.0
        for k in range(m):
            P[k + 2] = ((x - a[k]) * P[k + 1] - b[k] * P[k]) / b[k + 1]
            if derivative:
                D[k + 2] = (P[k + 1] + (x - a[k]) * D[k + 1]
                            - b[k] * D[k]) / b[k + 1]
        return P, D

    J = np.diag(a) + np.diag(b[1:m], 1) + np.diag(b[1:m], -1)
    x = np.linalg.eigvalsh(J.astype(float)).astype(LD)
    for _ in range(3):
        P, D = recurrence(x)
        x = x - P[m + 1] / D[m + 1]
    P, _ = recurrence(x, derivative=False)
    return x, LD(mu0) / np.sum(P[1:m + 1] ** 2, axis=0)


@cache
def _legendre_rule(m: int):
    """The m-node Gauss-Legendre rule on [-1, 1] in long double, read-only:
    a_k = 0, b_k = k / sqrt(4k^2 - 1), mass 2."""
    k = np.arange(1, m, dtype=LD)
    x, w = _gauss_rule(np.zeros(m, dtype=LD), k / np.sqrt(4 * k * k - 1), 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# B_2k / (2k (2k - 1)), k = 1..9: Stirling's series for log Gamma
_STIRLING = (np.array([1, -1, 1, -1, 1, -691, 1, -3617, 43867], dtype=LD)
             / np.array([12, 360, 1260, 1680, 1188, 360360, 156, 122400,
                         244188], dtype=LD))


def _gamma_1p(f):
    """Gamma(1 + f) for 0 < f < 1 in long double, to about 5e-18 relative:
    Stirling's series for log Gamma(x) at x = 17 + f, 9 Bernoulli terms
    B_2k / (2k (2k - 1) x^(2k - 1)) (the next is below 1e-23), divided by
    the 16 shift factors (1 + f) ... (16 + f)."""
    x = 17 + f
    series = np.sum(_STIRLING / x ** np.arange(1, 18, 2, dtype=LD))
    lg = (x - 0.5) * np.log(x) - x + 0.5 * np.log(2 * _PI) + series
    return np.exp(lg) / np.prod(1 + f + np.arange(16, dtype=LD))


def _laguerre_rule(p: PerturbedPotential, m: int):
    """The m-node Gauss rule of pi u^s exp(-N*alpha*u) du, u > 0,
    s = N*beta_0/2: a_k = (2k + s + 1)/(N*alpha), b_k = sqrt(k(k + s))/
    (N*alpha), mass pi Gamma(s + 1)/(N*alpha)^(s + 1), with Gamma(s + 1) =
    Gamma(1 + f) (1 + f) ... (s), f = s - floor(s): exact for integer s,
    else with _gamma_1p's long-double rounding."""
    s = LD(0.5 * p.N * sum(b for a, b in p.nu.charges if a == 0))
    na = LD(p.N) * LD(p.alpha)
    k = np.arange(m, dtype=LD)
    f = s % 1
    gamma = (_gamma_1p(f) if f else LD(1)) \
        * np.prod(f + np.arange(1, s - f + 1))
    return _gauss_rule((2 * k + s + 1) / na, np.sqrt(k[1:] * (k[1:] + s)) / na,
                       _PI * gamma / na ** (s + 1))


def same_potential(p: PerturbedPotential, *built) -> None:
    """Raise ValueError unless each of built (grids or polynomial sets;
    None is skipped) was built for p itself."""
    for b in built:
        if b is not None and b.potential is not p:
            raise ValueError(f"{type(b).__name__} was built for a "
                             f"different potential")


def _on_line(a: complex, b: complex) -> bool:
    """Whether a lies exactly on the line through 0 and b: the cross
    product of their doubles, each p/q as integers, vanishes."""
    (p, q), (r, s), (t, u), (v, w) = (x.as_integer_ratio() for x in
                                      (a.real, b.imag, a.imag, b.real))
    return p * r * u * w == t * v * q * s


def polynomial_rule(p: PerturbedPotential, grid: QuadGrid | None,
                    degree: int):
    """(x, w, phi): nodes and weights, as (radii, columns) arrays, of a
    rule exact for the inner product of p's weight on polynomials of
    degree <= degree, in the frame x = z e^{-i phi} of the weight's mirror
    line; phi is None when the weight has none, and the frame is then the
    plane.

    The frame: when every charge off 0 lies exactly on one line through 0
    (the cross product of its doubles with those of the largest charge is
    0), phi = arg of the largest charge, reduced to [-pi/2, pi/2], and each
    charge a sits at its signed modulus +-|a| in long double, exactly real;
    otherwise phi = 0 and the charges stay put.  When the frame's charges
    are their own conjugates, with equal masses, the weight is even under
    x -> conj(x) and the rule is folded: columns 0 <= j <= L/2 only, the
    closed upper half plane, each off-axis column also carrying the weight
    of its mirror image.  For polynomials f, g with real coefficients in
    the frame the inner product is then Re sum_i w_i f(x_i) conj(g(x_i)).
    A weight symmetric only up to rounding is not folded.

    With c = `PerturbedPotential.angular_degree()` not None and
    L = degree + c + 1, the rule comes from p alone: the radii are those
    of the ceil(L/2)-node Gauss-Laguerre rule (u_j, W_j) of the radial
    measure pi u^s exp(-N*alpha*u) du, u = r^2, s = N*beta_0/2 (see
    above), each carrying L angles, and node x weighs W_j/L * h(x); grid
    is not read.  Otherwise the rings, ring areas and L = T angles are
    grid's, or `build_grid(p, max_degree=2*degree)`'s when it is None; L
    must reach 2*degree + 2 (else ValueError), and node x weighs its
    ring's area times exp(-N*V(x)), V in the frame.  Either way the
    weight is evaluated in long double at the frame's nodes.

    Raises ValueError when a grid is given that was built for another
    potential than p.  Raises OverMemoryBudget, before the rule is built,
    when the grid or the Arnoldi basis over the rule (degree + 1 rows of
    clongdouble) would exceed `memory_budget()`.
    """
    same_potential(p, grid)
    locs = [a for a, _ in p.nu.charges if a != 0]
    top = max(locs, key=abs, default=0j)
    if all(_on_line(a, top) for a in locs):
        phi = math.remainder(cmath.phase(top), math.pi)
        ray = cmath.rect(1.0, -phi)
        charges = [(math.copysign(1.0, (a * ray).real)
                    * np.hypot(LD(a.real), LD(a.imag)), b)
                   for a, b in p.nu.charges]
        fold = True
    else:
        phi, charges = 0.0, p.nu.charges
        fold = Counter(charges) == Counter((a.conjugate(), b)
                                           for a, b in charges)
    c = p.angular_degree()
    if c is None:
        if grid is None:
            grid = build_grid(p, max_degree=2 * degree)
        L = grid.angular_order
        if L < 2 * degree + 2:
            raise ValueError(f"{L} angles cannot resolve "
                             f"degree-{2 * degree} moments")
        r, wr = np.abs(grid.nodes[::L]), grid.ring_areas
        m = r.size
    else:
        L = degree + c + 1
        m = (L + 1) // 2
    cols = L // 2 + 1 if fold else L
    check_memory(m * cols * (degree + 1) * np.dtype(CLD).itemsize,
                 f"the Arnoldi basis of {degree + 1} x {m * cols} nodes")

    if c is not None:
        u, W = _laguerre_rule(p, m)
        r, wr = np.sqrt(u), W / LD(L)
        charges = [q for q in charges if q[0] != 0]   # in the radial measure
    th = LD(2.0) * _PI * np.arange(cols, dtype=LD) / LD(L)
    x = r.astype(CLD)[:, None] * np.exp(1j * th.astype(CLD))
    U = charge_potential_grid(charges, x)
    if c is None:
        U = p.alpha * np.abs(x) ** 2 + U
    w = wr[:, None] * np.exp(-p.N * U)
    if not fold:
        return x, w, None
    w[:, 1:(L + 1) // 2] *= 2
    return x, w, phi


def truncation_radius(p: PerturbedPotential, eps_tail: float,
                      max_degree: int = 0) -> float:
    """Radius R beyond which lies at most eps_tail of the moment
    int |z|^m exp(-N*V) dm, m = max_degree: the largest monomial power the
    grid must still resolve (2*n for degree-n inner products).

    On |z| = r each charge factor |z - a|^(N*beta) lies between
    |r - |a||^(N*beta) and (r + |a|)^(N*beta), so the ring integral of
    |z|^m exp(-N*V) lies between the envelopes
    2*pi*r^(m+1) exp(-N*alpha*r^2) prod (r +- |a|)^(N*beta), the lower one
    with |r - |a||.  R is the first node of a radial mesh at which the
    upper envelope's integral from R on is at most eps_tail times the
    lower one's total, both summed on the mesh in log space.  The mesh has
    _RADIAL_MESH nodes on (0, A + sqrt((k + _MESH_DECAY)/(N*alpha))], with
    A the largest charge modulus and k = m + 1 + N*sum(beta); at its end
    the upper envelope, below (r + A)^k exp(-N*alpha*r^2), has fallen
    below e^-300 of its peak.  Raises ValueError when no node meets the
    bound.
    """
    na = p.N * p.alpha
    moduli = np.abs(p.nu.locations)
    powers = p.N * np.array([b for _, b in p.nu.charges])
    k = max_degree + 1 + powers.sum()
    r_max = moduli.max(initial=0.0) + math.sqrt((k + _MESH_DECAY) / na)
    r = np.linspace(0.0, r_max, _RADIAL_MESH + 1)[1:]
    log_ring = (max_degree + 1) * np.log(r) - na * r * r
    upper = log_ring + np.log(r[:, None] + moduli) @ powers
    with np.errstate(divide="ignore"):  # a node on a charge circle
        lower = log_ring + np.log(np.abs(r[:, None] - moduli)) @ powers
    tail = np.logaddexp.accumulate(upper[::-1])[::-1]
    ok = tail <= math.log(eps_tail) + np.logaddexp.reduce(lower)
    if not ok.any():
        raise ValueError(f"no radius up to {r_max:.3g} leaves a tail below "
                         f"{eps_tail:.1e} of the degree-{max_degree} moment")
    return float(r[np.argmax(ok)])


def build_grid(p: PerturbedPotential, orders: tuple = (24, 384),
               max_degree: int = 0) -> QuadGrid:
    """Polar tensor grid for integrals against exp(-N*V), n_r Gauss-Legendre
    radii per panel times T = max(n_t, max_degree + 2) angles, cut at
    `truncation_radius(p, _EPS_TAIL, max_degree)`: beyond the cut lies at
    most _EPS_TAIL = 1e-12 of the |z|^max_degree moment of the weight,
    relative to that moment (max_degree = 2*n for degree-n inner products,
    which 2n + 2 angles resolve).  Raises OverMemoryBudget before building
    a grid over `memory_budget()`."""
    n_r, n_t = orders
    if n_r < 2 or n_t < 4:
        raise ValueError(f"invalid quadrature orders {orders}")
    n_t = max(n_t, max_degree + 2)
    rt = truncation_radius(p, _EPS_TAIL, max_degree)

    # panel boundaries on circles where the integrand kinks or vanishes
    radii = [outer_radius(p)]
    for a, b in p.nu.charges:
        rc = cavity_radius(p, b)
        radii += [abs(a), abs(a) - rc, abs(a) + rc]
    breaks = sorted({0.0, rt} | {x for x in radii if 1e-12 < x < rt})

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

    xs, ws = _legendre_rule(n_r)
    r_list, wr_list = [], []
    for lo, hi in panels:
        half = LD(0.5) * LD(hi - lo)
        r_list.append(half * xs + LD(0.5) * LD(hi + lo))
        wr_list.append(half * ws)
    r = np.concatenate(r_list)
    wr = np.concatenate(wr_list)
    # the nodes (complex) and the weight evaluated on first use (real)
    check_memory(r.size * n_t * 3 * LD(0).itemsize,
                 f"the {r.size} x {n_t} quadrature grid")

    th = LD(2.0) * _PI * np.arange(n_t, dtype=LD) / LD(n_t)
    # r e^{i theta} as the real products r cos and r sin, written in place
    nodes = np.empty((r.size, n_t), dtype=CLD)
    np.multiply(r[:, None], np.cos(th), out=nodes.real)
    np.multiply(r[:, None], np.sin(th), out=nodes.imag)

    return QuadGrid(nodes=nodes.ravel(),
                    ring_areas=wr * r * (LD(2.0) * _PI / LD(n_t)),
                    r_trunc=float(rt), radial_order=n_r, angular_order=n_t,
                    potential=p)


def inner_product(grid: QuadGrid, f, g) -> complex:
    """<f, g> = sum_i w_i f(z_i) conj(g(z_i)) exp(-N*V(z_i)), f and g the
    arrays of values at grid.nodes.

    numpy's pairwise-summed reduction keeps the result deterministic.
    """
    fv, gv = np.asarray(f, dtype=CLD), np.asarray(g, dtype=CLD)
    return complex(np.sum(grid.measure_weights * fv * np.conj(gv)))


def _ring_sums(F, r, a, z):
    """sum_i a_i (T/2pi) int f_i(t) dt / (z - r_i e^{it}) over rings
    carrying trigonometric polynomials with DFT coefficients F[..., K+m]
    (mode m); r and a broadcast against z[:, None].  A ring inside |z|
    gives (1/z) sum_k F_{-k} (r/z)^k, one outside -(1/r) sum_k F_{k+1}
    (z/r)^k, both by Horner in a ratio of modulus <= 1, so nothing
    overflows."""
    K = (F.shape[-1] - 1) // 2
    z = z[:, None]
    inner = r < np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(inner, r / z, z / r)
        acc = np.where(inner, F[..., 0], CLD(0))
        for k in range(K - 1, -1, -1):
            acc = acc * q + np.where(inner, F[..., K - k], F[..., K + k + 1])
        return np.sum(a * np.where(inner, acc / z, -acc / r), axis=-1)


def cauchy_transform(grid: QuadGrid, values, z) -> np.ndarray:
    """[C lambda](z) = int values(w) exp(-N*V(w)) / (z-w) dm(w) in
    clongdouble, with the shape of z; values are the density on
    grid.nodes.

    Exact in angle: each ring of values * weight is replaced by its
    trigonometric interpolant (one numpy FFT, which runs in long double
    since numpy 2.0; Nyquist mode split in half),
    whose ring integral against 1/(z-w) is a finite geometric series
    (Daripa, SIAM J. Sci. Stat. Comput. 13, 1992).  That integral jumps
    by 2*pi*lambda(z)/z at r = |z|, so the Legendre panel holding |z| is
    split there and each part integrated by an n_r-point Gauss rule on
    the panel's own Legendre interpolant of the coefficients.  Beyond
    r_trunc nothing is split and the sum is the moment series of lambda.
    The result is smooth in z, as finite-difference d-bar checks need.
    """
    # here, so the other numeric paths load no numpy.polynomial
    from numpy.polynomial.legendre import legvander

    z = np.asarray(z, dtype=CLD)
    T, n = grid.angular_order, grid.radial_order
    K = T // 2
    lam = (np.asarray(values).astype(CLD) * grid.weight_values).reshape(-1, T)
    F = np.roll(np.fft.fft(lam, axis=1), K, axis=1)  # modes -K..K-1
    if T % 2 == 0:
        F = np.concatenate([F, F[:, :1]], axis=1)
        F[:, [0, -1]] *= LD(0.5)
    r, a = np.abs(grid.nodes[::T]), grid.ring_areas

    # panels are consecutive groups of n rings on Gauss-Legendre nodes
    xs, ws = _legendre_rule(n)
    rp = r.reshape(-1, n)
    half = (rp[:, -1] - rp[:, 0]) / (xs[-1] - xs[0])
    mid = LD(0.5) * (rp[:, -1] + rp[:, 0])
    # node values -> Legendre coefficients of the panel interpolant
    to_leg = (np.arange(n)[:, None] + LD(0.5)) * legvander(xs, n - 1).T * ws
    sides = np.array([[-1], [1]])

    zf = z.ravel()
    p = np.minimum(np.searchsorted(mid + half, np.abs(zf), side="right"),
                   len(mid) - 1)
    tau = (np.abs(zf) - mid[p]) / half[p]  # |z| in panel coordinates
    split = np.abs(tau) < 1
    out = np.empty(zf.shape, dtype=CLD)
    # bound the (points, 2n, modes) interpolated coefficients to ~32 MB
    chunk = max(1, 2**20 // (2 * n * F.shape[1]))
    for i in range(0, zf.size, chunk):
        c = slice(i, i + chunk)
        sp = split[c]
        skip = sp[:, None] & (np.arange(r.size) // n == p[c, None])
        out[c] = _ring_sums(F, r, np.where(skip, LD(0), a), zf[c])
        ps, ts = p[c][sp], tau[c][sp]
        # Gauss rules on [-1, tau] and [tau, 1], the parts of the panel
        u = LD(0.5) * (1 - sides * ts)[..., None]    # (2, points, 1)
        t = np.concatenate(u * (xs - sides[..., None]) + sides[..., None], -1)
        wt = np.concatenate(u * ws, -1)
        rho = mid[ps, None] + half[ps, None] * t
        Fs = (legvander(t, n - 1) @ to_leg).astype(CLD) \
            @ F.reshape(-1, n, F.shape[1])[ps]
        a_s = half[ps, None] * wt * rho * (LD(2.0) * _PI / LD(T))
        out[c][sp] += _ring_sums(Fs, rho, a_s, zf[c][sp])
    return out.reshape(z.shape)


def cauchy_tail_split(grid: QuadGrid, dens_values: np.ndarray, n: int, z):
    """(CT(z), CT(z) - m_n/z^(n+1), m_n) for CT = `cauchy_transform` and
    m_n = int w^n dens dlambda.  Beyond r_trunc CT is the moment series,
    summed in clongdouble; for density conj(P_n) the moments below n
    vanish by discrete orthogonality, so the deviation decays like
    z^-(n+2)."""
    z = np.asarray(z, dtype=CLD)
    value = cauchy_transform(grid, dens_values, z)
    m_n = np.sum(grid.measure_weights * np.asarray(dens_values).astype(CLD)
                 * grid.nodes ** n)
    dev = value - m_n / z ** (n + 1)
    return value.astype(complex), np.asarray(dev, dtype=complex), complex(m_n)
