"""Weighted Fekete points: minimize the discrete Coulomb energy

    E = (1/2) sum_{i != j} log 1/|z_i - z_j| + sum_i Q(z_i),

with Q = (gamma/2) V, by multi-start gradient descent with backtracking,
and compare the resulting counting measure with the equilibrium measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import DiskWithCavities, classify_support, outer_radius
from .measures import POS_INF, PerturbedPotential


class CoincidentPoints(Exception):
    """Two configuration points coincide; energy is the +infinity marker."""


class IterationCap(Exception):
    """Descent hit the iteration cap before the gradient tolerance."""


@dataclass(frozen=True)
class FeketeConfig:
    n: int
    points: np.ndarray
    energy: float
    grad_norm: float
    converged: bool
    seed: int


def energy(points: np.ndarray, p: PerturbedPotential):
    """E = (1/2) sum_{i != j} log 1/|z_i - z_j| + n * sum_i Q(z_i);
    POS_INF marker if any pair coincides or a point sits on a charge.

    The external term carries the per-point weight n so both terms scale
    as n^2, matching the weight exp(-N*V) with N = gamma*n; without it
    the counting measure of the minimizers cannot converge to the
    equilibrium measure.
    """
    z = np.asarray(points, dtype=complex)
    n = len(z)
    d = np.abs(z[:, None] - z[None, :])
    iu = np.triu_indices(n, 1)
    if n > 1 and np.min(d[iu]) == 0.0:
        return POS_INF
    pair = -np.sum(np.log(d[iu])) if n > 1 else 0.0
    qsum = 0.0
    g = p.gamma / 2.0
    for zi in z:
        v = p.value(zi)
        if v is POS_INF:
            return POS_INF
        qsum += g * float(v)
    return pair + n * qsum


def gradient(points: np.ndarray, p: PerturbedPotential) -> np.ndarray:
    """g_i = dE/d(conj z_i) = -(1/2) sum_{j != i} 1/(conj z_i - conj z_j)
    + n * (gamma/2) (alpha z_i - (1/2) sum_k beta_k/(conj z_i - conj a_k))."""
    z = np.asarray(points, dtype=complex)
    zc = np.conj(z)
    diff = zc[:, None] - zc[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    g = -0.5 * np.sum(inv, axis=1)
    dq = p.alpha * z
    for a, b in p.nu.charges:
        dq = dq - 0.5 * b / (zc - np.conj(a))
    return g + len(z) * (p.gamma / 2.0) * dq


def _descend(z0: np.ndarray, p: PerturbedPotential, grad_tol: float,
             max_iter: int, strict: bool) -> tuple:
    z = z0.copy()
    e = energy(z, p)
    eta = 0.1
    for it in range(max_iter):
        g = gradient(z, p)
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            return z, float(e), gnorm, True
        # dE along z -> z - eta*g is -2*eta*sum|g|^2 to first order
        for _ in range(60):
            z_new = z - eta * g
            e_new = energy(z_new, p)
            if e_new is not POS_INF and e_new < e:
                z, e = z_new, e_new
                eta = min(eta * 1.5, 10.0)
                break
            eta *= 0.5
        else:
            return z, float(e), gnorm, gnorm < 1e-4
    if strict:
        raise IterationCap(f"gradient norm {gnorm:.2e} after {max_iter} iters")
    return z, float(e), float(np.max(np.abs(gradient(z, p)))), False


def minimize(n: int, p: PerturbedPotential, seed: int = 0, n_starts: int = 5,
             grad_tol: float = 1e-8, max_iter: int = 5000,
             strict: bool = False) -> FeketeConfig:
    """Best-of-n_starts gradient descent from uniform random starts in
    B(0, outer_radius)."""
    if n < 1:
        raise ValueError("need n >= 1")
    R = outer_radius(p)
    best = None
    for s in range(n_starts):
        rng = np.random.default_rng(seed + s)
        r = R * np.sqrt(rng.uniform(0.0, 1.0, n))
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        z0 = r * np.exp(1j * th)
        z, e, gnorm, ok = _descend(z0, p, grad_tol, max_iter, strict)
        if best is None or e < best[1]:
            best = (z, e, gnorm, ok, seed + s)
    z, e, gnorm, ok, used = best
    return FeketeConfig(n=n, points=z, energy=e, grad_norm=gnorm,
                        converged=ok, seed=used)


def gradient_fd_check(points: np.ndarray, p: PerturbedPotential,
                      h: float = 1e-6) -> float:
    """Max relative error between the analytic gradient and central finite
    differences of the energy (dE = 2 Re[g_i d(conj z_i)] per point)."""
    z = np.asarray(points, dtype=complex)
    g = gradient(z, p)
    worst = 0.0
    for i in range(len(z)):
        for d in (h, 1j * h):
            zp = z.copy()
            zp[i] += d
            zm = z.copy()
            zm[i] -= d
            fd = (energy(zp, p) - energy(zm, p)) / (2.0 * h)
            exact = 2.0 * (g[i] * np.conj(d / h)).real
            worst = max(worst, abs(fd - exact) / max(abs(exact), 1.0))
    return worst


def _circle_lens_area(d: float, r1: float, r2: float) -> float:
    """Area of intersection of disks with radii r1, r2 at center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rm = min(r1, r2)
        return math.pi * rm * rm
    a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
    a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
    tri = 0.5 * math.sqrt(max((-d + r1 + r2) * (d + r1 - r2)
                              * (d - r1 + r2) * (d + r1 + r2), 0.0))
    return a1 + a2 - tri


def _annulus_mass(geom: DiskWithCavities, r_lo: float, r_hi: float) -> float:
    """Equilibrium-measure mass (density normalized to 1 on K) of the
    annulus r_lo <= |z| < r_hi."""
    R = geom.outer_radius
    area = math.pi * (min(r_hi, R) ** 2 - min(r_lo, R) ** 2)
    for c, r in geom.cavities:
        area -= (_circle_lens_area(abs(c), min(r_hi, R), r)
                 - _circle_lens_area(abs(c), min(r_lo, R), r))
    return max(area, 0.0) / geom.area()


def discrepancy(cfg: FeketeConfig, geom: DiskWithCavities,
                n_annuli: int = 8) -> dict:
    """Fraction of points inside the support, and the worst deviation of
    annulus counts from the uniform equilibrium prediction."""
    z = cfg.points
    inside = geom.contains(z)
    R = geom.outer_radius
    edges = R * np.sqrt(np.linspace(0.0, 1.0, n_annuli + 1))
    worst = 0.0
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        got = float(np.mean((np.abs(z) >= lo) & (np.abs(z) < hi)))
        want = _annulus_mass(geom, lo, hi)
        rows.append({"r_lo": lo, "r_hi": hi, "observed": got, "expected": want})
        worst = max(worst, abs(got - want))
    cav = 0
    for c, r in geom.cavities:
        cav += int(np.sum(np.abs(z - c) < r))
    return {"fraction_inside": float(np.mean(inside)),
            "max_annulus_discrepancy": worst,
            "scaled_discrepancy": worst * math.sqrt(cfg.n),
            "points_in_cavities": cav,
            "points_outside_disk": int(np.sum(np.abs(z) > R)),
            "annuli": rows}
