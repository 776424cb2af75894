"""Weighted Fekete points: minimize the discrete Coulomb energy

    E = (1/2) sum_{i != j} log 1/|z_i - z_j| + n sum_i Q(z_i),

with Q = scaled_potential(p) = (gamma/2) V, by L-BFGS (Liu & Nocedal 1989)
and a Newton polish on the analytic Hessian (Nocedal & Wright, Numerical
Optimization, ch. 3 and 7), and compare the counting measure with the
equilibrium measure.  L-BFGS stalls where double precision no longer
resolves decreases of E (grad about 5e-6 at n = 200, where E is about
2e4); Newton works on the gradient alone and takes it to roundoff in two
steps.  A positive definite Hessian there certifies a strict local minimum,
converged when max |g| < GRAD_TOL.  gradient_fd_check steps by _FD_STEP;
discrepancy counts points on _ANNULI annuli.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import DiskWithCavities, outer_radius, scaled_potential
from .measures import PerturbedPotential
from .planarquad import check_memory

GRAD_TOL = 1e-8
_FD_STEP = 1e-6
_ANNULI = 8
# Newton steps after L-BFGS; two reach roundoff at n = 200
_NEWTON_STEPS = 4
# peak bytes per point pair of `hessian` and `_min_eigenvalue`: the 2n x 2n
# real Hessian and the eigensolver's copy of it, 65.7 n^2 traced by
# tracemalloc at n = 400 (`hessian` alone: 48.5 n^2)
_PEAK_BYTES_PER_PAIR = 66


@dataclass(frozen=True)
class FeketeConfig:
    n: int
    points: np.ndarray
    energy: float
    grad_norm: float
    converged: bool
    seed: int
    min_eigenvalue: float = math.nan  # of the Hessian, see _min_eigenvalue


def energy(points: np.ndarray, p: PerturbedPotential) -> float:
    """E = (1/2) sum_{i != j} log 1/|z_i - z_j| + n * sum_i Q(z_i);
    +inf if any pair coincides or a point sits on a charge.

    The external term carries the per-point weight n so both terms scale
    as n^2, matching the weight exp(-N*V) = exp(-2n Q) with N = gamma*n;
    without it the counting measure of the minimizers cannot converge to
    the equilibrium measure.
    """
    z = np.asarray(points, dtype=complex)
    return _energy(z, _conj_differences(z), scaled_potential(p))


def gradient(points: np.ndarray, p: PerturbedPotential) -> np.ndarray:
    """g_i = dE/d(conj z_i) = -(1/2) sum_{j != i} 1/(conj z_i - conj z_j)
    + n dQ(z_i), dQ = dQ/d(conj z) = alpha z - (1/2) sum_k beta_k/(conj z
    - conj a_k) with Q's alpha and beta_k."""
    z = np.asarray(points, dtype=complex)
    return _gradient(z, _conj_differences(z), scaled_potential(p))


def _conj_differences(z: np.ndarray) -> np.ndarray:
    """conj z_i - conj z_j, with 1 on the diagonal."""
    zc = np.conj(z)
    diff = zc[:, None] - zc[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff


def _energy(z: np.ndarray, diff: np.ndarray, q: PerturbedPotential) -> float:
    d = np.abs(diff)  # |z_i - z_j|, exactly
    v = q.value_grid(z)
    if np.any(d == 0.0) or np.any(np.isposinf(v)):
        return math.inf
    return float(-0.5 * np.sum(np.log(d)) + len(z) * np.sum(v))


def _gradient(z: np.ndarray, diff: np.ndarray,
              q: PerturbedPotential) -> np.ndarray:
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    g = -0.5 * np.sum(inv, axis=1)
    zc = np.conj(z)
    dq = q.alpha * z
    for a, b in q.nu.charges:
        dq = dq - 0.5 * b / (zc - np.conj(a))
    return g + len(z) * dq


def hessian(points: np.ndarray, p: PerturbedPotential) -> np.ndarray:
    """Real 2n x 2n Hessian of E in the coordinates points.view(float) =
    (Re z_1, Im z_1, Re z_2, ...).

    The log terms are harmonic, so d^2E/dz_i d(conj z_j) = c delta_ij with
    c = n alpha; B = d^2E/d(conj z) d(conj z) is complex symmetric,
    B_ij = -(1/2)/(conj z_i - conj z_j)^2 off the diagonal and
    B_ii = -sum_{j != i} B_ij + (n/2) sum_k beta_k/(conj z_i - conj a_k)^2,
    with Q's alpha and beta_k.  Then d^2E = 2c |dz|^2 + 2 Re(dz^H B
    conj(dz)).
    """
    q = scaled_potential(p)
    z = np.asarray(points, dtype=complex)
    n, zc = len(z), np.conj(z)
    B = -0.5 / _conj_differences(z) ** 2
    np.fill_diagonal(B, 0.0)
    dq = sum(b / (zc - np.conj(a)) ** 2 for a, b in q.nu.charges)
    np.fill_diagonal(B, n * 0.5 * dq - np.sum(B, axis=1))
    c = n * q.alpha
    # block (i, j): 2 [[Re B_ij, Im B_ij], [Im B_ij, -Re B_ij]] + 2c I delta_ij
    H = np.empty((2 * n, 2 * n))
    H[0::2, 0::2] = B.real
    np.negative(B.real, out=H[1::2, 1::2])
    H[0::2, 1::2] = H[1::2, 0::2] = B.imag
    H.flat[::2 * n + 1] += c
    H *= 2.0
    return H


def _solve(z0: np.ndarray, p: PerturbedPotential) -> tuple:
    """L-BFGS to its floor, then Newton steps while they shrink max |g|.
    Both run on z.view(float), where the gradient of E is 2 g.view(float).
    Q is built here once: the public calls on it build nothing more."""
    from scipy import optimize  # here, so the package loads numpy alone
    q = scaled_potential(p)

    def fun(x):
        z = x.view(complex)
        diff = _conj_differences(z)  # shared by both terms
        return _energy(z, diff, q), 2.0 * _gradient(z, diff, q).view(float)

    z = optimize.minimize(fun, z0.view(float), jac=True, method="L-BFGS-B",
                          options={"ftol": 0.0, "gtol": 0.0}).x.view(complex)
    g = gradient(z, q)
    gnorm = float(np.max(np.abs(g)))
    for _ in range(_NEWTON_STEPS):
        if gnorm < GRAD_TOL:
            break
        step = np.linalg.solve(hessian(z, q), 2.0 * g.view(float))
        z_new = z - step.view(complex)
        g_new = gradient(z_new, q)
        if not np.max(np.abs(g_new)) < gnorm:
            break
        z, g, gnorm = z_new, g_new, float(np.max(np.abs(g_new)))
    return z, energy(z, q), gnorm


def _min_eigenvalue(z: np.ndarray, p: PerturbedPotential) -> float:
    """Smallest eigenvalue of the Hessian; when every charge sits at 0, on
    the complement of the rotation direction i z, along which E is flat."""
    from scipy.linalg import eigh  # here, so the package loads numpy alone
    H = hessian(z, p)
    if all(a == 0 for a, _ in p.nu.charges) and np.any(z):
        t = (1j * z).view(float) / np.linalg.norm(z)
        # P H P + c t t^T with P = I - t t^T, as the rank-two update
        # H - t w^T - w t^T, w = H t - (t^T H t + c)/2 t: the rotation
        # moves above the spectrum, bounded by the row sums c
        c = np.max(np.sum(np.abs(H), axis=1))
        Ht = H @ t
        w = Ht - 0.5 * (t @ Ht + c) * t
        H -= np.outer(t, w)
        H -= np.outer(w, t)
    return float(eigh(H, eigvals_only=True, subset_by_index=[0, 0])[0])


def minimize(n: int, p: PerturbedPotential, seed: int = 0,
             n_starts: int = 5) -> FeketeConfig:
    """Lowest energy over n_starts uniform random starts in
    B(0, outer_radius); converged when max |g_i| < GRAD_TOL and the
    Hessian there is positive definite.  Raises
    planarquad.OverMemoryBudget, before any solver runs, when the Hessian
    would not fit in `planarquad.memory_budget()`."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_memory(_PEAK_BYTES_PER_PAIR * n * n,
                 f"the {2 * n} x {2 * n} Hessian of {n} Fekete points")
    R = outer_radius(p)

    def start(s):
        rng = np.random.default_rng(s)
        r = R * np.sqrt(rng.uniform(0.0, 1.0, n))
        return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))

    runs = [(*_solve(start(s), p), s)
            for s in range(seed, seed + n_starts)]
    z, e, gnorm, used = min(runs, key=lambda run: run[1])
    lam = _min_eigenvalue(z, p)
    return FeketeConfig(n=n, points=z, energy=e, grad_norm=gnorm,
                        converged=gnorm < GRAD_TOL and lam > 0, seed=used,
                        min_eigenvalue=lam)


def gradient_fd_check(points: np.ndarray, p: PerturbedPotential) -> float:
    """Max relative error between the analytic gradient and central finite
    differences of the energy (dE = 2 Re[g_i d(conj z_i)] per point)."""
    z = np.asarray(points, dtype=complex)
    g = gradient(z, p)
    h = _FD_STEP
    worst = 0.0
    for i, d in itertools.product(range(len(z)), (h, 1j * h)):
        dz = np.zeros_like(z)
        dz[i] = d
        fd = (energy(z + dz, p) - energy(z - dz, p)) / (2.0 * h)
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


def discrepancy(cfg: FeketeConfig, geom: DiskWithCavities) -> dict:
    """Fraction of points inside the support, and the worst deviation of
    annulus counts from the uniform equilibrium prediction."""
    z = cfg.points
    inside = geom.contains(z)
    R = geom.outer_radius
    edges = R * np.sqrt(np.linspace(0.0, 1.0, _ANNULI + 1))
    worst = 0.0
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        got = float(np.mean((np.abs(z) >= lo) & (np.abs(z) < hi)))
        want = _annulus_mass(geom, lo, hi)
        rows.append({"r_lo": lo, "r_hi": hi, "observed": got, "expected": want})
        worst = max(worst, abs(got - want))
    cav = sum(int(np.sum(np.abs(z - c) < r)) for c, r in geom.cavities)
    return {"fraction_inside": float(np.mean(inside)),
            "max_annulus_discrepancy": worst,
            "scaled_discrepancy": worst * math.sqrt(cfg.n),
            "points_in_cavities": cav,
            "points_outside_disk": int(np.sum(np.abs(z) > R)),
            "annuli": rows}
