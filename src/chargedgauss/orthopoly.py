"""Monic planar orthogonal polynomials against exp(-N*V) dm, their norms,
zeros, counting measures and the one-point function.

Orthogonalization runs as Arnoldi on the quadrature nodes (orthogonalize
z*q_k against all previous orthonormal q_j) rather than Cholesky of the
moment matrix, which would square an already exponential condition
number.  Each step is block classical Gram-Schmidt over the stored basis,
with a second pass only when the first cancelled most of the vector.  All
accumulations are in 80-bit extended precision: the Cauchy-tail decay of
P_n (criterion 06) is not resolved in complex double.  Zero finding is
simultaneous Aberth iteration, started from the eigenvalues of the
Hessenberg matrix and refined in arbitrary precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .measures import POS_INF, PerturbedPotential
from .planarquad import CLD, LD, QuadGrid

GRAM_TOL = 1e-8
# a second Gram-Schmidt pass runs when ||v|| falls below this share of
# its value before the pass
_KAHAN_PARLETT = 1.0 / math.sqrt(2.0)


class LossOfOrthogonality(Exception):
    """Gram residual exceeded tolerance; raise precision or lower n_max."""


class NonConvergence(Exception):
    """Root iteration failed to reach the residual target."""


@dataclass(frozen=True)
class OrthoPolySet:
    """Monic orthogonal polynomials P_0..P_{n_max} with squared norms h_k.

    monic_coeffs[k] holds ascending coefficients of P_k (clongdouble,
    leading entry exactly 1); hessenberg holds the recurrence
    coefficients of the orthonormal Arnoldi basis.
    """

    n_max: int
    monic_coeffs: tuple
    norms: np.ndarray               # h_k, longdouble
    hessenberg: np.ndarray
    gram_residual: float
    potential: PerturbedPotential = field(repr=False)

    def evaluate(self, k: int, z):
        """P_k(z) by Horner in clongdouble."""
        if not 0 <= k <= self.n_max:
            raise ValueError(f"degree {k} outside 0..{self.n_max}")
        z = np.asarray(z, dtype=CLD)
        acc = np.zeros_like(z)
        for c in self.monic_coeffs[k][::-1]:
            acc = acc * z + c
        return acc

    def orthonormal(self, k: int, z):
        """p_k(z) = P_k(z)/sqrt(h_k)."""
        return self.evaluate(k, z) / np.sqrt(self.norms[k])

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "norms": [float(h) for h in self.norms],
            "monic_coeffs": [[[float(c.real), float(c.imag)] for c in ck]
                             for ck in self.monic_coeffs],
        }


def _norm(v: np.ndarray):
    # np.sum adds pairwise; the running sum of np.vdot loses about two
    # digits of the norm over 10^4-10^5 nodes
    return np.sqrt(np.sum(v.real ** 2 + v.imag ** 2))


def build_orthopolys(p: PerturbedPotential, grid: QuadGrid,
                     n_max: int) -> OrthoPolySet:
    """Arnoldi orthogonalization of 1, z, z^2, ... on the grid nodes.

    Each step is one block classical Gram-Schmidt pass of v = z*q_k
    against the rows q_j of the basis Q, in clongdouble:
    h_j = <v, q_j>, v -= sum_j h_j q_j.  A second pass runs only when the
    first cancelled more than a factor 1/sqrt(2) of ||v|| (the
    Kahan-Parlett test; two passes suffice, see Giraud, Langou &
    Rozloznik 2005).  The coefficient rows of the q_k in the monomial
    basis are carried through the same updates, so the monic polynomials
    come out exactly (leading coefficient set to 1 by division).
    """
    if grid.angular_order < 2 * n_max + 2:
        raise ValueError(
            f"angular order {grid.angular_order} cannot resolve degree "
            f"{2 * n_max} moments; need at least {2 * n_max + 2}")

    # Q[k]: q_k at the nodes times sqrt(weight); C[k, :k+1]: ascending
    # monomial coefficients of q_k
    Q = np.empty((n_max + 1, grid.nodes.size), dtype=CLD)
    C = np.zeros((n_max + 1, n_max + 1), dtype=CLD)
    H = np.zeros((n_max + 2, n_max + 1), dtype=CLD)
    v = np.sqrt(grid.measure_weights).astype(CLD)
    nrm = _norm(v)
    Q[0] = v / nrm
    C[0, 0] = 1.0 / nrm
    for k in range(n_max):
        Qk = Q[:k + 1]
        v = grid.nodes * Q[k]
        c = np.roll(C[k], 1)
        nrm = _norm(v)
        for _pass in range(2):
            # conjugating v, not Q, spares a conjugated copy of the basis;
            # einsum streams the rows of Q where np.dot(h, Qk) would walk
            # its columns
            h = np.conj(np.dot(Qk, np.conj(v)))
            v -= np.einsum("j,jm->m", h, Qk)
            c -= np.dot(h, C[:k + 1])
            H[:k + 1, k] += h
            before, nrm = nrm, _norm(v)
            if nrm >= before * _KAHAN_PARLETT:
                break
        if not nrm > 0:
            raise LossOfOrthogonality(
                f"vanishing norm at degree {k + 1}; grid cannot resolve it")
        H[k + 1, k] = nrm
        Q[k + 1] = v / nrm
        C[k + 1] = c / nrm

    lead = np.diagonal(C)
    monic = tuple(C[k, :k + 1] / lead[k] for k in range(n_max + 1))
    hs = LD(1.0) / np.abs(lead) ** 2

    # Gram residual of the orthonormal node vectors: max |<q_i, q_j>|, i < j
    gram = 0.0
    for j in range(1, n_max + 1):
        gram = max(gram, float(np.max(np.abs(np.dot(Q[:j], np.conj(Q[j]))))))
    if gram > GRAM_TOL:
        raise LossOfOrthogonality(
            f"Gram residual {gram:.2e} exceeds {GRAM_TOL:.0e} at n_max={n_max}")
    return OrthoPolySet(n_max=n_max, monic_coeffs=monic, norms=hs,
                        hessenberg=H, gram_residual=gram, potential=p)


def radial_norm_oracle(p: PerturbedPotential, k: int) -> float:
    """Closed-form h_k for radial weights: pi*Gamma(k + N*beta/2 + 1) /
    (N*alpha)^(k + N*beta/2 + 1), with beta = 0 for the empty measure."""
    beta = 0.0
    if p.nu.charges:
        if len(p.nu.charges) != 1 or p.nu.charges[0][0] != 0:
            raise ValueError("oracle only valid for the radial cases")
        beta = p.nu.charges[0][1]
    s = k + p.N * beta / 2.0 + 1.0
    return math.pi * math.exp(math.lgamma(s) - s * math.log(p.N * p.alpha))


@dataclass(frozen=True)
class ZeroSet:
    """All n zeros of P_n with counting-measure weight 1/n each."""

    n: int
    zeros: np.ndarray
    max_residual: float  # max_j |P_n(z_j)| / prod_{k != j} |z_j - z_k|

    def counting_weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)


def _aberth_longdouble(coeffs: np.ndarray, start: np.ndarray,
                       tol: float = 5e-14, itmax: int = 300):
    c = np.asarray(coeffs, dtype=CLD)
    n = len(c) - 1
    x = np.asarray(start, dtype=CLD)
    dc = c[1:] * np.arange(1, n + 1)

    def horner(cc, zz):
        acc = np.zeros_like(zz)
        for a in cc[::-1]:
            acc = acc * zz + a
        return acc

    for it in range(itmax):
        newt = horner(c, x) / horner(dc, x)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        S = np.sum(1.0 / diff, axis=1) - 1.0
        corr = newt / (1.0 - newt * S)
        x = x - corr
        if np.max(np.abs(corr)) < tol:
            break
    return np.asarray(x, dtype=complex)


def _refine_mpmath(coeffs: np.ndarray, roots: np.ndarray, iters: int = 3,
                   dps: int = 45):
    """A few Aberth sweeps in arbitrary precision, plus exact residuals."""
    n = len(roots)
    with mp.workdps(dps):
        cs = [mp.mpc(str(np.real(c)), str(np.imag(c))) for c in coeffs]
        dcs = [cs[k] * k for k in range(1, len(cs))]

        def pv(cc, x):
            acc = mp.mpc(0)
            for c in reversed(cc):
                acc = acc * x + c
            return acc

        xs = [mp.mpc(r) for r in roots]
        for _ in range(iters):
            corr = []
            for i, x in enumerate(xs):
                newt = pv(cs, x) / pv(dcs, x)
                S = mp.fsum([1 / (x - xs[j]) for j in range(n) if j != i])
                corr.append(newt / (1 - newt * S))
            xs = [x - c for x, c in zip(xs, corr)]
        out = np.array([complex(x) for x in xs])
        res = np.array([abs(complex(pv(cs, x))) for x in xs])
    den = np.array([np.prod(np.abs(r - np.delete(out, i)))
                    for i, r in enumerate(out)])
    return out, float(np.max(res / den))


def compute_zeros(ops: OrthoPolySet, n: int,
                  residual_tol: float = 1e-10) -> ZeroSet:
    """All roots of P_n by Aberth-Ehrlich simultaneous iteration.

    P_n is the Arnoldi polynomial det(zI - H_n), so the iteration starts
    from the eigenvalues of the leading n x n block of the Hessenberg
    matrix.  Extended-precision sweeps on the stored clongdouble
    coefficients are followed by arbitrary-precision polishing of the
    same coefficients; the certified quantity is the product-form
    residual |P_n(z_j)| / prod_{k != j} |z_j - z_k|.
    """
    if not 1 <= n <= ops.n_max:
        raise ValueError(f"degree {n} outside 1..{ops.n_max}")
    coeffs = ops.monic_coeffs[n]
    low = np.max(np.abs(coeffs[:-1])) if n >= 1 else 0.0
    if low < 1e-13:
        # monomial fast path: P_n = z^n, root 0 with multiplicity n
        return ZeroSet(n=n, zeros=np.zeros(n, dtype=complex), max_residual=0.0)
    start = np.linalg.eigvals(np.asarray(ops.hessenberg[:n, :n], dtype=complex))
    roots = _aberth_longdouble(coeffs, start)
    roots, resid = _refine_mpmath(coeffs, roots)
    if resid > residual_tol:
        raise NonConvergence(
            f"zero residual {resid:.2e} above {residual_tol:.0e} at n={n}")
    return ZeroSet(n=n, zeros=roots, max_residual=resid)


def reconstruct_coeffs(zs: ZeroSet) -> np.ndarray:
    """Monic coefficients from the product form prod (z - z_j)."""
    c = np.array([1.0 + 0.0j], dtype=CLD)
    for r in zs.zeros:
        c = np.convolve(c, np.array([-CLD(r), 1.0], dtype=CLD))
    return np.asarray(c, dtype=complex)


def one_point_function(ops: OrthoPolySet, n: int, z):
    """rho_{n}(z) = (1/n) sum_{k<n} |p_k(z)|^2 exp(-N*V(z)), nonnegative."""
    if not 1 <= n <= ops.n_max + 1:
        raise ValueError(f"need 1 <= n <= {ops.n_max + 1}")
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=float)
    for k in range(n):
        acc += np.abs(ops.orthonormal(k, z).astype(complex)) ** 2
    return acc / n * ops.potential.weight_grid(z)


def zero_potential(zs: ZeroSet, z: complex):
    """-(1/n) log|P_n(z)| = (1/n) sum_j log(1/|z - z_j|); +inf at a zero."""
    z = complex(z)
    d = np.abs(z - zs.zeros)
    if np.any(d == 0):
        return POS_INF
    return float(-np.sum(np.log(d)) / zs.n)


def zero_potential_grid(zs: ZeroSet, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore"):
        return -np.sum(np.log(np.abs(z[..., None] - zs.zeros)), axis=-1) / zs.n
