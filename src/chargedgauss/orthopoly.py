"""Monic planar orthogonal polynomials against exp(-N*V) dm, their norms,
zeros, counting measures and the one-point function.

Orthogonalization runs as Arnoldi on the quadrature nodes (orthogonalize
z*q_k against all previous orthonormal q_j) rather than Cholesky of the
moment matrix, which would square an already exponential condition
number.  Each step is block classical Gram-Schmidt over the stored basis,
with a second pass only when the first cancelled most of the vector.  All
accumulations are in 80-bit extended precision: the Cauchy-tail decay of
P_n (criterion 06) is not resolved in complex double.

The loop runs on `planarquad.polynomial_rule`, laid out in the frame
x = z e^{-i phi} of the weight's mirror line when it has one exactly (all
charges on one line through 0, or in conjugate pairs of equal mass).
There the orthonormal polynomials have real coefficients, and the loop
runs on the upper half of the rule only: nodes on the real axis count
once, every other node also stands for its mirror image, and inner
products, norms and Gram rows are the real parts of the half sums, so H
is real.  Rotation covariance, q_k(z) = e^{ik phi} q~_k(z e^{-i phi}),
rotates H back at the end.  This halves the extended-precision work and
the stored basis.

When the weight is a trigonometric polynomial on circles (N*beta/2 an
integer for every charge off 0), the rule is the weight's own
Gauss-Laguerre rule, exact for every inner product of polynomials of
degree <= n_max (see `planarquad`): H is the weight's.  Other weights run
on the rings and angles of a grid built for the same potential, given or
built by the rule.

Polynomials are evaluated and root-found through the Hessenberg matrix H
alone: values by the recurrence
p_{k+1} = (z p_k - sum_{j<=k} H[j,k] p_j) / H[k+1,k], the zeros of
P_n = det(zI - H_n) by Aberth iteration on that recurrence, started from
the eigenvalues of H_n.  Gram residuals above GRAM_TOL and zero residuals
above ZERO_RESIDUAL_TOL raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .measures import PerturbedPotential
from .planarquad import CLD, LD, QuadGrid, polynomial_rule

GRAM_TOL = 1e-8
ZERO_RESIDUAL_TOL = 1e-10
# `chargedgauss verify`'s bound on the product form of the zeros against
# P_n's monic coefficients, relative to max(1, max |coefficient|)
PRODUCT_FORM_TOL = 1e-8
# a second Gram-Schmidt pass runs when ||v|| falls below this share of
# its value before the pass
_KAHAN_PARLETT = 1.0 / math.sqrt(2.0)
_ABERTH_ULPS = 8
_ABERTH_ITMAX = 100
# H_n counts as a shift matrix below this share of its subdiagonal
_RADIAL_TOL = 1e-13


class LossOfOrthogonality(Exception):
    """Gram residual exceeded tolerance; raise precision or lower n_max."""


class NonConvergence(Exception):
    """Root iteration failed to reach the residual target."""


@dataclass(frozen=True)
class OrthoPolySet:
    """Monic orthogonal polynomials P_0..P_{n_max} with squared norms h_k.

    hessenberg holds the recurrence coefficients of the orthonormal
    Arnoldi basis, through which the polynomials are evaluated.
    """

    n_max: int
    norms: np.ndarray               # h_k, longdouble
    hessenberg: np.ndarray
    gram_residual: float
    potential: PerturbedPotential = field(repr=False)

    def evaluate(self, k: int, z):
        """P_k(z) in clongdouble, from the Hessenberg recurrence:
        P_k = p_k * prod_{j<k} H[j+1,j] with p_0 = 1."""
        if not 0 <= k <= self.n_max:
            raise ValueError(f"degree {k} outside 0..{self.n_max}")
        H = self.hessenberg
        p = _recurrence(H, k, np.asarray(z, dtype=CLD))
        return p[k] * np.prod(np.diagonal(H, -1)[:k].real)

    @cached_property
    def monic_coeffs(self) -> tuple:
        """Ascending coefficients of P_0..P_{n_max} (clongdouble, leading
        entry exactly 1) for export and product-form checks, by the monic
        recurrence P_{k+1} = z P_k - sum_{j<=k} H[j,k] (s_k/s_j) P_j with
        s_k = prod_{i<k} H[i+1,i]."""
        H, n = self.hessenberg, self.n_max
        s = np.cumprod(np.append(LD(1.0), np.diagonal(H, -1)[:n].real))
        C = np.zeros((n + 1, n + 1), dtype=CLD)
        C[0, 0] = 1.0
        for k in range(n):
            C[k + 1, 1:] = C[k, :-1]
            C[k + 1] -= np.dot(H[:k + 1, k] * (s[k] / s[:k + 1]), C[:k + 1])
        return tuple(C[k, :k + 1] for k in range(n + 1))

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


def _recurrence(H: np.ndarray, k: int, z: np.ndarray, source=None):
    """Rows r_0..r_k at the points z of the Arnoldi recurrence
    r_{j+1} = (z r_j + s_j - sum_{i<=j} H[i,j] r_i) / H[j+1,j].

    Without a source, r_0 = 1 and r_j = p_j, the orthonormal polynomial
    scaled to p_0 = 1 (so P_j = p_j * prod_{i<j} H[i+1,i]); with the
    rows p as source, r_0 = 0 and r_j = p_j'.
    """
    shape, z = z.shape, z.ravel()
    r = np.empty((k + 1, z.size), dtype=CLD)
    r[0] = 1.0 if source is None else 0.0
    for j in range(k):
        s = z * r[j] - np.dot(H[:j + 1, j], r[:j + 1])
        if source is not None:
            s += source[j].ravel()
        r[j + 1] = s / H[j + 1, j].real
    return r.reshape((k + 1,) + shape)


def build_orthopolys(p: PerturbedPotential, grid: QuadGrid | None,
                     n_max: int) -> OrthoPolySet:
    """Arnoldi orthogonalization of 1, z, z^2, ... against p's weight, on
    the nodes of `planarquad.polynomial_rule(p, grid, n_max)`.  grid may
    be None for every weight; one given must have been built for p
    (ValueError otherwise), and is read only outside the exact class.

    Each step is one block classical Gram-Schmidt pass of v = z*q_k
    against the rows q_j of the basis Q, in clongdouble:
    h_j = <v, q_j>, v -= sum_j h_j q_j.  A second pass runs only when the
    first cancelled more than a factor 1/sqrt(2) of ||v|| (the
    Kahan-Parlett test; two passes suffice, see Giraud, Langou &
    Rozloznik 2005).  The squared norms are h_k = h_0 s_k^2 with
    h_0 = sum of the weights and s_k = prod_{i<k} H[i+1,i].

    Exactness: in the exact class the rule integrates every product the
    loop forms (z q_k conj(q_j), k < n_max, j <= n_max) exactly, so the
    Gram certificate, computed on the same rule, certifies the weight's
    inner product.  Other weights run on a grid, and the certificate is
    the grid's.

    When the weight has a mirror line at angle phi the rule is folded onto
    the upper half plane of its frame, the loop runs with real h_j (the
    real dot product of q_j and v viewed as interleaved reals), and the
    result is rotated back: H[j,k] e^{i(k+1-j) phi}.

    Raises OverMemoryBudget, before the rule is built, when the basis Q
    (n_max + 1 rows over the rule's nodes) would exceed
    `planarquad.memory_budget()`.
    """
    # a mirror-symmetric weight has orthonormal polynomials with real
    # coefficients in the frame of its mirror line: run on the half rule
    # there, with inner products the real parts of the half sums
    x, w, phi = polynomial_rule(p, grid, n_max)
    x, w = x.ravel(), w.ravel()
    fold = phi is not None
    # Q[k]: q_k at the nodes times sqrt(weight).  B is Q as the inner
    # product sees it: viewed as reals when folded, where Re<f, g> is the
    # real dot product of the interleaved real and imaginary parts
    Q = np.empty((n_max + 1, x.size), dtype=CLD)
    B = Q.view(LD) if fold else Q
    H = np.zeros((n_max + 2, n_max + 1), dtype=B.dtype)
    v = np.sqrt(w).astype(CLD)
    nrm = _norm(v)
    Q[0] = v / nrm
    u = v.view(LD) if fold else v   # v as the inner product sees it
    # conjugation is the identity on the real views, where np.conj would
    # only copy them
    conj = (lambda a: a) if fold else np.conj

    gram = 0.0   # Gram residual max |<q_i, q_j>|, i < j, of the final rows
    for k in range(n_max):
        Bk = B[:k + 1]
        np.multiply(x, Q[k], out=v)
        nrm = _norm(v)
        for _pass in range(2):
            # conjugating v, not Q, spares a conjugated copy of the basis
            h = conj(np.dot(Bk, conj(u)))
            u -= np.dot(h, Bk)
            H[:k + 1, k] += h
            before, nrm = nrm, _norm(v)
            if nrm >= before * _KAHAN_PARLETT:
                break
        if not nrm > 0:
            raise LossOfOrthogonality(
                f"vanishing norm at degree {k + 1}; grid cannot resolve it")
        H[k + 1, k] = nrm
        Q[k + 1] = v / nrm
        gram = max(gram, float(np.max(np.abs(np.dot(Bk, conj(B[k + 1]))))))

    if fold:
        # back from the rule's frame: q_k(z) = e^{ik phi} q~_k(z e^{-i phi})
        # gives H[j, k] e^{i(k+1-j) phi}
        e = np.arange(n_max + 2)
        turn = np.exp(CLD(1j) * LD(phi) * e)
        H = H * turn[np.maximum(e[:n_max + 1] + 1 - e[:, None], 0)]

    sub = np.diagonal(H, -1)[:n_max].real
    hs = np.sum(w) * np.cumprod(np.append(LD(1.0), sub ** 2))

    if gram > GRAM_TOL:
        raise LossOfOrthogonality(
            f"Gram residual {gram:.2e} exceeds {GRAM_TOL:.0e} at n_max={n_max}")
    return OrthoPolySet(n_max=n_max, norms=hs,
                        hessenberg=H, gram_residual=gram, potential=p)


@dataclass(frozen=True)
class ZeroSet:
    """All n zeros of P_n with counting-measure weight 1/n each."""

    n: int
    zeros: np.ndarray
    max_residual: float  # max_j |P_n(z_j)| / prod_{k != j} |z_j - z_k|


def compute_zeros(ops: OrthoPolySet, n: int) -> ZeroSet:
    """All roots of P_n = det(zI - H_n) by Aberth-Ehrlich simultaneous
    iteration in clongdouble (Bini 1996), started from the eigenvalues of
    H_n, with p_n and p_n' from the Hessenberg recurrence over all n
    iterates.  The certified quantity is the product-form residual
    |P_n(z_j)| / prod_{k != j} |z_j - z_k| of the returned zeros, through
    the same recurrence, at most ZERO_RESIDUAL_TOL.  When H_n is a shift
    matrix (a rotation-invariant
    weight), P_n = z^n and the zeros are exactly 0.
    """
    if not 1 <= n <= ops.n_max:
        raise ValueError(f"degree {n} outside 1..{ops.n_max}")
    H = ops.hessenberg
    sub = np.abs(np.diagonal(H, -1)[:n])
    if np.max(np.abs(np.triu(H[:n, :n]))) < _RADIAL_TOL * np.max(sub):
        return ZeroSet(n=n, zeros=np.zeros(n, dtype=complex), max_residual=0.0)
    x = np.linalg.eigvals(np.asarray(H[:n, :n], dtype=complex)).astype(CLD)
    tol = _ABERTH_ULPS * np.finfo(LD).eps
    prev = np.inf
    for _ in range(_ABERTH_ITMAX):
        p = _recurrence(H, n, x)
        newt = p[n] / _recurrence(H, n, x, source=p)[n]
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        corr = newt / (1.0 - newt * (np.sum(1.0 / diff, axis=1) - 1.0))
        x = x - corr
        step = np.max(np.abs(corr))
        # no zero moved by more than a few units of roundoff relative to
        # max(1, |z|), or the step stalled on the recurrence's roundoff
        # floor, which rises with n (about 2e-17 at n=80)
        if step <= tol * max(1.0, np.max(np.abs(x))) or step > prev / 2:
            break
        prev = step
    zeros = np.asarray(x, dtype=complex)
    diff = np.abs(zeros.astype(CLD)[:, None] - zeros[None, :])
    np.fill_diagonal(diff, 1.0)
    resid = float(np.max(np.abs(ops.evaluate(n, zeros))
                         / np.prod(diff, axis=1)))
    if not resid <= ZERO_RESIDUAL_TOL:
        raise NonConvergence(f"zero residual {resid:.2e} above "
                             f"{ZERO_RESIDUAL_TOL:.0e} at n={n}")
    return ZeroSet(n=n, zeros=zeros, max_residual=resid)


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
    # one recurrence sweep gives all p_k, k < n; |p_k|^2 / h_0 = |q_k|^2
    p = _recurrence(ops.hessenberg, n - 1, z.astype(CLD))
    acc = np.sum(p.real ** 2 + p.imag ** 2, axis=0) / ops.norms[0]
    return acc.astype(float) / n * ops.potential.weight_grid(z)


def zero_potential_grid(zs: ZeroSet, z: np.ndarray) -> np.ndarray:
    """-(1/n) log|P_n(z)| = (1/n) sum_j log(1/|z - z_j|) on an array; +inf
    at a zero."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore"):
        return -np.sum(np.log(np.abs(z[..., None] - zs.zeros)), axis=-1) / zs.n
