"""The 2x2 matrix built from consecutive orthogonal polynomials and their
Cauchy transforms, with numerical checks that it solves the d-bar problem

    dY/d(conj z) = conj(Y) [[0, -exp(-N*V)], [0, 0]],
    Y(z) = (I + O(1/z)) diag(z^k, z^-k),

plus the moment identities underlying its uniqueness.  fd_order takes
finite differences at the steps FD_STEPS.  Criteria 07 and 08 hold when
both FD orders reach FD_ORDER_MIN, the three far-field slopes lie within
SLOPE_TOL of theirs and both moment identities hold to MOMENT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .measures import PerturbedPotential
from .orthopoly import OrthoPolySet
from .planarquad import (QuadGrid, cauchy_tail_split, cauchy_transform,
                         inner_product, same_potential)

FD_STEPS = (1e-2, 5e-3, 2.5e-3)
FD_ORDER_MIN = 1.8
SLOPE_TOL = 0.2
MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class DbarMatrix:
    """Entries at z (scalar or array): Y11, Y21 polynomial; Y12, Y22
    Cauchy transforms.

    Y11 = P_k, Y21 = -(pi/h_{k-1}) P_{k-1},
    Y12 = (1/pi) int conj(P_k(w)) (w-z)^{-1} dlambda(w),
    Y22 = -(1/h_{k-1}) int conj(P_{k-1}(w)) (w-z)^{-1} dlambda(w),
    with dlambda = exp(-N*V) dm.
    """

    k: int
    ops: OrthoPolySet = field(repr=False)
    grid: QuadGrid = field(repr=False)

    @cached_property
    def densities(self) -> tuple:
        """conj(P_k) and conj(P_{k-1}) on the grid nodes."""
        return tuple(np.conj(self.ops.evaluate(d, self.grid.nodes))
                     for d in (self.k, self.k - 1))

    def Y11(self, z):
        return np.asarray(self.ops.evaluate(self.k, z), dtype=complex)

    def Y21(self, z):
        h = float(self.ops.norms[self.k - 1])
        return -(math.pi / h) * np.asarray(
            self.ops.evaluate(self.k - 1, z), dtype=complex)

    def Y12(self, z):
        # int f (w-z)^{-1} = -int f (z-w)^{-1}
        ct = cauchy_transform(self.grid, self.densities[0], z)
        return -ct.astype(complex) / math.pi

    def Y22(self, z):
        ct = cauchy_transform(self.grid, self.densities[1], z)
        return ct.astype(complex) / float(self.ops.norms[self.k - 1])


def assemble_Y(ops: OrthoPolySet, p: PerturbedPotential, grid: QuadGrid,
               k: int) -> DbarMatrix:
    """Y of degree k; ops and grid must be p's (ValueError otherwise)."""
    if not 1 <= k <= ops.n_max:
        raise ValueError(f"degree k={k} outside 1..{ops.n_max}")
    same_potential(p, ops, grid)
    return DbarMatrix(k=k, ops=ops, grid=grid)


def wirtinger_dbar(f, z: complex, h):
    """d f / d(conj z) = (f_x + i f_y)/2 by central differences at a step
    h or a 1-D array of steps; f is called once, on every stencil point."""
    h = np.asarray(h, dtype=float)
    fp, fm, fpi, fmi = f(z + h[..., None] * np.array([1, -1, 1j, -1j])).T
    return 0.5 * ((fp - fm) + 1j * (fpi - fmi)) / (2.0 * h)


def dbar_residual(Y: DbarMatrix, p: PerturbedPotential, z: complex,
                  h_step) -> np.ndarray:
    """2x2 residual matrix of the d-bar equation at z, shape (2, 2) +
    h_step's: each entry of Y is evaluated once, on every step's stencil.

    First column entries are polynomials so their residuals are pure
    finite-difference error; second-column residuals compare the FD
    d-bar derivative against -conj(first column) * exp(-N*V).
    """
    if np.any(np.asarray(h_step) <= 0):
        raise ValueError("h_step must be positive")
    same_potential(p, Y.ops)
    z = complex(z)
    w = p.weight(z)
    d = np.array([[wirtinger_dbar(Y.Y11, z, h_step),
                   wirtinger_dbar(Y.Y12, z, h_step) + np.conj(Y.Y11(z)) * w],
                  [wirtinger_dbar(Y.Y21, z, h_step),
                   wirtinger_dbar(Y.Y22, z, h_step) + np.conj(Y.Y21(z)) * w]])
    # hypot is the scalar abs; np.abs's vector loop can differ in the last bit
    return np.hypot(d.real, d.imag)


def fd_order(Y: DbarMatrix, p: PerturbedPotential, z: complex) -> dict:
    """Observed Richardson order of the column-2 residuals over FD_STEPS,
    from one `dbar_residual` call on all the steps' stencils.

    The residual at step h is the FD truncation error of a smooth
    function, so it should scale like h^2; non-monotone residuals signal
    a step small enough for roundoff to dominate.
    """
    hs = np.asarray(FD_STEPS, dtype=float)
    (_, r12), (_, r22) = dbar_residual(Y, p, z, hs)

    def slope(r):
        if np.any(r <= 0):
            return math.inf  # residual at machine floor: better than any order
        return float(np.polyfit(np.log(hs), np.log(r), 1)[0])

    return {"steps": list(FD_STEPS), "residuals_12": r12.tolist(),
            "residuals_22": r22.tolist(),
            "order_12": slope(r12), "order_22": slope(r22),
            "monotone": bool(np.all(np.diff(r12) < 0) and np.all(np.diff(r22) < 0))}


@dataclass(frozen=True)
class AsymptoticReport:
    slope_Y12: float          # theory: -(k+1)
    slope_Y22_dev: float      # |z^k Y22 - 1|, theory: -1
    slope_Y21_ratio: float    # |Y21/z^k|, theory: -1
    max_Y11_ratio_dev: float  # |Y11/z^k - 1| at largest radius


def asymptotic_normalization(Y: DbarMatrix, radii) -> AsymptoticReport:
    """Log-log slope estimates of the large-z normalization, all radii in
    one call per entry.

    Y22 is taken through its deviation from the leading moment term, so
    the z^(-k-1) tail is resolved even when it sits twenty digits below
    the naive term size.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    k = Y.k
    h = float(Y.ops.norms[k - 1])
    zs = radii * np.exp(0.37j)  # fixed generic direction
    y12 = np.abs(Y.Y12(zs))
    _, dev, mk = cauchy_tail_split(Y.grid, Y.densities[1], k - 1, zs)
    y22dev = np.abs(zs**k * dev / h + (mk / h - 1.0))
    y21r = np.abs(Y.Y21(zs)) / radii**k
    y11dev = np.abs(Y.Y11(zs) / zs**k - 1.0)

    def slope(vals):
        return float(np.polyfit(np.log(radii), np.log(vals), 1)[0])

    return AsymptoticReport(slope_Y12=slope(y12),
                            slope_Y22_dev=slope(y22dev),
                            slope_Y21_ratio=slope(y21r),
                            max_Y11_ratio_dev=float(y11dev[-1]))


def uniqueness_crosscheck(ops: OrthoPolySet, p: PerturbedPotential,
                          grid: QuadGrid, k: int) -> dict:
    """Moment identities forced by the d-bar problem on its first column:

    - orthogonality: int w^l conj(P_k) dlambda = 0 for l < k;
    - normalization: -(1/pi) int w^{k-1} conj(Y21) dlambda = 1.

    Orthogonality residuals are reported relative to the norms
    sqrt(<w^l, w^l> h_k).  ops and grid must be p's (ValueError
    otherwise).
    """
    if not 1 <= k <= ops.n_max:
        raise ValueError(f"k={k} outside 1..{ops.n_max}")
    same_potential(p, ops, grid)
    pk = ops.evaluate(k, grid.nodes)
    hk = float(ops.norms[k])
    max_orth = 0.0
    for l in range(k):
        mono = grid.nodes ** l
        m = inner_product(grid, mono, pk)
        scale = math.sqrt(float(np.real(inner_product(grid, mono, mono))) * hk)
        max_orth = max(max_orth, abs(m) / scale)
    h = float(ops.norms[k - 1])
    y21 = -(math.pi / h) * ops.evaluate(k - 1, grid.nodes)
    norm_int = inner_product(grid, grid.nodes ** (k - 1), y21)
    norm_const = -norm_int / math.pi
    return {"k": k, "max_orthogonality_residual": max_orth,
            "normalization": complex(norm_const),
            "normalization_deviation": abs(norm_const - 1.0)}
