"""Output checks at the tolerances of ``tests/test_acceptance.py``.

Each check returns a list of failure reasons; an empty list means the
output passed.  ``reference_zeros`` gives the 30-digit eigenvalues that
the traced run compares the computed zeros with.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from chargedgauss.orthopoly import reconstruct_coeffs

GRAM_TOL = 1e-8            # criterion 05
MAP_RESIDUAL_TOL = 1e-10   # criterion 02
MAP_AREA_TOL = 1e-10       # criterion 02
EXTERIOR_TOL_ON = 1e-4     # criterion 03 (tolerance passed to the library)
TRAJECTORY_TOL = 1e-3      # criterion 09
ATTRACTOR_FINAL = 0.05     # criterion 10, as a share of the outer radius
POTENTIAL_SUP_TOL = 0.05   # criterion 11, for n >= POTENTIAL_SUP_FROM
POTENTIAL_SUP_FROM = 30
FD_ORDER_MIN = 1.8         # criterion 07
SLOPE_TOL = 0.2            # criteria 06 and 07
MOMENT_TOL = 1e-8          # criterion 08
FEKETE_FD_TOL = 1e-6       # criterion 12
FEKETE_INSIDE_MIN = 0.97   # criterion 12
PRODUCT_FORM_TOL = 1e-8    # `chargedgauss verify`, "zero product form"


def gram(ops) -> list:
    if not ops.gram_residual < GRAM_TOL:
        return [f"Gram residual {ops.gram_residual:.2e} >= {GRAM_TOL:.0e}"]
    return []


def zeros_product_form(zs, monic_coeffs) -> list:
    """The zeros must rebuild the monic coefficients of P_n they came
    from."""
    ref = np.asarray(monic_coeffs, dtype=complex)
    rec = reconstruct_coeffs(zs)
    err = float(np.max(np.abs(rec - ref))) / max(float(np.max(np.abs(ref))), 1.0)
    if not err < PRODUCT_FORM_TOL:
        return [f"n={zs.n}: zeros rebuild P_n to {err:.2e} >= "
                f"{PRODUCT_FORM_TOL:.0e}"]
    return []


def attractor_means(means: list, R: float) -> list:
    """Criterion 10: mean zero-to-attractor distance falls with n, and
    ends below ATTRACTOR_FINAL * R."""
    bad = []
    if not all(b < a for a, b in zip(means, means[1:])):
        bad.append(f"mean distances not decreasing: {means}")
    if not means[-1] < ATTRACTOR_FINAL * R:
        bad.append(f"final mean distance {means[-1]:.4f} >= "
                   f"{ATTRACTOR_FINAL * R:.4f}")
    return bad


def potential_sup(n: int, sup: float, previous: float | None) -> list:
    """Criterion 11: the sup error decreases with n and is below
    POTENTIAL_SUP_TOL from n = POTENTIAL_SUP_FROM on."""
    bad = []
    if previous is not None and not sup < previous:
        bad.append(f"n={n}: potential sup error {sup:.2e} not below "
                   f"previous {previous:.2e}")
    if n >= POTENTIAL_SUP_FROM and not sup < POTENTIAL_SUP_TOL:
        bad.append(f"n={n}: potential sup error {sup:.2e} >= "
                   f"{POTENTIAL_SUP_TOL}")
    return bad


def trajectories(trajs) -> list:
    """Criterion 09: every traced trajectory within the residual bound."""
    if not trajs:
        return ["no trajectories"]
    worst = max(t.max_residual for t in trajs)
    if not worst < TRAJECTORY_TOL:
        return [f"trajectory residual {worst:.2e} >= {TRAJECTORY_TOL:.0e}"]
    return []


def exterior_map(residuals, area_err: float) -> list:
    bad = []
    res = float(np.max(residuals))
    if not res < MAP_RESIDUAL_TOL:
        bad.append(f"map-system residual {res:.2e} >= {MAP_RESIDUAL_TOL:.0e}")
    if not area_err < MAP_AREA_TOL:
        bad.append(f"|area - pi/(2 alpha)| {area_err:.2e} >= "
                   f"{MAP_AREA_TOL:.0e}")
    return bad


def equilibrium(rep) -> list:
    """Criteria 01 and 03: the report's own on/off-support tolerances."""
    if not rep.passed:
        return [f"equilibrium on-support dev {rep.max_dev_on:.2e} "
                f"(tol {rep.tol_on:.0e}), off-support margin "
                f"{rep.min_margin_off:.2e} (tol -{rep.tol_off:.0e})"]
    return []


def dbar(k: int, fd: dict, asym, uniq: dict) -> list:
    """Criteria 07 and 08 at degree k."""
    bad = []
    order = min(fd["order_12"], fd["order_22"])
    if not order >= FD_ORDER_MIN:
        bad.append(f"k={k}: FD order {order:.2f} < {FD_ORDER_MIN}")
    slopes = {"Y12": (asym.slope_Y12, -(k + 1)),
              "Y22_dev": (asym.slope_Y22_dev, -1.0),
              "Y21_ratio": (asym.slope_Y21_ratio, -1.0)}
    for name, (got, want) in slopes.items():
        if not abs(got - want) < SLOPE_TOL:
            bad.append(f"k={k}: slope {name} {got:.3f}, expected {want}")
    for key in ("max_orthogonality_residual", "normalization_deviation"):
        if not uniq[key] < MOMENT_TOL:
            bad.append(f"k={k}: {key} {uniq[key]:.2e} >= {MOMENT_TOL:.0e}")
    return bad


def tail_slope(n: int, slope: float) -> list:
    """Criterion 06: the Cauchy-transform deviation decays at least like
    |z|^-(n+2)."""
    if not slope <= -(n + 2) + SLOPE_TOL:
        return [f"n={n}: tail slope {slope:.3f} > {-(n + 2) + SLOPE_TOL}"]
    return []


def density(rho) -> list:
    rho = np.asarray(rho)
    if not (np.all(np.isfinite(rho)) and np.all(rho >= 0)):
        return ["one-point function not finite and nonnegative"]
    return []


def fekete(res, fd_err: float, disc: dict) -> list:
    """Criterion 12, plus the solver's own convergence flag."""
    bad = []
    if not res.converged:
        bad.append(f"Fekete not converged (grad {res.grad_norm:.2e})")
    if not fd_err < FEKETE_FD_TOL:
        bad.append(f"gradient FD error {fd_err:.2e} >= {FEKETE_FD_TOL:.0e}")
    if not disc["fraction_inside"] >= FEKETE_INSIDE_MIN:
        bad.append(f"fraction inside {disc['fraction_inside']:.3f} < "
                   f"{FEKETE_INSIDE_MIN}")
    bound = 3.0 / math.sqrt(res.n)
    if not disc["max_annulus_discrepancy"] < bound:
        bad.append(f"annulus discrepancy "
                   f"{disc['max_annulus_discrepancy']:.4f} >= {bound:.4f}")
    return bad


def reference_zeros(hessenberg, n: int, dps: int = 30) -> np.ndarray:
    """Eigenvalues of ``hessenberg[:n, :n]`` to ``dps`` digits.

    For an unreduced upper Hessenberg H the orthonormal recurrence
    p_{k+1} = (z p_k - sum_{j<=k} H[j,k] p_j) / H[k+1,k], p_0 = 1, makes
    p_n(z) proportional to det(zI - H_n), so each eigenvalue is polished
    from its double-precision estimate by Newton's method on p_n with
    the derivative carried through the same recurrence.
    """
    H = np.asarray(hessenberg)
    start = np.linalg.eigvals(H[:n, :n].astype(complex))
    with mp.workdps(dps + 10):
        h = [[mp.mpc(str(H[j, k].real), str(H[j, k].imag))
              for k in range(n)] for j in range(n + 1)]
        tol = mp.mpf(10) ** (-dps)
        out = []
        for z0 in start:
            z = mp.mpc(z0)
            for _ in range(50):
                p, dp = [mp.mpc(1)], [mp.mpc(0)]
                for k in range(n):
                    hk = [h[j][k] for j in range(k + 1)]
                    p.append((z * p[k] - mp.fsum(a * b for a, b in zip(hk, p)))
                             / h[k + 1][k])
                    dp.append((p[k] + z * dp[k]
                               - mp.fsum(a * b for a, b in zip(hk, dp)))
                              / h[k + 1][k])
                step = p[n] / dp[n]
                z -= step
                if abs(step) <= tol * max(1, abs(z)):
                    break
            out.append(complex(z))
    return np.array(out)


def zero_error(zeros, reference) -> float:
    """Largest distance from a reference zero to its nearest computed
    zero, and vice versa (Hausdorff distance of the two sets)."""
    d = np.abs(np.asarray(zeros)[:, None] - np.asarray(reference)[None, :])
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))
