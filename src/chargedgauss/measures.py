"""Core domain types: point-charge measures, perturbed Gaussian
potentials and their closed-form logarithmic potentials.

Conventions: the logarithmic potential of a measure mu is
U(z) = int log(1/|z-w|) dmu(w); the background potential is
V(z) = alpha*|z|^2 + U_nu(z) and the weight is exp(-N*V(z)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


def charge_potential_grid(charges, z: np.ndarray) -> np.ndarray:
    """sum_k beta_k log(1/|z - a_k|) over the (a_k, beta_k) pairs, in the
    precision of z and the a_k; +inf entries mark charge locations."""
    z = np.asarray(z)
    with np.errstate(divide="ignore"):
        return sum((-b * np.log(np.abs(z - a)) for a, b in charges),
                   np.zeros(z.shape, dtype=z.real.dtype))


@dataclass(frozen=True)
class PointChargeMeasure:
    """Finite positive combination of point masses sum_k beta_k * delta(a_k)."""

    charges: tuple  # tuple of (location: complex, mass: float)

    def __post_init__(self):
        charges = tuple((complex(a), float(b)) for a, b in self.charges)
        object.__setattr__(self, "charges", charges)
        for a, b in charges:
            if not 0 < b < math.inf:
                raise ValueError("all point masses (beta) must be positive "
                                 "and finite")
            if not cmath.isfinite(a):
                raise ValueError("charge locations must be finite")
        if len({a for a, _ in charges}) < len(charges):
            raise ValueError("charge locations must be pairwise distinct")

    @property
    def total_mass(self) -> float:
        return sum(b for _, b in self.charges)

    @property
    def locations(self) -> np.ndarray:
        return np.array([a for a, _ in self.charges], dtype=complex)


EMPTY_MEASURE = PointChargeMeasure(charges=())


@dataclass(frozen=True)
class PerturbedPotential:
    """Gaussian background alpha*|z|^2 perturbed by a point-charge measure.

    N = gamma*n is the weight scale (weight exp(-N*V)) at degree n; the
    equilibrium problem is Q = (gamma/2)*V's, which only
    equilibrium.scaled_potential builds.  The conductor is the whole plane.
    """

    alpha: float
    nu: PointChargeMeasure = EMPTY_MEASURE
    N: float = 1.0
    gamma: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "gamma", "N"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def value_grid(self, z: np.ndarray) -> np.ndarray:
        """V(z) = alpha|z|^2 + U_nu(z) on an array, +inf exactly at the
        charges, in clongdouble arithmetic for clongdouble z and in
        complex double for anything else."""
        z = np.asarray(z)
        if z.dtype != np.clongdouble:
            z = z.astype(complex)
        return self.alpha * np.abs(z) ** 2 \
            + charge_potential_grid(self.nu.charges, z)

    def angular_degree(self) -> int | None:
        """Degree of exp(-N*V) as a trigonometric polynomial on every
        circle |z| = r, or None when it is not one.

        On |z| = r, |z - a|^2 = (z - a)(r^2/z - conj(a)) is a Laurent
        polynomial of degree 1 in e^{it}, so a charge off 0 with
        c = N*beta/2 an integer contributes |z - a|^{2c} of degree c.  A
        charge at 0 and the Gaussian factor are radial and contribute 0.
        """
        cs = [0.5 * self.N * b for a, b in self.nu.charges if a != 0]
        if not all(c.is_integer() for c in cs):
            return None
        return int(sum(cs))

    def weight(self, z: complex) -> float:
        """exp(-N*V(z)); exactly 0 at charge locations."""
        return float(self.weight_grid(complex(z)))

    def log_weight_grid(self, z: np.ndarray) -> np.ndarray:
        """-N*V on an array; -inf entries mark charge locations (weight 0)."""
        return -self.N * self.value_grid(z)

    def weight_grid(self, z: np.ndarray) -> np.ndarray:
        return np.exp(self.log_weight_grid(z))  # exactly 0 at the charges

