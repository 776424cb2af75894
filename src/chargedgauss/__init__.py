"""Numerics for Gaussian weights perturbed by positive point charges:
equilibrium supports, planar orthogonal polynomials, the associated
matrix d-bar problem, Schwarz-function critical trajectories, and
weighted Fekete points."""

from .equilibrium import (DiskWithCavities, ExteriorMap, NoRootError,
                          UnsupportedGeometry, classify_support,
                          effective_potential, outer_radius,
                          solve_exterior_map, verify_equilibrium)
from .measures import EMPTY_MEASURE, PerturbedPotential, PointChargeMeasure
from .orthopoly import (OrthoPolySet, ZeroSet, build_orthopolys,
                        compute_zeros, one_point_function)
from .planarquad import QuadGrid, build_grid, cauchy_transform, inner_product

__version__ = "0.1.0"

__all__ = [
    "DiskWithCavities", "EMPTY_MEASURE", "ExteriorMap",
    "NoRootError", "OrthoPolySet", "PerturbedPotential",
    "PointChargeMeasure", "QuadGrid", "UnsupportedGeometry", "ZeroSet",
    "build_grid", "build_orthopolys", "cauchy_transform", "classify_support",
    "compute_zeros", "effective_potential", "inner_product",
    "one_point_function", "outer_radius", "solve_exterior_map",
    "verify_equilibrium",
]
