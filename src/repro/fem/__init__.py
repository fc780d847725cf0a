"""Finite-element machinery: bases, quadrature, geometry, operators.

This package is the numerical core of the FEM substrate. It is
deliberately mesh-agnostic — every function operates on plain numpy
arrays — so that the solver layer composes it with
:mod:`repro.mesh` without import cycles.

Modules
-------
- :mod:`repro.fem.gll` — Gauss-Lobatto-Legendre points and weights;
- :mod:`repro.fem.lagrange` — barycentric Lagrange bases and the spectral
  differentiation matrix;
- :mod:`repro.fem.reference` — the tensor-product reference hexahedron;
- :mod:`repro.fem.geometry` — trilinear isoparametric mapping, Jacobians;
- :mod:`repro.fem.operators` — element gradient / divergence / mass
  operators via sum factorization;
- :mod:`repro.fem.assembly` — global gather/scatter (direct stiffness
  summation) and the lumped diagonal mass matrix;
- :mod:`repro.fem.quadrature` — quadrature helpers and exactness checks.
"""

from .gll import gll_points, gll_weights, gll_points_weights
from .lagrange import (
    lagrange_basis,
    differentiation_matrix,
    barycentric_weights,
    interpolation_matrix,
)
from .reference import ReferenceHex
from .geometry import ElementGeometry, compute_geometry
from .operators import (
    reference_gradient,
    physical_gradient,
    weak_divergence,
    element_integrals,
)
from .assembly import (
    gather,
    scatter_add,
    lumped_mass,
    direct_stiffness_summation,
    assembly_multiplicity,
)
from .quadrature import max_exact_degree

__all__ = [
    "gll_points",
    "gll_weights",
    "gll_points_weights",
    "lagrange_basis",
    "differentiation_matrix",
    "barycentric_weights",
    "interpolation_matrix",
    "ReferenceHex",
    "ElementGeometry",
    "compute_geometry",
    "reference_gradient",
    "physical_gradient",
    "weak_divergence",
    "element_integrals",
    "gather",
    "scatter_add",
    "lumped_mass",
    "direct_stiffness_summation",
    "assembly_multiplicity",
    "max_exact_degree",
]
