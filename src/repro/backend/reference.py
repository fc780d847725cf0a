"""The ``"reference"`` backend: the original numpy kernels, unchanged.

Delegates every kernel to :mod:`repro.fem.operators` /
:mod:`repro.fem.assembly` so it stays bit-identical to the pre-backend
code path. It is the correctness oracle every other backend is tested
against; select it by name or ``REPRO_BACKEND`` (the default is
``"fast"``).
"""

from __future__ import annotations

import numpy as np

from ..fem import assembly, operators
from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from .base import KernelBackend


class ReferenceBackend(KernelBackend):
    """Straight delegation to the :mod:`repro.fem` module-level kernels."""

    name = "reference"

    def gather(self, global_field: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
        return assembly.gather(global_field, connectivity)

    def scatter_add(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        element_values = np.asarray(element_values)
        return assembly.scatter_add(
            element_values,
            connectivity,
            num_nodes,
            accumulate_dtype=self.accumulate_dtype(element_values.dtype),
        )

    def scatter_add_many(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        element_values = np.asarray(element_values)
        return assembly.scatter_add_many(
            element_values,
            connectivity,
            num_nodes,
            accumulate_dtype=self.accumulate_dtype(element_values.dtype),
        )

    def reference_gradient(self, field: np.ndarray, ref: ReferenceHex) -> np.ndarray:
        return operators.reference_gradient(field, ref)

    def physical_gradient(
        self, field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        return operators.physical_gradient(field, geom, ref)

    def physical_gradient_many(
        self, fields: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        return operators.physical_gradient_many(fields, geom, ref)

    def weak_divergence(
        self, flux: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        return operators.weak_divergence(flux, geom, ref)
