"""Pipeline kernels: the callable bodies the IR stages name.

Each kernel is a pure function ``fn(ctx, stage, *inputs) -> (outputs,)``
operating on batched element arrays (``(F, E, Q)`` fields,
``(F, E, Q, 3)`` fluxes). They are shape-polymorphic over the element
axis, so the same kernel serves the solver's whole-mesh evaluation and
the co-simulator's streaming at any granularity — an element block
(:meth:`PipelineContext.element_block`) or a single element
(:meth:`PipelineContext.element`).

All array work routes through the context's
:class:`~repro.backend.KernelBackend` — the pipeline IR is the *what*,
the backend is the *how*.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ..backend import KernelBackend
from ..errors import PipelineError
from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from ..physics.fluxes import (
    FluxSet,
    combined_rhs_fluxes,
    convective_fluxes,
    viscous_fluxes,
)
from ..physics.gas import GasProperties
from ..physics.state import NUM_CONSERVED
from .ir import Stage

KernelFn = Callable[..., tuple[np.ndarray, ...]]

#: Registry of pipeline kernels by name (the names IR stages carry).
PIPELINE_KERNELS: dict[str, KernelFn] = {}


def register_pipeline_kernel(name: str) -> Callable[[KernelFn], KernelFn]:
    """Decorator registering a kernel under ``name``."""

    def deco(fn: KernelFn) -> KernelFn:
        PIPELINE_KERNELS[name] = fn
        return fn

    return deco


def pipeline_kernel(name: str) -> KernelFn:
    """Kernel lookup with a precise error."""
    try:
        return PIPELINE_KERNELS[name]
    except KeyError:
        raise PipelineError(
            f"unknown pipeline kernel {name!r}; known: "
            f"{sorted(PIPELINE_KERNELS)}"
        ) from None


@dataclass
class PipelineContext:
    """Bound execution context: mesh wiring, metric terms, gas, backend."""

    connectivity: np.ndarray
    num_nodes: int
    geom: ElementGeometry
    ref: ReferenceHex
    gas: GasProperties
    backend: KernelBackend

    @classmethod
    def from_operator(cls, operator) -> "PipelineContext":
        """Context of a :class:`~repro.solver.navier_stokes.NavierStokesOperator`."""
        return cls(
            connectivity=operator.mesh.connectivity,
            num_nodes=operator.mesh.num_nodes,
            geom=operator.geom,
            ref=operator.ref,
            gas=operator.gas,
            backend=operator.backend,
        )

    @property
    def num_elements(self) -> int:
        return int(self.connectivity.shape[0])

    def element(self, index: int) -> "PipelineContext":
        """Single-element view of the context (streaming co-simulation).

        Connectivity and metric terms are sliced to element ``index``;
        ``num_nodes`` stays global so the STORE kernel still assembles
        into the full node space.
        """
        return replace(
            self,
            connectivity=self.connectivity[index : index + 1],
            geom=self.geom.element_view(index),
        )

    def element_block(self, indices: np.ndarray) -> "PipelineContext":
        """Block view of the context (batched streaming co-simulation).

        Parameters
        ----------
        indices:
            1-D array of element ids forming one block token. The ids
            need not be contiguous: a compute unit's shard of the mesh
            is whatever :func:`repro.mesh.partition` handed it.

        Returns
        -------
        PipelineContext
            Context whose connectivity and metric terms cover exactly
            the block's elements (shape ``(B, ...)`` on the element
            axis); ``num_nodes`` stays global so STORE still assembles
            into the full node space.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            connectivity=self.connectivity[indices],
            geom=self.geom.block_view(indices),
        )


# ---------------------------------------------------------------------------
# Pointwise physics shared by the flux kernels
# ---------------------------------------------------------------------------


def element_primitives(
    state_elem: np.ndarray, gas: GasProperties
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Primitive fields per element node from gathered conservatives.

    ``state_elem`` is ``(5, E, Q)``; returns
    ``(rho, velocity(3, E, Q), pressure, temperature, total_energy)``.
    This is the node-level LOAD stage of the paper's Fig. 1.
    """
    rho = state_elem[0]
    momentum = state_elem[1:4]
    total_energy = state_elem[4]
    velocity = momentum / rho[None]
    kinetic = 0.5 * np.sum(momentum * velocity, axis=0)
    internal = total_energy - kinetic
    pressure = (gas.gamma - 1.0) * internal
    temperature = internal / (rho * gas.cv)
    return rho, velocity, pressure, temperature, total_energy


def _viscous_flux_set(
    ctx: PipelineContext, velocity: np.ndarray, temperature: np.ndarray
) -> FluxSet:
    """Viscous/heat :class:`FluxSet` from the batched node gradients.

    Computes the gradients of the three velocity components and the
    temperature in one backend call (COMPUTE-Gradients of Fig. 1), then
    the stress tensor and fluxes (stages 2a/2b/2c of Fig. 3).
    """
    fields = np.concatenate([velocity, temperature[None]], axis=0)
    grads = ctx.backend.physical_gradient_many(fields, ctx.geom, ctx.ref)
    del fields  # freed before the viscous temporaries: a lower stage peak
    grad_u = np.moveaxis(grads[:3], 0, 2)  # (E, Q, i, j) = du_i/dx_j
    grad_t = grads[3]
    return viscous_fluxes(velocity, grad_u, grad_t, ctx.gas)


def pad_to_conserved(values: np.ndarray, field_start: int) -> np.ndarray:
    """Place a partial-field array into the full conserved set.

    ``values`` has fields along axis 0; rows outside
    ``[field_start, field_start + F)`` are exact zeros. Full-set inputs
    at offset 0 pass through unchanged.
    """
    if field_start == 0 and values.shape[0] == NUM_CONSERVED:
        return values
    out = np.zeros((NUM_CONSERVED,) + values.shape[1:], dtype=values.dtype)
    out[field_start : field_start + values.shape[0]] = values
    return out


# ---------------------------------------------------------------------------
# The registered kernels
# ---------------------------------------------------------------------------


@register_pipeline_kernel("gather")
def _gather(ctx: PipelineContext, stage: Stage, state: np.ndarray):
    """LOAD-element: ``(5, N)`` global state to ``(5, E, Q)`` local."""
    return (ctx.backend.gather(state, ctx.connectivity),)


@register_pipeline_kernel("convective_flux")
def _convective_flux(ctx: PipelineContext, stage: Stage, state_elem: np.ndarray):
    """Euler fluxes per node, stacked ``(5, E, Q, 3)``."""
    rho, velocity, pressure, _temperature, total_energy = element_primitives(
        state_elem, ctx.gas
    )
    return (convective_fluxes(rho, velocity, pressure, total_energy).stacked(),)


@register_pipeline_kernel("viscous_flux")
def _viscous_flux(ctx: PipelineContext, stage: Stage, state_elem: np.ndarray):
    """Viscous/heat fluxes per node, stacked ``(4, E, Q, 3)``.

    The mass equation has no viscous flux, so only the momentum and
    energy rows are produced (``field_start=1`` downstream).
    """
    _rho, velocity, _pressure, temperature, _total_energy = element_primitives(
        state_elem, ctx.gas
    )
    return (_viscous_flux_set(ctx, velocity, temperature).stacked()[1:],)


@register_pipeline_kernel("combined_flux")
def _combined_flux(ctx: PipelineContext, stage: Stage, state_elem: np.ndarray):
    """Net flux ``F_c - F_v`` per node, stacked ``(5, E, Q, 3)``.

    One primitive conversion feeds both flux families — the element-level
    arithmetic sharing of the accelerator's merged diffusion+convection
    COMPUTE module. The result is the direction-last view of the one
    fresh ``(5, E, 3, Q)`` plane buffer the convective fluxes are written
    into and the viscous fluxes subtracted from.
    """
    rho, velocity, pressure, temperature, total_energy = element_primitives(
        state_elem, ctx.gas
    )
    # Viscous first: its gradients are freed before the flux buffer is
    # allocated, which keeps the stage's peak memory down.
    visc = _viscous_flux_set(ctx, velocity, temperature)
    conv = convective_fluxes(rho, velocity, pressure, total_energy)
    return (combined_rhs_fluxes(conv, visc).stacked(),)


@register_pipeline_kernel("weak_divergence")
def _weak_divergence(ctx: PipelineContext, stage: Stage, flux: np.ndarray):
    """Weak-divergence residuals of a stacked flux, ``(F, E, Q)``.

    ``sign`` scales the result (-1 for fluxes written on the left-hand
    side, ``dq/dt + div F = 0``; +1 for the diffusion contribution that
    enters with a plus).
    """
    sign = float(stage.param("sign", -1.0))
    div = ctx.backend.weak_divergence_many(flux, ctx.geom, ctx.ref)
    if sign != 1.0:
        div *= sign  # backends return fresh arrays
    return (div,)


@register_pipeline_kernel("scatter_add")
def _scatter_add(ctx: PipelineContext, stage: Stage, element_res: np.ndarray):
    """STORE-element-contribution: assemble ``(F, E, Q)`` to ``(5, N)``.

    ``field_start`` places partial-field residuals (the 4 viscous rows)
    into the conserved set; absent rows assemble to exact zeros.
    """
    start = int(stage.param("field_start", 0))
    assembled = ctx.backend.scatter_add_many(
        element_res, ctx.connectivity, ctx.num_nodes
    )
    return (pad_to_conserved(assembled, start),)
