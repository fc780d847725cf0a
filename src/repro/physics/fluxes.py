"""Convective and viscous flux vectors of the compressible NS equations.

The paper splits the right-hand side into a **Convection** term
``C(x) = div f(x)`` and a **Diffusion** term ``D(x) = -div(lambda grad x)``
(Section II-B); the two are computed by separate COMPUTE stages that the
accelerator merges into one module. This module provides the *pointwise*
fluxes whose weak divergences those stages accumulate:

Convective (Euler) fluxes
    mass:      ``F = rho u``
    momentum:  ``F_ij = rho u_i u_j + p delta_ij``
    energy:    ``F = (E + p) u``

Viscous (diffusion) fluxes
    momentum:  ``F = tau``
    energy:    ``F = tau . u + kappa grad T``

All functions are shape-polymorphic over the node axis: inputs carry
shape ``(..., N)`` per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsError
from .gas import GasProperties
from .viscous import stress_tensor
from .workspace import WorkspacePool


@dataclass
class FluxSet:
    """Physical flux vectors for the five conserved equations.

    Attributes
    ----------
    mass:
        ``(..., 3)`` mass flux.
    momentum:
        ``(..., 3, 3)``; ``momentum[..., i, j]`` is the j-direction flux of
        the i-momentum.
    energy:
        ``(..., 3)`` energy flux.
    """

    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray

    def stacked(self) -> np.ndarray:
        """Pack into ``(5, ..., 3)`` ordered (rho, mx, my, mz, E)."""
        parts = [self.mass[None]] + [
            self.momentum[..., i, :][None] for i in range(3)
        ]
        parts.append(self.energy[None])
        return np.concatenate(parts, axis=0)


def convective_fluxes(
    rho: np.ndarray,
    velocity: np.ndarray,
    pressure: np.ndarray,
    total_energy: np.ndarray,
    pool: WorkspacePool | None = None,
) -> FluxSet:
    """Euler fluxes of the conserved variables.

    ``velocity`` has shape ``(3, ...)`` (component-major, like
    :meth:`repro.physics.FlowState.velocity`); the per-node flux arrays put
    the direction axis *last* so they feed
    :func:`repro.fem.operators.weak_divergence` directly.

    ``pool`` routes every temporary (and the returned flux arrays)
    through reused workspaces; without one, a throwaway pool makes every
    array fresh. The values do not depend on the pool.
    """
    rho = np.asarray(rho)
    velocity = np.asarray(velocity)
    pressure = np.asarray(pressure)
    total_energy = np.asarray(total_energy)
    if velocity.shape[0] != 3:
        raise PhysicsError(f"velocity must be (3, ...), got {velocity.shape}")

    if pool is None:
        pool = WorkspacePool()
    u_last = np.moveaxis(velocity, 0, -1)  # (..., 3)
    idx = np.arange(3)
    dtype = u_last.dtype
    mass = pool.get("conv.mass", u_last.shape, dtype)
    np.multiply(rho[..., None], u_last, out=mass)
    # momentum[..., i, j] = rho u_i u_j + p delta_ij, associated as
    # (rho * u_i) * u_j.
    rho_u = pool.get("conv.rho_u", u_last.shape + (1,), dtype)
    np.multiply(rho[..., None, None], u_last[..., :, None], out=rho_u)
    momentum = pool.get("conv.momentum", u_last.shape + (3,), dtype)
    np.multiply(rho_u, u_last[..., None, :], out=momentum)
    momentum[..., idx, idx] += pressure[..., None]
    e_plus_p = pool.get("conv.e_plus_p", total_energy.shape, dtype)
    np.add(total_energy, pressure, out=e_plus_p)
    energy = pool.get("conv.energy", u_last.shape, dtype)
    np.multiply(e_plus_p[..., None], u_last, out=energy)
    return FluxSet(mass=mass, momentum=momentum, energy=energy)


def viscous_fluxes(
    velocity: np.ndarray,
    grad_u: np.ndarray,
    grad_t: np.ndarray,
    gas: GasProperties,
    pool: WorkspacePool | None = None,
) -> FluxSet:
    """Viscous + heat-conduction fluxes.

    Parameters
    ----------
    velocity:
        ``(3, ...)`` velocity.
    grad_u:
        ``(..., 3, 3)`` velocity gradient, ``du_i/dx_j``.
    grad_t:
        ``(..., 3)`` temperature gradient.
    pool:
        Optional workspace pool, as for :func:`convective_fluxes`.

    Notes
    -----
    The mass equation has no viscous flux (zeros returned); momentum
    diffuses with ``tau`` and energy with ``tau . u + kappa grad T``.
    """
    velocity = np.asarray(velocity)
    grad_u = np.asarray(grad_u)
    grad_t = np.asarray(grad_t)
    if velocity.shape[0] != 3:
        raise PhysicsError(f"velocity must be (3, ...), got {velocity.shape}")
    if pool is None:
        pool = WorkspacePool()
    tau = stress_tensor(grad_u, gas.viscosity, pool)
    u_last = np.moveaxis(velocity, 0, -1)
    # energy = einsum(tau, u) + kappa * grad_t
    energy = pool.get("visc.energy", u_last.shape, u_last.dtype)
    np.einsum("...ij,...j->...i", tau, u_last, out=energy)
    kappa_gt = pool.get("visc.kappa_gt", grad_t.shape, grad_t.dtype)
    np.multiply(gas.thermal_conductivity, grad_t, out=kappa_gt)
    energy += kappa_gt
    mass = pool.zeros("visc.mass", u_last.shape, u_last.dtype)
    return FluxSet(mass=mass, momentum=tau, energy=energy)


def combined_rhs_fluxes(
    convective: FluxSet,
    viscous: FluxSet,
    pool: WorkspacePool | None = None,
) -> FluxSet:
    """Net flux whose (weak) divergence is the conservative-form RHS.

    Writing each equation as ``dq/dt + div(F_c - F_v) = 0``, the net flux
    is ``F_c - F_v``; the solver takes one weak divergence of this
    combination per conserved field. ``pool`` is as for
    :func:`convective_fluxes`.
    """
    if pool is None:
        pool = WorkspacePool()
    mass = pool.get("comb.mass", convective.mass.shape, convective.mass.dtype)
    np.subtract(convective.mass, viscous.mass, out=mass)
    momentum = pool.get(
        "comb.momentum", convective.momentum.shape, convective.momentum.dtype
    )
    np.subtract(convective.momentum, viscous.momentum, out=momentum)
    energy = pool.get(
        "comb.energy", convective.energy.shape, convective.energy.dtype
    )
    np.subtract(convective.energy, viscous.energy, out=energy)
    return FluxSet(mass=mass, momentum=momentum, energy=energy)
