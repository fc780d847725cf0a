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
shape ``(..., N)`` per component. Every flux is computed on contiguous
*component planes*, node axis innermost: each elementwise operation
streams whole ``(..., N)`` planes. The convective fluxes land in one
fresh ``(5, ..., 3, N)`` buffer, whose ``(5, ..., N, 3)`` direction-last
view is what the weak divergence takes, and the net flux of the fused
pass is subtracted into that same buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsError
from .gas import GasProperties
from .state import NUM_CONSERVED
from .viscous import stress_tensor


@dataclass
class FluxSet:
    """Physical flux vectors for the five conserved equations.

    Each field's flux is a direction-last view of contiguous component
    planes (node axis innermost).

    Attributes
    ----------
    mass:
        ``(..., N, 3)`` mass flux.
    momentum:
        ``(..., N, 3, 3)``; ``momentum[..., i, j]`` is the j-direction flux of
        the i-momentum.
    energy:
        ``(..., N, 3)`` energy flux.
    planes:
        The ``(5, ..., 3, N)`` buffer the three fields are views of, when
        they share one (``planes[f, ..., j, :]`` is the j-direction flux
        of field ``f``); ``None`` otherwise.
    """

    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray
    planes: np.ndarray | None = None

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "FluxSet":
        """The flux set viewing a ``(5, ..., 3, N)`` plane buffer."""
        flux = np.swapaxes(planes, -1, -2)
        return cls(
            mass=flux[0],
            momentum=np.moveaxis(flux[1:4], 0, -2),
            energy=flux[4],
            planes=planes,
        )

    def stacked(self) -> np.ndarray:
        """``(5, ..., N, 3)`` ordered (rho, mx, my, mz, E): a view of
        :attr:`planes` when the set has one, else a fresh buffer."""
        if self.planes is not None:
            return np.swapaxes(self.planes, -1, -2)
        copy = FluxSet.from_planes(
            _empty_planes(self.energy.shape[:-1], self.energy.dtype)
        )
        copy.mass[...] = self.mass
        copy.momentum[...] = self.momentum
        copy.energy[...] = self.energy
        return copy.stacked()


def _empty_planes(nodes_shape: tuple, dtype) -> np.ndarray:
    """A fresh ``(5, ..., 3, N)`` plane buffer for ``(..., N)`` nodes."""
    if not nodes_shape:
        raise PhysicsError("fluxes need a node axis, got a scalar state")
    return np.empty(
        (NUM_CONSERVED,) + nodes_shape[:-1] + (3,) + nodes_shape[-1:],
        dtype=dtype,
    )


def _directions_first(planes: np.ndarray) -> np.ndarray:
    """``(..., 3, N)`` field planes as a ``(3, ..., N)`` view."""
    return np.moveaxis(planes, -2, 0)


def convective_fluxes(
    rho: np.ndarray,
    velocity: np.ndarray,
    pressure: np.ndarray,
    total_energy: np.ndarray,
) -> FluxSet:
    """Euler fluxes of the conserved variables, in a fresh plane buffer.

    ``velocity`` has shape ``(3, ...)`` (component-major, like
    :meth:`repro.physics.FlowState.velocity`); each flux component is
    one whole-plane product of the ``(..., N)`` component planes.
    """
    rho = np.asarray(rho)
    velocity = np.asarray(velocity)
    pressure = np.asarray(pressure)
    total_energy = np.asarray(total_energy)
    if velocity.shape[0] != 3:
        raise PhysicsError(f"velocity must be (3, ...), got {velocity.shape}")

    planes = _empty_planes(velocity.shape[1:], velocity.dtype)
    mass = _directions_first(planes[0])
    np.multiply(rho, velocity, out=mass)
    # momentum[i, j] = rho u_i u_j + p delta_ij, associated as
    # (rho * u_i) * u_j.
    momentum = np.moveaxis(planes[1:4], -2, 1)
    np.multiply(mass[:, None], velocity[None], out=momentum)
    for i in range(3):
        momentum[i, i] += pressure
    np.multiply(
        total_energy + pressure, velocity, out=_directions_first(planes[4])
    )
    return FluxSet.from_planes(planes)


def viscous_fluxes(
    velocity: np.ndarray,
    grad_u: np.ndarray,
    grad_t: np.ndarray,
    gas: GasProperties,
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

    Notes
    -----
    The mass equation has no viscous flux (a read-only zero view);
    momentum diffuses with ``tau`` (the array :func:`stress_tensor`
    returns) and energy with ``tau . u + kappa grad T``.
    """
    velocity = np.asarray(velocity)
    grad_u = np.asarray(grad_u)
    grad_t = np.asarray(grad_t)
    if velocity.shape[0] != 3:
        raise PhysicsError(f"velocity must be (3, ...), got {velocity.shape}")
    tau = stress_tensor(grad_u, gas.viscosity)
    tau_planes = np.moveaxis(tau, (-2, -1), (0, 1))
    # energy[i] = sum_j tau[i, j] u_j + kappa * dT/dx_i, summed in j order.
    energy = tau_planes[:, 0] * velocity[0]
    energy += tau_planes[:, 1] * velocity[1]
    energy += tau_planes[:, 2] * velocity[2]
    energy += gas.thermal_conductivity * np.moveaxis(grad_t, -1, 0)
    energy = np.moveaxis(energy, 0, -1)
    mass = np.broadcast_to(np.zeros((), dtype=velocity.dtype), energy.shape)
    return FluxSet(mass=mass, momentum=tau, energy=energy)


def combined_rhs_fluxes(convective: FluxSet, viscous: FluxSet) -> FluxSet:
    """Net flux whose (weak) divergence is the conservative-form RHS.

    Writing each equation as ``dq/dt + div(F_c - F_v) = 0``, the net flux
    is ``F_c - F_v``; the solver takes one weak divergence of this
    combination per conserved field. The difference is written once,
    into ``convective``'s own arrays (the merged COMPUTE module's single
    flux buffer), and ``convective`` is returned.
    """
    for net, visc in (
        (convective.mass, viscous.mass),
        (convective.momentum, viscous.momentum),
        (convective.energy, viscous.energy),
    ):
        np.subtract(net, visc, out=net)
    return convective
