"""Newtonian viscous stress tensor (the ``tau`` of paper Fig. 1).

``tau = mu (grad u + grad u^T) - (2/3) mu (div u) I`` — the compressible
Newtonian stress with Stokes' hypothesis. The COMPUTE-tau node stage of
the accelerator evaluates exactly these nine components per node.
"""

from __future__ import annotations

import numpy as np

from ..errors import PhysicsError
from .workspace import WorkspacePool


def stress_tensor(
    grad_u: np.ndarray,
    viscosity: float,
    pool: WorkspacePool | None = None,
) -> np.ndarray:
    """Viscous stress from the velocity gradient.

    Parameters
    ----------
    grad_u:
        ``(..., 3, 3)`` with ``grad_u[..., i, j] = du_i / dx_j``.
    viscosity:
        Dynamic viscosity ``mu``.
    pool:
        Optional workspace pool; the symmetrized gradient and the
        returned tensor live in its buffers, so the caller must consume
        the result before its next same-shape call on that pool.
        Without one, a throwaway pool makes the result fresh.

    Returns
    -------
    ``(..., 3, 3)`` symmetric stress tensor.
    """
    grad_u = np.asarray(grad_u)
    if grad_u.shape[-2:] != (3, 3):
        raise PhysicsError(f"grad_u must end in (3, 3), got {grad_u.shape}")
    if pool is None:
        pool = WorkspacePool()
    div_u = np.trace(grad_u, axis1=-2, axis2=-1)
    sym = pool.get("viscous.sym", grad_u.shape, grad_u.dtype)
    np.add(grad_u, np.swapaxes(grad_u, -1, -2), out=sym)
    tau = pool.get("viscous.tau", grad_u.shape, grad_u.dtype)
    np.multiply(viscosity, sym, out=tau)
    idx = np.arange(3)
    tau[..., idx, idx] -= (2.0 / 3.0) * viscosity * div_u[..., None]
    return tau


def viscous_dissipation(grad_u: np.ndarray, viscosity: float) -> np.ndarray:
    """Pointwise viscous dissipation ``Phi = tau : grad u`` (>= 0).

    Used by the energy-budget validation tests: the kinetic energy lost by
    the resolved field must match the integral of ``Phi`` for low-Mach TGV.
    """
    tau = stress_tensor(grad_u, viscosity)
    return np.einsum("...ij,...ij->...", tau, np.asarray(grad_u))


def strain_rate(grad_u: np.ndarray) -> np.ndarray:
    """Symmetric strain-rate tensor ``S = (grad u + grad u^T) / 2``."""
    grad_u = np.asarray(grad_u)
    if grad_u.shape[-2:] != (3, 3):
        raise PhysicsError(f"grad_u must end in (3, 3), got {grad_u.shape}")
    return 0.5 * (grad_u + np.swapaxes(grad_u, -1, -2))


#: Sutherland-law constants for air (reference viscosity at T_ref and
#: the Sutherland temperature), White, *Viscous Fluid Flow*.
SUTHERLAND_MU_REF = 1.716e-5
SUTHERLAND_T_REF = 273.15
SUTHERLAND_S = 110.4


def sutherland_viscosity(
    temperature: np.ndarray,
    mu_ref: float = SUTHERLAND_MU_REF,
    t_ref: float = SUTHERLAND_T_REF,
    s: float = SUTHERLAND_S,
) -> np.ndarray:
    """Temperature-dependent viscosity via Sutherland's law.

    ``mu(T) = mu_ref (T / T_ref)^{3/2} (T_ref + S) / (T + S)``.

    The paper's TGV runs use a constant ``mu`` (the Fig. 4 snippet still
    streams a ``mu_fluid`` array per node, which is how a
    temperature-dependent law would reach the accelerator); this
    extension provides that law for variable-viscosity studies.
    """
    temperature = np.asarray(temperature, dtype=np.float64)
    if np.any(temperature <= 0):
        raise PhysicsError("temperature must be positive for Sutherland law")
    if mu_ref <= 0 or t_ref <= 0 or s <= 0:
        raise PhysicsError("Sutherland constants must be positive")
    return (
        mu_ref * (temperature / t_ref) ** 1.5 * (t_ref + s) / (temperature + s)
    )


def vorticity(grad_u: np.ndarray) -> np.ndarray:
    """Vorticity vector ``omega = curl u`` from the velocity gradient.

    ``grad_u[..., i, j] = du_i/dx_j``; returns ``(..., 3)``.
    """
    grad_u = np.asarray(grad_u)
    if grad_u.shape[-2:] != (3, 3):
        raise PhysicsError(f"grad_u must end in (3, 3), got {grad_u.shape}")
    wx = grad_u[..., 2, 1] - grad_u[..., 1, 2]
    wy = grad_u[..., 0, 2] - grad_u[..., 2, 0]
    wz = grad_u[..., 1, 0] - grad_u[..., 0, 1]
    return np.stack([wx, wy, wz], axis=-1)
