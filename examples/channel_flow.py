#!/usr/bin/env python
"""Wall-bounded decaying shear flow — beyond the periodic TGV box.

The paper motivates FEM by its ability to handle geometries and boundary
conditions beyond structured periodic boxes. This example exercises the
wall-boundary code path: a shear layer ``u(z) = U0 sin(pi z / H)``
between isothermal no-slip walls, which decays at the exact viscous rate
``nu (pi/H)^2`` (the convective term vanishes identically, making this a
rare wall-bounded case with a closed-form Navier-Stokes solution).

Usage::

    python examples/channel_flow.py [elements_per_direction] [steps] \
        [--backend reference|fast] [--dtype float64|float32|mixed]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.backend import add_backend_argument, resolve_backend_name
from repro.mesh import channel_mesh
from repro.precision import add_dtype_argument, resolve_dtype
from repro.physics.channel import (
    decaying_shear_exact,
    decaying_shear_initial,
    shear_decay_rate,
)
from repro.physics.taylor_green import TGVCase
from repro.solver.simulation import Simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("elements", nargs="?", type=int, default=4)
    parser.add_argument("steps", nargs="?", type=int, default=40)
    add_backend_argument(parser)
    add_dtype_argument(parser)
    args = parser.parse_args()
    elements, steps = args.elements, args.steps
    backend = resolve_backend_name(args.backend)
    dtype = resolve_dtype(args.dtype)

    case = TGVCase(mach=0.05, reynolds=100.0)
    mesh = channel_mesh(elements, polynomial_order=2)
    print(
        f"== channel flow: {elements}^3 elements, periodic x/y, "
        f"no-slip isothermal walls in z, backend '{backend}', "
        f"dtype '{dtype}' =="
    )
    print(f"mesh: {mesh.num_nodes} nodes, periodic axes {mesh.periodic_axes}")

    init = decaying_shear_initial(mesh.coords, case)
    sim = Simulation(
        mesh, case, initial_state=init, cfl=0.4, backend=backend,
        dtype=dtype,
    )
    print(f"wall nodes strongly enforced: {sim.operator.wall_nodes.size}")

    result = sim.run(steps)
    v_exact = decaying_shear_exact(mesh.coords, sim.time, case)
    v_num = result.final_state.velocity()

    rel_err = float(np.max(np.abs(v_num - v_exact)) / np.max(np.abs(v_exact)))
    measured_decay = float(np.max(np.abs(v_num[0])) / case.velocity)
    exact_decay = float(np.exp(-shear_decay_rate(case) * sim.time))
    wall_slip = float(np.abs(v_num[:, sim.operator.wall_nodes]).max())

    print(f"\nfinal time              : {sim.time:.4f}")
    print(f"relative velocity error : {rel_err:.3e}")
    print(f"peak-velocity decay     : measured {measured_decay:.6f}, exact {exact_decay:.6f}")
    print(f"max wall slip velocity  : {wall_slip:.3e} (no-slip: 0)")
    print(f"mass drift              : {result.mass_drift():.3e}")

    print("\nvelocity profile through the channel (x = y = 0 column):")
    column = np.nonzero(
        (np.abs(mesh.coords[:, 0]) < 1e-9) & (np.abs(mesh.coords[:, 1]) < 1e-9)
    )[0]
    order = np.argsort(mesh.coords[column, 2])
    print(f"{'z':>10} {'u (numeric)':>14} {'u (exact)':>14}")
    for idx in column[order]:
        print(
            f"{mesh.coords[idx, 2]:>10.4f} {v_num[0, idx]:>14.6e} "
            f"{v_exact[0, idx]:>14.6e}"
        )


if __name__ == "__main__":
    main()
