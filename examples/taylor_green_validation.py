#!/usr/bin/env python
"""Validate the solver against the exact 2D Taylor-Green solution.

The 2D Taylor-Green vortex has a closed-form incompressible solution
(velocity decaying as exp(-2 nu t)); at low Mach the compressible FEM
solver must reproduce it. This script runs a resolution sweep and prints
the error convergence table — the evidence that the solver substrate
(and therefore the workload model driving all timing results) computes
correct physics.

Usage::

    python examples/taylor_green_validation.py \
        [--backend reference|fast] [--dtype float64|float32|mixed]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.backend import add_backend_argument, resolve_backend_name
from repro.mesh.hexmesh import periodic_box_mesh
from repro.precision import add_dtype_argument, resolve_dtype
from repro.physics.taylor_green import (
    TGVCase,
    taylor_green_2d_exact,
    taylor_green_2d_initial,
)
from repro.solver.simulation import Simulation


def run_case(
    elements: int,
    case: TGVCase,
    steps: int,
    dt: float,
    backend=None,
    dtype=None,
):
    mesh = periodic_box_mesh(elements, 2)
    init = taylor_green_2d_initial(mesh.coords, case)
    sim = Simulation(
        mesh, case, initial_state=init, backend=backend, dtype=dtype
    )
    result = sim.run(steps, dt=dt)
    v_exact, _ = taylor_green_2d_exact(mesh.coords, sim.time, case)
    v_num = result.final_state.velocity()
    rms = float(np.sqrt(np.mean((v_num - v_exact) ** 2)))
    rms_ref = float(np.sqrt(np.mean(v_exact**2)))
    return sim.time, rms / rms_ref, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    add_backend_argument(parser)
    add_dtype_argument(parser)
    args = parser.parse_args()
    backend = resolve_backend_name(args.backend)
    dtype = resolve_dtype(args.dtype)

    case = TGVCase(mach=0.05, reynolds=100.0)
    nu = case.viscosity / case.rho0
    steps, dt = 40, 2.5e-3

    print(
        f"== 2D Taylor-Green validation (Ma 0.05, Re 100), "
        f"backend '{backend}', dtype '{dtype}' =="
    )
    print(f"{'elems/dir':>10} {'nodes':>8} {'rel. RMS error':>16} {'order':>7}")
    prev_err = None
    prev_h = None
    for elements in (3, 4, 6, 8):
        t_final, err, result = run_case(
            elements, case, steps, dt, backend=backend, dtype=dtype
        )
        h = 1.0 / elements
        order = (
            np.log(prev_err / err) / np.log(prev_h / h)
            if prev_err is not None
            else float("nan")
        )
        nodes = (2 * elements) ** 3
        print(f"{elements:>10} {nodes:>8} {err:>16.3e} {order:>7.2f}")
        prev_err, prev_h = err, h

    print(f"\nfinal time: {t_final:.4f} (nu*t = {nu * t_final:.5f})")
    ek = result.kinetic_energy_series()
    measured_decay = ek[-1, 1] / 0.25
    exact_decay = float(np.exp(-4 * nu * t_final))
    print(
        f"kinetic-energy decay: measured {measured_decay:.6f}, "
        f"exact {exact_decay:.6f} "
        f"(error {abs(measured_decay - exact_decay) / exact_decay:.2e})"
    )
    print(f"mass drift: {result.mass_drift():.2e} (conservative scheme: 0)")


if __name__ == "__main__":
    main()
