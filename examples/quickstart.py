#!/usr/bin/env python
"""Quickstart: solve a Taylor-Green Vortex and time it on the accelerator.

Runs the functional FEM Navier-Stokes solver on a small periodic mesh
(the paper's TGV case), prints the flow diagnostics, then evaluates the
same workload on the modeled FPGA accelerator and the Xeon baseline.

Usage::

    python examples/quickstart.py [elements_per_direction] [steps] \
        [--backend reference|fast] [--dtype float64|float32|mixed]
"""

from __future__ import annotations

import argparse

from repro.accel.cosim import design_timing
from repro.accel.designs import proposed_design
from repro.backend import add_backend_argument, resolve_backend_name
from repro.precision import add_dtype_argument, resolve_dtype
from repro.cpu.xeon import cpu_step_time
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.taylor_green import DEFAULT_TGV
from repro.solver.simulation import Simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("elements", nargs="?", type=int, default=4)
    parser.add_argument("steps", nargs="?", type=int, default=10)
    add_backend_argument(parser)
    add_dtype_argument(parser)
    args = parser.parse_args()
    elements, steps = args.elements, args.steps
    backend = resolve_backend_name(args.backend)
    dtype = resolve_dtype(args.dtype)

    print(
        f"== TGV quickstart: {elements}^3 elements, {steps} RK4 steps, "
        f"backend '{backend}', dtype '{dtype}' =="
    )
    mesh = periodic_box_mesh(elements, polynomial_order=2)
    print(
        f"mesh: {mesh.num_elements} hex elements, {mesh.num_nodes} GLL nodes, "
        f"Ma {DEFAULT_TGV.mach}, Re {DEFAULT_TGV.reynolds:.0f}"
    )

    sim = Simulation(mesh, DEFAULT_TGV, backend=backend, dtype=dtype)
    result = sim.run(steps)

    print("\nstep   time       dt         E_k        max|u|")
    for rec in result.records:
        print(
            f"{rec.step:>4} {rec.time:>9.4f} {rec.dt:>10.5f} "
            f"{rec.kinetic_energy:>10.6f} {rec.max_velocity:>9.4f}"
        )
    print(f"\nmass drift over the run: {result.mass_drift():.2e} (exact: 0)")
    print("\nwall-clock phase profile (functional solver):")
    print(sim.profiler.report())

    print("\n== the same workload on the modeled platforms ==")
    design = proposed_design()
    nodes = mesh.num_nodes
    fpga = design_timing(design, nodes).rk_step_seconds
    cpu = cpu_step_time(nodes)
    print(f"modeled Xeon (1 thread) : {cpu * 1e3:9.3f} ms / RK step")
    print(f"modeled FPGA (proposed) : {fpga * 1e3:9.3f} ms / RK step")
    print(f"RK-region speedup       : {cpu / fpga:9.2f} x (small-mesh regime)")
    print(
        "\nNote: small meshes under-fill the accelerator pipeline; the "
        "paper-scale comparison lives in examples/scaling_study.py."
    )


if __name__ == "__main__":
    main()
