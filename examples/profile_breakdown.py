#!/usr/bin/env python
"""Reproduce the Fig. 2 profiling study at two levels.

1. **Model level** — the calibrated Xeon roofline over the analytic
   workload at the paper's mesh sizes (1M-4M nodes).
2. **Measurement level** — wall-clock phase profiling of the functional
   numpy solver on a small mesh, cross-checking that the hotspot
   structure (diffusion > convection, RK dominating) is a property of
   the algorithm, not of the calibration.

Usage::

    python examples/profile_breakdown.py [elements_per_direction] [steps] \
        [--backend reference|fast] [--dtype float64|float32|mixed]
"""

from __future__ import annotations

import argparse

from repro.backend import add_backend_argument, resolve_backend_name
from repro.experiments.fig2_breakdown import render_fig2, run_fig2
from repro.mesh.hexmesh import periodic_box_mesh
from repro.precision import add_dtype_argument, resolve_dtype
from repro.physics.taylor_green import DEFAULT_TGV
from repro.solver.simulation import Simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("elements", nargs="?", type=int, default=5)
    parser.add_argument("steps", nargs="?", type=int, default=8)
    add_backend_argument(parser)
    add_dtype_argument(parser)
    args = parser.parse_args()
    elements, steps = args.elements, args.steps
    backend = resolve_backend_name(args.backend)
    dtype = resolve_dtype(args.dtype)

    print("== model-level breakdown (paper mesh sizes, Xeon roofline) ==")
    print(render_fig2(run_fig2()))

    print()
    print(
        f"== measured breakdown (numpy solver, {elements}^3 elements, "
        f"{steps} steps, backend '{backend}', dtype '{dtype}') =="
    )
    mesh = periodic_box_mesh(elements, 2)
    # The paper profiled unfused C++: keep the diffusion and convection
    # passes separate so each lands in its own phase.
    sim = Simulation(
        mesh, DEFAULT_TGV, backend=backend, dtype=dtype, fusion="none"
    )
    sim.run(steps)
    print(sim.profiler.report())

    breakdown = sim.profiler.breakdown()
    print()
    print("measured Fig. 2 categories (numpy substrate):")
    for label, value in breakdown.as_percentages().items():
        print(f"  {label:<16} {value:6.2f} %")
    print(
        f"  RK total        {100 * breakdown.rk_total:6.2f} % "
        "(paper: 76.5 %)"
    )
    print(
        "\nThe numpy constant factors differ from the paper's C++, but the "
        "structure agrees: diffusion is the top hotspot, convection second, "
        "and the RK method dominates the run."
    )


if __name__ == "__main__":
    main()
