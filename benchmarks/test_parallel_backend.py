"""Parallel ``"threaded"`` backend vs serial fast: speedup and parity.

Times the ``"threaded"`` kernel backend (a thread pool over element
shards) against the serial ``"fast"`` backend on the two workloads the
paper's scaling argument rests on:

1. the full fused RHS on the paper-scale TGV p=7 mesh (the high-order
   hot loop), and
2. a complete RK time step on a 512-element (8^3, p=3) mesh — the
   end-to-end path including RK stage combinations and scatter
   reductions.

Numerical parity (<= 1e-12 relative) and run-to-run bitwise determinism
are asserted *in the same run* as the timings, so a speedup can never be
bought with a wrong or nondeterministic answer. The aggregate speedup
floor (best parallel backend over both workloads) is enforced only on
machines with >= 4 cores; single-core runners still execute the parity
half and record the artifact.

Run with ``python -m pytest benchmarks/test_parallel_backend.py -v -s``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fem.geometry import compute_geometry
from repro.fem.reference import reference_hex
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.solver.navier_stokes import NavierStokesOperator
from repro.solver.simulation import Simulation

#: Paper-scale high-order RHS workload (512-node elements).
RHS_ORDER = 7
RHS_ELEMENTS_PER_DIRECTION = 3

#: End-to-end RK step workload: 8^3 = 512 elements at p=3.
STEP_ORDER = 3
STEP_ELEMENTS_PER_DIRECTION = 8

#: Backends under test, measured against serial "fast".
PARALLEL_BACKENDS = ("threaded",)

#: Required aggregate speedup (both workloads, best parallel backend)
#: over serial fast — enforced only where the cores exist to deliver it.
MIN_AGGREGATE_SPEEDUP = 1.8
MIN_CORES = 4

#: Parity tolerance vs the serial fast backend (same shard math, fixed
#: reduction order — the gap is pure float64 summation reassociation).
PARITY_RTOL = 1e-12

CPU_COUNT = os.cpu_count() or 1

#: Perf-trajectory artifact consumed by CI (uploaded per run).
ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_pr7.json"


def _best_of(fn, repeat: int = 5) -> float:
    """Minimum wall-clock seconds over ``repeat`` calls (after warmup)."""
    fn()
    fn()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _rel_err(expected: np.ndarray, got: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(expected - got))) / scale


def _operator(backend: str) -> NavierStokesOperator:
    mesh = periodic_box_mesh(RHS_ELEMENTS_PER_DIRECTION, RHS_ORDER)
    return NavierStokesOperator(
        mesh,
        DEFAULT_TGV.gas(),
        backend=backend,
        fusion="full",
        num_workers=None if backend == "fast" else CPU_COUNT,
    )


def _simulation(backend: str) -> Simulation:
    mesh = periodic_box_mesh(STEP_ELEMENTS_PER_DIRECTION, STEP_ORDER)
    return Simulation(
        mesh,
        DEFAULT_TGV,
        backend=backend,
        num_workers=None if backend == "fast" else CPU_COUNT,
    )


@pytest.fixture(scope="module")
def measurements():
    """``{workload: {backend: seconds}}`` over fast + the parallel
    backends, measured once and shared by the recording and floor
    tests."""
    rhs_mesh = periodic_box_mesh(RHS_ELEMENTS_PER_DIRECTION, RHS_ORDER)
    stacked = taylor_green_initial(rhs_mesh.coords, DEFAULT_TGV).as_stacked()
    results: dict[str, dict[str, float]] = {"tgv_p7_rhs": {}, "rk_step_512": {}}
    operators = {}
    sims = {}
    try:
        for name in ("fast",) + PARALLEL_BACKENDS:
            operators[name] = _operator(name)
            sims[name] = _simulation(name)
        dt = sims["fast"].compute_dt()
        for name, op in operators.items():
            results["tgv_p7_rhs"][name] = _best_of(
                lambda: op.residual(stacked)
            )
        for name, sim in sims.items():
            results["rk_step_512"][name] = _best_of(lambda: sim.step(dt))
    finally:
        for holder in (operators, sims):
            for name in PARALLEL_BACKENDS:
                if name in holder:
                    backend = getattr(
                        holder[name], "operator", holder[name]
                    ).backend
                    backend.close()
    return results


@pytest.mark.parametrize("name", PARALLEL_BACKENDS)
def test_rhs_parity_and_determinism(name):
    """The paper-scale p=7 RHS must match serial fast to <= 1e-12 and be
    bitwise identical across independently constructed pools."""
    mesh = periodic_box_mesh(RHS_ELEMENTS_PER_DIRECTION, RHS_ORDER)
    stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
    fast_op = _operator("fast")
    expected = fast_op.residual(stacked)
    runs = []
    for _ in range(2):
        op = _operator(name)
        runs.append(op.residual(stacked).copy())
        op.backend.close()
    assert _rel_err(expected, runs[0]) <= PARITY_RTOL
    assert np.array_equal(runs[0], runs[1]), f"{name} RHS not deterministic"


@pytest.mark.parametrize("name", PARALLEL_BACKENDS)
def test_rk_step_parity_and_determinism(name):
    """Two full RK steps on the 512-element mesh: parallel state matches
    serial fast to <= 1e-12 and is bitwise stable run-to-run."""
    fast_sim = _simulation("fast")
    dt = fast_sim.compute_dt()
    fast_sim.step(dt)
    fast_sim.step(dt)
    expected = fast_sim.state.as_stacked()
    states = []
    for _ in range(2):
        sim = _simulation(name)
        sim.step(dt)
        sim.step(dt)
        states.append(sim.state.as_stacked().copy())
        sim.operator.backend.close()
    assert _rel_err(expected, states[0]) <= PARITY_RTOL
    assert np.array_equal(states[0], states[1]), (
        f"{name} RK step not deterministic"
    )


def test_speedups_recorded(measurements):
    """Print the table and emit the BENCH_pr7.json artifact (always —
    the floor test below consumes the same measurements)."""
    print()
    print(f"workers={CPU_COUNT} (cpu_count)")
    print(f"{'workload':<16}{'backend':<12}{'seconds':>12}{'speedup':>9}")
    print("-" * 49)
    for workload, times in measurements.items():
        t_fast = times["fast"]
        for name, seconds in times.items():
            print(
                f"{workload:<16}{name:<12}{seconds * 1e3:>10.2f}ms"
                f"{t_fast / seconds:>8.2f}x"
            )
    _write_artifact(measurements)
    assert all(
        seconds > 0
        for times in measurements.values()
        for seconds in times.values()
    )


@pytest.mark.skipif(
    CPU_COUNT < MIN_CORES,
    reason=f"speedup floor needs >= {MIN_CORES} cores (have {CPU_COUNT})",
)
def test_aggregate_speedup_at_least_1_8x(measurements):
    """Best parallel backend over both workloads must beat serial fast
    by the floor — the gate CI's multi-core runners enforce."""
    aggregates = _aggregate_speedups(measurements)
    best = max(aggregates.values())
    print(f"\naggregate speedups: {aggregates} (floor {MIN_AGGREGATE_SPEEDUP}x)")
    assert best >= MIN_AGGREGATE_SPEEDUP, (
        f"best parallel aggregate {best:.2f}x < {MIN_AGGREGATE_SPEEDUP}x "
        f"on {CPU_COUNT} cores: {aggregates}"
    )


def _aggregate_speedups(
    measurements: dict[str, dict[str, float]],
) -> dict[str, float]:
    """Per-backend total-fast-time / total-backend-time over workloads."""
    total_fast = sum(times["fast"] for times in measurements.values())
    return {
        name: round(
            total_fast
            / sum(times[name] for times in measurements.values()),
            4,
        )
        for name in PARALLEL_BACKENDS
    }


def _write_artifact(measurements: dict[str, dict[str, float]]) -> None:
    """Emit the BENCH_pr7.json perf-trajectory artifact for CI upload."""
    aggregates = _aggregate_speedups(measurements)
    payload = {
        "benchmark": "parallel_backend",
        "workloads": {
            "tgv_p7_rhs": (
                f"TGV p={RHS_ORDER}, "
                f"{RHS_ELEMENTS_PER_DIRECTION}^3 elements, fused RHS"
            ),
            "rk_step_512": (
                f"full RK step, {STEP_ELEMENTS_PER_DIRECTION}^3 elements, "
                f"p={STEP_ORDER}"
            ),
        },
        "min_aggregate_speedup": MIN_AGGREGATE_SPEEDUP,
        "min_cores_for_floor": MIN_CORES,
        "floor_enforced": CPU_COUNT >= MIN_CORES,
        "aggregate_speedups": aggregates,
        "timings_seconds": measurements,
        "speedups": {
            workload: {
                name: round(times["fast"] / seconds, 4)
                for name, seconds in times.items()
                if name != "fast"
            }
            for workload, times in measurements.items()
        },
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"perf artifact written to {ARTIFACT_PATH}")
