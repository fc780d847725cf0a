"""Precision parity across the execution substrates.

Three guarantees the reduced-precision modes must uphold:

- a float32 :class:`~repro.solver.simulation.Simulation` is bitwise
  run-to-run deterministic on every backend;
- the co-simulated accelerator step under f32/mixed payloads is
  *bitwise* the functional fused step — the device-faithful claim;
- the event and vectorized schedule engines compute identical f32
  payload bits.
"""

import numpy as np
import pytest

from repro.accel.cosim import cosimulate_rk_stage
from repro.accel.designs import proposed_design
from repro.backend import available_backends
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.solver.simulation import Simulation

ALL_BACKENDS = available_backends()


def _two_step_state(backend: str, dtype: str) -> np.ndarray:
    mesh = periodic_box_mesh(2, 3)
    sim = Simulation(
        mesh,
        DEFAULT_TGV,
        initial_state=taylor_green_initial(mesh.coords, DEFAULT_TGV),
        backend=backend,
        dtype=dtype,
    )
    dt = sim.compute_dt()
    sim.step(dt)
    sim.step(dt)
    return sim.state.as_stacked().copy()


class TestFloat32Determinism:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_two_step_run_is_bitwise_repeatable(self, backend):
        """Two independent f32 runs on the same backend produce the
        exact same bits — every reduction runs in a fixed order."""
        a = _two_step_state(backend, "float32")
        b = _two_step_state(backend, "float32")
        assert np.array_equal(a, b), backend

    def test_serial_f32_backends_agree_bitwise(self):
        """reference and fast share one f32 scatter semantics (flat
        index-order np.add.at), so their runs are bit-identical."""
        assert np.array_equal(
            _two_step_state("reference", "float32"),
            _two_step_state("fast", "float32"),
        )


class TestCosimPrecisionParity:
    @pytest.mark.parametrize("dtype", ("float64", "float32", "mixed"))
    def test_streamed_step_is_bitwise_the_functional_step(self, dtype):
        """The co-simulated RK step under reduced precision equals
        ``Simulation.step`` with the fused operator *bitwise* — the
        accelerator runs the same arithmetic, not similar arithmetic."""
        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(
            proposed_design(),
            mesh,
            backend="fast",
            block_size=4,
            dtype=dtype,
        )
        sim = Simulation(
            mesh,
            DEFAULT_TGV,
            initial_state=taylor_green_initial(mesh.coords, DEFAULT_TGV),
            backend="fast",
            fusion="full",
            dtype=dtype,
        )
        sim.step(result.dt)
        assert np.array_equal(
            result.final_state.as_stacked(), sim.state.as_stacked()
        )

    @pytest.mark.parametrize("dtype", ("float32", "mixed"))
    def test_event_and_vectorized_engines_agree_bitwise(self, dtype):
        """Engine choice must never leak into reduced-precision payloads:
        the per-token event oracle and the batched vectorized engine
        produce identical f32 bits and identical cycle counts."""
        mesh = periodic_box_mesh(2, 3)
        runs = {
            engine: cosimulate_rk_stage(
                proposed_design(),
                mesh,
                backend="fast",
                block_size=4,
                engine=engine,
                dtype=dtype,
            )
            for engine in ("event", "vectorized")
        }
        assert np.array_equal(
            runs["event"].final_state.as_stacked(),
            runs["vectorized"].final_state.as_stacked(),
        )
        assert np.array_equal(
            runs["event"].primitives, runs["vectorized"].primitives
        )
        assert (
            runs["event"].simulated_cycles
            == runs["vectorized"].simulated_cycles
        )

    def test_f32_stage_matches_f32_simulation_across_steps(self):
        """Multi-step chaining preserves the bitwise guarantee."""
        mesh = periodic_box_mesh(2, 2)
        result = cosimulate_rk_stage(
            proposed_design(),
            mesh,
            backend="fast",
            block_size=4,
            num_steps=2,
            dtype="float32",
        )
        sim = Simulation(
            mesh,
            DEFAULT_TGV,
            initial_state=taylor_green_initial(mesh.coords, DEFAULT_TGV),
            backend="fast",
            fusion="full",
            dtype="float32",
        )
        sim.step(result.dt)
        sim.step(result.dt)
        assert np.array_equal(
            result.final_state.as_stacked(), sim.state.as_stacked()
        )


class TestEndToEndFloat32:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_p7_tgv_runs_and_stays_near_the_oracle(self, backend):
        """Acceptance: ``dtype="float32"`` runs TGV p=7 end to end on
        every backend with final-state error vs the f64 oracle at the
        f32 rounding floor."""
        mesh = periodic_box_mesh(1, 7)
        oracle = Simulation(
            mesh,
            DEFAULT_TGV,
            initial_state=taylor_green_initial(mesh.coords, DEFAULT_TGV),
            backend="fast",
            dtype="float64",
        )
        sim = Simulation(
            mesh,
            DEFAULT_TGV,
            initial_state=taylor_green_initial(mesh.coords, DEFAULT_TGV),
            backend=backend,
            dtype="float32",
        )
        dt = oracle.compute_dt()
        oracle.step(dt)
        sim.step(dt)
        a = oracle.state.as_stacked()
        b = sim.state.as_stacked()
        err = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
        assert err <= 1e-6, backend
