"""Design timing and cycle-level co-simulation."""

import numpy as np
import pytest

from repro.accel.cosim import (
    analytic_block_cycles,
    build_rkl_dataflow_graph,
    cosimulate_small_mesh,
    design_timing,
    per_cu_simulated_cycles,
    streamed_residual,
)
from repro.errors import ExperimentError
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh


class TestAnalyticTiming:
    def test_step_time_composition(self, proposed):
        timing = design_timing(proposed, 1_000_000)
        assert timing.rk_step_seconds == pytest.approx(
            4 * timing.rkl_seconds_per_stage + timing.rku_seconds_per_step
        )

    def test_elements_derived_from_nodes(self, proposed):
        timing = design_timing(proposed, 8_000)
        assert timing.num_elements == 1_000

    def test_invalid_inputs(self, proposed):
        with pytest.raises(ExperimentError):
            design_timing(proposed, 0)


class TestDataflowGraph:
    def test_graph_matches_fig1_chain(self, proposed):
        graph = build_rkl_dataflow_graph(proposed, 100_000)
        assert graph.topological_order() == [
            "load_element",
            "compute_diffusion_convection",
            "store_element_contribution",
        ]
        graph.validate()

    def test_task_kinds(self, proposed):
        graph = build_rkl_dataflow_graph(proposed, 100_000)
        assert graph.tasks["load_element"].kind == "load"
        assert graph.tasks["store_element_contribution"].kind == "store"


class TestCycleLevelCosim:
    def test_simulation_matches_analytic(self, proposed, small_periodic_mesh):
        result = cosimulate_small_mesh(proposed, small_periodic_mesh)
        assert result.cycle_agreement < 0.01

    def test_functional_results_physical(self, proposed, small_periodic_mesh):
        result = cosimulate_small_mesh(proposed, small_periodic_mesh)
        assert result.mass_drift < 1e-12
        assert 0.05 < result.kinetic_energy < 0.2

    def test_baseline_sequential_agreement(self, vitis, small_periodic_mesh):
        """For the baseline the dataflow graph degenerates: per-element
        cycles are the serial sum, still matching the analytic total."""
        result = cosimulate_small_mesh(vitis, small_periodic_mesh)
        # sequential model: analytic = ii * E; simulated pipeline of the
        # same tasks can only be faster or equal
        assert result.simulated_cycles <= result.analytic_cycles * 1.01


class TestFunctionalCosim:
    """The tentpole guarantee: the cycle simulator executes the *same*
    element pipeline the solver runs, so streaming every element through
    the dataflow graph reproduces the operator's residual while the
    cycle count still follows the analytic ``fill + II * (E - 1)``."""

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_streamed_residual_matches_operator(self, proposed, order, backend):
        mesh = periodic_box_mesh(2, order)
        result = cosimulate_small_mesh(
            proposed, mesh, num_steps=1, backend=backend
        )
        assert result.residual_max_rel_err <= 1e-12
        assert result.cycle_agreement < 0.02

    def test_sink_collects_one_token_per_element(
        self, proposed, small_periodic_mesh
    ):
        from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
        from repro.solver.navier_stokes import NavierStokesOperator

        mesh = small_periodic_mesh
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        residual, trace = streamed_residual(proposed, op, stacked)
        sink = trace.sink_results["store_element_contribution"]
        assert len(sink) == mesh.num_elements
        expected = op.residual(stacked)
        scale = np.abs(expected).max()
        assert np.abs(residual - expected).max() <= 1e-12 * scale

    def test_batched_streaming_parity(self, proposed):
        """Block sizes {1, 4, non-divisor 17, E}: the batched stream
        reproduces both the single-element stream and the operator."""
        from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
        from repro.solver.navier_stokes import NavierStokesOperator

        mesh = periodic_box_mesh(3, 2)  # 27 elements
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        expected = op.residual(stacked)
        scale = np.abs(expected).max()
        single, _ = streamed_residual(proposed, op, stacked, block_size=1)
        for block_size in (4, 17, mesh.num_elements):
            batched, trace = streamed_residual(
                proposed, op, stacked, block_size=block_size
            )
            assert np.abs(batched - expected).max() <= 1e-12 * scale
            assert np.abs(batched - single).max() <= 1e-13 * scale
            # one token per block, short tail included
            expected_tokens = -(-mesh.num_elements // block_size)
            sink = trace.sink_results["store_element_contribution"]
            assert len(sink) == expected_tokens

    def test_batched_cycles_follow_block_law(self, proposed, small_periodic_mesh):
        """Simulated cycles stay on fill(b0) + II * sum(b1..) with the
        II scaled per block."""
        mesh = small_periodic_mesh
        for block_size in (1, 4, 8):
            result = cosimulate_small_mesh(
                proposed, mesh, num_steps=1, block_size=block_size
            )
            assert result.cycle_agreement < 0.02
            assert result.block_size == block_size

    def test_block_law_reduces_to_element_law(self, proposed):
        """Uniform one-element blocks recover fill + II * (E - 1)."""
        law = analytic_block_cycles(proposed, 1000, [1] * 64)
        classic = proposed.rkl_fill_cycles(1000) + (
            proposed.rkl_element_ii(1000) * 63
        )
        assert law == pytest.approx(classic)

    def test_eight_times_larger_mesh_cosimulates(self, proposed):
        """The batching tentpole: a 64-element mesh (8x the 8-element
        single-element-streaming workhorse) co-simulates to rounding
        error with blocked tokens."""
        mesh = periodic_box_mesh(4, 3)  # 64 elements
        result = cosimulate_small_mesh(
            proposed, mesh, num_steps=1, block_size=16
        )
        assert result.residual_max_rel_err <= 1e-12
        assert result.cycle_agreement < 0.02

    def test_invalid_batching_arguments(self, proposed, small_periodic_mesh):
        with pytest.raises(ExperimentError):
            cosimulate_small_mesh(proposed, small_periodic_mesh, block_size=0)
        with pytest.raises(ExperimentError):
            cosimulate_small_mesh(proposed, small_periodic_mesh, num_cus=0)

    def test_channel_workload_cosimulates(self, proposed):
        """Satellite: case and initial state are injectable, so the
        wall-bounded decaying-shear workload co-simulates end to end.
        The convection terms of the exact shear solution cancel, which
        amplifies the relative error of re-ordered summation — hence the
        looser (still rounding-level) tolerance."""
        from repro.physics.channel import decaying_shear_initial
        from repro.physics.taylor_green import TGVCase

        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(2, 2)
        init = decaying_shear_initial(mesh.coords, case)
        result = cosimulate_small_mesh(
            proposed,
            mesh,
            num_steps=2,
            backend="fast",
            case=case,
            initial_state=init,
        )
        assert result.residual_max_rel_err <= 1e-9
        assert result.cycle_agreement < 0.02
        assert result.mass_drift < 1e-12
        assert result.kinetic_energy > 0.0


class TestMultiCUCosim:
    """Sharding the element stream across compute units: the reduced
    multi-CU streamed residual still matches the operator, the shards
    run under one simulator clock, and the derived timing agrees with
    the analytic `accel.multi_cu` extension."""

    @pytest.mark.parametrize("order", [3, 5])
    def test_two_cu_batched_residual_matches_operator(self, proposed, order):
        """Acceptance: N=2 batched streamed residual <= 1e-12 on TGV
        p in {3, 5}."""
        mesh = periodic_box_mesh(2, order)
        result = cosimulate_small_mesh(
            proposed, mesh, num_steps=1, block_size=3, num_cus=2
        )
        assert result.residual_max_rel_err <= 1e-12
        assert result.cycle_agreement < 0.02
        assert result.num_compute_units == 2
        assert len(result.per_cu_cycles) == 2

    def test_two_cu_channel_case(self, proposed):
        """Acceptance: the wall-bounded channel workload shards too."""
        from repro.physics.channel import decaying_shear_initial
        from repro.physics.taylor_green import TGVCase

        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(2, 2)
        init = decaying_shear_initial(mesh.coords, case)
        result = cosimulate_small_mesh(
            proposed,
            mesh,
            num_steps=1,
            backend="fast",
            case=case,
            initial_state=init,
            block_size=2,
            num_cus=2,
        )
        assert result.residual_max_rel_err <= 1e-9
        assert result.cycle_agreement < 0.02

    def test_uneven_partition_parity(self, proposed):
        """Explicitly unbalanced shards (20 / 7 elements) still reduce
        to the operator's residual bit-for-rounding."""
        from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
        from repro.solver.navier_stokes import NavierStokesOperator

        mesh = periodic_box_mesh(3, 2)  # 27 elements
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        expected = op.residual(stacked)
        scale = np.abs(expected).max()
        partitions = [np.arange(20), np.arange(20, 27)]
        residual, trace = streamed_residual(
            proposed, op, stacked, block_size=4, partitions=partitions
        )
        assert np.abs(residual - expected).max() <= 1e-12 * scale
        # both shards retired their own token counts under one clock
        assert trace.stats("cu0.load_element").iterations_completed == 5
        assert trace.stats("cu1.load_element").iterations_completed == 2
        per_cu = per_cu_simulated_cycles(trace, 2)
        assert per_cu[0] > per_cu[1]  # the heavy shard drains last
        assert trace.total_cycles == max(per_cu)

    def test_balanced_shards_drain_near_together(self, proposed):
        mesh = periodic_box_mesh(3, 2)  # 27 elements -> 14/13 shards
        result = cosimulate_small_mesh(proposed, mesh, num_steps=1, num_cus=2)
        slow, fast = max(result.per_cu_cycles), min(result.per_cu_cycles)
        assert result.simulated_cycles == slow
        assert (slow - fast) / slow < 0.1

    def test_derived_timing_matches_analytic_multi_cu(self, proposed):
        """Acceptance: simulated cycles are consistent with the
        `accel.multi_cu` closed-form timing — the RKL stage time is the
        max over CUs, on both routes."""
        from repro.accel.multi_cu import (
            multi_cu_timing,
            multi_cu_timing_from_cosim,
        )

        # order 2 so the mesh's nodes-per-element matches the design's
        # polynomial order (the closed form derives E from N)
        mesh = periodic_box_mesh(3, 2)
        for num_cus in (1, 2):
            result = cosimulate_small_mesh(
                proposed, mesh, num_steps=1, num_cus=num_cus
            )
            derived = multi_cu_timing_from_cosim(
                result, mesh.num_nodes, base=proposed
            )
            analytic = multi_cu_timing(num_cus, mesh.num_nodes, proposed)
            assert derived.clock_mhz == pytest.approx(analytic.clock_mhz)
            assert derived.rkl_seconds_per_stage == pytest.approx(
                analytic.rkl_seconds_per_stage, rel=0.02
            )
            assert derived.rk_step_seconds == pytest.approx(
                analytic.rk_step_seconds, rel=0.02
            )

    def test_sharding_speeds_up_the_simulated_stage(self, proposed):
        mesh = periodic_box_mesh(3, 2)
        one = cosimulate_small_mesh(proposed, mesh, num_steps=1, num_cus=1)
        two = cosimulate_small_mesh(proposed, mesh, num_steps=1, num_cus=2)
        assert two.simulated_cycles < 0.7 * one.simulated_cycles

    def test_invalid_partitions_rejected(self, proposed, small_periodic_mesh):
        from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
        from repro.solver.navier_stokes import NavierStokesOperator

        mesh = small_periodic_mesh
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        with pytest.raises(ExperimentError):  # element 0 missing
            streamed_residual(
                proposed, op, stacked,
                partitions=[np.arange(1, mesh.num_elements)],
            )
        with pytest.raises(ExperimentError):  # element 1 duplicated
            streamed_residual(
                proposed, op, stacked,
                partitions=[
                    np.arange(mesh.num_elements),
                    np.array([1]),
                ],
            )
        with pytest.raises(ExperimentError):  # empty shard
            streamed_residual(
                proposed, op, stacked,
                partitions=[np.arange(mesh.num_elements), np.array([], dtype=int)],
            )
        with pytest.raises(ExperimentError):  # more CUs than elements
            cosimulate_small_mesh(
                proposed, mesh, num_cus=mesh.num_elements + 1
            )
