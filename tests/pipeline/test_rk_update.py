"""The RK-update (RKU) pipeline instance: structure, kernels, streaming."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.physics.state import FlowState
from repro.physics.taylor_green import DEFAULT_TGV
from repro.pipeline import (
    RK_UPDATE_TASK_NAMES,
    RKUpdateContext,
    node_blocks,
    rk_update_pipeline,
    rk_update_streaming_actions,
    run_pipeline,
)
from repro.timeint.butcher import RK4


@pytest.fixture
def gas():
    return DEFAULT_TGV.gas()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_state(rng, n):
    """A physical random conservative state ``(5, n)``."""
    y = rng.normal(0.0, 0.1, (5, n))
    y[0] = np.abs(y[0]) + 1.0  # rho > 0
    y[4] = np.abs(y[4]) + 5.0  # internal energy > 0
    return y


class TestPipelineStructure:
    def test_roles_form_the_node_chain(self):
        pipeline = rk_update_pipeline()
        assert [role for role, _ in pipeline.role_groups()] == [
            "load",
            "compute",
            "store",
        ]

    def test_external_payloads(self):
        pipeline = rk_update_pipeline()
        assert set(pipeline.external_inputs()) == {
            "state",
            "derivs",
            "coeffs",
            "dt",
        }

    def test_combine_variant_drops_primitive_stages(self):
        combine = rk_update_pipeline(primitives=False)
        names = {stage.name for stage in combine.stages}
        assert "update_primitives" not in names
        assert "store_primitives" not in names
        assert combine.output_payloads() == ["updated_state"]

    def test_every_stage_is_rk_update_phase(self):
        pipeline = rk_update_pipeline()
        assert {stage.phase for stage in pipeline.stages} == {"rk.update"}

    def test_instances_are_independent_copies(self):
        a = rk_update_pipeline()
        b = rk_update_pipeline()
        a.stages.pop()
        assert len(b.stages) == 6

    def test_invalid_num_terms(self):
        with pytest.raises(PipelineError):
            rk_update_pipeline(num_terms=0)

    def test_lowers_to_named_task_chain(self):
        pipeline = rk_update_pipeline()
        cycles = {stage.name: 2.0 for stage in pipeline.stages}
        graph = pipeline.to_task_graph(
            cycles, task_names=RK_UPDATE_TASK_NAMES
        )
        assert graph.topological_order() == [
            "load_node_state",
            "update_node",
            "store_node_state",
        ]


class TestFunctionalExecution:
    def test_axpy_matches_numpy_reference(self, gas, rng):
        y = random_state(rng, 29)
        derivs = [rng.normal(size=(5, 29)) for _ in range(3)]
        coeffs = np.array([0.5, 0.0, -0.25])
        dt = 0.01
        ctx = RKUpdateContext(gas=gas, num_nodes=29)
        outputs = run_pipeline(
            rk_update_pipeline(),
            ctx,
            {"state": y, "derivs": derivs, "coeffs": coeffs, "dt": dt},
        )
        expected = y + dt * (0.5 * derivs[0] - 0.25 * derivs[2])
        assert np.abs(outputs["updated_state"] - expected).max() < 1e-15

    def test_all_zero_coefficients_pass_state_through(self, gas, rng):
        y = random_state(rng, 8)
        ctx = RKUpdateContext(gas=gas, num_nodes=8)
        outputs = run_pipeline(
            rk_update_pipeline(primitives=False),
            ctx,
            {
                "state": y,
                "derivs": [np.ones((5, 8))],
                "coeffs": np.array([0.0]),
                "dt": 0.1,
            },
        )
        assert outputs["updated_state"] is y

    def test_primitives_match_flow_state_methods(self, gas, rng):
        y = random_state(rng, 31)
        ctx = RKUpdateContext(gas=gas, num_nodes=31)
        outputs = run_pipeline(
            rk_update_pipeline(),
            ctx,
            {
                "state": y,
                "derivs": [np.zeros((5, 31))],
                "coeffs": np.array([1.0]),
                "dt": 0.0,
            },
        )
        prims = outputs["stored_primitives"]
        state = FlowState.from_stacked(y)
        assert np.abs(prims[0:3] - state.velocity()).max() < 1e-13
        assert np.abs(prims[3] - state.temperature(gas)).max() < 1e-13
        assert np.abs(prims[4] - state.pressure(gas)).max() < 1e-13


class TestNodeBlocks:
    def test_blocks_cover_nodes_in_order(self):
        blocks = node_blocks(10, 4)
        assert [b.size for b in blocks] == [4, 4, 2]
        assert np.array_equal(np.concatenate(blocks), np.arange(10))

    def test_invalid_block_size(self):
        with pytest.raises(PipelineError):
            node_blocks(10, 0)


class TestStreamingActions:
    @pytest.mark.parametrize("block_size", [1, 8, 37])
    def test_blockwise_stream_matches_whole_mesh_run(
        self, gas, rng, block_size
    ):
        n = 37
        y = random_state(rng, n)
        derivs = [rng.normal(size=(5, n)) for _ in range(4)]
        coeffs = RK4.b
        dt = 0.02
        ctx = RKUpdateContext(gas=gas, num_nodes=n)
        pipeline = rk_update_pipeline()
        expected = run_pipeline(
            pipeline,
            ctx,
            {"state": y, "derivs": derivs, "coeffs": coeffs, "dt": dt},
        )
        out_state = np.empty((5, n))
        out_prims = np.empty((5, n))
        blocks = node_blocks(n, block_size)
        actions = rk_update_streaming_actions(
            pipeline,
            ctx,
            y,
            derivs,
            coeffs,
            dt,
            out_state=out_state,
            out_primitives=out_prims,
            blocks=blocks,
        )
        for iteration in range(len(blocks)):
            value = actions["load"](iteration, ())
            value = actions["compute"](iteration, (value,))
            actions["store"](iteration, (value,))
        assert np.array_equal(out_state, expected["updated_state"])
        assert np.array_equal(out_prims, expected["stored_primitives"])

    def test_prepare_runs_once_before_first_load(self, gas, rng):
        n = 6
        calls = []
        ctx = RKUpdateContext(gas=gas, num_nodes=n)
        actions = rk_update_streaming_actions(
            rk_update_pipeline(primitives=False),
            ctx,
            random_state(rng, n),
            [np.ones((5, n))],
            np.array([1.0]),
            0.1,
            out_state=np.empty((5, n)),
            blocks=node_blocks(n, 3),
            prepare=lambda: calls.append(True),
        )
        actions["load"](0, ())
        actions["load"](1, ())
        assert calls == [True]
