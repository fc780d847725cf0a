"""Pool lifecycle, worker-count resolution, and fork safety of the
parallel ``"threaded"`` backend.

The parity suite (test_parity.py) proves the numbers are right; this
module proves the *machinery* behaves: lazy spawn, worker reuse across
calls, idempotent close + respawn, ``REPRO_NUM_WORKERS=1`` degenerating
to the serial ``"fast"`` path, and survival of a ``fork()``.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.backend import (
    FastBackend,
    ThreadedBackend,
    WORKERS_ENV_VAR,
    get_backend,
    resolve_num_workers,
)
from repro.backend.parallel import element_shards
from repro.config import SolverConfig
from repro.errors import ConfigurationError, FEMError
from repro.mesh.hexmesh import periodic_box_mesh

PARALLEL_CLASSES = (ThreadedBackend,)


@pytest.fixture()
def mesh():
    return periodic_box_mesh(2, 3)


@pytest.fixture()
def payload(mesh):
    rng = np.random.default_rng(99)
    return rng.standard_normal((5,) + mesh.connectivity.shape)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_num_workers(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_num_workers() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_num_workers() == max(1, os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(ConfigurationError):
            resolve_num_workers()

    def test_nonpositive_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_num_workers(0)

    def test_add_num_workers_argument(self):
        import argparse

        from repro.backend import add_num_workers_argument

        parser = argparse.ArgumentParser()
        add_num_workers_argument(parser)
        assert parser.parse_args([]).num_workers is None
        assert parser.parse_args(["--num-workers", "4"]).num_workers == 4

    def test_get_backend_forwards_num_workers(self):
        backend = get_backend("threaded", num_workers=3)
        assert backend.num_workers == 3
        # Serial backends silently ignore the argument.
        assert get_backend("fast", num_workers=3).name == "fast"
        assert get_backend("reference", num_workers=3).name == "reference"

    def test_solver_config_num_workers(self):
        assert SolverConfig(num_workers=2).num_workers == 2
        with pytest.raises(ConfigurationError):
            SolverConfig(num_workers=0)

    def test_config_flows_to_operator(self):
        from repro.config import MeshSpec, RunConfig
        from repro.solver.simulation import Simulation

        config = RunConfig(
            mesh=MeshSpec(elements_per_direction=2),
            solver=SolverConfig(backend="threaded", num_workers=2),
        )
        sim = Simulation.from_run_config(config)
        assert sim.backend_name == "threaded"
        assert sim.operator.backend.num_workers == 2
        sim.operator.backend.close()


class TestElementShards:
    def test_cover_and_contiguous(self):
        shards = element_shards(10, 3)
        assert shards[0].start == 0 and shards[-1].stop == 10
        for prev, nxt in zip(shards, shards[1:]):
            assert prev.stop == nxt.start

    def test_no_empty_shards(self):
        assert len(element_shards(2, 8)) == 2
        assert element_shards(0, 4) == []

    def test_deterministic(self):
        assert element_shards(1000, 7) == element_shards(1000, 7)


@pytest.mark.parametrize("cls", PARALLEL_CLASSES)
class TestPoolLifecycle:
    def test_lazy_spawn(self, cls, mesh, payload):
        backend = cls(num_workers=2)
        assert not backend.pool_active
        backend.scatter_add_many(payload, mesh.connectivity, mesh.num_nodes)
        assert backend.pool_active
        backend.close()

    def test_reuse_across_calls(self, cls, mesh, payload):
        backend = cls(num_workers=2)
        r1 = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        r2 = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        assert np.array_equal(r1, r2)
        backend.close()

    def test_close_is_idempotent_and_respawns(self, cls, mesh, payload):
        backend = cls(num_workers=2)
        r1 = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        backend.close()
        backend.close()  # second close must be a no-op
        assert not backend.pool_active
        r2 = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        assert backend.pool_active
        assert np.array_equal(r1, r2)
        backend.close()

    def test_context_manager(self, cls, mesh, payload):
        with cls(num_workers=2) as backend:
            backend.scatter_add_many(
                payload, mesh.connectivity, mesh.num_nodes
            )
            assert backend.pool_active
        assert not backend.pool_active

    def test_single_worker_degenerates_to_fast(
        self, cls, mesh, payload, monkeypatch
    ):
        """``REPRO_NUM_WORKERS=1`` must bypass the pool entirely and give
        the exact ``"fast"`` bits."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        backend = cls()
        assert backend.num_workers == 1
        expected = FastBackend().scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        got = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        assert np.array_equal(expected, got)
        assert not backend.pool_active  # no pool was ever spawned
        backend.close()

    def test_single_element_mesh_degenerates(self, cls):
        mesh1 = periodic_box_mesh(1, 2)
        backend = cls(num_workers=4)
        values = np.ones((5,) + mesh1.connectivity.shape)
        backend.scatter_add_many(values, mesh1.connectivity, mesh1.num_nodes)
        assert not backend.pool_active  # one shard -> serial path
        backend.close()

    def test_shape_validation_errors_in_parent(self, cls, mesh):
        """Bad shapes must raise immediately, not from inside a worker."""
        backend = cls(num_workers=2)
        with pytest.raises(FEMError):
            backend.scatter_add_many(
                np.ones((5, 3)), mesh.connectivity, mesh.num_nodes
            )
        with pytest.raises(FEMError):
            backend.weak_divergence_many(
                np.ones((5, mesh.num_elements, 4)), None, _ref_for(mesh)
            )
        backend.close()


def _ref_for(mesh):
    from repro.fem.reference import reference_hex

    return reference_hex(mesh.polynomial_order)


class TestForkSafety:
    @pytest.mark.parametrize("cls", PARALLEL_CLASSES)
    def test_forked_child_respawns_and_parent_survives(
        self, cls, mesh, payload
    ):
        """A fork()ed child inheriting a live backend must not reuse (or
        tear down) the parent's pool — it silently respawns its own,
        while the parent's pool keeps working. This is the composition
        contract with ``run_campaign(workers=N)``."""
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            pytest.skip("fork start method unavailable")
        backend = cls(num_workers=2)
        expected = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )

        def child(queue):
            queue.put(
                backend.scatter_add_many(
                    payload, mesh.connectivity, mesh.num_nodes
                )
            )

        queue = ctx.Queue()
        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        child_result = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert np.array_equal(child_result, expected)
        # Parent pool still fully functional after the child exits.
        again = backend.scatter_add_many(
            payload, mesh.connectivity, mesh.num_nodes
        )
        assert np.array_equal(again, expected)
        backend.close()
