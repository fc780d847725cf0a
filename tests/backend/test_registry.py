"""The backend registry: selection precedence, errors, extensibility."""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    FastBackend,
    KernelBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.backend.registry import _REGISTRY
from repro.errors import ConfigError, ConfigurationError


class TestResolution:
    def test_builtins_registered(self):
        assert "reference" in available_backends()
        assert "fast" in available_backends()

    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name() == "fast"
        assert isinstance(get_backend(), FastBackend)

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert isinstance(get_backend("fast"), FastBackend)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        assert resolve_backend_name() == "fast"
        assert isinstance(get_backend(), FastBackend)

    def test_name_is_case_insensitive(self):
        assert isinstance(get_backend("FAST"), FastBackend)

    def test_instance_passthrough(self):
        backend = FastBackend()
        assert get_backend(backend) is backend

    def test_fresh_instance_per_request(self):
        assert get_backend("fast") is not get_backend("fast")


class TestConfigWiring:
    def test_solver_config_backend_reaches_simulation(self):
        """SolverConfig.backend is a real selection channel: a RunConfig
        carrying it must produce a Simulation on that backend."""
        from repro.config import MeshSpec, RunConfig, SolverConfig
        from repro.solver.simulation import Simulation

        config = RunConfig(
            mesh=MeshSpec(2, polynomial_order=2),
            num_time_steps=1,
            solver=SolverConfig(backend="fast"),
        )
        sim = Simulation.from_run_config(config)
        assert sim.backend_name == "fast"
        assert isinstance(sim.operator.backend, FastBackend)

    def test_run_config_default_backend_defers_to_env(self, monkeypatch):
        from repro.config import MeshSpec, RunConfig
        from repro.solver.simulation import Simulation

        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        sim = Simulation.from_run_config(RunConfig(mesh=MeshSpec(2)))
        assert sim.backend_name == "fast"

    def test_solver_config_rejects_blank_backend(self):
        from repro.config import SolverConfig

        with pytest.raises(ConfigError):
            SolverConfig(backend="   ")

    def test_solver_config_physics_reach_simulation(self):
        """from_run_config honors every SolverConfig field: viscosity
        (via the implied Reynolds number), gamma, gas constant, Prandtl,
        and cfl — not just the backend."""
        from repro.config import MeshSpec, RunConfig, SolverConfig
        from repro.solver.simulation import Simulation

        solver = SolverConfig(
            viscosity=0.01, prandtl=0.9, gamma=1.3, gas_constant=250.0, cfl=0.4
        )
        sim = Simulation.from_run_config(
            RunConfig(mesh=MeshSpec(2), solver=solver)
        )
        assert sim.gas.viscosity == pytest.approx(0.01)
        assert sim.gas.prandtl == 0.9
        assert sim.gas.gamma == 1.3
        assert sim.gas.gas_constant == 250.0
        assert sim.cfl == 0.4
        assert sim.case.reynolds == pytest.approx(100.0)


class TestErrors:
    def test_unknown_backend_raises_config_error(self):
        with pytest.raises(ConfigError) as excinfo:
            get_backend("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        assert "reference" in message  # lists what IS available
        assert BACKEND_ENV_VAR in message  # tells the user how to select

    def test_removed_procs_backend_raises(self):
        """``"procs"`` was deleted; selecting it fails with a message
        naming every backend that does exist."""
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("procs")
        message = str(excinfo.value)
        assert all(name in message for name in available_backends())

    def test_removed_threaded_backend_raises(self):
        """``"threaded"`` was deleted: the two single-threaded backends
        are all that is built in."""
        assert available_backends() == ("fast", "reference")
        with pytest.raises(ConfigurationError):
            get_backend("threaded")

    def test_config_error_is_configuration_error(self):
        assert ConfigError is ConfigurationError

    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ConfigError):
            get_backend()

    def test_empty_name_rejected_at_registration(self):
        with pytest.raises(ConfigError):
            register_backend("  ", ReferenceBackend)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_backend("reference", ReferenceBackend)

    def test_factory_must_return_kernel_backend(self, monkeypatch):
        monkeypatch.setitem(_REGISTRY, "broken", lambda: object())
        with pytest.raises(ConfigError):
            get_backend("broken")


class TestExtensibility:
    def test_third_party_backend_registers_and_runs(self, monkeypatch):
        """The documented path for adding a numba/jax backend later."""

        class TracingBackend(ReferenceBackend):
            name = "tracing"

            def __init__(self):
                self.calls = []

            def gather(self, global_field, connectivity):
                self.calls.append("gather")
                return super().gather(global_field, connectivity)

        monkeypatch.setitem(_REGISTRY, "tracing", TracingBackend)
        backend = get_backend("tracing")
        assert isinstance(backend, KernelBackend)
        out = backend.gather(np.arange(4.0), np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2)
        assert backend.calls == ["gather"]
