"""The benchmark's three workloads: solver step, payload cosim tier, DSE campaign.

Each workload builds its inputs from a seed, runs one *operation* per
call of :meth:`op` (timed by the runner), and checks every operation's
output outside the timed region. The program receives only the
generated inputs and its own defaults: no backend, fusion or dtype
argument is passed anywhere.

Operations:

``tgv-p3-e512``
    ``sim.run(1)`` on a seeded Taylor-Green vortex, 8^3 elements of
    order 3: CFL ``dt``, one RK4 step, the diagnostics record.
``cosim-p3-e512``
    ``cosimulate_rk_stage`` of one RK step on the same mesh and seeded
    state, with the campaign cosim rung's settings.
``dse-grid960``
    A cold ``run_campaign`` over the 1152-point grid (960 feasible) into
    a fresh on-disk ``ResultCache``, then a warm re-run reading it back.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.accel import cosim as cosim_module
from repro.accel.designs import proposed_design
from repro.dataflow.schedule import schedule_cache_stats
from repro.dse import CampaignSpec, ResultCache, run_campaign
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.diagnostics import total_mass
from repro.physics.state import FlowState
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.solver.profiler import PhaseProfiler
from repro.solver.simulation import Simulation
from repro.solver.workload import full_step_workload

#: Relative tolerance of the solver and cosim output checks.
STATE_RTOL = 1e-12
#: Every this many TGV operations, the step is replayed on the
#: ``reference`` backend with ``fusion="none"`` and compared.
REPLAY_STRIDE = 10
#: Amplitude of the seeded velocity perturbation, relative to ``V0``.
PERTURBATION = 1e-3

#: The 1152-point grid (960 feasible points) of the campaign workload.
GRID_AXES = (
    ("polynomial_order", (2, 3)),
    ("elements_per_direction", (2, 3)),
    ("block_size", (1, 2, 4, 8)),
    ("num_cus", (1, 2, 4)),
    ("device", ("u200", "hbm")),
    ("fusion", ("none", "gather", "full")),
    ("partition", ("balanced", "contiguous")),
    ("num_steps", (1, 2)),
)
#: A 16-point grid with the same axes, for the benchmark's own tests.
TINY_GRID_AXES = (
    ("polynomial_order", (2,)),
    ("elements_per_direction", (2,)),
    ("block_size", (1, 2)),
    ("num_cus", (1, 2)),
    ("device", ("u200",)),
    ("fusion", ("none", "full")),
    ("partition", ("balanced", "contiguous")),
    ("num_steps", (1,)),
)


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max-norm error of ``actual`` relative to ``expected``'s scale."""
    scale = float(np.abs(expected).max()) or 1.0
    return float(np.abs(actual - expected).max()) / scale


def perturbed_tgv_state(mesh, seed: int) -> FlowState:
    """The TGV initial state plus a seeded smooth velocity perturbation.

    Each velocity component gets three Fourier modes with integer
    wavenumbers in ``[-2, 2]`` per direction (periodic on the box), and
    random amplitudes and phases, of total size ~``PERTURBATION * V0``.
    Density and temperature are the TGV ones.
    """
    rng = np.random.default_rng(seed)
    base = taylor_green_initial(mesh.coords, DEFAULT_TGV)
    gas = DEFAULT_TGV.gas()
    lengths = np.array([hi - lo for lo, hi in mesh.domain])
    phase_scale = 2.0 * np.pi * mesh.coords / lengths  # (N, 3)
    velocity = base.velocity().copy()
    for component in range(3):
        for _ in range(3):
            wave = rng.integers(-2, 3, size=3)
            amplitude = rng.normal() * PERTURBATION * DEFAULT_TGV.velocity / 3
            velocity[component] += amplitude * np.sin(
                phase_scale @ wave + rng.uniform(0.0, 2.0 * np.pi)
            )
    return FlowState.from_primitive(
        base.rho, velocity, base.temperature(gas), gas
    )


class TGVWorkload:
    """``Simulation.run(1)``: the paper's solver loop, Non-RK included."""

    name = "tgv-p3-e512"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        """``workdir`` is for scratch files (only the campaign writes any);
        ``tiny`` selects the small sizes of the benchmark's own tests."""
        self.seed = seed
        self.elements, self.order = (2, 2) if tiny else (8, 3)

    def setup(self) -> None:
        self.mesh = periodic_box_mesh(self.elements, self.order)
        self.initial = perturbed_tgv_state(self.mesh, self.seed)
        self.profiler = PhaseProfiler()
        self.sim = Simulation(
            self.mesh, DEFAULT_TGV, profiler=self.profiler,
            initial_state=self.initial,
        )
        self.initial_mass = total_mass(self.initial, self.sim.operator.mass)
        self.replay = None
        self.checked = 0

    def prepare(self) -> None:
        self.before = self.sim.state
        self.phases_before = self.profiler.totals()

    def op(self, tracer):
        return self.sim.run(1)

    def cleanup(self) -> None:
        pass

    def check(self, out) -> list[str]:
        problems = []
        state = out.final_state.as_stacked()
        if not np.isfinite(state).all():
            problems.append("non-finite state")
        mass = out.records[0].total_mass
        drift = abs(mass - self.initial_mass) / abs(self.initial_mass)
        if drift > STATE_RTOL:
            problems.append(f"mass drift {drift:.3e}")
        if self.checked % REPLAY_STRIDE == 0:
            problems += self._replay(out.records[0].dt, state)
        self.checked += 1
        return problems

    def _replay(self, dt: float, state: np.ndarray) -> list[str]:
        """Re-run the step on ``reference`` / ``fusion="none"``."""
        if self.replay is None:
            self.replay = Simulation(
                self.mesh, DEFAULT_TGV, initial_state=self.before,
                backend="reference", fusion="none",
            )
        self.replay.state = self.before
        self.replay.step(dt)
        err = relative_error(state, self.replay.state.as_stacked())
        if err > STATE_RTOL:
            return [f"state differs from reference replay by {err:.3e}"]
        return []

    def layer_sample(self, out, before, after) -> dict:
        phases = self.profiler.totals()
        sample = {
            f"pipeline.{phase.replace('.', '_')}.s": phases.get(phase, 0.0)
            - self.phases_before.get(phase, 0.0)
            for phase in ("rk.diffusion", "rk.convection", "rk.update",
                          "rk.other")
        }
        sample["solver.non_rk.s"] = phases.get(
            "non_rk", 0.0
        ) - self.phases_before.get("non_rk", 0.0)
        sample["pipeline.flops"] = self.step_flops()
        return sample

    def step_flops(self) -> float:
        mesh = self.mesh
        return full_step_workload(
            mesh.num_nodes, mesh.num_elements, self.order
        ).total_ops().flops

    def config(self) -> dict:
        operator = self.sim.operator
        return {
            "mesh": f"periodic_box_mesh({self.elements}, {self.order})",
            "num_elements": self.mesh.num_elements,
            "num_nodes": self.mesh.num_nodes,
            "backend": self.sim.backend_name,
            "fusion": operator.fusion,
            "dtype": self.sim.precision.mode,
        }

    @staticmethod
    def op_timings(out) -> dict:
        return {}

    def summary(self, p50: float, timings: dict) -> dict:
        """The workload's own names for its end-to-end numbers."""
        return {
            "step_s.p50": (p50, "s"),
            "node_steps_per_s": (self.mesh.num_nodes / p50, "1/s"),
        }


class CosimWorkload(TGVWorkload):
    """One co-simulated RK step through the payload-carrying cosim tier."""

    name = "cosim-p3-e512"
    block_size = 32

    def setup(self) -> None:
        self.mesh = periodic_box_mesh(self.elements, self.order)
        self.initial = perturbed_tgv_state(self.mesh, self.seed)
        self.design = proposed_design()
        self.expected = None
        self.cycles = None

    def prepare(self) -> None:
        pass

    def op(self, tracer):
        return cosim_module.cosimulate_rk_stage(
            self.design, self.mesh, initial_state=self.initial,
            block_size=self.block_size, verify=False,
        )

    def check(self, out) -> list[str]:
        if self.expected is None:
            # Simulation.step on the same input and dt, program defaults.
            self.reference = Simulation(
                self.mesh, DEFAULT_TGV, initial_state=self.initial
            )
            self.reference.step(out.dt)
            self.expected = self.reference.state.as_stacked()
            self.cycles = out.simulated_cycles
        problems = []
        err = relative_error(out.final_state.as_stacked(), self.expected)
        if not err <= STATE_RTOL:
            problems.append(f"streamed state differs from step by {err:.3e}")
        if out.simulated_cycles != self.cycles:
            problems.append(
                f"sim_cycles {out.simulated_cycles} != {self.cycles}"
            )
        return problems

    def layer_sample(self, out, before, after) -> dict:
        stalls = sum(
            st.input_stall_cycles + st.output_stall_cycles
            for st in out.trace.task_stats.values()
        )
        return {
            "cosim.sim_cycles": out.simulated_cycles,
            "cosim.rkl_cycles": sum(out.per_stage_rkl_cycles),
            "cosim.rku_cycles": out.rku_simulated_cycles,
            "cosim.stall_cycles": stalls,
            "pipeline.flops": self.step_flops(),
        }

    def config(self) -> dict:
        reference = self.reference
        return {
            "mesh": f"periodic_box_mesh({self.elements}, {self.order})",
            "num_elements": self.mesh.num_elements,
            "num_nodes": self.mesh.num_nodes,
            "design": self.design.options.name,
            "block_size": self.block_size,
            "backend": reference.backend_name,
            "fusion": reference.operator.fusion,
            "dtype": reference.precision.mode,
        }

    def summary(self, p50: float, timings: dict) -> dict:
        return {
            "cosim_step_s.p50": (p50, "s"),
            "sim_cycles": (self.cycles, "cycles"),
        }


@dataclass
class CampaignOutput:
    cold: object
    warm: object
    cold_s: float
    warm_s: float
    #: Tracer totals between the cold and the warm pass (traced ops).
    midpoint: dict | None


class DSEWorkload:
    """A cold full-ladder campaign into a fresh disk cache, then a warm
    re-run against it.

    Each operation's cache directory is deleted after it, outside the
    timed region. On the baseline machine (ext4 mounted with
    ``discard`` on a virtual disk) the freed blocks slow file creation
    for seconds afterwards, so the cold pass runs with that deferred
    cost of the previous operations, as back-to-back campaigns would.
    """

    name = "dse-grid960"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.seed = seed
        self.cache_root = os.path.join(workdir, "dse-cache")
        self.workers = min(2, os.cpu_count() or 1)
        rng = random.Random(seed)
        axes = []
        for axis, values in TINY_GRID_AXES if tiny else GRID_AXES:
            values = list(values)
            rng.shuffle(values)
            axes.append((axis, tuple(values)))
        self.spec = CampaignSpec(name=self.name, axes=tuple(axes))
        self.expected = None

    def setup(self) -> None:
        os.makedirs(self.cache_root, exist_ok=True)

    def prepare(self) -> None:
        self.directory = tempfile.mkdtemp(dir=self.cache_root)

    def op(self, tracer):
        start = time.perf_counter()
        cold = run_campaign(
            self.spec, workers=self.workers,
            cache=ResultCache(self.directory),
        )
        middle = time.perf_counter()
        midpoint = tracer.snapshot() if tracer.enabled else None
        warm = run_campaign(
            self.spec, workers=self.workers,
            cache=ResultCache(self.directory),
        )
        end = time.perf_counter()
        return CampaignOutput(cold, warm, middle - start, end - middle,
                              midpoint)

    def cleanup(self) -> None:
        shutil.rmtree(self.directory)

    @staticmethod
    def _priced(result) -> list:
        return [
            [r.to_dict() for r in tier]
            for tier in (result.results, result.survivors, result.cosim)
        ]

    def check(self, out: CampaignOutput) -> list[str]:
        problems = []
        cold, warm = out.cold, out.warm
        for label, result in (("cold", cold), ("warm", warm)):
            if result.failures:
                problems.append(
                    f"{label}: {len(result.failures)} quarantined points"
                )
            if result.violations:
                problems.append(
                    f"{label}: {len(result.violations)} tier-agreement "
                    "violations"
                )
        if warm.cache_stats.hit_rate != 1.0:
            problems.append(
                f"warm hit rate {warm.cache_stats.hit_rate:.3f} != 1"
            )
        priced = self._priced(cold)
        if self._priced(warm) != priced:
            problems.append("warm results differ from cold results")
        if self.expected is None:
            self.expected = priced
        elif priced != self.expected:
            problems.append("cold results differ from the first campaign")
        return problems

    def layer_sample(self, out: CampaignOutput, before, after) -> dict:
        from bench_trace import Tracer

        sample = {"dse.tiers.closed_form.points": len(out.cold.results)}
        for name, value in out.cold.supervision.to_dict().items():
            if name in ("dispatched", "completed", "retries", "respawns",
                        "timeouts", "quarantined"):
                sample[f"dse.pool.{name}"] = value
        passes = (
            ("cold", out.cold, Tracer.delta(before, out.midpoint)),
            ("warm", out.warm, Tracer.delta(out.midpoint, after)),
        )
        for label, result, spans in passes:
            stats = result.cache_stats
            prefix = f"dse.cache.{label}"
            for name in ("hits", "misses", "writes", "corrupt",
                         "write_errors", "hit_rate"):
                sample[f"{prefix}.{name}"] = getattr(stats, name)
            for op in ("get", "put"):
                sample[f"{prefix}.{op}_s"] = spans.get(
                    f"dse.cache.{op}", (0, 0.0, 0.0)
                )[1]
        return sample

    def config(self) -> dict:
        from repro.backend import resolve_backend_name

        return {
            "axes": [[axis, list(values)] for axis, values in self.spec.axes],
            "num_feasible_points": len(self.expected[0]),
            "workers": self.workers,
            "cosim_backend": resolve_backend_name(self.spec.backend),
            "fusion": "swept",
            "dtype": self.spec.base.precision,
        }

    @staticmethod
    def op_timings(out: CampaignOutput) -> dict:
        return {"cold_s": out.cold_s, "warm_s": out.warm_s}

    def summary(self, p50: float, timings: dict) -> dict:
        cold = timings["cold_s"]
        return {
            "campaign_s.p50": (cold, "s"),
            "campaign_warm_s.p50": (timings["warm_s"], "s"),
            "points_per_s": (len(self.expected[0]) / cold, "1/s"),
        }


WORKLOADS = {
    cls.name: cls for cls in (TGVWorkload, CosimWorkload, DSEWorkload)
}


def schedule_cache_counts() -> tuple[int, int]:
    stats = schedule_cache_stats()
    return stats["hits"], stats["misses"]
