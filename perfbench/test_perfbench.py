"""The benchmark's own tests: tiny runs of every workload, and checks
that catch wrong answers.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import CosimWorkload, TGVWorkload  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in spec["end_to_end"]) == (
        spec["end_to_end"][0]["bound"]
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = _result(done)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(
        expected
    )
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    assert record["machine"]["nproc"] >= 1
    config = record["workloads"][0]
    assert config["seed"] == 3 and config["workload"] == workload


def test_cosim_trace_reports_exact_cycles_and_no_solver_residual():
    done = _run("--workload", "cosim-p3-e512", "--seed", "5", "--seconds",
                "0.3", "--trace", "1", "--tiny")
    metrics = _result(done)["metrics"]
    assert metrics["cosim.sim_cycles"]["value"] == int(
        metrics["cosim.sim_cycles"]["value"]
    ) > 0
    assert metrics["dataflow.run_vectorized.calls"]["value"] >= 1
    assert metrics["solver.residual.calls"]["value"] == 0


def test_poisoned_campaign_point_fails_the_run(capsys):
    from repro.testing import FaultSpec, injected_faults

    poison = FaultSpec(site="dse.point", kind="error", at=(3,), times=0)
    with injected_faults(poison):
        code = run.main(["--workload", "dse-grid960", "--seed", "1",
                         "--seconds", "0.2", "--tiny"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("quarantined" in line for line in out)


def test_wrong_solver_state_is_caught():
    workload = TGVWorkload(seed=2, workdir=str(ROOT / ".perfbench"), tiny=True)
    workload.setup()
    workload.prepare()
    out = workload.op(Tracer())
    assert workload.check(out) == []
    workload.checked = 0  # force the reference replay again
    scale = np.abs(out.final_state.as_stacked()).max()
    out.final_state.momentum[0, 0] += 1e-9 * scale
    problems = workload.check(out)
    assert any("reference replay" in p for p in problems)
    out.final_state.rho[0] = np.nan
    assert any("non-finite" in p for p in workload.check(out))


def test_wrong_cosim_state_is_caught():
    workload = CosimWorkload(seed=2, workdir=str(ROOT / ".perfbench"), tiny=True)
    workload.setup()
    out = workload.op(Tracer())
    assert workload.check(out) == []
    scale = np.abs(out.final_state.as_stacked()).max()
    out.final_state.total_energy[0] += 1e-9 * scale
    assert any("differs from step" in p for p in workload.check(out))


def test_without_program_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "tgv-p3-e512", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_excludes_children_and_restore_undoes_patches():
    tracer = Tracer()

    class Layer:
        def inner(self):
            time.sleep(0.02)

        def outer(self):
            self.inner()
            time.sleep(0.01)

    original = Layer.__dict__["inner"]
    tracer.patch(Layer, "inner", "inner")
    tracer.patch(Layer, "outer", "outer")
    tracer.enabled = True
    Layer().outer()
    calls, incl, self_s = tracer.totals["outer"]
    assert calls == 1 and incl >= 0.03
    assert 0.01 <= self_s < incl - 0.015
    (_, parent, *_), (outer_id, *_) = tracer.spans
    assert parent == outer_id
    tracer.restore()
    assert Layer.__dict__["inner"] is original
