"""Benchmark of the repo's three end-to-end paths, with a per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tgv-p3-e512 --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``tgv-p3-e512``, ``cosim-p3-e512``,
``dse-grid960``, or ``all`` (the three in turn, in this process).
Each workload runs closed-loop: one client issues the next operation
when the previous one returns, until the timed operations add up to
``--seconds``. Every operation's output is checked outside the timed
region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times calls
into every layer (see ``bench_trace.py``), prints the per-layer metrics
with the tracing overhead, and writes the spans to ``.perfbench/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report and the machine/configuration record. The exit
code is 0 only when every check passed.

The benchmark measures the program's defaults: ``REPRO_BACKEND``,
``REPRO_DTYPE`` and ``REPRO_NUM_WORKERS`` are removed from the
environment (their values, if any, are recorded).
"""

from __future__ import annotations

import time

#: Process start as the benchmark sees it: set-up time counts from here,
#: before numpy or the program is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_calibrate import (  # noqa: E402
    REFERENCE_SECONDS,
    calibration_seconds,
)
from bench_trace import (  # noqa: E402
    BACKEND_METHODS,
    PHYSICS_FUNCTIONS,
    Tracer,
    install_layer_spans,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("tgv-p3-e512", "cosim-p3-e512", "dse-grid960")
ENV_KNOBS = ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_NUM_WORKERS")
#: Fresh processes whose set-up time is measured; ``setup_s`` is their
#: median.
SETUP_PROBES = 5
#: Untimed operations between the first one and the timed ones.
WARMUP_OPS = 2
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)

PHYSICS_NAMES = tuple(name for _, name in PHYSICS_FUNCTIONS)
CACHE_METRICS = (
    ("hits", "count"),
    ("misses", "count"),
    ("writes", "count"),
    ("corrupt", "count"),
    ("write_errors", "count"),
    ("hit_rate", "ratio"),
    ("get_s", "s"),
    ("put_s", "s"),
)
POOL_COUNTERS = (
    "dispatched", "completed", "retries", "respawns", "timeouts",
    "quarantined",
)

PER_LAYER = (
    *(
        (f"backend.{method}.{field}", unit)
        for method in BACKEND_METHODS
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("backend.share", "ratio"),
    *(
        (f"physics.{fn}.{field}", unit)
        for fn in PHYSICS_NAMES
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("physics.share", "ratio"),
    ("pipeline.rk_diffusion.s", "s"),
    ("pipeline.rk_convection.s", "s"),
    ("pipeline.rk_update.s", "s"),
    ("pipeline.rk_other.s", "s"),
    ("solver.non_rk.s", "s"),
    ("solver.residual.calls", "count"),
    ("solver.residual.self_s", "s"),
    ("pipeline.flops", "flop"),
    ("pipeline.gflop_per_s", "GFLOP/s"),
    ("dataflow.compute_schedule.calls", "count"),
    ("dataflow.compute_schedule.self_s", "s"),
    ("dataflow.run_vectorized.calls", "count"),
    ("dataflow.run_vectorized.self_s", "s"),
    ("dataflow.schedule_cache.hits", "count"),
    ("dataflow.schedule_cache.misses", "count"),
    ("dataflow.schedule_cache.hit_rate", "ratio"),
    ("cosim.other_s", "s"),
    ("cosim.sim_cycles", "cycles"),
    ("cosim.rkl_cycles", "cycles"),
    ("cosim.rku_cycles", "cycles"),
    ("cosim.stall_cycles", "cycles"),
    ("dse.campaign_cold_s.p50", "s"),
    ("dse.campaign_warm_s.p50", "s"),
    ("dse.expand.s", "s"),
    ("dse.pool.run_s", "s"),
    ("dse.pareto.s", "s"),
    ("dse.tiers.closed_form.points", "count"),
    ("dse.tiers.exact.points", "count"),
    ("dse.tiers.exact.s", "s"),
    ("dse.tiers.cosim.points", "count"),
    ("dse.tiers.cosim.s", "s"),
    *((f"dse.pool.{name}", "count") for name in POOL_COUNTERS),
    *(
        (f"dse.cache.{label}.{name}", unit)
        for label in ("cold", "warm")
        for name, unit in CACHE_METRICS
    ),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
)


SECONDS_METRICS = {name for name, unit in PER_LAYER if unit == "s"}


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine_record() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def span_sample(delta: dict, op_s: float) -> dict:
    """Per-op layer metrics from one op's span totals."""
    none = (0, 0.0, 0.0)
    sample = {"trace.spans_per_op": sum(v[0] for v in delta.values())}

    def calls_and_self(span: str) -> float:
        calls, _, self_s = delta.get(span, none)
        sample[f"{span}.calls"] = calls
        sample[f"{span}.self_s"] = self_s
        return self_s

    backend = sum(calls_and_self(f"backend.{m}") for m in BACKEND_METHODS)
    physics = sum(calls_and_self(f"physics.{f}") for f in PHYSICS_NAMES)
    sample["backend.share"] = backend / op_s
    sample["physics.share"] = physics / op_s
    for span in ("solver.residual", "dataflow.compute_schedule",
                 "dataflow.run_vectorized"):
        calls_and_self(span)
    sample["cosim.other_s"] = delta.get("cosim.cosimulate_rk_stage", none)[2]
    for span, metric in (("dse.expand", "dse.expand.s"),
                         ("dse.pool.run", "dse.pool.run_s"),
                         ("dse.pareto", "dse.pareto.s")):
        sample[metric] = delta.get(span, none)[1]
    for tier in ("exact", "cosim"):
        calls, incl, _ = delta.get(f"dse.tiers.{tier}", none)
        sample[f"dse.tiers.{tier}.points"] = calls
        sample[f"dse.tiers.{tier}.s"] = incl
    return sample


class Run:
    """One workload's closed-loop measurement in this process."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: (scaled seconds, wall seconds, traced?) per timed op.
        self.times: list[tuple[float, float, bool]] = []
        #: Workload-specific scaled sub-timings per timed op.
        self.timings: list[dict] = []
        self.samples: list[dict] = []

    def _op(self, traced: bool) -> tuple[float, dict]:
        from bench_workloads import schedule_cache_counts

        workload, tracer = self.workload, self.tracer
        workload.prepare()
        tracer.enabled = traced
        if traced:
            before = tracer.snapshot()
            sched_before = schedule_cache_counts()
        start = time.perf_counter()
        out = tracer.call("op", workload.op, tracer)
        elapsed = time.perf_counter() - start
        tracer.enabled = False
        self.attempted += 1
        problems = workload.check(out)
        if problems:
            self.failed += 1
            self.problems += [f"op {self.attempted}: {p}" for p in problems]
        if traced:
            after = tracer.snapshot()
            hits, misses = (
                now - then
                for now, then in zip(schedule_cache_counts(), sched_before)
            )
            sample = span_sample(Tracer.delta(before, after), elapsed)
            sample["dataflow.schedule_cache.hits"] = hits
            sample["dataflow.schedule_cache.misses"] = misses
            sample["dataflow.schedule_cache.hit_rate"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
            sample.update(workload.layer_sample(out, before, after))
            self.samples.append(sample)
        timings = workload.op_timings(out)
        workload.cleanup()
        return elapsed, timings

    def execute(self) -> None:
        """Set up and run the first op, warm up, then time ops until
        their wall times add up to ``seconds``. Each op's wall time is
        also scaled by the calibration runs either side of it. A traced
        run alternates recording on and off, so both kinds of op come
        from the same process."""
        self.workload.setup()
        for _ in range(1 + WARMUP_OPS):
            self._op(traced=False)
        calibration = calibration_seconds()
        total = 0.0
        while total < self.seconds or len(self.times) < 2:
            traced = self.trace and len(self.times) % 2 == 1
            elapsed, timings = self._op(traced)
            following = calibration_seconds()
            scale = REFERENCE_SECONDS / ((calibration + following) / 2)
            calibration = following
            self.times.append((elapsed * scale, elapsed, traced))
            self.timings.append({k: v * scale for k, v in timings.items()})
            if traced:
                sample = self.samples[-1]
                for key in sample.keys() & SECONDS_METRICS:
                    sample[key] *= scale
            total += elapsed

    def untraced(self, wall: bool = False) -> list[float]:
        return [t[1 if wall else 0] for t in self.times if not t[2]]

    def end_to_end(self, setup_s: float) -> dict:
        times = self.untraced()
        return {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(times),
            "op_s.p90": percentile(times, 90),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        keys = {key for sample in self.samples for key in sample}
        for key in keys:
            metrics[key] = statistics.median(
                sample.get(key, 0.0) for sample in self.samples
            )
        plain = statistics.median(self.untraced())
        traced = statistics.median(t[0] for t in self.times if t[2])
        metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        metrics["pipeline.gflop_per_s"] = (
            metrics["pipeline.flops"] / plain / 1e9
        )
        for key, value in self.summary_timings().items():
            metrics[f"dse.campaign_{key}.p50"] = value
        return metrics

    def summary_timings(self) -> dict:
        """Median scaled sub-timings over the untraced ops."""
        plain = [
            timing
            for timing, t in zip(self.timings, self.times)
            if not t[2] and timing
        ]
        if not plain:
            return {}
        return {
            key: statistics.median(timing[key] for timing in plain)
            for key in plain[0]
        }


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    """Set-up time of ``name`` in a freshly started interpreter."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--setup-probe",
    ]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"set-up probe of {name} failed:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny problem sizes (the benchmark's own tests)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="measure set-up of one workload and print it (internal)",
    )
    return parser.parse_args(argv)


def run_workload(name: str, args, record: dict) -> tuple[Run, dict]:
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name](args.seed, str(OUT_DIR), tiny=args.tiny)
    run = Run(workload, args.seconds, trace=bool(args.trace))
    if args.trace:
        from repro.backend import get_backend

        backend = get_backend()
        backend.close()
        install_layer_spans(run.tracer, type(backend))
    try:
        run.execute()
    finally:
        run.tracer.restore()
    if args.trace:
        metrics = run.per_layer()
        units = dict(PER_LAYER)
    else:
        setups = [
            probe_setup(name, args.seed, args.tiny)
            for _ in range(SETUP_PROBES)
        ]
        metrics = run.end_to_end(statistics.median(setups))
        units = dict(END_TO_END)
    config = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "timed_ops": len(run.times),
        **workload.config(),
    }
    record.setdefault("workloads", []).append(config)
    if args.trace:
        run.tracer.write(
            OUT_DIR / f"trace-{name}-seed{args.seed}.json",
            {**record, "workloads": [config]},
        )
    n = len(run.untraced())
    print(f"== {name} (seed {args.seed}, {n} untraced timed ops)")
    for metric, value in metrics.items():
        print(f"  {metric:<36} {value:>16.6g} {units[metric]}")
    if not args.trace:
        named = workload.summary(
            statistics.median(run.untraced()), run.summary_timings()
        )
        named["wall_s.p50"] = (statistics.median(run.untraced(True)), "s")
        for metric, (value, unit) in named.items():
            print(f"  ({metric}){'':<{34 - len(metric)}} {value:>16.6g} {unit}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    return run, {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    removed = {k: os.environ.pop(k) for k in ENV_KNOBS if k in os.environ}
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    if args.setup_probe:
        from bench_workloads import WORKLOADS

        workload = WORKLOADS[args.workload](
            args.seed, str(OUT_DIR), tiny=args.tiny
        )
        workload.setup()
        workload.prepare()
        workload.op(Tracer())
        setup_s = time.perf_counter() - T0
        workload.cleanup()
        scale = REFERENCE_SECONDS / calibration_seconds()
        print(json.dumps({"setup_s": setup_s * scale, "wall_s": setup_s}))
        return 0

    record = {"machine": machine_record(), "removed_env": removed}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, run_metrics = run_workload(name, args, record)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: v for m, v in run_metrics.items()})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
