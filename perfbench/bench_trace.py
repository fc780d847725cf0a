"""In-memory span tracer that times calls into the repo's public layers.

The tracer lives entirely in the benchmark: :func:`install_layer_spans`
swaps each listed public function or method for a wrapper that records
a span (name, start, end, parent) around the original call, and
:meth:`Tracer.restore` puts the originals back. Nothing under ``src/``
is modified.

A span's *self time* is its duration minus the time its child spans
cover. Running totals per span name (calls, inclusive seconds, self
seconds) are kept next to the span list, so the per-operation numbers a
benchmark reports are differences of two :meth:`Tracer.snapshot` calls.
Recording can be paused (:attr:`Tracer.enabled`); a paused wrapper
costs one attribute test per call, which is how the traced run measures
its own overhead against operations of the same process.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections.abc import Callable

#: Span names whose self time counts as the ``backend`` layer.
BACKEND_METHODS = (
    "gather",
    "scatter_add",
    "scatter_add_many",
    "physical_gradient",
    "physical_gradient_many",
    "weak_divergence",
    "weak_divergence_many",
    "reference_gradient",
)

#: Physics flux functions, timed where ``repro.pipeline.kernels`` (and,
#: for ``stress_tensor``, ``repro.physics.fluxes``) calls them.
PHYSICS_FUNCTIONS = (
    ("repro.pipeline.kernels", "convective_fluxes"),
    ("repro.pipeline.kernels", "viscous_fluxes"),
    ("repro.pipeline.kernels", "combined_rhs_fluxes"),
    ("repro.physics.fluxes", "stress_tensor"),
)


def _tier_span(index, point, tier, options):
    return f"dse.tiers.{tier}"


#: ``(module, class or None, attribute, span name)``: every patched call
#: site outside the backend. Functions imported by name into another
#: module are patched where that module looks them up.
LAYER_SITES: tuple = (
    ("repro.solver.navier_stokes", "NavierStokesOperator", "residual",
     "solver.residual"),
    *(
        (module, None, name, f"physics.{name}")
        for module, name in PHYSICS_FUNCTIONS
    ),
    ("repro.accel.cosim", None, "cosimulate_rk_stage",
     "cosim.cosimulate_rk_stage"),
    ("repro.dse.tiers", None, "cosimulate_rk_stage",
     "cosim.cosimulate_rk_stage"),
    ("repro.dataflow.simulator", None, "run_vectorized",
     "dataflow.run_vectorized"),
    ("repro.dataflow.schedule", None, "compute_schedule",
     "dataflow.compute_schedule"),
    ("repro.dse.campaign", "CampaignSpec", "expand", "dse.expand"),
    ("repro.dse.pool", "SupervisedPool", "run", "dse.pool.run"),
    ("repro.dse.executor", None, "pareto_front", "dse.pareto"),
    ("repro.dse.executor", None, "evaluate_one", _tier_span),
    ("repro.dse.cache", "ResultCache", "get", "dse.cache.get"),
    ("repro.dse.cache", "ResultCache", "put", "dse.cache.put"),
)

_MISSING = object()


class Tracer:
    """Spans kept in memory; per-name totals for cheap per-op deltas."""

    def __init__(self) -> None:
        self.enabled = False
        # One entry per closed span, in closing order. Flat arrays keep
        # tens of thousands of spans out of the garbage collector's way.
        self._ids = array("q")
        self._parents = array("q")
        self._names: list[str] = []
        self._starts = array("d")
        self._ends = array("d")
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        # Open spans: [span id, seconds covered by children].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _record(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack
        span_id = len(self._ids) + len(stack)
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self._ids.append(span_id)
            self._parents.append(parent)
            self._names.append(name)
            self._starts.append(start)
            self._ends.append(end)
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span of ``name`` (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._record(name, fn, args, kwargs)

    def wrap(self, fn: Callable, name) -> Callable:
        """``fn`` recording a span per call; ``name`` may be a callable
        computing the span name from the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            return tracer._record(span, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @property
    def spans(self) -> list[tuple[int, int, str, float, float]]:
        """``(span id, parent id or -1, name, start, end)`` per span."""
        return list(zip(self._ids, self._parents, self._names,
                        self._starts, self._ends))

    def snapshot(self) -> dict[str, tuple]:
        """Copy of the per-name totals."""
        return {name: tuple(total) for name, total in self.totals.items()}

    @staticmethod
    def delta(before: dict, after: dict) -> dict[str, tuple]:
        """Per-name ``(calls, inclusive s, self s)`` between snapshots."""
        out = {}
        for name, (calls, incl, self_s) in after.items():
            b_calls, b_incl, b_self = before.get(name, (0, 0.0, 0.0))
            if calls != b_calls:
                out[name] = (calls - b_calls, incl - b_incl, self_s - b_self)
        return out

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a traced wrapper until
        :meth:`restore`. Class attributes inherited from a base class
        are shadowed on ``owner`` and removed again on restore."""
        original = owner.__dict__.get(attr, _MISSING) if isinstance(
            owner, type
        ) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path, record: dict) -> None:
        """Write the spans and the run record as JSON."""
        payload = {
            "record": record,
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def install_layer_spans(tracer: Tracer, backend_class: type) -> None:
    """Patch every layer boundary the benchmark reports.

    ``backend_class`` is the class of the backend the program resolves
    by default; its kernel methods become ``backend.<method>`` spans.
    """
    for method in BACKEND_METHODS:
        if hasattr(backend_class, method):
            tracer.patch(backend_class, method, f"backend.{method}")
    for module_name, class_name, attr, name in LAYER_SITES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.patch(owner, attr, name)
