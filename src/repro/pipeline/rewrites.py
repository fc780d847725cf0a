"""Graph rewrites over the operator pipeline IR.

The solver's fusion levels are produced by rewriting the base two-pass
pipeline, never by separate hand-written residual code paths:

- :func:`share_loads` — merge identical LOAD stages into one shared
  gather (``fusion="gather"``);
- :func:`fuse_flux_divergence` — merge parallel flux->divergence->store
  branches into combined-flux -> single divergence -> single store
  (``fusion="full"``, the accelerator's merged COMPUTE module).

Rewrites are pure: they return a new :class:`OperatorPipeline` and leave
the input untouched (pipeline instances are cached and shared).
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import PipelineError
from .ir import OperatorPipeline, PayloadSpec, Stage

#: Flux-kernel pairs that fuse, and the combined kernel replacing them.
#: ``combined_flux`` computes one primitive conversion feeding both flux
#: families, so fusing is arithmetic sharing, not just graph surgery.
#: Contract for registering a pair here: the combined kernel must emit a
#: *full conserved-set, left-hand-side* net flux (lowered with
#: ``sign=-1, field_start=0``), folding each branch's own sign and field
#: range into its arithmetic — as ``combined_flux`` does via
#: ``combined_rhs_fluxes`` (``F_c - F_v``).
FUSABLE_FLUX_KERNELS: dict[frozenset[str], str] = {
    frozenset({"convective_flux", "viscous_flux"}): "combined_flux",
}


def _copy(pipeline: OperatorPipeline, name: str) -> OperatorPipeline:
    out = OperatorPipeline(name=name)
    out.payloads = dict(pipeline.payloads)
    out.stages = list(pipeline.stages)
    return out


def share_loads(
    pipeline: OperatorPipeline,
    shared_name: str = "load_state",
    shared_payload: str = "elem_state",
    phase: str = "rk.other",
) -> OperatorPipeline:
    """Merge LOAD stages with identical kernel+inputs into one.

    Parameters
    ----------
    pipeline:
        Pipeline to rewrite (left untouched; a copy is returned).
    shared_name / shared_payload:
        Name of the merged LOAD stage and of the single gathered-state
        payload it produces.
    phase:
        Profiler phase of the shared gather — defaults to ``rk.other``
        because its cost can no longer be attributed to either paper
        phase (Fig. 2).

    Returns
    -------
    OperatorPipeline
        The rewritten pipeline (an unchanged copy when there are fewer
        than two LOAD stages).

    Raises
    ------
    PipelineError
        If the LOAD stages differ in kernel, inputs, or params — a
        shared gather would change semantics.
    """
    loads = [s for s in pipeline.stages if s.role == "load"]
    if len(loads) < 2:
        return _copy(pipeline, pipeline.name)
    signature = {(s.kernel, s.inputs, tuple(sorted(s.params.items()))) for s in loads}
    if len(signature) != 1:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: load stages differ; cannot share"
        )
    first = loads[0]
    merged = Stage(
        shared_name,
        role="load",
        kernel=first.kernel,
        inputs=first.inputs,
        outputs=(shared_payload,),
        phase=phase,
        params=dict(first.params),
    )
    replaced_payloads = {out for s in loads for out in s.outputs}
    out = OperatorPipeline(name=f"{pipeline.name}+shared-load")
    out.payloads = {
        name: spec
        for name, spec in pipeline.payloads.items()
        if name not in replaced_payloads
    }
    sample = next(
        (pipeline.payloads[p] for p in replaced_payloads if p in pipeline.payloads),
        None,
    )
    out.declare_payload(
        PayloadSpec(
            shared_payload,
            sample.shape if sample else ("F", "E", "Q"),
            "shared gathered element state",
            dtype=sample.dtype if sample else "storage",
        )
    )
    out.add_stage(merged)
    for stage in pipeline.stages:
        if stage in loads:
            continue
        inputs = tuple(
            shared_payload if name in replaced_payloads else name
            for name in stage.inputs
        )
        out.add_stage(replace(stage, inputs=inputs))
    out.validate()
    return out


def fuse_flux_divergence(
    pipeline: OperatorPipeline, phase: str = "rk.fused"
) -> OperatorPipeline:
    """Fuse parallel flux branches into one combined pass.

    Requires the pipeline to already share its gather (one element-state
    payload feeding every flux stage). The matched flux stages are
    replaced by their registered combined kernel; the per-branch weak
    divergences collapse to a single full-field divergence and the
    per-branch stores to one store — 5 weak divergences instead of 9,
    one scatter instead of two, exactly the accelerator's merged module.
    Linearity of the weak divergence makes the result the exact sum of
    the separate branches (up to rounding).

    Parameters
    ----------
    pipeline:
        Pipeline to rewrite (left untouched; a copy is returned).
    phase:
        Profiler phase the fused stages are attributed to.

    Returns
    -------
    OperatorPipeline
        The fused pipeline (LOAD -> combined flux -> divergence ->
        store).

    Raises
    ------
    PipelineError
        If no combined kernel is registered for the pipeline's flux
        stages, the branches read different payloads (gather not
        shared), or there is nothing to fuse.
    """
    flux_stages = [
        s
        for s in pipeline.stages
        if s.role == "compute" and not s.kernel == "weak_divergence"
    ]
    kernels = frozenset(s.kernel for s in flux_stages)
    combined_kernel = FUSABLE_FLUX_KERNELS.get(kernels)
    if combined_kernel is None:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: no combined kernel registered for "
            f"flux stages {sorted(kernels)}"
        )
    sources = {s.inputs for s in flux_stages}
    if len(sources) != 1:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: flux branches read different "
            "payloads; share the gather before fusing"
        )
    (shared_inputs,) = sources
    div_stages = [s for s in pipeline.stages if s.kernel == "weak_divergence"]
    store_stages = [s for s in pipeline.stages if s.role == "store"]
    if not div_stages or not store_stages:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: nothing to fuse (missing "
            "divergence or store stages)"
        )

    out = OperatorPipeline(name=f"{pipeline.name}+fused-compute")
    load_stages = [s for s in pipeline.stages if s.role == "load"]
    out.payloads = {
        name: spec
        for name, spec in pipeline.payloads.items()
        if pipeline.producer_of(name) is None
        or pipeline.producer_of(name) in load_stages
    }
    for spec in (
        PayloadSpec(
            "net_flux", ("F", "E", "Q", 3), "combined F_c - F_v",
            dtype="storage",
        ),
        PayloadSpec("res_total", ("F", "E", "Q"), dtype="storage"),
        PayloadSpec("assembled_total", ("F", "N"), dtype="accumulate"),
    ):
        out.declare_payload(spec)
    for stage in load_stages:
        out.add_stage(replace(stage, phase=phase))
    out.add_stage(
        Stage(
            "combined_flux",
            role="compute",
            kernel=combined_kernel,
            inputs=shared_inputs,
            outputs=("net_flux",),
            phase=phase,
            params={"num_fields": 5},
        )
    )
    out.add_stage(
        Stage(
            "divergence",
            role="compute",
            kernel="weak_divergence",
            inputs=("net_flux",),
            outputs=("res_total",),
            phase=phase,
            params={"sign": -1.0, "field_start": 0, "num_fields": 5},
        )
    )
    out.add_stage(
        Stage(
            "store",
            role="store",
            kernel="scatter_add",
            inputs=("res_total",),
            outputs=("assembled_total",),
            phase=phase,
            params={"field_start": 0, "num_fields": 5},
        )
    )
    out.validate()
    return out
