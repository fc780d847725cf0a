"""The RK update (RKU) as a second operator-pipeline instance.

The paper's accelerator runs a *complete* RK time step on the device:
RKL — the FEM spatial operator — streams elements, and RKU — the
Runge-Kutta update on SLR1 — streams *nodes*, combining the stage
derivatives (axpy) and re-deriving the primitive set ``rho, u, T, E, p``.
This module pins the RKU half down as IR, exactly the way
:mod:`repro.pipeline.navier_stokes` pins down RKL:

- :func:`rk_update_pipeline` builds the node pipeline
  LOAD state/derivs -> stage-combination axpy [-> primitive update] ->
  STORE;
- the kernels registered here (``stage_axpy``, ``update_primitives``,
  the node load/stores) are the callable stage bodies, shape-polymorphic
  over the node axis so the same kernel serves the solver's whole-mesh
  execution and the co-simulator's node-block streaming;
- :func:`rk_update_streaming_actions` is the streaming lowering — one
  node block per simulated token through the LOAD -> COMPUTE -> STORE
  task chain (:data:`RK_UPDATE_TASK_NAMES`).

One IR instance serves the same three consumers as the RKL pipeline:
:meth:`Simulation.step <repro.solver.simulation.Simulation.step>`
executes it functionally via
:func:`~repro.pipeline.executor.run_pipeline`,
:func:`repro.accel.cosim.cosimulate_rk_stage` streams it
cycle-accurately chained after the RKL element stream, and
:mod:`repro.solver.workload` derives the RKU op counts from its stages
(:func:`repro.pipeline.opcounts.stage_op_count`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from ..errors import PipelineError
from ..physics.gas import GasProperties
from ..physics.state import NUM_CONSERVED
from ..precision.modes import FLOAT64_POLICY, PrecisionPolicy
from .executor import _run_stage, role_group_exports
from .ir import OperatorPipeline, PayloadSpec, Stage
from .kernels import register_pipeline_kernel

#: Default task names of the lowered RKU node chain (the names the
#: full-step co-simulation and its reports know).
RK_UPDATE_TASK_NAMES: Mapping[str, str] = {
    "load": "load_node_state",
    "compute": "update_node",
    "store": "store_node_state",
}

#: Row order of the ``primitives`` payload: the quantities the paper's
#: RKU kernel writes back each step (3 velocity components, T, p; rho
#: and E live in the conservative state itself).
PRIMITIVE_ROWS = ("u", "v", "w", "T", "p")


@dataclass
class RKUpdateContext:
    """Bound execution context of the RK-update pipeline.

    Unlike the element pipeline's
    :class:`~repro.pipeline.kernels.PipelineContext`, the node stream
    needs no mesh wiring — only the gas model (for the primitive update).
    Every kernel allocates its outputs, for the solver's whole-mesh
    execution and the per-block streaming path alike.
    """

    gas: GasProperties
    num_nodes: int
    #: Precision policy governing the dtype of the accumulation arrays
    #: the axpy kernel allocates — the node-stream analogue of the
    #: backends' scatter-add policy.
    precision: PrecisionPolicy = FLOAT64_POLICY


# ---------------------------------------------------------------------------
# The registered node-stream kernels
# ---------------------------------------------------------------------------


@register_pipeline_kernel("load_node_state")
def _load_node_state(ctx: RKUpdateContext, stage: Stage, state: np.ndarray):
    """LOAD-node: the ``(5, B)`` conservative state of the node block.

    The node stream is a contiguous burst read (no connectivity
    indirection), so the kernel is a pass-through; blocking happens in
    the streaming actions.
    """
    return (state,)


@register_pipeline_kernel("load_node_derivs")
def _load_node_derivs(ctx: RKUpdateContext, stage: Stage, derivs):
    """LOAD-node: the stage derivatives (sequence of ``(5, B)`` arrays)."""
    return (derivs,)


@register_pipeline_kernel("stage_axpy")
def _stage_axpy(
    ctx: RKUpdateContext,
    stage: Stage,
    state: np.ndarray,
    derivs,
    coeffs,
    dt,
):
    """RK stage combination ``state + dt * sum_k coeffs[k] * derivs[k]``.

    Zero coefficients are skipped; when every coefficient is zero the
    input state passes through untouched (the identity stage
    combination). The accumulation runs in the policy's accumulation
    dtype; the result comes back in the state's dtype.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    acc_dtype = ctx.precision.accumulate_for(np.asarray(state).dtype)
    scratch = None
    first = True
    for deriv, coeff in zip(derivs, coeffs):
        c = float(coeff)
        if c == 0.0:
            continue
        if first:
            acc = np.empty(state.shape, dtype=acc_dtype)
            np.multiply(deriv, c, out=acc)
            first = False
        else:
            if scratch is None:
                scratch = np.empty(state.shape, dtype=acc_dtype)
            np.multiply(deriv, c, out=scratch)
            acc += scratch
    if first:
        return (state,)
    out = np.empty_like(state)
    np.multiply(acc, float(dt), out=out)
    out += state
    return (out,)


@register_pipeline_kernel("update_primitives")
def _update_primitives(ctx: RKUpdateContext, stage: Stage, combined: np.ndarray):
    """The RKU primitive update: ``u, T, p`` from the combined state.

    One ``(5, B)`` array ordered as :data:`PRIMITIVE_ROWS` — exactly the
    quantities the paper's five RKU update loops write back (``rho`` and
    ``E`` are rows 0 and 4 of the conservative state the store stage
    already writes).
    """
    rho = combined[0]
    momentum = combined[1:4]
    total_energy = combined[4]
    out = np.empty_like(combined)
    velocity = out[0:3]
    np.divide(momentum, rho[None], out=velocity)
    kinetic = 0.5 * np.sum(momentum * velocity, axis=0)
    internal = total_energy - kinetic
    np.divide(internal, rho * ctx.gas.cv, out=out[3])
    np.multiply(internal, ctx.gas.gamma - 1.0, out=out[4])
    return (out,)


def _store(ctx: RKUpdateContext, stage: Stage, value: np.ndarray):
    """STORE-node: stream the block back (a pass-through; the streaming
    actions write the block into the caller's output arrays)."""
    return (value,)


register_pipeline_kernel("store_node_state")(_store)
register_pipeline_kernel("store_node_primitives")(_store)


# ---------------------------------------------------------------------------
# The pipeline instances
# ---------------------------------------------------------------------------


def _build(primitives: bool, num_terms: int) -> OperatorPipeline:
    variant = "step" if primitives else "combine"
    p = OperatorPipeline(name=f"rk-update[{variant}]")
    for spec in (
        PayloadSpec(
            "state", ("F", "N"), "stacked conservative state",
            dtype="storage",
        ),
        PayloadSpec(
            "derivs", ("K", "F", "N"), "finalized stage derivatives",
            dtype="storage",
        ),
        PayloadSpec("coeffs", ("K",), "tableau row of stage weights"),
        PayloadSpec("dt", (), "time-step size"),
        PayloadSpec("node_state", ("F", "N"), dtype="storage"),
        PayloadSpec("node_derivs", ("K", "F", "N"), dtype="storage"),
        PayloadSpec(
            "combined", ("F", "N"), "stage-combined state", dtype="storage"
        ),
        PayloadSpec("updated_state", ("F", "N"), dtype="storage"),
    ):
        p.declare_payload(spec)
    p.add_stage(
        Stage(
            "load_state",
            role="load",
            kernel="load_node_state",
            inputs=("state",),
            outputs=("node_state",),
            phase="rk.update",
        )
    )
    p.add_stage(
        Stage(
            "load_derivs",
            role="load",
            kernel="load_node_derivs",
            inputs=("derivs",),
            outputs=("node_derivs",),
            phase="rk.update",
            params={"num_terms": num_terms},
        )
    )
    p.add_stage(
        Stage(
            "stage_axpy",
            role="compute",
            kernel="stage_axpy",
            inputs=("node_state", "node_derivs", "coeffs", "dt"),
            outputs=("combined",),
            phase="rk.update",
            params={"num_terms": num_terms},
        )
    )
    if primitives:
        p.declare_payload(
            PayloadSpec(
                "primitives", (5, "N"), "u, v, w, T, p per node",
                dtype="storage",
            )
        )
        p.declare_payload(
            PayloadSpec("stored_primitives", (5, "N"), dtype="storage")
        )
        p.add_stage(
            Stage(
                "update_primitives",
                role="compute",
                kernel="update_primitives",
                inputs=("combined",),
                outputs=("primitives",),
                phase="rk.update",
            )
        )
        p.add_stage(
            Stage(
                "store_primitives",
                role="store",
                kernel="store_node_primitives",
                inputs=("primitives",),
                outputs=("stored_primitives",),
                phase="rk.update",
            )
        )
    p.add_stage(
        Stage(
            "store_state",
            role="store",
            kernel="store_node_state",
            inputs=("combined",),
            outputs=("updated_state",),
            phase="rk.update",
        )
    )
    p.validate()
    return p


@lru_cache(maxsize=None)
def _cached(primitives: bool, num_terms: int) -> OperatorPipeline:
    if num_terms < 1:
        raise PipelineError(f"num_terms must be >= 1, got {num_terms}")
    return _build(primitives, num_terms)


def rk_update_pipeline(
    primitives: bool = True, num_terms: int = 1
) -> OperatorPipeline:
    """The RK-update pipeline instance.

    Parameters
    ----------
    primitives:
        ``True`` builds the full step update — stage combination plus
        the RKU primitive update ``rho, u, T, E, p`` (the per-step
        variant). ``False`` builds the combination-only variant the
        intermediate RK stages run (``rk-update[combine]``).
    num_terms:
        Number of derivative terms in the combination (an op-count hint
        carried in the ``stage_axpy``/``load_derivs`` params — the
        executed term count is whatever ``coeffs`` binds at run time).

    Returns
    -------
    OperatorPipeline
        External payloads ``state``, ``derivs``, ``coeffs``, ``dt``;
        outputs ``updated_state`` (and ``stored_primitives``).
        Construction is cached but every call returns its own shallow
        copy, so callers may rewrite their instance freely.

    Raises
    ------
    PipelineError
        If ``num_terms < 1``.
    """
    cached = _cached(bool(primitives), int(num_terms))
    return OperatorPipeline(
        name=cached.name,
        stages=list(cached.stages),
        payloads=dict(cached.payloads),
    )


# ---------------------------------------------------------------------------
# Streaming (one node block per pipeline iteration) for co-simulation
# ---------------------------------------------------------------------------


def node_blocks(num_nodes: int, block_size: int) -> list[np.ndarray]:
    """Contiguous node-index blocks — the RKU stream's tokens.

    The final block may be short when ``block_size`` does not divide
    ``num_nodes``. Raises :class:`~repro.errors.PipelineError` on a
    non-positive size.
    """
    if block_size < 1:
        raise PipelineError(f"node block size must be >= 1, got {block_size}")
    return [
        np.arange(start, min(start + block_size, num_nodes), dtype=np.int64)
        for start in range(0, num_nodes, block_size)
    ]


def rk_update_streaming_actions(
    pipeline: OperatorPipeline,
    ctx: RKUpdateContext,
    state: np.ndarray,
    derivs: Sequence[np.ndarray],
    coeffs,
    dt: float,
    out_state: np.ndarray,
    out_primitives: np.ndarray | None = None,
    blocks: Sequence[np.ndarray] | None = None,
    prepare: Callable[[], None] | None = None,
) -> dict[str, Callable[[int, tuple], object]]:
    """Payload-carrying task actions for the RKU node stream.

    Parameters
    ----------
    pipeline / ctx:
        An :func:`rk_update_pipeline` instance and its bound context.
    state:
        Global stacked state ``(5, N)`` the combination reads. The array
        is read *per block at task start*, so an upstream producer
        sequenced before this chain (via
        :attr:`~repro.dataflow.task.Task.depends_on`) may fill it during
        the same simulation.
    derivs:
        The finalized stage derivatives, each ``(5, N)``; like ``state``
        they are read lazily per block.
    coeffs / dt:
        The tableau row and step size of this combination.
    out_state:
        ``(5, N)`` array the STORE group writes the combined state into.
    out_primitives:
        ``(5, N)`` array for the primitive rows (required when the
        pipeline carries the primitive update).
    blocks:
        Node-index blocks, one per simulator iteration (defaults to
        single-node tokens; see :func:`node_blocks`). Token ``i``
        carries block ``i``.
    prepare:
        Optional callback invoked once, at the first LOAD action —
        the hook the chained full-step co-simulation uses to finalize
        the upstream RKL accumulators (mass inversion, wall conditions)
        at the simulated instant the RKU kernel launches.

    Returns
    -------
    dict[str, Action]
        One action per role group for
        :meth:`~repro.pipeline.ir.OperatorPipeline.to_task_graph`. As
        with :func:`~repro.pipeline.executor.streaming_actions`, every
        action carries a ``batch`` attribute executing all its tokens
        (the concatenation of the node blocks) in one numpy call for
        the vectorized schedule engine; ``prepare`` still runs first,
        at the batched LOAD — after the upstream chains the schedule
        sequenced it behind.

    Raises
    ------
    PipelineError
        If the role grouping is not a legal task chain, or a store
        stage has no output array to write to.
    """
    # Dtype-preserving: the node stream runs in the state's dtype so the
    # float32 precision modes stream exactly what the device would.
    state = np.asarray(state)
    derivs = [np.asarray(deriv) for deriv in derivs]
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if blocks is None:
        blocks = node_blocks(ctx.num_nodes, 1)
    else:
        blocks = [np.asarray(block, dtype=np.int64) for block in blocks]
    targets = {
        "store_node_state": out_state,
        "store_node_primitives": out_primitives,
    }

    # The batched form concatenates the same block prefix for every role
    # group — share it per token count, and remember when it covers the
    # whole node range in order (the streaming default) so groups that
    # do not export node slices can use one basic slice instead of a
    # fancy-index pass. The LOAD group always slices through the index
    # array: its pass-through exports are payloads and must stay fresh
    # copies, never views of the caller's arrays.
    batch_block_cache: dict[int, tuple[np.ndarray, bool]] = {}

    def batch_block(count: int) -> tuple[np.ndarray, bool]:
        if count not in batch_block_cache:
            block = np.concatenate(blocks[:count])
            identity = block.size == state.shape[1] and np.array_equal(
                block, np.arange(block.size)
            )
            batch_block_cache[count] = (block, bool(identity))
        return batch_block_cache[count]

    def run_group(block, stages, exported, role, inputs, needed, first):
        """Execute one role group on ``block`` (a token's nodes or the
        concatenation of all tokens); dict of exports."""
        if role == "load" and first and prepare is not None:
            prepare()
        # Only the slices this group's stages actually read are
        # materialized — downstream groups receive the loaded node
        # payloads through the simulated buffers, not from here.
        env: dict[str, object] = {"coeffs": coeffs, "dt": dt}
        if "state" in needed:
            env["state"] = state[:, block]
        if "derivs" in needed:
            env["derivs"] = [deriv[:, block] for deriv in derivs]
        for payload in inputs:
            env.update(payload)
        if role == "store":
            for stage in stages:
                target = targets.get(stage.kernel)
                if target is None:
                    raise PipelineError(
                        f"stage {stage.name!r}: no output array for "
                        f"kernel {stage.kernel!r}"
                    )
                target[:, block] = env[stage.inputs[0]]
            return None
        for stage in stages:
            _run_stage(ctx, stage, env)
        return {name: env[name] for name in exported}

    actions: dict[str, Callable[[int, tuple], object]] = {}
    for role, stages, exported in role_group_exports(pipeline):
        needed = frozenset(
            name for stage in stages for name in stage.inputs
        )

        def action(
            iteration: int,
            inputs: tuple,
            stages=stages,
            exported=exported,
            role=role,
            needed=needed,
        ):
            return run_group(
                blocks[iteration], stages, exported, role, inputs, needed,
                first=iteration == 0,
            )

        def batch(
            count: int,
            inputs: tuple,
            stages=stages,
            exported=exported,
            role=role,
            needed=needed,
        ):
            block, identity = batch_block(count)
            if identity and role != "load":
                block = slice(None)
            result = run_group(
                block, stages, exported, role, inputs, needed, first=True
            )
            if role == "store":
                return [None] * count  # per-token sink values
            return result

        action.batch = batch
        actions[role] = action
    return actions
