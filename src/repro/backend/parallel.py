"""The ``"threaded"`` kernel backend: shard element batches across cores.

The multi-CU co-simulation already proved the scaling recipe at the
hardware level: split the element stream into balanced shards
(:func:`repro.mesh.partition.partition_elements_balanced`), run the same
kernels on every shard, and reduce the scatter partials.
:class:`ThreadedBackend` applies the identical recipe to the host CPU —
the Sec. 4B "CPU baseline" side of the paper's comparison, and the
software analogue of the spectral-element batched sharding the FPGA
flow solvers use per compute unit. No pickling, no copies: every worker
thread runs the ``"fast"`` kernels on a contiguous slice of the input
arrays and writes into a disjoint slice of a shared output array. The
heavy kernels (the tensor-product GEMMs and metric contractions)
release the GIL inside BLAS, so threads scale on real cores.

Determinism contract (asserted by ``tests/backend/``): results are
**bitwise identical run-to-run** — shard boundaries depend only on
``(num_elements, num_workers)``, every shard computes exactly what the
``"fast"`` backend computes on that slice, and the scatter partials are
reduced in fixed shard order — and match the ``"reference"`` oracle to
<= 1e-12 relative on every kernel and on the full right-hand side.

Pool lifecycle:

- **lazy spawn** — no thread exists until the first kernel call that
  actually shards;
- **idempotent** :meth:`~ThreadedBackend.close` — safe to call
  repeatedly; the next kernel call respawns the pool;
- **fork-safety guard** — a backend that crosses a ``fork()`` (e.g.
  into a :func:`repro.dse.run_campaign` pool worker) detects the pid
  change, drops the inherited (dead) executor without touching the
  parent's, and lazily respawns its own pool in the child;
- ``num_workers == 1`` (e.g. ``REPRO_NUM_WORKERS=1``) **degenerates to
  the** ``"fast"`` **backend**: every call is delegated serially and no
  pool is ever spawned.

Worker count resolution: explicit ``num_workers`` argument >
``REPRO_NUM_WORKERS`` environment variable > the machine's CPU count
(:func:`repro.backend.registry.resolve_num_workers`).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import FEMError
from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from ..mesh.partition import partition_elements_balanced
from .base import KernelBackend
from .fast import FastBackend
from .registry import resolve_num_workers

#: The per-array connectivity shard cache is LRU-capped so streaming
#: co-simulation (a fresh block view per token) cannot grow memory
#: without bound.
_CONN_CACHE_LIMIT = 64


def element_shards(num_elements: int, num_workers: int) -> list[slice]:
    """Contiguous per-worker element ranges.

    The exact balanced split the multi-CU co-simulation uses
    (:func:`~repro.mesh.partition.partition_elements_balanced`); empty
    shards are dropped, so at most ``min(num_workers, num_elements)``
    slices come back. Shard boundaries depend only on the two arguments
    — the root of the backend's run-to-run determinism.
    """
    if num_elements <= 0:
        return []
    parts = partition_elements_balanced(
        num_elements, min(num_workers, num_elements)
    )
    return [slice(int(p[0]), int(p[-1]) + 1) for p in parts if p.size]


def _geom_slice(geom: ElementGeometry, sl: slice) -> ElementGeometry:
    """Element-range view of the metric terms (no copies)."""
    cached = geom._quad_scale
    return ElementGeometry(
        jacobian=geom.jacobian[sl],
        inverse_jacobian=geom.inverse_jacobian[sl],
        det_jacobian=geom.det_jacobian[sl],
        is_affine=geom.is_affine,
        _quad_scale=None if cached is None else cached[sl],
    )


def _scatter_partial(
    values: np.ndarray, conn_shard: np.ndarray, num_nodes: int, acc_dtype
) -> np.ndarray:
    """Partial scatter of one element shard, ``(num_nodes,)``.

    ``acc_dtype`` is the accumulation dtype of the owning backend's
    precision policy (always float64 for float64 inputs). Float64
    partials let the caller reduce in shard order and round to the input
    dtype exactly once — the "accumulate in f64, cast at the end"
    semantics of :func:`repro.fem.assembly.scatter_add`. Float32 partials
    (the device-faithful ``"float32"`` mode) sum with the unbuffered
    ``np.add.at`` in element order instead, so the reduction is still
    bitwise-deterministic, just in native precision.
    """
    acc = np.dtype(acc_dtype)
    if acc == np.float64:
        flat_val = np.ascontiguousarray(values, dtype=np.float64).ravel()
        return np.bincount(
            conn_shard.ravel(), weights=flat_val, minlength=num_nodes
        )
    part = np.zeros(num_nodes, dtype=acc)
    np.add.at(part, conn_shard, values)
    return part


def _apply_shard(
    local: FastBackend,
    kernel: str,
    sl: slice,
    row: int,
    inp: np.ndarray,
    out: np.ndarray,
    conn_shard: np.ndarray | None,
    geom: ElementGeometry | None,
    ref: ReferenceHex | None,
    num_nodes: int | None,
) -> None:
    """Run one kernel on shard ``row`` (elements ``sl``), writing ``out``.

    Elementwise kernels write the shard's disjoint slice of the full
    output; the scatter kernels write partial row ``row``, whose dtype
    (``out.dtype``, allocated from the precision policy) selects the
    accumulation precision.
    """
    if kernel == "gather":
        out[..., sl, :] = local.gather(inp, conn_shard)
    elif kernel == "reference_gradient":
        out[sl] = local.reference_gradient(inp[sl], ref)
    elif kernel == "physical_gradient":
        out[sl] = local.physical_gradient(inp[sl], _geom_slice(geom, sl), ref)
    elif kernel == "physical_gradient_many":
        out[:, sl] = local.physical_gradient_many(
            inp[:, sl], _geom_slice(geom, sl), ref
        )
    elif kernel == "weak_divergence":
        out[sl] = local.weak_divergence(inp[sl], _geom_slice(geom, sl), ref)
    elif kernel == "weak_divergence_many":
        out[:, sl] = local.weak_divergence_many(
            inp[:, sl], _geom_slice(geom, sl), ref
        )
    elif kernel == "scatter_add":
        out[row] = _scatter_partial(inp[sl], conn_shard, num_nodes, out.dtype)
    elif kernel == "scatter_add_many":
        for f_idx in range(inp.shape[0]):
            out[row, f_idx] = _scatter_partial(
                inp[f_idx, sl], conn_shard, num_nodes, out.dtype
            )
    else:  # pragma: no cover - internal protocol
        raise ValueError(f"unknown sharded kernel {kernel!r}")


class ThreadedBackend(KernelBackend):
    """Thread pool over element shards — no pickling, shared outputs.

    Every public kernel validates shapes on the calling thread
    (mirroring the ``"fast"`` checks), falls back to a private serial
    ``"fast"`` instance when only one shard would exist (``num_workers
    == 1`` or a 1-element input), and otherwise shards the element axis,
    runs :func:`_apply_shard` per shard on the pool, and reduces.

    Each shard index owns a private :class:`~repro.backend.fast.FastBackend`
    instance, so the reused einsum-path/workspace caches never race and
    stay warm across calls (shard shapes are stable for a given mesh).
    Output arrays are shared: every shard writes a disjoint slice.
    """

    name = "threaded"

    def __init__(self, num_workers: int | None = None, precision=None) -> None:
        super().__init__(precision)
        self.num_workers = resolve_num_workers(num_workers)
        self._serial = FastBackend(precision=self.precision)
        self._pool: ThreadPoolExecutor | None = None
        self._owner_pid: int | None = None
        self._locals: list[FastBackend] = []
        # Connectivity shard views cached per array identity so the fast
        # backend's fused-scatter-index cache hits across calls.
        self._conn_shards: OrderedDict[int, tuple] = OrderedDict()

    # -- lifecycle -----------------------------------------------------------

    @property
    def pool_active(self) -> bool:
        """Whether worker threads currently exist in this process."""
        return self._pool is not None and self._owner_pid == os.getpid()

    def close(self) -> None:
        """Shut the pool down; idempotent, and the next call respawns."""
        pool, self._pool = self._pool, None
        owner = self._owner_pid == os.getpid()
        self._owner_pid = None
        self._locals = []
        self._conn_shards.clear()
        if pool is not None and owner:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._owner_pid != os.getpid():
            # Never spawned, or inherited across a fork() (e.g. into a
            # run_campaign(workers=N) pool worker): threads do not
            # survive fork, so forget the dead executor and spawn anew.
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-backend",
            )
            self._locals = [
                FastBackend(precision=self.precision)
                for _ in range(self.num_workers)
            ]
            self._conn_shards.clear()
            self._owner_pid = os.getpid()
        return self._pool

    def _conn_shard(self, conn: np.ndarray, sl: slice) -> np.ndarray:
        key = id(conn)
        entry = self._conn_shards.get(key)
        if entry is None or entry[0] is not conn:
            entry = (conn, {})
            self._conn_shards[key] = entry
            while len(self._conn_shards) > _CONN_CACHE_LIMIT:
                self._conn_shards.popitem(last=False)
        views = entry[1]
        bounds = (sl.start, sl.stop)
        if bounds not in views:
            views[bounds] = conn[sl]
        return views[bounds]

    # -- sharding ------------------------------------------------------------

    def _shards(self, num_elements: int) -> list[slice] | None:
        """The element shards, or ``None`` when the call stays serial."""
        shards = element_shards(num_elements, self.num_workers)
        return shards if len(shards) > 1 else None

    def _run(
        self,
        kernel: str,
        shards: list[slice],
        inp: np.ndarray,
        out: np.ndarray,
        conn: np.ndarray | None = None,
        geom: ElementGeometry | None = None,
        ref: ReferenceHex | None = None,
        num_nodes: int | None = None,
    ) -> np.ndarray:
        """Run ``kernel`` on every shard in the pool, filling ``out``."""
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                _apply_shard,
                self._locals[row],
                kernel,
                sl,
                row,
                inp,
                out,
                None if conn is None else self._conn_shard(conn, sl),
                geom,
                ref,
                num_nodes,
            )
            for row, sl in enumerate(shards)
        ]
        for future in futures:
            future.result()
        return out

    def _scatter(
        self,
        kernel: str,
        shards: list[slice],
        values: np.ndarray,
        conn: np.ndarray,
        num_nodes: int,
        partial_shape: tuple[int, ...],
    ) -> np.ndarray:
        """Shard a scatter kernel and reduce its partials.

        Deterministic reduction: the per-shard partials are summed in
        fixed shard order in the policy's accumulate dtype, then rounded
        to the input dtype exactly once (a no-op when the two coincide).
        """
        partials = np.empty(
            (len(shards),) + partial_shape,
            dtype=self.accumulate_dtype(values.dtype),
        )
        self._run(
            kernel, shards, values, partials, conn=conn, num_nodes=num_nodes
        )
        total = partials[0].copy()
        for row in range(1, len(shards)):
            total += partials[row]
        return total.astype(values.dtype, copy=False)

    # -- the five kernels (plus batched forms) -------------------------------

    def gather(self, global_field: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
        global_field = np.asarray(global_field)
        if global_field.ndim not in (1, 2):
            raise FEMError(
                f"global_field must be 1D or 2D, got shape {global_field.shape}"
            )
        shards = self._shards(connectivity.shape[0])
        if shards is None:
            return self._serial.gather(global_field, connectivity)
        out = np.empty(
            global_field.shape[:-1] + connectivity.shape, dtype=global_field.dtype
        )
        return self._run("gather", shards, global_field, out, conn=connectivity)

    def scatter_add(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        element_values = np.asarray(element_values)
        if element_values.shape != connectivity.shape:
            raise FEMError(
                "element_values and connectivity shapes differ: "
                f"{element_values.shape} vs {connectivity.shape}"
            )
        shards = self._shards(connectivity.shape[0])
        if shards is None:
            return self._serial.scatter_add(
                element_values, connectivity, num_nodes
            )
        return self._scatter(
            "scatter_add",
            shards,
            element_values,
            connectivity,
            num_nodes,
            (num_nodes,),
        )

    def scatter_add_many(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        element_values = np.asarray(element_values)
        if element_values.ndim != 3:
            raise FEMError(
                f"element_values must be (F, E, Q), got {element_values.shape}"
            )
        if element_values.shape[1:] != connectivity.shape:
            raise FEMError(
                "element_values and connectivity shapes differ: "
                f"{element_values.shape[1:]} vs {connectivity.shape}"
            )
        shards = self._shards(connectivity.shape[0])
        if shards is None:
            return self._serial.scatter_add_many(
                element_values, connectivity, num_nodes
            )
        return self._scatter(
            "scatter_add_many",
            shards,
            element_values,
            connectivity,
            num_nodes,
            (element_values.shape[0], num_nodes),
        )

    def reference_gradient(self, field: np.ndarray, ref: ReferenceHex) -> np.ndarray:
        field = np.asarray(field)
        n1 = ref.n1
        if field.ndim != 2 or field.shape[1] != n1**3:
            raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
        shards = self._shards(field.shape[0])
        if shards is None:
            return self._serial.reference_gradient(field, ref)
        out = np.empty(
            (field.shape[0], 3, field.shape[1]), dtype=field.dtype
        )
        return self._run("reference_gradient", shards, field, out, ref=ref)

    def physical_gradient(
        self, field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        field = np.asarray(field)
        n1 = ref.n1
        if field.ndim != 2 or field.shape[1] != n1**3:
            raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
        shards = self._shards(field.shape[0])
        if shards is None:
            return self._serial.physical_gradient(field, geom, ref)
        out = np.empty(field.shape + (3,), dtype=field.dtype)
        return self._run(
            "physical_gradient", shards, field, out, geom=geom, ref=ref
        )

    def physical_gradient_many(
        self, fields: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        fields = np.asarray(fields)
        if fields.ndim != 3:
            raise FEMError(f"fields must be (F, E, Q), got {fields.shape}")
        shards = self._shards(fields.shape[1])
        if shards is None:
            return self._serial.physical_gradient_many(fields, geom, ref)
        out = np.empty(fields.shape + (3,), dtype=fields.dtype)
        return self._run(
            "physical_gradient_many", shards, fields, out, geom=geom, ref=ref
        )

    def weak_divergence(
        self, flux: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        flux = np.asarray(flux)
        n1 = ref.n1
        if flux.ndim != 3 or flux.shape[1:] != (n1**3, 3):
            raise FEMError(f"flux must be (E, {n1 ** 3}, 3), got {flux.shape}")
        shards = self._shards(flux.shape[0])
        if shards is None:
            return self._serial.weak_divergence(flux, geom, ref)
        out = np.empty(flux.shape[:-1], dtype=flux.dtype)
        return self._run(
            "weak_divergence", shards, flux, out, geom=geom, ref=ref
        )

    def weak_divergence_many(
        self, fluxes: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        fluxes = np.asarray(fluxes)
        n1 = ref.n1
        if fluxes.ndim != 4 or fluxes.shape[2:] != (n1**3, 3):
            raise FEMError(
                f"fluxes must be (F, E, {n1 ** 3}, 3), got {fluxes.shape}"
            )
        shards = self._shards(fluxes.shape[1])
        if shards is None:
            return self._serial.weak_divergence_many(fluxes, geom, ref)
        out = np.empty(fluxes.shape[:-1], dtype=fluxes.dtype)
        return self._run(
            "weak_divergence_many", shards, fluxes, out, geom=geom, ref=ref
        )
