"""Pluggable compute backends for the FEM hot path.

The solver's five hot kernels (Fig. 1 of the paper: gather, scatter-add,
reference gradient, physical gradient, weak divergence) are expressed
once behind the :class:`KernelBackend` protocol and can be retargeted to
different execution substrates — the software mirror of the paper's
claim that the FEM dataflow, once made explicit, ports across backends.

Built-in backends:

- ``"reference"`` — the original numpy kernels, bit-identical to the
  pre-backend code path; the correctness oracle.
- ``"fast"`` — the default: cached einsum contraction paths,
  preallocated workspaces, and truly batched many-field kernels;
  validated against ``"reference"`` to 1e-10 relative error by the
  parity suite.
- ``"threaded"`` — a thread pool that shards element batches across
  cores (the multi-CU partitioning applied to host threads), running
  the ``"fast"`` kernels per shard with shared, copy-free outputs and a
  deterministic fixed-order scatter reduction.

Selection precedence: explicit argument > ``REPRO_BACKEND`` environment
variable > ``"fast"``. Parallel worker counts: explicit
``num_workers`` > ``REPRO_NUM_WORKERS`` > CPU count. Every backend is
dtype-preserving and takes a ``precision`` policy (explicit argument >
``REPRO_DTYPE`` > ``"float64"``, see :mod:`repro.precision`) that picks
the scatter-add accumulation dtype for float32 streams. See
ARCHITECTURE.md for how to register a third-party backend.
"""

from .base import KernelBackend
from .fast import FastBackend
from .parallel import ThreadedBackend
from .reference import ReferenceBackend
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    WORKERS_ENV_VAR,
    add_backend_argument,
    add_num_workers_argument,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
    resolve_num_workers,
)

register_backend("reference", ReferenceBackend)
register_backend("fast", FastBackend)
register_backend("threaded", ThreadedBackend)

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "FastBackend",
    "ThreadedBackend",
    "BACKEND_ENV_VAR",
    "WORKERS_ENV_VAR",
    "DEFAULT_BACKEND",
    "add_backend_argument",
    "add_num_workers_argument",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "resolve_num_workers",
]
