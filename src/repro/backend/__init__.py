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

Neither shards work across host threads: the paper's CPU baseline is
single-threaded, and the accelerator's element-level parallelism is
modelled by the co-simulator's multi-CU sharding (:mod:`repro.accel`).

Selection precedence: explicit argument > ``REPRO_BACKEND`` environment
variable > ``"fast"``. Every backend is dtype-preserving and takes a
``precision`` policy (explicit argument > ``REPRO_DTYPE`` >
``"float64"``, see :mod:`repro.precision`) that picks the scatter-add
accumulation dtype for float32 streams. See
ARCHITECTURE.md for how to register a third-party backend.
"""

from .base import KernelBackend
from .fast import FastBackend
from .reference import ReferenceBackend
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    add_backend_argument,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)

register_backend("reference", ReferenceBackend)
register_backend("fast", FastBackend)

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "FastBackend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "add_backend_argument",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]
