"""Reusable per-stage workspaces for the pointwise physics kernels.

Every RK stage recomputes the same flux temporaries — the momentum
outer product, the symmetrized velocity gradient, the stress tensor —
at the same shapes, and under the streaming co-simulation the same
shapes recur once per block token per stage per step. Allocating them
fresh each call costs a page-faulting ``malloc`` per temporary in the
hottest loop of the solver. A :class:`WorkspacePool` keeps one buffer
per ``(tag, shape, dtype)`` and the kernels fill it in place.

Pooling is *results-neutral by construction*: callers write each
buffer completely before reading it, so outputs are bitwise identical
whether the pool is warm or fresh (a caller without a pool gets a
throwaway one) — the pool only removes the allocator from the loop.
The contract that makes reuse safe is that pooled buffers never
outlive the kernel call that filled them: anything a kernel *returns*
(a payload that travels the dataflow graph) is freshly allocated, so
two chains interleaved under one simulator clock can never clobber
each other's in-flight tokens.

Buffers are keyed per thread, so one pool object may be shared by every
block view of a :class:`~repro.pipeline.kernels.PipelineContext` even
when a campaign executor runs contexts from worker threads.
"""

from __future__ import annotations

import threading

import numpy as np


class WorkspacePool:
    """Preallocated scratch buffers keyed by ``(tag, shape, dtype)``.

    ``tag`` names the temporary (distinct tags for temporaries that are
    live at the same time); the shape/dtype key makes one pool serve
    every block size and precision mode a run streams.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable buffer of the given shape/dtype (contents stale).

        The caller must overwrite the buffer completely before reading
        it — contents are whatever the previous use left behind.
        """
        key = (threading.get_ident(), tag, shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        else:
            self.hits += 1
        return buf

    def zeros(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """Like :meth:`get` but zero-filled on every call."""
        buf = self.get(tag, shape, dtype)
        buf.fill(0)
        return buf

    def clear(self) -> None:
        """Drop every buffer and zero the hit/miss counters."""
        self._buffers.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._buffers)
