"""Machine-speed calibration for the benchmark's timings.

Small shared machines change speed for seconds at a time (other tenants
on the same cores and caches): the same solver step takes 0.10 s in one
stretch and 0.16 s in the next. :func:`calibration_seconds` times a fixed
numpy kernel shaped like the solver's hot loop — gather by connectivity,
a small tensor contraction, pointwise flux math, scatter by
``bincount`` — that never touches the program. The runner times it
between operations and scales each operation's wall time by
``REFERENCE_SECONDS / calibration``, the calibration averaged over the
two runs either side of the operation. A program change moves the
operation and not the calibration, so it still shows in full; a machine
slowdown moves both and cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: The calibration time that defines the reference speed. On the baseline
#: machine (2-core Intel Xeon at 2.1 GHz) the calibration usually takes
#: about 3 ms between operations, so scaled times read about 1.3x the
#: wall times there.
REFERENCE_SECONDS = 0.004

_NODES = 13824
_rng = np.random.default_rng(20250101)
_FIELD = _rng.standard_normal((5, _NODES))
_CONNECTIVITY = _rng.integers(0, _NODES, size=(512, 64))
_FLAT = _CONNECTIVITY.ravel()
_OPERATOR = _rng.standard_normal((4, 4))


def _kernel() -> float:
    local = _FIELD[:, _CONNECTIVITY].reshape(5 * 512, 4, 16)
    derivative = np.einsum("ai,eib->eab", _OPERATOR, local)
    flux = derivative * derivative + np.sqrt(np.abs(local))
    total = 0.0
    for row in flux.reshape(5, -1):
        total += float(np.bincount(_FLAT, weights=row, minlength=_NODES)[0])
    return total


def calibration_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed passes of the calibration kernel.

    Taking the fastest pass drops one-off costs the preceding operation
    leaves behind (page faults on memory a forked worker shared, evicted
    caches), so the calibration follows the machine, not the program.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
