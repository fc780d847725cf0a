"""Deterministic fault injection behind production-code seams.

Every recovery path in the execution stack — dead-worker respawn, batch
retry, hang deadlines, poisoned-message quarantine, corrupted-cache
recompute — must be exercised by *injected* faults, not by luck. This
module is the one injector all the seams share:

- a :class:`FaultSpec` names a **site** (a string a production seam
  passes to :func:`trip`), a **kind** (crash / hang / poison / error /
  disk-full / truncate), the **contexts** it fires at (e.g. batch
  indices), and how many **times** it may fire in total;
- a :class:`FaultPlan` bundles specs and is installed process-globally
  (:func:`install_faults` / the :func:`injected_faults` context
  manager). Fork-started pool workers inherit the installed plan, and
  each spec's remaining-fire budget lives in shared memory
  (:class:`multiprocessing.Value`), so "crash exactly once" means once
  across the whole worker fleet — the retried batch then succeeds;
- :func:`trip` is the seam: a no-op (one global ``None`` check) when no
  plan is installed, so production paths pay nothing.

Determinism: which invocation faults is fixed by the spec's ``at``
contexts (or by :func:`seeded_contexts`, which derives them from a
seed), and the shared budget makes the firing count exact regardless of
scheduling. Nothing here depends on wall clock or process timing.

Kinds and their central behavior inside :func:`trip`:

``"crash"``
    ``os._exit(spec.exit_code)`` — an abrupt worker death (no cleanup,
    no exception propagation; the SIGKILL-equivalent a supervisor must
    detect from the outside).
``"hang"``
    ``time.sleep(spec.hang_seconds)`` — a wedged worker only a deadline
    can unstick.
``"error"``
    raises :class:`InjectedFault` — a deterministic in-band exception
    (quarantine material, not retry material).
``"disk-full"``
    raises ``OSError(ENOSPC)`` — a failed cache write.
``"poison"`` / ``"truncate"``
    return the spec to the caller: the seam itself knows how to send a
    garbage pipe message or publish a truncated payload.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass, field

#: Everything a :class:`FaultSpec` can do.
FAULT_KINDS = ("crash", "hang", "poison", "error", "disk-full", "truncate")

#: Kinds whose behavior :func:`trip` executes centrally; the rest are
#: returned to the calling seam for site-specific handling.
_CENTRAL_KINDS = ("crash", "hang", "error", "disk-full")


class InjectedFault(RuntimeError):
    """The in-band exception raised by an ``"error"`` fault."""


def seeded_contexts(seed: int, population: int, count: int) -> tuple[int, ...]:
    """``count`` distinct context indices in ``[0, population)``, chosen
    deterministically from ``seed`` — the seed-driven way to place
    faults across a sweep without hand-picking batch numbers."""
    if count > population:
        raise ValueError(
            f"cannot pick {count} contexts from a population of {population}"
        )
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(range(population), count)))


@dataclass(eq=False)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    site:
        The seam name this spec listens on (e.g. ``"dse.worker"``).
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Context values the spec fires at; empty means *any* context.
    times:
        Total firings allowed, shared across every process that
        inherited the plan (``times <= 0`` means unlimited).
    hang_seconds:
        Sleep length of a ``"hang"`` fault.
    exit_code:
        Exit status of a ``"crash"`` fault.
    """

    site: str
    kind: str
    at: tuple = ()
    times: int = 1
    hang_seconds: float = 30.0
    exit_code: int = 17
    #: Shared remaining-fire budget (created lazily, fork-inherited).
    _remaining: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )
        self.at = tuple(self.at)
        if self._remaining is None and self.times > 0:
            import multiprocessing

            self._remaining = multiprocessing.Value("i", int(self.times))

    # -- firing --------------------------------------------------------------

    def matches(self, site: str, context) -> bool:
        if site != self.site:
            return False
        return not self.at or context in self.at

    def claim(self) -> bool:
        """Atomically reserve one firing; ``False`` when exhausted.

        The budget lives in shared memory, so a fork-started worker
        fleet collectively honors ``times`` — the whole point of
        "crash exactly once, then let the retry succeed"."""
        if self.times <= 0:
            return True
        counter = self._remaining
        with counter.get_lock():
            if counter.value <= 0:
                return False
            counter.value -= 1
        return True

    @property
    def fired(self) -> int:
        """How many times this spec has fired so far (all processes)."""
        if self.times <= 0:
            return 0
        return self.times - self._remaining.value

    def execute(self):
        """Perform the fault's central behavior; returns ``self`` for
        seam-handled kinds (poison / truncate)."""
        if self.kind == "crash":
            os._exit(self.exit_code)
        if self.kind == "hang":
            time.sleep(self.hang_seconds)
            return None
        if self.kind == "error":
            raise InjectedFault(
                f"injected fault at site {self.site!r}"
            )
        if self.kind == "disk-full":
            raise OSError(
                errno.ENOSPC, f"No space left on device (injected: {self.site})"
            )
        return self


class FaultPlan:
    """An installable set of :class:`FaultSpec`."""

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs = list(specs)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def find(self, site: str, context) -> FaultSpec | None:
        for spec in self.specs:
            if spec.matches(site, context):
                return spec
        return None

    def total_fired(self) -> int:
        return sum(spec.fired for spec in self.specs)

    @classmethod
    def seeded(
        cls,
        seed: int,
        site: str,
        kind: str,
        *,
        population: int,
        count: int = 1,
        **kwargs,
    ) -> "FaultPlan":
        """A plan with ``count`` faults of one kind at seed-chosen
        contexts — one spec per context so each fires exactly once."""
        contexts = seeded_contexts(seed, population, count)
        return cls(
            *(
                FaultSpec(site=site, kind=kind, at=(ctx,), **kwargs)
                for ctx in contexts
            )
        )


#: The process-global plan; ``None`` keeps every seam a cheap no-op.
_PLAN: FaultPlan | None = None


def install_faults(plan: FaultPlan) -> FaultPlan:
    """Install a plan globally (fork-started children inherit it)."""
    global _PLAN
    _PLAN = plan
    return plan


def clear_faults() -> None:
    """Remove the installed plan (idempotent)."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None``."""
    return _PLAN


class injected_faults:
    """``with injected_faults(spec, ...) as plan:`` — scoped install."""

    def __init__(self, *specs: FaultSpec) -> None:
        self.plan = specs[0] if (
            len(specs) == 1 and isinstance(specs[0], FaultPlan)
        ) else FaultPlan(*specs)

    def __enter__(self) -> FaultPlan:
        install_faults(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        clear_faults()


def trip(site: str, context=None) -> FaultSpec | None:
    """The seam call production code places at a fault site.

    Returns ``None`` (after possibly crashing / hanging / raising) for
    centrally-executed kinds, or the matched spec for kinds the seam
    handles itself (``"poison"``, ``"truncate"``). With no plan
    installed this is a single global ``None`` check.
    """
    plan = _PLAN
    if plan is None:
        return None
    spec = plan.find(site, context)
    if spec is None or not spec.claim():
        return None
    return spec.execute()
