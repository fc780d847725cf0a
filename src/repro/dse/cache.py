"""Content-addressed result cache for campaign evaluations.

A cache entry is addressed by the SHA-256 fingerprint
(:mod:`repro.dse.fingerprint`) of everything that determines the
result: the full design point, the evaluation tier, and the cache
schema version. Identity is *content*, so two campaigns (or two
processes, or two sessions) asking for the same configuration share one
entry, and changing any swept parameter — block size, device, fusion,
one float of the mesh arithmetic — misses by construction.

Entries live in memory always and, when a directory is configured, as
one JSON file per key. Disk writes are atomic (temp file in the cache
directory, then :func:`os.replace`), so concurrent writers — the
parallel executor's pool workers all warming the same directory — can
never expose a torn entry: the worst case is the same bytes written
twice.

Quarantined points are stored as well, as ``status="failed"`` entries;
this makes the cache a campaign's whole resume state. Whether such an
entry is served or re-priced is the executor's call (only
``resume=True`` serves it).

The cache degrades instead of failing: a corrupted / truncated /
unreadable entry is a **miss** (the bad file is removed, the result
recomputed and rewritten atomically, ``stats.corrupt`` incremented),
and a failed disk write (disk full, permissions) keeps the in-memory
entry, warns, and counts ``stats.write_errors`` — a sick filesystem
slows a campaign down, it never kills it.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..errors import DSEError
from ..testing import faults
from .campaign import DesignPoint
from .fingerprint import fingerprint
from .tiers import PointResult, TIERS

#: Bump when the on-disk payload shape changes; part of every key, so a
#: schema change invalidates (rather than misreads) old entries.
#: 2: PointResult grew ``status``/``error`` (quarantined-failure fields).
SCHEMA_VERSION = 2


@lru_cache(maxsize=65536)
def _content_key(point: DesignPoint, tier: str) -> str:
    return fingerprint(
        {"schema": SCHEMA_VERSION, "tier": tier, "point": point.spec()}
    )


def cache_key(point: DesignPoint, tier: str) -> str:
    """The content address of one (point, tier) evaluation.

    Memoized per process: design points are frozen, so a key is a pure
    function of its arguments, and campaigns address the same points
    repeatedly (pre-check, store, warm re-runs).
    """
    if tier not in TIERS:
        raise DSEError(f"unknown tier {tier!r}; tiers: {', '.join(TIERS)}")
    return _content_key(point, tier)


def _served(result: PointResult) -> PointResult:
    """A ``from_cache=True`` copy, cheap enough for the lookup hot path
    (``dataclasses.replace`` re-runs ``__init__`` and costs ~5x more)."""
    clone = copy.copy(result)
    object.__setattr__(clone, "from_cache", True)
    return clone


@dataclass
class CacheStats:
    """Hit/miss/write accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupted / truncated / unreadable on-disk entries served as
    #: misses (each one was removed and will be rewritten).
    corrupt: int = 0
    #: Disk writes that failed (entry kept in memory, warning issued).
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """In-memory + optional on-disk store of :class:`PointResult`.

    Parameters
    ----------
    directory:
        When given, entries persist as ``<key>.json`` files there
        (created on demand), surviving the process and shared across
        concurrent writers; when ``None`` the cache is process-local
        memory only.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, PointResult] = {}
        self._directory: Path | None = None
        self._dir_str = ""
        self.stats = CacheStats()
        if directory is not None:
            path = Path(directory)
            if path.exists() and not path.is_dir():
                raise DSEError(
                    f"cache directory {path} exists and is not a directory"
                )
            path.mkdir(parents=True, exist_ok=True)
            self._directory = path
            self._dir_str = str(path)

    @property
    def directory(self) -> Path | None:
        return self._directory

    def _path(self, key: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{key}.json"

    def get(self, key: str) -> PointResult | None:
        """The cached result for a key, or ``None`` (counted as hit/miss).

        Served results carry ``from_cache=True`` so downstream
        accounting (and the bitwise cached-vs-fresh tests) can tell the
        provenance apart while every priced field stays identical.
        """
        result = self._memory.get(key)
        if result is None and self._directory is not None:
            # One open() doubling as the existence probe: a stat-then-read
            # pair costs a second syscall per lookup, and warm campaign
            # re-runs do thousands of these.
            name = os.path.join(self._dir_str, f"{key}.json")
            try:
                with open(name, "r") as handle:
                    payload = json.loads(handle.read())
                if payload is not None:
                    result = _served(PointResult.from_dict(payload))
                    self._memory[key] = result
            except FileNotFoundError:
                pass
            except (OSError, json.JSONDecodeError, DSEError):
                # A corrupted, truncated, or unreadable entry (a torn
                # copy from another filesystem, a crash mid-`cp`, bit
                # rot) is a MISS, not a campaign-killing error: drop the
                # bad file so the recompute rewrites it atomically.
                self.stats.corrupt += 1
                result = None
                try:
                    os.unlink(name)
                except OSError:
                    pass
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result if result.from_cache else _served(result)

    def put(
        self, key: str, result: PointResult, *, persist: bool = True
    ) -> None:
        """Store a result (atomically on disk when configured).

        ``persist=False`` fills only the in-memory layer — the parallel
        executor's merge path uses it when pool workers already wrote
        the entry to the shared directory themselves.
        """
        # The memory layer holds the served (from_cache=True) variant so
        # the lookup hot path returns it without copying; the on-disk
        # payload carries no provenance flag either way.
        self._memory[key] = _served(result)
        self.stats.writes += 1
        if self._directory is None or not persist:
            return
        payload = json.dumps(
            self._memory[key].to_dict(), sort_keys=True, indent=1
        )
        # Atomic publish: readers (and concurrent writers racing on the
        # same key) see either no file or a complete one, never a torn
        # write. A failed write (disk full, permissions) degrades to
        # memory-only: the campaign keeps running, the warning and
        # ``stats.write_errors`` surface the sick filesystem.
        try:
            fired = faults.trip("cache.write", context=key)
            if fired is not None and fired.kind == "truncate":
                payload = payload[: max(1, len(payload) // 3)]
            fd, tmp_name = tempfile.mkstemp(
                dir=self._directory, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp_name, self._path(key))
            except OSError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.stats.write_errors += 1
            warnings.warn(
                f"cache write failed for {key[:16]}… ({exc}); entry kept "
                "in memory only",
                RuntimeWarning,
                stacklevel=2,
            )

    def lookup(self, point: DesignPoint, tier: str) -> PointResult | None:
        """:meth:`get` keyed by content (:func:`cache_key`)."""
        return self.get(cache_key(point, tier))

    def store(
        self, point: DesignPoint, tier: str, result: PointResult
    ) -> None:
        """:meth:`put` keyed by content (:func:`cache_key`)."""
        self.put(cache_key(point, tier), result)

    def __len__(self) -> int:
        return len(self._memory)
