"""Kill-then-resume tests: the result cache is the resume state.

The acceptance bar: a campaign SIGKILLed mid-sweep resumes from its
cache with 100% hits on every completed point — zero re-pricing — and
cached quarantines are restored on resume, not re-failed, while a
fresh run re-prices them.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.dse import (
    CampaignSpec,
    DesignPoint,
    ResultCache,
    RetryPolicy,
    run_campaign,
)
from repro.errors import DSEError
from repro.testing import FaultSpec, injected_faults

BASE = DesignPoint(num_steps=10)
SPEC = CampaignSpec(
    name="checkpointed",
    axes=[("block_size", (1, 2, 4, 8)), ("num_cus", (1, 2))],
    base=BASE,
)
RETRY = RetryPolicy(max_retries=2, batch_timeout=10.0, backoff_base=0.01)


def test_resume_requires_disk_cache():
    with pytest.raises(DSEError, match="disk-backed cache"):
        run_campaign(SPEC, resume=True)
    with pytest.raises(DSEError, match="disk-backed cache"):
        run_campaign(SPEC, resume=True, cache=ResultCache())


# -- kill-then-resume --------------------------------------------------------


def _killed_campaign(cache_dir: str, crash_after: int) -> None:
    """Child process: run the campaign with a parent-side crash fault
    after ``crash_after`` completed batches — ``os._exit``, the
    SIGKILL-equivalent (no cleanup, no exception handling)."""
    from repro.testing import FaultPlan, FaultSpec, install_faults

    install_faults(
        FaultPlan(
            FaultSpec(
                site="dse.batch", kind="crash", at=(crash_after,),
                exit_code=17,
            )
        )
    )
    run_campaign(
        SPEC,
        workers=1,
        cache=ResultCache(cache_dir),
        highest_tier="closed-form",
        chunk_size=1,
        retry=RETRY,
    )


def test_sigkilled_campaign_resumes_with_pure_cache_hits(tmp_path):
    """Kill the campaign dead after 4 completed batches; the resumed run
    serves every completed point from the cache (zero re-pricing) and
    finishes with results identical to a never-killed run."""
    crash_after = 4
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_killed_campaign, args=(str(tmp_path), crash_after)
    )
    child.start()
    child.join(120)
    assert child.exitcode == 17, "the campaign must actually die"

    completed = len(list(tmp_path.glob("*.json")))
    assert completed >= crash_after, "completed batches must be cached"

    points, _ = SPEC.expand()
    cache = ResultCache(tmp_path)
    result = run_campaign(
        SPEC,
        workers=1,
        cache=cache,
        highest_tier="closed-form",
        chunk_size=1,
        resume=True,
        retry=RETRY,
    )
    # 100% hits on completed batches: every cached point served, none
    # re-priced.
    assert cache.stats.hits == completed
    assert cache.stats.misses == len(points) - completed
    assert sum(1 for r in result.results if r.from_cache) == completed
    assert not result.failures

    clean = run_campaign(
        SPEC, workers=1, highest_tier="closed-form", chunk_size=1,
        retry=RETRY,
    )
    strip = ("from_cache",)
    as_dicts = lambda rs: [  # noqa: E731 - local shorthand
        {k: v for k, v in r.to_dict().items() if k not in strip}
        for r in rs
    ]
    assert as_dicts(result.results) == as_dicts(clean.results)


def test_resume_of_completed_campaign_is_pure_replay(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_campaign(
        SPEC, cache=cache, highest_tier="closed-form", retry=RETRY
    )
    again = ResultCache(tmp_path)
    result = run_campaign(
        SPEC, cache=again, highest_tier="closed-form", resume=True,
        retry=RETRY,
    )
    assert again.stats.misses == 0
    assert again.stats.hits == len(first.results)
    assert all(r.from_cache for r in result.results)


#: The grid point whose evaluation raises under the injected fault.
BAD = 3


def _quarantine_one(cache_dir) -> None:
    """Run the campaign with point ``BAD`` failing on every attempt, so
    it is quarantined and stored in the cache as a failed entry."""
    with injected_faults(
        FaultSpec(site="dse.point", kind="error", at=(BAD,), times=0)
    ):
        first = run_campaign(
            SPEC,
            workers=2,
            cache=ResultCache(cache_dir),
            highest_tier="closed-form",
            chunk_size=2,
            retry=RETRY,
        )
    assert len(first.failures) == 1


def test_resume_restores_cached_quarantines_without_refailing(tmp_path):
    """A quarantined point is cached as a failed entry; the resumed run
    restores the casualty from the cache instead of re-pricing or
    re-failing it."""
    _quarantine_one(tmp_path)

    fresh = ResultCache(tmp_path)
    result = run_campaign(
        SPEC,
        cache=fresh,
        highest_tier="closed-form",
        chunk_size=2,
        resume=True,
        retry=RETRY,
    )
    assert fresh.stats.misses == 0, "nothing re-priced, nothing re-failed"
    casualty = result.results[BAD]
    assert casualty.status == "failed"
    assert "InjectedFault" in casualty.error


def test_fresh_run_reprices_cached_quarantines(tmp_path):
    """A fresh (non-resume) run treats a cached quarantine as a miss:
    the casualty is re-priced once the fault is gone, and its on-disk
    entry is overwritten with the priced result."""
    _quarantine_one(tmp_path)
    points, _ = SPEC.expand()
    bad_point = points[BAD]
    assert ResultCache(tmp_path).lookup(bad_point, "closed-form").status == (
        "failed"
    )

    fresh = ResultCache(tmp_path)
    result = run_campaign(
        SPEC,
        cache=fresh,
        highest_tier="closed-form",
        chunk_size=2,
        retry=RETRY,
    )
    assert fresh.stats.misses == 1
    assert fresh.stats.hits == len(points) - 1
    assert result.results[BAD].ok
    assert not result.failures
    assert ResultCache(tmp_path).lookup(bad_point, "closed-form").ok


def test_resume_restores_promoted_tier_quarantines(tmp_path):
    """An exact-tier casualty (priced in the parent, not the pool) is
    cached too; resume serves it without re-pricing."""
    spec = CampaignSpec(
        name="promoted-resume",
        axes=[("block_size", (1, 2))],
        base=BASE,
        max_survivors=2,
    )
    run_campaign(
        spec, cache=ResultCache(tmp_path), highest_tier="closed-form",
        retry=RETRY,
    )
    with injected_faults(
        FaultSpec(site="dse.point", kind="error", at=(0,), times=1)
    ):
        first = run_campaign(
            spec, cache=ResultCache(tmp_path), highest_tier="exact",
            retry=RETRY,
        )
    assert [r.tier for r in first.failures] == ["exact"]

    again = ResultCache(tmp_path)
    result = run_campaign(
        spec, cache=again, highest_tier="exact", resume=True, retry=RETRY
    )
    assert again.stats.misses == 0
    assert [r.error for r in result.failures] == [
        r.error for r in first.failures
    ]
