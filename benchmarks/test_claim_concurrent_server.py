"""C-CONC — Section 5 claim, served concurrently.

"The major concern in the server subsystem is performance.  Performance
may be crucial due to queueing delays that may be experienced when
several users try to access data from the same device."

Where C-QUEUE studies the raw device queue, this experiment studies the
*serving stack*: many workstation sessions multiplexed through the
concurrent frontend onto one optical device.  The load harness replays
deterministic zipf-skewed multi-user schedules — in virtual time on a
one-node, one-replica cluster router (``replay_cluster``), which is
exactly one shared FIFO device, and in real threads through the
frontend (``replay_threaded``) — and measures:

1. p95 latency vs. concurrent users on a cold (uncached) server —
   the queueing-delay curve the paper worries about;
2. the same workload with the shared cache + per-key single-flight —
   total optical-device busy time must drop at least 2x;
3. the observability layer: the metrics histograms and the trace must
   tell the same story as the raw replay numbers;
4. admission control: when the offered load exceeds the queue bound,
   the frontend sheds load with typed rejections instead of queueing
   without bound.
"""

import pytest

from repro.cluster import ClusterNode, ClusterRouter, replay_cluster
from repro.scenarios import build_object_library
from repro.server import (
    Archiver,
    CachingArchiver,
    ServerFrontend,
    build_schedule,
    replay_threaded,
    station_subset,
)
from repro.storage.cache import LRUCache
from repro.trace import EventKind

CACHE_BYTES = 50_000_000
USERS_SWEEP = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def library():
    archiver = Archiver()
    build_object_library(archiver, visual_count=10, audio_count=4)
    return archiver


def _one_device(library):
    """The single shared optical device: a one-node, one-replica router."""
    return ClusterRouter([ClusterNode(0, library)], replication=1)


def _hit_rate(router):
    """Share of the router's reads that did no device work."""
    reads = router.metrics.trace.of_kind(EventKind.CLUSTER_READ)
    hits = sum(event.detail["service_s"] == 0.0 for event in reads)
    return hits / len(reads)


@pytest.fixture(scope="module")
def schedule(library):
    """One 16-station zipf schedule; contention sweeps use nested subsets."""
    # 2 req/s/station: per-piece compression shrank the visual objects
    # ~6x on the platter, so saturating the optical device takes about
    # twice the offered load it did when pieces shipped raw.
    return build_schedule(
        library.object_ids(),
        stations=max(USERS_SWEEP),
        rate_per_station_s=2.0,
        duration_s=120.0,
        skew=1.1,
        seed=11,
    )


def test_p95_latency_grows_with_concurrent_users(library, schedule, results):
    """Claim (a): queueing delay rises monotonically with contention."""
    curve = []
    for users in USERS_SWEEP:
        report = replay_cluster(
            _one_device(library), station_subset(schedule, users)
        )
        curve.append((users, report.p95_s, report.mean_s))
        results.record(
            "C-CONC concurrent frontend",
            f"cold server, {users:2d} users: p95 {report.p95_s * 1000:7.0f}ms, "
            f"mean {report.mean_s * 1000:6.0f}ms "
            f"({report.completed} requests)",
        )
    p95s = [p95 for _, p95, _ in curve]
    for lighter, heavier in zip(p95s, p95s[1:]):
        assert heavier >= lighter  # monotone in offered load
    assert p95s[-1] > 3 * p95s[0]  # and decisively so at saturation


def test_cache_single_flight_halves_device_busy_time(library, schedule, results):
    """Claim (b): shared cache + single-flight cut optical busy time >= 2x."""
    cold = replay_cluster(_one_device(library), schedule)
    warm = replay_cluster(
        _one_device(library), schedule, cache_bytes=CACHE_BYTES
    )
    ratio = cold.device_busy_s / warm.device_busy_s
    results.record(
        "C-CONC concurrent frontend",
        f"virtual replay, 16 users zipf(1.1): optical busy "
        f"{cold.device_busy_s:.1f}s uncached vs {warm.device_busy_s:.1f}s "
        f"cached+single-flight ({ratio:.1f}x, "
        f"{warm.cache_hits} hits, {warm.piggybacks} piggybacks)",
    )
    assert ratio >= 2.0
    assert warm.p95_s <= cold.p95_s
    assert warm.device_reads < cold.device_reads


def test_threaded_frontend_shows_same_busy_time_win(library, schedule, results):
    """Claim (b) on the real thread pool, asserted on deterministic totals."""
    short = station_subset(schedule, 8)
    with ServerFrontend(library, workers=4, queue_depth=1024) as bare:
        uncached = replay_threaded(bare, short)
    caching = CachingArchiver(library, LRUCache(CACHE_BYTES))
    with ServerFrontend(caching, workers=4, queue_depth=1024) as fe:
        cached = replay_threaded(fe, short)
        snapshot = fe.metrics.snapshot()
    ratio = uncached.device_busy_s / cached.device_busy_s
    results.record(
        "C-CONC concurrent frontend",
        f"threaded frontend, 8 stations: optical busy "
        f"{uncached.device_busy_s:.1f}s bare vs {cached.device_busy_s:.1f}s "
        f"cached ({ratio:.1f}x); hit rate {snapshot.hit_rate:.0%}, "
        f"{cached.device_reads} device reads for {cached.completed} requests",
    )
    assert uncached.rejected == cached.rejected == 0
    assert ratio >= 2.0
    # Single-flight + cache: device reads bounded by distinct objects.
    assert cached.device_reads <= len(library.object_ids())
    assert snapshot.hit_rate > 0.5


def test_metrics_histograms_tell_same_story(library, schedule, results):
    """Claim (c): the observability layer reproduces the replay numbers."""
    cold_router = _one_device(library)
    cold = replay_cluster(cold_router, schedule)
    warm_router = _one_device(library)
    replay_cluster(warm_router, schedule, cache_bytes=CACHE_BYTES)
    cold_p95 = cold_router.metrics.snapshot().read_latency.percentile(95)
    warm_p95 = warm_router.metrics.snapshot().read_latency.percentile(95)
    reads = cold_router.metrics.trace.of_kind(EventKind.CLUSTER_READ)
    results.record(
        "C-CONC concurrent frontend",
        f"histograms: cold p95 {cold_p95 * 1000:.0f}ms "
        f"(replay {cold.p95_s * 1000:.0f}ms), warm hit rate "
        f"{_hit_rate(warm_router):.0%}, {len(reads)} trace events",
    )
    # Every request surfaced through the trace.
    assert len(reads) == len(schedule)
    # Histogram p95 brackets the exact replay p95 within one log bucket.
    assert cold_p95 >= cold.p95_s * 0.8
    assert cold_p95 <= cold.p95_s * 1.5
    # The cache story is visible in the events, not just the replay.
    assert _hit_rate(cold_router) == 0.0
    assert _hit_rate(warm_router) > 0.8
    assert warm_p95 < cold_p95


def test_admission_control_sheds_load_under_burst(library, results):
    """Overload is rejected with ServerBusyError, not queued unboundedly."""
    burst = build_schedule(
        library.object_ids(),
        stations=24,
        rate_per_station_s=2.0,
        duration_s=10.0,
        skew=1.1,
        seed=5,
    )
    caching = CachingArchiver(library, LRUCache(CACHE_BYTES))
    with ServerFrontend(caching, workers=1, queue_depth=2) as fe:
        report = replay_threaded(fe, burst)
        snapshot = fe.metrics.snapshot()
    results.record(
        "C-CONC concurrent frontend",
        f"burst of {len(burst)} requests at queue depth 2: "
        f"{snapshot.admitted} admitted, {snapshot.rejected} rejected, "
        f"max queue depth {snapshot.max_queue_depth}",
    )
    assert report.rejected > 0
    assert snapshot.rejected == report.rejected
    assert snapshot.admitted + snapshot.rejected == len(burst)
    assert snapshot.max_queue_depth <= 2


def test_virtual_replay_speed(benchmark, library, schedule):
    benchmark(
        lambda: replay_cluster(
            _one_device(library), schedule, cache_bytes=CACHE_BYTES
        )
    )
