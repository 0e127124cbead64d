"""The four benchmark workloads: browse, search, ingest and serve.

Every workload is one client in a closed loop: it sends its next
operation only when the previous one has returned.  A workload builds
its inputs and program state once from the seed (``setup``), then runs
*rounds*.  A round starts from the same state every time (caches
emptied, the disk head parked, per-round objects rebuilt), so every
round performs exactly the same operations and produces exactly the
same outputs, counts and modelled times; only host time varies.  The
benchmark runs ``--seconds / ROUND_S`` rounds, where ``ROUND_S`` is a
workload's nominal round time (measured on a 2-vCPU Intel Xeon VM), and
checks that each round's output digest equals the first one's.

Why each workload exists, and what it leaves out, is in README.md next
to this file.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.audio.recognition import VocabularyRecognizer
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import ClusterNode
from repro.cluster.router import ClusterRouter
import repro.cluster.router as cluster_router
from repro.core.manager import PresentationManager
from repro.delivery import (
    DeliveryConfig,
    DeliveryPipeline,
    DeliveryPolicy,
    build_streaming_workload,
)
from repro.ids import IdGenerator
from repro.index import BOTH, TEXT, VOICE, IndexMetrics
from repro.objects.model import DrivingMode
from repro.obs import CriticalPath, SpanRecorder
from repro.scenarios import build_city_walk_simulation, build_object_library
from repro.server import Archiver, NetworkLink, QueryInterface, build_schedule
from repro.storage.blockdev import Extent
from repro.storage.cache import LRUCache
from repro.workstation.station import Workstation

#: Object content is the same for every seed; the seed picks the
#: operation sequence (popularity, visit order, query battery, arrival
#: order and schedules), so every seed measures the same amount of work.
CONTENT_SEED = 0

#: The operation clock.
clock = time.perf_counter

#: Span kinds whose modelled self time the traced run reports.
MODELLED_KINDS = ("request", "cache", "device", "network", "cluster", "delivery")


@dataclass
class RoundResult:
    """What one round did, measured and counted."""

    #: Host seconds per operation, by operation class.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: The operation classes whose latency is ``op_p50_ms``/``op_p99_ms``.
    headline: tuple[str, ...] = ()
    #: Operations that count towards ``ops_per_s``.
    ops: int = 0
    failed: int = 0
    #: Modelled (virtual-clock) seconds behind ``modelled_open_p95_ms``.
    modelled_open: list[float] = field(default_factory=list)
    stored_per_raw: float = 1.0
    #: Exact per-round program counts (cache hits, device reads, ...).
    counts: dict[str, float] = field(default_factory=dict)
    #: Everything the round produced that must repeat exactly.
    digest: tuple = ()
    #: Mismatches found by the output checks of a verified round.
    errors: list[str] = field(default_factory=list)
    #: Span recorders of a traced round.
    recorders: list[SpanRecorder] = field(default_factory=list)

    def time(self, kind: str, seconds: float, ops: int = 1) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        self.ops += ops


def modelled_self_ms(recorders: list[SpanRecorder]) -> dict[str, float]:
    """Critical-path self time per span kind, summed over every trace."""
    totals = dict.fromkeys(MODELLED_KINDS, 0.0)
    for recorder in recorders:
        for trace_id, spans in recorder.traces().items():
            if not any(span.parent_id is None for span in spans):
                continue
            for layer in CriticalPath(spans, trace_id).layer_breakdown():
                if layer.kind.value in totals:
                    totals[layer.kind.value] += layer.seconds * 1000.0
    return totals


def _disk_counts(disks) -> dict[str, float]:
    return {
        "reads": sum(d.stats.reads for d in disks),
        "bytes": sum(d.stats.bytes_read + d.stats.bytes_written for d in disks),
        "busy_s": sum(d.stats.busy_time_s for d in disks),
    }


def _delta(after: dict, before: dict) -> dict:
    # The device adds busy time into one running float, so a difference
    # of two readings carries rounding that depends on the total so far.
    delta = {key: after[key] - before[key] for key in after}
    delta["busy_s"] = round(delta["busy_s"], 9)
    return delta


def _park(archiver: Archiver) -> None:
    """Move the disk head to offset 0 so modelled seek times repeat."""
    archiver.read_raw(Extent(0, 1))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _same_content(opened, source) -> list[str]:
    """Differences between an opened object and the object stored."""
    problems = []
    if [s.markup for s in opened.text_segments] != [
        s.markup for s in source.text_segments
    ]:
        problems.append(f"{source.object_id}: text markup differs")
    got = [i.bitmap for i in opened.images if i.bitmap is not None]
    want = [i.bitmap for i in source.images if i.bitmap is not None]
    if len(got) != len(want) or any(
        not np.array_equal(a.pixels, b.pixels) for a, b in zip(got, want)
    ):
        problems.append(f"{source.object_id}: image bitmaps differ")
    if len(opened.voice_segments) != len(source.voice_segments):
        problems.append(f"{source.object_id}: voice segment count differs")
    return problems


def _zipf(n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** skew
    return weights / weights.sum()


class Browse:
    """Workstation sessions browsing a compressed archive.

    Four workstations take turns against one ``Archiver`` with a byte
    cache.  Each visit opens a zipf(1.1)-popular object and turns one
    to four pages (audio objects play a little before each turn).  The
    decoded-object cache of each workstation is smaller than the
    working set, so some opens are cold (rebuilt from archive bytes)
    and most are warm.
    """

    STATIONS = 4
    VISUAL = 24
    AUDIO = 16
    VISITS = 1200
    ARCHIVE_CACHE_BYTES = 256 << 10
    DECODED_CACHE_BYTES = 512 << 10
    PLAY_S = 2.0

    ROUND_S = 3.4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        archiver = Archiver(cache=LRUCache(self.ARCHIVE_CACHE_BYTES))
        objects = build_object_library(
            archiver, visual_count=self.VISUAL, audio_count=self.AUDIO,
            seed=CONTENT_SEED,
        )
        walk = build_city_walk_simulation(IdGenerator("walk"), seed=CONTENT_SEED)
        archiver.store(walk)
        self.archiver = archiver
        self.sources = {obj.object_id: obj for obj in objects + [walk]}
        rng = np.random.default_rng(self.seed)
        # Popularity follows library order, with the walk third and the
        # dictations least popular; the seed only orders the visits.
        ranked = objects[:2] + [walk] + objects[2:]
        # Each rank gets its zipf share of the visits exactly (largest
        # remainder), and each visit turns 1-4 pages in equal shares;
        # the seed only shuffles the order.
        shares = _zipf(len(ranked), 1.1) * self.VISITS
        counts = np.floor(shares).astype(int)
        short = self.VISITS - counts.sum()
        counts[np.argsort(counts - shares)[:short]] += 1
        picks = rng.permutation(np.repeat(np.arange(len(ranked)), counts))
        turns = rng.permutation(np.arange(self.VISITS) % 4 + 1)
        self.visits = [
            (ranked[int(p)].object_id, int(t)) for p, t in zip(picks, turns)
        ]

    def run_round(self, *, verify: bool = False, traced: bool = False) -> RoundResult:
        result = RoundResult(headline=("open_cold",))
        archiver = self.archiver
        archiver.cache.clear()
        _park(archiver)
        disk0 = _disk_counts([archiver.disk])
        cache0 = archiver.cache.stats.snapshot()
        managers = []
        for index in range(self.STATIONS):
            recorder = SpanRecorder() if traced else None
            if recorder is not None:
                result.recorders.append(recorder)
            managers.append(
                PresentationManager(
                    archiver, Workstation(name=f"ws-{index}"), link=NetworkLink(),
                    decoded_cache_bytes=self.DECODED_CACHE_BYTES, obs=recorder,
                )
            )
        checked = set()
        digest = []
        for visit, (object_id, turns) in enumerate(self.visits):
            manager = managers[visit % self.STATIONS]
            hits = manager.decoded_cache.hits
            start = clock()
            session = manager.open(object_id)
            elapsed = clock() - start
            cold = manager.decoded_cache.hits == hits
            result.time("open_cold" if cold else "open_warm", elapsed)
            if cold:
                result.modelled_open.append(session.open_cost_s)
            if verify and object_id not in checked:
                checked.add(object_id)
                result.errors += _same_content(
                    session.object, self.sources[object_id]
                )
            audio = session.object.driving_mode is DrivingMode.AUDIO
            for _ in range(min(turns, session.page_count - 1)):
                start = clock()
                if audio:
                    session.play_for(self.PLAY_S)
                session.next_page()
                result.time("page_turn", clock() - start)
            digest.append(
                (str(object_id), cold, session.open_cost_s,
                 session.current_page_number)
            )
        archiver.obs = None
        cache = archiver.cache.stats.snapshot()
        decoded_hits = sum(m.decoded_cache.hits for m in managers)
        decoded_misses = sum(m.decoded_cache.misses for m in managers)
        disk = _delta(_disk_counts([archiver.disk]), disk0)
        result.counts = {
            "core.decoded_cache.hit_ratio": _ratio(
                decoded_hits, decoded_hits + decoded_misses
            ),
            "storage.cache.hit_ratio": _ratio(
                cache.hits - cache0.hits,
                cache.hits - cache0.hits + cache.misses - cache0.misses,
            ),
            "storage.device.reads": disk["reads"],
            "storage.device.bytes": disk["bytes"],
            "storage.device.busy_s": disk["busy_s"],
        }
        stats = archiver.disk.stats
        result.stored_per_raw = stats.media_stored_bytes / stats.media_raw_bytes
        result.digest = tuple(digest)
        return result


class Search:
    """An index-served query battery over an uncompressed archive.

    Queries mix single terms, conjunctions, phrases and AND/OR/NOT on
    the text, voice and both channels, some with attribute criteria.
    Each query ships the miniature cards of its first hits.  Every
    round starts a fresh query interface and builds each object's card
    once (a full object rebuild plus a miniature) before the queries.
    """

    VISUAL = 120
    AUDIO = 40
    QUERIES = 1500
    CARDS = 3
    CHECKED_PER_CHANNEL = 2
    TOPICS = ("budget", "radiology", "tourism", "engineering", "personnel")
    VOICE_WORDS = TOPICS + ("urgent", "report")
    TEXT_WORDS = (
        "optical", "disk", "presentation", "browsing", "multimedia", "voice",
        "image", "archive", "server", "document", "page", "retrieval",
        "symmetric", "transparency", "miniature", "patient", "overview",
        "report", "concerns",
    )

    ROUND_S = 0.75

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        objects = build_object_library(
            Archiver(compression=False), visual_count=self.VISUAL,
            audio_count=self.AUDIO, generator=IdGenerator("arc"),
            seed=CONTENT_SEED,
        )
        # The seed sets the storage order, so the platter layout (and
        # with it every modelled seek) differs from seed to seed.
        archiver = Archiver(compression=False)
        for index in rng.permutation(len(objects)):
            archiver.store(objects[index])
        self.archiver = archiver
        channels = (TEXT, VOICE, BOTH)
        words = self.TEXT_WORDS + self.VOICE_WORDS
        cycles = {}

        def word(pool=words) -> str:
            # Each pool is dealt in seeded shuffles, so every word is
            # asked about equally often whatever the seed.
            dealt = cycles.setdefault(pool, [])
            if not dealt:
                dealt.extend(pool[i] for i in rng.permutation(len(pool)))
            return dealt.pop()

        # Shapes and channels cycle in a fixed pattern; the seed picks
        # the words and the order of the queries.
        battery = []
        for index in range(self.QUERIES):
            shape = index % 8
            channel = channels[(index // 8) % 3]
            pool = self.VOICE_WORDS if channel == VOICE else words
            if shape == 0:
                battery.append(("select", (word(pool),), channel, {}))
            elif shape == 1:
                battery.append(("select", (word(pool), word(pool)), channel, {}))
            elif shape == 2:
                topic = word(self.TOPICS)
                phrase = (
                    f'"urgent {topic}"' if channel == VOICE
                    else f'"{topic} report"'
                )
                battery.append(("search", phrase, channel, {}))
            elif shape == 3:
                battery.append(
                    ("search", f"{word(pool)} AND {word(pool)}", channel, {})
                )
            elif shape == 4:
                battery.append(
                    ("search", f"{word(pool)} OR {word(pool)}", channel, {})
                )
            elif shape == 5:
                battery.append(
                    ("search", f"{word(pool)} NOT {word(self.TOPICS)}", channel, {})
                )
            elif shape == 6:
                kind = "dictation" if channel == VOICE else "document"
                battery.append(("select", (word(pool),), channel, {"kind": kind}))
            else:
                battery.append(("select", (), BOTH, {"topic": word(self.TOPICS)}))
        battery = [battery[i] for i in rng.permutation(len(battery))]
        self.battery = battery
        # The oracle sample: the first term-bearing queries per channel.
        sample = []
        for channel in channels:
            chosen = [
                q for q in battery
                if q[2] == channel and (q[0] == "search" or q[1])
            ]
            sample += chosen[: self.CHECKED_PER_CHANNEL]
        self.oracle_sample = sample

    @staticmethod
    def _ask(interface, query, *, use_index=True):
        op, text, channel, criteria = query
        if op == "search":
            return interface.search(text, channel=channel, use_index=use_index)
        return interface.select(
            list(text) or None, channel=channel, use_index=use_index, **criteria
        )

    def run_round(self, *, verify: bool = False, traced: bool = False) -> RoundResult:
        result = RoundResult(headline=("search",))
        archiver = self.archiver
        recorder = SpanRecorder() if traced else None
        archiver.obs = recorder
        if recorder is not None:
            result.recorders.append(recorder)
        _park(archiver)
        disk0 = _disk_counts([archiver.disk])
        # The index keeps a trace of every query; a fresh one per round
        # keeps memory flat however many rounds run.
        archiver.archive_index.metrics = IndexMetrics()
        interface = QueryInterface(archiver, link=NetworkLink())
        digest = []
        # Cards are materialized once per object before the queries, as
        # MINOS would at archive or idle time; each build is timed.
        for object_id in archiver.object_ids():
            start = clock()
            (card,) = interface.miniature_stream([object_id])
            result.time("card", clock() - start)
            digest.append((str(object_id), card.nbytes, card.available_at_s))
        for query in self.battery:
            start = clock()
            found = self._ask(interface, query)
            cards = list(itertools.islice(
                interface.miniature_stream(found), self.CARDS
            ))
            result.time("search", clock() - start)
            if cards:
                result.modelled_open.append(cards[-1].available_at_s)
            digest.append(
                (tuple(map(str, found)),
                 tuple((str(c.object_id), c.nbytes, c.available_at_s) for c in cards))
            )
        archiver.obs = None
        disk = _delta(_disk_counts([archiver.disk]), disk0)
        if verify:
            # The scan oracle rebuilds every stored object per query.
            for query in self.oracle_sample:
                indexed = self._ask(interface, query)
                scanned = self._ask(interface, query, use_index=False)
                if indexed != scanned:
                    result.errors.append(
                        f"query {query[1]!r} on {query[2]}: index "
                        f"{len(indexed)} hits != scan {len(scanned)} hits"
                    )
        result.counts = {
            "storage.device.reads": disk["reads"],
            "storage.device.bytes": disk["bytes"],
            "storage.device.busy_s": disk["busy_s"],
        }
        result.digest = tuple(digest)
        return result


class Ingest:
    """Storing new objects into a three-node, two-replica cluster.

    Objects arrive three visual to one audio.  Every audio object is
    recognized at once and its utterances are committed to every
    replica; every fourth acknowledged object is read back through the
    router; every ``COMPACT_EVERY`` stores each node compacts its
    index, and that pause is charged to the store that triggered it.
    Each round writes into a fresh cluster.
    """

    NODES = 3
    REPLICATION = 2
    VISUAL = 120
    AUDIO = 40
    COMPACT_EVERY = 40
    READ_BACK_EVERY = 4
    IDLE_VOCABULARY = ("follows", "concludes", "dictation", "archive", "voice")

    ROUND_S = 2.3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        objects = build_object_library(
            Archiver(compression=False), visual_count=self.VISUAL,
            audio_count=self.AUDIO, generator=IdGenerator("new"),
            seed=CONTENT_SEED,
        )
        rng = np.random.default_rng(self.seed)
        visual = [objects[i] for i in rng.permutation(self.VISUAL)]
        audio = [objects[self.VISUAL + i] for i in rng.permutation(self.AUDIO)]
        # Voice arrives unrecognized; recognition runs after the store,
        # which is what puts its terms into the index.
        for obj in audio:
            for segment in obj.voice_segments:
                segment.utterances = []
        # Three visual objects, then one audio object, repeated.
        self.arrivals = [
            obj for group in zip(visual[0::3], visual[1::3], visual[2::3], audio)
            for obj in group
        ]

    def run_round(self, *, verify: bool = False, traced: bool = False) -> RoundResult:
        result = RoundResult(headline=("store",))
        nodes = [ClusterNode(i) for i in range(self.NODES)]
        recorder = SpanRecorder() if traced else None
        router = ClusterRouter(nodes, replication=self.REPLICATION, obs=recorder)
        if recorder is not None:
            result.recorders.append(recorder)
        recognizer = VocabularyRecognizer(list(self.IDLE_VOCABULARY), seed=self.seed)
        recognized: dict = {}
        digest = []
        for count, obj in enumerate(self.arrivals, start=1):
            start = clock()
            outcome = router.store(obj)
            if count % self.COMPACT_EVERY == 0:
                for node in nodes:
                    node.archiver.archive_index.compact()
            result.time("store", clock() - start)
            digest.append((str(obj.object_id), tuple(outcome.acked)))
            if obj.voice_segments:
                start = clock()
                table = {
                    segment.segment_id: recognizer.recognize(segment.recording)
                    for segment in obj.voice_segments
                }
                router.attach_recognition(obj.object_id, table)
                result.time("recognize", clock() - start)
                recognized[obj.object_id] = sorted(
                    {u.term for utterances in table.values() for u in utterances}
                )
            if count % self.READ_BACK_EVERY == 0:
                start = clock()
                _, service = router.fetch_object(obj.object_id)
                result.time("read_back", clock() - start)
                result.modelled_open.append(service)
        if verify:
            result.errors += self._verify(router, recognized)
        disks = [n.archiver.disk for n in nodes]
        journals = [n.archiver.journal.device for n in nodes]
        raw = sum(d.stats.media_raw_bytes for d in disks)
        stored = sum(d.stats.media_stored_bytes for d in disks)
        result.stored_per_raw = stored / raw
        disk = _disk_counts(disks)
        result.counts = {
            "storage.device.reads": disk["reads"],
            "storage.device.bytes": disk["bytes"],
            "storage.device.busy_s": disk["busy_s"],
            "storage.journal.records": sum(j.stats.writes for j in journals),
            "storage.journal.bytes": sum(j.stats.bytes_written for j in journals),
        }
        digest.append(tuple(result.modelled_open))
        digest.append((raw, stored))
        result.digest = tuple(digest)
        return result

    def _verify(self, router, recognized) -> list[str]:
        """Every acked object, on every replica: content and voice terms."""
        problems = []
        for obj in self.arrivals:
            for node_id in router.replica_set(obj.object_id):
                archiver = router.node(node_id).archiver
                copy, _ = archiver.fetch_object(obj.object_id)
                problems += [
                    f"node {node_id}: {p}" for p in _same_content(copy, obj)
                ]
                for term in recognized.get(obj.object_id, ()):
                    hits = archiver.archive_index.search_terms(
                        [term], channel=VOICE
                    )
                    if obj.object_id not in hits:
                        problems.append(
                            f"node {node_id}: {obj.object_id} not found by "
                            f"recognized term {term!r}"
                        )
        return problems


class Serve:
    """Modelled server capacity: cluster replays and streaming delivery.

    A zipf multi-station schedule is replayed on one node and on three
    nodes (two replicas) for each station count of the sweep, once more
    on three nodes with one node down (every read of its replicas fails
    over), and a sixteen-station deadline-policy delivery replay runs
    over the same library.  Everything is on virtual clocks; the host
    time is the cost of the replay kernels.
    """

    VISUAL = 10
    AUDIO = 6
    SWEEP = (4, 8, 12, 16, 20, 24, 28, 32)
    FIXED_STATIONS = 16
    RATE_PER_STATION_S = 2.0
    DURATION_S = 60.0
    SLO_P95_S = 0.250
    DELIVERY_STATIONS = 16
    DELIVERY_DURATION_S = 45.0
    PAGE_BYTES = 1_024
    DELIVERY_CACHE_BYTES = 512_000

    ROUND_S = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        archiver = Archiver()
        objects = build_object_library(
            archiver, visual_count=self.VISUAL, audio_count=self.AUDIO,
            generator=IdGenerator("srv"), seed=CONTENT_SEED,
        )
        self.archiver = archiver
        self.routers = {}
        for name, size, replication in (
            ("one", 1, 1), ("three", 3, 2), ("degraded", 3, 2)
        ):
            router = ClusterRouter(
                [ClusterNode(i) for i in range(size)], replication=replication
            )
            for obj in objects:
                router.store(obj)
            self.routers[name] = router
        self.routers["degraded"].node(0).mark_down()
        ids = [obj.object_id for obj in objects]
        self.schedules = {
            stations: build_schedule(
                ids, stations=stations,
                rate_per_station_s=self.RATE_PER_STATION_S,
                duration_s=self.DURATION_S, skew=1.1, seed=self.seed + stations,
            )
            for stations in self.SWEEP
        }
        self.scripts = build_streaming_workload(
            archiver, objects, stations=self.DELIVERY_STATIONS,
            duration_s=self.DELIVERY_DURATION_S, think_s=1.2,
            jump_probability=0.12, page_bytes=self.PAGE_BYTES, seed=self.seed,
        )

    def _replay(self, result, router_name, stations):
        router = self.routers[router_name]
        router.metrics = ClusterMetrics()
        schedule = self.schedules[stations]
        start = clock()
        # Looked up on the module at call time, so the traced run's
        # wrapper of ``replay_cluster`` sees the call.
        report = cluster_router.replay_cluster(router, schedule)
        result.time("replay", clock() - start, ops=len(schedule))
        if report.failed_reads or report.completed != len(schedule):
            result.failed += report.failed_reads
            result.errors.append(
                f"{router_name} at {stations} stations: "
                f"{report.failed_reads} failed reads"
            )
        return report

    def run_round(self, *, verify: bool = False, traced: bool = False) -> RoundResult:
        result = RoundResult(headline=("replay", "delivery"))
        digest = []
        slo_stations = 0
        failovers = 0
        for stations in self.SWEEP:
            for name in ("one", "three"):
                report = self._replay(result, name, stations)
                digest.append((name, stations, report.p95_s, report.mean_s))
                failovers += report.failovers
                if name == "three":
                    if stations == self.FIXED_STATIONS:
                        result.modelled_open.append(report.p95_s)
                    if report.p95_s <= self.SLO_P95_S:
                        slo_stations = max(slo_stations, stations)
        report = self._replay(result, "degraded", self.FIXED_STATIONS)
        failovers += report.failovers
        digest.append(("degraded", report.p95_s, report.failovers))
        if report.failovers == 0:
            result.errors.append("degraded replay recorded no failovers")

        recorder = SpanRecorder() if traced else None
        if recorder is not None:
            result.recorders.append(recorder)
        _park(self.archiver)
        disk0 = _disk_counts([self.archiver.disk])
        pipeline = DeliveryPipeline(
            self.archiver,
            DeliveryConfig(
                policy=DeliveryPolicy.DEADLINE,
                cache_bytes=self.DELIVERY_CACHE_BYTES,
                page_bytes=self.PAGE_BYTES,
            ),
            obs=recorder,
        )
        start = clock()
        delivered = pipeline.run(self.scripts)
        result.time(
            "delivery", clock() - start, ops=delivered.page_turns
        )
        if delivered.streams_completed != self.DELIVERY_STATIONS:
            result.errors.append(
                f"delivery completed {delivered.streams_completed} of "
                f"{self.DELIVERY_STATIONS} streams"
            )
        digest.append(
            (delivered.underruns, delivered.page_turns,
             delivered.chunks_delivered, delivered.finished_s,
             tuple(delivered.page_latencies))
        )
        disk = _delta(_disk_counts([self.archiver.disk]), disk0)
        stats = self.archiver.disk.stats
        result.stored_per_raw = stats.media_stored_bytes / stats.media_raw_bytes
        result.counts = {
            "storage.device.reads": disk["reads"],
            "storage.device.bytes": disk["bytes"],
            "storage.device.busy_s": disk["busy_s"],
            "cluster.failovers": failovers,
            "cluster.slo_stations": slo_stations,
            "delivery.underruns": delivered.underruns,
            "delivery.page_p95_ms": delivered.page_latency_percentile(95) * 1000.0,
        }
        result.digest = tuple(digest)
        return result


WORKLOADS = {
    "browse": Browse,
    "search": Search,
    "ingest": Ingest,
    "serve": Serve,
}
