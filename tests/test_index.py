"""The archive-wide symmetric content index (repro.index)."""

import threading

import numpy as np
import pytest

from repro.audio.recognition import VocabularyRecognizer
from repro.audio.signal import Recording, synthesize_speech
from repro.cluster.placement import HashRing, stable_hash
from repro.errors import QueryError
from repro.ids import IdGenerator, ObjectId
from repro.index import (
    BOTH,
    TEXT,
    UNIT_GAP,
    VOICE,
    AndNode,
    ArchiveIndex,
    IndexMetrics,
    IndexShard,
    NotNode,
    OrNode,
    PhraseNode,
    Posting,
    TermNode,
    parse_query,
)
from repro.objects import DrivingMode, MultimediaObject, PresentationSpec
from repro.objects.attributes import AttributeSet
from repro.objects.parts import TextSegment, VoiceSegment
from repro.objects.presentation import TextFlow
from repro.scenarios import build_object_library
from repro.server import (
    Archiver,
    CachingArchiver,
    IdleRecognizer,
    QueryInterface,
)
from repro.storage.cache import LRUCache
from repro.trace import EventKind, Trace


def _posting(oid, channel=TEXT, position=0.0, ordinal=0, version=1):
    return Posting(
        object_id=ObjectId(oid),
        channel=channel,
        position=position,
        ordinal=ordinal,
        version=version,
    )


def _silent_recording(duration_s: float = 0.1) -> Recording:
    """A recording with no transcript: recognition has nothing to hear."""
    return Recording(
        samples=np.zeros(int(8000 * duration_s), dtype=np.float32),
        sample_rate=8000,
    )


def _dictation(generator, script=None, *, recording=None, utterances=None, seed=0):
    obj = MultimediaObject(
        object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
    )
    if recording is None:
        recording = synthesize_speech(script, seed=seed)
    segment = VoiceSegment(
        segment_id=generator.segment_id(),
        recording=recording,
        utterances=utterances if utterances is not None else [],
    )
    obj.add_voice_segment(segment)
    obj.presentation = PresentationSpec(audio_order=[segment.segment_id])
    return obj


class TestSharding:
    def test_stable_hash_is_process_independent(self):
        # Fixed value: blake2b, not the salted builtin hash.
        assert stable_hash("budget") == stable_hash("budget")
        assert stable_hash("budget") != stable_hash("radiology")
        assert 0 <= stable_hash("urgent") < 1 << 64

    def test_two_rings_agree_without_coordination(self):
        a = HashRing([0, 1, 2, 3])
        b = HashRing([0, 1, 2, 3])
        terms = [f"term{i}" for i in range(200)]
        assert [a.shard_for(t) for t in terms] == [b.shard_for(t) for t in terms]

    def test_terms_spread_over_shards(self):
        ring = HashRing([0, 1, 2, 3])
        used = {ring.shard_for(f"term{i}") for i in range(200)}
        assert used == {0, 1, 2, 3}

    def test_growing_the_ring_moves_a_minority_of_terms(self):
        before = HashRing([0, 1, 2, 3])
        after = HashRing([0, 1, 2, 3, 4])
        terms = [f"term{i}" for i in range(500)]
        moved = sum(
            1 for t in terms if before.shard_for(t) != after.shard_for(t)
        )
        assert 0 < moved < len(terms) / 2  # ~1/5 expected, never a rebuild

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([0], replicas=0)


class TestLsmShard:
    def test_tiny_budget_forces_flushes(self):
        shard = IndexShard(0, memtable_budget_bytes=1)
        for i in range(5):
            shard.add("budget", _posting(f"o{i}", ordinal=i))
        assert shard.segment_count >= 4
        found = shard.postings("budget")
        assert {p.object_id for p in found} == {ObjectId(f"o{i}") for i in range(5)}

    def test_reads_merge_memtable_and_segments(self):
        shard = IndexShard(0, memtable_budget_bytes=1 << 20)
        shard.add("budget", _posting("old"))
        assert shard.flush() is not None
        shard.add("budget", _posting("new"))
        assert shard.segment_count == 1
        found = shard.postings("budget")
        # Newest write (still in the memtable) comes first.
        assert [p.object_id for p in found] == [ObjectId("new"), ObjectId("old")]

    def test_compaction_merges_and_drops_dead(self):
        shard = IndexShard(0, memtable_budget_bytes=1)
        for version in (1, 2):
            shard.add(
                "urgent", _posting("obj", channel=VOICE, version=version)
            )
        result = shard.compact(live=lambda p: p.version == 2)
        assert result.segments_merged >= 2
        assert result.postings_dropped == 1
        assert result.postings_kept == 1
        assert shard.segment_count == 1
        assert [p.version for p in shard.postings("urgent")] == [2]

    def test_flush_of_empty_memtable_is_noop(self):
        shard = IndexShard(0)
        assert shard.flush() is None
        assert shard.segment_count == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            IndexShard(0, memtable_budget_bytes=0)


class TestPlanner:
    def test_single_term(self):
        assert parse_query("Budget") == TermNode("budget")

    def test_adjacency_is_implicit_and(self):
        assert parse_query("budget urgent") == AndNode(
            (TermNode("budget"), TermNode("urgent"))
        )

    def test_or_binds_looser_than_and(self):
        node = parse_query("budget AND urgent OR tourism")
        assert node == OrNode(
            (
                AndNode((TermNode("budget"), TermNode("urgent"))),
                TermNode("tourism"),
            )
        )

    def test_not_and_parens(self):
        node = parse_query("NOT (budget OR tourism)")
        assert node == NotNode(OrNode((TermNode("budget"), TermNode("tourism"))))

    def test_quoted_phrase(self):
        assert parse_query('"optical disk storage"') == PhraseNode(
            ("optical", "disk", "storage")
        )

    def test_single_word_phrase_collapses_to_term(self):
        assert parse_query('"budget"') == TermNode("budget")

    @pytest.mark.parametrize(
        "bad", ["", "   ", "(budget", "budget)", "AND", "budget AND", '""']
    )
    def test_malformed_queries_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestArchiveIndex:
    def _index(self, **kwargs):
        index = ArchiveIndex(n_shards=4, **kwargs)
        index.insert_object(
            ObjectId("doc"),
            [("budget", TEXT, 0.0, 0), ("review", TEXT, 7.0, 1)],
        )
        index.insert_object(
            ObjectId("memo"),
            [("urgent", VOICE, 0.5, 0), ("budget", VOICE, 1.2, 1)],
        )
        return index

    def test_query_results_in_storage_order(self):
        index = self._index()
        assert index.query("budget") == [ObjectId("doc"), ObjectId("memo")]

    def test_channel_filters_are_symmetric(self):
        index = self._index()
        assert index.query("budget", channel=TEXT) == [ObjectId("doc")]
        assert index.query("budget", channel=VOICE) == [ObjectId("memo")]
        assert index.query("urgent", channel=TEXT) == []
        assert index.query("urgent", channel=VOICE) == [ObjectId("memo")]

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            self._index().query("budget", channel="video")

    def test_boolean_and_not_queries(self):
        index = self._index()
        assert index.query("budget AND review") == [ObjectId("doc")]
        assert index.query("review OR urgent") == [
            ObjectId("doc"),
            ObjectId("memo"),
        ]
        assert index.query("budget NOT urgent") == [ObjectId("doc")]

    def test_phrase_needs_consecutive_ordinals_in_one_unit(self):
        index = ArchiveIndex(n_shards=2)
        index.insert_object(
            ObjectId("a"),
            [("optical", TEXT, 0.0, 0), ("disk", TEXT, 8.0, 1)],
        )
        # Same words, but split across units by the ordinal gap.
        index.insert_object(
            ObjectId("b"),
            [("optical", TEXT, 0.0, 0), ("disk", TEXT, 0.0, 1 + UNIT_GAP)],
        )
        assert index.query('"optical disk"') == [ObjectId("a")]
        assert index.query("optical disk") == [ObjectId("a"), ObjectId("b")]

    def test_voice_reindex_supersedes_without_compaction(self):
        index = self._index()
        index.update_voice(
            ObjectId("memo"), [("budget", VOICE, 1.2, 1)], version=2
        )
        # 'urgent' was not re-recognized at v2: gone at read time even
        # though its posting is still physically stored.
        assert index.query("urgent", channel=VOICE) == []
        assert index.query("budget", channel=VOICE) == [ObjectId("memo")]

    def test_compaction_physically_drops_superseded_postings(self):
        index = self._index()
        index.update_voice(
            ObjectId("memo"), [("budget", VOICE, 1.2, 1)], version=2
        )
        before = index.posting_count
        results = index.compact()
        # v1 'urgent' and v1 'budget' postings both retired.
        assert sum(r.postings_dropped for r in results) == 2
        assert index.posting_count == before - 2
        assert index.segment_count <= index.shard_count
        assert index.query("urgent", channel=VOICE) == []
        assert index.query("budget", channel=VOICE) == [ObjectId("memo")]

    def test_stale_reindex_loses_the_race(self):
        index = self._index()
        index.update_voice(ObjectId("memo"), [("late", VOICE, 0.0, 0)], version=3)
        assert index.update_voice(
            ObjectId("memo"), [("stale", VOICE, 0.0, 0)], version=2
        ) == 0
        assert index.query("late", channel=VOICE) == [ObjectId("memo")]
        assert index.query("stale", channel=VOICE) == []
        assert index.voice_version_of(ObjectId("memo")) == 3

    def test_reindex_of_unknown_object_rejected(self):
        with pytest.raises(QueryError):
            self._index().update_voice(
                ObjectId("ghost"), [("term", VOICE, 0.0, 0)], version=2
            )

    def test_membership_and_sizes(self):
        index = self._index()
        assert len(index) == 2
        assert ObjectId("doc") in index
        assert ObjectId("ghost") not in index
        assert index.posting_count == 4
        assert index.nbytes > 0

    def test_multi_term_queries_start_no_threads(self):
        # Term lookups run in a loop on the querying thread: a query
        # leaves no worker threads behind.
        before = set(threading.enumerate())
        index = self._index()
        assert index.query("budget AND review") == [ObjectId("doc")]
        assert index.query("urgent OR review") == [
            ObjectId("doc"), ObjectId("memo"),
        ]
        assert set(threading.enumerate()) - before == set()

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ArchiveIndex(n_shards=0)


class TestMetricsAndTrace:
    def test_structural_and_query_events_recorded(self):
        trace = Trace()
        index = ArchiveIndex(
            n_shards=2,
            memtable_budget_bytes=1,
            metrics=IndexMetrics(trace),
        )
        index.insert_object(
            ObjectId("doc"), [("budget", TEXT, 0.0, 0), ("review", TEXT, 7.0, 1)]
        )
        index.update_voice(ObjectId("doc"), [("budget", VOICE, 0.0, 0)], 2)
        index.query("budget AND review")
        index.compact()

        snap = index.metrics.snapshot()
        assert snap.objects_indexed == 1
        assert snap.voice_reindexes == 1
        assert snap.postings_indexed == 3
        assert snap.flushes >= 1
        assert snap.compactions == index.shard_count
        assert snap.queries == 1
        assert snap.shard_lookups == 2
        assert snap.query_latency.count == 1
        assert sum(h.count for h in snap.shard_latency.values()) == 2

        assert len(trace.of_kind(EventKind.INDEX_INSERT)) == 2
        assert trace.of_kind(EventKind.INDEX_FLUSH)
        assert len(trace.of_kind(EventKind.INDEX_COMPACT)) == index.shard_count
        (query_event,) = trace.of_kind(EventKind.SEARCH_QUERY)
        assert query_event.detail["hits"] == 1
        assert len(trace.of_kind(EventKind.SEARCH_SHARD)) == 2


@pytest.fixture(scope="module")
def library():
    archiver = Archiver()
    objects = build_object_library(archiver, visual_count=6, audio_count=3)
    return archiver, objects


class TestSelectViaIndex:
    def test_index_select_equals_scan_select(self, library):
        archiver, _ = library
        interface = QueryInterface(archiver)
        for terms in (["budget"], ["urgent"], ["report"], ["ghostword"]):
            for channel in (BOTH, TEXT, VOICE):
                assert interface.select(
                    terms=terms, channel=channel
                ) == interface.select(
                    terms=terms, channel=channel, use_index=False
                )

    def test_search_equals_scan_search(self, library):
        archiver, _ = library
        interface = QueryInterface(archiver)
        for query in (
            "budget OR tourism",
            "urgent AND budget",
            "report NOT radiology",
            '"urgent budget"',
        ):
            assert interface.search(query) == interface.search(
                query, use_index=False
            )

    def test_channel_filter_separates_spoken_from_written(self, library):
        archiver, objects = library
        interface = QueryInterface(archiver)
        # 'urgent' is only ever spoken in the library.
        assert interface.select(terms=["urgent"], channel=TEXT) == []
        voice_hits = interface.select(terms=["urgent"], channel=VOICE)
        assert voice_hits
        modes = {
            next(o for o in objects if o.object_id == i).driving_mode.value
            for i in voice_hits
        }
        assert modes == {"audio"}

    def test_attribute_only_select_never_opens_media(self, library):
        archiver, _ = library
        interface = QueryInterface(archiver)
        before = dict(archiver.op_counts)
        hits = interface.select(kind="document")
        assert len(hits) == 6
        after = archiver.op_counts
        assert after["fetch"] == before.get("fetch", 0)
        assert after["fetch_object"] == before.get("fetch_object", 0)

    def test_index_select_is_in_storage_order(self, library):
        archiver, _ = library
        interface = QueryInterface(archiver)
        hits = interface.select(terms=["report"])
        order = archiver.object_ids()
        assert hits == [i for i in order if i in set(hits)]

    def test_caching_archiver_delegates_to_the_index(self):
        archiver = Archiver()
        build_object_library(archiver, visual_count=2, audio_count=1)
        caching = CachingArchiver(archiver, LRUCache(10_000_000))
        assert caching.archive_index is archiver.archive_index
        interface = QueryInterface(caching)
        assert interface.select(terms=["budget"]) == QueryInterface(
            archiver
        ).select(terms=["budget"])


class TestIdleSweepFailures:
    def test_failed_object_recorded_and_sweep_continues(self, generator):
        archiver = Archiver()
        silent = _dictation(generator, recording=_silent_recording())
        good = _dictation(
            generator, "urgent fracture case in the clinic", seed=41
        )
        archiver.store(silent.archive())
        archiver.store(good.archive())

        worker = IdleRecognizer(
            archiver,
            VocabularyRecognizer(["fracture"], miss_rate=0.0, confusion_rate=0.0),
        )
        report = worker.run()
        assert report.objects_scanned == 2
        assert report.failed_object_ids == [silent.object_id]
        assert "no transcript" in report.failures[0][1]
        # The failure did not abort the sweep: the good object is done.
        assert report.segments_recognized == 1
        assert worker.pending == []
        assert QueryInterface(archiver).select(terms=["fracture"]) == [
            good.object_id
        ]

    def test_failed_segment_does_not_sink_its_object(self, generator):
        archiver = Archiver()
        obj = MultimediaObject(
            object_id=generator.object_id(), driving_mode=DrivingMode.AUDIO
        )
        bad = VoiceSegment(
            segment_id=generator.segment_id(), recording=_silent_recording()
        )
        ok = VoiceSegment(
            segment_id=generator.segment_id(),
            recording=synthesize_speech("the budget figures follow", seed=42),
        )
        obj.add_voice_segment(bad)
        obj.add_voice_segment(ok)
        obj.presentation = PresentationSpec(
            audio_order=[bad.segment_id, ok.segment_id]
        )
        archiver.store(obj.archive())

        report = IdleRecognizer(
            archiver, VocabularyRecognizer(["budget"], miss_rate=0.0)
        ).run()
        assert report.failed_object_ids == [obj.object_id]
        assert str(bad.segment_id) in report.failures[0][1]
        # The good segment of the same object was still recognized.
        assert report.segments_recognized == 1
        assert QueryInterface(archiver).select(terms=["budget"]) == [
            obj.object_id
        ]

    def test_sweep_ends_with_index_compaction(self, generator):
        archiver = Archiver()
        obj = _dictation(generator, "urgent budget meeting", seed=43)
        archiver.store(obj.archive())
        report = IdleRecognizer(
            archiver,
            VocabularyRecognizer(["urgent", "budget"], miss_rate=0.0),
        ).run()
        # Recognition bumped the voice version; compaction ran and the
        # index holds exactly one live generation.
        assert report.index_segments_merged >= 0
        assert archiver.archive_index.metrics.snapshot().compactions >= 1
        assert QueryInterface(archiver).select(
            terms=["urgent"], channel=VOICE
        ) == [obj.object_id]


class TestVoiceRecallVsRecognizerQuality:
    VOCAB = ["budget", "radiology", "tourism", "engineering", "personnel"]

    def _recall_and_text_hits(self, miss_rate):
        """Build one library at the given insertion-time miss rate."""
        archiver = Archiver()
        generator = IdGenerator("recall")
        recognizer = VocabularyRecognizer(
            self.VOCAB, miss_rate=miss_rate, confusion_rate=0.0, seed=11
        )
        truth: list[tuple[ObjectId, str]] = []
        for i in range(10):
            words = [self.VOCAB[(i + j) % len(self.VOCAB)] for j in range(3)]
            script = "the " + " and the ".join(words) + " teams met today"
            recording = synthesize_speech(script, seed=100 + i)
            obj = _dictation(
                generator,
                recording=recording,
                utterances=recognizer.recognize(recording),
            )
            archiver.store(obj.archive())
            truth.extend((obj.object_id, word) for word in set(words))
        # A written counterpart: text results must not depend on the
        # voice recognizer at all.
        doc = MultimediaObject(
            object_id=generator.object_id(),
            driving_mode=DrivingMode.VISUAL,
            attributes=AttributeSet.of(kind="document"),
        )
        segment = TextSegment(
            segment_id=generator.segment_id(),
            markup="the budget and radiology teams met today",
        )
        doc.add_text_segment(segment)
        doc.presentation = PresentationSpec(items=[TextFlow(segment.segment_id)])
        archiver.store(doc.archive())

        interface = QueryInterface(archiver)
        found = sum(
            1
            for object_id, word in truth
            if object_id in interface.select(terms=[word], channel=VOICE)
        )
        text_hits = {
            word: tuple(interface.select(terms=[word], channel=TEXT))
            for word in self.VOCAB
        }
        return found / len(truth), text_hits

    def test_recall_monotone_in_miss_rate_and_text_unaffected(self):
        rates = [0.0, 0.3, 0.6, 0.9]
        recalls = []
        text_views = []
        for rate in rates:
            recall, text_hits = self._recall_and_text_hits(rate)
            recalls.append(recall)
            text_views.append(text_hits)
        assert recalls[0] == 1.0
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] < recalls[0]
        # The text channel is deaf to recognizer quality.
        assert all(view == text_views[0] for view in text_views[1:])
