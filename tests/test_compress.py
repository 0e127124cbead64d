"""Transparent per-piece media compression (repro.compress).

Codec and frame units, the archiver/formatter integration (compressed
platter extents, raw windowed bitmaps, off-switch byte behaviour), the
metrics surface (CompressionMetrics, DiskStats, ServerMetrics,
COMPRESS_* trace events), and the hard-vs-transient decode error
contract.
"""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compress import (
    DEFLATE,
    DVARINT,
    FRAME_MAGIC,
    HEADER_SIZE,
    RLE8,
    STORED,
    codec_for_kind,
    codec_name,
    decode_frame,
    encode_piece,
    frame_codec,
    frame_raw_length,
    is_framed,
    maybe_decode,
)
from repro.compress.codecs import (
    deflate_decode,
    deflate_encode,
    dvarint_decode,
    dvarint_encode,
    rle8_decode,
    rle8_encode,
)
from repro.errors import MediaCodecError, TransientIOError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.registry import COMPRESS_DECODE
from repro.ids import IdGenerator
from repro.images.bitmap import Bitmap
from repro.images.image import Image
from repro.images.miniature import make_miniature
from repro.objects import (
    AttributeSet,
    DrivingMode,
    ImagePage,
    MultimediaObject,
    PresentationSpec,
    TextFlow,
    TextSegment,
)
from repro.scenarios.office import build_office_document
from repro.server.archiver import Archiver, CachingArchiver
from repro.server.metrics import ServerMetrics
from repro.storage.cache import LRUCache
from repro.trace import EventKind, Trace


@pytest.fixture
def generator():
    return IdGenerator("test")


def _visual_object(generator, *, represented=False):
    obj = MultimediaObject(
        object_id=generator.object_id(),
        driving_mode=DrivingMode.VISUAL,
        attributes=AttributeSet.of(topic="compress"),
    )
    segment = TextSegment(
        segment_id=generator.segment_id(),
        markup="@title{compress}\nSmooth rasters shrink well. " * 10,
    )
    obj.add_text_segment(segment)
    image = Image(
        image_id=generator.image_id(),
        width=64,
        height=48,
        bitmap=Bitmap.from_function(64, 48, lambda x, y: (x + 3 * y) % 256),
    )
    obj.add_image(image)
    if represented:
        obj.add_image(make_miniature(image, 2, generator.image_id()))
    obj.presentation = PresentationSpec(
        items=[TextFlow(segment.segment_id), ImagePage(image.image_id)]
    )
    return obj.archive()


# ----------------------------------------------------------------------
# codec units
# ----------------------------------------------------------------------


class TestCodecs:
    def test_codec_names(self):
        assert codec_name(STORED) == "stored"
        assert codec_name(RLE8) == "rle8"
        assert codec_name(DVARINT) == "dvarint"
        assert codec_name(DEFLATE) == "deflate"
        with pytest.raises(MediaCodecError):
            codec_name(99)

    def test_codec_for_kind(self):
        assert codec_for_kind("image") == RLE8
        assert codec_for_kind("voice") == DVARINT
        assert codec_for_kind("message_voice") == DVARINT
        assert codec_for_kind("label_voice") == DVARINT
        assert codec_for_kind("text") == DEFLATE
        assert codec_for_kind("meta") == DEFLATE
        assert codec_for_kind("unknown-kind") == DEFLATE

    def test_rle8_round_trip_gradient(self):
        raw = Bitmap.from_function(
            40, 30, lambda x, y: (x + 2 * y) % 256
        ).pixels.tobytes()
        packed = rle8_encode(raw)
        assert len(packed) < len(raw)
        assert rle8_decode(packed, len(raw)) == raw

    def test_rle8_round_trip_noise(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, 999, dtype=np.uint8).tobytes()
        assert rle8_decode(rle8_encode(raw), len(raw)) == raw

    def test_dvarint_collapses_silence(self):
        raw = b"\x7f" * 8000  # held sample: deltas are all zero
        packed = dvarint_encode(raw)
        assert len(packed) < 16
        assert dvarint_decode(packed, len(raw)) == raw

    def test_dvarint_round_trip_speech_like(self):
        rng = np.random.default_rng(4)
        samples = np.clip(
            128 + np.cumsum(rng.integers(-3, 4, 4000)), 0, 255
        ).astype(np.uint8)
        raw = samples.tobytes()
        assert dvarint_decode(dvarint_encode(raw), len(raw)) == raw

    def test_decode_rejects_wrong_declared_length(self):
        raw = b"\x01\x02\x03\x04"
        with pytest.raises(MediaCodecError):
            rle8_decode(rle8_encode(raw), len(raw) + 1)
        with pytest.raises(MediaCodecError):
            dvarint_decode(dvarint_encode(raw), len(raw) - 1)

    def test_deflate_rejects_short_long_and_truncated_streams(self):
        raw = b"minos " * 50
        packed = deflate_encode(raw)
        assert deflate_decode(packed, len(raw)) == raw
        for declared, payload in (
            (len(raw) + 1, packed),  # stream shorter than the header
            (len(raw) - 1, packed),  # stream longer than the header
            (len(raw), packed[:-4]),  # checksum cut off
        ):
            with pytest.raises(MediaCodecError):
                deflate_decode(payload, declared)


def _peak_bytes_while_rejected(decode, payload, raw_len):
    """Peak traced allocation while ``decode`` rejects ``payload``."""
    tracemalloc.start()
    try:
        with pytest.raises(MediaCodecError):
            decode(payload, raw_len)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecodeBombs:
    """A few payload bytes must not make the decoder allocate megabytes
    before it notices the frame header declared far less."""

    BOMB_BYTES = 64 * 1024 * 1024

    def test_dvarint_zero_run_bomb(self):
        # A zero delta, then the varint of BOMB_BYTES (1 << 26): seven
        # bits per byte, low group first, high bit = more to come.
        payload = b"\x00\x80\x80\x80\x20"
        peak = _peak_bytes_while_rejected(dvarint_decode, payload, 10)
        assert peak < 1024 * 1024

    def test_deflate_bomb(self):
        deflater = zlib.compressobj(6)
        chunk = bytes(1024 * 1024)
        payload = b"".join(
            deflater.compress(chunk)
            for _ in range(self.BOMB_BYTES // len(chunk))
        ) + deflater.flush()
        peak = _peak_bytes_while_rejected(deflate_decode, payload, 10)
        assert peak < 1024 * 1024


# ----------------------------------------------------------------------
# frame format
# ----------------------------------------------------------------------


class TestFrame:
    def test_round_trip_and_header_fields(self):
        raw = bytes(range(256)) * 8
        frame, codec = encode_piece(raw, "image")
        assert is_framed(frame)
        assert frame.startswith(FRAME_MAGIC)
        assert frame_raw_length(frame) == len(raw)
        assert codec_name(frame_codec(frame)) == codec
        decoded, codec_id = decode_frame(frame)
        assert decoded == raw
        assert codec_name(codec_id) == codec

    def test_stored_fallback_never_inflates(self):
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 256, 2048, dtype=np.uint8).tobytes()
        frame, codec = encode_piece(raw, "voice")
        assert codec == "stored"
        assert len(frame) == len(raw) + HEADER_SIZE

    def test_maybe_decode_passes_raw_bytes_through(self):
        raw = b"no magic here, just pixels" * 4
        assert maybe_decode(raw) is raw

    def test_truncated_frame_rejected(self):
        frame, _ = encode_piece(b"payload bytes", "text")
        with pytest.raises(MediaCodecError):
            decode_frame(frame[: HEADER_SIZE - 1])
        with pytest.raises(MediaCodecError):
            decode_frame(frame[:-1])

    def test_bad_magic_rejected(self):
        frame, _ = encode_piece(b"payload bytes", "text")
        bad = b"XXXX" + frame[4:]
        with pytest.raises(MediaCodecError):
            decode_frame(bad)
        # maybe_decode treats it as an unframed raw piece instead.
        assert maybe_decode(bad) == bad

    def test_any_single_byte_corruption_rejected(self):
        raw = b"the CRC covers codec id, raw length and payload"
        frame, _ = encode_piece(raw, "text")
        for index in range(len(frame)):
            corrupt = bytearray(frame)
            corrupt[index] ^= 0x40
            with pytest.raises(MediaCodecError):
                decode_frame(bytes(corrupt))

    def test_unknown_codec_rejected(self):
        import struct
        import zlib

        payload = b"data"
        crc = zlib.crc32(payload, zlib.crc32(struct.pack(">BI", 9, 4)))
        frame = (
            struct.pack(">4sBI", FRAME_MAGIC, 9, 4)
            + struct.pack(">I", crc)
            + payload
        )
        with pytest.raises(MediaCodecError):
            decode_frame(frame)

    def test_empty_piece(self):
        frame, _ = encode_piece(b"", "image")
        assert len(frame) == HEADER_SIZE
        assert decode_frame(frame) == (b"", STORED) or maybe_decode(frame) == b""


# ----------------------------------------------------------------------
# archiver integration
# ----------------------------------------------------------------------


class TestArchiverIntegration:
    def test_compressed_extent_smaller(self, generator):
        on, off = Archiver(), Archiver(compression=False)
        r_on = on.store(_visual_object(generator))
        r_off = off.store(_visual_object(generator))
        assert r_on.extent.length < r_off.extent.length

    def test_fetch_object_round_trip(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        rebuilt, service = archiver.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)
        assert rebuilt.text_segments[0].markup == obj.text_segments[0].markup
        assert service > 0

    def test_off_switch_stores_raw_pieces(self, generator):
        archiver = Archiver(compression=False)
        obj = _visual_object(generator)
        record = archiver.store(obj)
        image_tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, image_tag)
        assert extent.length == 64 * 48  # raw raster, no frame
        data, _ = archiver.read_absolute(extent.offset, extent.length)
        assert not is_framed(data)
        assert data == obj.images[0].bitmap.pixels.tobytes()
        assert record.descriptor is not None
        assert archiver.disk.stats.media_raw_bytes == 0  # no accounting

    def test_platter_pieces_are_framed_when_on(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        image_tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, image_tag)
        data, _ = archiver.read_absolute(extent.offset, extent.length)
        assert is_framed(data)
        assert frame_raw_length(data) == 64 * 48

    def test_represented_source_bitmap_stays_raw(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator, represented=True)
        archiver.store(obj)
        source_tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, source_tag)
        assert extent.length == 64 * 48
        row, _ = archiver.read_piece_range(obj.object_id, source_tag, 64, 64)
        assert row == obj.images[0].bitmap.pixels[1].tobytes()
        # The miniature itself is not windowed, so it is framed.
        mini_tag = f"image/{obj.images[1].image_id}"
        mini, _ = archiver.read_absolute(
            archiver.data_extent(obj.object_id, mini_tag).offset,
            archiver.data_extent(obj.object_id, mini_tag).length,
        )
        assert is_framed(mini)

    def test_cache_holds_stored_bytes(self, generator):
        cache = LRUCache(10_000_000)
        archiver = Archiver(cache=cache)
        obj = _visual_object(generator)
        archiver.store(obj)
        archiver.fetch_object(obj.object_id)
        framed_entries = sum(
            1 for key in cache.keys() if is_framed(cache.get(key))
        )
        assert framed_entries > 0

    def test_caching_archiver_decodes(self, generator):
        archiver = Archiver()
        caching = CachingArchiver(archiver, LRUCache(10_000_000))
        obj = _visual_object(generator)
        caching.store(obj)
        rebuilt, _ = caching.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)

    def test_reopen_serves_compressed_archive(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        reopened, report = Archiver.reopen(archiver.disk, archiver.journal)
        assert report is not None
        rebuilt, _ = reopened.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)

    def test_shared_archiver_data_with_compression(self, generator):
        """Deterministic codecs: a shared piece formed twice has the
        same stored length, so cross-object sharing still works."""
        archiver = Archiver()
        first = _visual_object(generator)
        archiver.store(first)
        tag = f"image/{first.images[0].image_id}"
        extent = archiver.data_extent(first.object_id, tag)

        second = MultimediaObject(
            object_id=generator.object_id(),
            driving_mode=DrivingMode.VISUAL,
            attributes=AttributeSet.of(topic="sharer"),
        )
        segment = TextSegment(
            segment_id=generator.segment_id(), markup="@title{sharer}\nBody."
        )
        second.add_text_segment(segment)
        second.add_image(first.images[0])
        second.presentation = PresentationSpec(
            items=[
                TextFlow(segment.segment_id),
                ImagePage(first.images[0].image_id),
            ]
        )
        archiver.store(
            second.archive(), {tag: (extent.offset, extent.length)}
        )
        rebuilt, _ = archiver.fetch_object(second.object_id)
        assert rebuilt.images[0].bitmap.equals(first.images[0].bitmap)


# ----------------------------------------------------------------------
# metrics surfacing
# ----------------------------------------------------------------------


class TestMetrics:
    def test_disk_stats_counters(self, generator):
        archiver = Archiver()
        archiver.store(_visual_object(generator))
        stats = archiver.disk.stats
        assert stats.media_raw_bytes > stats.media_stored_bytes > 0
        assert stats.media_ratio > 1.0

    def test_compression_metrics_and_trace(self, generator):
        trace = Trace()
        from repro.compress import CompressionMetrics

        metrics = CompressionMetrics(trace)
        archiver = Archiver(compression_metrics=metrics)
        obj = _visual_object(generator)
        archiver.store(obj)
        archiver.fetch_object(obj.object_id)
        snap = metrics.snapshot()
        assert snap.encode_counts.get("rle8", 0) >= 1
        assert snap.encode_counts.get("deflate", 0) >= 1
        assert snap.decode_counts  # open path decoded at least one piece
        assert snap.overall_ratio > 1.0
        assert snap.total_raw > snap.total_stored
        assert "rle8" in snap.ratios and snap.ratios["rle8"].count >= 1
        assert trace.of_kind(EventKind.COMPRESS_ENCODE)
        assert trace.of_kind(EventKind.COMPRESS_DECODE)

    def test_server_metrics_snapshot_fields(self, generator):
        server_metrics = ServerMetrics()
        archiver = Archiver(server_metrics=server_metrics)
        obj = _visual_object(generator)
        archiver.store(obj)
        archiver.fetch_object(obj.object_id)
        snap = server_metrics.snapshot()
        assert snap.media_raw_bytes > snap.media_stored_bytes > 0
        assert snap.media_ratio > 1.0
        assert sum(snap.compress_encodes.values()) >= 2
        assert sum(snap.compress_decodes.values()) >= 1

    def test_office_document_compresses(self):
        archiver = Archiver()
        archiver.store(build_office_document())
        assert archiver.disk.stats.media_ratio > 1.5


# ----------------------------------------------------------------------
# decode errors: hard vs transient
# ----------------------------------------------------------------------


@pytest.mark.faults
class TestDecodeFaults:
    def test_transient_at_decode_site_is_typed_and_retryable(self, generator):
        plan = FaultPlan(
            [FaultSpec(site=COMPRESS_DECODE, kind=FaultKind.TRANSIENT)]
        )
        archiver = Archiver(fault_plan=plan)
        obj = _visual_object(generator)
        archiver.store(obj)
        with pytest.raises(TransientIOError):
            archiver.fetch_object(obj.object_id)
        assert plan.fired(COMPRESS_DECODE) == 1
        # The fault was one-shot: the retry succeeds.
        rebuilt, _ = archiver.fetch_object(obj.object_id)
        assert rebuilt.images[0].bitmap.equals(obj.images[0].bitmap)

    def test_genuine_corruption_is_hard_media_codec_error(self, generator):
        archiver = Archiver()
        obj = _visual_object(generator)
        archiver.store(obj)
        tag = f"image/{obj.images[0].image_id}"
        extent = archiver.data_extent(obj.object_id, tag)
        # Simulate media rot: flip one payload byte inside the framed
        # extent, behind the WORM API's back.
        archiver.disk._data[extent.offset + HEADER_SIZE + 3] ^= 0xFF
        with pytest.raises(MediaCodecError):
            archiver.fetch_object(obj.object_id)
        # Hard errors are not retryable: the bytes are still bad.
        with pytest.raises(MediaCodecError):
            archiver.fetch_object(obj.object_id)

    def test_media_codec_error_is_not_transient(self):
        assert not issubclass(MediaCodecError, TransientIOError)
