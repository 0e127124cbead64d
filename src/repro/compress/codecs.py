"""The codec registry: raw media bytes to smaller bytes and back.

Three real codecs plus an identity fallback, each picked by the *kind*
of the data piece being archived (the formatter knows the kind; the
frame records the codec, so decode needs neither):

``rle8``
    Byte-delta followed by PackBits-style run-length coding, for 8-bit
    greyscale rasters.  Scanned documents and synthetic maps are
    locally smooth, so the delta stream collapses into long runs.

``dvarint``
    Byte-delta with zero-runs escaped as ``0x00`` + varint run length,
    for mu-law voice.  Silence (and any held sample) deltas to zero;
    busy speech stays byte-for-byte and falls back to ``stored``.

``deflate``
    ``zlib`` for text markup and structured metadata pieces.

``stored``
    Identity.  :func:`repro.compress.frame.encode_piece` falls back to
    it automatically whenever a codec fails to pay, so compression
    never inflates a piece beyond the fixed frame header.

Every encoder is deterministic: the shared-data length check in the
formatter relies on two formations of the same bytes producing the
same stored length.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import MediaCodecError

#: Codec identifiers as stored in the frame header (one byte).
STORED = 0
RLE8 = 1
DVARINT = 2
DEFLATE = 3

_CODEC_NAMES = {
    STORED: "stored",
    RLE8: "rle8",
    DVARINT: "dvarint",
    DEFLATE: "deflate",
}

#: Piece kind (as named by the blob registry) -> preferred codec.
_CODEC_FOR_KIND = {
    "image": RLE8,
    "voice": DVARINT,
    "message_voice": DVARINT,
    "label_voice": DVARINT,
    "text": DEFLATE,
    "meta": DEFLATE,
}


def codec_name(codec_id: int) -> str:
    """Human name of a codec id (for metrics and traces)."""
    name = _CODEC_NAMES.get(codec_id)
    if name is None:
        raise MediaCodecError(f"unknown codec id {codec_id}")
    return name


def codec_for_kind(kind) -> int:
    """The preferred codec for a piece kind (enum or registry name)."""
    return _CODEC_FOR_KIND.get(str(getattr(kind, "value", kind)), DEFLATE)


# ----------------------------------------------------------------------
# shared delta transform
# ----------------------------------------------------------------------


def _delta(raw: bytes) -> np.ndarray:
    arr = np.frombuffer(raw, dtype=np.uint8)
    delta = arr.copy()
    delta[1:] -= arr[:-1]  # uint8 arithmetic wraps mod 256
    return delta


def _undelta(delta: np.ndarray) -> bytes:
    return np.cumsum(delta, dtype=np.uint8).tobytes()


# ----------------------------------------------------------------------
# rle8: delta + PackBits
# ----------------------------------------------------------------------


def rle8_encode(raw: bytes) -> bytes:
    """Delta the bytes, then PackBits the delta stream."""
    if not raw:
        return b""
    data = _delta(raw)
    n = len(data)
    boundaries = np.flatnonzero(data[1:] != data[:-1]) + 1
    starts = np.concatenate(([0], boundaries)).tolist()
    ends = np.concatenate((boundaries, [n])).tolist()
    out = bytearray()
    literal_start: int | None = None

    def flush_literal(lo: int, hi: int) -> None:
        pos = lo
        while pos < hi:
            chunk = min(128, hi - pos)
            out.append(chunk - 1)
            out.extend(data[pos : pos + chunk].tobytes())
            pos += chunk

    for start, end in zip(starts, ends):
        run = end - start
        if run >= 3:
            if literal_start is not None:
                flush_literal(literal_start, start)
                literal_start = None
            value = int(data[start])
            while run > 0:
                chunk = min(128, run)
                if chunk >= 3:
                    out.append(257 - chunk)
                    out.append(value)
                else:
                    out.append(chunk - 1)
                    out += bytes([value]) * chunk
                run -= chunk
        elif literal_start is None:
            literal_start = start
    if literal_start is not None:
        flush_literal(literal_start, n)
    return bytes(out)


def rle8_decode(payload: bytes, raw_len: int) -> bytes:
    """Invert :func:`rle8_encode` into exactly ``raw_len`` bytes."""
    out = bytearray()
    i, n = 0, len(payload)
    while i < n:
        control = payload[i]
        i += 1
        if control < 128:
            count = control + 1
            if i + count > n:
                raise MediaCodecError("rle8 literal truncated")
            out += payload[i : i + count]
            i += count
        elif control == 128:  # no-op byte, per PackBits convention
            continue
        else:
            if i >= n:
                raise MediaCodecError("rle8 run truncated")
            out += bytes([payload[i]]) * (257 - control)
            i += 1
        if len(out) > raw_len:
            raise MediaCodecError(
                f"rle8 stream expands past declared length {raw_len}"
            )
    if len(out) != raw_len:
        raise MediaCodecError(
            f"rle8 stream yields {len(out)} bytes, header says {raw_len}"
        )
    return _undelta(np.frombuffer(bytes(out), dtype=np.uint8))


# ----------------------------------------------------------------------
# dvarint: delta + varint-escaped zero runs
# ----------------------------------------------------------------------


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            out.append(low | 0x80)
        else:
            out.append(low)
            return bytes(out)


def _read_varint(payload: bytes, i: int) -> tuple[int, int]:
    value, shift = 0, 0
    while True:
        if i >= len(payload):
            raise MediaCodecError("dvarint run length truncated")
        byte = payload[i]
        i += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i
        shift += 7
        if shift > 35:
            raise MediaCodecError("dvarint run length overflows")


def dvarint_encode(raw: bytes) -> bytes:
    """Delta the bytes; zero-runs become ``0x00`` + varint length."""
    if not raw:
        return b""
    delta = _delta(raw)
    zero = delta == 0
    boundaries = np.flatnonzero(zero[1:] != zero[:-1]) + 1
    starts = np.concatenate(([0], boundaries)).tolist()
    ends = np.concatenate((boundaries, [len(delta)])).tolist()
    out = bytearray()
    for start, end in zip(starts, ends):
        if zero[start]:
            out.append(0)
            out += _varint(end - start)
        else:
            out += delta[start:end].tobytes()
    return bytes(out)


def dvarint_decode(payload: bytes, raw_len: int) -> bytes:
    """Invert :func:`dvarint_encode` into exactly ``raw_len`` bytes."""
    out = bytearray()
    i, n = 0, len(payload)
    while i < n:
        byte = payload[i]
        i += 1
        if byte:
            out.append(byte)
        else:
            run, i = _read_varint(payload, i)
            # Checked before the run is allocated: a few payload bytes
            # can declare gigabytes of zeros.
            if run > raw_len - len(out):
                raise MediaCodecError(
                    f"dvarint zero-run of {run} bytes overruns declared "
                    f"length {raw_len}"
                )
            out += b"\x00" * run
        if len(out) > raw_len:
            raise MediaCodecError(
                f"dvarint stream expands past declared length {raw_len}"
            )
    if len(out) != raw_len:
        raise MediaCodecError(
            f"dvarint stream yields {len(out)} bytes, header says {raw_len}"
        )
    return _undelta(np.frombuffer(bytes(out), dtype=np.uint8))


# ----------------------------------------------------------------------
# deflate + stored
# ----------------------------------------------------------------------


def deflate_encode(raw: bytes) -> bytes:
    """zlib-compress text/metadata bytes."""
    return zlib.compress(raw, 6)


def deflate_decode(payload: bytes, raw_len: int) -> bytes:
    """zlib-decompress, rejecting corrupt or wrong-length streams.

    Output is capped one byte past ``raw_len``, so a small stream that
    inflates far beyond its header is rejected without materializing.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, raw_len + 1)
    except zlib.error as exc:
        raise MediaCodecError(f"deflate payload corrupt: {exc}") from None
    if len(raw) > raw_len:
        raise MediaCodecError(
            f"deflate stream expands past declared length {raw_len}"
        )
    if not inflater.eof:
        raise MediaCodecError("deflate stream truncated")
    if len(raw) != raw_len:
        raise MediaCodecError(
            f"deflate stream yields {len(raw)} bytes, header says {raw_len}"
        )
    return raw


def stored_encode(raw: bytes) -> bytes:
    """Identity."""
    return raw


def stored_decode(payload: bytes, raw_len: int) -> bytes:
    """Identity, length-checked against the frame header."""
    if len(payload) != raw_len:
        raise MediaCodecError(
            f"stored payload is {len(payload)} bytes, header says {raw_len}"
        )
    return payload


ENCODERS = {
    STORED: stored_encode,
    RLE8: rle8_encode,
    DVARINT: dvarint_encode,
    DEFLATE: deflate_encode,
}

DECODERS = {
    STORED: stored_decode,
    RLE8: rle8_decode,
    DVARINT: dvarint_decode,
    DEFLATE: deflate_decode,
}
