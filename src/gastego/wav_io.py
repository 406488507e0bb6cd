"""Bit-exact RIFF/WAVE PCM parsing and serialization.

Samples are held as one 1-D int64 numpy array of interpreted values:
unsigned bytes (0..255) for 8-bit audio, signed little-endian words
(-32768..32767) for 16-bit. int64 rather than the file's own width keeps
differences and squares of samples exact. Channels are kept as one flat
interleaved stream in file order. The body is decoded and encoded in one
numpy step each way (`np.frombuffer` in, `astype(...).tobytes()` out).
Reading skips unknown chunks; writing always emits the canonical 44-byte
header (fmt + data only), so a parse -> write -> parse cycle is the identity
on the sample data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    MalformedContainer,
    OversizeOutput,
    TruncatedData,
    UnsupportedFormat,
)

_RIFF_HEADER = struct.Struct("<4sI4s")
_CHUNK_HEADER = struct.Struct("<4sI")
_FMT_BODY = struct.Struct("<HHIIHH")
# the file's sample encoding per bit depth
_DTYPES = {8: np.dtype("u1"), 16: np.dtype("<i2")}
_RANGES = {8: (0, 255), 16: (-32768, 32767)}
# the RIFF size field counts 36 header bytes plus the (padded) data body
_MAX_BODY = 0xFFFFFFFF - 36


@dataclass(eq=False)
class AudioBuffer:
    """Decoded PCM samples plus the format facts needed to re-emit them.

    `samples` is a 1-D int64 array of sample values. The constructor accepts
    any 1-D integer sequence or array (lists, tuples, int16/uint8 arrays) and
    converts it once; it raises ValueError for non-integer input, for input
    that is not 1-D, and for values outside the bit depth's range. An int64
    array is kept as given, without a copy.
    """

    samples: np.ndarray
    bit_depth: int
    sample_rate: int
    channels: int

    def __post_init__(self):
        if self.bit_depth not in (8, 16):
            raise ValueError(f"bit_depth must be 8 or 16, got {self.bit_depth}")
        if not 1 <= self.channels <= 0xFFFF:
            raise ValueError("channels must be in [1, 65535]")
        if not 0 <= self.sample_rate <= 0xFFFFFFFF:
            raise ValueError("sample_rate must fit an unsigned 32-bit field")
        samples = np.asarray(self.samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got {samples.ndim}-D")
        if samples.size and samples.dtype.kind not in "iu":
            raise ValueError(f"samples must be integers, got {samples.dtype}")
        if len(samples) % self.channels != 0:
            raise ValueError(
                f"{len(samples)} samples is not a whole number of "
                f"{self.channels}-channel frames"
            )
        if samples.size:
            lo, hi = _RANGES[self.bit_depth]
            if samples.min() < lo or samples.max() > hi:
                raise ValueError(
                    f"samples outside [{lo}, {hi}] for {self.bit_depth}-bit audio"
                )
        self.samples = samples.astype(np.int64, copy=False)

    def __eq__(self, other):
        if not isinstance(other, AudioBuffer):
            return NotImplemented
        return (
            self.bit_depth == other.bit_depth
            and self.sample_rate == other.sample_rate
            and self.channels == other.channels
            and np.array_equal(self.samples, other.samples)
        )

    @property
    def frame_count(self) -> int:
        return len(self.samples) // self.channels


def parse_wav(data: bytes) -> AudioBuffer:
    """Decode a PCM WAV byte string.

    Raises MalformedContainer for structural damage, UnsupportedFormat for
    non-PCM or unsupported bit depths, TruncatedData when the data chunk
    promises more bytes than exist. Never raises anything else, whatever the
    input bytes are.
    """
    if len(data) < 12:
        raise MalformedContainer("file shorter than a RIFF header")
    magic, _riff_size, wave_id = _RIFF_HEADER.unpack_from(data, 0)
    if magic != b"RIFF":
        raise MalformedContainer(f"bad magic {magic!r}, expected b'RIFF'")
    if wave_id != b"WAVE":
        raise MalformedContainer(f"bad form type {wave_id!r}, expected b'WAVE'")

    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        cid, csize = _CHUNK_HEADER.unpack_from(data, pos)
        body_start = pos + 8
        body_end = body_start + csize
        if cid == b"fmt ":
            if csize < 16 or body_end > len(data):
                raise MalformedContainer("fmt chunk too small or truncated")
            fmt = _FMT_BODY.unpack_from(data, body_start)
        elif cid == b"data":
            if fmt is None:
                raise MalformedContainer("data chunk before fmt chunk")
            if body_end > len(data):
                raise TruncatedData(
                    f"data chunk declares {csize} bytes, "
                    f"only {len(data) - body_start} present"
                )
            return _decode(fmt, memoryview(data)[body_start:body_end])
        else:
            if body_end > len(data):
                raise MalformedContainer(
                    f"chunk {cid!r} overruns the file"
                )
        pos = body_end + (csize & 1)  # chunks are word-aligned
    raise MalformedContainer(
        "no data chunk" if fmt is not None else "no fmt chunk"
    )


def _decode(fmt: tuple, body: memoryview) -> AudioBuffer:
    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormat(f"audio format {audio_format}, only PCM (1) supported")
    if bits not in (8, 16):
        raise UnsupportedFormat(f"bit depth {bits}, only 8 and 16 supported")
    if channels < 1:
        raise MalformedContainer("channel count 0")
    bytes_per_frame = channels * (bits // 8)
    if len(body) % bytes_per_frame != 0:
        raise MalformedContainer(
            f"data size {len(body)} is not a whole number of "
            f"{bytes_per_frame}-byte frames"
        )
    # astype copies, so the samples are writable and do not alias `body`
    samples = np.frombuffer(body, dtype=_DTYPES[bits]).astype(np.int64)
    return AudioBuffer(samples, bits, sample_rate, channels)


def write_wav(buffer: AudioBuffer) -> bytes:
    """Serialize to canonical RIFF/WAVE PCM bytes (fmt + data chunks only).

    Raises OversizeOutput when the data does not fit the 32-bit RIFF and
    data chunk size fields.
    """
    dtype = _DTYPES[buffer.bit_depth]
    size = len(buffer.samples) * dtype.itemsize
    if size + (size & 1) > _MAX_BODY:
        raise OversizeOutput(
            f"{size} data bytes exceed the {_MAX_BODY} a RIFF/WAVE file can hold"
        )
    body = buffer.samples.astype(dtype).tobytes()
    pad = b"\x00" if len(body) % 2 else b""
    bytes_per_frame = buffer.channels * (buffer.bit_depth // 8)
    header = _RIFF_HEADER.pack(b"RIFF", 36 + len(body) + len(pad), b"WAVE")
    fmt = _CHUNK_HEADER.pack(b"fmt ", 16) + _FMT_BODY.pack(
        1,
        buffer.channels,
        buffer.sample_rate,
        (buffer.sample_rate * bytes_per_frame) & 0xFFFFFFFF,
        bytes_per_frame,
        buffer.bit_depth,
    )
    data = _CHUNK_HEADER.pack(b"data", len(body))
    return header + fmt + data + body + pad
