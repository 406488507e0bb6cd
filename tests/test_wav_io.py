"""WAV container: golden bytes, stdlib cross-checks, round trips, fuzz."""

import io
import random
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gastego.errors import (
    MalformedContainer,
    OversizeOutput,
    StegoError,
    TruncatedData,
    UnsupportedFormat,
)
from gastego.wav_io import AudioBuffer, parse_wav, write_wav


def stdlib_wav(samples_bytes: bytes, channels=1, width=1, rate=8000) -> bytes:
    """Reference file produced by the standard library's wave module."""
    bio = io.BytesIO()
    with wave.open(bio, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(rate)
        w.writeframes(samples_bytes)
    return bio.getvalue()


def random_buffer(rnd, bit_depth, channels, frames, rate=44100) -> AudioBuffer:
    lo, hi = (0, 255) if bit_depth == 8 else (-32768, 32767)
    samples = [rnd.randint(lo, hi) for _ in range(frames * channels)]
    return AudioBuffer(samples, bit_depth, rate, channels)


class TestAudioBuffer:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AudioBuffer([256], 8, 8000, 1)
        with pytest.raises(ValueError):
            AudioBuffer([-1], 8, 8000, 1)
        with pytest.raises(ValueError):
            AudioBuffer([40000], 16, 8000, 1)
        with pytest.raises(ValueError):
            AudioBuffer([1, 2, 3], 16, 8000, 2)
        with pytest.raises(ValueError):
            AudioBuffer([], 24, 8000, 1)
        with pytest.raises(ValueError):
            AudioBuffer([], 8, 8000, 0)
        with pytest.raises(ValueError, match="sample_rate"):
            AudioBuffer([0], 8, 2**32, 1)

    @pytest.mark.parametrize(
        "bit_depth, values, narrow",
        [(8, [0, 7, 128, 255], np.uint8), (16, [-32768, -1, 0, 32767], np.int16)],
    )
    def test_sequences_and_arrays_give_equal_int64_buffers(
        self, bit_depth, values, narrow
    ):
        inputs = [
            values,
            tuple(values),
            np.array(values, dtype=narrow),
            np.array(values, dtype=np.int64),
        ]
        buffers = [AudioBuffer(x, bit_depth, 8000, 2) for x in inputs]
        for buf in buffers:
            assert buf.samples.dtype == np.int64 and buf.samples.ndim == 1
            assert buf.samples.tolist() == values
            assert buf == buffers[0]
        assert buffers[0] != AudioBuffer(values, bit_depth, 8000, 1)
        assert buffers[0] != AudioBuffer(values, bit_depth, 8001, 2)
        assert buffers[0] != AudioBuffer(values[::-1], bit_depth, 8000, 2)
        assert (buffers[0] == 5) is False

    @pytest.mark.parametrize(
        "samples, bit_depth",
        [
            ([1.0, 2.0], 16),  # floats are rejected, not truncated
            (np.array([0.5]), 8),
            (np.zeros((2, 2), dtype=np.int16), 16),
            ([[1, 2], [3, 4]], 8),
            (np.array([40000]), 16),
            (np.array([-1]), 8),
            (np.array([256], dtype=np.int16), 8),
        ],
    )
    def test_rejects_float_2d_and_out_of_range_arrays(self, samples, bit_depth):
        with pytest.raises(ValueError):
            AudioBuffer(samples, bit_depth, 8000, 1)


class TestParse:
    def test_minimal_empty_file(self):
        data = write_wav(AudioBuffer([], 8, 8000, 1))
        assert len(data) == 44
        buf = parse_wav(data)
        assert buf == AudioBuffer([], 8, 8000, 1)

    def test_8bit_midpoint_byte(self):
        buf = parse_wav(stdlib_wav(bytes([0x80])))
        assert buf.samples == [128]
        assert buf.bit_depth == 8 and buf.channels == 1

    def test_16bit_little_endian_decode(self):
        # independent reference: stdlib wave writes the two raw bytes ff 7f
        buf = parse_wav(stdlib_wav(bytes([0xFF, 0x7F]), width=2))
        assert buf.samples == [32767]
        buf = parse_wav(stdlib_wav(bytes([0xFF, 0xFF]), width=2))
        assert buf.samples == [-1]

    @pytest.mark.parametrize("width", [1, 2])
    def test_samples_are_writable_and_do_not_alias_input(self, width):
        data = bytearray(stdlib_wav(bytes([1, 2, 3, 4]), width=width))
        buf = parse_wav(data)
        before = buf.samples.tolist()
        assert buf.samples.dtype == np.int64 and buf.samples.flags.writeable
        data[-4:] = bytes(4)  # the source bytes change, the samples must not
        assert buf.samples.tolist() == before
        buf.samples[0] = 0  # and writing the samples leaves the source alone
        assert parse_wav(bytes(data)).samples.tolist() == [0] * len(before)

    def test_skips_unknown_chunks(self):
        base = write_wav(AudioBuffer([10, 20], 8, 8000, 1))
        junk = b"LIST" + struct.pack("<I", 5) + b"xxxxx" + b"\x00"  # padded odd chunk
        data = base[:12] + junk + base[12:]
        data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
        assert parse_wav(data).samples.tolist() == [10, 20]

    def test_rejects_non_pcm_and_bad_depths(self):
        def fmt_blob(audio_format, bits):
            return (
                b"RIFF" + struct.pack("<I", 36) + b"WAVE"
                + b"fmt " + struct.pack("<I", 16)
                + struct.pack("<HHIIHH", audio_format, 1, 8000, 8000, 1, bits)
                + b"data" + struct.pack("<I", 0)
            )

        with pytest.raises(UnsupportedFormat):
            parse_wav(fmt_blob(3, 32))  # IEEE float
        with pytest.raises(UnsupportedFormat):
            parse_wav(fmt_blob(1, 24))

    def test_truncated_data_chunk(self):
        data = write_wav(AudioBuffer([1, 2, 3, 4], 16, 8000, 1))
        with pytest.raises(TruncatedData):
            parse_wav(data[:-3])

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"RIF",
            b"XXXX" + bytes(40),
            b"RIFF" + struct.pack("<I", 36) + b"WAVX" + bytes(32),
            b"RIFF" + struct.pack("<I", 4) + b"WAVE",  # no chunks at all
            (  # a fmt chunk that declares 0 channels
                b"RIFF" + struct.pack("<I", 36) + b"WAVE"
                + b"fmt " + struct.pack("<I", 16)
                + struct.pack("<HHIIHH", 1, 0, 8000, 16000, 2, 16)
                + b"data" + struct.pack("<I", 0)
            ),
        ],
    )
    def test_malformed_containers(self, blob):
        with pytest.raises(MalformedContainer):
            parse_wav(blob)

    def test_data_before_fmt_is_malformed(self):
        blob = (
            b"RIFF" + struct.pack("<I", 16) + b"WAVE"
            + b"data" + struct.pack("<I", 0)
        )
        with pytest.raises(MalformedContainer):
            parse_wav(blob)

    def test_unaligned_data_size_is_malformed(self):
        blob = (
            b"RIFF" + struct.pack("<I", 39) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16)
            + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
            + b"data" + struct.pack("<I", 3) + b"abc"
        )
        with pytest.raises(MalformedContainer):
            parse_wav(blob)


class TestWrite:
    def test_empty_is_44_bytes_with_zero_data(self):
        data = write_wav(AudioBuffer([], 8, 8000, 1))
        assert len(data) == 44
        assert data[-4:] == struct.pack("<I", 0)

    def test_minus_one_encodes_ff_ff(self):
        assert write_wav(AudioBuffer([-1], 16, 8000, 1))[-2:] == b"\xff\xff"

    def test_16bit_encode_brute_force_against_decode(self):
        samples = list(range(-32768, 32768))
        data = write_wav(AudioBuffer(samples, 16, 8000, 1))
        assert parse_wav(data).samples.tolist() == samples
        # and against an independent decoder
        with wave.open(io.BytesIO(data), "rb") as w:
            raw = w.readframes(w.getnframes())
        assert list(struct.unpack(f"<{len(samples)}h", raw)) == samples

    def test_oversize_data_raises_oversize_output(self):
        # 2**32 + 2 data bytes overflow the 32-bit size fields; the samples
        # are one broadcast zero, so nothing that large is allocated
        samples = np.broadcast_to(np.int64(0), (2**31 + 1,))
        buf = AudioBuffer(samples, 16, 8000, 1)
        with pytest.raises(OversizeOutput) as info:
            write_wav(buf)
        assert isinstance(info.value, StegoError)

    def test_odd_data_size_gets_pad_byte(self):
        data = write_wav(AudioBuffer([1], 8, 8000, 1))
        assert len(data) % 2 == 0
        assert parse_wav(data).samples == [1]

    def test_stdlib_can_read_our_output(self):
        buf = AudioBuffer([100, -5, 32767, -32768], 16, 44100, 2)
        with wave.open(io.BytesIO(write_wav(buf)), "rb") as w:
            assert w.getnchannels() == 2
            assert w.getsampwidth() == 2
            assert w.getframerate() == 44100
            assert w.getnframes() == 2


class TestRoundTrip:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("frames", [0, 1, 7, 999])
    def test_corpus(self, bit_depth, channels, frames):
        rnd = random.Random(frames * 100 + bit_depth + channels)
        buf = random_buffer(rnd, bit_depth, channels, frames)
        data = write_wav(buf)
        again = parse_wav(data)
        assert again == buf
        assert write_wav(again) == data  # canonical form is a fixed point

    @given(
        st.integers(0, 1),  # depth selector
        st.integers(1, 2),
        st.lists(st.integers(0, 65535), max_size=64),
        st.integers(0, 0xFFFFFFFF),
    )
    @settings(max_examples=150)
    def test_property(self, depth_sel, channels, raws, rate):
        bit_depth = (8, 16)[depth_sel]
        span = 256 if bit_depth == 8 else 65536
        offset = 0 if bit_depth == 8 else -32768
        samples = [r % span + offset for r in raws]
        samples = samples[: len(samples) - (len(samples) % channels)]
        buf = AudioBuffer(samples, bit_depth, rate, channels)
        assert parse_wav(write_wav(buf)) == buf

    def test_canonicalization_idempotent_on_foreign_files(self):
        data = stdlib_wav(bytes(range(100)), channels=2, width=1)
        buf = parse_wav(data)
        assert parse_wav(write_wav(buf)) == buf


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rnd = random.Random(123)
        for _ in range(4000):
            blob = bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 200)))
            try:
                parse_wav(blob)
            except StegoError:
                pass

    def test_mutated_valid_files_never_crash(self):
        rnd = random.Random(321)
        base = write_wav(AudioBuffer([rnd.randint(-500, 500) for _ in range(50)], 16, 8000, 1))
        for _ in range(4000):
            blob = bytearray(base)
            for _ in range(rnd.randint(1, 6)):
                op = rnd.randrange(3)
                if op == 0 and blob:
                    blob[rnd.randrange(len(blob))] = rnd.randrange(256)
                elif op == 1 and blob:
                    del blob[rnd.randrange(len(blob)) :]
                else:
                    blob += bytes(rnd.randrange(256) for _ in range(rnd.randrange(8)))
            try:
                parse_wav(bytes(blob))
            except StegoError:
                pass

    @given(st.binary(max_size=300))
    @settings(max_examples=300)
    def test_hypothesis_fuzz(self, blob):
        try:
            parse_wav(blob)
        except StegoError:
            pass
