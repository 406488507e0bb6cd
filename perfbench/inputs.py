"""Workload definitions and the inputs each workload feeds the gastego CLI.

Every input is a pure function of (workload, seed, round): the same triple
always gives the same cover, message and master key. Covers are written with
the stdlib `wave` module, never with gastego's own WAV code.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 44100


@dataclass(frozen=True)
class Workload:
    name: str
    bit_depth: int
    channels: int
    samples: int  # total interleaved samples
    message_bytes: int
    layers: tuple[int, ...]
    threshold: int | None  # None: no threshold (the CLI's "inf")
    # Calls per round of extract and keygen-ga; a round has one embed per
    # mode. Short commands, or ones whose time varies with the input, get
    # more calls rather than longer ones. Every extract reads the round's
    # ga embed; every keygen-ga call gets a message of its own.
    extract_calls: int
    keygen_calls: int

    @property
    def mask_bits(self) -> int:
        return sum(1 << (layer - 1) for layer in self.layers)

    @property
    def groups(self) -> int:
        """Carrier samples the message needs: ceil(8 * len / k)."""
        return -(-8 * self.message_bytes // len(self.layers))


WORKLOADS = {
    w.name: w
    for w in (
        # O(n) stages dominate: parse, permute, snr, write and the extract walk.
        Workload("long_cover", 16, 2, 1_000_000, 128, (1, 2), None, 1, 3),
        # Per-sample engines and the message GA dominate.
        Workload("dense_payload", 16, 1, 65_536, 512, (1, 5), None, 2, 3),
        # One below the layer-4 optimum bound, so every mode rejects carriers
        # and the engines re-run over many overlapping windows; 8-bit path.
        # The ga embed's time follows its input's rejection count, so a round
        # holds one call of every other command, to fit in more ga inputs.
        Workload("threshold_retry", 8, 1, 100_000, 32, (4,), 3, 1, 1),
    )
}


@dataclass(frozen=True)
class Inputs:
    message: bytes
    key: int  # 64-bit master key, passed to the CLI as --seed
    cover: np.ndarray | None  # interleaved sample values (int64)


def make_inputs(workload: Workload, seed: int, round_no: int, rep: int = 0,
                with_cover: bool = True) -> Inputs:
    """The message, key and (optionally) cover of one call slot of a run.

    Slot 0 of a round feeds its embeds; repeated keygen-ga calls (rep > 0)
    get messages of their own, because its run time varies with the message.
    """
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index, round_no, rep])
    message = rng.integers(0, 256, workload.message_bytes, dtype=np.uint8).tobytes()
    key = int(rng.integers(0, 2**63, dtype=np.int64)) * 2 + int(rng.integers(0, 2))
    if not with_cover:
        return Inputs(message, key, None)
    frames = workload.samples // workload.channels
    t = np.arange(frames) / SAMPLE_RATE
    f_low, f_high = rng.uniform(110.0, 880.0), rng.uniform(880.0, 4000.0)
    phase = rng.uniform(0.0, 2 * np.pi, 2)
    tone = 0.35 * np.sin(2 * np.pi * f_low * t + phase[0])
    tone += 0.15 * np.sin(2 * np.pi * f_high * t + phase[1])
    tone = np.repeat(tone[:, None], workload.channels, axis=1)
    if workload.bit_depth == 16:
        # zero-centred, so samples cross zero; noise about -44 dBFS
        x = tone * 32767 + rng.normal(0.0, 200.0, tone.shape)
        lo, hi = -32768, 32767
    else:
        x = 128 + tone * 127 + rng.normal(0.0, 2.0, tone.shape)
        lo, hi = 0, 255
    cover = np.clip(np.rint(x), lo, hi).astype(np.int64).reshape(-1)
    return Inputs(message, key, cover)


def write_cover(path, workload: Workload, samples: np.ndarray) -> None:
    dtype = "<i2" if workload.bit_depth == 16 else "u1"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(workload.channels)
        w.setsampwidth(workload.bit_depth // 8)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(samples.astype(dtype).tobytes())
