"""Output checks that rest on properties of the method, not on gastego's code.

WAV files are read with the stdlib `wave` module and numpy. The nearest-value
optimum is found by enumerating every value of the bit depth, which shares
nothing with the program's closed-form search. Each check raises CheckError
on the first property its input breaks.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np


class CheckError(Exception):
    """An output breaks a property every correct gastego output has."""


@dataclass(frozen=True)
class Audio:
    samples: np.ndarray  # interleaved values: unsigned for 8-bit, signed for 16-bit
    bit_depth: int
    channels: int
    rate: int


def read_wav(path) -> Audio:
    with wave.open(str(path), "rb") as w:
        if w.getcomptype() != "NONE":
            raise CheckError(f"{path}: compressed WAV ({w.getcomptype()})")
        width, channels, rate = w.getsampwidth(), w.getnchannels(), w.getframerate()
        data = w.readframes(w.getnframes())
    if width not in (1, 2):
        raise CheckError(f"{path}: {8 * width}-bit samples")
    samples = np.frombuffer(data, dtype="<i2" if width == 2 else "u1")
    return Audio(samples.astype(np.int64), 8 * width, channels, rate)


def _raw(values: np.ndarray, bit_depth: int) -> np.ndarray:
    return values & ((1 << bit_depth) - 1)


def _value(raw: np.ndarray, bit_depth: int) -> np.ndarray:
    if bit_depth == 16:
        return np.where(raw >= 1 << 15, raw - (1 << 16), raw)
    return raw


def check_format(cover: Audio, stego: Audio) -> None:
    """Bit depth, channels, rate and length are unchanged."""
    for field in ("bit_depth", "channels", "rate"):
        if getattr(cover, field) != getattr(stego, field):
            raise CheckError(
                f"{field} changed: {getattr(cover, field)} -> {getattr(stego, field)}"
            )
    if len(cover.samples) != len(stego.samples):
        raise CheckError(f"length changed: {len(cover.samples)} -> {len(stego.samples)}")


def check_plain(cover: Audio, stego: Audio, mask_bits: int) -> None:
    """Plain substitution touches the mask bits and nothing else."""
    bd = cover.bit_depth
    diff = _raw(cover.samples, bd) ^ _raw(stego.samples, bd)
    bad = np.flatnonzero(diff & ~mask_bits)
    if len(bad):
        raise CheckError(f"plain changed non-mask bits at {len(bad)} samples, first {bad[0]}")


def nearest_carriers(cover: np.ndarray, stego: np.ndarray, bit_depth: int,
                     mask_bits: int) -> np.ndarray:
    """Per sample, the value nearest the cover value among all values of the
    bit depth that carry the stego value's mask bits; ties to the smaller."""
    every_raw = np.arange(1 << bit_depth, dtype=np.int64)
    every_value = _value(every_raw, bit_depth)
    patterns = _raw(stego, bit_depth) & mask_bits
    out = np.empty_like(cover)
    for p in np.unique(patterns):
        rows = np.flatnonzero(patterns == p)
        c = cover[rows]
        cand = np.sort(every_value[(every_raw & mask_bits) == p])
        hi = np.searchsorted(cand, c)
        below = cand[np.maximum(hi - 1, 0)]
        above = cand[np.minimum(hi, len(cand) - 1)]
        d_below = np.where(hi > 0, c - below, np.iinfo(np.int64).max)
        d_above = np.where(hi < len(cand), above - c, np.iinfo(np.int64).max)
        out[rows] = np.where(d_below <= d_above, below, above)
    return out


def _changed(cover: Audio, stego: Audio) -> tuple[np.ndarray, np.ndarray]:
    """Cover and stego values of the changed samples. An unchanged sample
    carries its own mask bits at distance 0, so it is its own optimum and
    needs no search."""
    idx = np.flatnonzero(cover.samples != stego.samples)
    return cover.samples[idx], stego.samples[idx]


def check_nearest(cover: Audio, stego: Audio, mask_bits: int) -> None:
    """Every sample is the nearest carrier of its own mask bits."""
    c, s = _changed(cover, stego)
    bad = np.flatnonzero(s != nearest_carriers(c, s, cover.bit_depth, mask_bits))
    if len(bad):
        raise CheckError(f"{len(bad)} nearest samples are not the optimum")


def check_ga(cover: Audio, stego: Audio, mask_bits: int) -> int:
    """Every deviation lies between the optimum and plain substitution of the
    same mask bits. Returns how many samples sit above the optimum."""
    bd = cover.bit_depth
    c, s = _changed(cover, stego)
    dev = np.abs(s - c)
    opt = np.abs(nearest_carriers(c, s, bd, mask_bits) - c)
    plain = _value((_raw(c, bd) & ~mask_bits) | (_raw(s, bd) & mask_bits), bd)
    if np.any(dev > np.abs(plain - c)):
        raise CheckError(f"{np.count_nonzero(dev > np.abs(plain - c))} ga samples "
                         "deviate more than plain")
    if np.any(dev < opt):
        raise CheckError(f"{np.count_nonzero(dev < opt)} ga samples beat the optimum")
    return int(np.count_nonzero(dev > opt))


def check_same_payload(stegos: dict[str, Audio], mask_bits: int) -> None:
    """Without a threshold, embeds of one cover, message and key in different
    modes write the same payload bits into the same carriers and leave every
    other sample alone, so their mask bits agree at every sample. Extract
    proves the ga file's payload; this carries the proof to the others."""
    (first, a), *rest = stegos.items()
    for mode, b in rest:
        bad = np.flatnonzero((_raw(a.samples, a.bit_depth) ^ _raw(b.samples, b.bit_depth))
                             & mask_bits)
        if len(bad):
            raise CheckError(f"{mode} and {first} carry different mask bits at "
                             f"{len(bad)} samples, first {bad[0]}")


def check_threshold(cover: Audio, stego: Audio, threshold: int | None) -> None:
    if threshold is None:
        return
    dev = np.abs(stego.samples - cover.samples)
    if dev.max(initial=0) > threshold:
        raise CheckError(f"deviation {dev.max()} above threshold {threshold}")


def check_skipped(cover: Audio, stego: Audio, skipped: list[int]) -> None:
    idx = np.asarray(skipped, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= len(cover.samples)):
        raise CheckError("skipped index outside the cover")
    moved = idx[cover.samples[idx] != stego.samples[idx]]
    if len(moved):
        raise CheckError(f"{len(moved)} skipped samples changed, first {moved[0]}")


def check_changed_count(cover: Audio, stego: Audio, groups: int) -> None:
    changed = int(np.count_nonzero(cover.samples != stego.samples))
    if changed > groups:
        raise CheckError(f"{changed} samples changed, at most {groups} carry payload")


def snr_db(cover: Audio, stego: Audio) -> float:
    a, b = cover.samples, stego.samples
    noise = int(((a - b) ** 2).sum())
    if noise == 0:
        return math.inf
    return 10.0 * math.log10(int((a**2).sum()) / noise)


def check_snr(cover: Audio, stego: Audio, printed: str) -> float:
    """The SNR computed here matches the one the CLI printed."""
    ours = snr_db(cover, stego)
    theirs = float(printed)
    if not (ours == theirs or abs(ours - theirs) <= 1e-9 * abs(ours)):
        raise CheckError(f"printed snr_db {theirs} but the files give {ours}")
    return ours


def parse_fields(text: str, sep: str) -> dict[str, str]:
    """'name<sep>value' lines, as in key files (' = ') and CLI output (': ')."""
    fields = {}
    for line in text.splitlines():
        name, found, value = line.partition(sep)
        if found:
            fields[name.strip()] = value.strip()
    return fields


def key_skipped(key_text: str) -> list[int]:
    value = parse_fields(key_text, "=").get("skipped")
    if value is None:
        raise CheckError("key file has no skipped field")
    return [int(x) for x in value.split(",")] if value else []


def check_embed(
    mode: str, cover: Audio, stego: Audio, key_text: str, stdout: str,
    mask_bits: int, threshold: int | None, groups: int,
) -> dict:
    """Every property of one embed's output. Returns the counts it found."""
    check_format(cover, stego)
    if mode == "plain":
        check_plain(cover, stego, mask_bits)
    elif mode == "nearest":
        check_nearest(cover, stego, mask_bits)
    suboptimal = check_ga(cover, stego, mask_bits) if mode == "ga" else 0
    check_threshold(cover, stego, threshold)
    skipped = key_skipped(key_text)
    check_skipped(cover, stego, skipped)
    check_changed_count(cover, stego, groups)
    snr = check_snr(cover, stego, parse_fields(stdout, ":").get("snr_db", "nan"))
    return {"rejections": len(skipped), "suboptimal": suboptimal, "snr_db": snr}


def check_recovered(message: bytes, recovered: bytes) -> None:
    if recovered != message:
        raise CheckError(
            f"extract returned {len(recovered)} bytes that differ from the "
            f"{len(message)}-byte message"
        )


def check_keygen(message: bytes, stdout: str) -> int:
    """best covers every distinct message byte and fitness is that count.
    Returns the generations the CLI reported."""
    fields = parse_fields(stdout, ":")
    try:
        best = {int(g) for g in fields["best"].split(",")}
        fitness = int(fields["fitness"])
        generations = int(fields["generations"])
    except (KeyError, ValueError) as exc:
        raise CheckError(f"keygen-ga output unreadable: {exc}")
    distinct = set(message)
    if not distinct <= best:
        raise CheckError(f"best misses {len(distinct - best)} message values")
    if fitness != len(distinct):
        raise CheckError(f"fitness {fitness}, message has {len(distinct)} distinct values")
    return generations


def check_identical(first: bytes, again: bytes, what: str) -> None:
    if first != again:
        raise CheckError(f"repeated call with fixed flags changed {what}")
