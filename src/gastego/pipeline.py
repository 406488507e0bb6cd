"""End-to-end embedding and extraction.

Embedding walks the cover's samples in a keyed pseudo-random order. Each
visited sample is altered to carry the next payload bits, re-shaped by the
configured engine to sit as close as possible to the original, then verified
against the distortion threshold: accepted samples enter the output, rejected
ones stay original and the same bits retry at the next position. Extraction
replays the same walk, skipping the recorded rejections. The payload's bit
layout belongs to LayerMask: embed packs the ciphertext's bits into one
pattern per carrier with LayerMask.pack, and extract reads them back from
the used samples with LayerMask.unpack. The walk is the full keyed
Fisher-Yates shuffle of the README; both sides resolve only the prefix they
read (embed m positions plus one per rejection, extract m plus the skips
inside the buffer), which changes no output byte.

Embedding runs in two stages. Stage 1 places carriers by their closed form,
bit substitution in `plain` mode and the nearest value in `nearest` and `ga`,
and rejects any over the threshold. Its first window is the whole payload
along the walk, so an embed without rejections makes one closed-form call.
From the first rejection on, it places carriers from an accept table: the
closed-form carrier and accept bit of each walk position under each distinct
pattern of the groups still to place, built in growing chunks with one call
each, so a rejection costs a table lookup, not an engine call. Each group
goes to the first position from the cursor whose accept bit for its pattern
is set, and every position passed over is a rejection. Above
TABLE_MAX_PATTERNS distinct patterns the table would cost more rows than
the calls it saves, and windows go on instead: after a rejection the next
holds max(8, 2 x the run just accepted), doubling after each fully accepted
window. Either way the work stays linear in the payload plus the
rejections. Stage 2 scatters the placed carriers into the stego buffer; in
`ga` mode it first runs one GA batch over them, handed their optima. The GA
never beats the optimum, so stage 1's rejections stand, but a carrier the GA
leaves over the threshold is rejected too: stage 1's work past it is void,
and stage 1 resumes at the next position for a batch of max(8, 2 x the
carriers just accepted) groups, doubled after each batch the GA fully
accepts. It resumes from the same table, whose entries depend only on
position and pattern. GA rows thus also stay linear, and an embed whose GA
rejects nothing makes one GA call. A carrier's engine result depends on that
carrier alone (its raw sample, its pattern and, for the GA, its sample
index), so windows, tables and batches change the work done, never the
output.

The stego key file is the only thing an extractor needs besides the stego
audio. Its format is fixed: UTF-8 text, one "name = value" per line, the
twelve fields below in any order, nothing else.

    version = 1
    seed = 00000000000004d2        16 lowercase hex digits
    bit_depth = 16                 8 or 16
    layers = 1,5                   ascending, comma-separated
    mode = ga                      plain | nearest | ga
    threshold = inf                non-negative integer or "inf"
    ga_pop = 16
    ga_gens = 64
    ga_pc = 0.8
    ga_pm = 0.1
    payload_len = 42               bytes of message
    skipped = 17,130               rejected sample indices (>= 0), may be empty

A file is accepted only if format_key_file writes every field back exactly
as read, so one key has exactly one text: integers in plain ASCII digits,
ga_pc and ga_pm as Python's repr of the float.

The XOR keystream behind "seed" is obfuscation, not cryptography; treat the
key file as the secret.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import bitplane
from .bitplane import LayerMask
from .errors import (
    BitDepthMismatch,
    CapacityExhaustedBySkips,
    InsufficientCapacity,
    KeyMismatch,
    KeyParseError,
    SnrNotDefined,
)
from .ga_adjust import GaParams, run_ga_batch
from .keystream import MasterKey, derive_seed, permute_indices, xor_keystream
from .wav_io import AudioBuffer

MODES = ("plain", "nearest", "ga")
KEY_FORMAT_VERSION = 1
# Stage 1 places groups from an accept table only while the groups still to
# place have at most this many distinct patterns, and in windows above it:
# the table costs that many closed-form rows per walk position, and with few
# rejections more rows than the calls it saves (measured, CHANGES.md).
TABLE_MAX_PATTERNS = 16
# Cells (patterns x walk positions) of one table chunk at most: each of the
# closed form's temporaries holds this many int64s.
TABLE_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class EmbedConfig:
    mask: LayerMask
    key: MasterKey
    mode: str = "ga"
    threshold: int | float = math.inf
    ga_params: GaParams = field(default_factory=GaParams)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        t = self.threshold
        finite = isinstance(t, int) and not isinstance(t, bool) and t >= 0
        if not (finite or isinstance(t, float) and t == math.inf):
            raise ValueError(
                f"threshold must be a non-negative integer or infinity, got {t!r}"
            )


@dataclass(frozen=True)
class StegoKey:
    """Everything extraction needs: the embed's config plus what embed decided."""

    config: EmbedConfig
    payload_len_bytes: int
    skipped_indices: tuple[int, ...]

    def __post_init__(self):
        if self.payload_len_bytes < 0:
            raise ValueError("payload_len_bytes must be >= 0")
        skipped = tuple(self.skipped_indices)
        if any(b <= a for a, b in zip(skipped, skipped[1:])):
            raise ValueError("skipped_indices must be strictly increasing")
        if skipped and skipped[0] < 0:
            raise ValueError("skipped_indices must be >= 0")
        object.__setattr__(self, "skipped_indices", skipped)


@dataclass
class EmbedReport:
    samples_used: int
    samples_skipped: int
    max_deviation: int
    snr_db: float
    capacity_bits: int


def parse_threshold(text: str) -> int | float:
    """A threshold as the CLI and the key file write it: an integer or "inf"."""
    return math.inf if text == "inf" else int(text)


def capacity_bits(buffer: AudioBuffer, mask: LayerMask) -> int:
    """Payload bits the buffer can hold: samples times layers per sample."""
    if mask.bit_depth != buffer.bit_depth:
        raise BitDepthMismatch(
            f"mask is {mask.bit_depth}-bit but buffer is {buffer.bit_depth}-bit"
        )
    return len(buffer.samples) * mask.k


def snr_db(original: AudioBuffer, noise: int) -> float:
    """Signal-to-noise ratio of an embedding into `original`, in dB.

    `noise` is the sum of the squared sample-value differences between the
    original and the stego buffer (embed sums it over its carriers). No noise
    gives math.inf; a silent original with nonzero noise has no meaningful
    ratio and raises SnrNotDefined.
    """
    if noise == 0:
        return math.inf
    a = original.samples
    signal = int(a @ a)  # an integer dot product: the sum is exact
    if signal == 0:
        raise SnrNotDefined("original signal has zero energy but noise is present")
    return 10.0 * math.log10(signal / noise)


# --- embedding -----------------------------------------------------------------


def embed(
    cover: AudioBuffer, message: bytes, config: EmbedConfig
) -> tuple[AudioBuffer, StegoKey, EmbedReport]:
    """Hide message bytes in a copy of the cover; the cover is not modified.

    Returns the stego buffer, the key an extractor needs, and quality metrics.
    Raises InsufficientCapacity if the payload cannot fit at all, and
    CapacityExhaustedBySkips if threshold rejections use up the samples.
    """
    mask = config.mask
    if mask.bit_depth != cover.bit_depth:
        raise BitDepthMismatch(
            f"mask is {mask.bit_depth}-bit but cover is {cover.bit_depth}-bit"
        )
    n = len(cover.samples)
    ciphertext = xor_keystream(bytes(message), config.key)
    # bytes are consumed most-significant bit first, in rows of k bits, and
    # the last row is zero-padded
    bits = np.unpackbits(np.frombuffer(ciphertext, dtype=np.uint8))
    groups = mask.pack(np.pad(bits, (0, -len(bits) % mask.k)).reshape(-1, mask.k))
    m = len(groups)
    if m > n:
        raise InsufficientCapacity(
            f"{len(message)} message bytes need {m} samples, cover has {n}"
        )

    bit_depth = cover.bit_depth
    values = cover.samples
    raw_bits = (1 << bit_depth) - 1
    stego_values = values.copy()  # accepted carriers are scattered into it
    placer = _Placer(values, groups, config)
    skipped: list[int] = []  # sample indices of the rejected carriers
    max_dev = 0
    noise = 0  # sum of squared deviations; only accepted carriers differ
    pos = 0  # cursor into the permuted walk
    g = 0  # next unplaced payload group
    batch = m  # groups per stage 2 batch; only `ga` can reject in stage 2
    while g < m:
        if pos >= n:
            raise CapacityExhaustedBySkips(
                f"placed {g} of {m} groups before running out of samples "
                f"({len(skipped)} rejections)"
            )
        # Stage 1: place groups g.. at the walk positions from pos where
        # their closed-form value is within the threshold.
        where, carriers, skips, pos = placer.place(pos, g, min(m, g + batch))
        placed = len(where)

        # Stage 2: the engine's values for every placed carrier at once.
        # The GA never beats the closed form, so only a carrier whose GA
        # value exceeds the threshold can still be rejected here.
        idxs = placer.perm[where]
        if config.mode == "ga" and placed:
            seeds = derive_seed(config.key, "ga", idxs)
            carriers = run_ga_batch(
                values[idxs] & raw_bits, groups[g : g + placed], mask,
                config.ga_params, seeds, carriers,
            )
        modified = bitplane.values_of(carriers, bit_depth)
        devs = np.abs(modified - values[idxs])
        rejected = np.flatnonzero(devs > config.threshold)
        accepted = int(rejected[0]) if len(rejected) else placed
        stego_values[idxs[:accepted]] = modified[:accepted]
        max_dev = max(max_dev, int(devs[:accepted].max(initial=0)))
        noise += int(devs[:accepted] @ devs[:accepted])
        g += accepted
        if accepted < placed:
            # the first GA rejection: its sample stays original, stage 1's
            # placements and skips past it are void, and its bits retry at
            # the next position in a batch sized by the run just accepted
            stop = int(where[accepted])
            skips = [p for p in skips if p < stop] + [stop]
            pos = stop + 1
            batch = max(8, 2 * accepted)
        else:
            batch = 2 * batch
        skipped += placer.perm[skips].tolist()

    stego = AudioBuffer(stego_values, bit_depth, cover.sample_rate, cover.channels)
    key = StegoKey(config, len(message), tuple(sorted(skipped)))
    report = EmbedReport(
        samples_used=m,
        samples_skipped=len(skipped),
        max_deviation=max_dev,
        snr_db=snr_db(cover, noise),
        capacity_bits=capacity_bits(cover, mask),
    )
    return stego, key, report


def extract(stego: AudioBuffer, key: StegoKey) -> bytes:
    """Recover the message bytes using the stego key; inverse of embed."""
    mask = key.config.mask
    if mask.bit_depth != stego.bit_depth:
        raise BitDepthMismatch(
            f"key is {mask.bit_depth}-bit but stego is {stego.bit_depth}-bit"
        )
    if key.payload_len_bytes == 0 and not key.skipped_indices:
        return b""
    n = len(stego.samples)
    k = mask.k
    m = -(-8 * key.payload_len_bytes // k)  # groups, padded like embed
    # the skips that name a sample of the buffer, found on Python ints: an
    # index past it names none and need not fit an int64
    inside = bisect.bisect_left(key.skipped_indices, n)
    skip = np.zeros(n, dtype=bool)
    skip[np.asarray(key.skipped_indices[:inside], dtype=np.int64)] = True
    # at most `inside` of the first m + inside walk positions are skipped, so
    # that prefix holds every sample the payload used
    perm = permute_indices(n, key.config.key, m + inside)
    used = perm[~skip[perm]][:m]
    if len(used) < m:
        raise KeyMismatch(
            f"key declares {key.payload_len_bytes} payload bytes but the "
            f"stego buffer yields only {len(used)} usable samples of {m}"
        )
    if inside < len(key.skipped_indices):
        raise KeyMismatch(
            f"key skips sample {key.skipped_indices[-1]} but the stego buffer "
            f"has only {n} samples"
        )
    flat = mask.unpack(stego.samples[used]).reshape(-1)[: 8 * key.payload_len_bytes]
    ciphertext = np.packbits(flat.astype(np.uint8)).tobytes()
    return xor_keystream(ciphertext, key.config.key)


def _closed_form(config: EmbedConfig, raw: np.ndarray, pats: np.ndarray) -> np.ndarray:
    """Stage 1's raw carriers for raw samples `raw` and packed patterns `pats`:
    bit substitution in `plain` mode, else the nearest value, which is the
    `nearest` engine's result and the `ga` engine's optimum."""
    if config.mode == "plain":
        return (raw & ~config.mask.bits) | pats
    return bitplane.adjust_nearest_packed(raw, config.mask, pats)


class _Placer:
    """Stage 1 of embed: the walk positions and closed-form raw carriers of
    payload groups, skipping every position whose carrier is over the
    threshold. It owns the resolved prefix of the walk, `perm`.

    Until the first rejection it places groups in windows along the walk:
    the first window is the whole payload, so an embed without rejections
    makes one closed-form call. From the first rejection on, it places them
    from an accept table, which for walk positions start..end holds the
    closed-form carrier and its accept bit under each distinct pattern of
    the groups still to place, so a rejection costs no engine call. A group
    goes to the first position from the cursor whose accept bit for its
    pattern is set. Each chunk added to the table holds at least the groups
    left and half the table so far, but at most TABLE_CHUNK_CELLS cells, and
    ends at the latest at the resolved prefix, which at least doubles when
    the table reaches it; so the rows stay linear in the payload plus the
    rejections, and the calls logarithmic until chunks reach their cap.
    An entry depends only on its position and pattern, so the table stays
    valid after a GA-caused rejection; only a cursor moved back before
    `start` needs a new one. With more than TABLE_MAX_PATTERNS patterns the
    table's rows would cost more than the calls they save, and windows go
    on: after a rejection the next holds max(8, 2 x the run just accepted),
    doubling after each fully accepted window.
    """

    def __init__(self, values: np.ndarray, groups: np.ndarray, config: EmbedConfig):
        self.values = values
        self.groups = groups
        self.config = config
        self.perm = np.empty(0, dtype=np.int64)  # the resolved prefix of the walk
        self.window = len(groups)
        self.start = -1  # the table's first walk position; -1 before a rejection
        self.tabled = False  # whether groups are placed from the table

    def place(
        self, pos: int, g: int, goal: int
    ) -> tuple[np.ndarray, np.ndarray, list[int], int]:
        """Place groups g..goal-1 from walk position pos. Returns their walk
        positions, their raw carriers, the positions skipped before the last
        of them, and the position after it. It stops short of goal only at
        the end of the walk."""
        n = len(self.values)
        where = [np.empty(0, dtype=np.int64)]
        carriers = [np.empty(0, dtype=np.int64)]
        skips: list[int] = []
        if len(self.perm) and self.start < 0:
            # a later call follows a GA-caused rejection, the embed's first
            self._new_table(pos, g)
        while g < goal and pos < n:
            if self.tabled:
                if pos < self.start:
                    self._new_table(pos, g)
                pos, g = self._scan(pos, g, goal, where, carriers, skips)
                continue
            width = min(self.window, goal - g, n - pos)
            if pos + width > len(self.perm):
                self.perm = permute_indices(
                    n, self.config.key, max(pos + width, 2 * len(self.perm))
                )
            out, ok = self._closed_forms(
                self.perm[pos : pos + width], self.groups[g : g + width]
            )
            rejected = np.flatnonzero(~ok)
            accepted = int(rejected[0]) if len(rejected) else width
            where.append(np.arange(pos, pos + accepted))
            carriers.append(out[:accepted])
            g += accepted
            if accepted < width:
                # the sample at the rejection stays original; its bits retry
                # at the next position
                skips.append(pos + accepted)
                pos += accepted + 1
                self.window = max(8, 2 * accepted)
                if self.start < 0:
                    self._new_table(pos, g)
            else:
                pos += width
                self.window = 2 * width
        return np.concatenate(where), np.concatenate(carriers), skips, pos

    def _scan(
        self, pos: int, g: int, goal: int,
        where: list[np.ndarray], carriers: list[np.ndarray], skips: list[int],
    ) -> tuple[int, int]:
        """Place groups g.. from pos by the table, up to goal or the end of
        the walk, appending to where, carriers and skips; returns pos and g."""
        n = len(self.values)
        rows, first = self.rows, self.first
        cols: list[int] = []  # the table columns of groups placed one by one
        placed_rows: list[int] = []  # and their patterns' table rows

        def flush():
            where.append(np.asarray(cols, dtype=np.int64) + self.start)
            carriers.append(self.out[placed_rows, cols])
            cols.clear()
            placed_rows.clear()

        run = 0  # groups placed since the last skip
        while g < goal:
            if pos == self.end:
                if pos == n:
                    break
                self._extend(goal - g)
            col = pos - self.start
            if run >= 8:
                # a run of accepts: read the next groups' table entries
                # along the diagonal at once, as if no position were skipped
                flush()
                i = g - first
                width = min(2 * run, goal - g, self.end - pos)
                got = self.out[self.row_array[i : i + width], np.arange(col, col + width)]
                rejected = np.flatnonzero(got < 0)
                accepted = int(rejected[0]) if len(rejected) else width
                where.append(np.arange(pos, pos + accepted))
                carriers.append(got[:accepted])
                pos += accepted
                g += accepted
                run = run + accepted if accepted == width else 0
                continue
            row = rows[g - first]
            hit = self.accept_bytes[row].find(1, col)
            if hit < 0:  # no accepted position up to the table's end
                skips.extend(range(pos, self.end))
                pos = self.end
                run = 0
                continue
            skips.extend(range(pos, self.start + hit))
            run = run + 1 if hit == col else 1
            cols.append(hit)
            placed_rows.append(row)
            pos = self.start + hit + 1
            g += 1
        flush()
        return pos, g

    def _closed_forms(
        self, idxs: np.ndarray, pats: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The raw closed-form carriers of the samples at walk indices `idxs`
        under the packed patterns `pats`, broadcast against them, and their
        accept bits."""
        c = self.config
        samples = self.values[idxs]
        out = _closed_form(c, samples & ((1 << c.mask.bit_depth) - 1), pats)
        devs = np.abs(bitplane.values_of(out, c.mask.bit_depth) - samples)
        return out, devs <= c.threshold

    def _new_table(self, pos: int, g: int) -> None:
        """An empty table from walk position pos, for groups g.. ."""
        patterns, rows = np.unique(self.groups[g:], return_inverse=True)
        self.tabled = len(patterns) <= TABLE_MAX_PATTERNS
        self.patterns = patterns[:, None]
        self.row_array = rows  # group g + i has the pattern in row rows[i]
        self.rows = rows.tolist()
        self.first = g
        self.start = self.end = pos
        # the raw carriers, -1 where rejected, in a buffer that doubles
        # when full; and each row's accept bits as bytes, for find
        self.out = np.empty((len(patterns), 0), dtype=np.int32)
        self.accept_bytes = [bytearray() for _ in patterns]

    def _extend(self, left: int) -> None:
        """Add a chunk at the table's end, with `left` groups still to place."""
        pos = self.end
        if pos == len(self.perm):
            self.perm = permute_indices(
                len(self.values), self.config.key, max(pos + left, 2 * pos)
            )
        width = min(max(8, left, (pos - self.start) // 2),
                    TABLE_CHUNK_CELLS // len(self.patterns))
        self.end = min(pos + width, len(self.perm))
        out, ok = self._closed_forms(self.perm[None, pos : self.end], self.patterns)
        a, b = pos - self.start, self.end - self.start
        if b > self.out.shape[1]:
            grown = np.empty((len(self.patterns), 2 * b), dtype=np.int32)
            grown[:, :a] = self.out[:, :a]
            self.out = grown
        self.out[:, a:b] = np.where(ok, out, -1)
        for bits, more in zip(self.accept_bytes, ok):
            bits += more.tobytes()


# --- key file serialization ------------------------------------------------------


def _key_fields(key: StegoKey) -> dict[str, str]:
    """Each key file field's text, in file order: the one text of a key."""
    c = key.config
    p = c.ga_params
    return {
        "version": str(KEY_FORMAT_VERSION),
        "seed": c.key.hex(),
        "bit_depth": str(c.mask.bit_depth),
        "layers": ",".join(map(str, c.mask.layers)),
        "mode": c.mode,
        "threshold": str(c.threshold),  # str(math.inf) is "inf"
        "ga_pop": str(p.population_size),
        "ga_gens": str(p.generations),
        "ga_pc": repr(float(p.crossover_prob)),
        "ga_pm": repr(float(p.mutation_prob)),
        "payload_len": str(key.payload_len_bytes),
        "skipped": ",".join(map(str, key.skipped_indices)),
    }


# the field names in file order; any key lists the same ones
_FIELD_NAMES = tuple(
    _key_fields(StegoKey(EmbedConfig(LayerMask((1,), 8), MasterKey(0)), 0, ()))
)


def format_key_file(key: StegoKey) -> str:
    """Render a StegoKey in the documented key file format."""
    return "".join(f"{name} = {text}\n" for name, text in _key_fields(key).items())


def parse_key_file(text: str) -> StegoKey:
    """Parse the documented key file format.

    The parser checks the line syntax, the twelve fields each exactly once
    and the version. It converts each value with int (int(value, 16) for
    seed), float or parse_threshold and builds the key through the
    constructors (LayerMask, GaParams, EmbedConfig, StegoKey), which check
    every value range; their ValueError becomes KeyParseError. A file is
    accepted only if format_key_file writes every field back exactly as read,
    so one key has exactly one text: seed as 16 lowercase hex digits, layers
    ascending, integers as str writes them (ASCII digits, no "+", leading
    zero, "_" or space), ga_pc and ga_pm as repr(float) writes them.
    """
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise KeyParseError(f"line {lineno}: expected 'name = value'")
        name = name.strip()
        if name not in _FIELD_NAMES:
            raise KeyParseError(f"line {lineno}: unknown field {name!r}")
        if name in fields:
            raise KeyParseError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = value.strip()
    missing = [f for f in _FIELD_NAMES if f not in fields]
    if missing:
        raise KeyParseError(f"missing fields: {', '.join(missing)}")

    def read(name, convert=int):
        try:
            return convert(fields[name])
        except ValueError:
            raise KeyParseError(f"field {name}: cannot read {fields[name]!r}") from None

    def ints(name):
        return read(name, lambda t: tuple(int(x) for x in t.split(",")) if t else ())

    if read("version") != KEY_FORMAT_VERSION:
        raise KeyParseError(f"unsupported key format version {fields['version']}")
    try:
        config = EmbedConfig(
            mask=LayerMask(ints("layers"), read("bit_depth")),
            key=MasterKey(read("seed", lambda t: int(t, 16))),
            mode=fields["mode"],
            threshold=read("threshold", parse_threshold),
            ga_params=GaParams(
                population_size=read("ga_pop"),
                generations=read("ga_gens"),
                crossover_prob=read("ga_pc", float),
                mutation_prob=read("ga_pm", float),
            ),
        )
        key = StegoKey(config, read("payload_len"), ints("skipped"))
    except ValueError as exc:
        raise KeyParseError(str(exc)) from exc
    for name, written in _key_fields(key).items():
        if fields[name] != written:
            raise KeyParseError(
                f"field {name}: cannot read {fields[name]!r} (the key writes {written!r})"
            )
    return key
