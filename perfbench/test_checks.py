"""The benchmark's output checks accept real gastego outputs and reject
damaged ones."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from gastego.cli import main  # noqa: E402

SMALL = inputs.Workload("small", 16, 1, 4000, 64, (2, 5), None, 1, 1)
SMALL_THRESHOLD = inputs.Workload("small_threshold", 8, 1, 4000, 4, (4,), 3, 1, 1)


def embed(tmp_path, capsys, workload, mode):
    inp = inputs.make_inputs(inputs.WORKLOADS["dense_payload"], 7, 0)
    cover = inp.cover[: workload.samples]
    if workload.bit_depth == 8:
        cover = (cover >> 8) + 128
    inputs.write_cover(tmp_path / "cover.wav", workload, cover)
    (tmp_path / "msg.bin").write_bytes(inp.message[: workload.message_bytes])
    argv = ["embed", "--cover", str(tmp_path / "cover.wav"),
            "--message", str(tmp_path / "msg.bin"),
            "--out", str(tmp_path / "stego.wav"), "--key-out", str(tmp_path / "key"),
            "--mode", mode, "--layers", ",".join(map(str, workload.layers)),
            "--seed", "0x5eed"]
    if workload.threshold is not None:
        argv += ["--threshold", str(workload.threshold)]
    capsys.readouterr()
    assert main(argv) == 0
    return {
        "cover": checks.read_wav(tmp_path / "cover.wav"),
        "stego": checks.read_wav(tmp_path / "stego.wav"),
        "key_text": (tmp_path / "key").read_text(),
        "stdout": capsys.readouterr().out,
    }


def run_checks(out, workload, mode):
    return checks.check_embed(
        mode, out["cover"], out["stego"], out["key_text"], out["stdout"],
        workload.mask_bits, workload.threshold, workload.groups,
    )


def damaged(audio, index, value):
    samples = audio.samples.copy()
    samples[index] = value
    return replace(audio, samples=samples)


def changed(out):
    return np.flatnonzero(out["cover"].samples != out["stego"].samples)


@pytest.mark.parametrize("workload", [SMALL, SMALL_THRESHOLD], ids=lambda w: w.name)
@pytest.mark.parametrize("mode", ["plain", "nearest", "ga"])
def test_real_outputs_pass(tmp_path, capsys, workload, mode):
    found = run_checks(embed(tmp_path, capsys, workload, mode), workload, mode)
    if workload.threshold is not None:
        assert found["rejections"] > 0


def test_flipped_non_mask_bit_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL, "plain")
    i = changed(out)[0]
    out["stego"] = damaged(out["stego"], i, out["stego"].samples[i] ^ 0b100)
    with pytest.raises(checks.CheckError, match="non-mask"):
        run_checks(out, SMALL, "plain")


def test_nearest_moved_one_step_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL, "nearest")
    c, s = out["cover"].samples, out["stego"].samples
    # one step away from the cover that keeps the sample's mask bits
    i = next(i for i in changed(out)
             if not (s[i] ^ (s[i] + np.sign(s[i] - c[i]))) & SMALL.mask_bits)
    out["stego"] = damaged(out["stego"], i, s[i] + np.sign(s[i] - c[i]))
    with pytest.raises(checks.CheckError, match="not the optimum"):
        checks.check_nearest(out["cover"], out["stego"], SMALL.mask_bits)


def test_ga_worse_than_plain_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL, "ga")
    i = changed(out)[0]
    out["stego"] = damaged(out["stego"], i, out["stego"].samples[i] ^ 0x4000)
    with pytest.raises(checks.CheckError, match="more than plain"):
        checks.check_ga(out["cover"], out["stego"], SMALL.mask_bits)


def test_flipped_payload_bit_fails(tmp_path, capsys):
    outs = {}
    for mode in ("ga", "plain", "nearest"):
        (tmp_path / mode).mkdir()
        outs[mode] = embed(tmp_path / mode, capsys, SMALL, mode)
    stegos = {mode: out["stego"] for mode, out in outs.items()}
    checks.check_same_payload(stegos, SMALL.mask_bits)
    for mode in ("plain", "nearest"):
        i = changed(outs[mode])[0]  # a carrier that now holds a wrong bit
        s = stegos[mode].samples
        bad = dict(stegos, **{mode: damaged(stegos[mode], i, s[i] ^ 0b10)})
        with pytest.raises(checks.CheckError, match="different mask bits"):
            checks.check_same_payload(bad, SMALL.mask_bits)


def test_deviation_above_threshold_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL_THRESHOLD, "ga")
    out["stego"] = damaged(out["stego"], 0, out["cover"].samples[0] ^ 0b1000)
    with pytest.raises(checks.CheckError, match="threshold"):
        checks.check_threshold(out["cover"], out["stego"], SMALL_THRESHOLD.threshold)


def test_changed_skipped_sample_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL_THRESHOLD, "plain")
    i = checks.key_skipped(out["key_text"])[0]
    out["stego"] = damaged(out["stego"], i, out["cover"].samples[i] ^ 0b1000)
    with pytest.raises(checks.CheckError, match="skipped"):
        checks.check_skipped(out["cover"], out["stego"], checks.key_skipped(out["key_text"]))


def test_too_many_changed_samples_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL, "plain")
    unchanged = np.flatnonzero(out["cover"].samples == out["stego"].samples)
    stego = out["stego"].samples.copy()
    stego[unchanged[: SMALL.groups]] ^= 0b10
    out["stego"] = replace(out["stego"], samples=stego)
    with pytest.raises(checks.CheckError, match="at most"):
        checks.check_changed_count(out["cover"], out["stego"], SMALL.groups)


def test_wrong_printed_snr_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL, "nearest")
    snr = checks.snr_db(out["cover"], out["stego"])
    with pytest.raises(checks.CheckError, match="snr"):
        checks.check_snr(out["cover"], out["stego"], repr(snr + 1e-6))


def test_changed_format_fails(tmp_path, capsys):
    out = embed(tmp_path, capsys, SMALL, "plain")
    with pytest.raises(checks.CheckError, match="length"):
        checks.check_format(out["cover"], replace(out["stego"], samples=out["stego"].samples[:-1]))
    with pytest.raises(checks.CheckError, match="channels"):
        checks.check_format(out["cover"], replace(out["stego"], channels=2))


def test_truncated_recovery_fails():
    with pytest.raises(checks.CheckError):
        checks.check_recovered(b"secret", b"secre")
    checks.check_recovered(b"secret", b"secret")


def test_keygen_output():
    message = bytes([3, 1, 4, 1, 5])
    good = "best: 1,3,4,5\nfitness: 4\ndistinct_values: 4\ngenerations: 2\n"
    assert checks.check_keygen(message, good) == 2
    with pytest.raises(checks.CheckError, match="misses"):
        checks.check_keygen(message, good.replace("1,3,4,5", "1,3,4,9"))
    with pytest.raises(checks.CheckError, match="fitness"):
        checks.check_keygen(message, good.replace("fitness: 4", "fitness: 3"))


def test_changed_repeat_fails():
    checks.check_identical(b"same", b"same", "stego")
    with pytest.raises(checks.CheckError):
        checks.check_identical(b"same", b"sane", "stego")
