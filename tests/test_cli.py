"""CLI: subcommand behavior, exit codes, reports, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gastego
from gastego import bitplane, ga_adjust, pipeline
from gastego.cli import main
from gastego.wav_io import AudioBuffer, parse_wav, write_wav
from test_pipeline import TestKeyFile as KeyFileCases


@pytest.fixture
def workspace(tmp_path):
    rnd = random.Random(1)
    cover = AudioBuffer(
        [rnd.randint(-32768, 32767) for _ in range(20000)], 16, 44100, 1
    )
    cover_path = tmp_path / "cover.wav"
    cover_path.write_bytes(write_wav(cover))
    msg_path = tmp_path / "msg.bin"
    msg_path.write_bytes(b"meet me where the river bends\x00\x01\x02")
    return tmp_path, cover_path, msg_path


def run_embed(tmp_path, cover_path, msg_path, *extra):
    out = tmp_path / "stego.wav"
    key = tmp_path / "key.txt"
    code = main(
        [
            "embed",
            "--cover", str(cover_path),
            "--message", str(msg_path),
            "--out", str(out),
            "--key-out", str(key),
            *extra,
        ]
    )
    return code, out, key


class TestEmbedExtract:
    def test_round_trip(self, workspace, tmp_path):
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path, "--seed", "0xBEEF")
        assert code == 0
        recovered = tmp_path / "rec.bin"
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(recovered)]) == 0
        assert recovered.read_bytes() == msg_path.read_bytes()

    def test_zero_length_message(self, workspace, capsys):
        ws, cover_path, msg_path = workspace
        empty = ws / "empty.bin"
        empty.write_bytes(b"")
        code, out, key = run_embed(ws, cover_path, empty)
        assert code == 0
        assert out.read_bytes() == cover_path.read_bytes()
        assert "samples_used: 0" in capsys.readouterr().out
        rec = ws / "rec.bin"
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(rec)]) == 0
        assert rec.read_bytes() == b""

    def test_deterministic_given_flags(self, workspace):
        ws, cover_path, msg_path = workspace
        _, out1, key1 = run_embed(ws, cover_path, msg_path, "--seed", "7")
        stego1, keytext1 = out1.read_bytes(), key1.read_text()
        _, out2, key2 = run_embed(ws, cover_path, msg_path, "--seed", "7")
        assert out2.read_bytes() == stego1
        assert key2.read_text() == keytext1

    def test_snr_ordering_between_modes_via_report(self, workspace):
        ws, cover_path, msg_path = workspace
        reports = {}
        for mode in ("plain", "nearest"):
            rep = ws / f"report-{mode}.json"
            code, _, _ = run_embed(
                ws, cover_path, msg_path,
                "--mode", mode, "--layers", "3,5", "--seed", "5",
                "--report", str(rep),
            )
            assert code == 0
            reports[mode] = json.loads(rep.read_text())
        assert set(reports["plain"]) == {
            "samples_used", "samples_skipped", "max_deviation", "snr_db",
            "capacity_bits",
        }
        assert reports["nearest"]["snr_db"] >= reports["plain"]["snr_db"]

    def test_report_text_on_stdout_and_in_json(self, workspace, capsys):
        # stdout prints every report field; the JSON holds the same fields,
        # with null for the infinite SNR of a stego file equal to its cover
        ws, cover_path, msg_path = workspace
        empty = ws / "empty.bin"
        empty.write_bytes(b"")
        rep = ws / "report.json"
        capsys.readouterr()
        assert run_embed(ws, cover_path, empty, "--report", str(rep))[0] == 0
        assert capsys.readouterr().out == (
            "samples_used: 0\nsamples_skipped: 0\nmax_deviation: 0\n"
            "snr_db: inf\ncapacity_bits: 20000\n"
        )
        assert rep.read_text() == (
            '{\n  "samples_used": 0,\n  "samples_skipped": 0,\n'
            '  "max_deviation": 0,\n  "snr_db": null,\n  "capacity_bits": 20000\n}\n'
        )
        assert run_embed(ws, cover_path, msg_path, "--mode", "plain",
                         "--report", str(rep))[0] == 0
        report = json.loads(rep.read_text())
        assert capsys.readouterr().out.splitlines() == [
            f"{name}: {value}" for name, value in report.items()
        ]

    def test_seed_from_message_ga(self, workspace):
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path, "--seed-from-message-ga")
        assert code == 0
        rec = ws / "rec.bin"
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(rec)]) == 0
        assert rec.read_bytes() == msg_path.read_bytes()

    def test_random_seed_round_trips(self, workspace):
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path, "--random-seed")
        assert code == 0
        rec = ws / "rec.bin"
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(rec)]) == 0
        assert rec.read_bytes() == msg_path.read_bytes()


class TestExitCodes:
    def test_missing_cover_file_is_io_error(self, workspace):
        ws, _cover, msg_path = workspace
        code, _, _ = run_embed(ws, ws / "nope.wav", msg_path)
        assert code == 1

    def test_capacity_error_is_2(self, workspace):
        ws, _cover, msg_path = workspace
        tiny = ws / "tiny.wav"
        tiny.write_bytes(write_wav(AudioBuffer([0] * 8, 16, 8000, 1)))
        code, _, _ = run_embed(ws, tiny, msg_path)
        assert code == 2

    def test_threshold_exhaustion_is_2(self, workspace):
        ws, _cover, msg_path = workspace
        flat = ws / "flat.wav"
        flat.write_bytes(write_wav(AudioBuffer([47] * 4000, 8, 8000, 1)))
        code, _, _ = run_embed(
            ws, flat, msg_path, "--layers", "5", "--mode", "nearest",
            "--threshold", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("threshold", ["-3", "abc"])
    def test_bad_threshold_is_2(self, workspace, threshold):
        ws, cover_path, msg_path = workspace
        code, out, _ = run_embed(ws, cover_path, msg_path, "--threshold", threshold)
        assert code == 2
        assert not out.exists()

    def test_oversize_output_is_2(self, workspace, monkeypatch, capsys):
        # a stego too large for the RIFF size fields: one broadcast zero, so
        # nothing that large is allocated
        ws, cover_path, msg_path = workspace
        huge = AudioBuffer(np.broadcast_to(np.int64(0), (2**31 + 1,)), 16, 8000, 1)
        monkeypatch.setattr(pipeline, "embed", lambda *args: (huge, None, None))
        code, out, _ = run_embed(ws, cover_path, msg_path, "--mode", "plain")
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_silent_cover_is_2(self, workspace, capsys):
        # an embed that changes an all-zero cover has no defined SNR: a
        # configuration problem, and no output file is written
        ws, _cover, msg_path = workspace
        silent = ws / "silent.wav"
        silent.write_bytes(write_wav(AudioBuffer([0] * 4000, 16, 8000, 1)))
        code, out, key = run_embed(ws, silent, msg_path, "--mode", "plain")
        assert code == 2
        assert "zero energy" in capsys.readouterr().err
        assert not out.exists() and not key.exists()

    def test_truncated_stego_is_key_mismatch_3(self, workspace):
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path)
        assert code == 0
        stego = parse_wav(out.read_bytes())
        short = AudioBuffer(stego.samples[:64], 16, stego.sample_rate, 1)
        out.write_bytes(write_wav(short))
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(ws / "rec.bin")]) == 3

    def test_malformed_key_is_1(self, workspace):
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path)
        key.write_text(key.read_text() + "intruder = 1\n")
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(ws / "rec.bin")]) == 1

    def test_non_utf8_key_is_1(self, workspace, capsys):
        # a key file that is not UTF-8 text is a parse failure, not a
        # configuration problem
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path)
        key.write_bytes(b"\xff\xfe")
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(ws / "rec.bin")]) == 1
        assert "key file is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation", KeyFileCases.STRICT_MUTATIONS)
    def test_strict_key_parsing_is_1(self, workspace, mutation, capsys):
        # every key text the parser rejects is a parse failure, never a
        # configuration problem; the golden text itself extracts
        ws, cover_path, _msg = workspace
        key = ws / "key.txt"
        argv = ["extract", "--stego", str(cover_path), "--key", str(key),
                "--out", str(ws / "rec.bin")]
        key.write_text(KeyFileCases.GOLDEN_TEXT)
        assert main(argv) == 0
        key.write_text(mutation(KeyFileCases.GOLDEN_TEXT))
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("skipped", ["17,20000", "17,9223372036854775808"])
    def test_skipped_index_outside_stego_is_3(self, workspace, skipped, capsys):
        # the cover has 20,000 samples, so the key names a sample it lacks;
        # 2**63 does not even fit an int64
        ws, cover_path, _msg = workspace
        key = ws / "key.txt"
        key.write_text(
            KeyFileCases.GOLDEN_TEXT.replace("skipped = 17,130", f"skipped = {skipped}")
        )
        assert main(["extract", "--stego", str(cover_path), "--key", str(key),
                     "--out", str(ws / "rec.bin")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_wav_is_1(self, workspace):
        ws, cover_path, msg_path = workspace
        code, out, key = run_embed(ws, cover_path, msg_path)
        out.write_bytes(b"not a wav at all")
        assert main(["extract", "--stego", str(out), "--key", str(key),
                     "--out", str(ws / "rec.bin")]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("keygen-ga", "--pop"),
        ("embed", "--ga-pop"),
    ], ids=["keygen-ga", "embed"])
    def test_memory_exhaustion_is_2(self, workspace, command, flag):
        # the child caps its address space at 3 GB before it imports
        # anything, so the huge population fails to allocate and nothing is
        # touched; if the cap cannot be set, the child fails without running
        ws, cover_path, _ = workspace
        msg_path = ws / "msg512.bin"
        msg_path.write_bytes(random.Random(512).randbytes(512))
        argv = [command, "--message", str(msg_path), flag, "100000000"]
        if command == "embed":
            argv += ["--cover", str(cover_path), "--out", str(ws / "stego.wav"),
                     "--key-out", str(ws / "key.txt")]
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))\n"
            "from gastego.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(gastego.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert not (ws / "stego.wav").exists()


class TestInspect:
    def test_prints_format_and_capacity(self, workspace, capsys):
        ws, cover_path, _ = workspace
        assert main(["inspect", "--wav", str(cover_path), "--layers", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "bit_depth: 16" in out
        assert "samples: 20000" in out
        assert "capacity_bits: 40000" in out
        assert "capacity_bytes: 5000" in out

    def test_zero_channel_wav_is_1(self, tmp_path, capsys):
        wav = bytearray(write_wav(AudioBuffer([1, 2], 16, 8000, 1)))
        wav[22:24] = bytes(2)  # the fmt chunk's channel count
        path = tmp_path / "zero.wav"
        path.write_bytes(wav)
        assert main(["inspect", "--wav", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: channel count 0\n"


class TestKeygenGa:
    def test_uniform_message(self, tmp_path, capsys):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"AAAA")
        assert main(["keygen-ga", "--message", str(msg)]) == 0
        out = capsys.readouterr().out
        assert "fitness: 1" in out
        assert "generations: 0" in out

    def test_two_values_reach_optimum(self, tmp_path, capsys):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"AB")
        assert main(["keygen-ga", "--message", str(msg), "--emit-master-key"]) == 0
        out = capsys.readouterr().out
        assert "fitness: 2" in out
        assert "master_key: " in out
        key_line = [l for l in out.splitlines() if l.startswith("master_key")][0]
        assert len(key_line.split(": ")[1]) == 16

    def test_unreachable_optimum_is_2(self, tmp_path, capsys):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"AB")
        assert main(["keygen-ga", "--message", str(msg), "--genes", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: 1 genes per individual cannot cover 2 distinct values\n"
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--pop", "1", "population_size must be >= 2"),
        ("--genes", "0", "genes_per_individual must be >= 1"),
        ("--max-gens", "0", "max_generations must be >= 1"),
    ])
    def test_bad_ga_params_are_2(self, tmp_path, capsys, flag, value, message):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"AB")
        assert main(["keygen-ga", "--message", str(msg), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_empty_message_is_2(self, tmp_path, capsys):
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"")
        assert main(["keygen-ga", "--message", str(msg)]) == 2
        assert capsys.readouterr().err == "error: cannot profile an empty message\n"

    def test_stalled_ga_is_2(self, tmp_path, capsys):
        # a dense_payload-style 512 B message on which the GA never rises
        # above its generation-0 best: stdout is printed as for a success,
        # and the exit code and stderr report the shortfall
        msg = tmp_path / "m.bin"
        msg.write_bytes(
            np.random.default_rng([15, 1, 8, 0]).integers(0, 256, 512, dtype=np.uint8).tobytes()
        )
        assert main(["keygen-ga", "--message", str(msg),
                     "--seed", "0xdd701e200c880b3f"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("best: ")
        assert lines[1:] == ["fitness: 137", "distinct_values: 216", "generations: 10000"]
        assert captured.err.startswith("error: ")

    def test_generation_cap_below_optimum_is_2(self, tmp_path, capsys):
        msg = tmp_path / "m.bin"
        msg.write_bytes(bytes(range(64)))
        assert main(["keygen-ga", "--message", str(msg), "--max-gens", "1",
                     "--emit-master-key"]) == 2
        captured = capsys.readouterr()
        fields = dict(line.split(": ") for line in captured.out.splitlines())
        assert set(fields) == {"best", "fitness", "distinct_values", "generations",
                               "master_key"}
        assert int(fields["fitness"]) < int(fields["distinct_values"]) == 64
        assert fields["generations"] == "1"
        assert captured.err.startswith("error: ")


class TestOracleCheck:
    def test_default_sections_pass(self, capsys):
        # the >= 99% gate is noisy below a few hundred GA cases, so the test
        # pins a sample count and seed that represent a healthy build
        assert main(["oracle-check", "--samples", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "nearest 8-bit: 32768/32768 (100.00% match)" in out
        assert "nearest 16-bit: 2000/2000 (100.00% match)" in out
        assert "never worse than plain: True" in out

    @pytest.mark.parametrize("bit_depth", ["8", "16"])
    def test_samples_zero_stdout_pinned(self, bit_depth, capsys):
        assert main(["oracle-check", "--samples", "0", "--bit-depth", bit_depth]) == 0
        assert capsys.readouterr().out == (
            "nearest 8-bit: 32768/32768 (100.00% match)\n"
            "nearest 16-bit: 2000/2000 (100.00% match)\n"
            "ga: skipped (--samples 0)\n"
        )

    @pytest.mark.parametrize("bit_depth, code, ga_line", [
        ("8", 0, "ga 8-bit: 20/20 optimal (100.00%), never worse than plain: True"),
        ("16", 4, "ga 16-bit: 19/20 optimal (95.00%), never worse than plain: True"),
        # the default 300 cases at the default seed, as the README quotes them
        ("8", 0, "ga 8-bit: 297/300 optimal (99.00%), never worse than plain: True"),
        ("16", 4, "ga 16-bit: 289/300 optimal (96.33%), never worse than plain: True"),
    ])
    def test_ga_section_stdout_pinned(self, bit_depth, code, ga_line, capsys):
        # the GA cases are drawn from the generator after the 16-bit sweep, so
        # this line also pins the sweep's draw order; the case count is the
        # one the line reports, and the 20-case lines use seed 3
        cases = ga_line.split("/")[1].split()[0]
        seed = "3" if cases == "20" else "0"
        argv = ["oracle-check", "--samples", cases, "--bit-depth", bit_depth,
                "--seed", seed]
        assert main(argv) == code
        assert capsys.readouterr().out == (
            "nearest 8-bit: 32768/32768 (100.00% match)\n"
            "nearest 16-bit: 2000/2000 (100.00% match)\n"
            f"{ga_line}\n"
        )

    def test_samples_zero_skips_ga_section(self, capsys):
        assert main(["oracle-check", "--samples", "0"]) == 0
        assert "ga: skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("depth, lines", [
        (8, "nearest 8-bit: 11610/32768 (35.43% match)\n"
            "nearest 16-bit: 2000/2000 (100.00% match)\n"),
        (16, "nearest 8-bit: 32768/32768 (100.00% match)\n"
             "nearest 16-bit: 648/2000 (32.40% match)\n"),
    ], ids=("8", "16"))
    def test_fault_injection_exits_4(self, depth, lines, monkeypatch, capsys):
        # an adjuster that only substitutes at one bit depth must be caught
        # there as a contract violation, and only there
        real = bitplane.adjust_nearest_packed

        def substitute(samples, mask, pattern_bits):
            if mask.bit_depth != depth:
                return real(samples, mask, pattern_bits)
            return (samples & ~mask.bits) | pattern_bits

        monkeypatch.setattr(bitplane, "adjust_nearest_packed", substitute)
        assert main(["oracle-check", "--samples", "0"]) == 4
        assert capsys.readouterr().out == lines

    def test_negative_samples_is_2(self, capsys):
        # checked before any sweep runs, so nothing reaches stdout
        assert main(["oracle-check", "--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples must be >= 0, got -5" in captured.err

    def test_ga_below_bar_exits_4(self, monkeypatch, capsys):
        # a GA that only substitutes is never worse than plain, yet misses
        # the optimum far below the 99% bar
        monkeypatch.setattr(
            ga_adjust, "run_ga_batch",
            lambda samples, pattern_bits, mask, params, seeds, optimum:
                (samples & ~mask.bits) | pattern_bits,
        )
        assert main(["oracle-check", "--samples", "100"]) == 4
        captured = capsys.readouterr()
        assert "never worse than plain: True" in captured.out
        assert "below its optimality bar" in captured.err
