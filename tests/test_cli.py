"""End-to-end CLI behavior: flags, exit codes, reproducible outputs."""

import collections
import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from tinyasc import cli, data, quantize, zoo
from tinyasc.frontend import FrontendConfig, Waveform, log_mel, spectrogram_to_csv


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args):
    """Invoke the CLI in-process, capturing the exit code."""
    return cli.main(args)


def run_cli_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "tinyasc.cli", *args], capture_output=True, text=True
    )


class TestUsage:
    def test_no_arguments_exits_2(self):
        result = run_cli_subprocess([])
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_unknown_flag_exits_2(self):
        result = run_cli_subprocess(["audit", "--no-such-flag"])
        assert result.returncode == 2

    def test_bad_filters_exits_2(self):
        result = run_cli_subprocess(["audit", "--filters", "48"])
        assert result.returncode == 2


class TestFeatures:
    def test_wav_to_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        wav_path = tmp_path / "in.wav"
        data.write_wav(wav_path, Waveform(rng.uniform(-0.5, 0.5, 44100), 44100), bits=24)
        out_path = tmp_path / "spec.csv"
        code = run_cli(["features", "--wav", str(wav_path), "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 64
        assert all(len(line.split(",")) == 51 for line in lines)

    def test_every_frontend_flag_reaches_the_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        samples = np.concatenate([rng.uniform(-0.5, 0.5, 11025), np.zeros(11025)])  # silence meets the floor
        wav_path = tmp_path / "in.wav"
        data.write_wav(wav_path, Waveform(samples, 44100), bits=16)
        values = dict(
            window_ms=30.0, hop_fraction=0.25, n_mels=20, fft_size=4096, fmin=50.0, fmax=8000.0, log_floor=1e-6
        )
        cfg = tmp_path / "frontend.conf"
        cfg.write_text("log-floor=1e-6\n")
        flags = [
            arg for name, v in values.items() if name != "log_floor" for arg in (f"--{name.replace('_', '-')}", str(v))
        ]
        out_path = tmp_path / "spec.csv"
        assert run_cli(["--config", str(cfg), "features", "--wav", str(wav_path), "--out", str(out_path), *flags]) == 0
        wav = data.read_wav(wav_path)
        got = out_path.read_text()
        assert got == spectrogram_to_csv(log_mel(wav, FrontendConfig(**values)))
        for f in dataclasses.fields(FrontendConfig):  # each value shows in the output
            assert got != spectrogram_to_csv(log_mel(wav, FrontendConfig(**{**values, f.name: f.default})))

    def test_missing_wav_exits_1(self, tmp_path, capsys):
        code = run_cli(["features", "--wav", str(tmp_path / "absent.wav")])
        assert code == 1

    def test_truncated_wav_is_one_error_line(self, tmp_path):
        wav_path = tmp_path / "cut.wav"
        data.write_wav(wav_path, Waveform(np.zeros(1000), 44100), bits=16)
        wav_path.write_bytes(wav_path.read_bytes()[:-10])
        result = run_cli_subprocess(["features", "--wav", str(wav_path)])
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(f"error: {wav_path}: data chunk declares 2000 bytes, only 1990 present")
        assert result.stdout == ""

    def test_inconsistent_block_align_is_one_error_line(self, tmp_path):
        wav_path = tmp_path / "align.wav"
        data.write_wav(wav_path, Waveform(np.zeros(1000), 44100), bits=16)
        raw = bytearray(wav_path.read_bytes())
        raw[32:34] = struct.pack("<H", 4)  # the fmt chunk's block_align
        wav_path.write_bytes(bytes(raw))
        result = run_cli_subprocess(["features", "--wav", str(wav_path)])
        assert result.returncode == 1
        assert result.stderr == f"error: {wav_path}: fmt block_align 4, expected 2 for mono 16-bit PCM\n"
        assert result.stdout == ""

    def test_inconsistent_byte_rate_is_one_error_line(self, tmp_path):
        wav_path = tmp_path / "rate0.wav"
        data.write_wav(wav_path, Waveform(np.zeros(1000), 44100), bits=16)
        raw = bytearray(wav_path.read_bytes())
        raw[28:32] = bytes(4)  # the fmt chunk's byte_rate
        wav_path.write_bytes(bytes(raw))
        result = run_cli_subprocess(["features", "--wav", str(wav_path)])
        assert result.returncode == 1
        assert result.stderr == f"error: {wav_path}: fmt byte_rate 0, expected 88200 (rate x block_align)\n"
        assert result.stdout == ""


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# (exit code, sha256 of stdout, sha256 of the --csv file) of `tinyasc audit`
# at the defaults and with every convention switch flipped; conv_sep's rows list
# each module's pool before its last ELU, whose shape is the pooled one
AUDIT_GOLDEN = {
    ("conv_sep", ""): (
        0,
        "e03b9d275d9db2cba5de2fc2a694e347c46339130616b9e0337e2bad014a7171",
        "0b5ab45f6abf64724c62d0662437d65e0a0b59b5dec8bb84f7d3fd9760c233be",
    ),
    ("conv_mixer", ""): (
        0,
        "9fbc2b71c9586a980510b9a9649e3b76ee68e7d00701ec6afd30ad936d80f16c",
        "8c7975144f928ec632d60228f8fb28c9055c7b4c3d101571a0c37663fc5f55e0",
    ),
    ("conv_sep", "--no-bias --bn-params 2 --count-bn-macs --count-bias-macs --filters 32,64 --kernel 5"): (
        3,
        "209421c31b4efd5e92b9e399aefbd9d31892b0bf386f0c3fd4e10a1cc58a812a",
        "b4787ca09634583f148d7cadcff9f0b5b8610eed638ecaffa414daba97dada72",
    ),
    ("conv_mixer", "--no-bias --bn-params 2 --count-bn-macs --count-bias-macs --filters 32,64 --kernel 5"): (
        0,
        "2f43b5994656754ab6ce15801670af4ec0ef015d08d116fc09be92c4455fac69",
        "25afef4db2deea1baa32dcf3bc22d013b9bae8e39c4496f3fa5d33a71e9de3c4",
    ),
}


class TestAudit:
    def test_pass_exit_0(self, capsys):
        code = run_cli(["audit", "--arch", "conv_sep", "--filters", "48,48", "--kernel", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "params_total=28090" in out
        assert "verdict=pass" in out

    def test_budget_fail_exit_3(self, capsys):
        code = run_cli(["audit", "--arch", "conv_sep", "--filters", "64,64", "--kernel", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "verdict=fail" in out

    def test_csv_written_and_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["audit", "--filters", "40,40", "--csv", str(a)]) == 0
        assert run_cli(["audit", "--filters", "40,40", "--csv", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_a_graph_too_large_to_allocate_gets_its_verdict(self, capsys):
        # its kernels would take 638 GiB; the audit reads only their shapes
        code = run_cli(["audit", "--arch", "conv_sep", "--filters", "4096,4096", "--kernel", "101"])
        assert code == 3
        assert "verdict=fail" in capsys.readouterr().out

    def test_a_kernel_too_large_to_index_is_one_error_line(self, capsys):
        code = run_cli(["audit", "--arch", "conv_sep", "--filters", "65535,65535", "--kernel", "65535"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: weight shape (65535, 65535, 65535, 65535) has too many entries\n"

    @pytest.mark.parametrize("arch, flags", list(AUDIT_GOLDEN))
    def test_stdout_and_csv_bytes_are_pinned(self, arch, flags, tmp_path, capsys):
        csv = tmp_path / "audit.csv"
        code = run_cli(["audit", "--arch", arch, *flags.split(), "--csv", str(csv)])
        want_code, want_stdout, want_csv = AUDIT_GOLDEN[(arch, flags)]
        assert code == want_code
        assert _sha256(capsys.readouterr().out.encode()) == want_stdout
        assert _sha256(csv.read_bytes()) == want_csv

    @pytest.mark.parametrize("flag, value", [("--max-params", "-1"), ("--max-macs", "-1")])
    def test_negative_budget_is_one_error_line(self, flag, value, capsys):
        # it once printed "params 28090 / -1 (FAIL, headroom -28091)" and exited 3
        code = run_cli(["audit", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and captured.err == f"error: {flag[2:].replace('-', '_')} must be >= 0, got {value}\n"

    @pytest.mark.parametrize("patch", [["--patch", "3"], ["--patch", "0"]])
    def test_conv_sep_rejects_patch(self, patch, capsys):
        code = run_cli(["audit", "--arch", "conv_sep", *patch])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    ckpt = root / "model.tasc"
    hist = root / "history.csv"
    code = run_cli([
        "train", "--synthetic", "30", "--seed", "3", "--epochs", "6",
        "--filters", "4,4", "--batch-size", "10",
        "--out", str(ckpt), "--history", str(hist),
    ])
    assert code == 0
    return root, ckpt, hist


class TestTrainEvalQuantize:
    def test_history_csv_shape(self, artifacts, capsys):
        _, _, hist = artifacts
        lines = hist.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
        assert len(lines) == 7

    def test_train_determinism_byte_identical(self, tmp_path, artifacts, capsys):
        _, _, hist = artifacts
        hist2 = tmp_path / "h2.csv"
        code = run_cli([
            "train", "--synthetic", "30", "--seed", "3", "--epochs", "6",
            "--filters", "4,4", "--batch-size", "10", "--history", str(hist2),
        ])
        capsys.readouterr()
        assert code == 0
        assert hist2.read_bytes() == hist.read_bytes()

    def test_eval_runs_on_checkpoint(self, artifacts, capsys):
        root, ckpt, _ = artifacts
        csv_path = root / "metrics.csv"
        code = run_cli([
            "eval", "--checkpoint", str(ckpt), "--synthetic", "20", "--seed", "4",
            "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in out and "confusion" in out
        assert csv_path.read_text().startswith("metric,value")

    def test_eval_refuses_more_classes_than_scene_names(self, tmp_path, capsys):
        # a 12-class checkpoint once ended in an IndexError traceback
        ckpt = tmp_path / "c12.tasc"
        zoo.save_model(zoo.init_weights(zoo.build("conv_sep", 4, 4, n_classes=12), 1), ckpt)
        outs = {flag: tmp_path / f"out{flag}" for flag in ("--report", "--csv", "--confusion")}
        flags = [arg for flag, path in outs.items() for arg in (flag, str(path))]
        code = run_cli(["eval", "--checkpoint", str(ckpt), "--synthetic", "8", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: 10 class names for a result of 12 classes\n"
        assert captured.out == ""
        assert not any(p.exists() for p in outs.values())

    def test_quantize_writes_model_and_report(self, artifacts, capsys):
        root, ckpt, _ = artifacts
        qpath = root / "model.tasq"
        rpath = root / "agreement.txt"
        code = run_cli([
            "quantize", "--checkpoint", str(ckpt), "--synthetic", "12", "--seed", "5",
            "--out", str(qpath), "--report", str(rpath),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert qpath.exists()
        assert "top1_agreement" in rpath.read_text()
        assert "top1_agreement" in out

    def test_quantize_report_has_one_error_line_per_layer(self, artifacts, capsys):
        root, ckpt, _ = artifacts
        rpath = root / "layers.txt"
        assert run_cli([
            "quantize", "--checkpoint", str(ckpt), "--synthetic", "12", "--seed", "5",
            "--out", str(root / "layers.tasq"), "--report", str(rpath),
        ]) == 0
        lines = rpath.read_text().splitlines()
        assert [line.split("=")[0] for line in lines[:3]] == ["n_inputs", "top1_agreement", "max_logit_diff"]
        # conv_sep folds its norms: conv1, sep1_dw, sep1_pw, conv2, sep2_dw, sep2_pw, classifier
        layers = lines[3:]
        assert len(lines) == 10 and len(layers) == 7
        for line in layers:
            assert [field.split("=")[0] for field in line.split(" ")] == ["layer", "kind", "sqnr_db", "max_abs_diff"]
        assert [line.split(" ")[0] for line in layers] == [
            "layer=conv1", "layer=sep1_dw", "layer=sep1_pw", "layer=conv2",
            "layer=sep2_dw", "layer=sep2_pw", "layer=classifier",
        ]
        assert capsys.readouterr().out.endswith("".join(line + "\n" for line in lines))

    def test_quantize_output_deterministic(self, artifacts, tmp_path, capsys):
        _, ckpt, _ = artifacts
        a, b = tmp_path / "a.tasq", tmp_path / "b.tasq"
        for path in (a, b):
            assert run_cli([
                "quantize", "--checkpoint", str(ckpt), "--synthetic", "12",
                "--seed", "5", "--out", str(path),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_quantize_runs_each_clip_once_through_each_model(self, artifacts, tmp_path, monkeypatch, capsys):
        # calibration walks each clip once (run_graph), then the agreement and the
        # per-layer errors share one walk per clip of a float and an INT8 predictor
        _, ckpt, _ = artifacts
        calls = collections.Counter()
        for module, name in ((zoo, "walk"), (zoo, "run_graph"), (quantize, "_steps")):

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert run_cli([
            "quantize", "--checkpoint", str(ckpt), "--synthetic", "5", "--seed", "5",
            "--out", str(tmp_path / "once.tasq"),
        ]) == 0
        capsys.readouterr()
        assert calls == {"walk": 15, "run_graph": 5, "_steps": 1}

    def test_eval_truncated_checkpoint_exits_1_without_traceback(self, artifacts, tmp_path):
        _, ckpt, _ = artifacts
        blob = ckpt.read_bytes()
        short = tmp_path / "half.tasc"
        short.write_bytes(blob[: len(blob) // 2])
        result = run_cli_subprocess(["eval", "--checkpoint", str(short), "--synthetic", "4"])
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {short}: truncated at byte {len(blob) // 2},")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_negative_moving_variance_is_one_error_line(self, tmp_path, command):
        model = zoo.init_weights(zoo.build_conv_sep(4, 4), seed=1)
        model.layers[1].weights["moving_var"][0] = -5.0  # bn1a
        ckpt = tmp_path / "bad.tasc"
        zoo.save_model(model, ckpt)
        # the one float32 -5.0 in the file is the offending entry
        blob = ckpt.read_bytes()
        assert blob.count(struct.pack("<f", -5.0)) == 1
        at = blob.index(struct.pack("<f", -5.0))
        args = [command, "--checkpoint", str(ckpt), "--synthetic", "4"]
        result = run_cli_subprocess(args + (["--out", str(tmp_path / "bad.tasq")] if command == "quantize" else []))
        assert result.returncode == 1
        problem = f"layer 1 weight moving_var: negative moving variance -5.0 at channel 0, at byte {at}"
        assert result.stderr == f"error: {ckpt}: {problem}\n"
        assert not (tmp_path / "bad.tasq").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "quantize"])
    def test_a_short_clip_is_one_error_line_naming_its_example(self, command, artifacts, tmp_path, capsys):
        _, ckpt, _ = artifacts
        manifest = tmp_path / "short.tsv"
        manifest.write_text("filename\tscene_label\na.wav\tbus\nb.wav\tpark\nc.wav\tmetro\n")
        for name, seconds in (("a", 1.0), ("b", 0.5), ("c", 1.0)):
            data.write_wav(tmp_path / f"{name}.wav", Waveform(np.zeros(int(44100 * seconds)), 44100), bits=16)
        args = {
            "train": ["train", "--epochs", "1", "--filters", "4,4"],
            "eval": ["eval", "--checkpoint", str(ckpt)],
            "quantize": ["quantize", "--checkpoint", str(ckpt), "--out", str(tmp_path / "q.tasq")],
        }[command]
        assert run_cli([*args, "--manifest", str(manifest), "--audio-root", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err == "error: example 1: input shape mismatch: expected (64, 51) (x1 channel), got (64, 26)\n"
        assert out == ""

    def test_conv_mixer_checkpoint_feeds_eval_and_quantize(self, tmp_path, capsys):
        ckpt, qpath = tmp_path / "mixer.tasc", tmp_path / "mixer.tasq"
        assert run_cli([
            "train", "--arch", "conv_mixer", "--synthetic", "20", "--epochs", "1",
            "--filters", "4,4", "--out", str(ckpt),
        ]) == 0
        assert ckpt.read_bytes()[6] == 1  # conv_mixer's architecture id
        assert run_cli(["eval", "--checkpoint", str(ckpt), "--synthetic", "20"]) == 0
        assert run_cli([
            "quantize", "--checkpoint", str(ckpt), "--synthetic", "8", "--out", str(qpath),
        ]) == 0
        assert "trained conv_mixer 4-4" in capsys.readouterr().out
        assert quantize.load_quantized(qpath).graph.arch_tag == "conv_mixer"

    def test_train_without_data_source_exits_1(self, capsys):
        code = run_cli(["train", "--epochs", "1"])
        assert code == 1
        assert "synthetic" in capsys.readouterr().err

    def test_diverging_train_is_one_error_line(self, tmp_path):
        # numpy's overflow and invalid-value warnings on the way once came first, ten lines of them
        out = tmp_path / "div.tasc"
        args = ["train", "--arch", "conv_sep", "--filters", "4,4", "--synthetic", "12", "--epochs", "5"]
        result = run_cli_subprocess(args + ["--batch-size", "8", "--seed", "2", "--lr", "1e25", "--out", str(out)])
        assert result.returncode == 1
        assert result.stderr == "error: non-finite loss at epoch 1; restored last finite checkpoint\n"
        assert not out.exists()

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_train_bits_same_at_one_and_two_blas_threads(self, arch, tmp_path):
        # 16-16 at batch 16 on 64x51 inputs: large enough that two OpenBLAS
        # threads split an M = 1 weight-gradient product, as they did before
        outputs = []
        for threads in ("1", "2"):
            ckpt, hist = tmp_path / f"{threads}.tasc", tmp_path / f"{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            args = ["train", "--arch", arch, "--filters", "16,16", "--synthetic", "24", "--epochs", "1"]
            args += ["--batch-size", "16", "--seed", "3", "--out", str(ckpt), "--history", str(hist)]
            result = subprocess.run(
                [sys.executable, "-m", "tinyasc.cli", *args], env=env, capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            outputs.append((ckpt.read_bytes(), hist.read_bytes()))
        assert outputs[0] == outputs[1]


class TestHeaderRange:
    @pytest.mark.parametrize(
        "arch, flags, problem",
        [
            ("conv_mixer", ["--filters", "4,70000"], "f2 70000 outside the model file header's range [0, 65535]"),
            ("conv_sep", ["--filters", "4,70000"], "f2 70000 outside the model file header's range [0, 65535]"),
            ("conv_sep", ["--filters", "70000,4"], "f1 70000 outside the model file header's range [0, 65535]"),
            ("conv_sep", ["--kernel", "65537"], "kernel size 65537 outside the model file header's range [0, 65535]"),
            ("conv_mixer", ["--patch", "65536"], "kernel exceeds input"),
        ],
    )
    def test_train_out_refuses_a_field_the_header_cannot_hold_before_training(
        self, arch, flags, problem, tmp_path, monkeypatch, capsys
    ):
        # it trained for 13 s, then left a struct.error traceback and an empty
        # file; conv_sep's 36.5 GiB of weights failed in init_weights first
        def trained(*args, **kwargs):
            raise AssertionError("init_weights ran")

        monkeypatch.setattr(zoo, "init_weights", trained)
        out = tmp_path / "x.tasc"
        start = time.perf_counter()
        code = run_cli([
            "train", "--arch", arch, *flags, "--synthetic", "4", "--epochs", "1", "--batch-size", "4",
            "--out", str(out),
        ])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: ") and problem in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc, line",
        [(MemoryError("Unable to allocate 36.5 GiB for an array"), "error: Unable to allocate 36.5 GiB for an array\n"),
         (MemoryError(), "error: out of memory\n")],
    )
    def test_a_memory_error_is_one_error_line(self, exc, line, monkeypatch, capsys):
        # raised by a stand-in: no test makes a real large allocation
        def refused(*args, **kwargs):
            raise exc

        monkeypatch.setattr(zoo, "init_weights", refused)
        assert run_cli(["train", "--synthetic", "4", "--epochs", "1", "--filters", "2,2"]) == 1
        assert capsys.readouterr().err == line


class TestReconcile:
    def test_reconcile_prints_8_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "rec.csv"
        code = run_cli(["reconcile", "--out", str(out_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("conv_sep") == 4
        assert out.count("conv_mixer") == 4
        assert len(out_csv.read_text().strip().split("\n")) == 9

    def test_stdout_and_csv_bytes_are_pinned(self, tmp_path, capsys):
        out_csv = tmp_path / "rec.csv"
        assert run_cli(["reconcile", "--out", str(out_csv)]) == 0
        assert _sha256(capsys.readouterr().out.encode()) == (
            "d0282783748c3241fff91a4d247ee5283fdc0ed26634f941c8387c01fc4f89f1"
        )
        assert _sha256(out_csv.read_bytes()) == "4f01ba463a049fd9ac7d48c810ee8fdba69bae49661c186237e94e631bddecd9"

    def test_reconcile_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["reconcile", "--out", str(a)]) == 0
        assert run_cli(["reconcile", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


# (subcommand, output flag) for every flag in cli.OUTPUT_FLAGS a subcommand takes
OUTPUTS = [
    ("features", "out"),
    ("train", "out"),
    ("train", "history"),
    ("eval", "report"),
    ("eval", "csv"),
    ("eval", "confusion"),
    ("audit", "csv"),
    ("quantize", "out"),
    ("quantize", "report"),
    ("reconcile", "out"),
]


class TestOutputPaths:
    # a path no output could be written to is refused before any work, with the
    # error line that writing it gives; nothing is written and nothing announced

    def test_every_output_flag_is_listed(self):
        subcommands = cli.build_parser()._subcommands.choices
        flags = {(name, a.dest) for name, p in subcommands.items() for a in p._actions if a.dest in cli.OUTPUT_FLAGS}
        assert flags == set(OUTPUTS)

    @pytest.mark.parametrize("bad", ["missing-directory", "a-directory"])
    @pytest.mark.parametrize("command, flag", OUTPUTS)
    def test_a_bad_output_path_is_refused_before_any_work(self, command, flag, bad, artifacts, tmp_path, capsys):
        _, ckpt, _ = artifacts
        wav = tmp_path / "in.wav"
        data.write_wav(wav, Waveform(np.zeros(4410), 44100), bits=16)
        base = {
            "features": ["features", "--wav", str(wav)],
            "train": ["train", "--synthetic", "12", "--epochs", "1", "--filters", "4,4", "--batch-size", "8"],
            "eval": ["eval", "--checkpoint", str(ckpt), "--synthetic", "4"],
            "audit": ["audit"],
            "quantize": ["quantize", "--checkpoint", str(ckpt), "--synthetic", "4"],
            "reconcile": ["reconcile"],
        }[command]
        path = tmp_path / "missing" / "file" if bad == "missing-directory" else tmp_path
        # the subcommand's other outputs name writable paths, which stay unwritten
        others = {f: tmp_path / f"ok-{f}" for c, f in OUTPUTS if c == command and f != flag}
        args = [*base, f"--{flag}", str(path), *(a for f, p in others.items() for a in (f"--{f}", str(p)))]
        assert run_cli(args) == 1
        out, err = capsys.readouterr()
        reason = "[Errno 2] No such file or directory" if bad == "missing-directory" else "[Errno 21] Is a directory"
        assert err == f"error: {reason}: {str(path)!r}\n"
        assert out == ""
        assert not any(p.exists() for p in others.values())


class TestOutOfRangeValues:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["features", "--hop-fraction", "2"], "hop_fraction must be in (0, 1), got 2.0"),
            (["features", "--fft-size", "1000"], "fft_size must be a power of two, got 1000"),
            (["features", "--n-mels", "4000"], "empty mel band"),
            (["train", "--synthetic", "8", "--epochs", "0"], "max_epochs must be >= 1"),
            (["train", "--synthetic", "8", "--batch-size", "0"], "batch_size must be >= 1"),
            # the range checks alone let NaN through
            (["features", "--log-floor", "nan"], "log_floor must be finite, got nan"),
            (["features", "--log-floor", "inf"], "log_floor must be finite, got inf"),
            (["features", "--window-ms", "nan"], "window_ms must be finite, got nan"),
            (["features", "--window-ms", "inf"], "window_ms must be finite, got inf"),
            (["features", "--fmin", "-5"], "fmin must be >= 0, got -5.0"),
            (["features", "--window-ms", "1e5"], "window of 100000.0 ms at 44100 Hz is longer than fft_size 2048"),
            (["features", "--window-ms", "1e9"], "window of 1000000000.0 ms at 44100 Hz is longer than fft_size 2048"),
            (["features", "--window-ms", "1e30"], "window of 1e+30 ms at 44100 Hz is longer than fft_size 2048"),
            (["features", "--window-ms", "1e308"], "window of 1e+308 ms at 44100 Hz is longer than fft_size 2048"),
            (["train", "--synthetic", "8", "--epochs", "1", "--lr", "-1"], "lr must be finite and > 0, got -1.0"),
            (["train", "--synthetic", "8", "--epochs", "1", "--lr", "0"], "lr must be finite and > 0, got 0.0"),
            (["train", "--synthetic", "8", "--epochs", "1", "--lr", "nan"], "lr must be finite and > 0, got nan"),
            (["train", "--synthetic", "8", "--epochs", "1", "--lr", "inf"], "lr must be finite and > 0, got inf"),
        ],
    )
    def test_one_error_line(self, args, message, tmp_path, capsys):
        if args[0] == "features":
            wav = tmp_path / "in.wav"
            data.write_wav(wav, Waveform(np.zeros(4410), 44100), bits=16)
            args = [*args, "--wav", str(wav)]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err


    @pytest.mark.parametrize("command, seed", [("train", "-1"), ("eval", "-1"), ("quantize", "-5")])
    def test_negative_seed_exits_2(self, command, seed, artifacts, tmp_path, capsys):
        # numpy's generators refuse a negative seed with a traceback; the flag refuses it first
        _, ckpt, _ = artifacts
        args = {
            "train": ["train", "--synthetic", "3", "--epochs", "1", "--filters", "2,2"],
            "eval": ["eval", "--checkpoint", str(ckpt), "--synthetic", "3"],
            "quantize": ["quantize", "--checkpoint", str(ckpt), "--synthetic", "3", "--out", str(tmp_path / "q.tasq")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--seed", seed])
        assert exc.value.code == 2
        assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err


class TestConfigFile:
    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n# caf\xe9\n")
        assert run_cli(["--config", str(cfg), "train", "--synthetic", "20"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "bad.cfg" in err and "offset 12" in err

    def test_non_utf8_manifest_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "bad.tsv"
        manifest.write_bytes(b"filename\tscene_label\na.wav\tbus\xff\n")
        assert run_cli(["train", "--manifest", str(manifest), "--audio-root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "bad.tsv" in err and "offset 30" in err

    def test_config_provides_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("filters=40,40\nkernel=3\n")
        code = run_cli(["--config", str(cfg), "audit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "params_total=19890" in out  # 40-40 totals from the config
        code = run_cli(["--config", str(cfg), "audit", "--filters", "48,48"])
        out = capsys.readouterr().out
        assert "params_total=28090" in out  # explicit flag wins

    @pytest.mark.parametrize("value, totals", [("false", (28090, 28367328)), ("true", (27898, 29141472))])
    def test_config_switch_takes_true_or_false(self, value, totals, tmp_path, capsys):
        cfg = tmp_path / "switches.conf"
        cfg.write_text(f"no-bias={value}\ncount-bn-macs={value}\n")
        assert run_cli(["--config", str(cfg), "audit", "--arch", "conv_sep"]) == 0
        out = capsys.readouterr().out
        assert f"params_total={totals[0]}\n" in out and f"macs_total={totals[1]}\n" in out

    @pytest.mark.parametrize("value", ["yes", "False", "1", ""])
    def test_config_switch_other_value_is_one_error_line(self, value, tmp_path, capsys):
        cfg = tmp_path / "switches.conf"
        cfg.write_text(f"count-bn-macs={value}\n")
        assert run_cli(["--config", str(cfg), "audit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config key 'count_bn_macs' is a switch: true or false, got {value!r}\n"

    def test_negative_seed_in_a_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "seed.conf"
        cfg.write_text("seed=-1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["--config", str(cfg), "train", "--synthetic", "3", "--epochs", "1", "--filters", "2,2"])
        assert exc.value.code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_config_equals_form_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "mixer.conf"
        cfg.write_text("arch=conv_mixer\n")
        assert run_cli([f"--config={cfg}", "audit"]) == 0
        assert "params_total=7210\n" in capsys.readouterr().out  # conv_mixer 48-48
        assert run_cli([f"--config={tmp_path / 'absent.conf'}", "audit"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "absent.conf" in err

    @pytest.mark.parametrize("value", ["3", "0"])
    def test_bn_params_outside_2_and_4_in_a_config_file_is_one_error_line(self, value, tmp_path, capsys):
        # argparse checks choices only on the command line, so the Convention refuses it
        cfg = tmp_path / "bn.conf"
        cfg.write_text(f"bn_params={value}\n")
        assert run_cli(["--config", str(cfg), "audit", "--arch", "conv_sep"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: bn_params_per_channel must be 2 or 4, got {value}\n"

    @pytest.mark.parametrize("line, message", [("max_params=-1", "max_params must be >= 0, got -1"),
                                               ("max_macs=-5", "max_macs must be >= 0, got -5")])
    def test_negative_budget_in_a_config_file_is_one_error_line(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "budget.conf"
        cfg.write_text(f"{line}\n")
        assert run_cli(["--config", str(cfg), "audit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["true", "x"])
    def test_help_is_not_a_config_key(self, value, tmp_path, capsys):
        cfg = tmp_path / "help.conf"
        cfg.write_text(f"help={value}\n")
        assert run_cli(["--config", str(cfg), "audit", "--arch", "conv_mixer"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: unknown config key 'help'\n"
