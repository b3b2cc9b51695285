"""End-to-end CLI behavior: flags, exit codes, reproducible outputs."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from tinyasc import cli, data, quantize, zoo
from tinyasc.frontend import FrontendConfig, Waveform, log_mel, spectrogram_to_csv


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
        args = [command, "--checkpoint", str(ckpt), "--synthetic", "4"]
        result = run_cli_subprocess(args + (["--out", str(tmp_path / "bad.tasq")] if command == "quantize" else []))
        assert result.returncode == 1
        assert result.stderr == f"error: {ckpt}: layer 1 weight moving_var: negative moving variance -5.0 at channel 0\n"
        assert not (tmp_path / "bad.tasq").exists()

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


class TestReconcile:
    def test_reconcile_prints_8_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "rec.csv"
        code = run_cli(["reconcile", "--out", str(out_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("conv_sep") == 4
        assert out.count("conv_mixer") == 4
        assert len(out_csv.read_text().strip().split("\n")) == 9

    def test_reconcile_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["reconcile", "--out", str(a)]) == 0
        assert run_cli(["reconcile", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


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
