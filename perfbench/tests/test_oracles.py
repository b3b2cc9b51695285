"""Each oracle agrees with tinyasc on a tiny graph and fails on a perturbed output.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import bench
import oracles
import spans
from tinyasc import data, frontend, metrics, quantize, zoo

SHAPE = (8, 16, 1)
BUILDS = {
    "conv_sep": lambda: zoo.build_conv_sep(3, 4, input_shape=SHAPE),
    "conv_mixer": lambda: zoo.build_conv_mixer(3, 4, input_shape=SHAPE),
}


def tiny(arch, seed=0, dtype=None):
    rng = np.random.default_rng(seed)
    calib = rng.normal(0.0, 2.0, size=(6, *SHAPE))
    model = bench.seeded_model(BUILDS[arch], rng, calib)
    if dtype is not None:
        for layer in model.layers:
            for name in layer.weight_names():
                layer.weights[name] = layer.weights[name].astype(dtype)
        model.dtype = dtype
    return model, [c[..., 0] for c in calib]


def fails(fn, *args):
    with pytest.raises(oracles.OracleFailure):
        fn(*args)


def test_wav_samples(tmp_path):
    codes, _ = bench.tone_clip(np.random.default_rng(0))
    path = str(tmp_path / "clip.wav")
    bench.write_pcm16(path, codes)
    samples = data.read_wav(path).samples
    oracles.check_wav_samples(samples, codes)
    bent = samples.copy()
    bent[100] += 1.0 / 32768
    fails(oracles.check_wav_samples, bent, codes)


@pytest.mark.parametrize("seed", range(4))
def test_loudest_band(seed):
    codes, tone = bench.tone_clip(np.random.default_rng(seed))
    spec = frontend.log_mel(frontend.Waveform(codes / 32768.0, bench.SAMPLE_RATE)).data
    oracles.check_loudest_band(spec, tone)
    bent = spec.copy()
    far = 0 if tone > 2000 else 60
    bent[far] += 50.0
    fails(oracles.check_loudest_band, bent, tone)


def test_band_edges_match_the_frontend_filterbank():
    bank = frontend.mel_filterbank(frontend.FrontendConfig(), bench.SAMPLE_RATE)
    hz = np.arange(bank.shape[1]) * bench.SAMPLE_RATE / 2048
    for (lo, hi), row in zip(oracles.mel_band_edges(), bank):
        covered = hz[row > 0]
        assert lo <= covered.min() and covered.max() <= hi


@pytest.mark.parametrize("arch", BUILDS)
def test_float_logits(arch):
    model, inputs = tiny(arch)
    for x in inputs[:3]:
        logits = zoo.forward(model, x).logits
        oracles.check_float_logits(model, x, logits)
        bent = logits.copy()
        bent[3] += 1e-2 * max(1.0, np.abs(logits).max())
        fails(oracles.check_float_logits, model, x, bent)


@pytest.mark.parametrize("arch", BUILDS)
def test_int8_logits(arch):
    model, inputs = tiny(arch)
    specs = [frontend.Spectrogram(x, *SHAPE[:2]) for x in inputs]
    qm = quantize.quantize_model(model, specs)
    for x, spec in zip(inputs, specs):
        logits = quantize.quantized_forward(qm, spec).logits
        oracles.check_int8_logits(qm, x, logits)
        bent = logits.copy()
        bent[0] += 1e-4 * max(1.0, np.abs(logits).max())
        fails(oracles.check_int8_logits, qm, x, bent)


@pytest.mark.parametrize("arch", BUILDS)
def test_eval(arch):
    model, _ = tiny(arch)
    examples = data.synth_examples(20, 3, n_mels=SHAPE[0], n_frames=SHAPE[1])
    result = metrics.evaluate(model, examples)
    oracles.check_eval(result)
    fails(oracles.check_eval, dataclasses.replace(result, accuracy=result.accuracy + 1 / 20))
    confusion = result.confusion.copy()
    confusion[0, 0] += 1
    fails(oracles.check_eval, dataclasses.replace(result, confusion=confusion))


@pytest.mark.parametrize("arch", BUILDS)
def test_gradients(arch):
    model, inputs = tiny(arch, dtype=np.float64)
    x = inputs[0][None, ..., None]
    entries = oracles.gradient_entries(zoo, model, x, 2, np.random.default_rng(1), 6)
    oracles.check_gradient_entries(entries, 6)
    i, name, j, analytic, numeric = entries[0]
    fails(oracles.check_gradient_entries, [(i, name, j, analytic * 1.01 + 1e-6, numeric)], 1)
    fails(oracles.check_gradient_entries, entries[:5], 6)


def test_tracer_self_time_and_restore():
    model, inputs = tiny("conv_sep")
    tracer = spans.Tracer()
    original = zoo.run_graph
    tracer.install()
    try:
        assert zoo.run_graph is not original
        tracer.phase = "eval"
        with tracer.span("bench.eval"):
            zoo.forward_batch(model, np.stack(inputs)[..., None])
    finally:
        tracer.uninstall()
    assert zoo.run_graph is original
    summary = tracer.summary()
    assert summary["zoo.run_graph|eval"][2] == len(inputs)
    assert summary["kernels.activation|eval"][0] == 4  # four ELUs, one call each
    total = sum(row[1] for row in summary.values())
    start, end = tracer.spans[0][2], tracer.spans[0][3]
    assert total == pytest.approx(end - start, rel=1e-9)


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert len(spec["per_layer"]) <= 128
