"""Graph builder, forward pass, init, and serialization tests."""

import collections

import numpy as np
import pytest

from tinyasc import audit, kernels, quantize, zoo
from tinyasc.errors import GraphBuildError, ShapeError, TinyAscError
from tinyasc.frontend import Spectrogram

CONV_SEP_GOLDEN = [
    "conv2d", "batch_norm", "elu", "depthwise_conv2d", "pointwise_conv2d", "batch_norm", "elu",
    "max_pool", "dropout",
    "conv2d", "batch_norm", "elu", "depthwise_conv2d", "pointwise_conv2d", "batch_norm", "elu",
    "max_pool", "dropout",
    "global_avg_pool", "dense", "softmax",
]

CONV_MIXER_GOLDEN = [
    "conv2d", "gelu", "batch_norm",
    "residual_add_begin", "depthwise_conv2d", "residual_add_end", "gelu", "batch_norm",
    "pointwise_conv2d", "gelu", "batch_norm",
    "max_pool", "dropout",
    "residual_add_begin", "depthwise_conv2d", "residual_add_end", "gelu", "batch_norm",
    "pointwise_conv2d", "gelu", "batch_norm",
    "max_pool", "dropout",
    "global_avg_pool", "dense", "softmax",
]

FILTER_GRID = [(40, 40), (48, 48), (32, 64), (64, 64)]


def _rand_spec(seed=0, shape=(64, 51)):
    rng = np.random.default_rng(seed)
    return Spectrogram(rng.normal(size=shape), n_mels=shape[0], n_frames=shape[1])


class TestBuilders:
    def test_conv_sep_golden_sequence(self):
        model = zoo.build_conv_sep(48, 48, 3)
        assert [l.kind for l in model.layers] == CONV_SEP_GOLDEN

    def test_conv_mixer_golden_sequence(self):
        model = zoo.build_conv_mixer(48, 48, 3)
        assert [l.kind for l in model.layers] == CONV_MIXER_GOLDEN

    def test_conv_sep_shape_trace(self):
        model = zoo.build_conv_sep(48, 48, 3)
        by_name = {l.name: l.output_shape for l in model.layers}
        assert by_name["elu1b"] == (64, 51, 48)
        assert by_name["pool1"] == (64, 12, 48)
        assert by_name["elu2b"] == (64, 12, 48)
        assert by_name["pool2"] == (64, 6, 48)
        assert by_name["gap"] == (48,)
        assert by_name["classifier"] == (10,)

    def test_module_filter_counts_match(self):
        # both convolutions inside a module carry the same filter count
        model = zoo.build_conv_sep(32, 64, 3)
        by_name = {l.name: l for l in model.layers}
        assert by_name["conv1"].weights["w"].shape == (3, 3, 1, 32)
        assert by_name["sep1_pw"].weights["w"].shape == (1, 1, 32, 32)
        assert by_name["conv2"].weights["w"].shape == (3, 3, 32, 64)
        assert by_name["sep2_pw"].weights["w"].shape == (1, 1, 64, 64)

    def test_separable_depthwise_never_biased(self):
        model = zoo.build_conv_sep(16, 16, 3)
        by_name = {l.name: l for l in model.layers}
        assert "b" not in by_name["sep1_dw"].weights
        assert "b" in by_name["sep1_pw"].weights

    @pytest.mark.parametrize("f1,f2", FILTER_GRID)
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_shape_inference_passes_for_grid(self, arch, f1, f2):
        build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
        model = build(f1, f2, 3)
        assert model.layers[-1].output_shape == (10,)

    def test_patch_size_one_preserves_spatial_extent(self):
        model = zoo.build_conv_mixer(16, 16, 3, patch_size=1)
        assert model.layers[0].output_shape == (64, 51, 16)

    def test_larger_patch_downsamples(self):
        model = zoo.build_conv_mixer(8, 8, 3, patch_size=3)
        assert model.layers[0].output_shape == (21, 17, 8)

    def test_mixer_channel_transition_on_second_pointwise(self):
        model = zoo.build_conv_mixer(32, 64, 3)
        by_name = {l.name: l for l in model.layers}
        assert by_name["mix1_pw"].weights["w"].shape == (1, 1, 32, 32)
        assert by_name["mix2_dw"].weights["w"].shape == (3, 3, 32)
        assert by_name["mix2_pw"].weights["w"].shape == (1, 1, 32, 64)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(GraphBuildError):
            zoo.build_conv_sep(0, 8, 3)
        with pytest.raises(GraphBuildError):
            zoo.build_conv_sep(8, 8, 4)  # even kernel
        with pytest.raises(GraphBuildError):
            zoo.build_conv_mixer(8, 8, 3, patch_size=0)


class TestMixerResidual:
    def test_zero_depthwise_weights_reduce_to_skip(self):
        model = zoo.build_conv_mixer(6, 6, 3)
        zoo.init_weights(model, seed=1)
        by_name = {l.name: i for i, l in enumerate(model.layers)}
        dw = model.layers[by_name["mix1_dw"]]
        dw.weights["w"] = np.zeros_like(dw.weights["w"])
        dw.weights["b"] = np.zeros_like(dw.weights["b"])

        x = np.random.default_rng(2).normal(size=(1, 64, 51, 1)).astype(np.float32)
        acts = []
        zoo.run_graph(model, x, train=False, record_activations=acts)
        skip = acts[by_name["mix1_skip"]]
        after_add = acts[by_name["mix1_add"]]
        after_bn = acts[by_name["mix1_bn_a"]]

        # depthwise output + skip = skip, then BN(GELU(.)) of the unchanged skip
        np.testing.assert_allclose(after_add, skip, atol=1e-7)
        bn = model.layers[by_name["mix1_bn_a"]]
        expected, _, _ = kernels.batch_norm(
            kernels.gelu(skip),
            bn.weights["gamma"], bn.weights["beta"],
            bn.weights["moving_mean"], bn.weights["moving_var"],
            eps=bn.config["eps"], train=False,
        )
        np.testing.assert_allclose(after_bn, expected, atol=1e-6)


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=0)
        pred = zoo.forward(model, _rand_spec(1))
        assert pred.probabilities.shape == (10,)
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-6)
        assert pred.top_class == int(np.argmax(pred.probabilities))

    def test_zero_input_valid_output(self):
        model = zoo.init_weights(zoo.build_conv_mixer(8, 8, 3), seed=0)
        pred = zoo.forward(model, Spectrogram(np.zeros((64, 51)), 64, 51))
        assert np.all(np.isfinite(pred.probabilities))
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-6)

    def test_determinism_bit_identical(self):
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=5)
        spec = _rand_spec(6)
        a = zoo.forward(model, spec)
        b = zoo.forward(model, spec)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.logits, b.logits)

    def test_top_class_invariant_under_logit_shift(self):
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=7)
        pred = zoo.forward(model, _rand_spec(8))
        shifted = kernels.softmax(pred.logits[None] + 42.0)[0]
        assert int(np.argmax(shifted)) == pred.top_class

    def test_shape_mismatch_names_expected_and_actual(self):
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=0)
        with pytest.raises(ShapeError, match=r"expected.*\(64, 51\).*got.*\(32, 51\)"):
            zoo.forward(model, _rand_spec(0, shape=(32, 51)))

    def test_inference_never_mutates_weights(self):
        model = zoo.init_weights(zoo.build_conv_mixer(8, 8, 3), seed=9)
        before = zoo.weights_fingerprint(model)
        zoo.forward(model, _rand_spec(10))
        assert zoo.weights_fingerprint(model) == before


class TestInitWeights:
    def test_same_seed_identical(self):
        a = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=11)
        b = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=11)
        assert zoo.weights_fingerprint(a) == zoo.weights_fingerprint(b)

    def test_different_seed_differs(self):
        a = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=11)
        b = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=12)
        assert zoo.weights_fingerprint(a) != zoo.weights_fingerprint(b)

    def test_glorot_bounds_per_layer(self):
        model = zoo.init_weights(zoo.build_conv_mixer(16, 24, 5), seed=13)
        for layer in model.layers:
            if layer.kind in ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense"):
                fan_in, fan_out = zoo.glorot_fans(layer)
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.all(np.abs(layer.weights["w"]) <= limit)
                assert np.all(layer.weights["b"] == 0.0)

    def test_batch_norm_reset(self):
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=14)
        bn = next(l for l in model.layers if l.kind == "batch_norm")
        np.testing.assert_array_equal(bn.weights["gamma"], 1.0)
        np.testing.assert_array_equal(bn.weights["moving_var"], 1.0)


class TestSerialization:
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_bit_exact_round_trip(self, tmp_path, arch):
        build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
        model = zoo.init_weights(build(12, 16, 3), seed=21)
        path = tmp_path / "model.tasc"
        zoo.save_model(model, path)
        loaded = zoo.load_model(path)
        assert loaded.arch_tag == model.arch_tag
        assert loaded.filters == model.filters
        for la, lb in zip(model.layers, loaded.layers):
            assert la.weight_names() == lb.weight_names()
            for name in la.weight_names():
                assert np.array_equal(la.weights[name], lb.weights[name]), (la.name, name)

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = zoo.init_weights(zoo.build_conv_mixer(8, 8, 3), seed=22)
        path = tmp_path / "m.tasc"
        zoo.save_model(model, path)
        loaded = zoo.load_model(path)
        spec = _rand_spec(23)
        np.testing.assert_array_equal(
            zoo.forward(model, spec).probabilities, zoo.forward(loaded, spec).probabilities
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tasc"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ShapeError, match="magic"):
            zoo.load_model(path)

    def test_truncated_checkpoint_names_file_and_offset(self, tmp_path):
        model = zoo.init_weights(zoo.build_conv_mixer(4, 4, 3, input_shape=(8, 8, 1)), seed=3)
        path = tmp_path / "m.tasc"
        zoo.save_model(model, path)
        blob = path.read_bytes()
        for cut in (0, 2, 4, 24, 25, 26, 40, len(blob) // 2, len(blob) - 1):
            short = tmp_path / f"cut{cut}.tasc"
            short.write_bytes(blob[:cut])
            with pytest.raises(ShapeError, match=rf"cut{cut}\.tasc: truncated at byte {cut},"):
                zoo.load_model(short)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(8, 8, 1)), seed=3)
        path = tmp_path / "m.tasc"
        zoo.save_model(model, path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        trailing = rf"m\.tasc: unexpected data after the last record, at byte {size}$"
        with pytest.raises(ShapeError, match=trailing):
            zoo.load_model(path)


def _tiny(arch):
    build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
    model = zoo.init_weights(build(3, 4, 3, input_shape=(8, 8, 1)), seed=5)
    specs = [_rand_spec(s, shape=(8, 8)) for s in range(3)]
    return model, specs, np.stack([spec.data[..., None] for spec in specs]).astype(np.float32)


class TestLayerTable:
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_unknown_kind_rejected_by_every_walk(self, arch):
        model, specs, x = _tiny(arch)
        qm = quantize.quantize_model(model, specs)
        probs, _, caches = zoo.run_graph(model, x, keep_caches=True)
        for graph in (model, qm.graph):
            activation = next(layer for layer in graph.layers if layer.kind in ("elu", "gelu"))
            activation.kind = "swish"
        where = rf"layer \d+ \({activation.name}, swish\): unknown layer kind"
        for call in (
            lambda: zoo.run_graph(model, x),
            lambda: zoo.backward_graph(model, caches, np.ones_like(probs)),
            lambda: zoo.infer_shapes(model),
            lambda: audit.audit_model(model),
            lambda: quantize.quantized_forward(qm, specs[0]),
        ):
            with pytest.raises(TinyAscError, match=where):
                call()

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_walks_call_kernels_through_the_module(self, arch, monkeypatch):
        # a tracer times layers by replacing kernels.<name>; every layer must reach the replacement
        model, specs, x = _tiny(arch)
        qm = quantize.quantize_model(model, specs)
        counts = collections.Counter()
        for name in ("conv2d", "gelu", "batch_norm", "batch_norm_backward"):

            def counted(*args, _name=name, _fn=getattr(kernels, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(kernels, name, counted)

        def kinds(graph, *names):
            return {n: sum(layer.kind == n for layer in graph.layers) for n in names}

        def calls(run):
            counts.clear()
            out = run()
            return out, {name: counts[name] for name in counts}

        (probs, _, caches), seen = calls(
            lambda: zoo.run_graph(model, x, train=True, rng=np.random.default_rng(0), keep_caches=True)
        )
        want = kinds(model, "conv2d", "gelu", "batch_norm")
        assert seen == {k: n for k, n in want.items() if n}
        _, seen = calls(lambda: zoo.backward_graph(model, caches, np.ones_like(probs)))
        assert seen == {"batch_norm_backward": want["batch_norm"]}
        _, seen = calls(lambda: quantize.quantized_forward(qm, specs[0]))
        assert seen == {k: n for k, n in kinds(qm.graph, "conv2d", "gelu").items() if n}
        assert seen["conv2d"] >= 1

