"""Graph builder, forward pass, init, and serialization tests."""

import collections
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyasc import audit, kernels, metrics, quantize, zoo
from tinyasc.errors import ConfigError, GraphBuildError, QuantizationError, ShapeError, TinyAscError
from tinyasc.frontend import Spectrogram

from test_gradients import check, fd_grad

# each module pools before its last ELU, the same values as ELU then pool
CONV_SEP_GOLDEN = [
    "conv2d", "batch_norm", "elu", "depthwise_conv2d", "pointwise_conv2d", "batch_norm", "max_pool",
    "elu", "dropout",
    "conv2d", "batch_norm", "elu", "depthwise_conv2d", "pointwise_conv2d", "batch_norm", "max_pool",
    "elu", "dropout",
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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
        assert by_name["bn1b"] == (64, 51, 48)
        assert by_name["pool1"] == by_name["elu1b"] == (64, 12, 48)
        assert by_name["bn2b"] == (64, 12, 48)
        assert by_name["pool2"] == by_name["elu2b"] == (64, 6, 48)
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

    def test_unknown_architecture_rejected(self):
        with pytest.raises(GraphBuildError, match="unknown architecture 'resnet'"):
            zoo.build("resnet", 8, 8)

    @pytest.mark.parametrize("patch", [{"patch_size": 3}, {"patch_size": 0}, {"patch_norm": False}])
    def test_conv_sep_rejects_patch_settings(self, patch):
        with pytest.raises(GraphBuildError, match="patch"):
            zoo.build("conv_sep", 8, 8, 3, **patch)


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

    def test_shape_mismatch_names_the_example(self):
        model = zoo.build_conv_sep(8, 8, 3)
        specs = [_rand_spec(0), _rand_spec(1, shape=(64, 26)), _rand_spec(2)]
        with pytest.raises(ShapeError, match=r"^example 1: input shape mismatch: .*got \(64, 26\)$"):
            zoo.stack_inputs(model, specs, np.float32)

    def test_inference_never_mutates_weights(self, weight_bytes):
        model = zoo.init_weights(zoo.build_conv_mixer(8, 8, 3), seed=9)
        before = weight_bytes(model)
        zoo.forward(model, _rand_spec(10))
        assert weight_bytes(model) == before

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    @pytest.mark.parametrize("chunk", [1, 4])
    @pytest.mark.parametrize("n", [3, 9])  # at chunk 4: smaller than a chunk, not a multiple of it
    def test_chunked_equals_one_batch(self, arch, chunk, n):
        # the bits do not depend on how a batch is sliced: per clip, as a
        # predictor runs it, or 4 clips per forward_batch call
        model = zoo.init_weights(zoo.build(arch, 8, 8), seed=11)
        x = np.random.default_rng(12).normal(size=(n, 64, 51, 1)).astype(np.float32)
        if chunk == 1:
            sliced = zoo.predictor(model)(x)
        else:
            parts = [zoo.forward_batch(model, x[i : i + chunk]) for i in range(0, n, chunk)]
            sliced = tuple(np.concatenate(arrays) for arrays in zip(*parts))
        whole = zoo.forward_batch(model, x)
        for got, want in zip(sliced, whole):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_evaluate_runs_in_chunks(self, monkeypatch):
        # chunks of one clip: one size-1 walk per clip
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=13)
        sizes = []
        walk = zoo.walk
        monkeypatch.setattr(zoo, "walk", lambda m, x, *args, **kw: sizes.append(len(x)) or walk(m, x, *args, **kw))
        metrics.evaluate(model, [(_rand_spec(i), i % 10) for i in range(9)])
        assert sizes == [1] * 9


def _with_norm_stats(model, seed):
    """Random affine norm parameters and moving statistics, so folding changes the weights."""
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        if layer.kind == "batch_norm":
            c = layer.weights["gamma"].shape[0]
            layer.weights["gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
            layer.weights["beta"] = rng.normal(0, 0.3, c).astype(np.float32)
            layer.weights["moving_mean"] = rng.normal(0, 0.3, c).astype(np.float32)
            layer.weights["moving_var"] = rng.uniform(0.5, 2.0, c).astype(np.float32)
    return model


class TestFoldedInference:
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_forward_batch_runs_the_folded_graph(self, arch):
        model = _with_norm_stats(zoo.init_weights(zoo.build(arch, 8, 6), seed=31), 32)
        x = np.random.default_rng(33).normal(size=(3, 64, 51, 1)).astype(np.float32)
        probs, logits = zoo.forward_batch(model, x)
        want_probs, want_logits, _ = zoo.run_graph(quantize.fold_batch_norm(model), x)
        assert probs.tobytes() == want_probs.tobytes() and logits.tobytes() == want_logits.tobytes()
        _, unfolded, _ = zoo.run_graph(model, x)
        np.testing.assert_allclose(logits, unfolded, rtol=1e-5, atol=1e-5 * np.abs(unfolded).max())
        pred = zoo.forward(model, Spectrogram(x[1, ..., 0], 64, 51))
        assert pred.logits.tobytes() == logits[1].tobytes()

    def test_fold_norms_drops_conv_sep_norms_and_leaves_the_model(self, weight_bytes):
        model = _with_norm_stats(zoo.init_weights(zoo.build_conv_sep(8, 6), seed=34), 35)
        before = weight_bytes(model)
        folded = zoo.fold_norms(model)
        assert [layer.kind for layer in folded.layers] == [k for k in CONV_SEP_GOLDEN if k != "batch_norm"]
        assert [layer.output_shape for layer in folded.layers] == zoo.infer_shapes(quantize.fold_batch_norm(model))
        assert weight_bytes(model) == before
        assert len(model.layers) == len(CONV_SEP_GOLDEN)

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    @pytest.mark.parametrize("forward", ["forward", "forward_batch"])
    def test_one_run_graph_call(self, arch, forward, monkeypatch):
        model = zoo.init_weights(zoo.build(arch, 4, 4), seed=36)
        x = np.zeros((2, 64, 51, 1), dtype=np.float32)
        calls = []
        run_graph = zoo.run_graph
        monkeypatch.setattr(zoo, "run_graph", lambda m, b, **kw: calls.append(len(b)) or run_graph(m, b, **kw))
        if forward == "forward":
            zoo.forward(model, Spectrogram(x[0, ..., 0], 64, 51))
        else:
            zoo.forward_batch(model, x)
        assert calls == [1 if forward == "forward" else 2]

    @pytest.mark.parametrize("arch, norm", [("conv_sep", "bn1a"), ("conv_mixer", "mix1_bn_a")])
    def test_bad_norm_statistics_still_raise(self, arch, norm):
        # conv_sep's norms fold before the walk, the mixer's run in kernels.batch_norm
        model = zoo.init_weights(zoo.build(arch, 4, 4), seed=37)
        layer = next(layer for layer in model.layers if layer.name == norm)
        layer.weights["moving_var"][0] = -5.0
        with pytest.raises(ValueError, match="negative variance"):
            zoo.forward(model, _rand_spec(38))
        layer.weights["moving_var"][0] = 1.0
        layer.config["eps"] = 0.0
        with pytest.raises(ValueError, match="eps must be positive"):
            zoo.forward_batch(model, np.zeros((1, 64, 51, 1)))

    def test_logits_identical_under_one_and_two_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from tinyasc import data, zoo\n"
            "x = np.stack([s.data for s, _ in data.synth_examples(8, seed=12)])[..., None]\n"
            "for arch in ('conv_sep', 'conv_mixer'):\n"
            "    model = zoo.init_weights(zoo.build(arch, 48, 48), seed=3)\n"
            "    print(zoo.forward_batch(model, x)[1].tobytes().hex())\n"
            "    print(zoo.predictor(model)(x)[1].tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0].count("\n") == 4
        assert outputs[0] == outputs[1]


class TestPredictor:
    def test_one_fold_per_predictor_over_nine_clips(self, monkeypatch):
        # the norms fold when a predictor is built, not per clip or per call;
        # metrics.evaluate builds one
        model = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=40)
        folds = []
        fold_norms = zoo.fold_norms
        monkeypatch.setattr(zoo, "fold_norms", lambda m: folds.append(m) or fold_norms(m))
        x = np.random.default_rng(41).normal(size=(9, 64, 51, 1)).astype(np.float32)
        predict = zoo.predictor(model)
        assert predict(x)[1].tobytes() == predict(x)[1].tobytes()
        assert len(folds) == 1
        metrics.evaluate(model, [(_rand_spec(i), i % 10) for i in range(9)])
        assert len(folds) == 2

    @pytest.mark.parametrize(
        "arch, name, weight",
        [
            ("conv_sep", "conv1", "w"),  # folded with bn1a
            ("conv_mixer", "mix1_bn_a", "gamma"),  # a norm behind a GELU, not folded
            ("conv_sep", "classifier", "b"),
            ("conv_mixer", "classifier", "b"),
        ],
    )
    def test_a_model_changed_after_its_predictor_is_not_seen(self, arch, name, weight):
        model = _with_norm_stats(zoo.init_weights(zoo.build(arch, 8, 6), seed=42), 43)
        x = np.random.default_rng(44).normal(size=(3, 64, 51, 1)).astype(np.float32)
        x_before = x.copy()
        predict = zoo.predictor(model)
        before = predict(x)
        layer = next(layer for layer in model.layers if layer.name == name)
        layer.weights[weight] = layer.weights[weight] + np.float32(0.5)
        for got, want in zip(predict(x), before):
            assert got.tobytes() == want.tobytes()
        assert zoo.predictor(model)(x)[1].tobytes() != before[1].tobytes()
        assert x.tobytes() == x_before.tobytes()


def _with_biases(model, seed):
    """Random biases, so a rebuild that leaves one out shows."""
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        if "b" in layer.weights:
            layer.weights["b"] = rng.normal(0, 0.3, layer.weights["b"].shape).astype(np.float32)
    return model


def _spy_norm_x_hats(monkeypatch, model):
    """For each norm by name, the whole-array train-mode x_hat = (x - x.mean(axes))
    * inv_std and inv_std = 1 / sqrt(x.var(axes) + eps) of the input of its train
    forward, and (x - mean) * inv_std and inv_std from the cache its backward step
    reads."""
    norms = {id(layer.weights["gamma"]): layer.name for layer in model.layers if layer.kind == "batch_norm"}
    forward, backward = {}, {}
    norm, norm_backward = kernels.batch_norm, kernels.batch_norm_backward

    def spy_norm(x, gamma, *args, eps, **kwargs):
        axes = tuple(range(x.ndim - 1))
        inv_std = 1.0 / np.sqrt(x.var(axis=axes) + eps)
        forward[norms[id(gamma)]] = (x - x.mean(axis=axes)) * inv_std, inv_std
        return norm(x, gamma, *args, eps=eps, **kwargs)

    def spy_backward(cache, g, **kwargs):
        x, mean, inv_std, gamma = cache[:4]
        backward[norms[id(gamma)]] = (x - mean) * inv_std, inv_std
        return norm_backward(cache, g, **kwargs)

    monkeypatch.setattr(kernels, "batch_norm", spy_norm)
    monkeypatch.setattr(kernels, "batch_norm_backward", spy_backward)
    return forward, backward


def _assert_same_x_hats(forward, backward):
    """Each norm's backward step formed the very x_hat bytes of its forward's input."""
    assert set(backward) == set(forward)
    for name, pairs in forward.items():
        for got, want in zip(backward[name], pairs, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _cache_arrays(cache):
    """Every array in a layer's backward cache; a ``Rebuild`` holds those of its ``rest``."""
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, tuple):
        for item in cache:
            yield from _cache_arrays(item)
    elif isinstance(cache, zoo.Rebuild):
        yield from _cache_arrays(cache.rest)
    else:
        assert cache is None or isinstance(cache, int), type(cache)


LINEAR_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense")


def _read_only_view_of(cached, array):
    """Whether ``cached`` is a read-only view of ``array``, sharing its memory."""
    return isinstance(cached, np.ndarray) and not cached.flags.writeable and cached.base is array


def _spy_linear_inputs(monkeypatch, model):
    """A copy of the input of each linear kernel call, forward and backward,
    keyed by (layer name, "forward" or "backward"); a layer is known by its kernel."""
    names = {id(layer.weights["w"]): layer.name for layer in model.layers if "w" in layer.weights}
    seen = {}
    for kind in LINEAR_KINDS:
        for suffix, step in (("", "forward"), ("_backward", "backward")):

            def spy(x, w, *args, _fn=getattr(kernels, kind + suffix), _step=step, **kwargs):
                seen[names[id(w)], _step] = x.copy()
                return _fn(x, w, *args, **kwargs)

            monkeypatch.setattr(kernels, kind + suffix, spy)
    return seen


class TestTrainCaches:
    def test_elu_caches_its_output_and_no_cache_holds_wide_indices(self):
        # ELU's backward reads its output, which is already the next layer's input, so
        # that layer keeps a read-only view of it; max pooling keeps a uint8 index and
        # dropout a bool mask
        model = zoo.init_weights(zoo.build_conv_sep(4, 4, input_shape=(8, 16, 1)), seed=2)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        outputs = []
        _, _, caches = zoo.run_graph(
            model, x, train=True, rng=np.random.default_rng(4), keep_caches=True, record_activations=outputs
        )
        kinds = [layer.kind for layer in model.layers]
        assert kinds.count("elu") == 4
        for i, kind in enumerate(kinds):
            if kind == "elu":
                assert caches[i] is outputs[i]
                assert kinds[i + 1] != "depthwise_conv2d" or _read_only_view_of(caches[i + 1], outputs[i])

        for kind, cache in zip(kinds, caches):
            for arr in _cache_arrays(cache):
                assert arr.dtype != np.int64
            if kind == "max_pool":
                assert cache[2].dtype == np.uint8
            if kind == "dropout":
                assert cache.dtype == bool

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_backward_frees_each_cache_after_its_step(self, arch, monkeypatch):
        # by the time layer 0's conv runs its backward, every later cache is freed;
        # the one survivor allowed is a reused cache that now carries its gradient
        model = zoo.init_weights(zoo.build(arch, 4, 4, input_shape=(8, 16, 1)), seed=2)
        assert model.layers[0].kind == "conv2d"
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        grad = np.ones_like(probs)
        del probs  # the softmax cache is the returned probabilities
        weights = {id(w) for layer in model.layers for w in layer.weights.values()}
        refs = [weakref.ref(a) for cache in caches[1:] for a in _cache_arrays(cache) if id(a) not in weights]
        assert len(refs) >= len(model.layers) // 2
        alive = []
        backward = kernels.conv2d_backward

        def spy(x, w, grad_y, **kwargs):
            if w is model.layers[0].weights["w"]:
                alive.append([ref() is not None and ref() is not grad_y for ref in refs])
            return backward(x, w, grad_y, **kwargs)

        monkeypatch.setattr(kernels, "conv2d_backward", spy)
        zoo.backward_graph(model, caches, grad)
        assert alive == [[False] * len(refs)]
        assert caches == [None] * len(model.layers)

    @pytest.mark.parametrize("patch_norm", [True, False])
    def test_a_layer_behind_a_train_norm_rebuilds_its_input(self, patch_norm, monkeypatch):
        # mix1_dw (behind patch_bn, past mix1_skip), mix1_pw and mix2_pw keep a reference
        # to the norm in front of them, not its output, and backward rebuilds the very
        # bytes each received; beta is not zero, so a rebuild without it shows. Each
        # norm keeps one to the GELU in front of it, and without the patch norm so
        # does mix1_dw; patch_gelu keeps one to the one-channel patch_embed, whose
        # bias is not zero; no cache holds the output of any of them
        build = zoo.build("conv_mixer", 4, 6, input_shape=(8, 16, 1), patch_norm=patch_norm)
        model = _with_biases(_with_norm_stats(zoo.init_weights(build, seed=2), seed=3), seed=4)
        names = [layer.name for layer in model.layers]
        norms = {id(layer.weights["gamma"]): layer.name for layer in model.layers if layer.kind == "batch_norm"}
        behind = {
            "mix1_pw": "mix1_bn_a",
            "mix2_pw": "mix2_bn_a",
            "mix1_dw": "patch_bn" if patch_norm else "patch_gelu",
            **{name: name.replace("_bn", "_gelu") for name in norms.values()},
            "patch_gelu": "patch_embed",
        }
        outputs, gelu_outputs = {}, []
        norm, gelu, conv = kernels.batch_norm, kernels.gelu, kernels.conv2d
        embed = model.layers[0].weights["w"]

        def spy_norm(x, gamma, *args, **kwargs):
            y, cache, stats = norm(x, gamma, *args, **kwargs)
            outputs[norms[id(gamma)]] = weakref.ref(y)
            return y, cache, stats

        def spy_gelu(x):
            gelu_outputs.append(weakref.ref(y := gelu(x)))
            return y

        def spy_conv(x, w, *args, **kwargs):
            y = conv(x, w, *args, **kwargs)
            if w is embed:
                outputs["patch_embed"] = weakref.ref(y)
            return y

        monkeypatch.setattr(kernels, "batch_norm", spy_norm)
        monkeypatch.setattr(kernels, "gelu", spy_gelu)
        monkeypatch.setattr(kernels, "conv2d", spy_conv)
        seen = _spy_linear_inputs(monkeypatch, model)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        gelus = [layer.name for layer in model.layers if layer.kind == "gelu"]
        outputs.update(zip(gelus, gelu_outputs, strict=True))
        rebuilt = {names[i]: names[c.source] for i, c in enumerate(caches) if isinstance(c, zoo.Rebuild)}
        assert rebuilt == behind
        assert [outputs[name]() for name in behind.values()] == [None] * len(behind)

        zoo.backward_graph(model, caches, np.ones_like(probs))
        linear = [layer.name for layer in model.layers if layer.kind in LINEAR_KINDS]
        assert set(seen) == {(name, step) for name in linear for step in ("forward", "backward")}
        for name in linear:
            got, want = seen[name, "backward"], seen[name, "forward"]
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("patch", [1, 2])
    @pytest.mark.parametrize("patch_norm", [True, False])
    def test_a_norm_holds_no_activation_while_the_conv_behind_it_steps(self, patch, patch_norm, monkeypatch):
        # the conv behind a norm (mix1_dw past mix1_skip, mix1_pw, mix2_pw) rebuilds the
        # norm's output from the norm's input, itself rebuilt from the GELU's; that input
        # is made again at the norm's own step, so while the conv's step runs the norm's
        # slot is still a Rebuild and holds no array of the conv's input size
        build = zoo.build("conv_mixer", 4, 6, patch_size=patch, input_shape=(8, 16, 1), patch_norm=patch_norm)
        model = _with_norm_stats(zoo.init_weights(build, seed=2), seed=3)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        feeds = {}
        for i, layer in enumerate(model.layers):
            j = i - 1 - (model.layers[i - 1].kind == "residual_add_begin")
            if layer.kind in ("depthwise_conv2d", "pointwise_conv2d") and model.layers[j].kind == "batch_norm":
                feeds[id(layer.weights["w"])] = j
        assert len(feeds) == (3 if patch_norm else 2)
        held = []
        for kind in ("depthwise_conv2d", "pointwise_conv2d"):

            def spy(x, w, *args, _fn=getattr(kernels, kind + "_backward"), **kwargs):
                if id(w) in feeds:
                    slot = caches[feeds[id(w)]]
                    held.append(not isinstance(slot, zoo.Rebuild) or any(a.size >= x.size for a in _cache_arrays(slot)))
                return _fn(x, w, *args, **kwargs)

            monkeypatch.setattr(kernels, kind + "_backward", spy)
        zoo.backward_graph(model, caches, np.ones_like(probs))
        assert held == [False] * len(feeds)

    @pytest.mark.parametrize("patch_norm", [True, False])
    def test_a_norm_behind_a_gelu_rebuilds_its_input_with_its_bits(self, patch_norm, monkeypatch):
        # the forward keeps no activation-sized array for such a norm, and the x_hat its
        # backward step forms from the rebuilt input is that of the forward's input
        build = zoo.build("conv_mixer", 4, 6, input_shape=(8, 16, 1), patch_norm=patch_norm)
        model = _with_norm_stats(zoo.init_weights(build, seed=2), seed=3)
        norms = {layer.name for layer in model.layers if layer.kind == "batch_norm"}
        forward, backward = _spy_norm_x_hats(monkeypatch, model)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        for i, layer in enumerate(model.layers):
            if layer.kind == "batch_norm":
                assert model.layers[i - 1].kind == "gelu"
                size = len(x) * int(np.prod(layer.output_shape))
                assert max(a.size for a in _cache_arrays(caches[i])) < size, layer.name

        zoo.backward_graph(model, caches, np.ones_like(probs))
        assert set(forward) == norms
        _assert_same_x_hats(forward, backward)

    @pytest.mark.parametrize(
        "arch, patch, patch_norm",
        [
            ("conv_sep", 1, True),
            ("conv_mixer", 1, True),
            ("conv_mixer", 1, False),
            ("conv_mixer", 2, True),
            ("conv_mixer", 2, False),
        ],
    )
    def test_a_one_channel_conv_rebuilds_its_output(self, arch, patch, patch_norm, monkeypatch):
        # layer 0 (conv1, or patch_embed with its 1x1 or strided 2x2 valid kernel) has one
        # input channel: the layer behind it keeps a Rebuild of it and no array of its
        # output's size, so at the end of the forward pass nothing holds that output.
        # Backward reruns the conv once, on the batch, and gets the forward's bytes
        build = zoo.build(arch, 4, 6, patch_size=patch, input_shape=(8, 16, 1), patch_norm=patch_norm)
        model = _with_biases(_with_norm_stats(zoo.init_weights(build, seed=2), seed=3), seed=4)
        first, conv, outputs = model.layers[0], kernels.conv2d, []

        def spy(x, w, *args, **kwargs):
            y = conv(x, w, *args, **kwargs)
            if w is first.weights["w"]:
                outputs.append((weakref.ref(y), y.tobytes()))
            return y

        monkeypatch.setattr(kernels, "conv2d", spy)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        assert isinstance(caches[1], zoo.Rebuild) and caches[1].source == 0
        size = len(x) * int(np.prod(first.output_shape))
        assert all(a.size < size for a in _cache_arrays(caches[1]))
        assert len(outputs) == 1 and outputs[0][0]() is None

        zoo.backward_graph(model, caches, np.ones_like(probs))
        assert len(outputs) == 2 and outputs[1][1] == outputs[0][1]

    def test_a_norm_behind_a_one_channel_conv_rebuilds_its_input_with_its_bits(self, monkeypatch):
        # bn1a's input is conv1's rerun output at its backward step, bn1b's and bn2b's
        # that of sep1_pw and sep2_pw, and the x_hat formed from each is that of the
        # forward's input; the convs' biases are not zero
        build = zoo.build("conv_sep", 4, 6, input_shape=(8, 16, 1))
        model = _with_biases(_with_norm_stats(zoo.init_weights(build, seed=2), seed=3), seed=4)
        forward, backward = _spy_norm_x_hats(monkeypatch, model)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        size = len(x) * int(np.prod(model.layers[0].output_shape))
        assert isinstance(caches[1], zoo.Rebuild) and all(a.size < size for a in _cache_arrays(caches[1]))
        zoo.backward_graph(model, caches, np.ones_like(probs))
        assert set(forward) == {"bn1a", "bn1b", "bn2a", "bn2b"}
        _assert_same_x_hats(forward, backward)

    def test_a_pointwise_conv_that_keeps_its_input_rebuilds_its_output(self, monkeypatch):
        # sep1_pw and sep2_pw keep their input, a depthwise conv's output, as an array, so
        # bn1b and bn2b keep a Rebuild of them and no array of their output's size, and at
        # the end of the forward pass nothing holds that output. Backward reruns each once,
        # at its norm's step, and gets the forward's bytes; biases and norm statistics are
        # not zero
        build = zoo.build("conv_sep", 4, 6, input_shape=(8, 16, 1))
        model = _with_biases(_with_norm_stats(zoo.init_weights(build, seed=2), seed=3), seed=4)
        names = [layer.name for layer in model.layers]
        pointwise = {id(layer.weights["w"]): layer.name for layer in model.layers if layer.kind == "pointwise_conv2d"}
        outputs, kernel = collections.defaultdict(list), kernels.pointwise_conv2d

        def spy(x, w, *args, **kwargs):
            y = kernel(x, w, *args, **kwargs)
            outputs[pointwise[id(w)]].append((weakref.ref(y), y.tobytes()))
            return y

        monkeypatch.setattr(kernels, "pointwise_conv2d", spy)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(4), keep_caches=True)
        for m in (1, 2):
            norm = names.index(f"bn{m}b")
            assert isinstance(caches[norm], zoo.Rebuild) and names[caches[norm].source] == f"sep{m}_pw"
            size = len(x) * int(np.prod(model.layers[norm].output_shape))
            assert all(a.size < size for a in _cache_arrays(caches[norm]))
        assert {name: [ref() for ref, _ in calls] for name, calls in outputs.items()} == {
            "sep1_pw": [None],
            "sep2_pw": [None],
        }

        zoo.backward_graph(model, caches, np.ones_like(probs))
        for name, calls in outputs.items():
            assert len(calls) == 2 and calls[1][1] == calls[0][1], name

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_only_a_one_channel_conv_rebuilds_its_output(self, arch, channels):
        # a conv with more input channels costs more to rerun than its output takes
        # to keep: behind conv2, or conv1 and patch_embed on a two-channel input, a
        # norm and a GELU keep that output, their input, itself
        build = zoo.build(arch, 4, 4, input_shape=(8, 16, channels))
        model = _with_norm_stats(zoo.init_weights(build, seed=2), seed=3)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, channels)).astype(np.float32)
        outputs = []
        _, _, caches = zoo.run_graph(
            model, x, train=True, rng=np.random.default_rng(4), keep_caches=True, record_activations=outputs
        )
        convs = [i for i, layer in enumerate(model.layers) if layer.kind == "conv2d"]
        rebuilt = [i for i in convs if isinstance(caches[i + 1], zoo.Rebuild)]
        assert rebuilt == ([0] if channels == 1 else [])
        for i in set(convs) - set(rebuilt):
            behind = model.layers[i + 1]
            cached = caches[i + 1] if behind.kind == "gelu" else caches[i + 1][0]
            assert cached is outputs[i], behind.name

    @pytest.mark.parametrize("arch, train", [("conv_sep", True), ("conv_sep", False), ("conv_mixer", False)])
    def test_other_linear_layers_cache_their_input_itself(self, arch, train):
        # conv_sep has no linear layer right behind a norm (an ELU sits between); its
        # Rebuilds are bn1a's of the one-channel conv1 and bn1b's and bn2b's of sep1_pw
        # and sep2_pw, which keep their input, a depthwise conv's output, themselves. A
        # train walk keeps a read-only view of an input a layer does not own: conv1's,
        # the caller's batch, and a depthwise conv's, an ELU's output. An eval-mode walk
        # rebuilds nothing
        model = _with_norm_stats(zoo.init_weights(zoo.build(arch, 4, 4, input_shape=(8, 16, 1)), seed=2), seed=3)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, 1)).astype(np.float32)
        outputs = []
        _, _, caches = zoo.run_graph(
            model, x, train=train, rng=np.random.default_rng(4), keep_caches=True, record_activations=outputs
        )
        names = [layer.name for layer in model.layers]
        rebuilt = {names[i]: names[c.source] for i, c in enumerate(caches) if isinstance(c, zoo.Rebuild)}
        assert rebuilt == ({"bn1a": "conv1", "bn1b": "sep1_pw", "bn2b": "sep2_pw"} if train else {})
        inputs = [x, *outputs]
        for i, layer in enumerate(model.layers):
            if layer.kind in LINEAR_KINDS:
                not_owned = train and (i == 0 or model.layers[i - 1].kind == "elu")
                assert _read_only_view_of(caches[i], inputs[i]) if not_owned else caches[i] is inputs[i], layer.name


# the layers whose outputs a train walk keeps at the end of the forward pass, as float
# arrays: each ELU's output (its own cache; a depthwise conv behind it keeps a view),
# and the input of each GELU, linear layer or norm whose maker cannot rebuild it
# (mix2_dw's, drop1's output, a view of what its residual skip held). Every other float
# cache is a Rebuild or freed; each pool keeps a uint8 index and each dropout a bool
# mask, one byte per output entry
KEPT_OUTPUTS = {
    "conv_sep": ("elu1a", "sep1_dw", "elu1b", "drop1", "conv2", "elu2a", "sep2_dw", "elu2b"),
    "conv_mixer": ("mix1_add", "mix1_pw", "drop1", "mix2_add", "mix2_pw"),
}


class TestStepMemory:
    @pytest.mark.parametrize(
        "arch, patch",
        [("conv_sep", 1), ("conv_mixer", 1), ("conv_mixer", 2)],
        ids=["conv_sep", "conv_mixer", "conv_mixer-patch2"],
    )
    def test_a_train_step_holds_what_the_cache_rules_keep(self, arch, patch):
        # one 8-8 batch-8 step on 64x51 clips under tracemalloc, in activations of the
        # first layer's output bytes (N * 64 * 51 * F * 4 at patch 1): at the end of the
        # forward pass the traced bytes are the arrays KEPT_OUTPUTS names, 3.47
        # activations for conv_sep (elu1b and elu2b keep pooled outputs), 2.88 for
        # conv_mixer and 2.90 at patch 2 (so bn1b and bn2b keep no input), and the step's
        # peak is within two activations of them, room for one backward step's gradients
        # and rebuilds (no cache outlives its step). Traced: 3.48 and 4.27 for conv_sep,
        # the peak at bn1b's backward step; 2.89 and 4.33 for conv_mixer, 2.94 and 4.50
        # at patch 2, the peak at mix1_dw's
        model = zoo.init_weights(zoo.build(arch, 8, 8, patch_size=patch), seed=1)
        x = np.random.default_rng(2).normal(size=(8, 64, 51, 1)).astype(np.float32)
        entries = {layer.name: len(x) * int(np.prod(layer.output_shape)) for layer in model.layers}
        activation = 4 * entries[model.layers[0].name]
        kept = 4 * sum(entries[name] for name in KEPT_OUTPUTS[arch])
        kept += sum(entries[layer.name] for layer in model.layers if layer.kind in ("max_pool", "dropout"))

        def step():
            probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(3), keep_caches=True)
            live = tracemalloc.get_traced_memory()[0]
            zoo.backward_graph(model, caches, np.ones_like(probs))
            return live

        step()  # a first step's one-off allocations stay out of the figures
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            live = step() - base
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kept <= live <= kept + 0.05 * activation, (live / activation, kept / activation)
        assert peak <= kept + 2 * activation, (peak / activation, kept / activation)


def _hand_graph(*layers, input_shape=(4, 5, 2)):
    """A float64 graph of ``layers``, none of which ``build`` makes, then global
    pooling and a 3-way classifier, with random weights, biases and norm parameters,
    every one float64, so that central differences can check each gradient."""
    head = [zoo._simple("global_avg_pool", "gap"), zoo._dense("classifier", 2, 3), zoo._simple("softmax", "softmax")]
    model = zoo.ModelGraph([*layers, *head], "conv_sep", (2, 2), 3, input_shape=input_shape, n_classes=3)
    zoo.infer_shapes(model)
    model = _with_biases(_with_norm_stats(zoo.init_weights(model, seed=5, dtype=np.float64), seed=6), seed=7)
    for layer in model.layers:
        layer.weights = {name: w.astype(np.float64) for name, w in layer.weights.items()}
    return model


# a layer of each kind a hand-built graph takes, by name, each keeping (H, W, 2)
_LAYERS = {
    "elu": lambda name: zoo._simple("elu", name),
    "gelu": lambda name: zoo._simple("gelu", name),
    "batch_norm": lambda name: zoo._batch_norm(name, 2),
    "conv2d": lambda name: zoo._conv(name, 3, 2, 2, True),
    "depthwise_conv2d": lambda name: zoo._depthwise(name, 3, 2, True),
    "pointwise_conv2d": lambda name: zoo._pointwise(name, 2, 2, True),
    "max_pool": lambda name: zoo._simple("max_pool", name, pool=(1, 1)),
    "dropout": lambda name: zoo._simple("dropout", name, rate=0.0),
}


class TestNormOwnsItsInput:
    # a train-mode norm's backward step writes its input gradient into its cached
    # input where that is writeable, so walk keeps a read-only view of an input that
    # another reader holds, and the step forms that gradient in a new array

    def test_a_norm_behind_an_elu_leaves_the_elu_its_output(self):
        # the ELU's cache is its output, the norm's input; the ELU's backward step reads
        # it after the norm's has run, and the conv's weight gradient passes through both
        model = _hand_graph(zoo._conv("conv", 3, 2, 2, True), zoo._simple("elu", "elu"), zoo._batch_norm("bn", 2))
        rng = np.random.default_rng(7)
        x, r = rng.normal(size=(3, 4, 5, 2)), rng.normal(size=(3, 3))
        probs, _, caches = zoo.run_graph(model, x, train=True, keep_caches=True)
        grads, _ = zoo.backward_graph(model, caches, r)

        def loss():
            return float((zoo.run_graph(model, x, train=True)[0] * r).sum())

        numeric = fd_grad(loss, model.layers[0].weights["w"])
        assert np.abs(numeric).max() > 1e-2
        check(grads[0]["w"], numeric)

    def test_a_norm_at_layer_0_leaves_the_callers_batch(self):
        model = _hand_graph(zoo._batch_norm("bn", 2))
        x = np.random.default_rng(7).normal(size=(3, 4, 5, 2))
        before = x.tobytes()
        probs, _, caches = zoo.run_graph(model, x, train=True, keep_caches=True)
        zoo.backward_graph(model, caches, np.ones_like(probs))
        assert x.tobytes() == before

    @pytest.mark.parametrize(
        "layers",
        [
            lambda: [zoo._batch_norm("bn", 2)],
            lambda: [zoo._conv("conv", 3, 2, 2, True), zoo._simple("elu", "elu"), zoo._batch_norm("bn", 2)],
            lambda: [
                zoo._conv("conv", 3, 2, 2, True),
                zoo._simple("residual_add_begin", "skip"),
                zoo._batch_norm("bn", 2),
                zoo._simple("residual_add_end", "add"),
            ],
        ],
        ids=["at-layer-0", "behind-an-elu", "behind-an-open-skip"],
    )
    def test_a_norm_keeps_a_read_only_view_of_an_input_it_does_not_own(self, layers):
        # the caller's batch, an ELU's output and an open skip's array: the norm keeps
        # no copy of it, but a view sharing its memory, and writes no gradient over it
        model = _hand_graph(*layers())
        rng = np.random.default_rng(7)
        x, r = rng.normal(size=(3, 4, 5, 2)), rng.normal(size=(3, 3))
        before = x.tobytes()
        outputs = []
        _, _, caches = zoo.run_graph(model, x, train=True, keep_caches=True, record_activations=outputs)
        bn = next(i for i, layer in enumerate(model.layers) if layer.kind == "batch_norm")
        assert _read_only_view_of(caches[bn][0], [x, *outputs][bn])
        grads, _ = zoo.backward_graph(model, caches, r)
        assert x.tobytes() == before
        _check_weight_grads(model, x, r, grads)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize(
        "arch, patch, patch_norm",
        [("conv_sep", 1, True), *(("conv_mixer", p, n) for p in (1, 2) for n in (True, False))],
    )
    def test_no_built_graph_copies_or_shares_a_norm_input(self, arch, patch, patch_norm, channels):
        # in every graph build makes, a norm's cached input is its own: neither the
        # batch nor (in) another layer's cache, so walk copies none
        build = zoo.build(arch, 4, 4, patch_size=patch, input_shape=(8, 16, channels), patch_norm=patch_norm)
        model = zoo.init_weights(build, seed=2)
        x = np.random.default_rng(3).normal(size=(5, 8, 16, channels)).astype(np.float32)
        outputs = []
        _, _, caches = zoo.run_graph(
            model, x, train=True, rng=np.random.default_rng(4), keep_caches=True, record_activations=outputs
        )
        inputs = [x, *outputs]
        norms = [i for i, layer in enumerate(model.layers) if layer.kind == "batch_norm"]
        assert norms
        for i in norms:
            if isinstance(caches[i], zoo.Rebuild):
                continue
            own = caches[i][0]
            assert own is inputs[i] and own is not x, model.layers[i].name
            others = [c for j, c in enumerate(caches) if j != i]
            assert not any(own is c or (isinstance(c, tuple) and any(own is a for a in c)) for c in others)


def _gelu_behind_a_skip():
    """A GELU whose input, a two-channel conv's output, an open residual skip also holds."""
    return _hand_graph(
        zoo._conv("conv", 3, 2, 2, True),
        zoo._simple("residual_add_begin", "skip"),
        zoo._simple("gelu", "gelu"),
        zoo._batch_norm("bn", 2),
        zoo._simple("residual_add_end", "add"),
    )


class TestGeluOwnsItsInput:
    # the rebuild of a GELU's output that backward keeps writes the GELU's dy/dx over
    # its cached input, so walk keeps a read-only view of an input the GELU does not own

    @pytest.mark.parametrize(
        "graph",
        [lambda: _hand_graph(zoo._simple("gelu", "gelu"), zoo._batch_norm("bn", 2)), _gelu_behind_a_skip],
        ids=["the-callers-batch", "a-residual-skips-array"],
    )
    def test_a_gelu_leaves_an_input_it_does_not_own(self, graph):
        model = graph()
        rng = np.random.default_rng(7)
        x, r = rng.normal(size=(3, 4, 5, 2)), rng.normal(size=(3, 3))
        outputs = []
        _, _, caches = zoo.run_graph(model, x, train=True, keep_caches=True, record_activations=outputs)
        before = [a.tobytes() for a in (x, *outputs)]
        zoo.backward_graph(model, caches, r)
        assert [a.tobytes() for a in (x, *outputs)] == before

    @pytest.mark.parametrize("own", [True, False])
    def test_a_gelu_steps_by_its_slope_only_where_it_owns_its_input(self, own, monkeypatch):
        # the kept rebuild of the GELU's output forms its slope once: behind a two-channel
        # conv, which is not rerun, over the GELU's own input; behind an open skip, in a
        # new array, leaving that input as it was. The conv's weight gradient passes
        # through the GELU either way
        layers = (zoo._conv("conv", 3, 2, 2, True), zoo._simple("gelu", "gelu"), zoo._batch_norm("bn", 2))
        model = _hand_graph(*layers) if own else _gelu_behind_a_skip()
        rng = np.random.default_rng(7)
        x, r = rng.normal(size=(3, 4, 5, 2)), rng.normal(size=(3, 3))
        outs = _spy_gelu_slope_outs(monkeypatch)
        outputs = []
        _, _, caches = zoo.run_graph(model, x, train=True, keep_caches=True, record_activations=outputs)
        before = outputs[0].tobytes()
        grads, _ = zoo.backward_graph(model, caches, r)
        assert outs == [outputs[0] if own else None]
        assert own or outputs[0].tobytes() == before
        numeric = _check_weight_grads(model, x, r, grads, ("w",))
        assert np.abs(numeric[0, "w"]).max() > 1e-2

    @pytest.mark.parametrize(
        "kinds, train",
        [(("gelu", "max_pool"), True), (("gelu", "elu"), True), (("elu", "gelu"), True), (("elu", "gelu"), False)],
        ids=["ahead-of-a-pool", "ahead-of-an-elu", "behind-an-elu", "behind-an-elu-eval"],
    )
    def test_a_gelu_no_layer_rebuilds_forms_its_slope_at_its_step(self, kinds, train, monkeypatch):
        # no later layer keeps the GELU's output, so its step forms the slope by one
        # gelu_slope, in a new array: behind an ELU the GELU's input is the ELU's output,
        # which the ELU's step reads next, and an eval-mode walk keeps no view of it
        model = _hand_graph(zoo._conv("conv", 3, 2, 2, True), *(_LAYERS[kind](kind) for kind in kinds))
        rng = np.random.default_rng(7)
        x, r = rng.normal(size=(3, 4, 5, 2)), rng.normal(size=(3, 3))
        outs = _spy_gelu_slope_outs(monkeypatch)
        _, _, caches = zoo.run_graph(model, x, train=train, keep_caches=True)
        assert outs == []
        grads, _ = zoo.backward_graph(model, caches, r)
        assert outs == [None]
        _check_weight_grads(model, x, r, grads, train=train)


def _spy_gelu_slope_outs(monkeypatch):
    """The ``out`` of each ``kernels.gelu_slope`` call, in order."""
    outs, slope = [], kernels.gelu_slope
    monkeypatch.setattr(kernels, "gelu_slope", lambda x, out=None: outs.append(out) or slope(x, out=out))
    return outs


def _check_weight_grads(model, x, r, grads, names=None, train=True):
    """Each of ``grads``' weight gradients (those in ``names`` if given) against float64
    central differences of sum(probs * r), which it returns by (layer, weight); every
    trainable layer has its gradients."""

    def loss():
        return float((zoo.run_graph(model, x, train=train)[0] * r).sum())

    assert set(grads) == {i for i, layer in enumerate(model.layers) if layer.kind in zoo.TRAINABLE_WEIGHTS}
    numeric = {}
    for i, per in grads.items():
        for name, grad in per.items():
            if names is None or name in names:
                numeric[i, name] = fd_grad(loss, model.layers[i].weights[name])
                check(grad, numeric[i, name])
    return numeric


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(_LAYERS)), min_size=1, max_size=4), st.data())
def test_a_train_step_on_a_drawn_graph_leaves_the_batch_and_gets_every_gradient(kinds, data):
    # whatever reads a layer's input later (the caller, an ELU's step, an open skip),
    # one train step's backward writes over no array it does not own
    layers = [_LAYERS[kind](f"{kind}{i}") for i, kind in enumerate(kinds)]
    if data.draw(st.booleans(), label="skip"):
        begin = data.draw(st.integers(0, len(layers)), label="begin")
        end = data.draw(st.integers(begin, len(layers)), label="end")
        layers.insert(end, zoo._simple("residual_add_end", "add"))
        layers.insert(begin, zoo._simple("residual_add_begin", "skip"))
    model = _hand_graph(*layers)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x, r = rng.normal(size=(2, 4, 5, 2)), rng.normal(size=(2, 3))
    before = x.tobytes()
    _, _, caches = zoo.run_graph(model, x, train=True, keep_caches=True)
    grads, _ = zoo.backward_graph(model, caches, r)
    assert x.tobytes() == before
    _check_weight_grads(model, x, r, grads)


class TestInitWeights:
    def test_same_seed_identical(self, weight_bytes):
        a = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=11)
        b = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=11)
        assert weight_bytes(a) == weight_bytes(b)

    def test_different_seed_differs(self, weight_bytes):
        a = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=11)
        b = zoo.init_weights(zoo.build_conv_sep(8, 8, 3), seed=12)
        assert weight_bytes(a) != weight_bytes(b)

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

    def test_negative_seed_is_a_config_error(self, weight_bytes):
        # not numpy's "expected non-negative integer"; the weights are left as they were
        model = zoo.build_conv_sep(4, 4, 3)
        before = weight_bytes(model)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            zoo.init_weights(model, seed=-1)
        assert weight_bytes(model) == before


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

    def test_truncation_inside_a_layer_names_it(self, tmp_path):
        model = zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(8, 8, 1)), seed=3)
        path = tmp_path / "m.tasc"
        zoo.save_model(model, path)
        blob = path.read_bytes()
        # header, then layer 0: tensor count at 25, ndim, four dims, 36 float32 from byte 43
        for cut, where in (
            (25, "1 bytes, in layer 0"),
            (26, "1 bytes, in layer 0 weight w"),
            (60, "144 bytes, in layer 0 weight w"),
            (43 + 144 + 1, "4 bytes, in layer 0 weight b"),  # the bias's dim
        ):
            short = tmp_path / f"cut{cut}.tasc"
            short.write_bytes(blob[:cut])
            with pytest.raises(ShapeError, match=rf"cut{cut}\.tasc: truncated at byte {cut}, wanted {where}$"):
                zoo.load_model(short)

    def test_header_bytes_pinned(self, tmp_path):
        sep = zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(8, 8, 1)), seed=3)
        mixer = zoo.build_conv_mixer(
            4, 6, 3, patch_size=3, input_shape=(16, 24, 1), use_bias=False, patch_norm=False
        )
        # magic, version, arch id, f1, f2, kernel, patch, bias, patch norm, classes, h, w, c
        for model, header in (
            (sep, "54415343 0100 00 0400 0400 0300 0100 01 01 0a00 0800 0800 0100"),
            (mixer, "54415343 0100 01 0400 0600 0300 0300 00 00 0a00 1000 1800 0100"),
        ):
            path = tmp_path / "m.tasc"
            zoo.save_model(model, path)
            assert path.read_bytes()[:25] == bytes.fromhex(header)
            assert zoo.load_model(path).arch_tag == model.arch_tag

        qpath = tmp_path / "m.tasq"
        quantize.save_quantized(quantize.quantize_model(sep, [_rand_spec(0, shape=(8, 8))]), qpath)
        tasc = tmp_path / "m.tasc"
        zoo.save_model(sep, tasc)
        for path, load, error, start in (
            (tasc, zoo.load_model, ShapeError, 0),
            (qpath, quantize.load_quantized, QuantizationError, 4),
        ):
            good = path.read_bytes()
            for at, problem in (
                (start + 6, "unknown architecture id 2"),
                (start + 4, "unsupported checkpoint version 2"),
            ):
                bad = tmp_path / f"bad{path.suffix}"
                bad.write_bytes(good[:at] + b"\x02" + good[at + 1:])
                with pytest.raises(error, match=rf"bad\{path.suffix}: {problem}$"):
                    load(bad)

    @pytest.mark.parametrize("suffix", [".tasc", ".tasq"])
    def test_an_oversized_header_is_refused_naming_the_file(self, tmp_path, suffix):
        model = zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(8, 8, 1)), seed=3)
        path = tmp_path / f"m{suffix}"
        if suffix == ".tasc":
            zoo.save_model(model, path)
            load, error, start = zoo.load_model, ShapeError, 0
        else:
            quantize.save_quantized(quantize.quantize_model(model, [_rand_spec(0, shape=(8, 8))]), path)
            load, error, start = quantize.load_quantized, QuantizationError, 4
        good = path.read_bytes()
        # f1, f2 and kernel at bytes 7 to 12 of the header, 65535 each: 1 PiB for conv1's
        # kernel alone. A host that overcommits it fails later, at the stored shape, so
        # only the error type and the file are pinned.
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(good[: start + 7] + struct.pack("<HHH", 65535, 65535, 65535) + good[start + 13 :])
        with pytest.raises(error, match=re.escape(f"{bad}: ")):
            load(bad)

    def test_negative_moving_variance_rejected(self, tmp_path):
        model = zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(8, 8, 1)), seed=3)
        model.layers[5].weights["moving_var"][2] = -5.0  # bn1b
        path = tmp_path / "m.tasc"
        zoo.save_model(model, path)
        # the one float32 -5.0 in the file is the offending entry
        blob = path.read_bytes()
        assert blob.count(struct.pack("<f", -5.0)) == 1
        at = blob.index(struct.pack("<f", -5.0))
        where = "layer 5 weight moving_var"
        problem = re.escape(f"m.tasc: {where}: negative moving variance -5.0 at channel 2, at byte {at}")
        with pytest.raises(ShapeError, match=problem + "$"):
            zoo.load_model(path)

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
        for name in ("conv2d", "pointwise_conv2d", "gelu", "gelu_slope", "batch_norm", "batch_norm_backward"):

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
        want = kinds(model, "conv2d", "pointwise_conv2d", "gelu", "batch_norm")
        assert seen == {k: n for k, n in want.items() if n}
        assert want["pointwise_conv2d"] == 2
        read_by_a_conv = sum(isinstance(c, zoo.Rebuild) and model.layers[c.source].kind == "batch_norm" for c in caches)
        _, seen = calls(lambda: zoo.backward_graph(model, caches, np.ones_like(probs)))
        # each of the mixer's norms, all behind a GELU, rebuilds its input at its step by
        # gelu_slope, which also gives the GELU's step its slope; the conv behind a norm
        # rebuilds the norm's output from one more GELU. The one-channel first conv is
        # rerun once, and so is each of conv_sep's pointwise convs, whose input is an
        # array; the mixer's, whose input is a Rebuild of a norm, is not
        rebuilds = (
            {"gelu_slope": want["batch_norm"], "gelu": read_by_a_conv}
            if arch == "conv_mixer"
            else {"pointwise_conv2d": want["pointwise_conv2d"]}
        )
        assert seen == {"batch_norm_backward": want["batch_norm"], "conv2d": 1, **rebuilds}
        # a tabled layer's kernel runs once, on the table's codes
        _, seen = calls(lambda: quantize.quantized_forward(qm, specs[0]))
        int8_kinds = kinds(qm.graph, "conv2d", "pointwise_conv2d", "gelu", "batch_norm")
        assert seen == {k: n for k, n in int8_kinds.items() if n}
        assert seen["conv2d"] >= 1

