"""Quantization roundtrips, calibration, batch-norm folding, integer inference."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from tinyasc import data, quantize, zoo
from tinyasc.errors import QuantizationError
from tinyasc.frontend import Spectrogram

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _rand_spec(seed, shape=(16, 12)):
    rng = np.random.default_rng(seed)
    return Spectrogram(rng.normal(size=shape), n_mels=shape[0], n_frames=shape[1])


def _small_model(arch="conv_sep", seed=0):
    build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
    model = build(4, 4, 3, input_shape=(16, 12, 1))
    zoo.init_weights(model, seed=seed)
    # non-trivial norm statistics so folding actually does something
    rng = np.random.default_rng(seed + 100)
    for layer in model.layers:
        if layer.kind == "batch_norm":
            c = layer.weights["gamma"].shape[0]
            layer.weights["gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
            layer.weights["beta"] = rng.normal(0, 0.3, c).astype(np.float32)
            layer.weights["moving_mean"] = rng.normal(0, 0.3, c).astype(np.float32)
            layer.weights["moving_var"] = rng.uniform(0.5, 2.0, c).astype(np.float32)
    return model


class TestQuantizeTensor:
    def test_symmetric_scale_formula(self):
        t = np.array([0.1, -0.5, 0.3])
        _, params = quantize.quantize_tensor(t, "symmetric_weight")
        np.testing.assert_allclose(params.scale, 0.5 / 127.0, rtol=1e-12)
        assert params.zero_point == 0

    @pytest.mark.parametrize("scheme", ["symmetric_weight", "affine_activation"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundtrip_error_within_half_scale(self, scheme, seed):
        rng = np.random.default_rng(seed)
        t = rng.normal(0, rng.uniform(0.01, 10), size=200)
        q, params = quantize.quantize_tensor(t, scheme)
        back = quantize.dequantize(q, params)
        assert np.max(np.abs(back - t)) <= params.scale / 2 + 1e-12

    def test_zero_tensor_degenerates_to_scale_one(self):
        q, params = quantize.quantize_tensor(np.zeros(10), "symmetric_weight")
        assert params.scale == 1.0
        assert np.all(q == 0)

    def test_affine_zero_maps_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lo, hi = sorted(rng.uniform(-4, 4, size=2))
            params = quantize.affine_params(lo, hi)
            q0 = quantize.quantize_array(np.array([0.0]), params)
            assert quantize.dequantize(q0, params)[0] == 0.0

    def test_affine_range_not_shrunk_by_zero_extension(self):
        params = quantize.affine_params(0.5, 2.0)  # widened to [0, 2]
        np.testing.assert_allclose(params.scale, 2.0 / 255.0, rtol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(QuantizationError):
            quantize.quantize_tensor(np.array([1.0, np.inf]))


class TestCalibrate:
    def test_single_input_ranges_match_that_input(self):
        model = _small_model()
        spec = _rand_spec(1)
        cal = quantize.calibrate(model, [spec])
        acts = []
        x = spec.data[None, ..., None].astype(np.float32)
        zoo.run_graph(model, x, record_activations=acts)
        assert cal.input_range == (float(x.min()), float(x.max()))
        for (lo, hi), act in zip(cal.layer_ranges, acts):
            assert lo == float(act.min()) and hi == float(act.max())

    def test_adding_inputs_never_shrinks_ranges(self):
        model = _small_model()
        specs = [_rand_spec(i) for i in range(5)]
        cal1 = quantize.calibrate(model, specs[:1])
        cal5 = quantize.calibrate(model, specs)
        for (lo1, hi1), (lo5, hi5) in zip(cal1.layer_ranges, cal5.layer_ranges):
            assert lo5 <= lo1 and hi5 >= hi1

    def test_empty_calibration_rejected(self):
        with pytest.raises(QuantizationError, match="at least one"):
            quantize.calibrate(_small_model(), [])


class TestFoldBatchNorm:
    def test_identity_norm_leaves_weights_nearly_unchanged(self):
        model = zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(16, 12, 1)), seed=3)
        conv_before = model.layers[0].weights["w"].copy()
        folded = quantize.fold_batch_norm(model)
        # identity statistics: only the eps term perturbs the kernel
        np.testing.assert_allclose(folded.layers[0].weights["w"], conv_before, rtol=1e-3)

    def test_folded_forward_matches_unfolded(self):
        model = _small_model()
        folded = quantize.fold_batch_norm(model)
        for seed in range(5):
            spec = _rand_spec(seed + 10)
            a = zoo.forward(model, spec)
            b = zoo.forward(folded, spec)
            np.testing.assert_allclose(b.probabilities, a.probabilities, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(b.logits, a.logits, rtol=1e-5, atol=1e-5)

    def test_conv_sep_folding_removes_all_norms(self):
        model = _small_model()
        folded = quantize.fold_batch_norm(model)
        kinds = [l.kind for l in folded.layers]
        assert "batch_norm" not in kinds
        assert len(folded.layers) == len(model.layers) - 4

    def test_mixer_norms_behind_activations_stay(self):
        model = _small_model(arch="conv_mixer")
        folded = quantize.fold_batch_norm(model)
        kinds = [l.kind for l in folded.layers]
        # no norm directly follows a convolution in the mixer layout
        assert kinds.count("batch_norm") == 5
        base = zoo.forward(model, _rand_spec(30))
        same = zoo.forward(folded, _rand_spec(30))
        np.testing.assert_allclose(same.probabilities, base.probabilities, rtol=1e-6)

    def test_original_model_untouched(self):
        model = _small_model()
        before = zoo.weights_fingerprint(model)
        quantize.fold_batch_norm(model)
        assert zoo.weights_fingerprint(model) == before


@pytest.fixture(scope="module")
def setup():
    model = _small_model()
    cal = [_rand_spec(i) for i in range(8)]
    qm = quantize.quantize_model(model, cal)
    return model, qm, cal


class TestQuantizedForward:
    def test_zero_input_valid_probabilities(self, setup):
        _, qm, _ = setup
        pred = quantize.quantized_forward(qm, Spectrogram(np.zeros((16, 12)), 16, 12))
        assert np.all(np.isfinite(pred.probabilities))
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-9)

    def test_deterministic(self, setup):
        _, qm, cal = setup
        a = quantize.quantized_forward(qm, cal[0])
        b = quantize.quantized_forward(qm, cal[0])
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_logits_close_to_float(self, setup):
        model, qm, cal = setup
        report = quantize.agreement_report(model, qm, cal)
        assert report["n_inputs"] == 8
        assert report["max_logit_diff"] < 0.5  # empirical bound on the tiny model

    def test_mixer_quantizes_too(self):
        model = _small_model(arch="conv_mixer")
        cal = [_rand_spec(i + 50) for i in range(4)]
        qm = quantize.quantize_model(model, cal)
        pred = quantize.quantized_forward(qm, cal[0])
        np.testing.assert_allclose(pred.probabilities.sum(), 1.0, atol=1e-9)

    def test_missing_calibration_rejected(self, setup):
        _, qm, _ = setup
        broken = quantize.QuantizedModel(
            graph=qm.graph,
            weight_payloads=qm.weight_payloads,
            weight_params=qm.weight_params,
            float_weights=qm.float_weights,
            activation_params=[],
            input_params=qm.input_params,
        )
        with pytest.raises(QuantizationError, match="calibration"):
            quantize.quantized_forward(broken, _rand_spec(0))

    def test_short_calibration_rejected(self, setup):
        _, qm, _ = setup
        short = quantize.QuantizedModel(**{**vars(qm), "activation_params": qm.activation_params[:3]})
        want = f"calibration gives 3 activation params for {len(qm.graph.layers)} graph layers"
        with pytest.raises(QuantizationError, match=want):
            quantize.quantized_forward(short, _rand_spec(0))
        with pytest.raises(QuantizationError, match=want):
            quantize.layer_errors(_small_model(), short, [_rand_spec(0)])

    def test_changed_fields_reach_the_next_call(self):
        # the integer constants come from the fields on every call, none kept from the first
        specs = [_rand_spec(i + 70) for i in range(3)]
        qm = quantize.quantize_model(_small_model(), specs)
        before = quantize.quantized_forward(qm, specs[0]).logits
        kinds = [layer.kind for layer in qm.graph.layers]
        dense, pointwise = kinds.index("dense"), kinds.index("pointwise_conv2d")
        qm.float_weights[(dense, "b")] = qm.float_weights[(dense, "b")] + 5.0
        p = qm.activation_params[pointwise - 1]  # the params of the pointwise layer's input
        qm.activation_params[pointwise - 1] = quantize.QuantParams(p.scale * 2, p.zero_point, p.scheme)
        got = quantize.quantized_forward(qm, specs[0]).logits
        want = quantize.quantized_forward(quantize.QuantizedModel(**vars(qm)), specs[0]).logits
        assert not np.array_equal(want, before)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_plain_arrays_work_like_spectrograms(self, arch):
        model = _small_model(arch)
        specs = [_rand_spec(i + 40) for i in range(4)]
        arrays = [spec.data for spec in specs]
        qm_arrays = quantize.quantize_model(model, arrays)
        qm_specs = quantize.quantize_model(model, specs)
        assert qm_arrays.activation_params == qm_specs.activation_params
        assert qm_arrays.input_params == qm_specs.input_params
        for array, spec in zip(arrays, specs):
            a = quantize.quantized_forward(qm_arrays, array)
            b = quantize.quantized_forward(qm_specs, spec)
            np.testing.assert_array_equal(a.logits, b.logits)
        report = quantize.agreement_report(model, qm_arrays, arrays)
        assert report == quantize.agreement_report(model, qm_specs, specs)
        assert report["n_inputs"] == 4

    def test_layer_errors_cover_conv_dense_and_norm_layers(self):
        model = _small_model(arch="conv_mixer")
        specs = [_rand_spec(i + 60) for i in range(3)]
        qm = quantize.quantize_model(model, specs)
        rows = quantize.layer_errors(model, qm, specs)
        kinds = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense", "batch_norm")
        assert [(r["name"], r["kind"]) for r in rows] == [
            (layer.name, layer.kind) for layer in qm.graph.layers if layer.kind in kinds
        ]
        assert [r["kind"] for r in rows].count("batch_norm") == 5
        # the classifier row measures the logits against the folded float model's
        folded = quantize.fold_batch_norm(model)
        diffs = [quantize.quantized_forward(qm, s).logits - zoo.forward(folded, s).logits for s in specs]
        want = max(float(np.max(np.abs(d))) for d in diffs)
        assert rows[-1]["max_abs_diff"] == want
        assert all(10.0 < r["sqnr_db"] < np.inf for r in rows)

    def test_wrong_input_shape_rejected(self, setup):
        _, qm, _ = setup
        with pytest.raises(QuantizationError, match="shape"):
            quantize.quantized_forward(qm, _rand_spec(0, shape=(8, 12)))

    def test_quantized_graph_stays_within_budget_when_audited(self, setup):
        from tinyasc import audit

        _, qm, _ = setup
        report = audit.audit_model(qm.graph)
        assert report.params_pass


class TestQuantizedSerialization:
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_round_trip(self, tmp_path, arch):
        model = _small_model(arch=arch, seed=9)
        cal = [_rand_spec(i + 70) for i in range(4)]
        qm = quantize.quantize_model(model, cal)
        path = tmp_path / "model.tasq"
        quantize.save_quantized(qm, path)
        back = quantize.load_quantized(path)
        assert set(back.weight_payloads) == set(qm.weight_payloads)
        for key in qm.weight_payloads:
            np.testing.assert_array_equal(back.weight_payloads[key], qm.weight_payloads[key])
            assert back.weight_params[key].scale == qm.weight_params[key].scale
        for key in qm.float_weights:
            np.testing.assert_array_equal(back.float_weights[key], qm.float_weights[key])
        a = quantize.quantized_forward(qm, cal[0])
        b = quantize.quantized_forward(back, cal[0])
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tasq"
        path.write_bytes(b"WRONG" + b"\x00" * 30)
        with pytest.raises(QuantizationError, match="magic"):
            quantize.load_quantized(path)

    def test_truncated_file_names_file_and_offset(self, tmp_path, setup):
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        blob = path.read_bytes()
        for cut in (0, 3, 4, 8, 29, 31, 50, len(blob) // 2, len(blob) - 10, len(blob) - 1):
            short = tmp_path / f"cut{cut}.tasq"
            short.write_bytes(blob[:cut])
            with pytest.raises(QuantizationError, match=rf"cut{cut}\.tasq: truncated at byte {cut},"):
                quantize.load_quantized(short)

    def test_truncation_inside_a_layer_names_it(self, tmp_path, setup):
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        blob = path.read_bytes()
        # magic, header, layer count; layer 0: tensor count, tag, scale/zero point, ndim,
        # four dims, 36 INT8 codes from byte 60, then the bias: tag, ndim, dim, 4 float32 from byte 102
        for cut, where in ((70, "36 bytes, in layer 0 weight w"), (110, "16 bytes, in layer 0 weight b")):
            short = tmp_path / f"cut{cut}.tasq"
            short.write_bytes(blob[:cut])
            expected = rf"cut{cut}\.tasq: truncated at byte {cut}, wanted {where}$"
            with pytest.raises(QuantizationError, match=expected):
                quantize.load_quantized(short)

    def test_stored_shape_must_match_graph(self, tmp_path, setup):
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        blob = bytearray(path.read_bytes())
        # magic, header, layer count, tensor count, tag, scale/zero point, ndim: then conv1's dims
        at = 4 + 25 + 2 + 1 + 1 + 10 + 1
        kh, kw, cin, cout = struct.unpack_from("<4I", blob, at)
        struct.pack_into("<4I", blob, at, kh, kw, cout, cin)
        path.write_bytes(bytes(blob))
        with pytest.raises(QuantizationError, match=r"m\.tasq: layer 0 weight w: stored shape"):
            quantize.load_quantized(path)

    def test_activation_param_count_must_match_graph(self, tmp_path, setup):
        _, qm, _ = setup
        short = quantize.QuantizedModel(**{**vars(qm), "activation_params": qm.activation_params[:3]})
        path = tmp_path / "m.tasq"
        quantize.save_quantized(short, path)
        expected = rf"m\.tasq: 3 activation params stored, {len(qm.graph.layers)} expected"
        with pytest.raises(QuantizationError, match=expected):
            quantize.load_quantized(path)

    def test_negative_moving_variance_rejected(self, tmp_path):
        # the mixer's norms sit behind activations, so the .tasq keeps them as float records
        qm = quantize.quantize_model(_small_model(arch="conv_mixer"), [_rand_spec(80)])
        assert qm.graph.layers[2].name == "patch_bn"
        qm.float_weights[(2, "moving_var")][1] = -5.0
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        problem = r"m\.tasq: layer 2 weight moving_var: negative moving variance -5\.0 at channel 1$"
        with pytest.raises(QuantizationError, match=problem):
            quantize.load_quantized(path)

    def test_trailing_bytes_rejected(self, tmp_path, setup):
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x07")
        trailing = rf"m\.tasq: unexpected data after the last record, at byte {size}$"
        with pytest.raises(QuantizationError, match=trailing):
            quantize.load_quantized(path)



# --- exactness of the integer layers -----------------------------------------
#
# The references below sum integer codes in int64 with einsum and share no code
# with tinyasc.kernels; an integer layer must reproduce them bit for bit.


def _windows(codes, kh, kw):
    """(N, H, W, C, kh, kw) zero-padded "same" windows of an int64 tensor."""
    padded = np.pad(codes, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))


_REFERENCE = {
    "conv2d": lambda c, w: np.einsum("nhwcij,ijco->nhwo", _windows(c, *w.shape[:2]), w),
    "depthwise_conv2d": lambda c, w: np.einsum("nhwcij,ijc->nhwc", _windows(c, *w.shape[:2]), w),
    "pointwise_conv2d": lambda c, w: np.einsum("nhwc,co->nhwo", c, w[0, 0]),
    "dense": lambda c, w: np.einsum("nk,km->nm", c, w),
}


def _reference_layer(layer, x, codes, w_scale, in_params, bias=None):
    """Float64 output of an integer layer from int64 sums: requantize ``x``,
    sum, add the bias rounded to the accumulator unit, rescale."""
    q = np.clip(np.round(x / in_params.scale) + in_params.zero_point, -128, 127).astype(np.int64)
    acc = _REFERENCE[layer.kind](q - in_params.zero_point, codes.astype(np.int64))
    out_scale = in_params.scale * w_scale
    if bias is not None:
        acc = acc + np.round(bias.astype(np.float64) / out_scale)
    return acc * out_scale


# (kind, weight shape, input shape) with K = taps x input channels, or taps for
# depthwise, whose odd kernels cannot make K = 518 itself
_EXTREME = {
    "conv2d": {518: ((7, 1, 74, 2), (1, 7, 1, 74)), 519: ((3, 1, 173, 2), (1, 3, 1, 173))},
    "depthwise_conv2d": {517: ((11, 47, 2), (1, 11, 47, 2)), 519: ((173, 3, 2), (1, 173, 3, 2))},
    "pointwise_conv2d": {518: ((1, 1, 518, 2), (1, 1, 1, 518)), 519: ((1, 1, 519, 2), (1, 1, 1, 519))},
    "dense": {518: ((518, 2), (1, 518)), 519: ((519, 2), (1, 519))},
}


class TestIntegerExactness:
    def test_guard_bound(self):
        assert quantize.FLOAT32_MAX_K == 518
        assert 518 * 255 * 127 < 2**24 < 519 * 255 * 127
        assert quantize.gemm_dtype(518) is np.float32
        assert quantize.gemm_dtype(519) is np.float64

    @pytest.mark.parametrize("kind", sorted(_EXTREME))
    @pytest.mark.parametrize("largest", [False, True])
    def test_all_maximum_codes_sum_exactly(self, kind, largest):
        k = max(_EXTREME[kind]) if largest else min(_EXTREME[kind])
        w_shape, x_shape = _EXTREME[kind][k]
        layer = zoo.LayerSpec(kind, kind, {}, {"w": np.zeros(w_shape, np.float32)})
        # zero point -128 and input 255 * scale give the extreme code |q - zp| = 255
        in_params = quantize.affine_params(0.0, 255.0)
        assert (in_params.scale, in_params.zero_point) == (1.0, -128)
        codes = np.full(w_shape, 127, dtype=np.int8)
        x = np.full(x_shape, 255.0)
        integer = quantize.IntegerLayer.build(codes, 1.0, in_params)
        assert integer.w.dtype == (np.float64 if largest else np.float32)
        got = integer(layer, x)
        want = _reference_layer(layer, x, codes, 1.0, in_params)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        # the window that covers every tap holds the all-maximum sum
        flat = got.reshape(-1, w_shape[-1])
        assert flat[len(flat) // 2, 0] == k * 255 * 127
        if largest:
            assert k * 255 * 127 == 16_807_815  # odd and above 2**24: float32 cannot hold it
        elif k == 518:
            assert k * 255 * 127 == 16_775_430

    def test_tiny_weights_with_unit_bias_do_not_wrap(self):
        # a near-zero classifier makes bias / out_scale far beyond int32
        model = _small_model()
        dense = model.layers[-2]
        rng = np.random.default_rng(3)
        dense.weights["w"] = (rng.uniform(-1, 1, dense.weights["w"].shape) * 1e-12).astype(np.float32)
        dense.weights["b"] = np.ones_like(dense.weights["b"])
        qm = quantize.quantize_model(model, [_rand_spec(i) for i in range(4)])
        idx = len(qm.graph.layers) - 2
        assert qm.graph.layers[idx].kind == "dense"
        acts = []
        pred = quantize.quantized_forward(qm, _rand_spec(9), record=acts)
        in_params = qm.activation_params[idx - 1]
        w_scale = qm.weight_params[(idx, "w")].scale
        bias = qm.float_weights[(idx, "b")]
        assert np.all(np.abs(bias / (in_params.scale * w_scale)) >= 2**31)
        want = _reference_layer(dense, acts[idx - 1], qm.weight_payloads[(idx, "w")], w_scale, in_params, bias)
        np.testing.assert_array_equal(pred.logits, want[0])
        np.testing.assert_allclose(pred.logits, 1.0, rtol=1e-6)

    def test_64_64_conv_sep_uses_float64_and_matches_reference(self):
        model = zoo.init_weights(zoo.build_conv_sep(64, 64, 3, input_shape=(16, 12, 1)), seed=4)
        specs = [_rand_spec(i) for i in range(3)]
        qm = quantize.quantize_model(model, specs)
        acts = []
        quantize.quantized_forward(qm, specs[0], record=acts)
        inputs = [zoo.stack_inputs(qm.graph, [specs[0]], np.float64)] + acts
        ks = {}
        for i, layer in enumerate(qm.graph.layers):
            if (i, "w") not in qm.weight_payloads:
                continue
            codes = qm.weight_payloads[(i, "w")]
            ks[layer.name] = int(np.prod(codes.shape[:-1]))
            in_params = qm.input_params if i == 0 else qm.activation_params[i - 1]
            want = _reference_layer(
                layer, inputs[i], codes, qm.weight_params[(i, "w")].scale, in_params, qm.float_weights.get((i, "b"))
            )
            np.testing.assert_array_equal(acts[i], want)
        assert ks["conv2"] == 576 and quantize.gemm_dtype(ks["conv2"]) is np.float64
        assert quantize.gemm_dtype(ks["conv1"]) is np.float32

    def test_logits_identical_under_one_and_two_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from tinyasc import data, quantize, zoo\n"
            "specs = [s for s, _ in data.synth_examples(4, seed=11)]\n"
            "for arch in ('conv_sep', 'conv_mixer'):\n"
            "    model = zoo.init_weights(zoo.build(arch, 48, 48), seed=2)\n"
            "    qm = quantize.quantize_model(model, specs)\n"
            "    for spec in specs:\n"
            "        print(quantize.quantized_forward(qm, spec).logits.tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0].count("\n") == 8
        assert outputs[0] == outputs[1]
