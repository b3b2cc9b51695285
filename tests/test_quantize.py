"""Quantization roundtrips, calibration, batch-norm folding, integer inference."""

import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from tinyasc import data, kernels, quantize, zoo
from tinyasc.errors import QuantizationError, ShapeError
from tinyasc.frontend import Spectrogram

# the kinds whose kernel runs on INT8 codes
INT8_KERNEL_KINDS = {"conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense"}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _rand_spec(seed, shape=(16, 12)):
    rng = np.random.default_rng(seed)
    return Spectrogram(rng.normal(size=shape), n_mels=shape[0], n_frames=shape[1])


def _small_model(arch="conv_sep", seed=0):
    build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
    return _random_norms(zoo.init_weights(build(4, 4, 3, input_shape=(16, 12, 1)), seed=seed), seed)


def _random_norms(model, seed):
    """``model`` with non-trivial norm statistics, so that folding actually does something."""
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
        _, params = quantize.quantize_tensor(t)
        np.testing.assert_allclose(params.scale, 0.5 / 127.0, rtol=1e-12)
        assert params.zero_point == 0

    @pytest.mark.parametrize("scheme", ["symmetric_weight", "affine_activation"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundtrip_error_within_half_scale(self, scheme, seed):
        rng = np.random.default_rng(seed)
        t = rng.normal(0, rng.uniform(0.01, 10), size=200)
        if scheme == "symmetric_weight":
            q, params = quantize.quantize_tensor(t)
        else:
            params = quantize.affine_params(t.min(), t.max())
            q = quantize.quantize_array(t, params)
        back = (q.astype(np.float64) - params.zero_point) * params.scale
        assert np.max(np.abs(back - t)) <= params.scale / 2 + 1e-12

    def test_zero_tensor_degenerates_to_scale_one(self):
        q, params = quantize.quantize_tensor(np.zeros(10))
        assert params.scale == 1.0
        assert np.all(q == 0)

    def test_affine_zero_maps_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lo, hi = sorted(rng.uniform(-4, 4, size=2))
            params = quantize.affine_params(lo, hi)
            q0 = quantize.quantize_array(np.array([0.0]), params)
            assert ((q0.astype(np.float64) - params.zero_point) * params.scale)[0] == 0.0

    def test_affine_range_not_shrunk_by_zero_extension(self):
        params = quantize.affine_params(0.5, 2.0)  # widened to [0, 2]
        np.testing.assert_allclose(params.scale, 2.0 / 255.0, rtol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(QuantizationError):
            quantize.quantize_tensor(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -0.5])
    @pytest.mark.parametrize("scheme", ["symmetric_weight", "affine_activation"])
    def test_params_need_a_finite_positive_scale(self, scale, scheme):
        # nan <= 0 is False, so a NaN scale once passed
        with pytest.raises(QuantizationError, match="scale must be finite and positive"):
            quantize.QuantParams(scale, 0, scheme)


class TestCalibrate:
    def test_single_input_ranges_match_that_input(self):
        model = _small_model()
        spec = _rand_spec(1)
        ranges = quantize.calibrate(model, [spec])
        acts = []
        x = spec.data[None, ..., None].astype(np.float32)
        zoo.run_graph(model, x, record_activations=acts)
        assert ranges[0] == (float(x.min()), float(x.max()))
        for (lo, hi), act in zip(ranges[1:], acts):
            assert lo == float(act.min()) and hi == float(act.max())
        # quantize_model's params: the input's from ranges[0], layer i's from ranges[i + 1]
        qm = quantize.quantize_model(model, [spec])
        folded = quantize.calibrate(quantize.fold_batch_norm(model), [spec])
        assert [qm.input_params, *qm.activation_params] == [quantize.affine_params(lo, hi) for lo, hi in folded]

    def test_adding_inputs_never_shrinks_ranges(self):
        model = _small_model()
        specs = [_rand_spec(i) for i in range(5)]
        cal1 = quantize.calibrate(model, specs[:1])
        cal5 = quantize.calibrate(model, specs)
        for (lo1, hi1), (lo5, hi5) in zip(cal1[1:], cal5[1:]):
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

    def test_original_model_untouched(self, weight_bytes):
        model = _small_model()
        before = weight_bytes(model)
        quantize.fold_batch_norm(model)
        assert weight_bytes(model) == before


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

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_every_conv_and_dense_kernel_is_int8_and_a_missing_one_is_refused(self, tmp_path, arch):
        # a kernel kept as a float weight once ran in float on the graph's weights
        model = _small_model(arch=arch)
        cal = [_rand_spec(i + 60) for i in range(2)]
        qm = quantize.quantize_model(model, cal)
        kernels = {(i, "w") for i, layer in enumerate(qm.graph.layers) if layer.kind in INT8_KERNEL_KINDS}
        assert set(qm.weight_payloads) == set(qm.weight_params) == kernels
        assert not kernels & set(qm.float_weights)
        broken_models = []
        for i, _ in sorted(kernels):
            payloads = {k: v for k, v in qm.weight_payloads.items() if k != (i, "w")}
            floats = {**qm.float_weights, (i, "w"): qm.weight_payloads[(i, "w")].astype(np.float32)}
            broken = quantize.QuantizedModel(**{**vars(qm), "weight_payloads": payloads, "float_weights": floats})
            broken_models.append((broken, f"layer {i} ({qm.graph.layers[i].name}): no INT8 payload for weight w"))
        # missing params of a kernel once raised KeyError
        for i, _ in sorted(kernels):
            params = {k: v for k, v in qm.weight_params.items() if k != (i, "w")}
            broken = quantize.QuantizedModel(**{**vars(qm), "weight_params": params})
            broken_models.append((broken, f"layer {i} ({qm.graph.layers[i].name}): no quant params for weight w"))
        # a missing bias once ran its layer without it, and a missing norm statistic raised KeyError
        names = {name for _, name in qm.float_weights}
        assert "b" in names and (arch == "conv_sep" or "moving_var" in names)
        for i, name in sorted(qm.float_weights):
            floats = {k: v for k, v in qm.float_weights.items() if k != (i, name)}
            broken = quantize.QuantizedModel(**{**vars(qm), "float_weights": floats})
            broken_models.append((broken, f"layer {i} ({qm.graph.layers[i].name}): no float weight {name}"))
        for broken, problem in broken_models:
            for call in (
                lambda: quantize.quantized_forward(broken, cal[0]),
                lambda: quantize.quantization_report(model, broken, cal),
                lambda: quantize.save_quantized(broken, tmp_path / "m.tasq"),
            ):
                with pytest.raises(QuantizationError, match=f"^{re.escape(problem)}$"):
                    call()

    def test_short_calibration_rejected(self, setup):
        _, qm, _ = setup
        short = quantize.QuantizedModel(**{**vars(qm), "activation_params": qm.activation_params[:3]})
        want = f"calibration gives 3 activation params for {len(qm.graph.layers)} graph layers"
        with pytest.raises(QuantizationError, match=want):
            quantize.quantized_forward(short, _rand_spec(0))
        with pytest.raises(QuantizationError, match=want):
            quantize.quantization_report(_small_model(), short, [_rand_spec(0)])

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

    def test_norm_step_byte_equal_to_the_float_kernel_in_eval_mode(self):
        # the norm step is the float engine's own norm on float64 copies of the statistics
        model = _small_model(arch="conv_mixer")
        qm = quantize.quantize_model(model, [_rand_spec(i + 80) for i in range(2)])
        i = next(i for i, layer in enumerate(qm.graph.layers) if layer.kind == "batch_norm")
        layer = qm.graph.layers[i]
        gamma, beta, mean, var = (qm.float_weights[(i, n)].astype(np.float64) for n in layer.weight_names())
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 7, gamma.shape[0])) * 4
        specials = [0.0, -0.0, 5e-324, -2.2e-310, np.inf, -np.inf, np.nan]
        x.reshape(-1)[rng.choice(x.size, 40, replace=False)] = rng.choice(specials, 40)
        x_before = x.copy()
        got = quantize._norm_step(qm, i, layer)(None, x)
        want = kernels.batch_norm(x, gamma, beta, mean, var, eps=layer.config["eps"], train=False)[0]
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert x.tobytes() == x_before.tobytes()

    def test_layer_errors_cover_conv_dense_and_norm_layers(self):
        model = _small_model(arch="conv_mixer")
        specs = [_rand_spec(i + 60) for i in range(3)]
        qm = quantize.quantize_model(model, specs)
        rows = quantize.quantization_report(model, qm, specs)[1]
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
        assert all(type(r[key]) is float for r in rows for key in ("sqnr_db", "max_abs_diff"))

    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_one_pass_report_equals_the_two_reports(self, arch):
        model = _small_model(arch)
        specs = [_rand_spec(i + 90) for i in range(3)]
        qm = quantize.quantize_model(model, specs)
        assert quantize.quantization_report(model, qm, specs)[0] == quantize.agreement_report(model, qm, specs)
        # no inputs is no score, not a perfect one
        for report in (quantize.quantization_report, quantize.agreement_report):
            with pytest.raises(QuantizationError, match="at least one input"):
                report(model, qm, [])

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

    def test_conv_sep_pool_and_elu_params_read_in_either_order(self, setup):
        # a .tasq written while each conv_sep module ran its last ELU before its pool
        # holds those two layers' params the other way round; no integer layer reads
        # either (conv2 and the classifier read drop{m}'s), so it gives these INT8 outputs
        model, qm, cal = setup
        names = [layer.name for layer in qm.graph.layers]
        params = list(qm.activation_params)
        for m in (1, 2):
            i = names.index(f"pool{m}")
            assert names[i + 1] == f"elu{m}b" and params[i] != params[i + 1]
            params[i], params[i + 1] = params[i + 1], params[i]
        old = quantize.QuantizedModel(**{**vars(qm), "activation_params": params})
        x = zoo.stack_inputs(qm.graph, cal, np.float64)
        assert quantize.predictor(old)(x)[1].tobytes() == quantize.predictor(qm)(x)[1].tobytes()
        assert quantize.quantization_report(model, old, cal) == quantize.quantization_report(model, qm, cal)

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
        # the one float32 -5.0 in the file is the offending entry
        blob = path.read_bytes()
        assert blob.count(struct.pack("<f", -5.0)) == 1
        at = blob.index(struct.pack("<f", -5.0))
        where = "layer 2 weight moving_var"
        problem = re.escape(f"m.tasq: {where}: negative moving variance -5.0 at channel 1, at byte {at}")
        with pytest.raises(QuantizationError, match=problem + "$"):
            quantize.load_quantized(path)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -0.5])
    @pytest.mark.parametrize("record", ["weight", "input", "activation"])
    def test_bad_stored_scale_names_file_record_and_offset(self, tmp_path, setup, record, scale):
        # a NaN or inf scale once loaded and gave NaN logits; each is refused at its record.
        # Layer 0's weight scale follows magic, header, layer count, tensor count and tag;
        # the input's precedes the activation count and ten bytes per activation
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        blob = bytearray(path.read_bytes())
        n = len(qm.graph.layers)
        at, where, params = {
            "weight": (4 + 25 + 2 + 1 + 1, "layer 0 weight w", qm.weight_params[(0, "w")]),
            "input": (len(blob) - 10 * n - 2 - 10, "input", qm.input_params),
            "activation": (len(blob) - 10 * (n - 3), "layer 3 activation", qm.activation_params[3]),
        }[record]
        assert struct.unpack_from("<dh", blob, at) == (params.scale, params.zero_point)
        struct.pack_into("<d", blob, at, scale)
        path.write_bytes(bytes(blob))
        problem = re.escape(f"m.tasq: {where}: scale must be finite and positive, got {scale}, at byte {at}")
        with pytest.raises(QuantizationError, match=problem + "$"):
            quantize.load_quantized(path)

    def test_nonzero_weight_zero_point_names_file_record_and_offset(self, tmp_path, setup):
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        blob = bytearray(path.read_bytes())
        at = 4 + 25 + 2 + 1 + 1
        struct.pack_into("<h", blob, at + 8, 3)
        path.write_bytes(bytes(blob))
        problem = rf"m\.tasq: layer 0 weight w: symmetric scheme requires zero_point 0, at byte {at}$"
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

    @pytest.mark.parametrize("k", [518, 519])
    def test_random_codes_on_the_conv_path_sum_exactly(self, k):
        # random codes through the per-clip row GEMM: float32 sums at K = 518, float64 at 519
        w_shape, _ = _EXTREME["conv2d"][k]
        kh, _, cin, _ = w_shape
        rng = np.random.default_rng(k)
        layer = zoo.LayerSpec("conv2d", "conv2d", {}, {"w": np.zeros(w_shape, np.float32)})
        in_params = quantize.affine_params(0.0, 255.0)
        codes = rng.integers(-127, 128, size=w_shape).astype(np.int8)
        x = rng.uniform(0.0, 255.0, size=(2, kh + 2, 3, cin))
        integer = quantize.IntegerLayer.build(codes, 1.0, in_params)
        assert integer.w.dtype == (np.float32 if k == 518 else np.float64)
        got = integer(layer, x)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, _reference_layer(layer, x, codes, 1.0, in_params))

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
        _, logits = quantize.predictor(qm)(zoo.stack_inputs(qm.graph, [_rand_spec(9)], np.float64), record=acts)
        in_params = qm.activation_params[idx - 1]
        w_scale = qm.weight_params[(idx, "w")].scale
        bias = qm.float_weights[(idx, "b")]
        assert np.all(np.abs(bias / (in_params.scale * w_scale)) >= 2**31)
        want = _reference_layer(dense, acts[idx - 1], qm.weight_payloads[(idx, "w")], w_scale, in_params, bias)
        np.testing.assert_array_equal(logits[0], want[0])
        np.testing.assert_allclose(logits[0], 1.0, rtol=1e-6)

    def test_64_64_conv_sep_uses_float64_and_matches_reference(self):
        model = zoo.init_weights(zoo.build_conv_sep(64, 64, 3, input_shape=(16, 12, 1)), seed=4)
        specs = [_rand_spec(i) for i in range(3)]
        qm = quantize.quantize_model(model, specs)
        acts = []
        x = zoo.stack_inputs(qm.graph, [specs[0]], np.float64)
        quantize.predictor(qm)(x, record=acts)
        inputs = [x] + acts
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

    def test_logits_identical_at_every_numpy_dispatch_level(self, tmp_path):
        # numpy picks SIMD loops for the CPU, and some give other float64 bits at another
        # level; requantizing absorbs last-bit differences unless a code flips
        specs = [s for s, _ in data.synth_examples(32, seed=12)]
        for arch in ("conv_sep", "conv_mixer"):
            model = _random_norms(zoo.init_weights(zoo.build(arch, 48, 48), seed=3), 3)
            quantize.save_quantized(quantize.quantize_model(model, specs[:4]), tmp_path / f"{arch}.tasq")
        np.save(tmp_path / "clips.npy", np.stack([s.data for s in specs]))
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "from tinyasc import quantize, zoo\n"
            "root, out = sys.argv[1:]\n"
            "clips = list(np.load(f'{root}/clips.npy'))\n"
            "for arch in ('conv_sep', 'conv_mixer'):\n"
            "    qm = quantize.load_quantized(f'{root}/{arch}.tasq')\n"
            "    _, logits = quantize.predictor(qm)(zoo.stack_inputs(qm.graph, clips, np.float64))\n"
            "    np.save(f'{out}-{arch}.npy', logits)\n"
            "print(json.dumps(sorted(name for name, on in __cpu_features__.items() if on)))\n"
        )
        # all features, then the AVX-512 groups off, then numpy's x86-64-v2 baseline alone
        levels = ("", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
        baseline = set(np._core._multiarray_umath.__cpu_baseline__)
        runs = []
        for k, level in enumerate(levels):
            if baseline & set(level.split()):
                continue  # numpy refuses to disable a baseline feature
            env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "NPY_DISABLE_CPU_FEATURES": level}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            out = tmp_path / f"level{k}"
            result = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(out)], env=env,
                                    capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            features = json.loads(result.stdout)
            if not runs or features != runs[-1][0]:  # a CPU without a level's features runs the one before
                runs.append((features, [np.load(f"{out}-{arch}.npy") for arch in ("conv_sep", "conv_mixer")]))
        if len(runs) < 2:
            pytest.skip("numpy dispatches to one level on this CPU")
        for _, logits in runs[1:]:
            for got, want in zip(logits, runs[0][1]):
                assert got.shape == (32, 10) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("zero_point", [-128, 127])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_centered_codes_of_far_quotients_are_the_end_codes(zero_point, dtype):
    # scale 0.25 makes x / scale exact, so each quotient below is the one tested
    params = quantize.QuantParams(0.25, zero_point, "affine_activation")
    near = [0.0, 0.5, 1.5, 2.5, 126.5, 127.5, 128.5, 254.5, 255.5, 256.0]
    far = [2.0**24 + 1, 2.0**25 + 3, 3.4e38, 3.5e38, 1e39, 1e300, np.inf]  # beyond float32 from 3.5e38
    quotients = np.array(near + far + [-q for q in near + far])
    x = quotients * params.scale
    want = np.clip(np.round(x / params.scale) + zero_point, -128, 127) - zero_point
    got = quantize.centered_codes(x, params, dtype)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want.astype(dtype))
    assert {got.min(), got.max()} == {-128 - zero_point, 127 - zero_point}


class TestPredictor:
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_bits_are_quantized_forwards_and_the_record_is_the_plain_steps_walk(self, arch):
        model = _small_model(arch)
        specs = [_rand_spec(i + 110) for i in range(3)]
        qm = quantize.quantize_model(model, specs)
        x = zoo.stack_inputs(qm.graph, specs, np.float64)
        got = []
        probs, logits = quantize.predictor(qm)(x, record=got)
        n = len(qm.graph.layers)
        assert len(got) == 3 * n
        for k, spec in enumerate(specs):
            pred = quantize.quantized_forward(qm, spec)
            assert pred.probabilities.tobytes() == probs[k].tobytes() and pred.logits.tobytes() == logits[k].tobytes()
            want = []
            zoo.walk(qm.graph, x[k : k + 1], zoo.Run(), quantize._steps(qm), record=want)
            for a, b in zip(got[k * n : (k + 1) * n], want, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_one_steps_per_predictor_and_per_report(self, monkeypatch):
        model = _small_model("conv_mixer")
        specs = [_rand_spec(i + 120) for i in range(9)]
        qm = quantize.quantize_model(model, specs)
        built = []
        steps = quantize._steps
        monkeypatch.setattr(quantize, "_steps", lambda q: built.append(q) or steps(q))
        predict = quantize.predictor(qm)
        x = zoo.stack_inputs(qm.graph, specs, np.float64)
        assert predict(x)[1].tobytes() == predict(x)[1].tobytes()
        assert len(built) == 1
        quantize.agreement_report(model, qm, specs[:4])
        assert len(built) == 2
        quantize.quantization_report(model, qm, specs[:4])
        assert len(built) == 3

    @pytest.mark.parametrize("field", ["float_weights", "activation_params"])
    def test_a_quantized_model_changed_after_its_predictor_is_not_seen(self, field):
        specs = [_rand_spec(i + 130) for i in range(3)]
        qm = quantize.quantize_model(_small_model(), specs)
        x = zoo.stack_inputs(qm.graph, specs, np.float64)
        x_before = x.copy()
        predict = quantize.predictor(qm)
        before = predict(x)
        kinds = [layer.kind for layer in qm.graph.layers]
        if field == "float_weights":
            dense = kinds.index("dense")
            qm.float_weights[(dense, "b")] = qm.float_weights[(dense, "b")] + 5.0
        else:
            i = kinds.index("pointwise_conv2d") - 1  # the params of the pointwise layer's input
            p = qm.activation_params[i]
            qm.activation_params[i] = quantize.QuantParams(p.scale * 2, p.zero_point, p.scheme)
        for got, want in zip(predict(x), before):
            assert got.tobytes() == want.tobytes()
        assert quantize.predictor(qm)(x)[1].tobytes() != before[1].tobytes()
        assert x.tobytes() == x_before.tobytes()

    def test_a_mis_shaped_input_raises_as_before(self, setup):
        # the reports stack the float inputs first, as the float pass once came first
        model, qm, cal = setup
        bad = _rand_spec(0, shape=(8, 12))
        for report in (quantize.agreement_report, quantize.quantization_report):
            with pytest.raises(ShapeError, match="shape"):
                report(model, qm, [*cal[:2], bad])
        with pytest.raises(QuantizationError, match="shape"):
            quantize.quantized_forward(qm, bad)


def _every_code_input(qm, shape=(64, 51)):
    """An input whose requantized codes hold each of the 256 codes at 12 positions
    257 apart, so at 12 offsets mod 16, and random codes elsewhere."""
    p = qm.input_params
    codes = np.random.default_rng(17).integers(-128, 128, size=shape[0] * shape[1])
    for k in range(12):
        codes[257 * k : 257 * k + 256] = np.arange(-128, 128)
    x = ((codes - p.zero_point) * p.scale).reshape(shape)
    np.testing.assert_array_equal(quantize.centered_codes(x, p, np.float64).reshape(-1), codes - p.zero_point)
    return x


def _stem_steps(qm, patch_norm):
    """``quantize._steps(qm)`` with the mixer's patch stem back on its plain steps:
    the IntegerLayer, GELU through its op and the norm step."""
    steps = quantize._steps(qm)
    codes, params = qm.weight_payloads[(0, "w")], qm.weight_params[(0, "w")]
    steps[0] = quantize.IntegerLayer.build(codes, params.scale, qm.input_params, qm.float_weights.get((0, "b")))
    del steps[1]
    if patch_norm:
        steps[2] = quantize._norm_step(qm, 2, qm.graph.layers[2])
    return steps


class TestStemTables:
    def _mixer(self, use_bias=True, patch_norm=True):
        # 7 channels, so a code's entries fall at different offsets of each vector loop
        model = zoo.build_conv_mixer(7, 4, 3, use_bias=use_bias, patch_norm=patch_norm)
        model = _random_norms(zoo.init_weights(model, seed=5), seed=5)
        specs = [_rand_spec(i + 40, shape=(64, 51)) for i in range(3)]
        return quantize.quantize_model(model, specs)

    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("patch_norm", [True, False])
    def test_tables_give_the_plain_steps_bits_on_every_code(self, use_bias, patch_norm):
        qm = self._mixer(use_bias, patch_norm)
        stem = ["patch_embed", "patch_gelu", "patch_bn" if patch_norm else "mix1_skip"]
        assert [layer.name for layer in qm.graph.layers[:3]] == stem
        assert ((0, "b") in qm.float_weights) == use_bias
        x = _every_code_input(qm)
        got, want = [], []
        batch = zoo.stack_inputs(qm.graph, [x], np.float64)
        _, got_logits = quantize.predictor(qm)(batch, record=got)
        _, logits = zoo.walk(qm.graph, batch, zoo.Run(), _stem_steps(qm, patch_norm), record=want)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got_logits.tobytes() == logits.tobytes()
        assert quantize.quantized_forward(qm, x).logits.tobytes() == logits[0].tobytes()

    def test_nan_and_infinite_inputs_look_up_like_the_plain_steps(self):
        qm = self._mixer()
        x = _every_code_input(qm)
        x.reshape(-1)[[3100, 3101, 3102, 3200]] = [np.nan, np.inf, -np.inf, -np.nan]
        got, want = [], []
        batch = zoo.stack_inputs(qm.graph, [x], np.float64)
        quantize.predictor(qm)(batch, record=got)
        zoo.walk(qm.graph, batch, zoo.Run(), _stem_steps(qm, True), record=want)
        assert np.isnan(got[0]).any() and not np.isnan(got[0]).all()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "build, tabled",
        [
            (lambda: zoo.build_conv_mixer(4, 4, 3), {"conv2d": 1, "gelu": 1}),
            (lambda: zoo.build_conv_mixer(4, 4, 3, patch_norm=False), {"conv2d": 1, "gelu": 1}),
            # a 2x2 patch has K = 4 taps and conv_sep's 3x3 first conv K = 9: no table
            (lambda: zoo.build_conv_mixer(4, 4, 3, 2), {}),
            (lambda: zoo.build_conv_sep(4, 4, 3), {}),
            # a 1x1 first conv on one channel is one-code, and the ELU behind its folded norm too
            (lambda: zoo.build_conv_sep(4, 4, 1), {"conv2d": 1, "elu": 1}),
            # a 1x1 depthwise has one tap, but each output channel reads its own input channel
            (lambda: zoo.build_conv_mixer(4, 4, 1), {"conv2d": 1, "gelu": 1}),
        ],
    )
    def test_only_one_code_layers_and_the_elementwise_layers_behind_them_get_tables(self, build, tabled, monkeypatch):
        qm = quantize.quantize_model(_random_norms(zoo.init_weights(build(), seed=1), 1), [_rand_spec(3, (64, 51))])
        shapes = []
        traced = ("conv2d", "depthwise_conv2d", "gelu", "elu")
        for name in traced:

            def seen(x, *args, _name=name, _fn=getattr(kernels, name), **kwargs):
                shapes.append((_name, x.shape))
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(kernels, name, seen)
        quantize.quantized_forward(qm, _rand_spec(4, (64, 51)))
        # a table's kernel runs once, on the 256 codes and NaN
        on_codes = [name for name, shape in shapes if shape[:-1] == (1, 1, 257)]
        assert {name: on_codes.count(name) for name in on_codes} == tabled
        assert len(shapes) == sum(layer.kind in traced for layer in qm.graph.layers)
