"""Quantization roundtrips, calibration, batch-norm folding, integer inference."""

import struct

import numpy as np
import pytest

from tinyasc import data, quantize, zoo
from tinyasc.errors import QuantizationError
from tinyasc.frontend import Spectrogram


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

    def test_trailing_bytes_rejected(self, tmp_path, setup):
        _, qm, _ = setup
        path = tmp_path / "m.tasq"
        quantize.save_quantized(qm, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x07")
        trailing = rf"m\.tasq: unexpected data after the last record, at byte {size}$"
        with pytest.raises(QuantizationError, match=trailing):
            quantize.load_quantized(path)

