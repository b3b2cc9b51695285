"""Post-training INT8 quantization and quantized inference.

Scheme: per-tensor throughout. Weights quantize symmetrically (scale =
max|w| / 127, zero point 0); activations quantize affinely over the
min/max range observed on a calibration set, with the range widened to
include zero so that real 0 maps exactly onto an integer code.

Batch norm folds into the preceding convolution wherever it directly
follows one (always the case for conv_sep; the mixer's norms sit behind
activations and stay as float ops). The fold is ``zoo.fold_norms``, which
float inference (``zoo.forward``, ``zoo.forward_batch``) runs on every call;
``fold_batch_norm`` applies it to a deep copy. Quantized inference follows the
integer-arithmetic scheme of Jacob et al. (2018): each convolution and the
dense layer requantize their input to INT8 codes, sum products of the
zero-point-shifted activation codes and the INT8 weight codes, add the bias
rounded to the accumulator unit and rescale once to float. The sums run as
float GEMMs and multiply-adds on integer-valued operands: every partial sum
is an integer of at most K * 255 * 127 (K is taps x input channels, or taps
for depthwise), exact in float32 while K <= 518 and in float64, which a
guard on K picks above that. So the result does not depend on summation
order or on the BLAS thread count, and equals an exact integer accumulator.
Pooling, residual adds, and nonlinearities execute in float between these
layers: a documented simplification, constrained end to end by the
float-agreement check rather than per-op.
"""

import copy
import struct
from dataclasses import dataclass

import numpy as np

from . import zoo
from .errors import QuantizationError, ShapeError


@dataclass
class QuantParams:
    """Affine map between real values and INT8 codes: q = round(x / scale) + zero_point."""

    scale: float
    zero_point: int
    scheme: str  # symmetric_weight | affine_activation

    def __post_init__(self):
        if self.scale <= 0:
            raise QuantizationError(f"scale must be positive, got {self.scale}")
        if self.scheme == "symmetric_weight" and self.zero_point != 0:
            raise QuantizationError("symmetric scheme requires zero_point 0")
        if not -128 <= self.zero_point <= 127:
            raise QuantizationError(f"zero_point {self.zero_point} outside INT8 range")


def quantize_tensor(t, scheme="symmetric_weight"):
    """Quantize a float tensor to INT8 codes plus its QuantParams.

    Symmetric: scale = max|t| / 127, codes clamped to [-127, 127].
    Affine: scale spans the zero-extended [min, max] over 255 codes.
    An all-zero (or empty-range) tensor degenerates to scale 1.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.size and not np.all(np.isfinite(t)):
        raise QuantizationError("cannot quantize non-finite values")
    if scheme == "symmetric_weight":
        peak = float(np.max(np.abs(t))) if t.size else 0.0
        scale = peak / 127.0 if peak > 0 else 1.0
        q = np.clip(np.round(t / scale), -127, 127).astype(np.int8)
        return q, QuantParams(scale=scale, zero_point=0, scheme=scheme)
    if scheme == "affine_activation":
        lo = min(float(t.min()), 0.0) if t.size else 0.0
        hi = max(float(t.max()), 0.0) if t.size else 0.0
        params = affine_params(lo, hi)
        return quantize_array(t, params), params
    raise QuantizationError(f"unknown scheme {scheme!r}")


def affine_params(lo, hi):
    """Affine QuantParams covering [lo, hi], widened to include real zero."""
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi - lo <= 0:
        return QuantParams(scale=1.0, zero_point=0, scheme="affine_activation")
    scale = (hi - lo) / 255.0
    zero_point = int(np.clip(round(-128 - lo / scale), -128, 127))
    return QuantParams(scale=scale, zero_point=zero_point, scheme="affine_activation")


def dequantize(q, params: QuantParams):
    return (q.astype(np.float64) - params.zero_point) * params.scale


def quantize_array(x, params: QuantParams):
    """Apply existing params to a float array, returning INT8 codes."""
    return (centered_codes(x, params, np.float64) + params.zero_point).astype(np.int8)


@dataclass
class Calibration:
    """Observed activation ranges: input plus one (lo, hi) per layer output."""

    input_range: tuple
    layer_ranges: list


def calibrate(model, inputs):
    """Aggregate per-layer activation min/max over calibration inputs.

    ``inputs`` is a sequence of Spectrograms (or raw 2-D arrays). At least
    one input is required; additional inputs only widen the ranges.
    """
    if not inputs:
        raise QuantizationError("calibration needs at least one input")
    ranges = None
    for spec in inputs:
        acts = [zoo.stack_inputs(model, [spec], model.dtype)]
        zoo.run_graph(model, acts[0], train=False, record_activations=acts)
        seen = [(float(a.min()), float(a.max())) for a in acts]
        if ranges is not None:
            seen = [(min(r[0], s[0]), max(r[1], s[1])) for r, s in zip(ranges, seen)]
        ranges = seen
    return Calibration(input_range=ranges[0], layer_ranges=ranges[1:])


def fold_batch_norm(model):
    """``zoo.fold_norms`` on a deep copy of ``model``: the folded graph, sharing
    no layer or array with ``model``."""
    return zoo.fold_norms(copy.deepcopy(model))


@dataclass
class QuantizedModel:
    """Folded graph topology plus INT8 weight payloads and quant params.

    ``quantized_forward`` derives its integer constants from these fields on
    every call, so a change to any of them shows in the next call.
    """

    graph: zoo.ModelGraph
    weight_payloads: dict  # (layer_idx, name) -> int8 array
    weight_params: dict  # (layer_idx, name) -> QuantParams
    float_weights: dict  # (layer_idx, name) -> float arrays (biases, norm params)
    activation_params: list  # QuantParams per layer output
    input_params: QuantParams


def quantize_model(model, calibration_inputs):
    """Fold, calibrate, and quantize a trained float model."""
    folded = fold_batch_norm(model)
    cal = calibrate(folded, calibration_inputs)
    payloads, wparams, floats = {}, {}, {}
    for i, layer in enumerate(folded.layers):
        for name in layer.weight_names():
            if name == "w":  # conv and dense kernels run on INT8 codes
                q, p = quantize_tensor(layer.weights[name], "symmetric_weight")
                payloads[(i, name)] = q
                wparams[(i, name)] = p
            else:
                floats[(i, name)] = layer.weights[name].astype(np.float32)
    act_params = [affine_params(lo, hi) for lo, hi in cal.layer_ranges]
    return QuantizedModel(
        graph=folded,
        weight_payloads=payloads,
        weight_params=wparams,
        float_weights=floats,
        activation_params=act_params,
        input_params=affine_params(*cal.input_range),
    )


# Every partial sum of a conv or dense layer adds K products of a zero-point-
# shifted activation code (|q - zp| <= 255) and an INT8 weight code (|w| <= 127),
# so it is an integer of at most K * 255 * 127. float32 holds every integer below
# 2**24 exactly, so for K <= FLOAT32_MAX_K any summation order, and so any BLAS
# kernel or thread split, gives the exact sum; float64 (exact below 2**53) is used
# above that.
FLOAT32_MAX_K = (2**24 - 1) // (255 * 127)


def gemm_dtype(k):
    """The float dtype that sums K integer products of INT8 codes exactly."""
    return np.float32 if k <= FLOAT32_MAX_K else np.float64


def centered_codes(x, params: QuantParams, dtype):
    """INT8 codes of ``x`` minus the zero point, ``clip(round(x / scale) + zp) - zp``,
    computed in float64 and returned as integer values of ``dtype``: the operand
    of an integer layer."""
    t = np.divide(x, params.scale, dtype=np.float64)
    np.round(t, out=t)
    np.clip(t, -128 - params.zero_point, 127 - params.zero_point, out=t)
    return t.astype(dtype, copy=False)


@dataclass
class IntegerLayer:
    """One conv or dense layer on INT8 codes: the constants ``quantized_forward``
    builds for it from a QuantizedModel on each call."""

    in_params: QuantParams  # of the tensor feeding the layer
    w: np.ndarray  # INT8 weight codes as values of gemm_dtype(K)
    b: np.ndarray  # bias rounded to the accumulator unit, float64, or None
    out_scale: float  # the accumulator unit: input scale x weight scale

    @classmethod
    def build(cls, codes, w_scale, in_params: QuantParams, bias=None):
        """The layer for INT8 weight ``codes`` of scale ``w_scale`` fed by a tensor
        quantized with ``in_params``. The codes are kept as gemm_dtype(K), K being
        the product of every axis but the last: taps x input channels, or taps."""
        out_scale = in_params.scale * w_scale
        if bias is not None:
            bias = np.round(np.asarray(bias, dtype=np.float64) / out_scale)
        return cls(in_params, codes.astype(gemm_dtype(int(np.prod(codes.shape[:-1])))), bias, out_scale)

    def __call__(self, layer, x):
        """Requantize float ``x``, sum exactly through ``zoo.OPS[layer.kind].linear``,
        add the rounded bias in float64 and rescale to real units."""
        acc = zoo.OPS[layer.kind].linear(layer, centered_codes(x, self.in_params, self.w.dtype), self.w, None)
        y = acc.astype(np.float64) if self.b is None else np.add(acc, self.b, dtype=np.float64)
        y *= self.out_scale
        return y


def _float_norm(qm, i, layer):
    """Inference batch norm in float64 from the stored float32 parameters."""
    gamma, beta, mean, var = (qm.float_weights[(i, n)].astype(np.float64) for n in layer.weight_names())
    denom = np.sqrt(var + layer.config["eps"])
    return lambda _, x: (x - mean) / denom * gamma + beta


def _steps(qm):
    """``{layer index: step}`` for ``qm``: an IntegerLayer for each conv and dense
    layer and a float64 norm for each batch norm, built from its current fields."""
    n_params, n_layers = len(qm.activation_params), len(qm.graph.layers)
    if n_params != n_layers:
        raise QuantizationError(f"calibration gives {n_params} activation params for {n_layers} graph layers")
    steps = {}
    for i, layer in enumerate(qm.graph.layers):
        if layer.kind == "batch_norm":
            steps[i] = _float_norm(qm, i, layer)
        elif (i, "w") in qm.weight_payloads:
            steps[i] = IntegerLayer.build(
                qm.weight_payloads[(i, "w")],
                qm.weight_params[(i, "w")].scale,
                qm.input_params if i == 0 else qm.activation_params[i - 1],
                qm.float_weights.get((i, "b")),
            )
    return steps


def quantized_forward(qm: QuantizedModel, spec, record=None):
    """Integer-arithmetic inference; returns a float Prediction.

    The float graph walk with steps built from ``qm`` on this call for the
    convolutions and the dense layer (``IntegerLayer``: requantize the input
    with the calibrated affine params of the tensor feeding it, then sum
    products of INT8 codes exactly in float32 or float64) and for the
    remaining norms, which run in float64. Pooling, residual adds,
    nonlinearities and softmax run as in float. If ``record`` is a list,
    every layer's output is appended.
    """
    steps = _steps(qm)
    try:
        x = zoo.stack_inputs(qm.graph, [spec], np.float64)
    except ShapeError as exc:
        raise QuantizationError(str(exc)) from None
    probs, logits = zoo.walk(qm.graph, x, zoo.Run(), steps, record=record)
    p = probs[0]
    return zoo.Prediction(probabilities=p, top_class=int(np.argmax(p)), logits=logits[0])


def agreement_report(model, qm: QuantizedModel, inputs):
    """Paired float vs quantized inference over a set of inputs.

    Returns top-1 agreement rate and the largest per-logit absolute
    difference observed (reported, not asserted: the bound is empirical).
    """
    if not inputs:
        raise QuantizationError("agreement report needs at least one input")
    agree = 0
    max_logit_diff = 0.0
    for spec in inputs:
        pf = zoo.forward(model, spec)
        pq = quantized_forward(qm, spec)
        agree += int(pf.top_class == pq.top_class)
        max_logit_diff = max(max_logit_diff, float(np.max(np.abs(pf.logits - pq.logits))))
    return {
        "n_inputs": len(inputs),
        "top1_agreement": agree / len(inputs),
        "max_logit_diff": max_logit_diff,
    }


def layer_errors(model, qm: QuantizedModel, inputs):
    """Per conv, dense and norm layer of ``qm.graph``, the INT8 output against
    the float activation of the folded float model over a set of inputs.

    Returns one dict per such layer: ``name``, ``kind``, ``sqnr_db`` (signal
    over error energy, summed over all inputs; inf when they agree exactly)
    and ``max_abs_diff``.
    """
    folded = zoo.fold_norms(model)
    shown = sorted(_steps(qm))
    signal, noise, peak = (np.zeros(len(shown)) for _ in range(3))
    for spec in inputs:
        want, got = [], []
        zoo.run_graph(folded, zoo.stack_inputs(folded, [spec], folded.dtype), record_activations=want)
        quantized_forward(qm, spec, record=got)
        for j, i in enumerate(shown):
            diff = got[i] - want[i]
            signal[j] += float(np.sum(np.square(want[i], dtype=np.float64)))
            noise[j] += float(np.sum(np.square(diff)))
            peak[j] = max(peak[j], float(np.max(np.abs(diff))))
    rows = []
    for j, i in enumerate(shown):
        with np.errstate(divide="ignore"):
            sqnr = 10.0 * np.log10(signal[j] / noise[j]) if noise[j] else np.inf
        layer = qm.graph.layers[i]
        rows.append({"name": layer.name, "kind": layer.kind, "sqnr_db": float(sqnr), "max_abs_diff": peak[j]})
    return rows


# --- serialization -------------------------------------------------------

QMAGIC = b"TASQ"


def save_quantized(qm: QuantizedModel, path):
    """Checkpoint header plus per-layer records: INT8 blobs carry their
    scale and zero point, float blobs (biases, residual norm params) are
    stored raw; activation params follow at the end."""
    with open(path, "wb") as fh:
        fh.write(QMAGIC)
        zoo._write_header(fh, qm.graph)
        fh.write(struct.pack("<H", len(qm.graph.layers)))
        for i, layer in enumerate(qm.graph.layers):
            names = layer.weight_names()
            fh.write(struct.pack("<B", len(names)))
            for name in names:
                if (i, name) in qm.weight_payloads:
                    arr = qm.weight_payloads[(i, name)]
                    p = qm.weight_params[(i, name)]
                    fh.write(struct.pack("<B", 1))
                    fh.write(struct.pack("<dh", p.scale, p.zero_point))
                    zoo._write_array(fh, arr, np.int8)
                else:
                    fh.write(struct.pack("<B", 0))
                    zoo._write_array(fh, qm.float_weights[(i, name)])
        fh.write(struct.pack("<dh", qm.input_params.scale, qm.input_params.zero_point))
        fh.write(struct.pack("<H", len(qm.activation_params)))
        for p in qm.activation_params:
            fh.write(struct.pack("<dh", p.scale, p.zero_point))


def load_quantized(path) -> QuantizedModel:
    with open(path, "rb") as fh:
        reader = zoo._Reader(fh, QuantizationError)
        magic = reader.read(4)
        if magic != QMAGIC:
            reader.fail(f"not a quantized model file (magic {magic!r})")
        graph = fold_batch_norm(reader.graph())
        (n_layers,) = reader.unpack("<H")
        if n_layers != len(graph.layers):
            reader.fail(f"stored layer count {n_layers} != rebuilt graph {len(graph.layers)}")
        payloads, wparams, floats = {}, {}, {}
        for i, layer, name in reader.records(graph):
            (tag,) = reader.unpack("<B")
            if tag == 1:
                scale, zp = reader.unpack("<dh")
                payloads[(i, name)] = reader.array(layer.weights[name].shape, np.int8)
                wparams[(i, name)] = QuantParams(scale, zp, "symmetric_weight")
            else:
                floats[(i, name)] = reader.weight(name, layer.weights[name].shape)
        in_scale, in_zp = reader.unpack("<dh")
        (n_acts,) = reader.unpack("<H")
        if n_acts != len(graph.layers):
            reader.fail(f"{n_acts} activation params stored, {len(graph.layers)} expected")
        act_params = [QuantParams(*reader.unpack("<dh"), "affine_activation") for _ in range(n_acts)]
        reader.end()
    return QuantizedModel(
        graph=graph,
        weight_payloads=payloads,
        weight_params=wparams,
        float_weights=floats,
        activation_params=act_params,
        input_params=QuantParams(in_scale, in_zp, "affine_activation"),
    )
