"""Post-training INT8 quantization and quantized inference.

Scheme: per-tensor throughout. Weights quantize symmetrically (scale =
max|w| / 127, zero point 0); activations quantize affinely over the
min/max range observed on a calibration set, with the range widened to
include zero so that real 0 maps exactly onto an integer code.

Batch norm folds into the preceding convolution wherever it directly
follows one (always the case for conv_sep; the mixer's norms sit behind
activations and stay as float ops). Quantized inference runs the
convolution and dense layers in integer arithmetic with 32-bit
accumulators and converts to float between them, so pooling, residual
adds, and nonlinearities execute in float: a documented simplification,
constrained end to end by the float-agreement check rather than per-op.
"""

import copy
import functools
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
        q = np.clip(np.round(t / params.scale) + params.zero_point, -128, 127).astype(np.int8)
        return q, params
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
    return np.clip(np.round(x / params.scale) + params.zero_point, -128, 127).astype(np.int8)


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
    """Fold every batch norm that directly follows a conv-family layer.

    Returns a new graph whose float forward matches the original in
    inference mode; folded convolutions absorb gamma/sqrt(var + eps) into
    their kernels and gain a bias if they had none. Norms that do not
    directly follow a convolution (the mixer places them behind
    activations) are left in place.
    """
    folded = copy.deepcopy(model)
    layers, folded.layers = folded.layers, []
    for i, norm in enumerate(layers):
        if norm.kind != "batch_norm" or i == 0 or not zoo.layer_op(layers[i - 1], i - 1).folds_norm:
            folded.layers.append(norm)
            continue
        conv = layers[i - 1]
        gamma, beta, mean, var = (norm.weights[n].astype(np.float64) for n in norm.weight_names())
        factor = gamma / np.sqrt(var + norm.config["eps"])
        b = conv.weights.get("b")
        b = np.zeros(factor.shape[0]) if b is None else b.astype(np.float64)
        # conv/pointwise kernels end in Cout; depthwise kernels end in C
        conv.weights["w"] = (conv.weights["w"].astype(np.float64) * factor).astype(model.dtype)
        conv.weights["b"] = ((b - mean) * factor + beta).astype(model.dtype)
        conv.config["use_bias"] = True
    zoo.infer_shapes(folded)
    return folded


@dataclass
class QuantizedModel:
    """Folded graph topology plus INT8 weight payloads and quant params."""

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


def _integer_step(qm, layer, x, run):
    """Requantize the incoming float tensor and run one conv or dense layer on
    INT8 codes with an int32 accumulator; the bias joins at the accumulator's scale."""
    i = run.i
    in_params = qm.input_params if i == 0 else qm.activation_params[i - 1]
    xq = quantize_array(x, in_params).astype(np.int32) - in_params.zero_point
    out_scale = in_params.scale * qm.weight_params[(i, "w")].scale
    bias = qm.float_weights.get((i, "b"))
    if bias is not None:
        bias = np.round(bias.astype(np.float64) / out_scale).astype(np.int32)
    acc = zoo.OPS[layer.kind].linear(layer, xq, qm.weight_payloads[(i, "w")].astype(np.int32), bias)
    return acc.astype(np.float64) * out_scale, None


def _norm_step(qm, layer, x, run):
    """Inference batch norm in float64 from the stored float32 parameters."""
    gamma, beta, mean, var = (qm.float_weights[(run.i, n)].astype(np.float64) for n in layer.weight_names())
    return (x - mean) / np.sqrt(var + layer.config["eps"]) * gamma + beta, None


def quantized_forward(qm: QuantizedModel, spec):
    """Integer-arithmetic inference; returns a float Prediction.

    The float graph walk with its own steps for the convolutions and the
    dense layer, which run on INT8 codes with int32 accumulators (each
    requantizes its input with the calibrated affine params of the tensor
    feeding it), and for the remaining norms, which run in float64.
    Pooling, residual adds, nonlinearities and softmax run as in float.
    """
    if not qm.activation_params:
        raise QuantizationError("missing calibration: quantize with at least one input")
    try:
        x = zoo.stack_inputs(qm.graph, [spec], np.float64)
    except ShapeError as exc:
        raise QuantizationError(str(exc)) from None
    steps = {kind: functools.partial(_integer_step, qm) for kind, op in zoo.OPS.items() if op.linear}
    steps["batch_norm"] = functools.partial(_norm_step, qm)
    probs, logits = zoo.walk(qm.graph, x, zoo.Run(), steps)
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
        graph = fold_batch_norm(zoo.rebuild_from_header(zoo._read_header(reader)))
        (n_layers,) = reader.unpack("<H")
        if n_layers != len(graph.layers):
            reader.fail(f"stored layer count {n_layers} != rebuilt graph {len(graph.layers)}")
        payloads, wparams, floats = {}, {}, {}
        for i, layer in enumerate(graph.layers):
            names = layer.weight_names()
            (count,) = reader.unpack("<B")
            if count != len(names):
                reader.fail(f"layer {i}: {count} tensors stored, {len(names)} expected")
            for name in names:
                (tag,) = reader.unpack("<B")
                expected, what = layer.weights[name].shape, f"layer {i} weight {name}"
                if tag == 1:
                    scale, zp = reader.unpack("<dh")
                    payloads[(i, name)] = reader.array(expected, what, np.int8)
                    wparams[(i, name)] = QuantParams(scale, zp, "symmetric_weight")
                else:
                    floats[(i, name)] = reader.array(expected, what)
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
