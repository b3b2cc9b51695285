"""Post-training INT8 quantization and quantized inference.

Scheme: per-tensor throughout. Weights quantize symmetrically (scale =
max|w| / 127, zero point 0); activations quantize affinely over the
min/max range observed on a calibration set, with the range widened to
include zero so that real 0 maps exactly onto an integer code.

Batch norm folds into a convolution it directly follows (all of conv_sep's;
the mixer's sit behind activations and stay float ops) by ``zoo.fold_norms``;
``fold_batch_norm`` folds a deep copy. Quantized inference follows the
integer-arithmetic scheme of Jacob et al. (2018): each convolution and the
dense layer requantize their input to INT8 codes, sum products of the
zero-point-shifted activation codes and the INT8 weight codes, add the bias
rounded to the accumulator unit and rescale once to float. The sums run as
float GEMMs on integer-valued operands, exact at any summation order and BLAS
thread count (``FLOAT32_MAX_K``). Every other layer runs the float engine's
own kernel in float64 between them, a simplification the float-agreement
check bounds end to end.

A ``predictor`` builds these constants once from a quantized model's fields:
the integer layers, float64 copies of the norms' statistics and, for a
one-code layer (one tap of a one-channel input, as the mixer's 1x1 patch
embedding) and the elementwise layers right behind it, per-code tables of
their outputs (``_tabulate``): for a 48-channel stem, three 257 x 48 float64
tables, the work of about 1/13 of one 64 x 51 clip.

The graph alone says which weights are INT8 (``int8_weight``: each conv
and dense kernel); a quantized model's graph gives structure only, and
quantized inference reads no weight from it. A weight missing from a
model's payloads, their params or its float weights raises
QuantizationError naming the layer, in inference, reports and saving. A
``.tasq`` (``modelfile`` holds its bytes) stores these codes with their
params, every other weight as float32 and the activation params.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, metrics, modelfile, zoo
from .errors import QuantizationError, ShapeError


@dataclass
class QuantParams:
    """Affine map between real values and INT8 codes: q = round(x / scale) + zero_point."""

    scale: float
    zero_point: int
    scheme: str  # symmetric_weight | affine_activation

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise QuantizationError(f"scale must be finite and positive, got {self.scale}")
        if self.scheme == "symmetric_weight" and self.zero_point != 0:
            raise QuantizationError("symmetric scheme requires zero_point 0")
        if not -128 <= self.zero_point <= 127:
            raise QuantizationError(f"zero_point {self.zero_point} outside INT8 range")


def quantize_tensor(t):
    """Quantize a float weight tensor to INT8 codes plus its symmetric
    QuantParams: scale = max|t| / 127, codes clamped to [-127, 127]. An
    all-zero tensor degenerates to scale 1. Activations take their params
    from ``affine_params`` of calibrated ranges instead.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.size and not np.all(np.isfinite(t)):
        raise QuantizationError("cannot quantize non-finite values")
    peak = float(np.max(np.abs(t))) if t.size else 0.0
    scale = peak / 127.0 if peak > 0 else 1.0
    q = np.clip(np.round(t / scale), -127, 127).astype(np.int8)
    return q, QuantParams(scale=scale, zero_point=0, scheme="symmetric_weight")


def affine_params(lo, hi):
    """Affine QuantParams covering [lo, hi], widened to include real zero."""
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi - lo <= 0:
        return QuantParams(scale=1.0, zero_point=0, scheme="affine_activation")
    scale = (hi - lo) / 255.0
    zero_point = int(np.clip(round(-128 - lo / scale), -128, 127))
    return QuantParams(scale=scale, zero_point=zero_point, scheme="affine_activation")


def quantize_array(x, params: QuantParams):
    """Apply existing params to a float array, returning INT8 codes."""
    return (centered_codes(x, params, np.float64) + params.zero_point).astype(np.int8)


def calibrate(model, inputs):
    """Aggregate activation min/max over calibration inputs: a list of
    ``(lo, hi)``, the input's first, then one per layer output, the order a
    ``.tasq`` stores its params in.

    ``inputs`` is a sequence of Spectrograms (or raw 2-D arrays). At least
    one input is required; additional inputs only widen the ranges.
    """
    if not inputs:
        raise QuantizationError("calibration needs at least one input")
    ranges = None
    for x in zoo.stack_inputs(model, inputs, model.dtype):
        acts = [x[None]]
        zoo.run_graph(model, acts[0], train=False, record_activations=acts)
        seen = [(float(a.min()), float(a.max())) for a in acts]
        if ranges is not None:
            seen = [(min(r[0], s[0]), max(r[1], s[1])) for r, s in zip(ranges, seen)]
        ranges = seen
    return ranges


def fold_batch_norm(model):
    """The graph of ``zoo.predictor(model)``: ``zoo.fold_norms`` of a deep copy,
    sharing no layer or array with ``model``."""
    return zoo.predictor(model).graph


def int8_weight(layer, idx, name):
    """Whether quantized models hold weight ``name`` of layer ``idx`` as INT8: each conv and dense kernel."""
    return name == "w" and zoo.layer_op(layer, idx).linear is not None


def _record(qm, idx, name):
    """(INT8 codes, QuantParams) of an ``int8_weight``, else (float array, None);
    a weight missing from a dict raises QuantizationError naming the layer."""
    layer = qm.graph.layers[idx]

    def held(values, what):
        if (idx, name) not in values:
            raise QuantizationError(f"layer {idx} ({layer.name}): no {what} {name}")
        return values[(idx, name)]

    if int8_weight(layer, idx, name):
        return held(qm.weight_payloads, "INT8 payload for weight"), held(qm.weight_params, "quant params for weight")
    return held(qm.float_weights, "float weight"), None


@dataclass
class QuantizedModel:
    """Folded graph topology plus INT8 weight payloads and quant params.

    ``graph`` gives structure only: quantized inference reads no weight from
    it. ``predictor`` builds its constants from the other fields.
    """

    graph: zoo.ModelGraph
    weight_payloads: dict  # (layer_idx, name) -> int8 array, for each int8_weight
    weight_params: dict  # (layer_idx, name) -> QuantParams, for each int8_weight
    float_weights: dict  # (layer_idx, name) -> float arrays, for every other weight
    activation_params: list  # QuantParams per layer output
    input_params: QuantParams


def quantize_model(model, calibration_inputs):
    """Fold, calibrate, and quantize a trained float model."""
    folded = fold_batch_norm(model)
    input_params, *act_params = [affine_params(lo, hi) for lo, hi in calibrate(folded, calibration_inputs)]
    payloads, wparams, floats = {}, {}, {}
    for i, layer in enumerate(folded.layers):
        for name in layer.weight_names():
            if int8_weight(layer, i, name):
                payloads[(i, name)], wparams[(i, name)] = quantize_tensor(layer.weights[name])
            else:
                floats[(i, name)] = layer.weights[name].astype(np.float32)
    return QuantizedModel(folded, payloads, wparams, floats, act_params, input_params)


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
    returned as integer values of ``dtype``: the operand of an integer layer.

    The quotient is formed and clipped in float64, then rounded straight into
    ``dtype``. The bounds are integers and rounding is monotone, so clipping
    first gives the same codes, and no quotient is too large for ``dtype``.
    """
    t = np.divide(x, params.scale, dtype=np.float64)
    np.clip(t, -128 - params.zero_point, 127 - params.zero_point, out=t)
    return np.rint(t, out=np.empty(t.shape, dtype))


@dataclass
class IntegerLayer:
    """One conv or dense layer on INT8 codes: the constants ``predictor`` builds
    for it from a QuantizedModel."""

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
        """``rescale`` the exact sums through ``zoo.OPS[layer.kind].linear`` of
        float ``x`` requantized with the input's params. The codes die before the
        rescale allocates: kept alive through it, they made glibc trim and refault
        the heap on more requests of a loop."""
        return self.rescale(
            zoo.OPS[layer.kind].linear(layer, centered_codes(x, self.in_params, self.w.dtype), self.w, None)
        )

    def rescale(self, acc):
        """The sums ``acc`` plus the rounded bias in float64, in real units; a
        float64 ``acc`` (K above FLOAT32_MAX_K) is overwritten, not copied."""
        y = acc.astype(np.float64, copy=False)
        if self.b is not None:
            y += self.b
        y *= self.out_scale
        return y


def _norm_step(qm, i, layer):
    """Batch norm ``i`` by ``kernels.batch_norm`` in eval mode, on float64 copies of its statistics."""
    stats = [_record(qm, i, n)[0].astype(np.float64) for n in layer.weight_names()]
    return lambda _, x, eps=layer.config["eps"]: kernels.batch_norm(x, *stats, eps=eps)[0]


def _steps(qm):
    """``{layer index: step}`` for ``qm``: an IntegerLayer for each conv and dense
    layer and a ``_norm_step`` for each batch norm, built from its fields;
    every weight of the graph's layers is read by ``_record``. A one-code layer
    and the elementwise layers behind it then look their outputs up (``_tabulate``)."""
    n_params, n_layers = len(qm.activation_params), len(qm.graph.layers)
    if n_params != n_layers:
        raise QuantizationError(f"calibration gives {n_params} activation params for {n_layers} graph layers")
    steps = {}
    for i, layer in enumerate(qm.graph.layers):
        if layer.kind == "batch_norm":
            steps[i] = _norm_step(qm, i, layer)
        elif int8_weight(layer, i, "w"):
            codes, params = _record(qm, i, "w")
            in_params = qm.input_params if i == 0 else qm.activation_params[i - 1]
            bias = _record(qm, i, "b")[0] if "b" in layer.weights else None
            steps[i] = IntegerLayer.build(codes, params.scale, in_params, bias)
    for i in [i for i, step in steps.items() if isinstance(step, IntegerLayer)]:
        _tabulate(qm.graph, steps, i)
    return steps


def _tabulate(graph, steps, i):
    """If integer layer ``i`` is a one-code layer (one tap of a one-channel
    input, at the input's positions, as the mixer's 1x1 patch embedding),
    replace its step and those of the elementwise layers right behind it by
    lookups.

    Each output entry of these layers is a function of one input code and its
    channel. So their steps run once, in one walk, on a tensor of all 256
    codes and NaN, and each layer's output there is its table. A request then
    requantizes its input once and gathers each layer's output by code, with
    the bits of the steps themselves.
    """
    integer, shape = steps[i], graph.input_shape if i == 0 else graph.layers[i - 1].output_shape
    if integer.w.size != integer.w.shape[-1] or shape != (*graph.layers[i].output_shape[:-1], 1):
        return
    end = i + 1
    while end < len(graph.layers) and zoo.layer_op(graph.layers[end], end).elementwise:
        end += 1
    zp = integer.in_params.zero_point
    codes = np.append(np.arange(-128 - zp, 128 - zp), np.nan).astype(integer.w.dtype)
    tables = []
    zoo.walk(
        replace(graph, layers=graph.layers[i:end]),
        codes.reshape((1,) * (len(shape) - 1) + (257, 1)),
        zoo.Run(),
        {
            0: lambda layer, q: integer.rescale(zoo.OPS[layer.kind].linear(layer, q, integer.w, None)),
            **{j - i: steps[j] for j in range(i + 1, end) if j in steps},
        },
        record=tables,
    )
    tables = [table.reshape(257, -1) for table in tables]
    rows = None

    def lookup(layer, x):
        nonlocal rows
        codes = centered_codes(x[..., 0], integer.in_params, np.float32) + (128 + zp)
        rows = np.nan_to_num(codes, nan=256).astype(np.intp)
        return np.take(tables[0], rows, axis=0)

    steps[i] = lookup
    for j in range(i + 1, end):
        steps[j] = lambda layer, x, table=tables[j - i]: np.take(table, rows, axis=0)


def predictor(qm: QuantizedModel):
    """The INT8 ``zoo.Predictor`` of ``qm``: the walk of ``qm.graph`` on float64
    inputs with the steps ``_steps`` builds here from ``qm``'s fields. A field
    changed later is not seen by this predictor."""
    return zoo.Predictor(qm.graph, _steps(qm), np.float64)


def quantized_forward(qm: QuantizedModel, spec):
    """The Prediction of ``spec`` by a ``predictor`` of ``qm`` built for this call."""
    predict = predictor(qm)
    try:
        x = zoo.stack_inputs(qm.graph, [spec], np.float64)
    except ShapeError as exc:
        raise QuantizationError(str(exc)) from None
    return zoo.Prediction.first(*predict(x))


def _report(model, qm, inputs, shown=()):
    """``agreement_report``'s dict and [signal, noise, peak] of each layer index
    in ``shown`` (see ``quantization_report``), from one float and one INT8
    predictor walking ``inputs`` one clip at a time, each in its own dtype. No
    inputs raises QuantizationError."""
    if not inputs:
        raise QuantizationError("agreement report needs at least one input")
    xs = zoo.stack_inputs(model, inputs, np.float64)
    floats, ints = zoo.predictor(model), predictor(qm)
    errors = np.zeros((3, len(shown)))
    outs = []
    for x in xs:
        want, got = ([], []) if shown else (None, None)
        outs.append((*floats(x[None], record=want), *ints(x[None], record=got)))
        for j, i in enumerate(shown):
            diff = got[i] - want[i]
            errors[0, j] += float(np.sum(np.square(want[i], dtype=np.float64)))
            errors[1, j] += float(np.sum(np.square(diff)))
            errors[2, j] = max(errors[2, j], float(np.max(np.abs(diff))))
    probs, logits, qprobs, qlogits = map(np.concatenate, zip(*outs))
    agreement = {
        "n_inputs": len(logits),
        "top1_agreement": metrics.accuracy(qprobs, probs.argmax(axis=1)),
        "max_logit_diff": float(np.max(np.abs(logits - qlogits))),
    }
    return agreement, errors


def agreement_report(model, qm: QuantizedModel, inputs):
    """Paired float and INT8 inference over a set of inputs:
    ``{n_inputs, top1_agreement, max_logit_diff}``, the share of inputs with
    the same top class and the largest per-logit difference, reported, not
    asserted (the bound is empirical). No inputs raises QuantizationError."""
    return _report(model, qm, inputs)[0]


def quantization_report(model, qm: QuantizedModel, inputs):
    """``(agreement_report(model, qm, inputs), rows)`` from one recorded walk of
    each input by each predictor.

    ``rows`` has one dict per conv, dense and norm layer of ``qm.graph``: the
    INT8 output against the float activation of the folded float model, as
    ``name``, ``kind``, ``sqnr_db`` (signal over error energy, summed over all
    inputs; inf when they agree exactly) and ``max_abs_diff``. No inputs
    raises QuantizationError.
    """
    shown = [i for i, layer in enumerate(qm.graph.layers) if layer.weight_names()]
    agreement, (signal, noise, peak) = _report(model, qm, inputs, shown)
    rows = []
    for j, i in enumerate(shown):
        with np.errstate(divide="ignore"):
            sqnr = 10.0 * np.log10(signal[j] / noise[j]) if noise[j] else np.inf
        layer = qm.graph.layers[i]
        rows.append({"name": layer.name, "kind": layer.kind, "sqnr_db": float(sqnr), "max_abs_diff": float(peak[j])})
    return agreement, rows


# --- serialization: ``modelfile`` holds the byte layout ---------------------


def save_quantized(qm: QuantizedModel, path):
    """Write ``qm`` as a ``.tasq``: each weight as ``_record`` gives it, then the
    input's and each layer output's params."""
    modelfile.save(path, qm.graph, zoo.ARCHS, lambda *key: _record(qm, *key), [qm.input_params, *qm.activation_params])


def load_quantized(path) -> QuantizedModel:
    """The QuantizedModel a ``.tasq`` holds, on the header's graph folded by
    ``zoo.fold_structure``: no value is computed, each comes from the file. A
    record has params exactly when it is an ``int8_weight``, as its tag says."""
    graph, records, (input_params, *act_params) = modelfile.read(
        path, QuantizationError, zoo.ARCHS, lambda *header: zoo.fold_structure(zoo.build(*header)),
        QuantParams, int8_weight,
    )
    payloads = {(i, name): arr for i, name, arr, params in records if params is not None}
    wparams = {(i, name): params for i, name, _, params in records if params is not None}
    floats = {(i, name): arr for i, name, arr, params in records if params is None}
    return QuantizedModel(graph, payloads, wparams, floats, act_params, input_params)
