"""Correctness oracles for the benchmark's outputs.

None of them compares against saved output, and none calls
``tinyasc.kernels``: forward passes are re-derived here in float64 with
``np.einsum``. Each ``check_*`` raises OracleFailure naming what disagreed
and returns None when the output holds.
"""

import math

import numpy as np

GELU_COEF = 0.044715
FLOAT_RTOL = 1e-4  # float32 engine against a float64 reference, on logits of order 1
INT8_RTOL = 1e-6  # integer cores agree exactly; only float64 rounding remains
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7
INT_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense")


class OracleFailure(AssertionError):
    pass


def check_wav_samples(samples, codes):
    """16-bit PCM decodes to exactly code / 32768."""
    expected = np.asarray(codes, dtype=np.int64) / 32768.0
    if samples.shape != expected.shape or not np.array_equal(samples, expected):
        bad = np.flatnonzero(samples != expected)[:1] if samples.shape == expected.shape else []
        raise OracleFailure(f"read_wav differs from code/32768 (first sample {list(bad)})")


def _slaney_mel(hz):
    hz = np.asarray(hz, dtype=np.float64)
    linear = hz / (200.0 / 3.0)
    log = 15.0 + np.log(np.maximum(hz, 1000.0) / 1000.0) / (math.log(6.4) / 27.0)
    return np.where(hz >= 1000.0, log, linear)


def _slaney_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    return np.where(mel >= 15.0, 1000.0 * np.exp((mel - 15.0) * math.log(6.4) / 27.0), mel * 200.0 / 3.0)


def mel_band_edges(n_mels=64, fmin=0.0, fmax=22050.0):
    """(lo, hi) in Hz of each triangular Slaney band."""
    hz = _slaney_hz(np.linspace(_slaney_mel(fmin), _slaney_mel(fmax), n_mels + 2))
    return np.stack([hz[:-2], hz[2:]], axis=1)


def check_loudest_band(spec_data, tone_hz):
    """The band with the highest mean log energy covers the loudest tone."""
    band = int(np.argmax(spec_data.mean(axis=1)))
    lo, hi = mel_band_edges(spec_data.shape[0])[band]
    if not lo <= tone_hz <= hi:
        raise OracleFailure(f"strongest band {band} spans {lo:.0f}-{hi:.0f} Hz, tone is {tone_hz:.0f} Hz")


def _windows(x, kh, kw, stride, padding):
    if padding == "same":
        x = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return win[:, ::stride, ::stride]  # (N, H', W', C, kh, kw)


def _conv(x, w, layer):
    kh, kw = w.shape[:2]
    win = _windows(x, kh, kw, layer.config.get("stride", 1), layer.config.get("padding", "same"))
    return np.einsum("nhwcij,ijco->nhwo", win, w)


def _depthwise(x, w, layer):
    return np.einsum("nhwcij,ijc->nhwc", _windows(x, w.shape[0], w.shape[1], 1, "same"), w)


def _pointwise(x, w, layer):
    return np.einsum("nhwc,co->nhwo", x, w[0, 0])


def _dense(x, w, layer):
    return np.einsum("nk,km->nm", x, w)


_LINEAR = {"conv2d": _conv, "depthwise_conv2d": _depthwise, "pointwise_conv2d": _pointwise, "dense": _dense}


def _walk(graph, x, weight, linear):
    """Float64 walk of a tinyasc graph; returns the logits.

    ``weight(idx, name)`` fetches a stored tensor; ``linear(idx, layer, x)``
    computes a conv-family or dense layer, bias included.
    """
    x = np.asarray(x, dtype=np.float64)
    skips = []
    logits = None
    for idx, layer in enumerate(graph.layers):
        k = layer.kind
        if k in INT_KINDS:
            x = linear(idx, layer, x)
            if k == "dense":
                logits = x
        elif k == "batch_norm":
            g, b, m, v = (weight(idx, n).astype(np.float64) for n in ("gamma", "beta", "moving_mean", "moving_var"))
            x = (x - m) / np.sqrt(v + layer.config["eps"]) * g + b
        elif k == "elu":
            x = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
        elif k == "gelu":
            x = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + GELU_COEF * x * x * x)))
        elif k == "max_pool":
            ph, pw = layer.config["pool"]
            n, h, w, c = x.shape
            x = x[:, : h // ph * ph, : w // pw * pw].reshape(n, h // ph, ph, w // pw, pw, c).max(axis=(2, 4))
        elif k == "global_avg_pool":
            x = x.mean(axis=(1, 2))
        elif k == "residual_add_begin":
            skips.append(x)
        elif k == "residual_add_end":
            x = x + skips.pop()
        elif k not in ("dropout", "softmax"):
            raise OracleFailure(f"oracle does not know layer kind {k!r}")
    return logits


def float_logits(graph, x):
    """Reference float64 logits of a float graph for a batch (N, H, W, C)."""

    def weight(idx, name):
        return graph.layers[idx].weights[name]

    def linear(idx, layer, x):
        w = layer.weights
        y = _LINEAR[layer.kind](x, w["w"].astype(np.float64), layer)
        return y + w["b"].astype(np.float64) if "b" in w else y

    return _walk(graph, x, weight, linear)


def int8_logits(qm, x):
    """Fake-quant float64 simulation of INT8 inference from a model's scales and zero points.

    Each integer layer re-quantizes its input with the calibrated affine
    params of the tensor feeding it, multiplies the zero-point-shifted
    codes by the INT8 weight codes (exact in float64), adds the bias
    rounded to the accumulator scale, and rescales.
    """

    def weight(idx, name):
        return qm.float_weights[(idx, name)]

    def linear(idx, layer, x):
        p = qm.input_params if idx == 0 else qm.activation_params[idx - 1]
        codes = np.clip(np.round(x / p.scale) + p.zero_point, -128, 127) - p.zero_point
        wp = qm.weight_params[(idx, "w")]
        out_scale = p.scale * wp.scale
        acc = _LINEAR[layer.kind](codes, qm.weight_payloads[(idx, "w")].astype(np.float64), layer)
        bias = qm.float_weights.get((idx, "b"))
        if bias is not None:
            acc = acc + np.round(bias.astype(np.float64) / out_scale)
        return acc * out_scale

    return _walk(qm.graph, x, weight, linear)


def _compare(what, got, want, rtol):
    got = np.asarray(got, dtype=np.float64)
    tol = rtol * max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if got.shape != want.shape or not err <= tol:
        raise OracleFailure(f"{what}: max abs difference {err:.3g} exceeds {tol:.3g}")


def check_float_logits(graph, spec_data, logits):
    """A float forward's logits match the float64 einsum reference."""
    want = float_logits(graph, np.asarray(spec_data)[None, ..., None])[0]
    _compare("float logits", logits, want, FLOAT_RTOL)


def check_int8_logits(qm, spec_data, logits):
    """INT8 logits match the fake-quant simulation."""
    want = int8_logits(qm, np.asarray(spec_data)[None, ..., None])[0]
    _compare("int8 logits", logits, want, INT8_RTOL)


def check_eval(result):
    """Accuracy equals the confusion matrix's trace over n, which counts every example."""
    n = result.n_examples
    if int(result.confusion.sum()) != n:
        raise OracleFailure(f"confusion counts {int(result.confusion.sum())} examples, evaluated {n}")
    if result.accuracy != np.trace(result.confusion) / n:
        raise OracleFailure(f"accuracy {result.accuracy} != trace/n {np.trace(result.confusion) / n}")


def gradient_entries(zoo, model, x, label, rng, count, h=1e-6):
    """Analytic and central-difference gradients of -log p[label] for a few weights.

    ``model`` must be float64. The forward runs in train mode with a
    freshly seeded dropout mask on every call. Max pooling and ELU have
    kinks, and a step across one skews the difference quotient; an entry
    whose quotients at h and h/4 disagree sits on a kink and is replaced by
    another. That tests only the forward pass, so it cannot hide an error
    in backward. Returns [(layer, weight, flat index, analytic, numeric)]
    for ``count`` entries, each in a different tensor where possible.
    """

    def loss():
        probs, _, _ = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(0))
        return -math.log(float(probs[0, label]))

    def quotient(flat, j, step):
        orig = flat[j]
        flat[j] = orig + step
        up = loss()
        flat[j] = orig - step
        down = loss()
        flat[j] = orig
        return (up - down) / (2 * step)

    probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(0), keep_caches=True)
    grad_p = np.zeros_like(probs)
    grad_p[0, label] = -1.0 / probs[0, label]
    grads, _ = zoo.backward_graph(model, caches, grad_p)
    tensors = [(i, n) for i in sorted(grads) for n in sorted(grads[i])]
    order = list(rng.permutation(len(tensors)))
    entries = []
    for attempt in range(4 * count):
        if len(entries) == count:
            break
        i, name = tensors[order[attempt % len(order)]]
        flat = model.layers[i].weights[name].reshape(-1)
        j = int(rng.integers(flat.size))
        numeric = quotient(flat, j, h / 4)
        if _close(quotient(flat, j, h), numeric):
            entries.append((i, name, j, float(grads[i][name].reshape(-1)[j]), numeric))
    return entries


def _close(a, b):
    return abs(a - b) <= GRAD_ATOL + GRAD_RTOL * abs(b)


def check_gradient_entries(entries, count):
    if len(entries) < count:
        raise OracleFailure(f"only {len(entries)} of {count} gradient entries away from kinks")
    for i, name, j, analytic, numeric in entries:
        if not _close(analytic, numeric):
            raise OracleFailure(f"layer {i} {name}[{j}]: backward {analytic:.6g}, finite difference {numeric:.6g}")
