"""Naive reference kernels used as independent oracles.

Plain Python loops over single examples, slow but transparent. The fast
kernels in :mod:`tinyasc.kernels` are tested against these entrywise, and
the complexity auditor mirrors the same loop structure to enumerate
multiply operations without trusting any closed-form count.
"""

import math

import numpy as np


def naive_conv2d(x, w, b=None, stride=1, padding="same"):
    """Six-nested-loop cross-correlation on a single (H, W, Cin) example."""
    h, wd, cin = x.shape
    kh, kw, cin_w, cout = w.shape
    assert cin == cin_w, f"channel mismatch {cin} vs {cin_w}"
    if padding == "same":
        ph, pw = kh // 2, kw // 2
        hout, wout = h, wd
    else:
        ph = pw = 0
        hout = (h - kh) // stride + 1
        wout = (wd - kw) // stride + 1
    y = np.zeros((hout, wout, cout), dtype=x.dtype)
    for i in range(hout):
        for j in range(wout):
            for d in range(cout):
                acc = 0.0 if b is None else b[d]
                for dh in range(kh):
                    for dw in range(kw):
                        ii = i * stride + dh - ph
                        jj = j * stride + dw - pw
                        if 0 <= ii < h and 0 <= jj < wd:
                            for c in range(cin):
                                acc += x[ii, jj, c] * w[dh, dw, c, d]
                y[i, j, d] = acc
    return y


def naive_depthwise_conv2d(x, w, b=None):
    """Per-channel loop convolution on a single (H, W, C) example, same padding."""
    h, wd, c = x.shape
    kh, kw, c_w = w.shape
    assert c == c_w
    ph, pw = kh // 2, kw // 2
    y = np.zeros_like(x)
    for i in range(h):
        for j in range(wd):
            for ch in range(c):
                acc = 0.0 if b is None else b[ch]
                for dh in range(kh):
                    for dw in range(kw):
                        ii = i + dh - ph
                        jj = j + dw - pw
                        if 0 <= ii < h and 0 <= jj < wd:
                            acc += x[ii, jj, ch] * w[dh, dw, ch]
                y[i, j, ch] = acc
    return y


def exact_gelu(x):
    """GELU in its erf form, x * Phi(x), through ``math.erf`` entry by entry."""
    erf = np.vectorize(math.erf)
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _entrywise(f, x):
    """``f`` applied to every entry of ``x`` as a Python float; float64 result."""
    return np.array([f(v) for v in np.ravel(x).tolist()], dtype=np.float64).reshape(np.shape(x))


def tanh_gelu(x):
    """GELU's tanh approximation, 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715x^3))),
    entry by entry through ``math.tanh``."""
    c = math.sqrt(2.0 / math.pi)
    return _entrywise(lambda v: 0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v * v * v))), x)


def naive_elu(x):
    """x for x > 0, else exp(x) - 1, entry by entry through ``math.expm1``."""
    return _entrywise(lambda v: v if v > 0 else math.expm1(v), x)


def naive_batch_norm_train(x, gamma, beta, eps):
    """Train-mode batch norm of an (..., C) array, channel by channel in float64.

    Returns (y, mean, var) with the batch mean and biased variance, both
    summed by ``math.fsum``.
    """
    cols = np.asarray(x, dtype=np.float64).reshape(-1, np.shape(x)[-1])
    y = np.empty_like(cols)
    mean, var = np.empty(cols.shape[1]), np.empty(cols.shape[1])
    for c in range(cols.shape[1]):
        col = cols[:, c].tolist()
        mean[c] = math.fsum(col) / len(col)
        var[c] = math.fsum((v - mean[c]) ** 2 for v in col) / len(col)
        scale = float(gamma[c]) / math.sqrt(var[c] + eps)
        y[:, c] = [(v - mean[c]) * scale + float(beta[c]) for v in col]
    return y.reshape(np.shape(x)), mean, var


def naive_max_pool(x, pool):
    """Non-overlapping max pooling of one (H, W, C) example by loops; trailing
    remainder rows and columns are dropped."""
    h, w, c = x.shape
    ph, pw = pool
    y = np.empty((h // ph, w // pw, c), dtype=x.dtype)
    for i in range(h // ph):
        for j in range(w // pw):
            for ch in range(c):
                y[i, j, ch] = max(x[i * ph + a, j * pw + b, ch] for a in range(ph) for b in range(pw))
    return y


def naive_dense(x, w, b):
    """Double-loop affine map on a single (n,) vector."""
    n, m = w.shape
    y = np.zeros(m, dtype=x.dtype)
    for j in range(m):
        acc = b[j]
        for i in range(n):
            acc += x[i] * w[i, j]
        y[j] = acc
    return y


def count_conv_multiplies(hout, wout, cout, kh, kw, cin):
    """Multiply count of the naive conv loops, by enumeration.

    Walks every output cell the way :func:`naive_conv2d` does and adds the
    enumerated tap count per cell (with zero padding every kernel tap
    performs a multiply, including taps that land on padding).
    """
    taps = 0
    for _dh in range(kh):
        for _dw in range(kw):
            for _c in range(cin):
                taps += 1
    total = 0
    for _i in range(hout):
        for _j in range(wout):
            for _d in range(cout):
                total += taps
    return total


def count_depthwise_multiplies(hout, wout, c, kh, kw):
    taps = 0
    for _dh in range(kh):
        for _dw in range(kw):
            taps += 1
    total = 0
    for _i in range(hout):
        for _j in range(wout):
            for _ch in range(c):
                total += taps
    return total


def count_dense_multiplies(n, m):
    total = 0
    for _j in range(m):
        for _i in range(n):
            total += 1
    return total
