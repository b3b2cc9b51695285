"""Forward and backward tensor kernels.

Layout is channels-last throughout: activations (N, H, W, C), convolution
weights (Kh, Kw, Cin, Cout), depthwise weights (Kh, Kw, C), dense weights
(n, m). Arithmetic runs in the dtype of the inputs, so the same code
serves float32 training and float64 gradient checks.

Convolutions are cross-correlations with zero "same" padding at stride 1;
"valid" padding with stride = kernel size covers patch embedding. Max
pooling is non-overlapping and drops trailing remainder rows/columns.
"""

import math

import numpy as np

from .errors import ShapeError

GELU_COEF = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _conv_geometry(x_shape, kh, kw, stride, padding):
    n, h, w, _ = x_shape
    if padding == "same":
        if stride != 1:
            raise ValueError("same padding requires stride 1")
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"same padding requires odd kernels, got {kh}x{kw}")
        ph, pw = kh // 2, kw // 2
        hout, wout = h, w
    elif padding == "valid":
        ph = pw = 0
        hout = (h - kh) // stride + 1
        wout = (w - kw) // stride + 1
        if hout < 1 or wout < 1:
            raise ShapeError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    else:
        raise ValueError(f"unknown padding {padding!r}")
    return ph, pw, hout, wout


def _pad(x, ph, pw):
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))


def _tap_columns(xp, kh, kw, stride, hout, wout):
    """The kh*kw taps of a one-channel padded input gathered into (N, H', W', kh*kw)."""
    taps = [
        xp[:, dh : dh + stride * hout : stride, dw : dw + stride * wout : stride, :]
        for dh in range(kh)
        for dw in range(kw)
    ]
    return np.concatenate(taps, axis=3)


def conv2d(x, w, b=None, stride=1, padding="same"):
    """Cross-correlation of (N,H,W,Cin) with (Kh,Kw,Cin,Cout) plus bias."""
    kh, kw, cin, cout = w.shape
    if x.shape[3] != cin:
        raise ShapeError(f"conv2d input has {x.shape[3]} channels, weights expect {cin}")
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, stride, padding)
    xp = _pad(x, ph, pw)
    if cin == 1:
        # one input channel: one GEMM over the gathered taps, not kh*kw GEMMs with K = 1
        cols = _tap_columns(xp, kh, kw, stride, hout, wout)
        y = np.tensordot(cols, w.reshape(kh * kw, cout).astype(x.dtype, copy=False), axes=([3], [0]))
    else:
        # more channels keep K = cin per tap: an im2col GEMM was slower at 48 channels
        y = np.zeros((x.shape[0], hout, wout, cout), dtype=x.dtype)
        for dh in range(kh):
            for dw in range(kw):
                tap = xp[:, dh : dh + stride * hout : stride, dw : dw + stride * wout : stride, :]
                y += np.tensordot(tap, w[dh, dw], axes=([3], [0]))
    if b is not None:
        y += b
    return y


def conv2d_backward(x, w, grad_y, stride=1, padding="same", with_bias=True):
    """Gradients of conv2d w.r.t. input, weights, and bias.

    With one input channel the weight gradient is one GEMM of the forward's
    tap columns against grad_y (M = kh*kw), or for a single tap a BLAS-free
    contraction: OpenBLAS splits an M = 1 product along K, and its bits then
    depend on the thread count.
    """
    kh, kw, cin, cout = w.shape
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, stride, padding)
    xp = _pad(x, ph, pw)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    if cin == 1 and kh * kw == 1:
        tap = xp[:, : stride * hout : stride, : stride * wout : stride, 0]
        gw[0, 0, 0] = np.einsum("nhw,nhwc->c", tap, grad_y)
    elif cin == 1:
        columns = _tap_columns(xp, kh, kw, stride, hout, wout)
        gw[...] = np.tensordot(columns, grad_y, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
    for dh in range(kh):
        for dw in range(kw):
            rows = slice(dh, dh + stride * hout, stride)
            cols = slice(dw, dw + stride * wout, stride)
            if cin > 1:
                gw[dh, dw] = np.tensordot(xp[:, rows, cols, :], grad_y, axes=([0, 1, 2], [0, 1, 2]))
            gxp[:, rows, cols, :] += np.tensordot(grad_y, w[dh, dw], axes=([3], [1]))
    gx = gxp[:, ph : ph + x.shape[1], pw : pw + x.shape[2], :] if (ph or pw) else gxp
    gb = grad_y.sum(axis=(0, 1, 2)) if with_bias else None
    return gx, gw, gb


def _depthwise_rows(x, w):
    """Same-padded per-channel correlation of (N, H, W, C) with (Kh, Kw, C),
    returned as (N, H, W * C) rows.

    Each clip is copied into one zero-bordered row buffer of (W + 2pw) * C
    values, and the kernel is tiled along W, so each tap is one long
    multiply-add, with the sums in tap order. One clip at a time keeps the
    buffers in cache, and copying a tap into the reused product buffer
    before multiplying in place ran faster than multiplying out of the
    strided view.
    """
    kh, kw, c = w.shape
    n, h, wd, _ = x.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((h + 2 * ph, (wd + 2 * pw) * c), dtype=x.dtype)
    interior = padded[ph : ph + h, pw * c : (pw + wd) * c]
    w_rows = np.tile(w, (1, 1, wd))
    y = np.zeros((n, h, wd * c), dtype=x.dtype)
    product = np.empty((h, wd * c), dtype=np.result_type(x, w))
    for clip, out in zip(x.reshape(n, h, wd * c), y):
        interior[...] = clip
        for dh in range(kh):
            for dw in range(kw):
                np.copyto(product, padded[dh : dh + h, dw * c : (dw + wd) * c])
                product *= w_rows[dh, dw]
                out += product
    return y


def depthwise_conv2d(x, w, b=None):
    """Per-channel spatial convolution, no cross-channel mixing. Same padding."""
    kh, kw, c = w.shape
    if x.shape[3] != c:
        raise ShapeError(f"depthwise input has {x.shape[3]} channels, weights expect {c}")
    _conv_geometry(x.shape, kh, kw, 1, "same")
    y = _depthwise_rows(x, w).reshape(x.shape)
    if b is not None:
        y += b
    return y


def depthwise_conv2d_backward(x, w, grad_y, with_bias=True):
    """Gradients of depthwise_conv2d. The input gradient is the same correlation
    of grad_y with the kernel flipped; the weight gradient sums each tap's
    products over the row layout, one clip at a time."""
    kh, kw, c = w.shape
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, 1, "same")
    gx = _depthwise_rows(grad_y, w[::-1, ::-1]).reshape(x.shape)
    n = x.shape[0]
    padded = np.zeros((hout + 2 * ph, (wout + 2 * pw) * c), dtype=x.dtype)
    interior = padded[ph : ph + hout, pw * c : (pw + wout) * c]
    gw_rows = np.zeros((kh, kw, wout * c), dtype=np.result_type(x, grad_y))
    for clip, g in zip(x.reshape(n, hout, wout * c), grad_y.reshape(n, hout, wout * c)):
        interior[...] = clip
        for dh in range(kh):
            for dw in range(kw):
                gw_rows[dh, dw] += np.einsum("ij,ij->j", padded[dh : dh + hout, dw * c : (dw + wout) * c], g)
    gw = gw_rows.reshape(kh, kw, wout, c).sum(axis=2).astype(w.dtype, copy=False)
    gb = grad_y.sum(axis=(0, 1, 2)) if with_bias else None
    return gx, gw, gb


def pointwise_conv2d(x, w, b=None):
    """1x1 convolution: a per-pixel dense map across channels.

    Weights are stored (1, 1, Cin, Cout) to mirror their conv nature.
    """
    if w.ndim != 4 or w.shape[:2] != (1, 1):
        raise ShapeError(f"pointwise weights must be (1,1,Cin,Cout), got {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(f"pointwise input has {x.shape[3]} channels, weights expect {w.shape[2]}")
    y = np.tensordot(x, w[0, 0], axes=([3], [0]))
    if b is not None:
        y += b
    return y


def pointwise_conv2d_backward(x, w, grad_y, with_bias=True):
    gw = np.zeros_like(w)
    gw[0, 0] = np.tensordot(x, grad_y, axes=([0, 1, 2], [0, 1, 2]))
    gx = np.tensordot(grad_y, w[0, 0], axes=([3], [1]))
    gb = grad_y.sum(axis=(0, 1, 2)) if with_bias else None
    return gx, gw, gb


def batch_norm(x, gamma, beta, moving_mean, moving_var, eps=1e-3, momentum=0.99, train=False):
    """Per-channel normalization over all leading axes.

    Returns (y, cache, (new_moving_mean, new_moving_var)). In inference
    mode the moving statistics are used unchanged; in train mode batch
    statistics (biased variance) normalize and the moving values are
    blended with momentum. Zero variance is tolerated (eps keeps the
    denominator positive); a negative variance estimate is rejected.
    """
    if eps <= 0:
        raise ValueError(f"batch norm eps must be positive, got {eps}")
    axes = tuple(range(x.ndim - 1))
    if train:
        # np.mean and np.var's own arithmetic, with one centred buffer: x_hat is
        # scaled from it in place and y is written into the squares buffer
        m = np.intp(math.prod(x.shape[:-1]))
        mean = np.add.reduce(x, axis=axes, keepdims=True)
        np.true_divide(mean, m, out=mean, casting="unsafe")
        x_hat = np.subtract(x, mean)
        y = np.multiply(x_hat, x_hat)
        var = np.add.reduce(y, axis=axes)
        np.true_divide(var, m, out=var, casting="unsafe")
        mean = mean.reshape(var.shape)
        new_mm = momentum * moving_mean + (1.0 - momentum) * mean
        new_mv = momentum * moving_var + (1.0 - momentum) * var
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat *= inv_std
        np.multiply(gamma, x_hat, out=y)
    else:
        if np.any(moving_var < 0):
            raise ValueError("negative variance estimate in batch norm")
        new_mm, new_mv = moving_mean, moving_var
        inv_std = 1.0 / np.sqrt(moving_var + eps)
        x_hat = (x - moving_mean) * inv_std
        y = gamma * x_hat
    y += beta
    cache = (x_hat, inv_std, gamma, train, axes)
    return y, cache, (new_mm, new_mv)


def batch_norm_backward(cache, grad_y):
    """Gradients w.r.t. input, gamma, beta from a batch_norm cache.

    In train mode the input gradient uses sum(g * gamma) = gamma * g_beta and
    sum(g * gamma * x_hat) = gamma * g_gamma, so it takes two full-size buffers.
    """
    x_hat, inv_std, gamma, train, axes = cache
    product = grad_y * x_hat
    g_gamma = np.add.reduce(product, axis=axes)
    g_beta = grad_y.sum(axis=axes)
    if not train:
        return grad_y * gamma * inv_std, g_gamma, g_beta
    m = math.prod(x_hat.shape[:-1])
    # gx = (gamma * inv_std / m) * (m * g - g_beta - x_hat * g_gamma)
    gx = np.multiply(grad_y, m)
    gx -= g_beta
    gx -= np.multiply(x_hat, g_gamma, out=product)
    gx *= gamma * inv_std / m
    return gx, g_gamma, g_beta


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise."""
    # max(x, expm1(min(x, 0))): expm1(x) >= x, and min/max skip np.where's masked copy
    y = np.minimum(x, 0)
    np.expm1(y, out=y)
    return np.maximum(x, y, out=y)


def elu_backward(y, grad_y):
    """ELU's gradient from its output y: 1 where y > 0, else exp(x) = y + 1."""
    factor = np.minimum(y, 0)
    factor += 1
    factor *= grad_y
    return factor


def gelu(x):
    """Gaussian error linear unit, tanh approximation:
    0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Computed in one buffer. The bits equal 0.5 * x * (1 + tanh(inner)): the
    factors 0.5 * (1 + t) and 0.5 * x are exact wherever x is normal, and
    1 + t is exactly 1 where it is not.
    """
    t = x * x  # x**3 goes through slow pow
    t *= x
    t *= GELU_COEF
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    t *= x
    return t


def gelu_backward(x, grad_y):
    """grad_y * (0.5*(1 + t) + 0.5*x*(1 - t^2) * sqrt(2/pi)*(1 + 3*0.044715*x^2)),
    t = tanh(inner), in three buffers and in that order of operations."""
    t = x * x
    t *= x
    t *= GELU_COEF
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    d_inner = x * x
    d_inner *= 3.0 * GELU_COEF
    d_inner += 1.0
    d_inner *= _SQRT_2_OVER_PI
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= 0.5
    slope *= x
    slope *= d_inner
    t += 1.0
    t *= 0.5
    t += slope
    t *= grad_y
    return t


def max_pool(x, pool, keep_cache=True):
    """Non-overlapping max pooling; trailing remainder rows/columns dropped.

    Returns (y, cache). The cache holds, per output, the index of the first
    maximum in row-major (dh, dw) window order, in the smallest unsigned
    integer type that holds it; ``keep_cache=False`` skips it and returns
    None. On a window whose maximum is a tie between -0.0 and +0.0, y may be
    either zero.
    """
    ph, pw = pool
    if ph < 1 or pw < 1:
        raise ValueError(f"pool extents must be >= 1, got {pool}")
    n, h, w, c = x.shape
    hout, wout = h // ph, w // pw
    if hout < 1 or wout < 1:
        raise ShapeError(f"pool {pool} larger than input {h}x{w}")
    blocks = x[:, : hout * ph, : wout * pw, :].reshape(n, hout, ph, wout, pw, c)
    y = blocks.max(axis=(2, 4))
    if not keep_cache:
        return y, None
    # idx counts the cells before the first one that holds the maximum
    cells = [blocks[:, :, k // pw, :, k % pw, :] for k in range(ph * pw)]
    before = np.not_equal(cells[0], y)
    idx = before.astype(np.min_scalar_type(ph * pw - 1))
    differs = np.empty_like(before)
    for cell in cells[1:-1]:
        before &= np.not_equal(cell, y, out=differs)
        idx += before
    return y, (x.shape, pool, idx)


def max_pool_backward(cache, grad_y):
    (n, h, w, c), (ph, pw), idx = cache
    hout, wout = h // ph, w // pw
    gx = np.zeros((n, h, w, c), dtype=grad_y.dtype)
    # a view: splitting an axis never needs a copy
    cells = gx[:, : hout * ph, : wout * pw, :].reshape(n, hout, ph, wout, pw, c)
    for k in range(ph * pw):
        cell = cells[:, :, k // pw, :, k % pw, :]
        np.multiply(grad_y, idx == k, out=cell)
        cell += 0.0  # a negative gradient times False is -0.0; unrouted cells stay +0.0
    return gx


def global_avg_pool(x):
    """Per-channel spatial mean: (N, H, W, C) -> (N, C)."""
    return x.mean(axis=(1, 2))


def global_avg_pool_backward(x_shape, grad_y):
    n, h, w, c = x_shape
    return np.broadcast_to(grad_y[:, None, None, :] / (h * w), x_shape).astype(grad_y.dtype)


def dense(x, w, b=None):
    """Affine map: (N, n) @ (n, m) + (m,); accepts a single (n,) vector too."""
    if x.ndim == 1:
        return dense(x[None], w, b)[0]
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense input width {x.shape[1]} != weight rows {w.shape[0]}")
    y = x @ w
    return y if b is None else y + b


def dense_backward(x, w, grad_y):
    return grad_y @ w.T, x.T @ grad_y, grad_y.sum(axis=0)


def softmax(z):
    """Row-wise softmax with max subtraction for stability."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs, grad_y):
    dot = (grad_y * probs).sum(axis=-1, keepdims=True)
    return probs * (grad_y - dot)


def dropout(x, rate, train=False, rng=None):
    """Zero entries with probability ``rate`` in train mode, scale survivors.

    Inference mode is an exact identity. Returns (y, mask); the mask is
    None outside train mode.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    mask = rng.random(x.shape) >= rate
    y = x * mask
    y /= 1.0 - rate
    return y, mask


def dropout_backward(mask, rate, grad_y):
    if mask is None:
        return grad_y
    g = grad_y * mask
    g /= 1.0 - rate
    return g
