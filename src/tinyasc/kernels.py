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


def conv2d(x, w, b=None, stride=1, padding="same"):
    """Cross-correlation of (N,H,W,Cin) with (Kh,Kw,Cin,Cout) plus bias."""
    kh, kw, cin, cout = w.shape
    if x.shape[3] != cin:
        raise ShapeError(f"conv2d input has {x.shape[3]} channels, weights expect {cin}")
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, stride, padding)
    xp = _pad(x, ph, pw)

    def tap(dh, dw):
        return xp[:, dh : dh + stride * hout : stride, dw : dw + stride * wout : stride, :]

    if cin == 1:
        # one input channel: one GEMM over the gathered taps, not kh*kw GEMMs with K = 1
        cols = np.concatenate([tap(dh, dw) for dh in range(kh) for dw in range(kw)], axis=3)
        y = np.tensordot(cols, w.reshape(kh * kw, cout).astype(x.dtype, copy=False), axes=([3], [0]))
    else:
        # more channels keep K = cin per tap: an im2col GEMM was slower at 48 channels
        y = np.zeros((x.shape[0], hout, wout, cout), dtype=x.dtype)
        for dh in range(kh):
            for dw in range(kw):
                y += np.tensordot(tap(dh, dw), w[dh, dw], axes=([3], [0]))
    if b is not None:
        y += b
    return y


def conv2d_backward(x, w, grad_y, stride=1, padding="same", with_bias=True):
    """Gradients of conv2d w.r.t. input, weights, and bias."""
    kh, kw, _, _ = w.shape
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, stride, padding)
    xp = _pad(x, ph, pw)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for dh in range(kh):
        for dw in range(kw):
            rows = slice(dh, dh + stride * hout, stride)
            cols = slice(dw, dw + stride * wout, stride)
            gw[dh, dw] = np.tensordot(xp[:, rows, cols, :], grad_y, axes=([0, 1, 2], [0, 1, 2]))
            gxp[:, rows, cols, :] += np.tensordot(grad_y, w[dh, dw], axes=([3], [1]))
    gx = gxp[:, ph : ph + x.shape[1], pw : pw + x.shape[2], :] if (ph or pw) else gxp
    gb = grad_y.sum(axis=(0, 1, 2)) if with_bias else None
    return gx, gw, gb


def depthwise_conv2d(x, w, b=None):
    """Per-channel spatial convolution, no cross-channel mixing. Same padding."""
    kh, kw, c = w.shape
    if x.shape[3] != c:
        raise ShapeError(f"depthwise input has {x.shape[3]} channels, weights expect {c}")
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, 1, "same")
    xp = _pad(x, ph, pw)
    n, hp, wp, _ = xp.shape
    # Rows of (W + 2pw) * C values with the kernel tiled along W: each tap is one
    # long multiply-add instead of a C-wide broadcast, with the sums in tap order.
    # In-place passes over one reused buffer ran faster than a fresh product.
    rows = xp.reshape(n, hp, wp * c)
    w_rows = np.tile(w, (1, 1, wout))
    y = np.zeros((n, hout, wout * c), dtype=x.dtype)
    product = np.empty(y.shape, dtype=np.result_type(x, w))
    for dh in range(kh):
        for dw in range(kw):
            np.copyto(product, rows[:, dh : dh + hout, dw * c : (dw + wout) * c])
            product *= w_rows[dh, dw]
            y += product
    y = y.reshape(x.shape)
    if b is not None:
        y += b
    return y


def depthwise_conv2d_backward(x, w, grad_y, with_bias=True):
    kh, kw, _ = w.shape
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, 1, "same")
    xp = _pad(x, ph, pw)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for dh in range(kh):
        for dw in range(kw):
            xs = xp[:, dh : dh + hout, dw : dw + wout, :]
            gw[dh, dw] = np.einsum("nhwc,nhwc->c", xs, grad_y)
            gxp[:, dh : dh + hout, dw : dw + wout, :] += grad_y * w[dh, dw]
    gx = gxp[:, ph : ph + x.shape[1], pw : pw + x.shape[2], :] if (ph or pw) else gxp
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


def separable_conv2d(x, w_dw, w_pw, b_pw=None):
    """Depthwise then pointwise stage; bias only on the pointwise stage."""
    return pointwise_conv2d(depthwise_conv2d(x, w_dw), w_pw, b_pw)


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
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        new_mm = momentum * moving_mean + (1.0 - momentum) * mean
        new_mv = momentum * moving_var + (1.0 - momentum) * var
    else:
        if np.any(moving_var < 0):
            raise ValueError("negative variance estimate in batch norm")
        mean, var = moving_mean, moving_var
        new_mm, new_mv = moving_mean, moving_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    y = gamma * x_hat + beta
    cache = (x_hat, inv_std, gamma, train, axes)
    return y, cache, (new_mm, new_mv)


def batch_norm_backward(cache, grad_y):
    """Gradients w.r.t. input, gamma, beta from a batch_norm cache."""
    x_hat, inv_std, gamma, train, axes = cache
    g_gamma = (grad_y * x_hat).sum(axis=axes)
    g_beta = grad_y.sum(axis=axes)
    g_xhat = grad_y * gamma
    if not train:
        return g_xhat * inv_std, g_gamma, g_beta
    m = int(np.prod([x_hat.shape[a] for a in axes]))
    gx = (inv_std / m) * (m * g_xhat - g_xhat.sum(axis=axes) - x_hat * (g_xhat * x_hat).sum(axis=axes))
    return gx, g_gamma, g_beta


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise."""
    # max(x, expm1(min(x, 0))): expm1(x) >= x, and min/max skip np.where's masked copy
    y = np.minimum(x, 0)
    np.expm1(y, out=y)
    return np.maximum(x, y, out=y)


def elu_backward(x, grad_y):
    return grad_y * np.exp(np.minimum(x, 0))


def gelu(x, approx=True):
    """Gaussian error linear unit.

    Default is the tanh approximation 0.5*x*(1 + tanh(sqrt(2/pi)*(x +
    0.044715*x^3))); ``approx=False`` evaluates the exact erf form.
    """
    if approx:
        inner = _SQRT_2_OVER_PI * (x + GELU_COEF * (x * x * x))  # x**3 goes through slow pow
        return 0.5 * x * (1.0 + np.tanh(inner))
    erf = np.vectorize(math.erf)
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_backward(x, grad_y, approx=True):
    if approx:
        inner = _SQRT_2_OVER_PI * (x + GELU_COEF * (x * x * x))
        t = np.tanh(inner)
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x**2)
        return grad_y * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner)
    erf = np.vectorize(math.erf)
    phi = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return grad_y * (cdf + x * phi)


def max_pool(x, pool, keep_cache=True):
    """Non-overlapping max pooling; trailing remainder rows/columns dropped.

    Returns (y, cache). Ties within a window resolve to the first index in
    row-major (dh, dw) window order. With ``keep_cache=False`` no argmax is
    taken and the cache is None; y is the same, except that a window whose
    maximum is a tie between -0.0 and +0.0 may give the other zero.
    """
    ph, pw = pool
    if ph < 1 or pw < 1:
        raise ValueError(f"pool extents must be >= 1, got {pool}")
    n, h, w, c = x.shape
    hout, wout = h // ph, w // pw
    if hout < 1 or wout < 1:
        raise ShapeError(f"pool {pool} larger than input {h}x{w}")
    blocks = x[:, : hout * ph, : wout * pw, :].reshape(n, hout, ph, wout, pw, c)
    if not keep_cache:
        return blocks.max(axis=(2, 4)), None
    windows = blocks.transpose(0, 1, 3, 5, 2, 4).reshape(n, hout, wout, c, ph * pw)
    idx = np.argmax(windows, axis=-1)
    y = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    cache = (x.shape, pool, idx)
    return y, cache


def max_pool_backward(cache, grad_y):
    (n, h, w, c), (ph, pw), idx = cache
    hout, wout = h // ph, w // pw
    g_win = np.zeros((n, hout, wout, c, ph * pw), dtype=grad_y.dtype)
    np.put_along_axis(g_win, idx[..., None], grad_y[..., None], axis=-1)
    gx_core = (
        g_win.reshape(n, hout, wout, c, ph, pw)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, hout * ph, wout * pw, c)
    )
    gx = np.zeros((n, h, w, c), dtype=grad_y.dtype)
    gx[:, : hout * ph, : wout * pw, :] = gx_core
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
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(mask, rate, grad_y):
    if mask is None:
        return grad_y
    return grad_y * mask / (1.0 - rate)
