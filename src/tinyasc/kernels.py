"""Forward and backward tensor kernels.

Layout is channels-last throughout: activations (N, H, W, C), convolution
weights (Kh, Kw, Cin, Cout), depthwise weights (Kh, Kw, C), dense weights
(n, m). Arithmetic runs in the dtype of the inputs, so the same code
serves float32 training and float64 gradient checks.

Convolutions are cross-correlations with zero "same" padding at stride 1;
"valid" padding with stride = kernel size covers patch embedding. Max
pooling is non-overlapping and drops trailing remainder rows/columns.
One window rule, ``_taps``, and one zero-bordered clip copy, ``_bordered_clip``,
serve conv2d, depthwise, max pool and their gradients.
"""

import math

import numpy as np

from .errors import ShapeError

GELU_COEF = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _clips(*arrays, scratch=()):
    """Yield matching views of ``arrays``, one clip (index of the first axis)
    at a time, followed by one reused buffer of the first array's clip shape
    for each dtype in ``scratch``. An array with fewer than two axes is one clip.

    Elementwise kernels run clip by clip into a preallocated output, so their
    passes stay in cache where whole-batch temporaries streamed through
    memory. Each element gets the same ufuncs in the same order, so the bits
    are those of the whole-array form, except which NaN comes back where two
    NaNs meet: numpy's SIMD loop and its remainder loop may differ there.
    """
    whole = arrays[0].ndim < 2
    shape = arrays[0].shape if whole else arrays[0].shape[1:]
    buffers = tuple(np.empty(shape, dtype=dtype) for dtype in scratch)
    for views in [arrays] if whole else zip(*arrays, strict=True):
        yield (*views, *buffers)


def _output(out, shape, dtype):
    """A new array of ``shape`` and ``dtype``, or ``out`` when it has them;
    an ``out`` of another shape or dtype raises ValueError."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(f"out is {out.dtype} {out.shape}, the result is {np.dtype(dtype)} {shape}")
    return out


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


def _taps(a, kernel, stride, out):
    """The cells an ``out`` = (H', W') grid of ``kernel`` = (kh, kw) windows at
    ``stride`` = (sh, sw) reads from an (..., H, W, C) array: one strided
    (..., H', W', C) view per window cell, in row-major (dh, dw) order."""
    (kh, kw), (sh, sw), (hout, wout) = kernel, stride, out
    return [a[..., dh : dh + sh * hout : sh, dw : dw + sw * wout : sw, :] for dh in range(kh) for dw in range(kw)]


def _bordered_clip(x, kernel, stride, border, out):
    """(interior, taps) of one reused clip-sized copy of (N, H, W, C) ``x`` with
    a zero border of ``border`` = (ph, pw): each clip is copied into the interior."""
    _, h, w, c = x.shape
    ph, pw = border
    padded = np.zeros((h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    return padded[ph : ph + h, pw : pw + w], _taps(padded, kernel, stride, out)


def _clip_rows(x, kh, kw, stride, ph, pw, hout, wout):
    """Yield each clip's kh*kw taps, zero-padded by (ph, pw), gathered into one
    reused (H' * W', kh * kw * Cin) row buffer in (dh, dw, cin) column order.

    One clip at a time keeps the padded copy and the rows in cache, where a
    whole-batch im2col gained little over a GEMM per tap.
    """
    interior, taps = _bordered_clip(x, (kh, kw), (stride, stride), (ph, pw), (hout, wout))
    rows = np.empty((hout, wout, kh * kw, x.shape[3]), dtype=x.dtype)
    for clip in x:
        interior[...] = clip
        for k, tap in enumerate(taps):
            rows[:, :, k] = tap
        yield rows.reshape(hout * wout, -1)


def _correlate(x, w, stride, ph, pw, hout, wout):
    """Cross-correlation of (N, H, W, Cin) with (Kh, Kw, Cin, Cout), zero-padded by
    (ph, pw): one GEMM per clip of its gathered rows against the kernel."""
    kh, kw, cin, cout = w.shape
    w_rows = w.reshape(kh * kw * cin, cout)
    y = np.empty((x.shape[0], hout, wout, cout), dtype=np.result_type(x, w))
    for rows, out in zip(_clip_rows(x, kh, kw, stride, ph, pw, hout, wout), y):
        np.matmul(rows, w_rows, out=out.reshape(hout * wout, cout))
    return y


def conv2d(x, w, b=None, stride=1, padding="same"):
    """Cross-correlation of (N,H,W,Cin) with (Kh,Kw,Cin,Cout) plus bias."""
    kh, kw, cin, cout = w.shape
    if x.shape[3] != cin:
        raise ShapeError(f"conv2d input has {x.shape[3]} channels, weights expect {cin}")
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, stride, padding)
    if kh * kw * cin == 1:
        # one tap of one channel: one GEMM with K = 1 over the whole batch. Per clip
        # it ran 2.5 times slower at N = 64; a broadcast product x * w, 3 times
        # slower at N = 1 (where requests run) and 14% faster at N = 64
        (tap,) = _taps(x, (1, 1), (stride, stride), (hout, wout))
        y = np.dot(tap.reshape(-1, 1), w.reshape(1, cout)).reshape(x.shape[0], hout, wout, cout)
    else:
        y = _correlate(x, w, stride, ph, pw, hout, wout)
    if b is not None:
        y += b
    return y


def conv2d_backward(x, w, grad_y, stride=1, padding="same", with_bias=True, with_input=True):
    """Gradients of conv2d w.r.t. input (None unless ``with_input``), weights and bias.

    The weight gradient sums one GEMM per clip of the forward's rows against
    grad_y (M = kh*kw*Cin), or for a single tap of one channel is a BLAS-free
    contraction: OpenBLAS splits an M = 1 product along K, and its bits then
    depend on the thread count. With same padding the input gradient is the
    correlation of grad_y with the flipped kernel, Cin and Cout swapped;
    otherwise each clip's row gradient is added back tap by tap.
    """
    kh, kw, cin, cout = w.shape
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, stride, padding)
    n = x.shape[0]
    if kh * kw * cin == 1:
        (tap,) = _taps(x, (1, 1), (stride, stride), (hout, wout))
        gw = np.einsum("nhw,nhwc->c", tap[..., 0], grad_y).reshape(w.shape)
    else:
        gw = np.zeros((kh * kw * cin, cout), dtype=np.result_type(x, grad_y))
        part = np.empty_like(gw)
        clip_grads = grad_y.reshape(n, hout * wout, cout)
        for rows, g in zip(_clip_rows(x, kh, kw, stride, ph, pw, hout, wout), clip_grads):
            gw += np.matmul(rows.T, g, out=part)
        gw = gw.reshape(w.shape)
    gx = None
    if with_input and padding == "same":
        gx = _correlate(grad_y, w[::-1, ::-1].transpose(0, 1, 3, 2), 1, ph, pw, hout, wout)
    elif with_input:
        row_grads = (grad_y.reshape(-1, cout) @ w.reshape(-1, cout).T).reshape(n, hout, wout, kh * kw, cin)
        gx = np.zeros(x.shape, dtype=row_grads.dtype)
        for k, tap in enumerate(_taps(gx, (kh, kw), (stride, stride), (hout, wout))):
            tap += row_grads[:, :, :, k]
    gb = grad_y.sum(axis=(0, 1, 2)) if with_bias else None
    return gx, gw.astype(w.dtype, copy=False), gb


def _depthwise_rows(x, w):
    """Same-padded per-channel correlation of (N, H, W, C) with (Kh, Kw, C).

    Each clip is copied into one reused zero-bordered buffer, and the kernel
    is tiled along W, so each tap is one long multiply-add over W * C values,
    with the sums in tap order. One clip at a time keeps the buffers in
    cache, and copying a tap into the reused product buffer before
    multiplying in place ran faster than multiplying out of the strided view.
    """
    kh, kw, c = w.shape
    _, h, wd, _ = x.shape
    interior, taps = _bordered_clip(x, (kh, kw), (1, 1), (kh // 2, kw // 2), (h, wd))
    w_rows = np.tile(w, (1, 1, wd)).reshape(kh * kw, wd, c)
    y = np.zeros(x.shape, dtype=x.dtype)
    product = np.empty((h, wd, c), dtype=np.result_type(x, w))
    for clip, out in zip(x, y):
        interior[...] = clip
        for tap, w_row in zip(taps, w_rows):
            np.copyto(product, tap)
            product *= w_row
            out += product
    return y


def depthwise_conv2d(x, w, b=None):
    """Per-channel spatial convolution, no cross-channel mixing. Same padding."""
    kh, kw, c = w.shape
    if x.shape[3] != c:
        raise ShapeError(f"depthwise input has {x.shape[3]} channels, weights expect {c}")
    _conv_geometry(x.shape, kh, kw, 1, "same")
    y = _depthwise_rows(x, w)
    if b is not None:
        y += b
    return y


def depthwise_conv2d_backward(x, w, grad_y, with_bias=True):
    """Gradients of depthwise_conv2d. The input gradient is the same correlation
    of grad_y with the kernel flipped; the weight gradient sums each tap's
    products over H, one clip at a time, then over W."""
    kh, kw, c = w.shape
    ph, pw, hout, wout = _conv_geometry(x.shape, kh, kw, 1, "same")
    gx = _depthwise_rows(grad_y, w[::-1, ::-1])
    interior, taps = _bordered_clip(x, (kh, kw), (1, 1), (ph, pw), (hout, wout))
    gw_rows = np.zeros((kh * kw, wout, c), dtype=np.result_type(x, grad_y))
    for clip, g in zip(x, grad_y):
        interior[...] = clip
        for tap, part in zip(taps, gw_rows):
            part += np.einsum("ijk,ijk->jk", tap, g)
    gw = gw_rows.sum(axis=1).reshape(w.shape).astype(w.dtype, copy=False)
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

    The cache is ``(x, mean, inv_std, gamma, beta, train, axes)`` in both
    modes, with the mean that normalized x: the input and its statistics,
    from which ``batch_norm_backward`` forms x_hat again. Both modes end in
    ``batch_norm_output``; a train-mode call first centres and squares each
    clip in y, its only full-size buffer, for ``np.var``'s arithmetic.
    """
    axes = tuple(range(x.ndim - 1))
    if train:
        mean = x.mean(axis=axes)
        y = np.empty(x.shape, dtype=np.result_type(x, mean))
        for clip, out in _clips(x, y):
            np.subtract(clip, mean, out=out)
            np.multiply(out, out, out=out)
        var = y.mean(axis=axes)
        moving_mean = momentum * moving_mean + (1.0 - momentum) * mean
        moving_var = momentum * moving_var + (1.0 - momentum) * var
    else:
        mean, var, y = moving_mean, moving_var, None
    inv_std = 1.0 / norm_denominator(var, eps)
    cache = (x, mean, inv_std, gamma, beta, train, axes)
    return batch_norm_output(cache, out=y), cache, (moving_mean, moving_var)


def norm_denominator(var, eps):
    """sqrt(var + eps), a batch norm's denominator. A non-positive eps or a
    negative variance raises ValueError."""
    if eps <= 0:
        raise ValueError(f"batch norm eps must be positive, got {eps}")
    if np.any(var < 0):
        raise ValueError("negative variance estimate in batch norm")
    return np.sqrt(var + eps)


def _x_hat(clip, mean, inv_std, out):
    """out = (clip - mean) * inv_std: one clip's x_hat, in the order of the
    whole-array form (centre, then scale)."""
    np.subtract(clip, mean, out=out)
    out *= inv_std


def batch_norm_output(cache, out=None):
    """The y of a ``batch_norm`` in either mode, gamma * x_hat + beta, from its
    cache, one clip at a time with x_hat formed in y: the forward's own tail,
    so a rebuild in backward has the forward's bits. In eval mode y has the
    dtype of gamma * ((x - mean) * inv_std) + beta, and its bits unless gamma
    or beta is wider than the other operands; in train mode, x's dtype.
    ``out`` receives y in place of a new array and must have the forward's
    shape and dtype. It must run before ``batch_norm_backward`` writes into
    the cached input."""
    x, mean, inv_std, gamma, beta, train, _ = cache
    dtype = np.result_type(x, mean) if train else np.result_type(x, mean, inv_std, gamma, beta)
    y = _output(out, x.shape, dtype)
    for clip, xh in _clips(x, y):
        _x_hat(clip, mean, inv_std, out=xh)
        np.multiply(gamma, xh, out=xh)
        xh += beta
    return y


def batch_norm_backward(cache, grad_y, out=None):
    """Gradients w.r.t. input, gamma, beta from a batch_norm cache.

    x_hat = (x - mean) * inv_std is formed again clip by clip, with the
    forward's own ufuncs, in the buffer that then receives gx. In train mode
    the input gradient uses sum(g * gamma) = gamma * g_beta and
    sum(g * gamma * x_hat) = gamma * g_gamma. The products and gx are formed
    one clip at a time, the products in one reused buffer, so gx is the only
    full-size array. ``out`` receives gx in place of a new array and must
    have its shape and dtype (grad_y's in train mode); it may be the cached
    input x, whose clips are read before they are written. Where x_hat's
    dtype is not gx's, x_hat gets a buffer of its own.
    """
    x, mean, inv_std, gamma, _, train, axes = cache
    gx = _output(out, grad_y.shape, grad_y.dtype if train else np.result_type(grad_y, gamma, inv_std))
    x_hat_dtype = np.result_type(x, mean, inv_std)
    x_hat = gx if gx.dtype == x_hat_dtype else np.empty(x.shape, dtype=x_hat_dtype)
    dtype = np.result_type(grad_y, x_hat)
    g_gamma = np.zeros(x.shape[-1], dtype=dtype)
    for clip, g, xh, product in _clips(x, grad_y, x_hat, scratch=(dtype,)):
        _x_hat(clip, mean, inv_std, out=xh)
        g_gamma += np.add.reduce(np.multiply(g, xh, out=product), axis=axes[:-1])
    g_beta = grad_y.sum(axis=axes)
    if not train:
        np.multiply(grad_y, gamma, out=gx)
        gx *= inv_std
        return gx, g_gamma, g_beta
    m = math.prod(x.shape[:-1])
    # gx = (gamma * inv_std / m) * (m * g - g_beta - x_hat * g_gamma)
    scale = gamma * inv_std / m
    for g, xh, clip, product in _clips(grad_y, x_hat, gx, scratch=(dtype,)):
        np.multiply(xh, g_gamma, out=product)
        np.multiply(g, m, out=clip)
        clip -= g_beta
        clip -= product
        clip *= scale
    return gx, g_gamma, g_beta


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise."""
    # max(x, expm1(min(x, 0))): expm1(x) >= x, and min/max skip np.where's masked copy
    y = np.empty(x.shape, dtype=x.dtype)
    for clip, out in _clips(x, y):
        np.minimum(clip, 0, out=out)
        np.expm1(out, out=out)
        np.maximum(clip, out, out=out)
    return y


def elu_backward(y, grad_y, out=None):
    """ELU's gradient from its output y: 1 where y > 0, else exp(x) = y + 1.

    ``out`` receives it in place of a new array and must have y's shape and
    dtype; it may be y itself, which each clip reads before it writes.
    """
    gx = _output(out, y.shape, y.dtype)
    for clip, g, factor in _clips(y, grad_y, gx):
        np.minimum(clip, 0, out=factor)
        factor += 1
        factor *= g
    return gx


def _tanh_inner(x, t):
    """t = tanh(sqrt(2/pi) * (x + 0.044715 * x^3)), GELU's inner tanh, in t."""
    np.multiply(x, x, out=t)  # x**3 goes through slow pow
    t *= x
    t *= GELU_COEF
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)


def gelu(x):
    """Gaussian error linear unit, tanh approximation:
    0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Computed in the output, one clip at a time. The bits equal 0.5 * x *
    (1 + tanh(inner)): the factors 0.5 * (1 + t) and 0.5 * x are exact
    wherever x is normal, and 1 + t is exactly 1 where it is not.
    """
    y = np.empty(x.shape, dtype=x.dtype)
    for clip, t in _clips(x, y):
        _tanh_inner(clip, t)
        t += 1.0
        t *= 0.5
        t *= clip
    return y


def gelu_slope(x, out=None):
    """(gelu(x), dy/dx) from one tanh t = tanh(inner): y has ``gelu``'s bits,
    and dy/dx = 0.5*(1 + t) + 0.5*x*(1 - t^2) * sqrt(2/pi)*(1 + 3*0.044715*x^2)
    in that order of operations, so GELU's input gradient is dy/dx * grad_y.
    Formed one clip at a time in the outputs and two clip-sized buffers.
    ``out`` receives dy/dx in place of a new array and must have x's shape
    and dtype; it may be x itself, whose clips are read before they are written."""
    y = np.empty(x.shape, dtype=x.dtype)
    slope = _output(out, x.shape, x.dtype)
    for clip, t, s, d_inner, share in _clips(x, y, slope, scratch=(x.dtype, x.dtype)):
        _tanh_inner(clip, t)
        np.multiply(clip, clip, out=d_inner)  # the inner's derivative
        d_inner *= 3.0 * GELU_COEF
        d_inner += 1.0
        d_inner *= _SQRT_2_OVER_PI
        np.multiply(t, t, out=share)  # the tanh's share
        np.subtract(1.0, share, out=share)
        share *= 0.5
        share *= clip
        share *= d_inner
        t += 1.0
        t *= 0.5
        np.add(t, share, out=share)
        t *= clip
        np.copyto(s, share)
    return y, slope


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
    y = np.empty((n, hout, wout, c), dtype=x.dtype)
    idx = np.empty(y.shape, dtype=np.min_scalar_type(ph * pw - 1)) if keep_cache else None
    for i, (out, clip, before, differs) in enumerate(_clips(y, x, scratch=(bool, bool))):
        cells = _taps(clip, pool, pool, (hout, wout))
        # a running maximum over the cells: the bits of a max over each window, NaN included
        np.maximum(cells[0], cells[-1], out=out)
        for cell in cells[1:-1]:
            np.maximum(out, cell, out=out)
        if idx is None:
            continue
        # idx counts the cells before the first one that holds the maximum
        np.not_equal(cells[0], out, out=before)
        counts = idx[i]
        counts[...] = before
        for cell in cells[1:-1]:
            before &= np.not_equal(cell, out, out=differs)
            counts += before
    return y, (None if idx is None else (x.shape, pool, idx))


def max_pool_backward(cache, grad_y):
    x_shape, pool, idx = cache
    gx = np.zeros(x_shape, dtype=grad_y.dtype)
    for g, counts, clip, routed in _clips(grad_y, idx, gx, scratch=(bool,)):
        for k, cell in enumerate(_taps(clip, pool, pool, g.shape[:2])):
            np.multiply(g, np.equal(counts, k, out=routed), out=cell)
            cell += 0.0  # a negative gradient times False is -0.0; unrouted cells stay +0.0
    return gx


def global_avg_pool(x):
    """Per-channel spatial mean: (N, H, W, C) -> (N, C)."""
    return x.mean(axis=(1, 2))


def global_avg_pool_backward(x_shape, grad_y):
    n, h, w, c = x_shape
    return np.broadcast_to(grad_y[:, None, None, :] / (h * w), x_shape).astype(grad_y.dtype)


def dense(x, w, b=None):
    """Affine map: (N, n) @ (n, m) + (m,)."""
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
    # one clip's draw at a time: the same stream as rng.random(x.shape)
    mask = np.empty(x.shape, dtype=bool)
    for clip, draw in _clips(mask, scratch=(np.float64,)):
        np.greater_equal(rng.random(out=draw), rate, out=clip)
    y = x * mask
    y /= 1.0 - rate
    return y, mask


def dropout_backward(mask, rate, grad_y):
    if mask is None:
        return grad_y
    g = grad_y * mask
    g /= 1.0 - rate
    return g
