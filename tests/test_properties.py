"""Property tests of the training kernels on drawn shapes and dtypes.

Each forward kernel is compared with its loop oracle in ``tinyasc.reference``
and each backward with float64 central differences along random directions:
for every argument a, <grad_a, v> must match (L(a + hv) - L(a - hv)) / 2h,
where L is a fixed random projection of the kernel's output. Inference on
drawn graphs is compared with the unfolded graph run as one batch. Draws are
derandomized, so every run sees the same examples. The elementwise kernels
that run one clip at a time are compared byte for byte with their whole-array
forms, written out below.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_audit import _random_small_graph

from tinyasc import kernels, zoo
from tinyasc.reference import (
    naive_batch_norm_train,
    naive_conv2d,
    naive_depthwise_conv2d,
    naive_elu,
    naive_max_pool,
    tanh_gelu,
)

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2**32 - 1)
POOLS = st.sampled_from([(1, 4), (1, 2), (2, 2), (3, 2)])
KERNELS = st.sampled_from([1, 3, 5])
H = 1e-6
# directional derivative agreement, relative to sum |grad_i * v_i|: float64
# keeps test_gradients' 1e-6; float32 analytic gradients get float32 rounding
GRAD_RTOL = {np.float32: 1e-4, np.float64: 1e-6}
# forward agreement with the float64 oracle, relative to the output's scale
FWD_RTOL = {np.float32: 2e-6, np.float64: 1e-12}


@st.composite
def batches(draw, min_h=1, min_w=1, max_hw=7):
    """(N, H, W, C) with N in 1..3, C in 1..5 and H, W from the minimum up to ``max_hw``."""
    return (
        draw(st.integers(1, 3)),
        draw(st.integers(min_h, max(min_h, max_hw))),
        draw(st.integers(min_w, max(min_w, max_hw))),
        draw(st.integers(1, 5)),
    )


def assert_forward_close(got, want, dtype):
    want = np.asarray(want, dtype=np.float64)
    assert got.dtype == dtype and got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= FWD_RTOL[dtype] * scale


def check_directional(loss, args, grads, dtype, rng, directions=2):
    """``loss(*args64)`` is the float64 scalar; ``grads[i]`` the analytic gradient of args[i]."""
    args64 = [np.asarray(a, dtype=np.float64) for a in args]
    for i, grad in enumerate(grads):
        if grad is None:
            continue
        assert grad.shape == args64[i].shape
        for _ in range(directions):
            v = rng.normal(size=grad.shape)
            up = [a + H * v if j == i else a for j, a in enumerate(args64)]
            down = [a - H * v if j == i else a for j, a in enumerate(args64)]
            numeric = (loss(*up) - loss(*down)) / (2 * H)
            terms = np.asarray(grad, dtype=np.float64) * v
            assert abs(terms.sum() - numeric) <= GRAD_RTOL[dtype] * np.abs(terms).sum() + 1e-9, (i, numeric)


def _draw_arrays(seed, dtype, *shapes):
    rng = np.random.default_rng(seed)
    return rng, [rng.normal(size=s).astype(dtype) for s in shapes]


@PROPERTY
@given(st.data(), KERNELS, DTYPES, SEEDS)
def test_depthwise_matches_reference_and_differences(data, k, dtype, seed):
    shape = data.draw(batches(min_h=k, min_w=k, max_hw=k + 4))
    n, h, w, c = shape
    rng, (x, wt, b, r) = _draw_arrays(seed, dtype, shape, (k, k, c), (c,), shape)
    y = kernels.depthwise_conv2d(x, wt, b)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, wt, b))
    assert_forward_close(y, np.stack([naive_depthwise_conv2d(x64[i], w64, b64) for i in range(n)]), dtype)

    def loss(x_, w_, b_):
        return float((kernels.depthwise_conv2d(x_, w_, b_) * r).sum())

    gx, gw, gb = kernels.depthwise_conv2d_backward(x, wt, r)
    assert gx.dtype == gw.dtype == dtype
    check_directional(loss, (x, wt, b), (gx, gw, gb), dtype, rng)


@PROPERTY
@given(st.data(), KERNELS, st.integers(1, 4), st.booleans(), DTYPES, SEEDS)
def test_conv2d_matches_reference_and_differences(data, k, cout, patch, dtype, seed):
    # the per-clip row GEMM, or for one tap of one channel one GEMM with K = 1;
    # the input gradient is the flipped-kernel correlation (same) or the row scatter
    # (valid, where a stride below k makes windows overlap)
    n, h, w, cin = data.draw(batches(min_h=k, min_w=k, max_hw=k + 4))
    stride, padding = (data.draw(st.integers(1, k)), "valid") if patch else (1, "same")
    rng, (x, wt, b) = _draw_arrays(seed, dtype, (n, h, w, cin), (k, k, cin, cout), (cout,))
    y = kernels.conv2d(x, wt, b, stride=stride, padding=padding)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, wt, b))
    want = np.stack([naive_conv2d(x64[i], w64, b64, stride=stride, padding=padding) for i in range(n)])
    assert_forward_close(y, want, dtype)
    r = rng.normal(size=y.shape).astype(dtype)

    def loss(x_, w_, b_):
        return float((kernels.conv2d(x_, w_, b_, stride=stride, padding=padding) * r).sum())

    gx, gw, gb = kernels.conv2d_backward(x, wt, r, stride=stride, padding=padding)
    assert gx.dtype == gw.dtype == gb.dtype == dtype
    check_directional(loss, (x, wt, b), (gx, gw, gb), dtype, rng)
    no_input = kernels.conv2d_backward(x, wt, r, stride=stride, padding=padding, with_input=False)
    assert no_input[0] is None
    assert no_input[1].tobytes() == gw.tobytes() and no_input[2].tobytes() == gb.tobytes()


@PROPERTY
@given(batches(), DTYPES, SEEDS)
def test_batch_norm_train_matches_reference_and_differences(shape, dtype, seed):
    c = shape[-1]
    rng, (x, r) = _draw_arrays(seed, dtype, shape, shape)
    x += dtype(3.0)  # an offset mean, which the centred buffer must remove
    gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    moving = (np.zeros(c, dtype), np.ones(c, dtype))
    y, cache, (mm, mv) = kernels.batch_norm(x, gamma, beta, *moving, eps=1e-3, momentum=0.9, train=True)
    want, mean, var = naive_batch_norm_train(x, gamma, beta, 1e-3)
    assert_forward_close(y, want, dtype)
    assert_forward_close(mm, 0.1 * mean, dtype)
    assert_forward_close(mv, 0.9 + 0.1 * var, dtype)

    def loss(x_, gamma_, beta_):
        out, _, _ = kernels.batch_norm(x_, gamma_, beta_, *moving, eps=1e-3, train=True)
        return float((out * r).sum())

    check_directional(loss, (x, gamma, beta), kernels.batch_norm_backward(cache, r), dtype, rng)


@PROPERTY
@given(st.data(), POOLS, DTYPES, SEEDS)
def test_max_pool_matches_reference_and_differences(data, pool, dtype, seed):
    shape = data.draw(batches(min_h=pool[0], min_w=pool[1], max_hw=9))
    rng = np.random.default_rng(seed)
    # distinct values at least 4/size apart, so no step of size H crosses a tie
    x = (rng.permutation(int(np.prod(shape))).reshape(shape) * (4.0 / np.prod(shape)) - 2.0).astype(dtype)
    y, cache = kernels.max_pool(x, pool)
    assert y.dtype == dtype
    assert y.tobytes() == np.stack([naive_max_pool(clip, pool) for clip in x]).tobytes()
    assert cache[2].dtype == np.uint8
    r = rng.normal(size=y.shape).astype(dtype)

    def loss(x_):
        return float((kernels.max_pool(x_, pool)[0] * r).sum())

    check_directional(loss, (x,), (kernels.max_pool_backward(cache, r),), dtype, rng)


@PROPERTY
@given(st.data(), POOLS, DTYPES, SEEDS)
def test_cache_free_max_pool_matches_reference(data, pool, dtype, seed):
    shape = data.draw(batches(min_h=pool[0], min_w=pool[1], max_hw=9))
    x = np.round(np.random.default_rng(seed).normal(size=shape) * 2).astype(dtype) + dtype(0.0)  # ties; no -0.0
    y, cache = kernels.max_pool(x, pool, keep_cache=False)
    assert cache is None and y.dtype == dtype
    assert y.tobytes() == np.stack([naive_max_pool(clip, pool) for clip in x]).tobytes()


@PROPERTY
@given(
    st.sampled_from(["conv_sep", "conv_mixer"]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1, 3]),
    st.integers(2, 5),
    st.integers(8, 12),
    SEEDS,
)
def test_backward_graph_skips_only_the_first_input_gradient(arch, batch, f1, f2, k, h, w, seed):
    model = zoo.init_weights(zoo.build(arch, f1, f2, kernel_size=k, input_shape=(h, w, 1)), seed)
    # the same graph behind an identity layer, so that its first conv's input gradient is read
    lead = zoo.LayerSpec("dropout", "lead", {"rate": 0.0})
    shifted = dataclasses.replace(model, layers=[lead, *model.layers])
    zoo.infer_shapes(shifted)
    x = np.random.default_rng(seed).normal(size=(batch, h, w, 1)).astype(np.float32)
    gx_none = []
    backward = kernels.conv2d_backward

    def spy(*args, **kwargs):
        grads = backward(*args, **kwargs)
        gx_none.append(grads[0] is None)
        return grads

    def layer_grads(graph):
        gx_none.clear()
        probs, _, caches = zoo.run_graph(graph, x, train=True, rng=np.random.default_rng(1), keep_caches=True)
        grad = np.random.default_rng(2).normal(size=probs.shape).astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "conv2d_backward", spy)
            grads, gx = zoo.backward_graph(graph, caches, grad)
        return grads, gx, list(gx_none)

    grads, gx, skipped = layer_grads(model)
    shifted_grads, _, shifted_skipped = layer_grads(shifted)
    convs = sum(layer.kind == "conv2d" for layer in model.layers)
    assert gx is None
    # backward runs last layer first: only the first layer's conv skips its input gradient
    assert skipped == [False] * (convs - 1) + [True] and shifted_skipped == [False] * convs
    assert sorted(shifted_grads) == [i + 1 for i in sorted(grads)]
    for i, weights in grads.items():
        for name, g in weights.items():
            assert g.tobytes() == shifted_grads[i + 1][name].tobytes(), (i, name)


def _random_norm_stats(model, rng):
    """Random affine norm parameters and moving statistics, so folding changes the weights."""
    for layer in model.layers:
        if layer.kind == "batch_norm":
            c = layer.weights["gamma"].shape[0]
            layer.weights["gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
            layer.weights["beta"] = rng.normal(0, 0.3, c).astype(np.float32)
            layer.weights["moving_mean"] = rng.normal(0, 0.3, c).astype(np.float32)
            layer.weights["moving_var"] = rng.uniform(0.1, 2.0, c).astype(np.float32)
    return model


@PROPERTY
@given(
    st.sampled_from(["random", "conv_sep", "conv_mixer"]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1, 3]),
    st.integers(2, 5),
    st.integers(8, 12),
    SEEDS,
)
def test_folded_per_clip_inference_matches_the_unfolded_batch(weight_bytes, source, batch, f1, f2, k, h, w, seed):
    rng = np.random.default_rng(seed)
    if source == "random":
        model = _random_small_graph(rng)
    else:
        model = zoo.build(source, f1, f2, kernel_size=k, input_shape=(h, w, 1))
    model = _random_norm_stats(zoo.init_weights(model, seed), rng)
    before = weight_bytes(model)
    x = rng.normal(size=(batch, *model.input_shape)).astype(np.float32)
    # each clip gets the bits forward_batch gives it alone; its row of one
    # batched call can differ, as BLAS may round a one-row product otherwise
    probs, logits = zoo.predictor(model)(x)
    for got, parts in zip((probs, logits), zip(*[zoo.forward_batch(model, clip[None]) for clip in x])):
        want = np.concatenate(parts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the fold tolerance of test_zoo: 1e-5 of the largest unfolded logit
    want_probs, want_logits, _ = zoo.run_graph(model, x)
    atol = 1e-5 * np.abs(want_logits).max()
    np.testing.assert_allclose(logits, want_logits, rtol=1e-5, atol=atol)
    np.testing.assert_allclose(probs, want_probs, rtol=1e-5, atol=atol)
    assert weight_bytes(model) == before


@PROPERTY
@given(batches(), DTYPES, SEEDS)
def test_gelu_matches_reference_and_differences(shape, dtype, seed):
    rng, (x, r) = _draw_arrays(seed, dtype, shape, shape)
    x *= dtype(3.0)
    y = kernels.gelu(x)
    want = tanh_gelu(x.astype(np.float64))
    # within 4 ulps of max(1, |x|), as the existing float32 accuracy test
    ulp = np.finfo(dtype).eps * np.maximum(1.0, np.abs(x.astype(np.float64)))
    assert y.dtype == dtype and np.all(np.abs(y - want) <= 4 * ulp)

    def loss(x_):
        return float((kernels.gelu(x_) * r).sum())

    check_directional(loss, (x,), (kernels.gelu_slope(x)[1] * r,), dtype, rng)


@PROPERTY
@given(batches(), DTYPES, SEEDS)
def test_elu_matches_reference_and_differences(shape, dtype, seed):
    rng, (x, r) = _draw_arrays(seed, dtype, shape, shape)
    x = np.where(np.abs(x) < 1e-3, dtype(0.5), x * dtype(2.0))  # keep steps of size H off the kink at 0
    y = kernels.elu(x)
    assert_forward_close(y, naive_elu(x.astype(np.float64)), dtype)

    def loss(x_):
        return float((kernels.elu(x_) * r).sum())

    # the backward takes ELU's output
    check_directional(loss, (x,), (kernels.elu_backward(y, r),), dtype, rng)


def test_max_index_fits_the_largest_pool():
    # a 16x16 window has 256 cells, the most a uint8 index holds; the last cell wins
    x = np.zeros((1, 16, 16, 1))
    x[0, 15, 15, 0] = 1.0
    y, cache = kernels.max_pool(x, (16, 16))
    assert cache[2].dtype == np.uint8 and cache[2].item() == 255
    gx = kernels.max_pool_backward(cache, np.full_like(y, 2.0))
    assert gx[0, 15, 15, 0] == 2.0 and gx.sum() == 2.0
    assert kernels.max_pool(np.zeros((1, 17, 16, 1)), (17, 16))[1][2].dtype == np.uint16


# The whole-array forms of the kernels that run one clip at a time: each
# element gets the same ufuncs in the same order, so the bits must be equal.
def _whole_gelu(x):
    t = x * x
    t *= x
    t *= kernels.GELU_COEF
    t += x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    t *= x
    return t


def _whole_gelu_backward(x, grad_y):
    c = math.sqrt(2.0 / math.pi)
    t = x * x
    t *= x
    t *= kernels.GELU_COEF
    t += x
    t *= c
    np.tanh(t, out=t)
    d_inner = x * x
    d_inner *= 3.0 * kernels.GELU_COEF
    d_inner += 1.0
    d_inner *= c
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


def _whole_elu(x):
    y = np.minimum(x, 0)
    np.expm1(y, out=y)
    return np.maximum(x, y, out=y)


def _whole_elu_backward(y, grad_y):
    factor = np.minimum(y, 0)
    factor += 1
    factor *= grad_y
    return factor


def _whole_max_pool(x, pool):
    (ph, pw), (n, h, w, c) = pool, x.shape
    hout, wout = h // ph, w // pw
    blocks = x[:, : hout * ph, : wout * pw, :].reshape(n, hout, ph, wout, pw, c)
    cells = [blocks[:, :, k // pw, :, k % pw, :] for k in range(ph * pw)]
    y = np.maximum(cells[0], cells[-1])
    for cell in cells[1:-1]:
        np.maximum(y, cell, out=y)
    before = np.not_equal(cells[0], y)
    idx = before.astype(np.min_scalar_type(ph * pw - 1))
    for cell in cells[1:-1]:
        before &= np.not_equal(cell, y)
        idx += before
    return y, idx


def _whole_max_pool_backward(x_shape, pool, idx, grad_y):
    (n, h, w, c), (ph, pw) = x_shape, pool
    hout, wout = h // ph, w // pw
    gx = np.zeros(x_shape, dtype=grad_y.dtype)
    cells = gx[:, : hout * ph, : wout * pw, :].reshape(n, hout, ph, wout, pw, c)
    for k in range(ph * pw):
        cell = cells[:, :, k // pw, :, k % pw, :]
        np.multiply(grad_y, idx == k, out=cell)
        cell += 0.0
    return gx


def _whole_batch_norm_train(x, gamma, beta, moving_mean, moving_var, eps, momentum):
    axes = tuple(range(x.ndim - 1))
    mean = x.mean(axis=axes)
    x_hat = np.subtract(x, mean)
    y = np.multiply(x_hat, x_hat)
    var = y.mean(axis=axes)
    new_mm = momentum * moving_mean + (1.0 - momentum) * mean
    new_mv = momentum * moving_var + (1.0 - momentum) * var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std
    np.multiply(gamma, x_hat, out=y)
    y += beta
    return y, mean, inv_std, new_mm, new_mv, x_hat


def _whole_batch_norm_backward(x_hat, inv_std, gamma, grad_y):
    axes = tuple(range(x_hat.ndim - 1))
    product = np.empty(x_hat.shape[1:], dtype=np.result_type(grad_y, x_hat))
    g_gamma = np.zeros(x_hat.shape[-1], dtype=product.dtype)
    for g, xh in zip(grad_y, x_hat):
        g_gamma += np.add.reduce(np.multiply(g, xh, out=product), axis=axes[:-1])
    g_beta = grad_y.sum(axis=axes)
    m = math.prod(x_hat.shape[:-1])
    gx = np.multiply(grad_y, m)
    gx -= g_beta
    gx -= x_hat * g_gamma
    gx *= gamma * inv_std / m
    return gx, g_gamma, g_beta


SPECIALS = {
    np.float32: [0.0, -0.0, 1e-40, -1.4e-45, np.inf, -np.inf, np.nan],
    np.float64: [0.0, -0.0, 5e-324, -2.2e-310, np.inf, -np.inf, np.nan],
}


@st.composite
def special_batches(draw, dtype, shape):
    """A normal (N, ...) array of ``dtype`` with up to six signed zeros,
    subnormals, infinities or NaNs drawn for each clip on its own, and
    integer values (ties) in some draws."""
    rng = np.random.default_rng(draw(SEEDS))
    x = (rng.normal(size=shape) * 3).astype(dtype)
    if draw(st.booleans()):
        x = np.round(x)
    for clip in x:
        flat = clip.reshape(-1)
        values = draw(st.lists(st.sampled_from(SPECIALS[dtype]), max_size=min(6, flat.size)))
        flat[rng.choice(flat.size, len(values), replace=False)] = values
    return x


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes, with every NaN written as one NaN: where two
    NaNs meet, the one numpy returns depends on where the element falls in its
    loop (SIMD lanes or the remainder; a cast or a broadcast runs another loop),
    so the sign and payload of a NaN may change with the clip size."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype.kind == "f":
        assert np.array_equal(np.isnan(got), np.isnan(want))
        got, want = (np.where(np.isnan(a), np.nan, a) for a in (got, want))
    assert got.tobytes() == want.tobytes()


def unchanged(*arrays):
    """A check that none of ``arrays`` was written to since this call."""
    before = [a.copy() for a in arrays]
    return lambda: all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))


CLIP_SHAPES = st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(3, 9), st.integers(1, 4))


@PROPERTY
@given(st.data(), CLIP_SHAPES, DTYPES, DTYPES)
def test_per_clip_activations_byte_equal_to_whole_array(data, shape, dtype, grad_dtype):
    x = data.draw(special_batches(dtype, shape))
    g = data.draw(special_batches(grad_dtype, shape))
    intact = unchanged(x, g)
    with np.errstate(all="ignore"):  # infinities and NaN on purpose
        # the backward output keeps its first argument's dtype
        assert_same_bits(kernels.gelu(x), _whole_gelu(x))
        if grad_dtype == dtype:  # a GELU's step multiplies its slope by a gradient of its own dtype
            assert_same_bits(kernels.gelu_slope(x)[1] * g, _whole_gelu_backward(x, g))
        y = kernels.elu(x)
        assert_same_bits(y, _whole_elu(x))
        assert_same_bits(kernels.elu_backward(y, g), _whole_elu_backward(y, g))
    assert intact()


@PROPERTY
@given(st.data(), CLIP_SHAPES, st.sampled_from([(1, 4), (2, 2), (2, 3)]), DTYPES)
def test_per_clip_max_pool_byte_equal_to_whole_array(data, shape, pool, dtype):
    n, h, w, c = shape
    shape = (n, max(h, pool[0]), max(w, pool[1]), c)
    x = data.draw(special_batches(dtype, shape))
    intact = unchanged(x)
    want_y, want_idx = _whole_max_pool(x, pool)
    fast, none = kernels.max_pool(x, pool, keep_cache=False)
    y, cache = kernels.max_pool(x, pool)
    assert none is None and cache[:2] == (x.shape, pool)
    for got, want in ((fast, want_y), (y, want_y), (cache[2], want_idx)):
        assert_same_bits(got, want)
    g = data.draw(special_batches(dtype, y.shape))
    intact_g = unchanged(g, cache[2])
    with np.errstate(all="ignore"):
        assert_same_bits(kernels.max_pool_backward(cache, g), _whole_max_pool_backward(x.shape, pool, want_idx, g))
    assert intact() and intact_g()


@PROPERTY
@given(
    st.data(),
    st.one_of(CLIP_SHAPES, st.tuples(st.integers(2, 9), st.integers(1, 4))),
    DTYPES,
    DTYPES,
    st.booleans(),
)
def test_per_clip_batch_norm_byte_equal_to_whole_array(data, shape, dtype, grad_dtype, specials):
    c = shape[-1]
    rng = np.random.default_rng(data.draw(SEEDS))
    if specials:  # one special value sets its channel's statistics to inf or NaN
        x = data.draw(special_batches(dtype, shape))
    else:
        x = (rng.normal(size=shape) * rng.uniform(0.5, 4.0, c) + 3.0).astype(dtype)
    gamma, beta = rng.uniform(0.5, 1.5, c).astype(dtype), rng.normal(size=c).astype(dtype)
    moving = (rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype))
    intact = unchanged(x, gamma, beta, *moving)
    with np.errstate(all="ignore"):
        y, cache, (mm, mv) = kernels.batch_norm(x, gamma, beta, *moving, eps=1e-3, momentum=0.9, train=True)
        *want, x_hat = _whole_batch_norm_train(x, gamma, beta, *moving, 1e-3, 0.9)
        # the cache is the input itself and its statistics
        assert cache[0] is x and cache[3:] == (gamma, beta, True, tuple(range(len(shape) - 1)))
        for got, ref in zip((y, cache[1], cache[2], mm, mv), want, strict=True):
            assert_same_bits(got, ref)
        # and the backward's x_hat, formed again from them, is the whole-array x_hat
        g = data.draw(special_batches(grad_dtype, shape))
        intact_grad = unchanged(g)
        # the input gradient keeps grad_y's dtype
        got = kernels.batch_norm_backward(cache, g)
        for got_part, ref in zip(got, _whole_batch_norm_backward(x_hat, want[2], gamma, g), strict=True):
            assert_same_bits(got_part, ref)
    assert intact() and intact_grad()


@PROPERTY
@given(st.data(), st.one_of(CLIP_SHAPES, st.tuples(st.integers(2, 9), st.integers(1, 4))), DTYPES, DTYPES)
def test_backward_out_byte_equal_to_allocating_call(data, shape, dtype, grad_dtype):
    # the zoo's backward steps write the input gradient into the layer's own cache
    c = shape[-1]
    rng = np.random.default_rng(data.draw(SEEDS))
    x = data.draw(special_batches(dtype, shape))
    g = data.draw(special_batches(grad_dtype, shape))
    gamma, beta = rng.uniform(0.5, 1.5, c).astype(dtype), rng.normal(size=c).astype(dtype)
    moving = (rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype))
    with np.errstate(all="ignore"):
        y = kernels.elu(x)
        want = kernels.elu_backward(y, g)
        y_copy = y.copy()
        assert kernels.elu_backward(y_copy, g, out=y_copy) is y_copy
        assert_same_bits(y_copy, want)
        for train in (True, False):
            _, cache, _ = kernels.batch_norm(x, gamma, beta, *moving, train=train)
            want = kernels.batch_norm_backward(cache, g)
            # the zoo's norm step passes its cached input as out
            own = cache[0].copy()
            if want[0].dtype != own.dtype:
                # an out of another dtype than the result is refused, not cast into
                with pytest.raises(ValueError, match="out is"):
                    kernels.batch_norm_backward((own, *cache[1:]), g, out=own)
                assert own.tobytes() == cache[0].tobytes()
                continue
            got = kernels.batch_norm_backward((own, *cache[1:]), g, out=own)
            assert got[0] is own
            for got_part, want_part in zip(got, want):
                assert_same_bits(got_part, want_part)
    other = np.float64 if y.dtype == np.float32 else np.float32
    for out in (y.astype(other), y[..., None]):
        with pytest.raises(ValueError, match="out is"):
            kernels.elu_backward(y, g, out=out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_activations_accept_0d_and_1d_arrays(dtype):
    x = np.array([-1.5, -0.0, 0.25, 2.0], dtype=dtype)
    g = np.array([0.5, -1.0, 2.0, -3.0], dtype=dtype)
    for kernel, whole, args in (
        (kernels.gelu, _whole_gelu, (x,)),
        (kernels.elu, _whole_elu, (x,)),
        (lambda x, g: kernels.gelu_slope(x)[1] * g, _whole_gelu_backward, (x, g)),
        (kernels.elu_backward, _whole_elu_backward, (x, g)),
    ):
        assert_same_bits(kernel(*args), whole(*args))
        # a 0-d array is one clip: the first entry of the 1-D result
        scalar = kernel(*(a[0].reshape(()) for a in args))
        assert scalar.shape == () and scalar.dtype == dtype
        assert np.asarray(scalar).tobytes() == kernel(*args)[:1].tobytes()
