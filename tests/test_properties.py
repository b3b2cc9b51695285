"""Property tests of the training kernels on drawn shapes and dtypes.

Each forward kernel is compared with its loop oracle in ``tinyasc.reference``
and each backward with float64 central differences along random directions:
for every argument a, <grad_a, v> must match (L(a + hv) - L(a - hv)) / 2h,
where L is a fixed random projection of the kernel's output. Inference on
drawn graphs is compared with the unfolded graph run as one batch. Draws are
derandomized, so every run sees the same examples.
"""

import dataclasses

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
POOLS = st.sampled_from([(1, 4), (1, 2), (2, 2)])
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
    # the input gradient is the flipped-kernel correlation (same) or the row scatter (patch)
    n, h, w, cin = data.draw(batches(min_h=k, min_w=k, max_hw=k + 4))
    stride, padding = (k, "valid") if patch else (1, "same")
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
def test_folded_per_clip_inference_matches_the_unfolded_batch(source, batch, f1, f2, k, h, w, seed):
    rng = np.random.default_rng(seed)
    if source == "random":
        model = _random_small_graph(rng)
    else:
        model = zoo.build(source, f1, f2, kernel_size=k, input_shape=(h, w, 1))
    model = _random_norm_stats(zoo.init_weights(model, seed), rng)
    before = zoo.weights_fingerprint(model)
    x = rng.normal(size=(batch, *model.input_shape)).astype(np.float32)
    probs, logits = zoo.forward_batch(model, x)
    for got, want in zip(zoo.forward_chunked(model, x), (probs, logits)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the fold tolerance of test_zoo: 1e-5 of the largest unfolded logit
    want_probs, want_logits, _ = zoo.run_graph(model, x)
    atol = 1e-5 * np.abs(want_logits).max()
    np.testing.assert_allclose(logits, want_logits, rtol=1e-5, atol=atol)
    np.testing.assert_allclose(probs, want_probs, rtol=1e-5, atol=atol)
    assert zoo.weights_fingerprint(model) == before


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

    check_directional(loss, (x,), (kernels.gelu_backward(x, r),), dtype, rng)


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
