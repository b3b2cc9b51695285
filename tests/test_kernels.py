"""Forward kernel tests against hand-enumerated and naive-loop oracles."""

import math

import numpy as np
import pytest

from tinyasc import kernels
from tinyasc.errors import ShapeError
from tinyasc.reference import exact_gelu, naive_conv2d, naive_dense, naive_depthwise_conv2d


def _rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestConv2d:
    def test_1x1_identity(self):
        x = _rand(1, 4, 5, 1, seed=1)
        w = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(kernels.conv2d(x, w, np.zeros(1)), x)

    def test_3x3_ones_receptive_field(self):
        # hand enumeration: center sees 9 ones, corners see 4
        x = np.ones((1, 3, 3, 1))
        w = np.ones((3, 3, 1, 1))
        y = kernels.conv2d(x, w)[0, :, :, 0]
        assert y[1, 1] == 9.0
        for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert y[i, j] == 4.0

    def test_linearity(self):
        x = _rand(2, 6, 5, 3, seed=2)
        w = _rand(3, 3, 3, 4, seed=3)
        lhs = kernels.conv2d(2.5 * x, w)
        rhs = 2.5 * kernels.conv2d(x, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_naive_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 8, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        fast = kernels.conv2d(x[None], w, b)[0]
        np.testing.assert_allclose(fast, naive_conv2d(x, w, b), rtol=1e-12, atol=1e-12)

    def test_strided_valid_matches_naive(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(9, 9, 2))
        w = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        fast = kernels.conv2d(x[None], w, b, stride=3, padding="valid")[0]
        np.testing.assert_allclose(fast, naive_conv2d(x, w, b, stride=3, padding="valid"), rtol=1e-12)

    @pytest.mark.parametrize(
        "k, stride, padding, shape",
        [(3, 1, "same", (2, 9, 7)), (3, 3, "valid", (1, 10, 11))],  # a 3x3 conv, a patch-3 embedding
    )
    def test_one_input_channel_matches_naive(self, k, stride, padding, shape):
        # one input channel runs as a single GEMM over the gathered taps
        rng = np.random.default_rng(14)
        x = rng.normal(size=(*shape, 1))
        w = rng.normal(size=(k, k, 1, 5))
        b = rng.normal(size=5)
        fast = kernels.conv2d(x, w, b, stride=stride, padding=padding)
        for n in range(shape[0]):
            want = naive_conv2d(x[n], w, b, stride=stride, padding=padding)
            np.testing.assert_allclose(fast[n], want, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError, match="channels"):
            kernels.conv2d(_rand(1, 4, 4, 2), _rand(3, 3, 3, 4))


class TestDepthwise:
    def test_1x1_identity(self):
        x = _rand(1, 5, 4, 3, seed=4)
        np.testing.assert_array_equal(kernels.depthwise_conv2d(x, np.ones((1, 1, 3))), x)

    def test_channel_independence(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 6, 6, 3))
        w = rng.normal(size=(3, 3, 3))
        base = kernels.depthwise_conv2d(x, w)
        bumped = x.copy()
        bumped[..., 1] += rng.normal(size=(6, 6))
        out = kernels.depthwise_conv2d(bumped, w)
        np.testing.assert_array_equal(out[..., 0], base[..., 0])
        np.testing.assert_array_equal(out[..., 2], base[..., 2])
        assert not np.array_equal(out[..., 1], base[..., 1])

    def test_equals_block_diagonal_conv2d(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 4, 2))
        w_dw = rng.normal(size=(3, 3, 2))
        # channel-masked full kernel: w[kh, kw, c, d] = w_dw[kh, kw, c] iff c == d
        w_full = np.zeros((3, 3, 2, 2))
        for c in range(2):
            w_full[:, :, c, c] = w_dw[:, :, c]
        np.testing.assert_allclose(
            kernels.depthwise_conv2d(x[None], w_dw)[0],
            kernels.conv2d(x[None], w_full)[0],
            rtol=1e-12,
        )

    def test_matches_naive(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5, 3))
        w = rng.normal(size=(3, 3, 3))
        b = rng.normal(size=3)
        np.testing.assert_allclose(
            kernels.depthwise_conv2d(x[None], w, b)[0],
            naive_depthwise_conv2d(x, w, b),
            rtol=1e-12,
            atol=1e-12,
        )


    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal_to_per_tap_broadcast(self, k, dtype):
        # the per-tap loop over (N, H, W, C) slices that the row form replaced
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 7, 9, 5)).astype(dtype)
        w = rng.normal(size=(k, k, 5)).astype(dtype)
        b = rng.normal(size=5).astype(dtype)
        p = k // 2
        xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
        want = np.zeros_like(x)
        for dh in range(k):
            for dw in range(k):
                want += xp[:, dh : dh + 7, dw : dw + 9, :] * w[dh, dw]
        assert kernels.depthwise_conv2d(x, w).tobytes() == want.tobytes()
        want += b
        got = kernels.depthwise_conv2d(x, w, b)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


class TestPointwise:
    def test_agrees_with_conv2d_k1(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 5, 5, 3))
        w = rng.normal(size=(1, 1, 3, 4))
        b = rng.normal(size=4)
        np.testing.assert_allclose(
            kernels.pointwise_conv2d(x, w, b), kernels.conv2d(x, w, b), rtol=1e-12
        )

    def test_identity_matrix_passthrough(self):
        x = _rand(1, 3, 3, 4, seed=9)
        w = np.eye(4)[None, None]
        np.testing.assert_array_equal(kernels.pointwise_conv2d(x, w, np.zeros(4)), x)

    def test_single_pixel_is_matvec(self):
        x = np.array([[[[1.0, 2.0, 3.0]]]])
        w = np.arange(6.0).reshape(1, 1, 3, 2)
        got = kernels.pointwise_conv2d(x, w)[0, 0, 0]
        # hand multiply: [1,2,3] @ [[0,1],[2,3],[4,5]]
        np.testing.assert_array_equal(got, np.array([1 * 0 + 2 * 2 + 3 * 4, 1 * 1 + 2 * 3 + 3 * 5]))


class TestSeparable:
    def test_parameter_count_enumeration(self):
        # 3x3 depthwise, 40 -> 40 pointwise with bias: 360 + 1600 + 40
        w_dw = np.zeros((3, 3, 40))
        w_pw = np.zeros((1, 1, 40, 40))
        b = np.zeros(40)
        assert w_dw.size + w_pw.size + b.size == 2000


class TestBatchNorm:
    def test_identity_params_near_identity(self):
        x = _rand(4, 3, 3, 2, seed=14)
        ones, zeros = np.ones(2), np.zeros(2)
        y, _, _ = kernels.batch_norm(x, ones, zeros, zeros, ones, eps=1e-12, train=False)
        np.testing.assert_allclose(y, x, rtol=1e-9)

    def test_train_mode_statistics(self):
        rng = np.random.default_rng(15)
        x = rng.normal(2.0, 3.0, size=(1024, 1, 1, 4))
        gamma = np.array([1.0, 2.0, 0.5, 1.5])
        beta = np.array([0.0, 1.0, -1.0, 0.3])
        y, _, _ = kernels.batch_norm(x, gamma, beta, np.zeros(4), np.ones(4), eps=1e-14, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), beta, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=(0, 1, 2)), gamma**2, rtol=1e-6)

    def test_constant_channel_maps_to_beta(self):
        x = np.full((8, 2, 2, 3), 7.0)
        beta = np.array([0.5, -0.25, 2.0])
        y, _, _ = kernels.batch_norm(x, np.ones(3), beta, np.zeros(3), np.ones(3), train=True)
        np.testing.assert_allclose(y, np.broadcast_to(beta, y.shape), atol=1e-12)

    def test_negative_moving_var_rejected(self):
        x = _rand(2, 2, 2, 2, seed=16)
        with pytest.raises(ValueError, match="variance"):
            kernels.batch_norm(x, np.ones(2), np.zeros(2), np.zeros(2), np.array([-1.0, 1.0]))

    def test_moving_stats_updated_with_momentum(self):
        x = np.full((10, 1, 1, 1), 4.0)
        _, _, (mm, mv) = kernels.batch_norm(
            x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), momentum=0.9, train=True
        )
        np.testing.assert_allclose(mm, [0.4])  # 0.9*0 + 0.1*4
        np.testing.assert_allclose(mv, [0.9])  # 0.9*1 + 0.1*0


class TestActivations:
    def test_zero_fixed_points(self):
        assert kernels.elu(np.array([0.0]))[0] == 0.0
        assert kernels.gelu(np.array([0.0]))[0] == 0.0

    def test_elu_asymptote(self):
        v = kernels.elu(np.array([-20.0]))[0]
        assert -1.0 < v < -0.999

    def test_elu_positive_passthrough(self):
        x = np.array([0.5, 3.0, 100.0])
        np.testing.assert_array_equal(kernels.elu(x), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_byte_equal_to_where_form(self, dtype):
        # the np.where forms that the min/max forms replaced
        rng = np.random.default_rng(21)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-40, -1e-40, 1e-310, -1e-310, -1e-8, 88.0]
        x = np.concatenate([rng.normal(0.0, 4.0, 20000), rng.uniform(-100, 100, 20000), special]).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        want_y = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
        want_gx = g * np.where(x > 0, np.ones_like(x), np.exp(np.minimum(x, 0.0)))
        y, gx = kernels.elu(x), kernels.elu_backward(x, g)
        assert y.dtype == gx.dtype == dtype
        assert y.tobytes() == want_y.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    def test_gelu_at_three(self):
        # evaluate the tanh approximation independently
        u = math.sqrt(2 / math.pi) * (3.0 + 0.044715 * 27.0)
        expected = 0.5 * 3.0 * (1.0 + math.tanh(u))
        got = kernels.gelu(np.array([3.0]))[0]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert abs(got - 2.9964) < 5e-4

    def test_gelu_exact_close_to_approx(self):
        x = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(kernels.gelu(x), exact_gelu(x), atol=2e-3)

    def test_gelu_float32_within_ulps_of_float64(self):
        # the tanh formula and its derivative written out in float64; the
        # float32 kernels must stay within 4 float32 ulps of max(1, |x|) * max(1, |g|)
        rng = np.random.default_rng(20)
        x = (rng.normal(size=4096) * 3.0).astype(np.float32)
        g = rng.normal(size=4096).astype(np.float32)
        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        c = math.sqrt(2 / math.pi)
        t = np.tanh(c * (x64 + 0.044715 * x64**3))
        want_y = 0.5 * x64 * (1.0 + t)
        want_gx = g64 * (0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x64**2))
        y, gx = kernels.gelu(x), kernels.gelu_backward(x, g)
        assert y.dtype == gx.dtype == np.float32
        ulp = np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x64))
        assert np.all(np.abs(y - want_y) <= 4 * ulp)
        assert np.all(np.abs(gx - want_gx) <= 4 * ulp * np.maximum(1.0, np.abs(g64)))


class TestPooling:
    def test_pool_1x4_shape(self):
        x = _rand(1, 64, 51, 3, seed=17)
        y, _ = kernels.max_pool(x, (1, 4))
        assert y.shape == (1, 64, 12, 3)

    def test_pool_1x1_identity(self):
        x = _rand(1, 5, 7, 2, seed=18)
        y, _ = kernels.max_pool(x, (1, 1))
        np.testing.assert_array_equal(y, x)

    def test_constant_input(self):
        x = np.full((1, 4, 8, 2), 3.25)
        y, _ = kernels.max_pool(x, (2, 2))
        np.testing.assert_array_equal(y, np.full((1, 2, 4, 2), 3.25))

    def test_remainder_columns_dropped(self):
        x = np.zeros((1, 2, 7, 1))
        x[0, :, 6, 0] = 100.0  # lives in the dropped remainder
        y, _ = kernels.max_pool(x, (1, 2))
        assert y.shape == (1, 2, 3, 1)
        assert y.max() == 0.0

    def test_tie_break_routes_to_first_index(self):
        x = np.full((1, 1, 4, 1), 2.0)
        y, cache = kernels.max_pool(x, (1, 4))
        gx = kernels.max_pool_backward(cache, np.ones_like(y))
        np.testing.assert_array_equal(gx[0, 0, :, 0], [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", [(1, 4), (1, 2), (2, 2)])
    def test_cache_free_path_equals_argmax_path(self, pool, dtype):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 7, 11, 3)).astype(dtype)  # odd extents leave remainders
        x[0] = np.round(x[0]) + 0.0  # few distinct values: ties inside windows; no -0.0
        fast, cache = kernels.max_pool(x, pool, keep_cache=False)
        ref, _ = kernels.max_pool(x, pool)
        assert cache is None
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()

    def test_cache_free_path_signed_zero_tie(self):
        # a window whose maximum ties -0.0 with +0.0: either zero may come
        # back from the cache-free path, but the values compare equal
        x = np.array([-0.0, 0.0, -1.0, -2.0, 0.0, -0.0, -3.0, -1.0], dtype=np.float32).reshape(1, 1, 8, 1)
        fast, _ = kernels.max_pool(x, (1, 4), keep_cache=False)
        ref, _ = kernels.max_pool(x, (1, 4))
        assert np.array_equal(fast, ref)
        np.testing.assert_array_equal(fast.ravel(), [0.0, 0.0])

    def test_global_avg_pool_constant(self):
        x = np.full((2, 3, 4, 5), 1.5)
        np.testing.assert_array_equal(kernels.global_avg_pool(x), np.full((2, 5), 1.5))

    def test_global_avg_pool_arithmetic(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1)
        assert kernels.global_avg_pool(x)[0, 0] == 2.5

    def test_global_avg_pool_permutation_invariant(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(1, 4, 5, 3))
        perm = rng.permutation(20)
        shuffled = x.reshape(1, 20, 3)[:, perm, :].reshape(1, 4, 5, 3)
        np.testing.assert_allclose(
            kernels.global_avg_pool(x), kernels.global_avg_pool(shuffled), rtol=1e-12
        )


class TestDenseSoftmax:
    def test_uniform_softmax(self):
        p = kernels.softmax(np.zeros((1, 10)))
        np.testing.assert_allclose(p, 0.1, atol=1e-15)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(20)
        logits = rng.uniform(-50, 50, size=(100, 10))
        p = kernels.softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_dense_identity(self):
        x = _rand(3, 4, seed=21)
        np.testing.assert_allclose(kernels.dense(x, np.eye(4), np.zeros(4)), x, rtol=1e-15)

    def test_dense_matches_naive(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=5)
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        np.testing.assert_allclose(kernels.dense(x[None], w, b)[0], naive_dense(x, w, b), rtol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(50, 10))
        base = kernels.softmax(logits).argmax(axis=1)
        shifted = kernels.softmax(logits + 123.456).argmax(axis=1)
        np.testing.assert_array_equal(base, shifted)


class TestDropout:
    def test_infer_mode_exact_identity(self):
        x = _rand(2, 3, 3, 2, seed=24)
        y, mask = kernels.dropout(x, 0.3, train=False)
        assert mask is None
        assert y is x

    def test_rate_zero_identity(self):
        x = _rand(2, 3, 3, 2, seed=25)
        y, _ = kernels.dropout(x, 0.0, train=True, rng=np.random.default_rng(0))
        assert y is x

    def test_empirical_zero_fraction(self):
        rng = np.random.default_rng(42)
        x = np.ones(1_000_000)
        y, _ = kernels.dropout(x, 0.3, train=True, rng=rng)
        zero_frac = float((y == 0).mean())
        assert abs(zero_frac - 0.3) < 0.005

    def test_survivors_scaled(self):
        rng = np.random.default_rng(43)
        x = np.ones(1000)
        y, _ = kernels.dropout(x, 0.25, train=True, rng=rng)
        survivors = y[y != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-12)
