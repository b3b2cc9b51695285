"""Analytic gradients vs central finite differences, in float64.

Every layer kind gets at least 3 random instances. The scalar loss is a
fixed random projection of the layer output, so the upstream gradient is
exactly that projection.
"""

import numpy as np
import pytest

from tinyasc import kernels, zoo
from tinyasc.errors import ShapeError

RTOL = 1e-6
ATOL = 1e-9
H = 1e-5
SEEDS = (0, 1, 2)


def fd_grad(f, x, h=H):
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check(analytic, numeric):
    np.testing.assert_allclose(analytic, numeric, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
class TestConvGradients:
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(2, 5, 5, 3))
        loss = lambda: float((kernels.conv2d(x, w, b) * r).sum())
        gx, gw, gb = kernels.conv2d_backward(x, w, r)
        check(gx, fd_grad(loss, x))
        check(gw, fd_grad(loss, w))
        check(gb, fd_grad(loss, b))

    def test_conv2d_strided_valid(self, seed):
        rng = np.random.default_rng(seed + 10)
        x = rng.normal(size=(1, 6, 6, 2))
        w = rng.normal(size=(2, 2, 2, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(1, 3, 3, 3))
        loss = lambda: float((kernels.conv2d(x, w, b, stride=2, padding="valid") * r).sum())
        gx, gw, gb = kernels.conv2d_backward(x, w, r, stride=2, padding="valid")
        check(gx, fd_grad(loss, x))
        check(gw, fd_grad(loss, w))
        check(gb, fd_grad(loss, b))

    def test_depthwise(self, seed):
        rng = np.random.default_rng(seed + 20)
        x = rng.normal(size=(2, 4, 5, 3))
        w = rng.normal(size=(3, 3, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(2, 4, 5, 3))
        loss = lambda: float((kernels.depthwise_conv2d(x, w, b) * r).sum())
        gx, gw, gb = kernels.depthwise_conv2d_backward(x, w, r)
        check(gx, fd_grad(loss, x))
        check(gw, fd_grad(loss, w))
        check(gb, fd_grad(loss, b))

    def test_pointwise(self, seed):
        rng = np.random.default_rng(seed + 30)
        x = rng.normal(size=(2, 4, 4, 3))
        w = rng.normal(size=(1, 1, 3, 5))
        b = rng.normal(size=5)
        r = rng.normal(size=(2, 4, 4, 5))
        loss = lambda: float((kernels.pointwise_conv2d(x, w, b) * r).sum())
        gx, gw, gb = kernels.pointwise_conv2d_backward(x, w, r)
        check(gx, fd_grad(loss, x))
        check(gw, fd_grad(loss, w))
        check(gb, fd_grad(loss, b))


@pytest.mark.parametrize("seed", SEEDS)
class TestDenseGradients:
    def test_dense(self, seed):
        rng = np.random.default_rng(seed + 40)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(4, 3))
        loss = lambda: float((kernels.dense(x, w, b) * r).sum())
        gx, gw, gb = kernels.dense_backward(x, w, r)
        check(gx, fd_grad(loss, x))
        check(gw, fd_grad(loss, w))
        check(gb, fd_grad(loss, b))


@pytest.mark.parametrize("seed", SEEDS)
class TestNormActivationGradients:
    def test_batch_norm_train(self, seed):
        rng = np.random.default_rng(seed + 50)
        x = rng.normal(size=(6, 3, 2, 2))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        r = rng.normal(size=(6, 3, 2, 2))

        def loss():
            y, _, _ = kernels.batch_norm(
                x, gamma, beta, np.zeros(2), np.ones(2), eps=1e-3, train=True
            )
            return float((y * r).sum())

        _, cache, _ = kernels.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), eps=1e-3, train=True)
        gx, g_gamma, g_beta = kernels.batch_norm_backward(cache, r)
        check(gx, fd_grad(loss, x))
        check(g_gamma, fd_grad(loss, gamma))
        check(g_beta, fd_grad(loss, beta))

    def test_batch_norm_infer(self, seed):
        rng = np.random.default_rng(seed + 55)
        x = rng.normal(size=(3, 2, 2, 2))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        mm = rng.normal(size=2)
        mv = rng.uniform(0.5, 2.0, size=2)
        r = rng.normal(size=x.shape)

        def loss():
            y, _, _ = kernels.batch_norm(x, gamma, beta, mm, mv, eps=1e-3, train=False)
            return float((y * r).sum())

        _, cache, _ = kernels.batch_norm(x, gamma, beta, mm, mv, eps=1e-3, train=False)
        gx, _, _ = kernels.batch_norm_backward(cache, r)
        check(gx, fd_grad(loss, x))

    def test_elu(self, seed):
        rng = np.random.default_rng(seed + 60)
        x = rng.normal(size=(4, 5)) * 2
        r = rng.normal(size=(4, 5))
        loss = lambda: float((kernels.elu(x) * r).sum())
        check(kernels.elu_backward(kernels.elu(x), r), fd_grad(loss, x))  # ELU's backward takes its output

    def test_gelu(self, seed):
        rng = np.random.default_rng(seed + 70)
        x = rng.normal(size=(4, 5)) * 2
        r = rng.normal(size=(4, 5))
        loss = lambda: float((kernels.gelu(x) * r).sum())
        check(kernels.gelu_slope(x)[1] * r, fd_grad(loss, x))

    def test_softmax(self, seed):
        rng = np.random.default_rng(seed + 80)
        x = rng.normal(size=(3, 7))
        r = rng.normal(size=(3, 7))

        def loss():
            return float((kernels.softmax(x) * r).sum())

        probs = kernels.softmax(x)
        check(kernels.softmax_backward(probs, r), fd_grad(loss, x))


@pytest.mark.parametrize("seed", SEEDS)
class TestPoolingGradients:
    def test_max_pool(self, seed):
        rng = np.random.default_rng(seed + 90)
        x = rng.normal(size=(2, 4, 8, 3))  # continuous values: ties have measure zero
        r = rng.normal(size=(2, 2, 2, 3))

        def loss():
            y, _ = kernels.max_pool(x, (2, 4))
            return float((y * r).sum())

        _, cache = kernels.max_pool(x, (2, 4))
        check(kernels.max_pool_backward(cache, r), fd_grad(loss, x))

    def test_global_avg_pool(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(2, 3, 4, 2))
        r = rng.normal(size=(2, 2))
        loss = lambda: float((kernels.global_avg_pool(x) * r).sum())
        check(kernels.global_avg_pool_backward(x.shape, r), fd_grad(loss, x))

    def test_global_avg_pool_sum_loss_gives_uniform_grad(self, seed):
        x = np.random.default_rng(seed).normal(size=(1, 4, 6, 2))
        g = kernels.global_avg_pool_backward(x.shape, np.ones((1, 2)))
        np.testing.assert_allclose(g, 1.0 / 24.0, rtol=1e-15)

    def test_dropout_fixed_mask(self, seed):
        rng = np.random.default_rng(seed + 110)
        x = rng.normal(size=(5, 6))
        rate = 0.3
        _, mask = kernels.dropout(x, rate, train=True, rng=np.random.default_rng(seed))
        r = rng.normal(size=(5, 6))
        loss = lambda: float((x * mask / (1 - rate) * r).sum())
        check(kernels.dropout_backward(mask, rate, r), fd_grad(loss, x))


class TestGraphBackward:
    def test_missing_cache_rejected(self):
        model = zoo.build_conv_sep(4, 4, 3, input_shape=(8, 8, 1))
        zoo.init_weights(model, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 1)).astype(np.float32)
        probs, _, caches = zoo.run_graph(model, x, train=False, keep_caches=True)
        with pytest.raises(ShapeError, match="cache"):
            zoo.backward_graph(model, None, np.ones_like(probs))

    def test_end_to_end_loss_gradient(self):
        # gradient of the batch cross-entropy through the whole graph
        model = zoo.build_conv_sep(2, 2, 3, input_shape=(6, 8, 1))
        zoo.init_weights(model, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 6, 8, 1))
        labels = np.array([1, 7])

        def loss():
            probs, _, _ = zoo.run_graph(model, x, train=False)
            p = probs[np.arange(2), labels]
            return float(-np.log(p).mean())

        probs, _, caches = zoo.run_graph(model, x, train=False, keep_caches=True)
        grad_p = np.zeros_like(probs)
        grad_p[np.arange(2), labels] = -1.0 / (2 * probs[np.arange(2), labels])
        grads, _ = zoo.backward_graph(model, caches, grad_p)

        conv1 = model.layers[0]
        analytic = grads[0]["w"]
        numeric = fd_grad(loss, conv1.weights["w"], h=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("patch_norm", [True, False])
    def test_train_mode_mixer_weights_behind_a_norm(self, patch_norm):
        # mix1_pw and mix2_pw (and mix1_dw behind patch_bn) rebuild their input from the
        # train-mode norm in front of them; beta is not zero, so it must be in the rebuild.
        # Every norm rebuilds its input from the GELU in front of it, and without the patch
        # norm mix1_dw rebuilds its input from patch_gelu; patch_gelu reruns the one-channel
        # patch_embed, whose bias is not zero either; patch_embed's gradient passes
        # through all of them
        model, x, r, loss = _train_mode_case("conv_mixer", 3, (4, 8, 1), patch_norm=patch_norm)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(7), keep_caches=True)
        assert sum(isinstance(cache, zoo.Rebuild) for cache in caches) == (9 if patch_norm else 8)
        grads, _ = zoo.backward_graph(model, caches, r)
        for i, layer in enumerate(model.layers):
            if layer.name in ("patch_embed", "mix1_dw", "mix1_pw", "mix2_pw") or layer.kind == "batch_norm":
                for name in zoo.TRAINABLE_WEIGHTS[layer.kind]:
                    check(grads[i][name], fd_grad(loss, layer.weights[name]))

    @pytest.mark.parametrize("arch, patch", [("conv_sep", 1), ("conv_mixer", 1), ("conv_mixer", 2)])
    def test_train_mode_one_channel_conv_and_the_norm_behind_it(self, arch, patch):
        # the first layer's output is rerun from the batch in backward: bn1a's input is
        # conv1's rerun output, patch_gelu's input is patch_embed's (a strided,
        # valid 2x2 conv at patch size 2); bias and beta are not zero. Checked: conv1 and
        # bn1a, or patch_embed and patch_bn
        model, x, r, loss = _train_mode_case(arch, 3, (4, 16, 1), patch_size=patch)
        probs, _, caches = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(7), keep_caches=True)
        assert isinstance(caches[1], zoo.Rebuild) and caches[1].source == 0
        grads, _ = zoo.backward_graph(model, caches, r)
        norm = next(i for i, layer in enumerate(model.layers) if layer.kind == "batch_norm")
        for i, layer in enumerate(model.layers):
            if i in (0, norm):
                for name in zoo.TRAINABLE_WEIGHTS[layer.kind]:
                    check(grads[i][name], fd_grad(loss, layer.weights[name]))


def _train_mode_case(arch, filters, input_shape, **build_args):
    """A float64 model with random biases, gammas and betas, a batch, a random
    projection r of its output and the train-mode loss sum(probs * r), which
    draws the same dropout masks on every call."""
    model = zoo.build(arch, filters, filters, input_shape=input_shape, **build_args)
    zoo.init_weights(model, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    for layer in model.layers:
        if layer.kind == "batch_norm":
            c = layer.weights["gamma"].shape[0]
            layer.weights["gamma"] = rng.uniform(0.5, 1.5, c)
            layer.weights["beta"] = rng.normal(0, 0.5, c)
        elif "b" in layer.weights:
            layer.weights["b"] = rng.normal(0, 0.5, layer.weights["b"].shape)
    x = rng.normal(size=(3, *input_shape))
    r = rng.normal(size=(3, 10))

    def loss():
        probs, _, _ = zoo.run_graph(model, x, train=True, rng=np.random.default_rng(7))
        return float((probs * r).sum())

    return model, x, r, loss
