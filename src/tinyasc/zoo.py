"""Model graphs for the two competing architectures.

Both networks share one skeleton, written once in ``build``: a stem, two
convolutional modules each followed by time-axis max pooling and dropout,
then global average pooling and a 10-way dense classifier with softmax.
An architecture is one ``ARCHS`` entry, which returns its stem and modules.

* ``conv_sep``: no stem; each module is a full convolution and a separable
  convolution (depthwise + pointwise, bias on the pointwise stage only),
  each followed by batch norm and ELU.
* ``conv_mixer``: a 1x1 patch embedding (GELU + batch norm) feeds two
  mixer modules; each module adds a residual skip around its depthwise
  convolution, then applies GELU + batch norm, a pointwise convolution,
  and GELU + batch norm again.

Pool tuples are (frequency, time): (1, 4) downsamples the 51-frame time
axis to 12. A graph is an ordered list of LayerSpec nodes; the same
representation drives inference, training, auditing, and quantization.
"""

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import GraphBuildError, ShapeError
from .frontend import Spectrogram

BN_EPS = 1e-3
BN_MOMENTUM = 0.99
DROPOUT_RATE = 0.3
# Clips per run_graph call in whole-dataset inference (evaluate, epoch-end
# metrics). Per-clip cost grows with the batch once a layer's activations
# outgrow the CPU cache; one clip was fastest for both 48-48 models, see README.
INFER_CHUNK = 1


@dataclass
class LayerSpec:
    """One graph node: kind, hyperparameters, and named weight tensors."""

    kind: str
    name: str
    config: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    output_shape: tuple = None

    def weight_names(self):
        order = getattr(OPS.get(self.kind), "weights", ())
        return tuple(n for n in order if n in self.weights)


@dataclass
class ModelGraph:
    """Ordered layer list plus the hyperparameters that determine it."""

    layers: list
    arch_tag: str
    filters: tuple
    kernel_size: int
    patch_size: int = 1
    input_shape: tuple = (64, 51, 1)
    n_classes: int = 10
    use_bias: bool = True
    patch_norm: bool = True
    dtype: object = np.float32


@dataclass
class Prediction:
    """Classifier output: probabilities, their argmax, and the raw logits."""

    probabilities: np.ndarray
    top_class: int
    logits: np.ndarray


def _kernel(shape, use_bias, dtype):
    """A zero kernel and, with ``use_bias``, a zero bias over its last axis."""
    weights = {"w": np.zeros(shape, dtype=dtype)}
    if use_bias:
        weights["b"] = np.zeros(shape[-1], dtype=dtype)
    return weights


def _conv(name, kernel, cin, cout, use_bias, stride=1, padding="same", dtype=np.float32):
    weights = _kernel((kernel, kernel, cin, cout), use_bias, dtype)
    return LayerSpec("conv2d", name, {"stride": stride, "padding": padding}, weights)


def _depthwise(name, kernel, channels, use_bias, dtype=np.float32):
    return LayerSpec("depthwise_conv2d", name, {}, _kernel((kernel, kernel, channels), use_bias, dtype))


def _pointwise(name, cin, cout, use_bias, dtype=np.float32):
    return LayerSpec("pointwise_conv2d", name, {}, _kernel((1, 1, cin, cout), use_bias, dtype))


def _batch_norm(name, channels, dtype=np.float32):
    weights = {
        "gamma": np.ones(channels, dtype=dtype),
        "beta": np.zeros(channels, dtype=dtype),
        "moving_mean": np.zeros(channels, dtype=dtype),
        "moving_var": np.ones(channels, dtype=dtype),
    }
    return LayerSpec("batch_norm", name, {"eps": BN_EPS, "momentum": BN_MOMENTUM}, weights)


def _dense(name, n_in, n_out, dtype=np.float32):
    return LayerSpec("dense", name, {}, _kernel((n_in, n_out), True, dtype))


def _simple(kind, name, **cfg):
    return LayerSpec(kind, name, cfg)


def _conv_sep(cin, f1, f2, kernel_size, patch_size, use_bias, patch_norm):
    """No stem; each module is a full convolution and a separable convolution
    with the same filter count, the depthwise stage never biased (its bias
    lives on the pointwise stage)."""
    if patch_size != 1 or not patch_norm:
        raise GraphBuildError(
            f"conv_sep has no patch embedding: patch size must be 1 and patch norm on, "
            f"got {patch_size} and {'on' if patch_norm else 'off'}"
        )
    modules = [
        [
            _conv(f"conv{m}", kernel_size, c, f, use_bias),
            _batch_norm(f"bn{m}a", f),
            _simple("elu", f"elu{m}a"),
            _depthwise(f"sep{m}_dw", kernel_size, f, use_bias=False),
            _pointwise(f"sep{m}_pw", f, f, use_bias),
            _batch_norm(f"bn{m}b", f),
            _simple("elu", f"elu{m}b"),
        ]
        for m, (c, f) in ((1, (cin, f1)), (2, (f1, f2)))
    ]
    return [], modules


def _conv_mixer(cin, f1, f2, kernel_size, patch_size, use_bias, patch_norm):
    """A patch embedding stem, then two modules computing BN(GELU(depthwise(x) + x))
    and a pointwise stage; the second pointwise convolution carries the channel
    change from f1 to f2, and patch size 1 leaves the spatial extent untouched."""
    stem = [
        _conv("patch_embed", patch_size, cin, f1, use_bias, stride=patch_size, padding="valid"),
        _simple("gelu", "patch_gelu"),
    ]
    if patch_norm:
        stem.append(_batch_norm("patch_bn", f1))
    modules = [
        [
            _simple("residual_add_begin", f"mix{m}_skip"),
            _depthwise(f"mix{m}_dw", kernel_size, f1, use_bias),
            _simple("residual_add_end", f"mix{m}_add"),
            _simple("gelu", f"mix{m}_gelu_a"),
            _batch_norm(f"mix{m}_bn_a", f1),
            _pointwise(f"mix{m}_pw", f1, f, use_bias),
            _simple("gelu", f"mix{m}_gelu_b"),
            _batch_norm(f"mix{m}_bn_b", f),
        ]
        for m, f in ((1, f1), (2, f2))
    ]
    return stem, modules


# Each architecture's stem and two modules, as
# ``layers(cin, f1, f2, kernel_size, patch_size, use_bias, patch_norm) -> (stem, modules)``.
# A tag's position is its architecture id in checkpoint headers.
ARCHS = {"conv_sep": _conv_sep, "conv_mixer": _conv_mixer}


def build(
    arch_tag,
    f1,
    f2,
    kernel_size=3,
    patch_size=1,
    input_shape=(64, 51, 1),
    n_classes=10,
    use_bias=True,
    patch_norm=True,
):
    """The shared skeleton around ``ARCHS[arch_tag]``: its stem, then each module
    followed by time-axis max pooling and dropout, then global average pooling,
    the dense classifier and softmax. Shapes are inferred before it returns."""
    if arch_tag not in ARCHS:
        raise GraphBuildError(f"unknown architecture {arch_tag!r}, expected one of {tuple(ARCHS)}")
    if f1 < 1 or f2 < 1:
        raise GraphBuildError(f"filter counts must be >= 1, got ({f1}, {f2})")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise GraphBuildError(f"kernel size must be odd and >= 1, got {kernel_size}")
    if patch_size < 1:
        raise GraphBuildError(f"patch size must be >= 1, got {patch_size}")
    layers, modules = ARCHS[arch_tag](input_shape[2], f1, f2, kernel_size, patch_size, use_bias, patch_norm)
    for m, (module, pool) in enumerate(zip(modules, ((1, 4), (1, 2))), start=1):
        layers += module
        layers += [_simple("max_pool", f"pool{m}", pool=pool), _simple("dropout", f"drop{m}", rate=DROPOUT_RATE)]
    layers += [
        _simple("global_avg_pool", "gap"),
        _dense("classifier", f2, n_classes),
        _simple("softmax", "softmax"),
    ]
    model = ModelGraph(
        layers=layers,
        arch_tag=arch_tag,
        filters=(f1, f2),
        kernel_size=kernel_size,
        patch_size=patch_size,
        input_shape=tuple(input_shape),
        n_classes=n_classes,
        use_bias=use_bias,
        patch_norm=patch_norm,
    )
    infer_shapes(model)
    return model


def build_conv_sep(f1, f2, kernel_size=3, input_shape=(64, 51, 1), n_classes=10, use_bias=True):
    """``build("conv_sep", ...)``, which takes no patch settings."""
    return build("conv_sep", f1, f2, kernel_size, 1, input_shape, n_classes, use_bias)


def build_conv_mixer(*args, **kwargs):
    """``build("conv_mixer", ...)``: the same arguments as ``build`` after the tag."""
    return build("conv_mixer", *args, **kwargs)


# --- layer kinds -----------------------------------------------------------
#
# Everything the engine knows about a layer kind is its OPS entry. Steps look
# kernels up as ``kernels.<name>`` when they run, so that a wrapper installed
# on the kernels module (a tracer, a test counter) sees every call.


@dataclass
class Run:
    """State of one walk: the mode, the dropout rng, the open residual skips
    and whether backward caches are kept."""

    train: bool = False
    rng: object = None
    skips: list = field(default_factory=list)
    keep_caches: bool = False


def _fail(where, problem):
    raise GraphBuildError(f"{where}: {problem}")


def _kernel_backward(layer, cache, g, run):
    return getattr(kernels, f"{layer.kind}_backward")(cache, g), None


@dataclass
class Op:
    """One layer kind.

    forward(layer, x, run) -> (output, cache for backward)
    backward(layer, cache, grad, run) -> (input grad, {weight: grad} or None)
    shape(layer, shape, skips, where) -> output shape, or GraphBuildError
    linear(layer, x, w, b) -> conv or dense output; INT8 runs it on codes
    fans(*w.shape) -> Glorot (fan_in, fan_out)
    params(layer, convention), macs(layer, convention) -> analytic counts
    """

    forward: object
    backward: object = _kernel_backward  # kernels.<kind>_backward(cache, grad)
    shape: object = lambda layer, shape, skips, where: shape
    weights: tuple = ()  # storage order: init, Adam state, serialization
    trainable: tuple = ()
    linear: object = None
    fans: object = None
    params: object = lambda layer, convention: 0
    macs: object = lambda layer, convention: 0
    folds_norm: bool = False  # a batch norm right behind it folds into its kernel
    logits: bool = False  # its output is the classifier's logits
    needs_cache: bool = True


def _conv_shape(layer, shape, skips, where):
    """Kernels are (kh, kw, cin, cout), or (kh, kw, c) for depthwise."""
    kernel = layer.weights["w"].shape
    cin, cout = kernel[2], kernel[-1]
    if cin != shape[2]:
        _fail(where, f"expects {cin} channels, gets {shape[2]}")
    if layer.config.get("padding", "same") == "same":
        return (shape[0], shape[1], cout)
    stride = layer.config.get("stride", 1)
    h, w = (shape[0] - kernel[0]) // stride + 1, (shape[1] - kernel[1]) // stride + 1
    if h < 1 or w < 1:
        _fail(where, f"kernel exceeds input {shape[:2]}")
    return (h, w, cout)


def _dense_shape(layer, shape, skips, where):
    n_in, n_out = layer.weights["w"].shape
    return (n_out,) if shape == (n_in,) else _fail(where, f"expects ({n_in},), gets {shape}")


def _norm_shape(layer, shape, skips, where):
    c = layer.weights["gamma"].shape
    return shape if c == (shape[-1],) else _fail(where, f"{c[0]} channels, gets {shape[-1]}")


def _pool_shape(layer, shape, skips, where):
    ph, pw = layer.config["pool"]
    h, w = shape[0] // ph, shape[1] // pw
    if h < 1 or w < 1:
        _fail(where, f"pool ({ph},{pw}) exceeds input {shape[:2]}")
    return (h, w, shape[2])


def _gap_shape(layer, shape, skips, where):
    return (shape[2],) if len(shape) == 3 else _fail(where, f"needs a spatial input, gets {shape}")


def _skip_shape(layer, shape, skips, where):
    skips.append(shape)
    return shape


def _add_shape(layer, shape, skips, where):
    skip = skips.pop() if skips else _fail(where, "no matching residual_add_begin")
    return shape if skip == shape else _fail(where, f"skip shape {skip} != main path {shape}")


def _conv_args(layer):
    return {"stride": layer.config.get("stride", 1), "padding": layer.config.get("padding", "same")}


def _linear_op(linear, backward, fans, shape=_conv_shape, **flags):
    """A conv or dense kind: ``linear(layer, x, w, b)`` is its kernel and
    ``backward(layer, x, w, grad, with_bias)`` returns (gx, gw, gb)."""

    def forward(layer, x, run):
        return linear(layer, x, layer.weights["w"], layer.weights.get("b")), x

    def grads(layer, x, g, run):
        gx, gw, gb = backward(layer, x, layer.weights["w"], g, "b" in layer.weights)
        return gx, ({"w": gw} if gb is None else {"w": gw, "b": gb})

    def params(layer, convention):
        kernel = layer.weights["w"].shape
        return int(np.prod(kernel)) + (kernel[-1] if "b" in layer.weights else 0)

    def macs(layer, convention):
        # each output entry takes one multiply per kernel entry of its channel
        cells = int(np.prod(layer.output_shape))
        bias = cells if convention.count_bias_macs and "b" in layer.weights else 0
        return int(np.prod(layer.weights["w"].shape[:-1])) * cells + bias

    return Op(
        forward, grads, shape, weights=("w", "b"), trainable=("w", "b"),
        linear=linear, fans=fans, params=params, macs=macs, **flags,
    )


def _norm_forward(layer, x, run):
    w, cfg = layer.weights, layer.config
    y, cache, (mm, mv) = kernels.batch_norm(
        x, *(w[n] for n in layer.weight_names()), eps=cfg["eps"], momentum=cfg["momentum"], train=run.train
    )
    if run.train:
        w["moving_mean"], w["moving_var"] = mm.astype(y.dtype), mv.astype(y.dtype)
    return y, cache


def _norm_backward(layer, cache, g, run):
    g, g_gamma, g_beta = kernels.batch_norm_backward(cache, g)
    return g, {"gamma": g_gamma, "beta": g_beta}


def _softmax_forward(layer, x, run):
    probs = kernels.softmax(x)
    return probs, probs


def _push_skip(layer, x, run):
    run.skips.append(x)
    return x, None


def _add_skip(layer, x, run):
    return x + run.skips.pop(), None


OPS = {
    "conv2d": _linear_op(
        lambda layer, x, w, b: kernels.conv2d(x, w, b, **_conv_args(layer)),
        lambda layer, x, w, g, bias: kernels.conv2d_backward(x, w, g, with_bias=bias, **_conv_args(layer)),
        fans=lambda kh, kw, cin, cout: (kh * kw * cin, kh * kw * cout),
        folds_norm=True,
    ),
    "depthwise_conv2d": _linear_op(
        lambda layer, x, w, b: kernels.depthwise_conv2d(x, w, b),
        lambda layer, x, w, g, bias: kernels.depthwise_conv2d_backward(x, w, g, with_bias=bias),
        fans=lambda kh, kw, c: (kh * kw * c, kh * kw),
        folds_norm=True,
    ),
    "pointwise_conv2d": _linear_op(
        lambda layer, x, w, b: kernels.pointwise_conv2d(x, w, b),
        lambda layer, x, w, g, bias: kernels.pointwise_conv2d_backward(x, w, g, with_bias=bias),
        fans=lambda kh, kw, cin, cout: (cin, cout),
        folds_norm=True,
    ),
    "dense": _linear_op(
        lambda layer, x, w, b: kernels.dense(x, w, b),
        lambda layer, x, w, g, bias: kernels.dense_backward(x, w, g),
        fans=lambda n, m: (n, m),
        shape=_dense_shape,
        logits=True,
    ),
    "batch_norm": Op(
        _norm_forward,
        _norm_backward,
        _norm_shape,
        weights=("gamma", "beta", "moving_mean", "moving_var"),
        trainable=("gamma", "beta"),
        params=lambda layer, convention: convention.bn_params_per_channel * layer.weights["gamma"].shape[0],
        macs=lambda layer, convention: (
            2 * int(np.prod(layer.output_shape)) if convention.count_bn_macs else 0
        ),
    ),
    "elu": Op(lambda layer, x, run: (kernels.elu(x), x)),
    "gelu": Op(lambda layer, x, run: (kernels.gelu(x), x)),
    "max_pool": Op(
        lambda layer, x, run: kernels.max_pool(x, layer.config["pool"], keep_cache=run.keep_caches),
        shape=_pool_shape,
    ),
    "global_avg_pool": Op(lambda layer, x, run: (kernels.global_avg_pool(x), x.shape), shape=_gap_shape),
    "dropout": Op(
        lambda layer, x, run: kernels.dropout(x, layer.config["rate"], train=run.train, rng=run.rng),
        lambda layer, mask, g, run: (kernels.dropout_backward(mask, layer.config["rate"], g), None),
        needs_cache=False,
    ),
    "softmax": Op(_softmax_forward),
    # backward, a skip's gradient waits at the add and joins where the skip began
    "residual_add_begin": Op(
        _push_skip, lambda layer, _, g, run: _add_skip(layer, g, run), _skip_shape, needs_cache=False
    ),
    "residual_add_end": Op(
        _add_skip, lambda layer, _, g, run: _push_skip(layer, g, run), _add_shape, needs_cache=False
    ),
}
TRAINABLE_WEIGHTS = {kind: op.trainable for kind, op in OPS.items() if op.trainable}


def layer_op(layer, idx):
    """The OPS entry of ``layer``; an unknown kind raises GraphBuildError naming the layer."""
    if layer.kind not in OPS:
        _fail(f"layer {idx} ({layer.name}, {layer.kind})", "unknown layer kind")
    return OPS[layer.kind]


def infer_shapes(model):
    """Walk the graph symbolically, filling per-layer output shapes.

    Raises GraphBuildError naming the offending layer if weight shapes or
    residual wiring are inconsistent. Returns the list of output shapes.
    """
    shape = tuple(model.input_shape)
    skips = []
    shapes = []
    for idx, layer in enumerate(model.layers):
        shape = layer_op(layer, idx).shape(layer, shape, skips, f"layer {idx} ({layer.name}, {layer.kind})")
        layer.output_shape = shape
        shapes.append(shape)
    if skips:
        raise GraphBuildError("unterminated residual connection")
    if shape != (model.n_classes,):
        raise GraphBuildError(f"graph emits {shape}, expected ({model.n_classes},)")
    return shapes


def glorot_fans(layer):
    """(fan_in, fan_out) per layer kind, mirroring common framework counting."""
    fans = getattr(OPS.get(layer.kind), "fans", None)
    if fans is None:
        raise ValueError(f"no glorot fans for kind {layer.kind}")
    return fans(*layer.weights["w"].shape)


def init_weights(model, seed, dtype=None):
    """Glorot-uniform kernels, zero biases, identity batch norm; seeded.

    ``dtype`` overrides the model's storage dtype (float64 for gradient
    tests). Returns the model with weights replaced in place.
    """
    if dtype is not None:
        model.dtype = dtype
    dt = model.dtype
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        for name in layer.weight_names():
            shape = layer.weights[name].shape
            if name == "w":
                limit = np.sqrt(6.0 / sum(glorot_fans(layer)))
                layer.weights[name] = rng.uniform(-limit, limit, shape).astype(dt)
            elif name in ("gamma", "moving_var"):
                layer.weights[name] = np.ones(shape, dtype=dt)
            else:
                layer.weights[name] = np.zeros(shape, dtype=dt)
    return model


def walk(model, x, run, steps=None, caches=None, record=None):
    """Run every layer's forward step on x, or for a layer index in ``steps``
    its ``steps[idx](layer, x) -> output`` in its place (with no cache).

    Returns (output, logits). Each layer's backward cache is appended to
    ``caches`` and its output to ``record`` when those are lists.
    """
    logits = None
    steps = steps or {}
    run.keep_caches = caches is not None
    for idx, layer in enumerate(model.layers):
        op = layer_op(layer, idx)
        x, cache = (steps[idx](layer, x), None) if idx in steps else op.forward(layer, x, run)
        if op.logits:
            logits = x
        if caches is not None:
            caches.append(cache)
        del cache  # unless kept, a layer's cache must not outlive its step
        if record is not None:
            record.append(x)
    return x, logits


def run_graph(model, x, train=False, rng=None, keep_caches=False, record_activations=None):
    """Execute the graph on a batch (N, H, W, C).

    Returns (output, logits, caches). ``logits`` is the final dense
    output before softmax. In train mode batch norm updates its moving
    statistics in place and dropout draws from ``rng``; caches (when
    requested) hold what each layer's backward pass needs. If
    ``record_activations`` is a list, every layer's output is appended.
    """
    caches = [] if keep_caches else None
    x, logits = walk(model, x, Run(train, rng), caches=caches, record=record_activations)
    return x, logits, caches


def backward_graph(model, caches, grad_out):
    """Backpropagate through the graph given forward caches.

    Returns a dict mapping layer index to {weight_name: gradient} for
    every trainable weight. Raises if a cache a layer needs is missing.
    """
    if caches is None or len(caches) != len(model.layers):
        raise ShapeError("missing forward cache: run the graph with keep_caches=True")
    grads = {}
    run = Run()
    g = grad_out
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        op = layer_op(layer, idx)
        if op.needs_cache and caches[idx] is None:
            raise ShapeError(f"missing forward cache for layer {idx} ({layer.name})")
        g, layer_grads = op.backward(layer, caches[idx], g, run)
        if layer_grads is not None:
            grads[idx] = layer_grads
    return grads, g


def stack_inputs(model, specs, dtype):
    """Stack Spectrograms or (H, W) arrays into an (N, H, W, 1) batch of ``dtype``.

    An (H, W, C) array of the model's input shape is taken as it is; any
    other shape raises ShapeError naming the expected and the actual shape.
    """
    expected = model.input_shape
    batch = []
    for spec in specs:
        data = np.asarray(spec.data if isinstance(spec, Spectrogram) else spec)
        if data.shape == expected[:2] and expected[2] == 1:
            data = data[..., None]
        elif data.shape != expected:
            raise ShapeError(f"input shape mismatch: expected {expected[:2]} (x1 channel), got {data.shape}")
        batch.append(data.astype(dtype))
    return np.stack(batch)


def fold_norms(model):
    """The inference graph of ``model``: each batch norm directly behind a
    ``folds_norm`` layer is dropped, and that layer's kernel becomes w * s over
    its last axis and its bias (b - moving_mean) * s + beta (b = 0 if absent),
    s = gamma / sqrt(moving_var + eps), computed in float64 and stored in the
    model's dtype. Other norms (the mixer's sit behind activations) stay.

    The graph holds new layers for the folded pairs and ``model``'s own layer
    objects elsewhere, so it copies nothing and must not be trained. A folded
    norm with a non-positive eps or a negative moving variance raises
    ValueError, as ``kernels.batch_norm`` does.
    """
    layers = []
    for i, norm in enumerate(model.layers):
        if norm.kind != "batch_norm" or i == 0 or not layer_op(model.layers[i - 1], i - 1).folds_norm:
            layers.append(norm)
            continue
        conv, eps = model.layers[i - 1], norm.config["eps"]
        gamma, beta, mean, var = (norm.weights[n].astype(np.float64) for n in norm.weight_names())
        if eps <= 0:
            raise ValueError(f"batch norm eps must be positive, got {eps}")
        if np.any(var < 0):
            raise ValueError("negative variance estimate in batch norm")
        factor = gamma / np.sqrt(var + eps)
        b = conv.weights.get("b", 0.0)
        # float32 operands widen to float64 exactly, so no float64 copy is made first
        weights = {
            "w": np.multiply(conv.weights["w"], factor, dtype=np.float64).astype(model.dtype),
            "b": (np.subtract(b, mean, dtype=np.float64) * factor + beta).astype(model.dtype),
        }
        layers[-1] = LayerSpec(conv.kind, conv.name, conv.config, weights, conv.output_shape)
    return replace(model, layers=layers)


def forward(model, spec):
    """Deterministic single-example inference: Spectrogram -> Prediction.
    Runs the ``fold_norms`` graph of ``model``."""
    probs, logits, _ = run_graph(fold_norms(model), stack_inputs(model, [spec], model.dtype), train=False)
    p = probs[0]
    return Prediction(probabilities=p, top_class=int(np.argmax(p)), logits=logits[0])


def forward_batch(model, batch):
    """Inference over a pre-stacked batch (N, H, W, C) on the ``fold_norms`` graph
    of ``model``; returns (probs, logits)."""
    probs, logits, _ = run_graph(fold_norms(model), batch.astype(model.dtype), train=False)
    return probs, logits


def forward_chunked(model, batch):
    """``forward_batch`` over consecutive INFER_CHUNK-clip slices of a non-empty
    batch, concatenated: the same bits, with each slice's activations small
    enough to stay in cache. Returns (probs, logits)."""
    parts = [forward_batch(model, batch[i : i + INFER_CHUNK]) for i in range(0, len(batch), INFER_CHUNK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def copy_weights(model):
    """Deep copy of all weight arrays, keyed like adam parameters."""
    return {
        (i, name): layer.weights[name].copy()
        for i, layer in enumerate(model.layers)
        for name in layer.weight_names()
    }


def restore_weights(model, snapshot):
    for (i, name), arr in snapshot.items():
        model.layers[i].weights[name] = arr.copy()


def weights_fingerprint(model):
    """Stable digest of every weight byte, for immutability checks."""
    import hashlib

    h = hashlib.sha256()
    for layer in model.layers:
        for name in layer.weight_names():
            h.update(np.ascontiguousarray(layer.weights[name]).tobytes())
    return h.hexdigest()


# --- serialization -------------------------------------------------------
#
# Self-describing binary checkpoint: a fixed header naming the topology,
# then each layer's weights in graph order as little-endian float32 blobs
# with shape prefixes. Round trips are bit-exact for float32 models.

MAGIC = b"TASC"
FORMAT_VERSION = 1
# version, architecture id, f1, f2, kernel, patch, bias, patch norm, classes, input h, w, c
HEADER = "<HBHHHHBBHHHH"


def _write_header(fh, model):
    fh.write(MAGIC)
    fh.write(
        struct.pack(
            HEADER,
            FORMAT_VERSION,
            list(ARCHS).index(model.arch_tag),
            *model.filters,
            model.kernel_size,
            model.patch_size,
            model.use_bias,
            model.patch_norm,
            model.n_classes,
            *model.input_shape,
        )
    )


class _Reader:
    """Exact-length reads from a model file: a short read, or a byte after
    the last record, raises ``error`` naming the file and the byte offset,
    and inside a layer's record the layer and weight (``where``)."""

    def __init__(self, fh, error):
        self.fh, self.error, self.offset, self.where = fh, error, 0, None

    def fail(self, problem):
        raise self.error(f"{self.fh.name}: {problem}")

    def read(self, n):
        data = self.fh.read(n)
        if len(data) != n:
            inside = f", in {self.where}" if self.where else ""
            self.fail(f"truncated at byte {self.offset + len(data)}, wanted {n} bytes{inside}")
        self.offset += n
        return data

    def unpack(self, fmt):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def array(self, expected, dtype="<f4"):
        """The next stored array, which must have shape ``expected``."""
        (ndim,) = self.unpack("<B")
        shape = self.unpack(f"<{ndim}I")
        if shape != expected:
            self.fail(f"{self.where}: stored shape {shape} != expected {expected}")
        data = self.read(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def weight(self, name, expected):
        """The float32 array of weight ``name``; a moving variance with a negative
        entry, which no inference norm accepts, is rejected here."""
        arr = self.array(expected)
        if name == "moving_var" and np.any(arr < 0):
            channel = int(np.argmax(arr < 0))
            self.fail(f"{self.where}: negative moving variance {arr[channel]} at channel {channel}")
        return arr

    def graph(self):
        """The graph a checkpoint header describes, built by ``build``."""
        magic = self.read(4)
        if magic != MAGIC:
            self.fail(f"not a model checkpoint (magic {magic!r})")
        version, arch_id, f1, f2, kernel, patch, use_bias, patch_norm, n_classes, *shape = self.unpack(HEADER)
        if version != FORMAT_VERSION:
            self.fail(f"unsupported checkpoint version {version}")
        if arch_id >= len(ARCHS):
            self.fail(f"unknown architecture id {arch_id}")
        try:
            return build(
                list(ARCHS)[arch_id], f1, f2, kernel, patch, shape, n_classes, bool(use_bias), bool(patch_norm)
            )
        except GraphBuildError as exc:
            self.fail(f"header describes no valid graph: {exc}")

    def records(self, graph):
        """Check each layer's stored tensor count against ``graph`` and yield
        (layer index, layer, weight name) for each tensor in storage order."""
        for idx, layer in enumerate(graph.layers):
            names = layer.weight_names()
            self.where = f"layer {idx}"
            (count,) = self.unpack("<B")
            if count != len(names):
                self.fail(f"layer {idx}: {count} tensors stored, graph expects {len(names)}")
            for name in names:
                self.where = f"layer {idx} weight {name}"
                yield idx, layer, name
        self.where = None

    def end(self):
        if self.fh.read(1):
            self.fail(f"unexpected data after the last record, at byte {self.offset}")


def _write_array(fh, arr, dtype="<f4"):
    arr = np.ascontiguousarray(arr, dtype=dtype)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(arr.tobytes())


def save_model(model, path):
    """Write a float32 checkpoint; see module notes for the layout."""
    with open(path, "wb") as fh:
        _write_header(fh, model)
        for layer in model.layers:
            names = layer.weight_names()
            fh.write(struct.pack("<B", len(names)))
            for name in names:
                _write_array(fh, layer.weights[name])


def load_model(path):
    """Rebuild the graph from the header and pour the stored weights in."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, ShapeError)
        model = reader.graph()
        for _, layer, name in reader.records(model):
            layer.weights[name] = reader.weight(name, layer.weights[name].shape)
        reader.end()
    return model
