"""Model graphs for the two competing architectures.

Both networks share one skeleton, written once in ``build``: a stem, two
convolutional modules each holding a time-axis max pool and followed by
dropout, then global average pooling and a 10-way dense classifier with
softmax. An architecture is one ``ARCHS`` entry, which returns its stem and
modules.

* ``conv_sep``: no stem; each module is a full convolution and a separable
  convolution (depthwise + pointwise, bias on the pointwise stage only),
  each followed by batch norm and ELU. The module's max pool sits before
  its last ELU: max pooling commutes with a non-decreasing function, so
  that ELU runs on a quarter (then a half) of the values, with the outputs
  of ELU then pool.
* ``conv_mixer``: a 1x1 patch embedding (GELU + batch norm) feeds two
  mixer modules; each module adds a residual skip around its depthwise
  convolution, then applies GELU + batch norm, a pointwise convolution,
  and GELU + batch norm again, then its max pool (GELU is not monotone).

Pool tuples are (frequency, time): (1, 4) downsamples the 51-frame time
axis to 12. A graph is an ordered list of LayerSpec nodes; the same
representation drives inference, training, auditing, and quantization.
"""

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, modelfile
from .errors import ConfigError, GraphBuildError, ShapeError, TinyAscError
from .frontend import Spectrogram

BN_EPS = 1e-3
BN_MOMENTUM = 0.99
# an untrained batch norm's weights, in the order a norm layer holds them
BN_IDENTITY = {"gamma": 1, "beta": 0, "moving_mean": 0, "moving_var": 1}
DROPOUT_RATE = 0.3


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

    @classmethod
    def first(cls, probs, logits):
        """The Prediction of the first row of batched ``probs`` and ``logits``."""
        p = probs[0]
        return cls(probabilities=p, top_class=int(np.argmax(p)), logits=logits[0])


def _placeholder(value, shape):
    """A read-only float32 ``value`` broadcast to ``shape``, holding no bytes; a
    shape with more entries than an index counts raises GraphBuildError."""
    try:
        return np.broadcast_to(np.float32(value), shape)
    except ValueError:
        raise GraphBuildError(f"weight shape {shape} has too many entries") from None


def _kernel(shape, use_bias):
    """A zero kernel and, with ``use_bias``, a zero bias over its last axis."""
    weights = {"w": _placeholder(0, shape)}
    if use_bias:
        weights["b"] = _placeholder(0, shape[-1:])
    return weights


def _conv(name, kernel, cin, cout, use_bias, stride=1, padding="same"):
    weights = _kernel((kernel, kernel, cin, cout), use_bias)
    return LayerSpec("conv2d", name, {"stride": stride, "padding": padding}, weights)


def _depthwise(name, kernel, channels, use_bias):
    return LayerSpec("depthwise_conv2d", name, {}, _kernel((kernel, kernel, channels), use_bias))


def _pointwise(name, cin, cout, use_bias):
    return LayerSpec("pointwise_conv2d", name, {}, _kernel((1, 1, cin, cout), use_bias))


def _batch_norm(name, channels):
    weights = {n: _placeholder(v, (channels,)) for n, v in BN_IDENTITY.items()}
    return LayerSpec("batch_norm", name, {"eps": BN_EPS, "momentum": BN_MOMENTUM}, weights)


def _dense(name, n_in, n_out):
    return LayerSpec("dense", name, {}, _kernel((n_in, n_out), True))


def _simple(kind, name, **cfg):
    return LayerSpec(kind, name, cfg)


def _pool(m):
    """Module m's time-axis max pool: (1, 4) after module 1, (1, 2) after module 2."""
    return _simple("max_pool", f"pool{m}", pool=((1, 4), (1, 2))[m - 1])


def _conv_sep(cin, f1, f2, kernel_size, patch_size, use_bias, patch_norm):
    """No stem; each module is a full convolution and a separable convolution
    with the same filter count, the depthwise stage never biased (its bias
    lives on the pointwise stage), and its max pool before the last ELU."""
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
            _pool(m),
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
            _pool(m),
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
    (which holds its ``_pool``) followed by dropout, then global average pooling,
    the dense classifier and softmax, with shapes inferred. Its weights are
    read-only placeholders holding no bytes, for ``init_weights`` or a loader."""
    if arch_tag not in ARCHS:
        raise GraphBuildError(f"unknown architecture {arch_tag!r}, expected one of {tuple(ARCHS)}")
    if f1 < 1 or f2 < 1:
        raise GraphBuildError(f"filter counts must be >= 1, got ({f1}, {f2})")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise GraphBuildError(f"kernel size must be odd and >= 1, got {kernel_size}")
    if patch_size < 1:
        raise GraphBuildError(f"patch size must be >= 1, got {patch_size}")
    layers, modules = ARCHS[arch_tag](input_shape[2], f1, f2, kernel_size, patch_size, use_bias, patch_norm)
    for m, module in enumerate(modules, start=1):
        layers += [*module, _simple("dropout", f"drop{m}", rate=DROPOUT_RATE)]
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
    """State of one walk: the mode, the dropout rng, the open residual skips,
    whether backward caches are kept and whether a backward step's input
    gradient is read (a conv2d skips it when it is not)."""

    train: bool = False
    rng: object = None
    skips: list = field(default_factory=list)
    keep_caches: bool = False
    input_grad: bool = True


def _fail(where, problem):
    raise GraphBuildError(f"{where}: {problem}")


def _kernel_backward(layer, cache, g, run):
    return getattr(kernels, f"{layer.kind}_backward")(cache, g), None


@dataclass(frozen=True)
class Rebuild:
    """Kept in place of a train-mode cache that holds the layer's input, when
    that input is the output of layer ``source`` and the source's op can
    ``rebuild`` it from the source's cache: a train-mode batch norm its y from
    its input and statistics, a GELU its output from its input, and a
    one-channel conv or a pointwise conv its output by its own forward call
    on its input, the pointwise only where it keeps that input as an array.

    Without ``rest`` the cache is that input itself; with ``rest``, it is the
    tuple ``(input, *rest)``, as a batch norm keeps. Backward makes the cache
    at its first reader, the layer's step or a later layer's rebuild, and
    keeps it in the layer's slot for the other, except a norm's input made
    for a later layer's rebuild: the norm makes it again at its own step. A
    rebuilt input is new, so the layer owns it and its step may write over it.
    """

    source: int
    rest: tuple = None


@dataclass(frozen=True)
class Slope:
    """A GELU's cache once the kept rebuild of its output has formed dy/dx,
    over its cached input where that is writeable: its step is grad * dy_dx."""

    dy_dx: np.ndarray


@dataclass
class Op:
    """One layer kind.

    forward(layer, x, run) -> (output, cache for backward)
    backward(layer, cache, grad, run) -> (input grad, {weight: grad} or None)
    shape(layer, shape, skips, where) -> output shape, or GraphBuildError
    rebuild(layer, cache) -> the train-mode output again, bit for bit, from its
        cache, for the layers ``rebuilds(layer, cache)`` admits given the cache
        a train walk keeps for them
    keep(layer, cache) -> (output, the layer's cache for its own step): the
        rebuild that backward keeps, when the kind has a cheaper cache to give
        its step; like a backward step, it writes over a cached array only
        where that array is writeable
    linear(layer, x, w, b) -> conv or dense output; INT8 runs it on codes
    fans(*w.shape) -> Glorot (fan_in, fan_out)
    params(layer, convention), macs(layer, convention) -> analytic counts
    """

    forward: object
    backward: object = _kernel_backward  # kernels.<kind>_backward(cache, grad)
    shape: object = lambda layer, shape, skips, where: shape
    rebuild: object = None
    rebuilds: object = lambda layer, cache: True
    keep: object = None
    weights: tuple = ()  # storage order: init, Adam state, serialization
    trainable: tuple = ()
    linear: object = None
    fans: object = None
    params: object = lambda layer, convention: 0
    macs: object = lambda layer, convention: 0
    folds_norm: bool = False  # a batch norm right behind it folds into its kernel
    logits: bool = False  # its output is the classifier's logits
    needs_cache: bool = True
    elementwise: bool = False  # at inference each output entry is a function of its input entry and channel


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


def _linear_op(linear, backward, fans, shape=_conv_shape, rebuilds=None, **flags):
    """A conv or dense kind: ``linear(layer, x, w, b)`` is its kernel and
    ``backward(layer, x, w, grad, with_bias, run)`` returns (gx, gw, gb). With
    ``rebuilds``, its rebuild is its own forward call on its cached input."""

    def forward(layer, x, run):
        return linear(layer, x, layer.weights["w"], layer.weights.get("b")), x

    if rebuilds is not None:
        flags.update(rebuild=lambda layer, x: forward(layer, x, None)[0], rebuilds=rebuilds)

    def grads(layer, x, g, run):
        gx, gw, gb = backward(layer, x, layer.weights["w"], g, "b" in layer.weights, run)
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
    # a writeable train-mode cached input is this norm's own (walk sees to that),
    # read last by this step
    x, *_, train, _ = cache
    out = x if train and x.flags.writeable and x.dtype == g.dtype else None
    g, g_gamma, g_beta = kernels.batch_norm_backward(cache, g, out=out)
    return g, {"gamma": g_gamma, "beta": g_beta}


def _softmax_forward(layer, x, run):
    probs = kernels.softmax(x)
    return probs, probs


def _elu_forward(layer, x, run):
    # the backward needs only the output, which is already the next layer's input
    y = kernels.elu(x)
    return y, y


def _elu_backward(layer, y, g, run):
    # y is this layer's own array; the next layer, which may cache it too, has
    # run its backward step and let go of it
    return kernels.elu_backward(y, g, out=y), None


def _gelu_keep(layer, x):
    # dy/dx from the output's own tanh, over x where x is writeable (the GELU's own)
    y, slope = kernels.gelu_slope(x, out=x if x.flags.writeable else None)
    return y, Slope(slope)


def _gelu_backward(layer, cache, g, run):
    # where no later layer rebuilt the output, the slope is formed here, in a new
    # array: an eval-mode cache is not walk's to guard, and may be another's
    dy_dx = cache.dy_dx if isinstance(cache, Slope) else kernels.gelu_slope(cache)[1]
    return np.multiply(dy_dx, g, out=dy_dx), None


def _push_skip(layer, x, run):
    run.skips.append(x)
    return x, None


def _add_skip(layer, x, run):
    return x + run.skips.pop(), None


OPS = {
    "conv2d": _linear_op(
        lambda layer, x, w, b: kernels.conv2d(x, w, b, **_conv_args(layer)),
        lambda layer, x, w, g, bias, run: kernels.conv2d_backward(
            x, w, g, with_bias=bias, with_input=run.input_grad, **_conv_args(layer)
        ),
        fans=lambda kh, kw, cin, cout: (kh * kw * cin, kh * kw * cout),
        folds_norm=True,
        # with one input channel an output costs kh * kw MACs, less than a GELU, so it
        # is rerun on the cached input; a wider conv's rerun costs more than it saves
        rebuilds=lambda layer, x: layer.weights["w"].shape[2] == 1,
    ),
    "depthwise_conv2d": _linear_op(
        lambda layer, x, w, b: kernels.depthwise_conv2d(x, w, b),
        lambda layer, x, w, g, bias, run: kernels.depthwise_conv2d_backward(x, w, g, with_bias=bias),
        fans=lambda kh, kw, c: (kh * kw * c, kh * kw),
        folds_norm=True,
    ),
    "pointwise_conv2d": _linear_op(
        lambda layer, x, w, b: kernels.pointwise_conv2d(x, w, b),
        lambda layer, x, w, g, bias, run: kernels.pointwise_conv2d_backward(x, w, g, with_bias=bias),
        fans=lambda kh, kw, cin, cout: (cin, cout),
        folds_norm=True,
        # rerun on the input it keeps as an array (conv_sep's, a depthwise conv's
        # output); where that input is itself a Rebuild (the mixer's, behind a norm),
        # a rerun would make it early and hold it until this layer's step
        rebuilds=lambda layer, x: isinstance(x, np.ndarray),
    ),
    "dense": _linear_op(
        lambda layer, x, w, b: kernels.dense(x, w, b),
        lambda layer, x, w, g, bias, run: kernels.dense_backward(x, w, g),
        fans=lambda n, m: (n, m),
        shape=_dense_shape,
        logits=True,
    ),
    "batch_norm": Op(
        _norm_forward,
        _norm_backward,
        _norm_shape,
        rebuild=lambda layer, cache: kernels.batch_norm_output(cache),
        weights=tuple(BN_IDENTITY),
        trainable=("gamma", "beta"),
        params=lambda layer, convention: convention.bn_params_per_channel * layer.weights["gamma"].shape[0],
        macs=lambda layer, convention: (
            2 * int(np.prod(layer.output_shape)) if convention.count_bn_macs else 0
        ),
        elementwise=True,
    ),
    "elu": Op(_elu_forward, _elu_backward, elementwise=True),
    "gelu": Op(
        lambda layer, x, run: (kernels.gelu(x), x),
        _gelu_backward,
        rebuild=lambda layer, x: kernels.gelu(x),
        keep=_gelu_keep,
        elementwise=True,
    ),
    "max_pool": Op(
        lambda layer, x, run: kernels.max_pool(x, layer.config["pool"], keep_cache=run.keep_caches),
        shape=_pool_shape,
    ),
    "global_avg_pool": Op(lambda layer, x, run: (kernels.global_avg_pool(x), x.shape), shape=_gap_shape),
    "dropout": Op(
        lambda layer, x, run: kernels.dropout(x, layer.config["rate"], train=run.train, rng=run.rng),
        lambda layer, mask, g, run: (kernels.dropout_backward(mask, layer.config["rate"], g), None),
        needs_cache=False,
        elementwise=True,
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
    tests). Returns the model with weights replaced in place. A negative
    seed raises ConfigError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
            else:
                layer.weights[name] = np.full(shape, BN_IDENTITY.get(name, 0), dtype=dt)
    return model


def _rebuilds(layer, cache):
    """Whether backward can rebuild ``layer``'s train-mode output from ``cache``,
    the one a train walk keeps for it."""
    op = OPS[layer.kind]
    return op.rebuild is not None and op.rebuilds(layer, cache)


def _kept(model, caches, cache, x, source, skips):
    """What a train walk keeps of a layer's cache, given its input x, made by
    layer ``source`` (None for the walk's input), and the open residual
    ``skips``. A cache that is x, or a tuple that starts with x (a norm's),
    becomes a ``Rebuild`` where the maker can ``rebuild`` x from the cache it
    keeps (``_rebuilds``): a norm, a GELU, a one-channel conv, and a
    pointwise conv whose kept input is an array (conv_sep's, not the
    mixer's). Else x is the layer's own unless it is the caller's batch, the
    maker's cache (an ELU's output), which the maker's step reads later, or
    an open skip's; one it does not own is kept as a read-only view, alone or
    at the tuple's head.
    The one rule of backward: a step writes over a cached array only where
    that array is writeable."""
    starts = isinstance(cache, tuple) and bool(cache) and cache[0] is x
    if cache is not x and not starts:
        return cache
    if source is not None and _rebuilds(model.layers[source], caches[source]):
        return Rebuild(source, rest=cache[1:] if starts else None)
    if source is not None and caches[source] is not x and all(s is not x for s in skips):
        return cache
    view = x.view()
    view.flags.writeable = False
    return (view, *cache[1:]) if starts else view


def walk(model, x, run, steps=None, caches=None, record=None):
    """Run every layer's forward step on x, or for a layer index in ``steps``
    its ``steps[idx](layer, x) -> output`` in its place (with no cache).

    Returns (output, logits). Each layer's backward cache is appended to
    ``caches`` and its output to ``record`` when those are lists, a train-mode
    cache as ``_kept`` makes it. A layer that returns its input passes on who
    made it.
    """
    logits = source = None
    steps = steps or {}
    run.keep_caches = caches is not None
    for idx, layer in enumerate(model.layers):
        op = layer_op(layer, idx)
        y, cache = (steps[idx](layer, x), None) if idx in steps else op.forward(layer, x, run)
        if op.logits:
            logits = y
        if caches is not None:
            caches.append(_kept(model, caches, cache, x, source, run.skips) if run.train else cache)
        del cache  # unless kept, a layer's cache must not outlive its step
        if y is not x:
            source = idx
        x = y
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

    Returns (grads, None): grads maps layer index to {weight_name: gradient}
    for every trainable weight. Nothing reads the input gradient of layer 0,
    so a conv2d there does not compute it. Raises if a cache a layer needs
    is missing.

    Consumes ``caches``: each entry is set to None once its layer's step has
    run, so that its arrays are freed. A step writes over a cached array only
    where that array is writeable, which a train walk leaves only the arrays
    a layer owns (``_kept``): a train-mode batch norm writes its input
    gradient into its cached input, an ELU into its cached output (always its
    own), and a GELU whose output is rebuilt its dy/dx and then its input
    gradient into its cached input. An activation list recorded in the same
    forward pass sees those arrays overwritten. A ``Rebuild`` cache is made
    from its source's cache at its first reader, which in reverse order comes
    before the source's own step.
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
        run.input_grad = idx > 0
        g, layer_grads = op.backward(layer, _cache(model, caches, idx), g, run)
        caches[idx] = None
        if layer_grads is not None:
            grads[idx] = layer_grads
    return grads, None


def _cache(model, caches, idx, step=True):
    """``caches[idx]`` for layer idx's step, or with ``step`` false for a later
    layer's rebuild, made first when it is a ``Rebuild`` and then kept in the
    slot, by the source's ``keep`` where it has one. A norm's input made for a
    later layer's rebuild is not kept: the norm makes it again at its own step,
    so that no activation waits in its slot while that layer's step runs."""
    cache = caches[idx]
    if not isinstance(cache, Rebuild):
        return cache
    source = model.layers[cache.source]
    op = OPS[source.kind]
    made = _cache(model, caches, cache.source, step=False)
    if cache.rest is not None and not step:
        return (op.rebuild(source, made), *cache.rest)
    if op.keep is None:
        x = op.rebuild(source, made)
    else:
        x, caches[cache.source] = op.keep(source, made)
    caches[idx] = x if cache.rest is None else (x, *cache.rest)
    return caches[idx]


def stack_inputs(model, specs, dtype):
    """Stack Spectrograms or (H, W) arrays into an (N, H, W, 1) batch of ``dtype``.

    An (H, W, C) array of the model's input shape is taken as it is; any
    other shape raises ShapeError naming the example, the expected and the
    actual shape.
    """
    expected = model.input_shape
    batch = []
    for i, spec in enumerate(specs):
        data = np.asarray(spec.data if isinstance(spec, Spectrogram) else spec)
        if data.shape == expected[:2] and expected[2] == 1:
            data = data[..., None]
        elif data.shape != expected:
            raise ShapeError(
                f"example {i}: input shape mismatch: expected {expected[:2]} (x1 channel), got {data.shape}"
            )
        batch.append(data.astype(dtype))
    return np.stack(batch)


def check_labels(labels, n_classes):
    """``labels``, an array; the first outside [0, n_classes) raises TinyAscError naming its example."""
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        raise TinyAscError(f"example {bad[0]}: label {labels[bad[0]]} outside the classes [0, {n_classes})")
    return labels


def stack_examples(model, examples):
    """Inputs and int64 labels of (Spectrogram, label) pairs, the labels by ``check_labels``."""
    xs = stack_inputs(model, [spec for spec, _ in examples], model.dtype)
    return xs, check_labels(np.array([label for _, label in examples], dtype=np.int64), model.n_classes)


def _fold(model, weights):
    """``model`` with each batch norm directly behind a ``folds_norm`` layer dropped
    and that layer given ``weights(layer, norm)``; other layers are ``model``'s own."""
    layers = []
    for i, norm in enumerate(model.layers):
        if norm.kind == "batch_norm" and i > 0 and layer_op(model.layers[i - 1], i - 1).folds_norm:
            layers[-1] = replace(layers[-1], weights=weights(layers[-1], norm))
        else:
            layers.append(norm)
    return replace(model, layers=layers)


def fold_norms(model):
    """The inference graph of ``model`` by ``_fold``: a folded layer's kernel
    becomes w * s over its last axis and its bias (b - moving_mean) * s + beta
    (b = 0 if absent), s = gamma / sqrt(moving_var + eps), computed in float64
    and stored in the model's dtype. Other norms (the mixer's sit behind
    activations) stay. The graph copies nothing, so it must not be trained. A
    folded norm with a non-positive eps or a negative moving variance raises
    ValueError, as ``kernels.batch_norm`` does.
    """

    def fold(conv, norm):
        gamma, beta, mean, var = (norm.weights[n].astype(np.float64) for n in norm.weight_names())
        factor = gamma / kernels.norm_denominator(var, norm.config["eps"])
        b = conv.weights.get("b", 0.0)
        # float32 operands widen to float64 exactly, so no float64 copy is made first
        return {
            "w": np.multiply(conv.weights["w"], factor, dtype=np.float64).astype(model.dtype),
            "b": (np.subtract(b, mean, dtype=np.float64) * factor + beta).astype(model.dtype),
        }

    return _fold(model, fold)


def fold_structure(model):
    """The layers ``fold_norms`` gives ``model`` with no arithmetic: a folded layer
    keeps its kernel and gets a zero placeholder bias, for values read from a ``.tasq``."""
    return _fold(model, lambda conv, norm: {"w": conv.weights["w"], "b": _placeholder(0, conv.weights["w"].shape[-1:])})


def forward(model, spec):
    """Deterministic single-example inference: Spectrogram -> Prediction,
    by ``forward_batch`` on the one stacked clip."""
    return Prediction.first(*forward_batch(model, stack_inputs(model, [spec], model.dtype)))


def forward_batch(model, batch):
    """Inference over a pre-stacked batch (N, H, W, C) on the ``fold_norms`` graph
    of ``model``; returns (probs, logits)."""
    probs, logits, _ = run_graph(fold_norms(model), batch.astype(model.dtype), train=False)
    return probs, logits


@dataclass
class Predictor:
    """Inference on constants built once: ``walk`` of ``graph`` with ``steps``
    on inputs of ``dtype``, one clip at a time. A predictor owns what it built:
    a model changed after its predictor was built is not seen by it. Nothing
    is kept across predictors; ``predictor`` and ``quantize.predictor`` build them."""

    graph: ModelGraph
    steps: dict
    dtype: object

    def __call__(self, batch, record=None):
        """(probs, logits) of a non-empty batch (N, H, W, C), one ``walk`` per clip
        (its activations stay in cache), concatenated; a ``record`` list gets each
        clip's layer outputs in turn. Each clip gets the bits it gets alone, which
        BLAS may round otherwise in its row of one batched walk (the dense layer).
        No inference step writes its input, so a clip of ``dtype`` is not copied."""
        clips = (clip[None].astype(self.dtype, copy=False) for clip in batch)
        parts = [walk(self.graph, x, Run(), self.steps, record=record) for x in clips]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def predictor(model):
    """The float Predictor of ``model``: the ``fold_norms`` graph of a deep copy,
    sharing no layer or array with ``model``, and no steps."""
    return Predictor(fold_norms(copy.deepcopy(model)), {}, model.dtype)


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


# --- serialization: ``modelfile`` holds the byte layout ---------------------


def save_model(model, path):
    """Write ``model`` as a ``.tasc`` checkpoint. Weights are stored as float32,
    so a float64 model is narrowed and only a float32 one round-trips bit for bit."""
    modelfile.save(path, model, ARCHS, lambda i, name: (model.layers[i].weights[name], None))


def load_model(path):
    """The graph a ``.tasc`` header names, with the stored weights poured in."""
    model, records, _ = modelfile.read(path, ShapeError, ARCHS, build)
    for i, name, arr, _ in records:
        model.layers[i].weights[name] = arr
    return model
