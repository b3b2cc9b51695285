"""Spans around tinyasc's layers, recorded from outside the package.

The tracer replaces module attributes (``kernels.conv2d``, ``zoo.run_graph``
and so on) with timing wrappers. That reaches every caller because tinyasc
looks these names up on the module at call time. Spans stay in memory and
are written out once, when the run ends.

Per-layer metrics are named ``<module>.<function>.<phase>.<unit>``:

* ``ms``: mean self time per call, in milliseconds;
* ``ms/clip``: self time summed over the phase, per clip the phase handled;
* ``MAC/s``: multiply-accumulates of that kernel kind, counted by
  ``audit.audit_model``, per second of the kernel's self time.

``kernels.activation`` and ``kernels.activation_backward`` add up
``elu``/``gelu`` and their backward passes: conv_sep calls only ELU and
conv_mixer only GELU, and a metric that reads 0 on one workload would show
nothing there. The trace file keeps the real function names.
"""

import functools
import importlib
import json
import time

TRACED = {
    "data": ("read_wav",),
    "frontend": ("log_mel", "frame_signal", "power_spectrum", "mel_filterbank"),
    "zoo": ("run_graph", "backward_graph", "forward_batch", "load_model"),
    "trainer": ("adam_step",),
    "quantize": (
        "fold_batch_norm",
        "calibrate",
        "quantize_array",
        "quantized_forward",
        "load_quantized",
    ),
    "metrics": ("evaluate",),
}

MERGED = {
    "kernels.elu": "kernels.activation",
    "kernels.gelu": "kernels.activation",
    "kernels.elu_backward": "kernels.activation_backward",
    "kernels.gelu_backward": "kernels.activation_backward",
}

MAC_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense")
_FORWARD = (
    "conv2d",
    "depthwise_conv2d",
    "pointwise_conv2d",
    "batch_norm",
    "activation",
    "max_pool",
    "global_avg_pool",
    "dense",
    "softmax",
)
_BACKWARD = (
    "conv2d_backward",
    "depthwise_conv2d_backward",
    "pointwise_conv2d_backward",
    "batch_norm_backward",
    "activation_backward",
    "max_pool_backward",
    "global_avg_pool_backward",
    "dense_backward",
    "softmax_backward",
    "dropout",
    "dropout_backward",
)
_INT8 = (
    "conv2d",
    "depthwise_conv2d",
    "pointwise_conv2d",
    "activation",
    "max_pool",
    "global_avg_pool",
    "softmax",
)


def _spec():
    """(function, phase, unit) for every per-layer metric, in report order."""
    out = [(f"frontend.{f}", "request", "ms") for f in TRACED["frontend"]]
    out.append(("data.read_wav", "request", "ms"))
    out.append(("zoo.run_graph", "request", "ms/clip"))
    out += [(f"kernels.{k}", "request", "ms/clip") for k in _FORWARD]
    out += [(f"kernels.{k}", "request", "MAC/s") for k in MAC_KINDS]

    out += [(f"quantize.{f}", "int8", "ms/clip") for f in ("quantized_forward", "quantize_array")]
    out += [(f"kernels.{k}", "int8", "ms/clip") for k in _INT8]
    out += [(f"kernels.{k}", "int8", "MAC/s") for k in MAC_KINDS if k != "dense"]

    out += [(f, "eval", "ms/clip") for f in ("metrics.evaluate", "zoo.forward_batch", "zoo.run_graph")]
    out += [(f"kernels.{k}", "eval", "ms/clip") for k in _FORWARD]
    out += [(f"kernels.{k}", "eval", "MAC/s") for k in MAC_KINDS]

    out.append(("quantize.fold_batch_norm", "quantize", "ms"))
    out += [
        (f, "quantize", "ms/clip")
        for f in (
            "quantize.calibrate",
            "quantize.quantized_forward",
            "quantize.quantize_array",
            "zoo.run_graph",
            "kernels.conv2d",
            "kernels.batch_norm",
            "kernels.activation",
            "kernels.max_pool",
        )
    ]

    out.append(("trainer.adam_step", "train", "ms"))
    out += [
        (f, "train", "ms/clip") for f in ("zoo.run_graph", "zoo.backward_graph", "zoo.forward_batch")
    ]
    out += [(f"kernels.{k}", "train", "ms/clip") for k in _FORWARD + _BACKWARD]
    out += [(f"kernels.{k}", "train", "MAC/s") for k in MAC_KINDS]

    out += [
        (f, "setup", "ms")
        for f in ("zoo.load_model", "quantize.load_quantized", "quantize.fold_batch_norm")
    ]
    return out


def metric_name(function, phase, unit):
    suffix = {"ms": "ms", "ms/clip": "ms_per_clip", "MAC/s": "mac_per_s"}[unit]
    return f"{function}.{phase}.{suffix}"


PER_LAYER = [(metric_name(f, p, u), u) for f, p, u in _spec()]


class Tracer:
    """Wraps module attributes with span recorders; ``phase`` tags new spans.

    A span is (name, phase, start, end, parent, root, size): ``parent`` and
    ``root`` index into ``spans`` (-1 for none), so the spans of one
    operation share ``root``. ``size`` is the batch size of a
    ``zoo.run_graph`` call and None elsewhere.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._originals = []

    def install(self):
        """Wrap the TRACED attributes and every public function of tinyasc.kernels."""
        kernels = importlib.import_module("tinyasc.kernels")
        public = tuple(
            sorted(
                n
                for n, f in vars(kernels).items()
                if callable(f) and not n.startswith("_") and getattr(f, "__module__", "") == kernels.__name__
            )
        )
        for mod_name, attrs in dict(TRACED, kernels=public).items():
            module = importlib.import_module(f"tinyasc.{mod_name}")
            for attr in attrs:
                self._wrap(module, attr, f"{mod_name}.{attr}")

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, module, attr, name):
        fn = getattr(module, attr)
        sized = name == "zoo.run_graph"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = args[1].shape[0] if sized else None
            with self.span(name, size):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))

    def span(self, name, size=None):
        return _Span(self, name, size)

    def summary(self):
        """Self time per function and phase: {"name|phase": [calls, self_s, size]}.

        ``size`` sums the batch sizes of ``zoo.run_graph`` calls.
        """
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent, root, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, phase, start, end, parent, root, size) in enumerate(self.spans):
            row = out.setdefault(f"{MERGED.get(name, name)}|{phase}", [0, 0.0, 0])
            row[0] += 1
            row[1] += (end - start) - child[i]
            row[2] += size or 0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, phase, start, end, parent, root, size) in enumerate(self.spans):
                row = {"id": i, "name": name, "phase": phase, "start": start, "end": end}
                row.update(parent=parent, root=root)
                if size is not None:
                    row["size"] = size
                fh.write(json.dumps(row) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "size", "index", "start")

    def __init__(self, tracer, name, size):
        self.tracer, self.name, self.size = tracer, name, size

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1] if t._stack else -1
        root = t._stack[0] if t._stack else self.index
        t.spans[self.index] = (self.name, t.phase, self.start, end, parent, root, self.size)
        return False


def per_layer_metrics(summary, clips, macs_per_clip):
    """Turn a self-time summary into the PER_LAYER metrics.

    ``clips`` maps phase to clips handled (the denominator of ``ms/clip``);
    ``macs_per_clip`` maps kernel kind to the audit's MACs for one clip;
    forwarded clips per phase come from ``zoo.run_graph`` batch sizes, or
    from the count of ``quantize.quantized_forward`` calls in ``int8``.
    """
    forwarded = {}
    for key, (calls, _, size) in summary.items():
        name, phase = key.split("|")
        if name == "zoo.run_graph":
            forwarded[phase] = forwarded.get(phase, 0) + size
        elif name == "quantize.quantized_forward" and phase == "int8":
            forwarded[phase] = forwarded.get(phase, 0) + calls
    metrics = {}
    for function, phase, unit in _spec():
        calls, self_s, _ = summary.get(f"{function}|{phase}", (0, 0.0, 0))
        if unit == "ms":
            value = 1e3 * self_s / calls if calls else 0.0
        elif unit == "ms/clip":
            value = 1e3 * self_s / clips[phase]
        else:
            kind = function.split(".", 1)[1]
            value = macs_per_clip[kind] * forwarded.get(phase, 0) / self_s if self_s else 0.0
        metrics[metric_name(function, phase, unit)] = {"value": value, "unit": unit}
    return metrics
