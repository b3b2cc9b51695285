"""The bytes of both model files; every field is little-endian.

A float ``.tasc`` is the magic ``TASC`` and the ``HEADER`` fields, then per
layer its tensor count (one byte) and one record per weight in storage order.
A quantized ``.tasq`` is the magic ``TASQ``, the whole ``.tasc`` header, the
layer count (``<H``), the same per-layer records of the folded graph, the
input's pair, the pair count (``<H``) and one pair per layer output. A pair is
``<dh``: scale, zero point. A record is an array (ndim as one byte, each
dimension as ``<I``, then the data), float32 in a ``.tasc``; in a ``.tasq`` a
tag byte comes first, 1 for an INT8 weight whose pair precedes its INT8 array
and 0 for a float32 array. Callers pass the architecture tags in id order, a
graph builder and which weights are INT8, so this module imports no graph or
quantizer code.
"""

import struct

import numpy as np

from .errors import GraphBuildError

MAGIC = b"TASC"
QMAGIC = b"TASQ"
FORMAT_VERSION = 1
HEADER = "<HBHHHHBBHHHH"
FIELDS = ("version", "architecture id", "f1", "f2", "kernel size", "patch size", "bias", "patch norm", "classes",
          "input height", "input width", "input channels")  # HEADER's, in order
PAIR = "<dh"


def header(graph, archs):
    """The magic and ``HEADER`` fields of ``graph``; a field outside its width
    raises GraphBuildError naming the field and its range."""
    g = graph
    fields = (FORMAT_VERSION, list(archs).index(g.arch_tag), *g.filters, g.kernel_size, g.patch_size, g.use_bias,
              g.patch_norm, g.n_classes, *g.input_shape)
    for name, code, value in zip(FIELDS, HEADER[1:], fields):
        if not 0 <= value <= (top := 256 ** struct.calcsize(code) - 1):
            raise GraphBuildError(f"{name} {value} outside the model file header's range [0, {top}]")
    return MAGIC + struct.pack(HEADER, *fields)


def save(path, graph, archs, record, pairs=None):
    """Write ``graph`` as a ``.tasc``, or given ``pairs`` (the input's QuantParams,
    then one per layer output) as a ``.tasq``. ``record(layer index, weight
    name)`` gives the array and, for an INT8 record, its QuantParams, else None.
    The header is packed before the file is opened, so a field it cannot hold
    leaves no file."""
    quantized = pairs is not None
    head = header(graph, archs)
    with open(path, "wb") as fh:
        fh.write(QMAGIC + head + struct.pack("<H", len(graph.layers)) if quantized else head)
        for i, layer in enumerate(graph.layers):
            names = layer.weight_names()
            fh.write(struct.pack("<B", len(names)))
            for name in names:
                arr, params = record(i, name)
                fh.write(struct.pack("<B", params is not None) if quantized else b"")
                fh.write(b"" if params is None else struct.pack(PAIR, params.scale, params.zero_point))
                arr = np.ascontiguousarray(arr, dtype="<f4" if params is None else np.int8)
                fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes())
        if quantized:
            first, *rest = pairs
            fh.write(struct.pack(PAIR + "H", first.scale, first.zero_point, len(rest)))
            for p in rest:
                fh.write(struct.pack(PAIR, p.scale, p.zero_point))


def read(path, error, archs, build, params=None, int8=None):
    """``(graph, records, pairs)`` of a ``.tasc``, or given ``params`` (the
    QuantParams class) and ``int8(layer, index, name)`` (the tag each record
    must have) of a ``.tasq``; a fault raises ``error``. ``graph`` is
    ``build(tag, f1, f2, kernel, patch, input shape, classes, bias, patch norm)``
    of the header, made before any record is read, so it must allocate no
    weights. ``records`` holds (layer index, weight name, array, QuantParams or
    None) per record, ``pairs`` the input's QuantParams, then one per layer output."""
    quantized = params is not None
    with open(path, "rb") as fh:
        r = _Reader(fh, error)
        if quantized and (magic := r.read(4)) != QMAGIC:
            r.fail(f"not a quantized model file (magic {magic!r})")
        graph = r.graph(archs, build)
        n = len(graph.layers)
        if quantized and (stored := r.unpack("<H")[0]) != n:
            r.fail(f"stored layer count {stored} != rebuilt graph {n}")
        records = list(r.records(graph, params, int8))
        pairs = None
        if quantized:
            pairs = [r.pair(params, "affine_activation", "input")]
            if (stored := r.unpack("<H")[0]) != n:
                r.fail(f"{stored} activation params stored, {n} expected")
            pairs += [r.pair(params, "affine_activation", f"layer {i} activation") for i in range(n)]
        if fh.read(1):
            r.fail(f"unexpected data after the last record, at byte {r.offset}")
    return graph, records, pairs


class _Reader:
    """Exact-length reads: a short one raises ``error`` naming the file, the
    byte offset and, inside a layer's record, the layer and weight (``where``)."""

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

    def graph(self, archs, build):
        if (magic := self.read(4)) != MAGIC:
            self.fail(f"not a model checkpoint (magic {magic!r})")
        version, arch_id, f1, f2, kernel, patch, use_bias, patch_norm, n_classes, *shape = self.unpack(HEADER)
        if version != FORMAT_VERSION:
            self.fail(f"unsupported checkpoint version {version}")
        if arch_id >= len(archs):
            self.fail(f"unknown architecture id {arch_id}")
        tag = list(archs)[arch_id]
        try:
            return build(tag, f1, f2, kernel, patch, shape, n_classes, bool(use_bias), bool(patch_norm))
        except GraphBuildError as exc:
            self.fail(f"header describes no valid graph: {exc}")

    def records(self, graph, params, int8):
        """Each layer's tensor count checked against ``graph``, then its records."""
        for idx, layer in enumerate(graph.layers):
            names = layer.weight_names()
            self.where = f"layer {idx}"
            (count,) = self.unpack("<B")
            if count != len(names):
                self.fail(f"layer {idx}: {count} tensors stored, graph expects {len(names)}")
            for name in names:
                self.where = f"layer {idx} weight {name}"
                tagged = params is not None and int8(layer, idx, name)
                if params is not None and (tag := self.unpack("<B")[0]) != tagged:
                    self.fail(f"{self.where}: tag {tag}, expected {int(tagged)}, at byte {self.offset - 1}")
                pair = self.pair(params, "symmetric_weight", self.where) if tagged else None
                yield idx, name, self.array(name, layer.weights[name].shape, np.int8 if tagged else "<f4"), pair
        self.where = None

    def array(self, name, expected, dtype):
        """The next stored array, of shape ``expected``. A float32 moving variance
        with a negative entry, which no inference norm accepts, fails at its byte."""
        (ndim,) = self.unpack("<B")
        shape = self.unpack(f"<{ndim}I")
        if shape != expected:
            self.fail(f"{self.where}: stored shape {shape} != expected {expected}")
        arr = np.frombuffer(self.read(int(np.prod(shape)) * np.dtype(dtype).itemsize), dtype).reshape(shape).copy()
        if name == "moving_var" and dtype == "<f4" and np.any(arr < 0):
            channel = int(np.argmax(arr < 0))
            at = self.offset - arr.nbytes + channel * arr.itemsize
            self.fail(f"{self.where}: negative moving variance {arr[channel]} at channel {channel}, at byte {at}")
        return arr

    def pair(self, params, scheme, where):
        """The next pair as ``params(scale, zero point, scheme)``; a pair it
        rejects fails naming ``where`` and the pair's byte offset."""
        offset = self.offset
        scale, zero_point = self.unpack(PAIR)
        try:
            return params(scale, zero_point, scheme)
        except self.error as exc:
            self.fail(f"{where}: {exc}, at byte {offset}")
