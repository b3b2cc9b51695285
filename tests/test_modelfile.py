"""The two model files' bytes: pinned digests of both codecs, headers whose
fields name other graphs, refused before any weight is allocated, ``.tasq``
tag bytes that disagree with the graph, refused at their byte, files cut
short at any byte, refused by the format's error, and record bytes
overwritten, inserted or cut, each file refused by that error or loaded and
run."""

import contextlib
import hashlib
import io
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_byte_mutations import mutations
from tinyasc import cli, modelfile, quantize, zoo
from tinyasc.errors import GraphBuildError, QuantizationError, ShapeError, TinyAscError

# header fields after the magic, as ``modelfile.HEADER`` packs them
FIELDS = ("version", "arch id", "f1", "f2", "kernel", "patch", "bias", "patch norm", "classes", "h", "w", "c")
WIDTHS = dict(zip(FIELDS, modelfile.HEADER[1:]))
OFFSETS = {f: 4 + struct.calcsize("<" + modelfile.HEADER[1:i + 1]) for i, f in enumerate(FIELDS)}
MIB = 2**20
# the kinds whose kernel a .tasq holds as INT8 codes (tag 1)
INT8_KERNEL_KINDS = {"conv2d", "depthwise_conv2d", "pointwise_conv2d", "dense"}
# conv1's tag: after the TASQ magic, the .tasc magic and header, the layer count
# (<H) and layer 0's tensor count (one byte)
CONV1_TAG = len(modelfile.QMAGIC) + len(modelfile.MAGIC) + struct.calcsize(modelfile.HEADER) + 2 + 1


def _model(arch, use_bias=True):
    build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
    return zoo.init_weights(build(4, 4, 3, input_shape=(8, 8, 1), use_bias=use_bias), seed=3)


def _quantized(model):
    """A QuantizedModel made with no forward pass, so no BLAS rounding reaches
    its bytes: symmetric INT8 kernels of the folded graph, float32 biases and
    norms, and activation params fixed at [-1, 1]."""
    folded = quantize.fold_batch_norm(model)
    payloads, wparams, floats = {}, {}, {}
    for i, layer in enumerate(folded.layers):
        for name in layer.weight_names():
            if name == "w":
                payloads[(i, name)], wparams[(i, name)] = quantize.quantize_tensor(layer.weights[name])
            else:
                floats[(i, name)] = layer.weights[name].astype(np.float32)
    fixed = quantize.affine_params(-1.0, 1.0)
    return quantize.QuantizedModel(folded, payloads, wparams, floats, [fixed] * len(folded.layers), fixed)


def _write(model, suffix, path):
    """Write ``model`` as ``suffix`` to ``path``; returns the loader, its error
    type and where the ``.tasc`` header starts."""
    if suffix == ".tasc":
        zoo.save_model(model, path)
        return zoo.load_model, ShapeError, 0
    quantize.save_quantized(_quantized(model), path)
    return quantize.load_quantized, QuantizationError, 4


def _traced_peak(call):
    """``call()``'s outcome (None or the exception it raised) and its traced peak."""
    tracemalloc.start()
    try:
        call()
        outcome = None
    except Exception as exc:  # the caller checks which
        outcome = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return outcome, peak


# sha256 of the files of ``_model(arch, use_bias)``, pinned when the two formats
# came into one module: a change to any byte of either format shows here
GOLDEN = {
    ("conv_sep", True, ".tasc"): "55f077986223cf17d6dd7869c0f16e218540c846c883fd012f1b835dcdf565da",
    ("conv_sep", True, ".tasq"): "ea88f1552abc4ebf41f23bd8adb5984df892582038856c0c12f98fdd26f0ee7e",
    ("conv_mixer", False, ".tasc"): "351d6665e4fee8506044fc596663429c91152d10d7ae069b5fed795037ab2e4e",
    ("conv_mixer", False, ".tasq"): "acf4ec5ab919503de8df042bce6817ae55306bf9f59f088339545210b6b1901a",
}


@pytest.mark.parametrize("arch, use_bias, suffix", list(GOLDEN))
def test_golden_bytes(tmp_path, arch, use_bias, suffix):
    path = tmp_path / f"m{suffix}"
    load, _, _ = _write(_model(arch, use_bias), suffix, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(arch, use_bias, suffix)]
    load(path)


def test_a_48_48_conv_sep_checkpoint_keeps_the_bytes_of_elu_before_pool(tmp_path):
    # pinned while each module ran its last ELU before its pool: neither layer holds
    # a weight, so pooling first moves no record; norm statistics and biases are random
    model = zoo.init_weights(zoo.build_conv_sep(48, 48), seed=43)
    rng = np.random.default_rng(44)
    for layer in model.layers:
        for name in layer.weight_names():
            if name != "w":
                layer.weights[name] = rng.uniform(0.5, 1.5, layer.weights[name].shape).astype(np.float32)
    path = tmp_path / "m.tasc"
    zoo.save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "81079aae490bdfc576cd1ce31d51534bfec0b547415a3ec4c1ebd49e8dad26e6"


@pytest.mark.parametrize("suffix", [".tasc", ".tasq"])
def test_a_header_kernel_of_1001_is_refused_before_allocating(tmp_path, suffix):
    # the stored conv1 kernel is 3x3; a graph of kernel 1001 held 107 MiB of zero
    # weights (.tasc), or 413 MiB with a deep copy and a fold (.tasq), before the refusal
    path = tmp_path / f"m{suffix}"
    load, error, start = _write(_model("conv_sep"), suffix, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, start + OFFSETS["kernel"], 1001)
    path.write_bytes(bytes(blob))
    outcome, peak = _traced_peak(lambda: load(path))
    problem = "layer 0 weight w: stored shape (3, 3, 1, 4) != expected (1001, 1001, 1, 4)"
    assert isinstance(outcome, error) and re.fullmatch(re.escape(f"{path}: {problem}"), str(outcome))
    assert peak < MIB


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """Each architecture's 4-4 file in both formats: {(arch, suffix): (bytes, load, error, start)}."""
    root = tmp_path_factory.mktemp("good")
    files = {}
    for arch in ("conv_sep", "conv_mixer"):
        for suffix in (".tasc", ".tasq"):
            path = root / f"{arch}{suffix}"
            load, error, start = _write(_model(arch), suffix, path)
            files[(arch, suffix)] = (path.read_bytes(), load, error, start)
    return files, root


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["conv_sep", "conv_mixer"]), st.sampled_from([".tasc", ".tasq"]),
       st.sampled_from(FIELDS), st.data())
def test_any_header_field_value_loads_or_is_refused_cheaply(good_files, arch, suffix, field, data):
    files, root = good_files
    good, load, error, start = files[(arch, suffix)]
    width = WIDTHS[field]
    value = data.draw(st.integers(0, 2 ** (8 * struct.calcsize(width)) - 1), label=field)
    blob = bytearray(good)
    struct.pack_into("<" + width, blob, start + OFFSETS[field], value)
    path = root / f"mutated{suffix}"
    path.write_bytes(bytes(blob))
    outcome, peak = _traced_peak(lambda: load(path))
    assert outcome is None or type(outcome) is error, repr(outcome)
    assert peak < MIB


def _tags(blob, graph):
    """``[(layer index, weight name, tag offset, tag)]`` of each record of a
    ``.tasq``, found by walking the format's layout: per layer a tensor count,
    per record a tag, for tag 1 a ``<dh`` pair, then ndim, the ``<I`` dims and
    the data, one byte an entry for tag 1 and four otherwise."""
    at = CONV1_TAG - 1
    tags = []
    for i, layer in enumerate(graph.layers):
        names = layer.weight_names()
        assert blob[at] == len(names)
        at += 1
        for name in names:
            tag = blob[at]
            tags.append((i, name, at, tag))
            at += 1 + (struct.calcsize(modelfile.PAIR) if tag == 1 else 0)
            ndim = blob[at]
            shape = struct.unpack_from(f"<{ndim}I", blob, at + 1)
            at += 1 + 4 * ndim + int(np.prod(shape)) * (1 if tag == 1 else 4)
    return tags


@pytest.fixture(scope="module")
def tasq_files(tmp_path_factory):
    """Each architecture's 4-4 ``.tasq``, bias on and off: {(arch, bias): (bytes,
    tags, the QuantizedModel written)}."""
    root = tmp_path_factory.mktemp("tags")
    files = {}
    for arch in ("conv_sep", "conv_mixer"):
        for use_bias in (True, False):
            qm = _quantized(_model(arch, use_bias))
            path = root / f"{arch}-{use_bias}.tasq"
            quantize.save_quantized(qm, path)
            blob = path.read_bytes()
            files[(arch, use_bias)] = (blob, _tags(blob, qm.graph), qm)
    return files, root


def test_tag_1_marks_exactly_the_conv_and_dense_kernels(tasq_files):
    files, _ = tasq_files
    for _, tags, qm in files.values():
        assert tags[0][:3] == (0, "w", CONV1_TAG)
        for i, name, _, tag in tags:
            assert tag == (name == "w" and qm.graph.layers[i].kind in INT8_KERNEL_KINDS)
            assert quantize.int8_weight(qm.graph.layers[i], i, name) == tag


@pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
def test_a_conv1_kernel_stored_as_float_is_refused_at_its_tag(tmp_path, tasq_files, arch):
    # such a file loaded, and its model ran conv1 in float on the graph's zero
    # kernel: every logit read 0. A tag of 2 or 255 was read as float32 too
    files, _ = tasq_files
    good, _, qm = files[(arch, True)]

    def record(i, name):
        if (i, name) == (0, "w"):
            return qm.weight_payloads[(i, name)].astype(np.float32), None
        if (i, name) in qm.weight_payloads:
            return qm.weight_payloads[(i, name)], qm.weight_params[(i, name)]
        return qm.float_weights[(i, name)], None

    written = tmp_path / "float-kernel.tasq"
    modelfile.save(written, qm.graph, zoo.ARCHS, record, [qm.input_params, *qm.activation_params])
    cases = [(written, 0)]
    for value in (0, 2, 255):
        path = tmp_path / f"tag{value}.tasq"
        blob = bytearray(good)
        blob[CONV1_TAG] = value
        path.write_bytes(bytes(blob))
        cases.append((path, value))
    for path, value in cases:
        outcome, peak = _traced_peak(lambda: quantize.load_quantized(path))
        problem = f"layer 0 weight w: tag {value}, expected 1, at byte {CONV1_TAG}"
        assert type(outcome) is QuantizationError and str(outcome) == f"{path}: {problem}", repr(outcome)
        assert peak < MIB


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["conv_sep", "conv_mixer"]), st.booleans(), st.data())
def test_any_other_tag_byte_is_refused_at_its_byte(tasq_files, arch, use_bias, data):
    files, root = tasq_files
    good, tags, _ = files[(arch, use_bias)]
    i, name, at, tag = data.draw(st.sampled_from(tags), label="record")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != tag), label="tag")
    blob = bytearray(good)
    blob[at] = value
    path = root / "mutated.tasq"
    path.write_bytes(bytes(blob))
    outcome, peak = _traced_peak(lambda: quantize.load_quantized(path))
    problem = f"layer {i} weight {name}: tag {value}, expected {tag}, at byte {at}"
    assert type(outcome) is QuantizationError and str(outcome) == f"{path}: {problem}", repr(outcome)
    assert peak < MIB


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["conv_sep", "conv_mixer"]), st.sampled_from([".tasc", ".tasq", ".tasq pairs"]), st.data())
def test_mutated_record_bytes_are_refused_or_load_and_predict(good_files, arch, part, data):
    # the bytes after the header: the .tasq layer count, each layer's tensor count,
    # tags, pairs, ndim and shape words and array data, or a .tasq's trailing
    # pairs (the input's, their count and one per layer output) alone
    files, root = good_files
    suffix = part[:5]
    good, load, error, start = files[(arch, suffix)]
    at = start + len(modelfile.MAGIC) + struct.calcsize(modelfile.HEADER)
    if part == ".tasq pairs":
        n_layers = len(quantize.fold_batch_norm(_model(arch)).layers)
        at = len(good) - struct.calcsize(modelfile.PAIR) * (n_layers + 1) - struct.calcsize("<H")
    path = root / f"records{suffix}"
    path.write_bytes(good[:at] + data.draw(mutations(good[at:]), label="records"))
    try:
        loaded = load(path)
    except error:
        return
    graph = loaded.graph if suffix == ".tasq" else loaded
    clip = np.random.default_rng(0).normal(size=(1, *graph.input_shape))
    with np.errstate(all="ignore"):
        try:
            (quantize.predictor(loaded) if suffix == ".tasq" else zoo.predictor(loaded))(clip)
        except TinyAscError:
            pass


def _assert_cut_refused(good_files, arch, suffix, cut):
    """The file cut to its first ``cut`` bytes raises the format's error and
    nothing else; ``tinyasc eval`` on a cut ``.tasc`` prints one error: line."""
    files, root = good_files
    good, load, error, _ = files[(arch, suffix)]
    path = root / f"cut{suffix}"
    path.write_bytes(good[:cut])
    try:
        load(path)
        outcome = None
    except Exception as exc:  # checked below
        outcome = exc
    assert type(outcome) is error, repr(outcome)
    if suffix == ".tasc":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["eval", "--checkpoint", str(path), "--synthetic", "2"])
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue() == f"error: {outcome}\n"


@pytest.mark.parametrize("where", ["start", "header end", "last byte"])
@pytest.mark.parametrize("suffix", [".tasc", ".tasq"])
@pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
def test_a_file_cut_at_its_start_header_end_or_last_byte_is_refused(good_files, arch, suffix, where):
    good, _, _, start = good_files[0][(arch, suffix)]
    header_end = start + len(modelfile.MAGIC) + struct.calcsize(modelfile.HEADER)
    cut = {"start": 0, "header end": header_end, "last byte": len(good) - 1}[where]
    _assert_cut_refused(good_files, arch, suffix, cut)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["conv_sep", "conv_mixer"]), st.sampled_from([".tasc", ".tasq"]), st.data())
def test_a_file_cut_at_any_byte_is_refused(good_files, arch, suffix, data):
    size = len(good_files[0][(arch, suffix)][0])
    _assert_cut_refused(good_files, arch, suffix, data.draw(st.integers(0, size - 1), label="cut"))


@pytest.mark.parametrize(
    "arch, args, field, value",
    [("conv_mixer", (4, 70000), "f2", 70000), ("conv_sep", (70000, 4), "f1", 70000),
     ("conv_sep", (4, 4, 65537), "kernel size", 65537)],
)
@pytest.mark.parametrize("suffix", [".tasc", ".tasq"])
def test_a_header_field_out_of_range_raises_and_writes_no_file(tmp_path, arch, args, field, value, suffix):
    # struct.pack once raised struct.error inside the open file and left it empty
    graph = zoo.build(arch, *args)  # placeholders: no weight bytes
    path = tmp_path / f"m{suffix}"
    problem = f"{field} {value} outside the model file header's range [0, 65535]"
    with pytest.raises(GraphBuildError, match=f"^{re.escape(problem)}$"):
        if suffix == ".tasc":
            zoo.save_model(graph, path)
        else:
            fixed = quantize.affine_params(-1.0, 1.0)
            quantize.save_quantized(quantize.QuantizedModel(graph, {}, {}, {}, [fixed] * len(graph.layers), fixed), path)
    assert not path.exists()
