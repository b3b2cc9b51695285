"""Byte mutations of valid WAV, manifest and config files.

Each draw overwrites, inserts or truncates bytes of a valid file, with
positions weighted towards the header. The readers may accept the result or
refuse it with a ``TinyAscError``, and nothing else; the CLI refuses a bad
config file with one ``error:`` line or argparse's exit 2. Draws are
derandomized, so every run sees the same examples.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyasc import cli, data, frontend
from tinyasc.errors import TinyAscError

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
MANIFEST = "filename\tscene_label\naudio/a.wav\tpark\tdev-a\naudio/b.wav\tairport\n"
CONFIG = "# a conv_mixer audit\narch=conv_mixer\nfilters=8,8\nkernel=3\npatch=1\nmax_params=128000\ncount-bn-macs=false\n"


@st.composite
def mutations(draw, good):
    """``good`` with one to three overwrites, inserts or truncations, each
    placed in the first 64 bytes half of the time."""
    blob = bytearray(good)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(st.integers(0, min(64, len(blob))), st.integers(0, len(blob))))
        op = draw(st.sampled_from(["overwrite", "insert", "truncate"]))
        if op == "truncate":
            del blob[at:]
            continue
        new = draw(st.binary(min_size=1, max_size=8))
        blob[at : at + (len(new) if op == "overwrite" else 0)] = new
    return bytes(blob)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid files, and a path for the mutated ones."""
    root = tmp_path_factory.mktemp("mutations")
    t = np.arange(4410) / 44100
    wavs = {}
    for bits in (16, 24):
        path = root / f"good{bits}.wav"
        data.write_wav(path, frontend.Waveform(0.5 * np.sin(2 * np.pi * 440 * t), 44100), bits=bits)
        wavs[bits] = path.read_bytes()
    return wavs, root / "mutated"


@PROPERTY
@given(st.sampled_from([16, 24]), st.data())
def test_a_mutated_wav_reads_or_raises_only_tinyasc_errors(files, bits, draws):
    wavs, path = files
    path.write_bytes(draws.draw(mutations(wavs[bits]), label="wav"))
    try:
        frontend.log_mel(data.read_wav(path))
    except TinyAscError:
        pass


@PROPERTY
@given(mutations(MANIFEST.encode()))
def test_a_mutated_manifest_parses_or_raises_only_tinyasc_errors(files, blob):
    _, path = files
    path.write_bytes(blob)
    try:
        data.parse_manifest(path)
    except TinyAscError:
        pass


@PROPERTY
@given(mutations(CONFIG.encode()))
def test_a_mutated_config_is_a_verdict_one_error_line_or_a_usage_exit(files, blob):
    _, path = files
    path.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--config", str(path), "audit"])
        except SystemExit as exc:
            code = exc.code
            assert code == 2, err.getvalue()
            return
    assert code in (0, 1, 3), err.getvalue()
    if code == 1:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), err.getvalue()
