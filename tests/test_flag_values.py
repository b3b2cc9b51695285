"""Out-of-range flag values of ``features``, ``train`` and ``audit``.

Each draw gives one flag a value that a check refuses before the command
allocates anything sizeable: the frontend's config, the training config, the
seed's parser or the graph builder. The CLI exits 1 with one ``error:`` line,
or argparse exits 2 with its usage and one ``tinyasc <command>: error:`` line.
In-range values that allocate gigabytes (a large filter count, a tiny hop
fraction, a large power-of-two ``fft_size``) are never drawn. Draws are
derandomized, so every run sees the same examples.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyasc import cli, data
from tinyasc.frontend import Waveform

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
NAN = st.just(math.nan)
NOT_POSITIVE = st.floats(max_value=0.0)
# even or below 1: an odd kernel above 1 is in range, and a large one allocates
BAD_KERNEL = st.integers(max_value=0) | st.integers(2, 10**6).map(lambda k: k - k % 2)
MODEL = {
    "kernel": BAD_KERNEL,
    "patch": st.integers(max_value=0),
    # one count or both below 1, the other small
    "filters": st.tuples(st.integers(max_value=0), st.integers(-8, 8)).flatmap(
        lambda pair: st.sampled_from([pair, pair[::-1]])
    ).map(lambda pair: f"{pair[0]},{pair[1]}"),
}
BAD = {
    "features": {
        # 2048.5 / 44.1 ms is the first window that rounds to more than fft_size 2048
        "window-ms": NOT_POSITIVE | NAN | st.floats(min_value=46.5),
        "hop-fraction": NOT_POSITIVE | st.floats(min_value=1.0) | NAN,
        "fft-size": st.integers(max_value=0) | st.integers(3, 2**40).filter(lambda n: n & (n - 1)),
        "n-mels": st.integers(max_value=0),
        # the default fmax is 22050
        "fmin": st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=22050.0) | NAN,
        "fmax": NOT_POSITIVE | NAN,
        "log-floor": NOT_POSITIVE | NAN,
    },
    "train": {
        "epochs": st.integers(max_value=0),
        "batch-size": st.integers(max_value=0),
        "lr": NOT_POSITIVE | NAN | st.just(math.inf),
        "seed": st.integers(max_value=-1),
        **MODEL,
    },
    "audit": MODEL,
}


@pytest.fixture(scope="module")
def base_args(tmp_path_factory):
    """Each command's valid flags, which the drawn one follows and overrides."""
    wav = tmp_path_factory.mktemp("flags") / "in.wav"
    data.write_wav(wav, Waveform(np.zeros(4410), 44100), bits=16)
    return {
        "features": ["features", "--wav", str(wav)],
        "train": ["train", "--synthetic", "2", "--epochs", "1", "--batch-size", "2", "--filters", "2,2"],
        "audit": ["audit"],
    }


@PROPERTY
@given(st.sampled_from(sorted(BAD)), st.sampled_from(["conv_sep", "conv_mixer"]), st.data())
def test_an_out_of_range_flag_value_is_one_error_line(base_args, command, arch, draws):
    flag = draws.draw(st.sampled_from(sorted(BAD[command])), label="flag")
    value = draws.draw(BAD[command][flag], label=flag)
    args = [*base_args[command], *([] if command == "features" else ["--arch", arch]), f"--{flag}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if "error: " in line]
    assert out.getvalue() == ""
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert code == 2 and len(errors) == 1 and errors[0].startswith(f"tinyasc {command}: error: "), err.getvalue()
