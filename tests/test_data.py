"""WAV decoding, manifest parsing, and synthetic dataset tests."""

import struct

import numpy as np
import pytest

from tinyasc import data
from tinyasc.errors import AudioFormatError, ConfigError, ManifestError, TinyAscError
from tinyasc.frontend import Waveform


def _write_raw_wav(
    path, audio_format=1, channels=1, rate=44100, bits=16, payload=b"\x00\x00", block_align=None, byte_rate=None
):
    byte_rate = rate * channels * bits // 8 if byte_rate is None else byte_rate
    block_align = bits // 8 if block_align is None else block_align
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(payload)))
        fh.write(b"WAVE")
        fh.write(b"fmt ")
        fh.write(struct.pack("<IHHIIHH", 16, audio_format, channels, rate, byte_rate, block_align, bits))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)


class TestWavRoundTrip:
    @pytest.mark.parametrize("bits", [16, 24])
    def test_round_trip_within_one_quantization_step(self, tmp_path, bits):
        rng = np.random.default_rng(1)
        wave = Waveform(rng.uniform(-0.99, 0.99, 2000), 44100)
        path = tmp_path / "clip.wav"
        data.write_wav(path, wave, bits=bits)
        back = data.read_wav(path)
        assert back.sample_rate == 44100
        assert len(back) == 2000
        step = 1.0 / (1 << (bits - 1))
        assert np.max(np.abs(back.samples - wave.samples)) <= step

    def test_full_scale_24bit_decodes_near_one(self, tmp_path):
        path = tmp_path / "full.wav"
        data.write_wav(path, Waveform(np.ones(100), 44100), bits=24)
        back = data.read_wav(path)
        assert np.all(np.abs(back.samples - 1.0) <= 1.0 / (1 << 23))

    def test_16bit_min_code_is_exactly_minus_one(self, tmp_path):
        path = tmp_path / "min.wav"
        payload = struct.pack("<h", -32768) * 4
        _write_raw_wav(path, bits=16, payload=payload)
        back = data.read_wav(path)
        np.testing.assert_array_equal(back.samples, -1.0)

    def test_24bit_sign_decoding(self, tmp_path):
        path = tmp_path / "sign.wav"
        # codes: +1, -1, -2^23, 2^23-1
        codes = [1, -1, -(1 << 23), (1 << 23) - 1]
        payload = b"".join(
            struct.pack("<i", c & 0xFFFFFF)[:3] for c in codes
        )
        _write_raw_wav(path, bits=24, payload=payload)
        back = data.read_wav(path)
        np.testing.assert_allclose(
            back.samples, np.array(codes) / (1 << 23), atol=0
        )


class TestWavErrors:
    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_raw_wav(path, channels=2, payload=b"\x00" * 8)
        with pytest.raises(AudioFormatError, match="mono"):
            data.read_wav(path)

    def test_compressed_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        _write_raw_wav(path, audio_format=3, payload=b"\x00" * 8)
        with pytest.raises(AudioFormatError, match="PCM"):
            data.read_wav(path)

    def test_other_rate_rejected(self, tmp_path):
        path = tmp_path / "rate.wav"
        _write_raw_wav(path, rate=22050)
        with pytest.raises(AudioFormatError, match="no resampling"):
            data.read_wav(path)

    def test_read_wav_takes_no_rate(self, tmp_path):
        # 44100 Hz is the one rate; there is no argument to accept another
        path = tmp_path / "rate2.wav"
        _write_raw_wav(path, rate=22050)
        with pytest.raises(TypeError):
            data.read_wav(path, expected_rate=None)

    def test_zero_byte_payload_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        _write_raw_wav(path, payload=b"")
        with pytest.raises(AudioFormatError, match="zero-length"):
            data.read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "bits.wav"
        _write_raw_wav(path, bits=8, payload=b"\x00" * 4)
        with pytest.raises(AudioFormatError, match="16- and 24-bit"):
            data.read_wav(path)

    def test_inconsistent_block_align_rejected(self, tmp_path):
        # a mono 16-bit file that declares 4-byte frames was once decoded as 2-byte ones
        path = tmp_path / "align.wav"
        _write_raw_wav(path, payload=struct.pack("<4h", 1000, 0, -1000, 0), block_align=4)
        with pytest.raises(AudioFormatError, match=r"align\.wav: fmt block_align 4, expected 2 for mono 16-bit PCM$"):
            data.read_wav(path)

    def test_inconsistent_byte_rate_rejected(self, tmp_path):
        # a mono 16-bit 44.1 kHz file declaring 0 bytes per second was once decoded
        path = tmp_path / "rate0.wav"
        _write_raw_wav(path, payload=struct.pack("<2h", 1000, -1000), byte_rate=0)
        problem = r"rate0\.wav: fmt byte_rate 0, expected 88200 \(rate x block_align\)$"
        with pytest.raises(AudioFormatError, match=problem):
            data.read_wav(path)

    def test_data_chunk_longer_than_file_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        _write_raw_wav(path, payload=b"\x01\x00" * 100)
        path.write_bytes(path.read_bytes()[:-50])  # 150 of the declared 200 bytes remain
        with pytest.raises(AudioFormatError, match=r"cut\.wav: data chunk declares 200 bytes, only 150 present"):
            data.read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wave file at all")
        with pytest.raises(AudioFormatError, match="RIFF"):
            data.read_wav(path)


class TestManifest:
    def test_two_row_parse(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("filename\tscene_label\naudio/a.wav\tpark\naudio/b.wav\tairport\n")
        manifest = data.parse_manifest(path)
        assert len(manifest.entries) == 2
        assert manifest.entries[0].label == "park"
        (tmp_path / "audio").mkdir()
        for e in manifest.entries:
            data.write_wav(tmp_path / e.path, Waveform(np.zeros(100), 44100))
        clips = data.load_clips(manifest, tmp_path)
        assert [c.label for c in clips] == [data.SCENE_LABELS.index("park"), data.SCENE_LABELS.index("airport")]

    def test_unknown_label_names_row(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("filename\tscene_label\na.wav\tpark\nb.wav\tspaceport\n")
        with pytest.raises(ManifestError, match="row 3.*spaceport"):
            data.parse_manifest(path)

    def test_missing_tab_names_row(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("filename\tscene_label\na.wav park\n")
        with pytest.raises(ManifestError, match="row 2.*tab"):
            data.parse_manifest(path)

    def test_non_utf8_names_file_and_byte(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"filename\tscene_label\na.wav\tpark\xff\n")
        with pytest.raises(ManifestError, match=r"m\.tsv.*UTF-8.*offset 31"):
            data.parse_manifest(path)

    def test_duplicate_path_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("filename\tscene_label\na.wav\tpark\na.wav\tbus\n")
        with pytest.raises(ManifestError, match="duplicate"):
            data.parse_manifest(path)

    def test_round_trip(self, tmp_path):
        # the three-column text a manifest writer gives, an empty device column read as None
        path = tmp_path / "out.tsv"
        path.write_text("filename\tscene_label\tsource_label\nx/a.wav\tpark\tdev-a\nx/b.wav\ttram\t\n")
        back = data.parse_manifest(path)
        assert [(e.path, e.label, e.device_id) for e in back.entries] == [
            ("x/a.wav", "park", "dev-a"),
            ("x/b.wav", "tram", None),
        ]

    def test_device_id_parsed(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("filename\tscene_label\tsource\na.wav\tpark\tdev-b\n")
        manifest = data.parse_manifest(path)
        assert manifest.entries[0].device_id == "dev-b"


class TestSynthData:
    def test_deterministic_per_seed(self):
        a = data.synth_dataset(3, seed=5)
        b = data.synth_dataset(3, seed=5)
        assert all(np.array_equal(x.data, y.data) and lx == ly
                   for (x, lx), (y, ly) in zip(a, b))

    def test_different_seeds_differ(self):
        a = data.synth_dataset(1, seed=5)
        b = data.synth_dataset(1, seed=6)
        assert not np.array_equal(a[0][0].data, b[0][0].data)

    def test_balanced_counts(self):
        examples = data.synth_dataset(10, seed=0)
        labels = np.array([l for _, l in examples])
        assert len(examples) == 100
        np.testing.assert_array_equal(np.bincount(labels), np.full(10, 10))

    def test_total_count_balanced_split(self):
        examples = data.synth_examples(64, seed=7)
        labels = np.array([l for _, l in examples])
        assert len(examples) == 64
        counts = np.bincount(labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_shapes(self):
        examples = data.synth_dataset(1, seed=2)
        assert all(s.data.shape == (64, 51) for s, _ in examples)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: data.synth_examples(3, seed=-1),
            lambda: data.synth_examples(0, 1),
            lambda: data.synth_dataset(2, seed=-1),
            lambda: data.synth_dataset(-1, seed=1),
        ],
        ids=["examples-seed", "examples-count", "dataset-seed", "dataset-count"],
    )
    def test_negative_seed_or_count_is_a_config_error(self, make):
        # not numpy's "expected non-negative integer" or a plain ValueError
        with pytest.raises(ConfigError, match="must be >= ") as info:
            make()
        assert isinstance(info.value, TinyAscError) and isinstance(info.value, ValueError)

    def test_nearest_class_mean_oracle_over_90pct(self):
        examples = data.synth_dataset(20, seed=3)
        x = np.stack([s.data.ravel() for s, _ in examples])
        y = np.array([l for _, l in examples])
        means = np.stack([x[y == c].mean(axis=0) for c in range(10)])
        pred = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        assert (pred == y).mean() > 0.90
