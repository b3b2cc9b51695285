"""Frontend tests: framing shape law, FFT power, filterbank, log-Mel pipeline."""

import dataclasses
import re

import numpy as np
import pytest

from tinyasc.errors import AudioFormatError, ConfigError
from tinyasc.frontend import (
    FrontendConfig,
    Waveform,
    frame_signal,
    hann_window,
    hz_to_mel,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    power_spectrum,
    spectrogram_to_csv,
)

SR = 44100


def _wave(n, value=0.0):
    return Waveform(samples=np.full(n, value, dtype=np.float64), sample_rate=SR)


class TestFraming:
    def test_one_second_gives_51_frames_of_1764_samples(self):
        frames = frame_signal(_wave(SR), FrontendConfig())
        assert frames.shape == (51, 1764)

    def test_zero_waveform_gives_zero_frames(self):
        frames = frame_signal(_wave(SR), FrontendConfig())
        assert np.all(frames == 0.0)

    def test_half_window_input_gives_two_frames(self):
        # T = 1 + floor(N / hop) applied by hand: 1 + floor(882 / 882) = 2
        frames = frame_signal(_wave(882), FrontendConfig())
        assert frames.shape[0] == 2

    @pytest.mark.parametrize("n", [882, 22050, 44100, 88200])
    def test_shape_law(self, n):
        frames = frame_signal(_wave(n), FrontendConfig())
        assert frames.shape[0] == 1 + n // 882

    def test_empty_input_rejected(self):
        with pytest.raises(AudioFormatError, match="empty input"):
            frame_signal(_wave(0), FrontendConfig())

    @pytest.mark.parametrize("window_ms", [1e5, 1e9, 1e30, 1e308])
    def test_window_longer_than_fft_size_refused_before_framing(self, window_ms):
        # 1e9 ms once asked np.pad for 329 GiB, 1e30 overflowed its pad width
        # and 1e308 the window's length
        message = f"window of {window_ms} ms at 44100 Hz is longer than fft_size 2048"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            log_mel(_wave(SR), FrontendConfig(window_ms=window_ms))

    def test_window_of_exactly_fft_size_frames(self):
        # 46.44 ms is 2048.004 samples, 2049 / 44.1 ms rounds to 2049
        assert frame_signal(_wave(SR), FrontendConfig(window_ms=46.44)).shape[1] == 2048
        with pytest.raises(ConfigError, match="longer than fft_size 2048"):
            frame_signal(_wave(SR), FrontendConfig(window_ms=2049 / 44.1))

    def test_hann_window_applied(self):
        w = Waveform(samples=np.ones(SR), sample_rate=SR)
        frames = frame_signal(w, FrontendConfig())
        # an interior frame of a constant signal is exactly the window
        np.testing.assert_allclose(frames[25], hann_window(1764), atol=1e-12)


class TestPowerSpectrum:
    def test_zero_frame_gives_zero_column(self):
        p = power_spectrum(np.zeros((3, 1764)), FrontendConfig())
        assert p.shape == (1025, 3)
        assert np.all(p == 0.0)

    def test_bin_centered_sinusoid_peaks_at_its_bin(self):
        cfg = FrontendConfig()
        k = 100
        t = np.arange(cfg.fft_size)
        frame = np.sin(2 * np.pi * k * t / cfg.fft_size)  # rectangular window
        p = power_spectrum(frame[None, :], cfg)
        assert int(np.argmax(p[:, 0])) == k

    def test_parseval_identity(self):
        cfg = FrontendConfig()
        rng = np.random.default_rng(42)
        frame = rng.normal(size=1764)
        padded = np.zeros(cfg.fft_size)
        padded[:1764] = frame
        p = power_spectrum(frame[None, :], cfg)[:, 0]
        # reconstruct the full-spectrum sum from the one-sided bins
        full_sum = p[0] + p[-1] + 2 * p[1:-1].sum()
        np.testing.assert_allclose(full_sum, cfg.fft_size * np.sum(padded**2), rtol=1e-9)

    def test_non_power_of_two_fft_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            power_spectrum(np.zeros((1, 100)), FrontendConfig(fft_size=1000))

    def test_fft_smaller_than_frame_rejected(self):
        with pytest.raises(ValueError, match="smaller than frame"):
            power_spectrum(np.zeros((1, 3000)), FrontendConfig(fft_size=2048))

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        p = power_spectrum(rng.normal(size=(4, 1764)), FrontendConfig())
        assert np.all(p >= 0.0)


class TestMelFilterbank:
    def test_row_count_is_64(self):
        bank = mel_filterbank(FrontendConfig(), SR)
        assert bank.shape == (64, 1025)

    def test_entries_nonnegative(self):
        bank = mel_filterbank(FrontendConfig(), SR)
        assert np.all(bank >= 0.0)

    def test_every_row_has_a_positive_entry(self):
        bank = mel_filterbank(FrontendConfig(), SR)
        assert np.all((bank > 0).any(axis=1))

    def test_center_frequencies_monotone(self):
        cfg = FrontendConfig()
        mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), 66)
        centers = mel_to_hz(mels)[1:-1]
        assert np.all(np.diff(centers) > 0)

    def test_mel_scale_roundtrip(self):
        freqs = np.linspace(0, 22050, 500)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-8)

    def test_too_many_bands_rejected(self):
        with pytest.raises(ValueError, match="empty mel band"):
            mel_filterbank(FrontendConfig(n_mels=2048), SR)

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            mel_filterbank(FrontendConfig(), 22050)

    @pytest.mark.parametrize("fmin", [-5.0, -1e-9])
    def test_negative_fmin_rejected(self, fmin):
        # the first triangle would start below 0 Hz
        with pytest.raises(ConfigError, match=f"fmin must be >= 0, got {fmin}"):
            FrontendConfig(fmin=fmin)

    def test_cache_follows_config_values(self):
        cfg = FrontendConfig()
        bank = mel_filterbank(cfg, SR)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_mels = 32  # a config changed after its checks could skip them
        assert mel_filterbank(FrontendConfig(n_mels=32), SR).shape == (32, 1025)
        assert mel_filterbank(FrontendConfig(), SR) is bank

    def test_cached_bank_is_read_only(self):
        bank = mel_filterbank(FrontendConfig(), SR)
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 1.0
        assert mel_filterbank(FrontendConfig(), SR) is bank


def _oracle_log_mel(samples, cfg, sr):
    """Independent straight-line pipeline kept free of the library's helpers."""
    win = int(round(cfg.window_ms / 1000 * sr))
    hop = int(round(win * cfg.hop_fraction))
    pad = win // 2
    x = np.pad(samples, pad, mode="reflect")
    n_frames = 1 + (len(x) - win) // hop
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    cols = []
    for t in range(n_frames):
        frame = x[t * hop : t * hop + win] * window
        spec = np.fft.rfft(frame, n=cfg.fft_size)
        cols.append(np.abs(spec) ** 2)
    power = np.array(cols).T
    bank = mel_filterbank(cfg, sr)
    return np.log(bank @ power + cfg.log_floor)


class TestLogMel:
    def test_one_second_default_config_is_64x51(self):
        spec = log_mel(_wave(SR), FrontendConfig())
        assert spec.data.shape == (64, 51)
        assert (spec.n_mels, spec.n_frames) == (64, 51)

    def test_silence_maps_to_log_floor(self):
        cfg = FrontendConfig()
        spec = log_mel(_wave(SR), cfg)
        np.testing.assert_allclose(spec.data, np.log(cfg.log_floor), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        cfg = FrontendConfig()
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.5, 0.5, SR)
        spec = log_mel(Waveform(samples, SR), cfg)
        np.testing.assert_allclose(spec.data, _oracle_log_mel(samples, cfg, SR), rtol=1e-10, atol=1e-12)

    def test_doubling_amplitude_raises_entries_toward_log4(self):
        cfg = FrontendConfig()
        rng = np.random.default_rng(4)
        samples = rng.uniform(-0.4, 0.4, SR)
        base = log_mel(Waveform(samples, SR), cfg).data
        scaled = log_mel(Waveform(2.0 * samples, SR), cfg).data
        diff = scaled - base
        assert np.all(diff >= -1e-12)
        assert np.all(diff <= np.log(4.0) + 1e-12)
        # away from the floor the gain is the full log(4)
        loud = base > np.log(cfg.log_floor) + 5.0
        assert loud.any()
        np.testing.assert_allclose(diff[loud], np.log(4.0), atol=1e-6)

    def test_energy_monotonicity(self):
        cfg = FrontendConfig()
        rng = np.random.default_rng(5)
        samples = rng.uniform(-0.3, 0.3, 22050)
        base = log_mel(Waveform(samples, SR), cfg).data
        for gain in (1.5, 3.0, 10.0):
            amplified = log_mel(Waveform(gain * samples, SR), cfg).data
            assert np.all(amplified >= base - 1e-12)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(-1, 1, SR)
        a = log_mel(Waveform(samples, SR), FrontendConfig()).data
        b = log_mel(Waveform(samples.copy(), SR), FrontendConfig()).data
        assert np.array_equal(a, b)

    def test_floor_invariant(self):
        cfg = FrontendConfig()
        rng = np.random.default_rng(8)
        spec = log_mel(Waveform(rng.uniform(-1, 1, 22050), SR), cfg)
        assert np.all(spec.data >= np.log(cfg.log_floor) - 1e-12)


class TestCsvDump:
    def test_shape_and_precision(self):
        rng = np.random.default_rng(9)
        spec = log_mel(Waveform(rng.uniform(-1, 1, SR), SR), FrontendConfig())
        csv = spectrogram_to_csv(spec)
        lines = csv.strip().split("\n")
        assert len(lines) == 64
        assert all(len(line.split(",")) == 51 for line in lines)
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_allclose(parsed, spec.data, rtol=1e-8)
