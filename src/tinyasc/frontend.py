"""Log-Mel spectrogram frontend.

Turns a mono PCM waveform into the frequency-by-time log-Mel grid the
classifiers consume: 40 ms analysis windows with 50% overlap at 44100 Hz,
a 64-band Mel filterbank, and a natural log with an additive floor. One
second of audio yields a 64x51 grid.

Conventions (the analysis parameters the source material leaves open):

* centered framing, signal reflect-padded by half a window per edge, so
  T = 1 + floor(N / hop) for an even window length;
* periodic Hann analysis window;
* FFT size 2048 (next power of two above the 1764-sample window), frames
  zero-padded;
* Slaney Mel scale (linear below 1 kHz, logarithmic above) with
  area-normalized triangular filters, fmin = 0, fmax = 22050;
* natural log, additive floor 1e-10.

All functions are pure; identical inputs give bit-identical outputs.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import AudioFormatError, ConfigError, ShapeError


@dataclass
class Waveform:
    """Mono audio signal: amplitude samples plus their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioFormatError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise AudioFormatError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("waveform contains non-finite samples")

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class FrontendConfig:
    """Analysis parameters for the log-Mel pipeline, checked once when built
    and frozen after, so a config is its own filterbank cache key.

    ``hop_fraction`` is the fraction of the window advanced per frame;
    0.5 means 50% overlap. ``fft_size`` must be a power of two at least
    as large as the window length in samples.
    """

    window_ms: float = 40.0
    hop_fraction: float = 0.5
    n_mels: int = 64
    fft_size: int = 2048
    fmin: float = 0.0
    fmax: float = 22050.0
    log_floor: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.fft_size < 1 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0.0 < self.hop_fraction < 1.0:
            raise ConfigError(f"hop_fraction must be in (0, 1), got {self.hop_fraction}")
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.fmin < 0.0:
            raise ConfigError(f"fmin must be >= 0, got {self.fmin}")
        if not self.fmin < self.fmax:
            raise ConfigError(f"need fmin < fmax, got {self.fmin} >= {self.fmax}")
        if self.log_floor <= 0.0:
            raise ConfigError(f"log_floor must be positive, got {self.log_floor}")
        if self.window_ms <= 0.0:
            raise ConfigError(f"window_ms must be positive, got {self.window_ms}")

    def window_length(self, sample_rate: int) -> int:
        """The window in samples; one that rounds to more than ``fft_size``
        raises ConfigError, compared in float so that no length overflows."""
        length = round(self.window_ms / 1000.0 * sample_rate, 0)
        if length > self.fft_size:
            raise ConfigError(f"window of {self.window_ms} ms at {sample_rate} Hz is longer than fft_size {self.fft_size}")
        return int(length)

    def hop_length(self, sample_rate: int) -> int:
        hop = int(round(self.window_length(sample_rate) * self.hop_fraction))
        return max(hop, 1)


@dataclass
class Spectrogram:
    """Log-Mel energies, frequency-major: ``data[f, t]`` in natural-log units."""

    data: np.ndarray
    n_mels: int
    n_frames: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.n_mels, self.n_frames):
            raise ShapeError(
                f"spectrogram data shape {self.data.shape} != ({self.n_mels}, {self.n_frames})"
            )
        if self.data.size and not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite entries")


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window of the given length."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def frame_signal(waveform: Waveform, config: FrontendConfig) -> np.ndarray:
    """Slice a waveform into overlapping Hann-windowed frames.

    Framing is centered: the signal is reflect-padded by half a window at
    each edge before slicing, which gives 1 + floor(N / hop) frames for an
    even window length. Returns an array of shape (n_frames, window_length).
    """
    if len(waveform) == 0:
        raise AudioFormatError("empty input")
    win = config.window_length(waveform.sample_rate)
    hop = config.hop_length(waveform.sample_rate)
    if win < 1:
        raise ConfigError(f"window of {config.window_ms} ms is shorter than one sample")

    # reflect-pad half a window per edge; numpy repeats the reflection when
    # the pad exceeds the signal length, so sub-window inputs still frame
    pad = win // 2
    padded = np.pad(waveform.samples, pad, mode="reflect") if pad else waveform.samples
    n_frames = 1 + (padded.size - win) // hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop][:n_frames]
    return frames * hann_window(win)


def power_spectrum(frames: np.ndarray, config: FrontendConfig) -> np.ndarray:
    """Squared-magnitude one-sided FFT of each frame.

    Frames are zero-padded to ``fft_size``. Returns an array of shape
    (fft_size // 2 + 1, n_frames): frequency-major like the spectrogram.
    """
    n_fft = config.fft_size
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[1] > n_fft:
        raise ConfigError(f"fft_size {n_fft} smaller than frame length {frames.shape[1]}")
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    return (spectrum.real**2 + spectrum.imag**2).T


# The Slaney Mel scale: _HZ_PER_MEL below _BREAK_HZ, a log step of _LOG_STEP per Mel above
_HZ_PER_MEL = 200.0 / 3.0
_BREAK_HZ = 1000.0
_LOG_STEP = np.log(6.4) / 27.0


def hz_to_mel(freq_hz):
    """Slaney Mel scale: linear below 1 kHz, logarithmic above."""
    freq_hz = np.asarray(freq_hz, dtype=np.float64)
    logarithmic = _BREAK_HZ / _HZ_PER_MEL + np.log(np.maximum(freq_hz, _BREAK_HZ) / _BREAK_HZ) / _LOG_STEP
    return np.where(freq_hz >= _BREAK_HZ, logarithmic, freq_hz / _HZ_PER_MEL)


def mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    break_mel = _BREAK_HZ / _HZ_PER_MEL
    return np.where(mel >= break_mel, _BREAK_HZ * np.exp(_LOG_STEP * (mel - break_mel)), mel * _HZ_PER_MEL)


@functools.lru_cache(maxsize=16)
def mel_filterbank(config: FrontendConfig, sample_rate: int) -> np.ndarray:
    """Triangular Mel filterbank, shape (n_mels, fft_size // 2 + 1).

    Filters are triangles on the Mel-warped axis between fmin and fmax,
    area-normalized (each filter scaled by 2 / bandwidth in Hz). Raises if
    the FFT resolution leaves any band without a positive weight. The bank
    is built once per config and sample rate, and the returned array is
    read-only.
    """
    if config.fmax > sample_rate / 2:
        raise ConfigError(f"fmax {config.fmax} exceeds Nyquist {sample_rate / 2}")
    n_bins = config.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / config.fft_size

    mel_pts = np.linspace(hz_to_mel(config.fmin), hz_to_mel(config.fmax), config.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)

    bank = np.zeros((config.n_mels, n_bins))
    for m in range(config.n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (bin_hz - lo) / max(center - lo, 1e-30)
        falling = (hi - bin_hz) / max(hi - center, 1e-30)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))

    empty = np.flatnonzero(~(bank > 0).any(axis=1))
    if empty.size:
        raise ConfigError(f"empty mel band {empty[0]}: n_mels too large for fft resolution")
    bank.flags.writeable = False
    return bank


def log_mel(waveform: Waveform, config: FrontendConfig = None) -> Spectrogram:
    """Full pipeline: frame, FFT power, Mel projection, natural log with floor."""
    if config is None:
        config = FrontendConfig()
    frames = frame_signal(waveform, config)
    power = power_spectrum(frames, config)
    bank = mel_filterbank(config, waveform.sample_rate)
    data = np.log(bank @ power + config.log_floor)
    return Spectrogram(data=data, n_mels=config.n_mels, n_frames=data.shape[1])


def spectrogram_to_csv(spec: Spectrogram) -> str:
    """CSV dump: one line per Mel band, 9 significant digits per value."""
    lines = [",".join(f"{v:.9g}" for v in row) for row in spec.data]
    return "\n".join(lines) + "\n"
