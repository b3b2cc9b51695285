"""Audio and metadata ingestion, plus a synthetic desk-scale dataset.

WAV support covers exactly what the source recordings use: RIFF PCM,
mono, 16- or 24-bit little-endian, 44100 Hz. Anything else is rejected
with a descriptive error; in particular there is no resampling, since
silently altering spectra is worse than failing.

Manifests are tab-separated: a header line, then
``filename<TAB>scene_label[<TAB>device_id]`` rows with labels drawn from
the fixed 10-scene vocabulary.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import AudioFormatError, ConfigError, ManifestError, TinyAscError
from .frontend import Spectrogram, Waveform

SCENE_LABELS = (
    "airport",
    "bus",
    "metro",
    "metro_station",
    "park",
    "public_square",
    "shopping_mall",
    "street_pedestrian",
    "street_traffic",
    "tram",
)

_WAVE_FORMAT_PCM = 0x0001
SAMPLE_RATE = 44100


@dataclass
class AudioClip:
    waveform: Waveform
    label: int
    device_id: str = None


@dataclass
class ManifestEntry:
    path: str
    label: str
    device_id: str = None


@dataclass
class DatasetManifest:
    entries: list


def read_wav(path) -> Waveform:
    """Decode a RIFF PCM WAV file into a normalized Waveform.

    16-bit samples divide by 32768 (so -32768 maps to exactly -1.0);
    24-bit frames are decoded from their 3-byte little-endian layout and
    divide by 2**23. A rate other than ``SAMPLE_RATE`` (44100 Hz) is
    rejected, and so is a ``fmt`` chunk whose block_align is not the
    sample's byte count or whose byte_rate is not rate x block_align. A
    ``data`` chunk that declares more bytes than the file holds is rejected,
    not decoded from what is there.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise AudioFormatError(
                    f"{path}: data chunk declares {chunk_size} bytes, only {len(body)} present (truncated file)"
                )
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise AudioFormatError(f"{path}: missing data chunk")
    audio_format, channels, rate, byte_rate, block_align, bits = fmt
    if audio_format != _WAVE_FORMAT_PCM:
        raise AudioFormatError(
            f"{path}: compressed or non-PCM audio (format tag {audio_format}); only PCM is supported"
        )
    if channels != 1:
        raise AudioFormatError(f"{path}: {channels} channels; only mono is supported")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"{path}: sample rate {rate} Hz, expected {SAMPLE_RATE} Hz (no resampling)")
    if bits not in (16, 24):
        raise AudioFormatError(f"{path}: {bits}-bit samples; only 16- and 24-bit PCM are supported")
    if block_align != bits // 8:
        raise AudioFormatError(f"{path}: fmt block_align {block_align}, expected {bits // 8} for mono {bits}-bit PCM")
    if byte_rate != rate * block_align:
        raise AudioFormatError(f"{path}: fmt byte_rate {byte_rate}, expected {rate * block_align} (rate x block_align)")
    if len(data) == 0:
        raise AudioFormatError(f"{path}: zero-length waveform (empty data chunk)")

    if bits == 16:
        if len(data) % 2:
            raise AudioFormatError(f"{path}: data chunk not a whole number of 16-bit frames")
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        if len(data) % 3:
            raise AudioFormatError(f"{path}: data chunk not a whole number of 24-bit frames")
        triples = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        value = triples[:, 0] | (triples[:, 1] << 8) | (triples[:, 2] << 16)
        value = np.where(value >= 1 << 23, value - (1 << 24), value)
        samples = value.astype(np.float64) / float(1 << 23)
    return Waveform(samples=samples, sample_rate=rate)


def write_wav(path, waveform: Waveform, bits=24):
    """Encode a Waveform as RIFF PCM, clamping amplitudes to [-1, 1]."""
    if bits not in (16, 24):
        raise AudioFormatError(f"can only write 16- or 24-bit PCM, not {bits}")
    clipped = np.clip(waveform.samples, -1.0, 1.0)
    full_scale = 1 << (bits - 1)
    codes = np.clip(np.round(clipped * full_scale), -full_scale, full_scale - 1).astype(np.int32)
    if bits == 16:
        payload = codes.astype("<i2").tobytes()
    else:
        u = np.where(codes < 0, codes + (1 << 24), codes).astype(np.uint32)
        payload = np.stack(
            [u & 0xFF, (u >> 8) & 0xFF, (u >> 16) & 0xFF], axis=1
        ).astype(np.uint8).tobytes()
    byte_rate = waveform.sample_rate * bits // 8
    block_align = bits // 8
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(payload)))
        fh.write(b"WAVE")
        fh.write(b"fmt ")
        fh.write(struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, waveform.sample_rate, byte_rate, block_align, bits))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        if len(payload) & 1:
            fh.write(b"\x00")


def read_text(path, error=TinyAscError):
    """The contents of a UTF-8 text file; other bytes raise ``error`` naming
    the file and the byte offset of the first undecodable byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text, invalid byte at offset {exc.start}") from None


def parse_manifest(path) -> DatasetManifest:
    """Parse a tab-separated manifest: header line, then path/label rows."""
    lines = read_text(path, ManifestError).splitlines()
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    entries = []
    seen = set()
    for row_num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ManifestError(f"{path} row {row_num}: missing tab separator")
        rel_path, label = fields[0], fields[1]
        device = fields[2] if len(fields) > 2 and fields[2] else None
        if label not in SCENE_LABELS:
            raise ManifestError(f"{path} row {row_num}: unknown scene label {label!r}")
        if rel_path in seen:
            raise ManifestError(f"{path} row {row_num}: duplicate path {rel_path!r}")
        seen.add(rel_path)
        entries.append(ManifestEntry(path=rel_path, label=label, device_id=device))
    return DatasetManifest(entries=entries)


def load_clips(manifest: DatasetManifest, audio_root):
    """Read every manifest entry into an AudioClip."""
    import os

    clips = []
    for e in manifest.entries:
        wav = read_wav(os.path.join(audio_root, e.path))
        clips.append(AudioClip(waveform=wav, label=SCENE_LABELS.index(e.label), device_id=e.device_id))
    return clips


def _band_periods(n_classes):
    """Distinct frequency-band widths per class, geometrically spaced.

    Adjacent classes are the confusable pairs, so the widths grow by a
    constant factor instead of by one row. Widths wider than the grid
    degenerate to a constant offset; at the default 64 bands the full
    ladder (2..23 rows) stays banded.
    """
    periods = []
    value = 2.0
    while len(periods) < n_classes:
        p = int(round(value))
        if periods and p <= periods[-1]:
            p = periods[-1] + 1
        periods.append(p)
        value *= 1.31
    return periods


def synth_dataset(n_per_class, seed, n_mels=64, n_frames=51, n_classes=10):
    """Deterministic synthetic (Spectrogram, label) pairs, class-balanced.

    Class c is Gaussian noise (standard deviation 0.3) plus a deterministic
    pattern of alternating +/-3 offsets over frequency bands whose width is
    distinct per class. Band width is a translation-invariant texture cue, so
    the classes stay separable through convolution and global pooling. A
    negative count or seed raises ConfigError.
    """
    if n_per_class < 0:
        raise ConfigError(f"n_per_class must be >= 0, got {n_per_class}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    periods = _band_periods(n_classes)
    rows = np.arange(n_mels)
    examples = []
    for c in range(n_classes):
        wave = np.where((rows // periods[c]) % 2 == 0, 3.0, -3.0)[:, None]
        for _ in range(n_per_class):
            data = rng.normal(0.0, 0.3, size=(n_mels, n_frames)) + wave
            examples.append((Spectrogram(data=data, n_mels=n_mels, n_frames=n_frames), c))
    return examples


def synth_examples(n_total, seed, n_mels=64, n_frames=51, n_classes=10):
    """As-balanced-as-possible synthetic set with exactly ``n_total`` examples;
    ``n_total`` below 1 or a negative seed raises ConfigError."""
    if n_total < 1:
        raise ConfigError(f"n_total must be >= 1, got {n_total}")
    base = synth_dataset((n_total + n_classes - 1) // n_classes, seed, n_mels, n_frames, n_classes)
    counts = [n_total // n_classes + (1 if c < n_total % n_classes else 0) for c in range(n_classes)]
    per_class = {c: [ex for ex in base if ex[1] == c] for c in range(n_classes)}
    examples = []
    for c, count in enumerate(counts):
        examples.extend(per_class[c][:count])
    return examples
