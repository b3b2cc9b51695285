"""Exception types shared across the package."""


class TinyAscError(Exception):
    """Base class for all package-specific failures."""


class AudioFormatError(TinyAscError):
    """Unsupported or malformed audio input."""


class ManifestError(TinyAscError):
    """Malformed dataset manifest."""


class GraphBuildError(TinyAscError):
    """Invalid hyperparameters or inconsistent layer wiring."""


class ConfigError(TinyAscError, ValueError):
    """A configuration value out of its allowed range.

    A ValueError too, so callers that catch ValueError still see it.
    """


class ShapeError(TinyAscError):
    """Tensor shape incompatible with the operation."""


class TrainingDivergedError(TinyAscError):
    """Non-finite loss or gradient encountered during training.

    Carries the partial epoch history so a caller can inspect how far
    training got before the blow-up. The model passed to ``train`` is
    restored to the last finite checkpoint before this is raised.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class QuantizationError(TinyAscError):
    """Missing calibration data or malformed quantized payload."""
