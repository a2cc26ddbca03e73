"""Error taxonomy shared across the package.

Each class maps to one CLI exit code; see cli.main.
"""


class ShapeError(ValueError):
    """Dimension mismatch. Messages name the offending axis."""


class NumericDomainError(ValueError):
    """Numeric precondition violated (non-positive variance, empty softmax row, ...)."""


class AudioFormatError(ValueError):
    """Unreadable or unsupported audio input."""


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class WeightsFormatError(ValueError):
    """Malformed weights file or weights/config mismatch."""
