"""Exception hierarchy shared across the package.

The split mirrors the CLI's exit-code contract: validation problems (bad
inputs, malformed artifacts, unparsable figures) versus model problems
(degenerate statistics, undefined evidence weights, non-finite numbers).
"""


class RepfitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RepfitError):
    """Input data or artifact violates a documented contract."""


class ModelError(RepfitError):
    """The statistical model cannot be evaluated for the given inputs."""


class FigureParseError(ValidationError):
    """A repetition-figure string contains a character other than X or O."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class EmptyComparisonError(ValidationError):
    """A comparison shift leaves the two messages with zero aligned positions."""


class NormalizationError(ValidationError):
    """Corpus text contains a byte the normalization policy rejects."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset

