"""Exception types and machine-readable error codes."""

# Error codes used by ConfigurationError.
SCHEMA_INVALID = "SCHEMA_INVALID"
GRID_MISALIGNED = "GRID_MISALIGNED"
ALPHA_MISMATCH = "ALPHA_MISMATCH"
ATOM_OFF_GRID = "ATOM_OFF_GRID"
PHI_SAMPLES_MISMATCH = "PHI_SAMPLES_MISMATCH"
STEP_TOO_LARGE = "STEP_TOO_LARGE"
BAD_VALUE = "BAD_VALUE"
USAGE = "USAGE"


class ToolError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ToolError):
    """Invalid problem setup: bad schema, mismatched grids or measures.

    Carries a machine-readable ``code`` and optionally the config field
    path that triggered it.
    """

    def __init__(self, code: str, message: str, field: str | None = None):
        self.code = code
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class NumericalError(ToolError):
    """A solver failed: negative second moment, bracket failure, bad kernel moment."""
