"""Exception types shared across the toolkit, and the two field checks
that every config and scan runs: a count and a finite real."""

import math

import numpy as np


class TomoflowError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidGeometryError(TomoflowError, ValueError):
    """Acquisition parameters describe a scan that cannot exist or cannot be used."""


class ShapeMismatchError(TomoflowError, ValueError):
    """Array data disagrees with the metadata that is supposed to describe it."""


class DataFormatError(TomoflowError, ValueError):
    """A file failed magic, header, or payload validation."""


class ConfigError(TomoflowError, ValueError):
    """A run configuration failed validation.

    Carries the offending field name so command-line messages can point at it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class DivergenceError(TomoflowError, RuntimeError):
    """An ODE solve produced non-finite values.

    Parameters
    ----------
    step_index : int
        Zero-based index of the integration step that failed.
    max_abs : float
        Largest finite magnitude seen in the state when the solve aborted.
    """

    def __init__(self, step_index: int, max_abs: float, message: str | None = None):
        self.step_index = step_index
        self.max_abs = max_abs
        if message is None:
            message = (
                f"non-finite value during ODE step {step_index} "
                f"(max |state| = {max_abs:.6g})"
            )
        super().__init__(message)


def _count(name: str, value, minimum: int = 1, error=ValueError) -> int:
    """value as an int: a Python or numpy integer >= minimum, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(name: str, value, *, gt=None, ge=None, error=ValueError) -> float:
    """value as a float: a finite int or float, never a bool, > gt and >= ge
    where given."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if gt is not None and not value > gt:
        raise error(f"{name} must be > {gt}, got {value}")
    if ge is not None and not value >= ge:
        raise error(f"{name} must be >= {ge}, got {value}")
    return value
