"""Exception hierarchy shared across the package, and the type check of
JSON-decoded settings that raises its ConfigError."""
from __future__ import annotations

import typing


class TkgAlignError(Exception):
    """Base class for all package errors."""


class ConfigError(TkgAlignError):
    """Invalid configuration value or infeasible request."""


class DatasetError(TkgAlignError):
    """Dataset directory is missing files or otherwise unusable."""


class ParseError(DatasetError):
    """A dataset file failed to parse; carries file and line context."""

    def __init__(self, file: str, line: int, message: str):
        self.file = file
        self.line = line
        super().__init__(f"{file}:{line}: {message}")


class GraphError(TkgAlignError):
    """Graph-level invariant violation (dangling id, bad range, ...)."""


class NumericsError(TkgAlignError):
    """Numerical failure in the tensor layer or optimizer."""


class DegenerateEmbeddingError(NumericsError):
    """A row that must be normalized has (near-)zero norm."""


class NonFiniteError(NumericsError):
    """NaN or Inf encountered where finite values are required."""


class TrainingDivergedError(TkgAlignError):
    """Loss became non-finite; carries the epoch it happened in."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}")


def require_field_types(cls: type, values: dict, where: str) -> None:
    """Raise a ConfigError naming the first key of ``values`` whose value has
    another type than dataclass ``cls`` declares for that field.

    The values come from JSON, which decodes to bool, int, float, str, list
    and dict. bool is an int subclass in Python, so the check is by exact
    type; a float field also takes an int.
    """
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        want = hints[key]
        if type(value) is not want and not (want is float and type(value) is int):
            raise ConfigError(f"{where}: {key!r} must be {want.__name__}, got {value!r}")
