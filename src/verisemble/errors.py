"""Exception types shared across the package, and the key check of the
JSON objects it reads.

The CLI maps these (plus ``OSError``/``ValueError``) to exit code 2;
anything else is treated as an internal error (exit code 1).
"""

from __future__ import annotations

from typing import Mapping


class VerisembleError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(VerisembleError):
    """A file or byte stream does not conform to its declared format."""


class ValidationError(VerisembleError):
    """Data is well-formed but violates a documented invariant or contract."""


class ShapeError(VerisembleError):
    """Tensor or weight-array shapes do not line up."""


class LoadError(VerisembleError):
    """A referenced resource (frame file, weight file) is missing or unreadable."""


def _require_keys(obj: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    """Raise :class:`FormatError` unless ``obj`` is a JSON object whose keys
    are all in ``allowed`` and include every key in ``required``."""
    if not isinstance(obj, Mapping):
        raise FormatError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")
