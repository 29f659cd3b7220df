"""Exception types shared across the package, and the one home of the rules
that input from outside the program is checked by: the JSON file's size and
parse (:func:`_read_json`, :func:`_parse_json`, which refuses a repeated key),
the keys of a JSON object (:func:`_require_keys`) and the number rules
(:func:`_is_int_at_least`, :func:`_is_finite_number`, :func:`_check_fps`). A
bool is never a number, and a number is compared with the float range, never
converted to a float, because a JSON integer may exceed every float.

The CLI maps these (plus ``OSError``, ``ValueError`` and ``MemoryError``) to
exit code 2; anything else is treated as an internal error (exit code 1).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
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


def _parse_json(data: bytes, where: str) -> object:
    """Parse a JSON document; raise :class:`FormatError` naming ``where``
    when it is not JSON, nests too deep to parse or repeats a key in one
    object."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise FormatError(f"{where}: duplicate key {key!r}")
        return obj

    try:
        return json.loads(data, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # JSON and Unicode decode errors are ValueErrors
        raise FormatError(f"{where}: not valid JSON: {exc}") from exc


# The largest JSON input read: configs, manifests and weight-container specs
# are a few KB, and a larger one is refused before it is read.
JSON_MAX_BYTES = 1 << 20


def _read_json(path: Path, where: str) -> object:
    """Read and parse the JSON file at ``path``; raise :class:`FormatError`
    naming ``where`` when it holds more than :data:`JSON_MAX_BYTES`, before it
    is read, or is not JSON. ``FileNotFoundError`` passes through."""
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        # A pipe or device reports size 0, so the read is bounded too.
        data = file.read(JSON_MAX_BYTES + 1) if size <= JSON_MAX_BYTES else b""
    if max(size, len(data)) > JSON_MAX_BYTES:
        raise FormatError(f"{where}: JSON file larger than {JSON_MAX_BYTES} bytes")
    return _parse_json(data, where)


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


def _is_int_at_least(value: object, low: int) -> bool:
    """Whether ``value`` is an int ``>= low``; a bool is not an int here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_finite_number(value: object) -> bool:
    """Whether ``value`` is an int or float in the finite float range; a bool is not."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _check_fps(fps: object) -> None:
    """Raise :class:`ValidationError` unless the frame rate ``fps`` is a finite number > 0."""
    if not (_is_finite_number(fps) and fps > 0):
        raise ValidationError(f"fps must be positive and finite, got {fps!r}")
