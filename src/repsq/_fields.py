"""Typed reads of JSON-shaped input: campaign configs and testbed
descriptors.

Each helper accepts exactly the JSON type its field is written with and
raises DomainError naming the field otherwise, so malformed input is
reported as an input error instead of escaping as a TypeError deep
inside a campaign. Python's bool is an int, so every numeric helper
rejects true/false explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def real(value, name: str) -> float:
    """A JSON number, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass  # an integer beyond the float range
    raise DomainError(f"{name} must be a number, got {value!r}")


def real_or_null(value, name: str) -> float | None:
    """A JSON number, as a float, or null, as None."""
    return None if value is None else real(value, name)


def reals(value, name: str) -> np.ndarray:
    """A JSON array of numbers, as a float64 vector."""
    try:
        arr = np.asarray(value) if isinstance(value, (list, tuple)) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of numbers, got {value!r}")
    return arr.astype(np.float64)


def whole(value, name: str) -> int:
    """An integer field: an int, or a float with no fractional part
    (JSON writers may emit 1e6 for a million). Anything else is rejected
    rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DomainError(f"{name} must be an integer, got {value!r}")


def flag(value, name: str) -> bool:
    """A JSON true/false."""
    if not isinstance(value, bool):
        raise DomainError(f"{name} must be true or false, got {value!r}")
    return value


def mapping(value, name: str, keys=None) -> dict:
    """A JSON object; given ``keys``, one that holds no other key."""
    if not isinstance(value, dict):
        raise DomainError(f"{name} must be an object, got {value!r}")
    unread = [] if keys is None else sorted((k for k in value if k not in keys), key=str)
    if unread:
        raise DomainError(f"{name} does not read {unread}")
    return value
