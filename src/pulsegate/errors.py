"""The library's errors, one class per CLI exit code, and the config reader."""

from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints


class PulsegateError(Exception):
    """Base class for all library errors."""


class InvalidInputError(PulsegateError):
    """A parameter, config value or input file is unusable (CLI exit 2)."""


class NumericalError(PulsegateError):
    """A computation diverged, stopped unconverged or met a degenerate signal (CLI exit 3)."""


@contextmanager
def parsing(where):
    """Raise a missing key or malformed value met while parsing `where` as bad input."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot parse {where}: {exc!r}") from exc


def check_keys(payload, allowed, where: str) -> None:
    """Reject a config object that is not a JSON object or holds a key outside `allowed`."""
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    for key in payload:
        if key not in allowed:
            raise InvalidInputError(
                f"unknown key {key!r} in {where} (expected one of {', '.join(sorted(allowed))})")


def _cast(kind, value):
    """`value` as the declared type `kind`; other types pass through."""
    origin, args = get_origin(kind) or kind, get_args(kind)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{value!r} is not a list")
        if args and len(value) != len(args):
            raise ValueError(f"{value!r} does not hold {len(args)} values")
        return tuple(map(_cast, args, value)) if args else tuple(value)
    if origin is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    if origin is bool and not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return origin(value) if origin in (int, float, bool, str) else value


def from_json(cls, payload, where: str, **given):
    """The dataclass `cls` read from the JSON object `payload`.

    Each key names a field, and its value is cast to the field's declared
    type: an int (rejecting a non-integral number), float, bool, str, or a
    tuple from a list, item by item where the tuple declares its item types.
    A field declared as a dataclass is read from a nested object.  A missing
    key keeps the field's default, and the `given` fields come from the caller.
    """
    check_keys(payload, {f.name for f in fields(cls)} - given.keys(), where)
    types = get_type_hints(cls)
    values = dict(given)
    for key, value in payload.items():
        with parsing(f"{key!r} in {where}"):
            values[key] = (from_json(types[key], value, f"section {key!r}")
                           if is_dataclass(types[key]) else _cast(types[key], value))
    with parsing(where):
        return cls(**values)
