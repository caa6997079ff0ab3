"""Exception hierarchy shared by all pulsegate modules, and the config parsing checks."""

from contextlib import contextmanager


class PulsegateError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(PulsegateError):
    """A parameter is outside its documented domain (e.g. nfft shorter than the signal)."""


class InvalidInputError(PulsegateError):
    """Input data violates a type invariant (non-finite samples, bad shapes)."""


class InsufficientDataError(PulsegateError):
    """The input is too short for the requested operation."""


class DegenerateInputError(PulsegateError):
    """The input has no usable structure (e.g. zero in-band spectral energy)."""


class DegenerateCorrelationError(DegenerateInputError):
    """Correlation is undefined because one of the signals is constant."""


class InvalidTrainingSetError(PulsegateError):
    """A classifier or estimator was given an unusable training set."""


class CoverageError(PulsegateError):
    """Frame-level evaluation was requested for frames not covered by any window."""


class EmptyComparisonError(PulsegateError):
    """No overlapping valid samples were available for a comparison."""


class NumericalDivergenceError(PulsegateError):
    """An iterative procedure produced non-finite values or stopped unconverged."""


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
        raise InvalidArgumentError(f"{where} must be a JSON object")
    for key in payload:
        if key not in allowed:
            raise InvalidArgumentError(
                f"unknown key {key!r} in {where} (expected one of {', '.join(sorted(allowed))})")
