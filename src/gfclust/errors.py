"""Shared exception and warning types, and the one rule for config values.

Each config and manifest dataclass checks its values where it is built,
counts and seeds with ``check_integers`` and rates, weights and ratios with
``check_reals``, so a bad value fails with a ``ConfigError`` that names it
before any data is read. ``from_mapping`` builds one from parsed JSON.
"""

import dataclasses
import math
import numbers
from collections.abc import Mapping


class ConfigError(ValueError):
    """A configuration value violates its documented range or shape."""


def check_integers(config, *names: str, low=None) -> None:
    """Raise ``ConfigError`` unless each named field of ``config`` is an
    integer (any ``numbers.Integral`` but ``bool``) of at least ``low``."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value!r}")


def check_reals(config, *names: str, low=-math.inf, high=math.inf, open_low=False,
                sequences=False) -> None:
    """Raise ``ConfigError`` unless each named field of ``config`` is a finite
    real (any ``numbers.Real`` but ``bool``) in ``[low, high]``, or in
    ``(low, high]`` with ``open_low``. With ``sequences`` a field may also be
    a list or tuple of such reals."""
    for name in names:
        value = getattr(config, name)
        items = value if sequences and isinstance(value, (list, tuple)) else (value,)
        for item in items:
            if isinstance(item, bool) or not isinstance(item, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {item!r}")
            if not math.isfinite(item):
                raise ConfigError(f"{name} must be finite, got {item!r}")
            if item < low or item > high or (open_low and item == low):
                bound = (f"be {'>' if open_low else '>='} {low}" if high == math.inf
                         else f"lie in {'(' if open_low else '['}{low}, {high}]")
                raise ConfigError(f"{name} must {bound}, got {item!r}")


def from_mapping(cls, payload, what: str):
    """``cls(**payload)`` for a dataclass ``cls``, once ``payload`` is known to
    be a mapping with no key that is not a field of ``cls`` and every field
    that has no default; ``what`` names the payload in the error."""
    if not isinstance(payload, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {type(payload).__name__}")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    unknown = sorted(str(key) for key in payload if key not in names)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in payload
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{what} is missing fields: {', '.join(missing)}")
    return cls(**payload)


class DivergenceError(RuntimeError):
    """Training produced a non-finite quantity.

    ``last_epoch`` is the last epoch whose loss was still finite (-1 if the
    very first evaluation already diverged). ``report`` is None until the
    error leaves training, which sets it to the partial ``TrainReport``: the
    pretraining and epoch records so far, with ``final`` None.
    """

    def __init__(self, message: str, last_epoch: int = -1):
        super().__init__(message)
        self.last_epoch = last_epoch
        self.report = None


class DataRepairWarning(UserWarning):
    """Raised when ingestion repairs a graph (dropped self-loop lines)."""


class NumericsWarning(UserWarning):
    """Raised when a numerical guard kicked in (clamped log, dropped column, ...)."""
