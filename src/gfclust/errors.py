"""Shared exception and warning types, and the integer check of config counts."""

import numbers


class ConfigError(ValueError):
    """A configuration value violates its documented range or shape."""


def check_integers(config, *names: str) -> None:
    """Raise ``ConfigError`` unless each named field of ``config`` is an
    integer: any ``numbers.Integral`` but ``bool``."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


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
