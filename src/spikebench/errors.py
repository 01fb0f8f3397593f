"""Exception types for the simulator and its tools, the rule-row
formatter every input check goes through, and the input-file reader."""

import math
from numbers import Integral


class SpikebenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpikebenchError):
    """A configuration failed validation.

    Carries one message per offending field in ``problems``.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def rule_problems(rows) -> list:
    """One line ``"{name} must {requirement}, got {value}"`` per row (name,
    value, ok, requirement) whose positive test ``ok`` fails, as nan and
    +-inf fail ``0 < x < math.inf``.  An infinite value reads "must be
    finite"; a value of None (the row names it in ``name``) adds no "got"."""
    return [f"{name} must {'be finite' if isinstance(value, float) and math.isinf(value) else need}"
            + ("" if value is None else f", got {value}")
            for name, value, ok, need in rows if not ok]


def finite(record, *names) -> list:
    """A ``math.isfinite`` row for each float field ``names`` of ``record``."""
    return [(name, getattr(record, name), math.isfinite(getattr(record, name)), "be finite")
            for name in names]


def integer(name, value, ok, need) -> tuple:
    """The rule row (name, value, ok, need) of an int field, which a value
    that is not an integer breaks as "be an integer" whatever ``ok`` says
    (``numbers.Integral``, so numpy's integers pass)."""
    whole = isinstance(value, Integral)
    return name, value, whole and ok, need if whole else "be an integer"


def require(rows, *more) -> None:
    """Raise one ConfigError of the broken ``rows`` and the diagnostics ``more``."""
    problems = rule_problems(rows) + [p for extra in more for p in extra]
    if problems:
        raise ConfigError(problems)


def read_input(path, name: str) -> str:
    """The text of the input file at ``path``; a file that cannot be read
    as text is refused with one diagnostic naming it ``name`` (its flag)."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as err:
        raise ConfigError([f"{name} {path}: {err.strerror}"]) from None
    except UnicodeDecodeError as err:
        raise ConfigError([f"{name} {path}: {err}"]) from None


class NumericalDivergenceError(SpikebenchError):
    """A neuron state became non-finite during integration."""

    def __init__(self, message, neuron=None):
        self.neuron = neuron
        super().__init__(message)


class ContractViolationError(SpikebenchError):
    """An internal contract was violated (e.g. zero-step delay)."""


class FrameCorruptionError(SpikebenchError):
    """A spike frame failed structural validation."""


class ProtocolViolationError(SpikebenchError):
    """A well-formed frame or spike violated exchange protocol rules."""


class ExchangeError(SpikebenchError):
    """A peer failed to deliver its frame (timeout or disconnect)."""

    def __init__(self, message, rank=None, step=None):
        self.rank = rank
        self.step = step
        super().__init__(message)


class CalibrationError(SpikebenchError):
    """Rate calibration exhausted its iteration budget."""

    def __init__(self, message, achieved_hz=None):
        self.achieved_hz = achieved_hz
        super().__init__(message)
