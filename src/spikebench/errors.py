"""Exception types for the simulator and its tools, and the input-file reader."""


class SpikebenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpikebenchError):
    """A configuration failed validation.

    Carries one message per offending field in ``problems``.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


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
