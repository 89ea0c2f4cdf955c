"""Exception types shared across the package."""


class StreamRegError(Exception):
    """Base class for all streamreg errors."""


class DomainError(StreamRegError, ValueError):
    """A basis index or evaluation point is outside its valid range."""


class DegenerateDensityError(StreamRegError, ArithmeticError):
    """The clipped density estimate is non-positive everywhere."""


class StateError(StreamRegError, RuntimeError):
    """An operation was requested on a state that cannot serve it yet."""


class IllConditionedSystemError(StreamRegError, ArithmeticError):
    """The penalized system is not SPD or is numerically singular."""


class TuningError(StreamRegError, RuntimeError):
    """Cross-validation could not produce a feasible tuning pair."""


class CheckpointError(StreamRegError, ValueError):
    """A checkpoint record is malformed or inconsistent."""


class NotFoundError(StreamRegError, LookupError):
    """A request names a stream the service does not hold."""


class InputError(StreamRegError, ValueError):
    """A command's input file is malformed, or its flags contradict it."""
