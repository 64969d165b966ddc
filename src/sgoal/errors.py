"""Exception hierarchy shared across the package."""


class SgoalError(Exception):
    """Base class for all package errors."""


class UsageError(SgoalError):
    """An operation was called with arguments that violate its contract."""


class ConfigError(SgoalError):
    """An algorithm, kernel, or experiment was assembled inconsistently."""


class NotLumpable(UsageError):
    """A kernel's rows do not lump onto the fitness classes of its space."""


def check_cap(count: int, cap: int, what: str) -> None:
    """Refuse a request for ``count`` of ``what`` above ``cap``, before any work."""
    if count > cap:
        raise UsageError(f"{count:,} {what} are over the cap of {cap:,}")
