"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError and bad operation inputs
exit 2, InvariantViolation exits 3, trace/file problems exit 4.
"""


class IceCacheError(Exception):
    """Base class for all package errors."""


class ConfigError(IceCacheError):
    """Invalid configuration value."""


class InputError(IceCacheError):
    """Operation called with inputs violating its contract."""


class DegenerateQueryError(InputError):
    """Zero query vector cannot be normalized."""


class ConsistencyError(IceCacheError):
    """Internal mapping out of sync (unknown page or unmapped token)."""


class InvariantViolation(IceCacheError):
    """A runtime invariant check failed."""


class TraceFormatError(IceCacheError):
    """Malformed workload trace file."""
