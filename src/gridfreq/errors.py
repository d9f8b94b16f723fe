"""Exception types, and the count check, shared across the package."""


class GridFreqError(Exception):
    """Base class for all package-specific errors."""


class ScenarioError(GridFreqError):
    """Invalid scenario specification or scenario file."""


class ConfigError(GridFreqError):
    """Invalid estimator configuration."""


class DivergenceError(GridFreqError):
    """The estimator state has diverged; further stepping is rejected."""


class AlignmentError(GridFreqError):
    """Estimate and truth series do not overlap after latency shifting."""


def is_count(value: object) -> bool:
    """Whether ``value`` is an int and not a bool.

    A float count or seed would pass the range checks, then fail later in
    its own way (a backend of the estimator, or numpy's generator).
    """
    return isinstance(value, int) and not isinstance(value, bool)
