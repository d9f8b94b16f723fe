"""Exception types and the helpers shared across the package."""

from typing import Any, Callable


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


def named(source: object, build: Callable[..., Any], /, *args: Any,
          **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``; a :class:`GridFreqError` or
    :class:`MemoryError` raised in it gets ``source: `` before its message
    and keeps its type."""
    try:
        return build(*args, **kwargs)
    except (GridFreqError, MemoryError) as exc:
        raise type(exc)(f"{source}: {exc}") from None
