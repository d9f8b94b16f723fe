"""Reference method: rolling-window RoCoF.

The rolling-window method divides the frequency change over a fixed window
by the window length.  It is exact on affine frequency profiles and
increasingly underestimates peak RoCoF as the window grows, which is the
classical weakness the adaptive observer addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ScenarioError


@dataclass(frozen=True)
class FreqSeries:
    """Uniformly sampled scalar series (frequency in Hz or RoCoF in Hz/s)."""

    t0: float
    ts: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.ts <= 0:
            raise ScenarioError("series interval must be positive")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise ScenarioError("series must contain at least one sample")

    def times(self) -> np.ndarray:
        return self.t0 + self.ts * np.arange(self.values.size)

    def __len__(self) -> int:
        return self.values.size


def rolling_rocof(series: FreqSeries, window: float) -> FreqSeries:
    """RoCoF by finite difference over a trailing window.

    rocof(t) = (f(t) - f(t - window)) / window, emitted at every sample
    where the full window fits; the output is timestamped at the trailing
    edge of the window (the most recent instant).
    """
    if window <= 0:
        raise ScenarioError("window must be positive")
    lag = int(round(window / series.ts))
    if lag < 1 or lag >= len(series):
        raise AlignmentError(
            f"window {window:g} s does not fit the series ({len(series)} samples "
            f"at {series.ts:g} s)"
        )
    span = lag * series.ts
    f = series.values
    rocof = (f[lag:] - f[:-lag]) / span
    return FreqSeries(t0=series.t0 + span, ts=series.ts, values=rocof)
