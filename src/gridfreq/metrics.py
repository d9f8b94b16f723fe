"""Latency-aligned error metrics: the FE/RE tables of a run.

An estimate reported at time t is allowed to describe the state ``latency``
seconds earlier (measurement-chain delay convention), so each estimate
record is paired with linearly interpolated truth at t - latency.  The
first ``skip_s`` seconds after the truth's start are excluded from
table-style metrics; the estimator has not locked yet and the paper-style
tables implicitly start after lock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .estimator import EstimateSeries
from .synth import GroundTruth

DEFAULT_LATENCY_S = 0.1
DEFAULT_SKIP_S = 0.5


@dataclass(frozen=True)
class MetricsReport:
    max_fe: float                # Hz
    rmse_fe: float               # Hz
    max_re: float                # Hz/s
    rmse_re: float               # Hz/s
    latency_s: float
    n_samples: int

    def rows(self) -> list[tuple[str, float]]:
        """Table rows in the conventional label order."""
        return [("Max (FE) (Hz)", self.max_fe),
                ("RMSE (FE) (Hz)", self.rmse_fe),
                ("Max (RE) (Hz/s)", self.max_re),
                ("RMSE (RE) (Hz/s)", self.rmse_re)]


@dataclass(frozen=True)
class AlignedPairs:
    """Estimate records paired with past-truth values."""

    t: np.ndarray                # report times of the estimates
    f_est: np.ndarray
    rocof_est: np.ndarray
    f_true: np.ndarray           # truth at t - latency
    rocof_true: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def align(est: EstimateSeries, truth: GroundTruth, latency: float,
          skip_s: float = DEFAULT_SKIP_S) -> AlignedPairs:
    """Pair estimate records at t with interpolated truth at t - latency."""
    if latency < 0:
        raise AlignmentError("latency must be non-negative")
    if len(est) == 0:
        raise AlignmentError("estimate series is empty")
    t = est.t()
    tt = truth.times()
    keep = ((t >= tt[0] + skip_s) & (t - latency >= tt[0])
            & (t - latency <= tt[-1]))
    if not keep.any():
        raise AlignmentError(
            f"estimate and truth series do not overlap after latency "
            f"shifting by {latency:g} s and the skip window of {skip_s:g} s")
    t = t[keep]
    return AlignedPairs(
        t=t,
        f_est=est.f_hz()[keep],
        rocof_est=est.rocof_hzps()[keep],
        f_true=np.interp(t - latency, tt, truth.freq_hz),
        rocof_true=np.interp(t - latency, tt, truth.rocof_hzps),
    )


def evaluate(est: EstimateSeries, truth: GroundTruth,
             latency: float = DEFAULT_LATENCY_S,
             skip_s: float = DEFAULT_SKIP_S) -> MetricsReport:
    """Max and RMSE of the frequency and RoCoF error magnitudes over the
    pairs of :func:`align`."""
    pairs = align(est, truth, latency, skip_s=skip_s)
    fe = np.abs(pairs.f_est - pairs.f_true)
    re = np.abs(pairs.rocof_est - pairs.rocof_true)
    return MetricsReport(
        max_fe=float(fe.max()),
        rmse_fe=float(np.sqrt(np.mean(fe ** 2))),
        max_re=float(re.max()),
        rmse_re=float(np.sqrt(np.mean(re ** 2))),
        latency_s=latency,
        n_samples=len(pairs),
    )


def aggregate(reports: list[MetricsReport]) -> tuple[MetricsReport, MetricsReport]:
    """Mean and worst-case aggregation over a Monte-Carlo seed ensemble."""
    if not reports:
        raise AlignmentError("no reports to aggregate")
    fields = ["max_fe", "rmse_fe", "max_re", "rmse_re"]
    mean_vals = {f: float(np.mean([getattr(r, f) for r in reports])) for f in fields}
    worst_vals = {f: float(max(getattr(r, f) for r in reports)) for f in fields}
    latency = reports[0].latency_s
    n = sum(r.n_samples for r in reports)
    return (MetricsReport(**mean_vals, latency_s=latency, n_samples=n),
            MetricsReport(**worst_vals, latency_s=latency, n_samples=n))
