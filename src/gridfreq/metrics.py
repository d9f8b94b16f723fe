"""Latency-aligned error metrics: the FE/RE tables of a run.

An estimate reported at time t is allowed to describe the state ``latency``
seconds earlier (measurement-chain delay convention), so each estimate
record is paired with linearly interpolated truth at t - latency.  The
first ``skip_s`` seconds after the truth's start are excluded from
table-style metrics; the estimator has not locked yet and the paper-style
tables implicitly start after lock.

The truth side of a pairing depends only on the truth, which is frozen
with read-only arrays, the latency, the skip window and the report times;
the last three are the same for every seed of a ``metrics --scenario``
ensemble and every particle of a ``tune``.  So :func:`align` keeps the
last pairing of each truth object and reuses it for a call with the same
latency, skip window and report times, bit for bit.
"""

from __future__ import annotations

import math
import struct
import weakref
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


@dataclass(frozen=True, eq=False)
class AlignedPairs:
    """Estimate records paired with past-truth values."""

    t: np.ndarray                # report times of the estimates
    f_est: np.ndarray
    rocof_est: np.ndarray
    f_true: np.ndarray           # truth at t - latency
    rocof_true: np.ndarray

    def __len__(self) -> int:
        return self.t.size


# truth -> (latency, skip_s and report times as bytes, keep, t[keep],
# f_true, rocof_true) of its last pairing, the arrays read-only.  Weak keys
# let a truth die with its last caller, and one assignment replaces the
# whole entry, so a concurrent caller sees either the old or the new one
_pairings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def align(est: EstimateSeries, truth: GroundTruth, latency: float,
          skip_s: float = DEFAULT_SKIP_S) -> AlignedPairs:
    """Pair estimate records at t with interpolated truth at t - latency.

    A call whose truth object, latency, skip window and report times match
    the truth's last pairing bit for bit reuses its ``keep`` selection,
    ``t`` and truth values, which are read-only; only the estimate side is
    selected anew.  A pairing that raises is not kept.
    """
    for name, value in (("latency", latency), ("skip_s", skip_s)):
        if not (math.isfinite(value) and value >= 0):
            raise AlignmentError(
                f"{name} must be finite and non-negative, got {value:g}")
    if len(est) == 0:
        raise AlignmentError("estimate series is empty")
    t = est.t()
    key = struct.pack("dd", latency, skip_s) + t.tobytes()
    entry = _pairings.get(truth)
    if entry is None or entry[0] != key:
        tt = truth.times()
        keep = ((t >= tt[0] + skip_s) & (t - latency >= tt[0])
                & (t - latency <= tt[-1]))
        if not keep.any():
            raise AlignmentError(
                f"estimate and truth series do not overlap after latency "
                f"shifting by {latency:g} s and the skip window of "
                f"{skip_s:g} s")
        t = t[keep]
        entry = (key, keep, t,
                 np.interp(t - latency, tt, truth.freq_hz),
                 np.interp(t - latency, tt, truth.rocof_hzps))
        for arr in entry[1:]:
            arr.flags.writeable = False
        _pairings[truth] = entry
    _, keep, t, f_true, rocof_true = entry
    return AlignedPairs(t=t, f_est=est.f_hz()[keep],
                        rocof_est=est.rocof_hzps()[keep],
                        f_true=f_true, rocof_true=rocof_true)


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
