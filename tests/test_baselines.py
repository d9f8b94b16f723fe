"""Unit tests for the rolling-window baseline."""

import numpy as np
import pytest

from gridfreq import (AlignmentError, EventProfile, FreqSeries, ScenarioError,
                      ScenarioSpec, rolling_rocof, synthesize)
from reference import reference_rolling_rocof

FS = 1200.0


class TestFreqSeries:
    def test_times_and_len(self):
        s = FreqSeries(t0=2.0, ts=0.1, values=[1.0, 2.0])
        np.testing.assert_allclose(s.times(), [2.0, 2.1])
        assert len(s) == 2

    def test_validation(self):
        with pytest.raises(ScenarioError):
            FreqSeries(t0=0.0, ts=-0.1, values=[1.0])
        with pytest.raises(ScenarioError):
            FreqSeries(t0=0.0, ts=0.1, values=[])


class TestRollingRocof:
    def test_exact_on_affine_profile(self):
        t = np.arange(0, 2.0, 1.0 / FS)
        freq = 50.0 + 2.0 * t
        series = FreqSeries(0.0, 1.0 / FS, freq)
        for window in (0.04, 0.1, 0.5):
            out = rolling_rocof(series, window)
            np.testing.assert_allclose(out.values, 2.0, rtol=1e-9)

    def test_trailing_edge_timestamps(self):
        series = FreqSeries(1.0, 0.01, np.arange(100, dtype=float))
        out = rolling_rocof(series, 0.1)
        assert out.times()[0] == pytest.approx(1.1)
        assert len(out) == 90

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        freq = 50.0 + rng.normal(0.0, 0.1, 500)
        series = FreqSeries(0.0, 1.0 / FS, freq)
        out = rolling_rocof(series, 0.05)
        span, ref = reference_rolling_rocof(list(freq), 1.0 / FS, 0.05)
        assert out.times()[0] == pytest.approx(span)
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_peak_underestimation_grows_with_window(self):
        # classical weakness: longer windows smear the RoCoF peak
        spec = ScenarioSpec(duration=4.0, base_freq=50.0,
                            profile=EventProfile(t_start=1.0, peak_dev_hz=0.5,
                                                 peak_rocof_hzps=1.0))
        _, truth = synthesize(spec, FS)
        freq = FreqSeries(truth.t0, truth.ts, truth.freq_hz)
        peaks = [float(np.abs(rolling_rocof(freq, w).values).max())
                 for w in (0.04, 0.1, 0.5)]
        assert peaks[0] > peaks[1] > peaks[2]
        assert all(p < 1.0 for p in peaks)
        assert peaks[0] > 0.95          # short window nearly reaches the peak

    def test_window_validation(self):
        series = FreqSeries(0.0, 0.01, np.zeros(50))
        with pytest.raises(ScenarioError):
            rolling_rocof(series, 0.0)
        with pytest.raises(AlignmentError):
            rolling_rocof(series, 10.0)        # window longer than the series
        with pytest.raises(AlignmentError):
            rolling_rocof(series, 0.001)       # window shorter than one step
