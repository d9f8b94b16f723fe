"""Unit tests for latency-aligned metrics and reconstruction error."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gridfreq import (AlignmentError, EstimatorConfig, MetricsReport,
                      RampProfile, SampleStream, ScenarioSpec, aggregate,
                      align, evaluate, fe_re, reconstruction_error, run,
                      synthesize)
from gridfreq import io as gio
from gridfreq.estimator import ROW_COLUMNS, EstimateSeries
from gridfreq.synth import GroundTruth
from cases import case1
from reference import reference_fe_re

FS = 1200.0


def _series(t, f, rocof):
    rows = np.zeros((len(t), len(ROW_COLUMNS) + 2))
    rows[:, ROW_COLUMNS.index("t")] = t
    rows[:, ROW_COLUMNS.index("f_hz")] = f
    rows[:, ROW_COLUMNS.index("rocof_hzps")] = rocof
    rows[:, ROW_COLUMNS.index("rocof_raw_hzps")] = rocof
    return EstimateSeries(rows=rows)


def _truth(t0, ts, freq, rocof):
    n = len(freq)
    return GroundTruth(t0=t0, ts=ts, freq_hz=freq, rocof_hzps=rocof,
                       amp_pu=np.ones(n), phase_rad=np.zeros(n))


class TestAlign:
    def test_latency_pairing_with_interpolation(self):
        # truth frequency is 50 + t; estimate at t reports truth at t - 0.1
        tt = np.arange(0, 4.0, 0.5)
        truth = _truth(0.0, 0.5, 50.0 + tt, np.ones_like(tt))
        te = np.array([1.0, 1.75, 2.5])
        est = _series(te, 50.0 + (te - 0.1), np.ones_like(te))
        pairs = align(est, truth, 0.1, skip_s=0.0)
        np.testing.assert_allclose(pairs.f_true, 50.0 + te - 0.1, atol=1e-12)
        np.testing.assert_allclose(pairs.f_est - pairs.f_true, 0.0, atol=1e-12)

    def test_skip_excludes_early_records(self):
        tt = np.arange(0, 4.0, 0.5)
        truth = _truth(0.0, 0.5, 50.0 + tt, np.zeros_like(tt))
        te = np.array([0.2, 0.4, 0.6, 0.8])
        est = _series(te, np.full(4, 50.0), np.zeros(4))
        pairs = align(est, truth, 0.1, skip_s=0.5)
        np.testing.assert_allclose(pairs.t, [0.6, 0.8])

    def test_skip_counts_from_the_truth_start(self):
        truth = _truth(100.0, 0.5, np.full(8, 50.0), np.zeros(8))
        te = 100.0 + np.array([0.2, 0.4, 0.6, 0.8])
        est = _series(te, np.full(4, 50.0), np.zeros(4))
        pairs = align(est, truth, 0.1, skip_s=0.5)
        np.testing.assert_allclose(pairs.t, te[2:])

    def test_out_of_span_records_dropped(self):
        tt = np.arange(0, 1.01, 0.5)
        truth = _truth(0.0, 0.5, np.full(3, 50.0), np.zeros(3))
        est = _series([0.05, 0.5, 5.0], [50.0] * 3, [0.0] * 3)
        pairs = align(est, truth, 0.1, skip_s=0.0)
        # t=0.05 falls before the shifted truth span, t=5.0 after it
        np.testing.assert_allclose(pairs.t, [0.5])

    def test_errors(self):
        tt = np.arange(0, 1.01, 0.5)
        truth = _truth(0.0, 0.5, np.full(3, 50.0), np.zeros(3))
        est = _series([0.5], [50.0], [0.0])
        with pytest.raises(AlignmentError):
            align(est, truth, -0.1)
        with pytest.raises(AlignmentError):
            align(_series([], [], []), truth, 0.1)
        with pytest.raises(AlignmentError):
            align(est, truth, 0.1, skip_s=100.0)


class TestFeRe:
    def test_hand_arithmetic(self):
        tt = np.arange(0, 3.01, 0.5)
        truth = _truth(0.0, 0.5, np.full(len(tt), 50.0), np.zeros(len(tt)))
        est = _series([1.0, 2.0], [50.3, 49.9], [0.4, -0.2])
        m = fe_re(align(est, truth, 0.0, skip_s=0.0))
        assert m.max_fe == pytest.approx(0.3)
        assert m.rmse_fe == pytest.approx(math.sqrt((0.09 + 0.01) / 2.0))
        assert m.max_re == pytest.approx(0.4)
        assert m.rmse_re == pytest.approx(math.sqrt((0.16 + 0.04) / 2.0))
        assert m.n_samples == 2

    def test_max_dominates_rmse(self):
        rng = np.random.default_rng(3)
        tt = np.arange(0, 10.0, 0.1)
        truth = _truth(0.0, 0.1, np.full(len(tt), 50.0), np.zeros(len(tt)))
        te = np.arange(1.0, 9.0, 0.25)
        est = _series(te, 50.0 + rng.normal(0, 0.1, len(te)),
                      rng.normal(0, 1.0, len(te)))
        m = evaluate(est, truth, 0.1, skip_s=0.0)
        assert m.max_fe >= m.rmse_fe
        assert m.max_re >= m.rmse_re

    def test_matches_reference_on_real_run(self):
        spec = ScenarioSpec(duration=3.0, base_freq=50.0,
                            profile=RampProfile(t_start=1.0, duration=1.0,
                                                df_hz=-0.5))
        stream, truth = synthesize(spec, FS)
        series = run(stream, EstimatorConfig())
        m = evaluate(series, truth, 0.1)
        ref = reference_fe_re(list(series.t()), list(series.f_hz()),
                              list(series.rocof_hzps()), list(truth.times()),
                              list(truth.freq_hz), list(truth.rocof_hzps),
                              0.1, 0.5)
        assert m.max_fe == pytest.approx(ref[0], rel=1e-9)
        assert m.rmse_fe == pytest.approx(ref[1], rel=1e-9)
        assert m.max_re == pytest.approx(ref[2], rel=1e-9)
        assert m.rmse_re == pytest.approx(ref[3], rel=1e-9)

    def test_report_rows(self):
        m = MetricsReport(max_fe=1.0, rmse_fe=0.5, max_re=2.0, rmse_re=1.5,
                          latency_s=0.1, n_samples=10)
        labels = [name for name, _ in m.rows()]
        assert labels == ["Max (FE) (Hz)", "RMSE (FE) (Hz)",
                          "Max (RE) (Hz/s)", "RMSE (RE) (Hz/s)"]


class TestAggregate:
    def test_mean_and_worst(self):
        a = MetricsReport(0.1, 0.05, 1.0, 0.5, 0.1, 10)
        b = MetricsReport(0.3, 0.01, 2.0, 0.3, 0.1, 20)
        mean, worst = aggregate([a, b])
        assert mean.max_fe == pytest.approx(0.2)
        assert mean.rmse_fe == pytest.approx(0.03)
        assert worst.max_fe == pytest.approx(0.3)
        assert worst.max_re == pytest.approx(2.0)
        assert mean.n_samples == 30

    def test_empty_rejected(self):
        with pytest.raises(AlignmentError):
            aggregate([])


class TestReconstructionError:
    CFG = replace(EstimatorConfig(), report_every=5)

    def test_small_after_lock_on_clean_tone(self):
        stream, _ = synthesize(ScenarioSpec(duration=3.0, base_freq=50.0), FS)
        series = run(stream, self.CFG)
        err = reconstruction_error(series, stream, t_min=1.0)
        assert err < 0.05

    def test_unlocked_start_is_worse(self):
        stream, _ = synthesize(ScenarioSpec(duration=3.0, base_freq=50.0), FS)
        series = run(stream, self.CFG)
        early = reconstruction_error(series, stream, t_min=0.0, t_max=0.2)
        late = reconstruction_error(series, stream, t_min=1.0)
        assert early > late

    @pytest.mark.parametrize("lowpass", [None, 500.0], ids=["raw", "lowpass"])
    def test_estimate_csv_gives_the_same_value(self, tmp_path, lowpass):
        stream, _ = synthesize(case1(0.02, 0, 3.0), FS, seed=0)
        series = run(stream, replace(EstimatorConfig(), obs_lowpass_hz=lowpass))
        gio.write_estimates(tmp_path / "est.csv", series)
        back = gio.read_estimates(tmp_path / "est.csv")
        assert (reconstruction_error(back, stream)
                == reconstruction_error(series, stream))

    def test_default_cadence_on_clean_tone(self):
        # every 12th sample of a 50 Hz tone at 1.2 kHz is a zero crossing;
        # normalising by the report instants alone gave about 4e9 here
        stream, _ = synthesize(ScenarioSpec(duration=2.0, base_freq=50.0), FS)
        series = run(stream, EstimatorConfig())
        assert EstimatorConfig().report_every == 12
        assert reconstruction_error(series, stream, t_min=0.5) < 0.01

    def test_errors(self):
        stream, _ = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0), FS)
        series = run(stream, self.CFG)
        with pytest.raises(AlignmentError):
            reconstruction_error(_series([], [], []), stream)
        with pytest.raises(AlignmentError):
            reconstruction_error(series, stream, t_min=100.0)
        zero = SampleStream(0.0, stream.ts, np.zeros(len(stream)))
        with pytest.raises(AlignmentError):
            reconstruction_error(series, zero)
