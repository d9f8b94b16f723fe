"""Unit tests for latency-aligned metrics: align, evaluate and aggregate."""

import copy
import math

import numpy as np
import pytest

from gridfreq import (AlignmentError, EstimatorConfig, MetricsReport,
                      RampProfile, ScenarioSpec, aggregate, align, evaluate,
                      run, synthesize)
from gridfreq.estimator import ROW_COLUMNS, EstimateSeries
from gridfreq.synth import GroundTruth
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

    @pytest.mark.parametrize("value", [-5.0, -5e-324, -math.inf, math.inf,
                                       math.nan])
    @pytest.mark.parametrize("name", ["latency", "skip_s"])
    def test_negative_or_non_finite_latency_or_skip_is_refused(self, name,
                                                               value):
        # once read as no skip, or as series that do not overlap; a kept
        # pairing of the truth does not let one through
        truth = _truth(0.0, 0.5, np.full(3, 50.0), np.zeros(3))
        est = _series([0.5], [50.0], [0.0])
        align(est, truth, 0.1, skip_s=0.0)
        args = {"latency": 0.1, "skip_s": 0.0, name: value}
        for fn in (align, evaluate):
            with pytest.raises(AlignmentError, match=rf"^{name} must be "
                               rf"finite and non-negative, got {value:g}$"):
                fn(est, truth, **args)

    def test_truths_streams_and_pairs_compare_by_identity(self):
        # two renders of equal specs: equal arrays, distinct objects
        renders = [synthesize(ScenarioSpec(duration=1.0, base_freq=50.0), FS)
                   for _ in range(2)]
        pairs = [align(run(stream, EstimatorConfig()), truth, 0.1)
                 for stream, truth in renders]
        for a, b in [*zip(*renders), pairs]:
            assert a is not b
            assert a == a and not a == b and a != b
            assert len({a, b, a}) == 2 and hash(a) == hash(a)
            assert a not in [b] and a in [b, a]

    def test_a_truth_over_writable_arrays_keeps_its_values(self):
        # the truth's arrays view rows of a writable base, which the caller
        # then writes: the kept pairing and a fresh one agree
        base = np.empty((4, 1201))
        base[0], base[1], base[2], base[3] = 50.0, 0.0, 1.0, 0.0
        truth = GroundTruth(0.0, 1 / 1200, base[0], base[1], base[2], base[3])
        t = np.arange(12, 1201, 12) / 1200
        est = _series(t, np.full(t.size, 50.0), np.zeros(t.size))
        first = align(est, truth, 0.1).f_true
        base[0] += 1.0
        kept = align(est, truth, 0.1).f_true
        fresh = align(est, copy.copy(truth), 0.1).f_true
        assert (first == 50.0).all() and (kept == 50.0).all()
        assert kept.tobytes() == fresh.tobytes()
        # the caller's arrays stay theirs, writable
        assert base.flags.writeable and not np.shares_memory(
            truth.freq_hz, base)

    @pytest.mark.parametrize("make", [
        lambda a: a,                        # read-only, owning its data
        lambda a: a[::2],                   # a read-only view of one
        lambda a: np.frombuffer(a.tobytes())],     # of bytes
        ids=["array", "view", "bytes"])
    def test_a_truth_over_read_only_arrays_keeps_them(self, make):
        a = np.full(11, 50.0)
        a.flags.writeable = False
        arrays = [make(a) for _ in range(4)]
        truth = GroundTruth(0.0, 1 / 1200, *arrays)
        for name, arr in zip(("freq_hz", "rocof_hzps", "amp_pu",
                              "phase_rad"), arrays):
            assert getattr(truth, name) is arr


class TestFeRe:
    def test_hand_arithmetic(self):
        tt = np.arange(0, 3.01, 0.5)
        truth = _truth(0.0, 0.5, np.full(len(tt), 50.0), np.zeros(len(tt)))
        est = _series([1.0, 2.0], [50.3, 49.9], [0.4, -0.2])
        m = evaluate(est, truth, 0.0, skip_s=0.0)
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

