"""Unit tests for the per-sample adaptive estimator."""

import contextlib
import copy
import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
import weakref
from array import array
from dataclasses import (FrozenInstanceError, asdict, astuple, fields,
                         make_dataclass, replace)
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (ConfigError, DivergenceError, EstimateSeries,
                      EstimatorConfig, EstimatorState, SampleStream,
                      ScenarioSpec, evaluate, init, ise_fitness, run, step,
                      synthesize)
from gridfreq import _native, estimator
from gridfreq.estimator import ROW_COLUMNS
from gridfreq.tuner import DIVERGENCE_PENALTY
from cases import case1, case2
from golden import cases as golden_cases
from golden import compute as golden_compute
from golden import digest as golden_digest
from golden import load as golden_load
from golden import state_digest
from reference import (output_and_gradient, reference_amps_phases,
                       reference_estimator, reference_loop)

FS = 1200.0
TS = 1.0 / FS
# harmonic orders the kernel tests generate: the two shortest unrolls, the
# default 7 and 11, the largest the default ts and f0 allow (Nyquist)
ORDERS = (1, 2, 7, 11)


def _clean_stream(duration: float = 2.0) -> SampleStream:
    stream, _ = synthesize(ScenarioSpec(duration=duration, base_freq=50.0), FS)
    return stream


@contextlib.contextmanager
def _collecting_every(threshold: int | None):
    """The collector's youngest generation collected after ``threshold``
    allocations of tracked objects, or at its own threshold where None."""
    before = gc.get_threshold()
    if threshold is not None:
        gc.set_threshold(threshold)
    try:
        yield
    finally:
        gc.set_threshold(*before)


class TestConfig:
    def test_default_gain_fill(self):
        cfg = EstimatorConfig(n=3)
        assert cfg.gamma_c == (40.0,) * 3
        assert cfg.gamma_s == (40.0,) * 3

    @pytest.mark.parametrize("kwargs", [
        dict(n=0),
        dict(f0=-1.0),
        dict(ts=0.0),
        dict(n=12),                               # 12 * 50 >= 600 (Nyquist)
        dict(gamma_c=(40.0,)),                    # wrong length for n=7
        dict(gamma_dc=-1.0),
        dict(gamma_s=(40.0,) * 6),                # wrong length for n=7
        dict(eta_opt=0.0),
        dict(gamma_dc1=0.0),
        dict(obs_lowpass_hz=-1.0),
        dict(rocof_smooth_window=0),
        dict(report_every=0),
        dict(t_reset_s=0.0),
        dict(obs_lowpass_hz=0.0),
        dict(obs_lowpass_hz=-100.0),
        dict(obs_lowpass_hz=1e-300),              # a low-pass gain of 0.0
        dict(rocof_smooth_window=10 ** 20),       # beyond a Py_ssize_t
        dict(report_every=10 ** 20),
        dict(n=10 ** 20),                         # checked before the gains
        dict(n=-10 ** 20),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("name", ["f0", "ts", "gamma_c", "gamma_s",
                                      "gamma_dc", "gamma_dc1", "eta_opt",
                                      "obs_lowpass_hz", "t_reset_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_rejects_non_finite(self, name, bad):
        value = (40.0,) * 6 + (bad,) if name in ("gamma_c", "gamma_s") else bad
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            replace(EstimatorConfig(), **{name: value})

    def test_defaults_are_valid(self):
        EstimatorConfig().validate()

    @pytest.mark.parametrize("name, value", [("n", 7.0),
                                             ("rocof_smooth_window", 96.0),
                                             ("report_every", 12.0)])
    def test_validation_rejects_non_int_count(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            EstimatorConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            replace(EstimatorConfig(), **{name: value})
        assert len(run(_clean_stream(0.1), EstimatorConfig())) == 10


# Start phases of the wrap tests at both edges of [0, 2*pi): -1.0, -d,
# -0.0, 0.0 and 5e-324 step below, onto and above 0, and the ulps around
# 2*pi - d to either side of 2*pi, one of them exactly onto it.  d is the
# first step's increment: f stays at f0 on that step, since the anchor time
# is 0.  fmod keeps the sign of -1 + d; Python's % does not.
_FIRST_STEP = estimator.TWO_PI * 50.0 * TS
_NEAR_WRAP = [estimator.TWO_PI - _FIRST_STEP
              + k * math.ulp(estimator.TWO_PI - _FIRST_STEP)
              for k in range(-3, 4)]
assert estimator.TWO_PI in [p + _FIRST_STEP for p in _NEAR_WRAP]


class TestInitAndState:
    def test_init_values(self):
        cfg = EstimatorConfig()
        state = init(cfg)
        assert state.f_hz == 50.0
        assert state.phase_acc == 0.0
        assert state.t_anchor == 0.0
        assert state.k == 0
        assert not state.diverged
        assert len(state.a_c) == len(state.a_s) == cfg.n

    def test_coefficients_start_at_zero(self):
        state = init(EstimatorConfig(n=3))
        assert state.a_c == [0.0, 0.0, 0.0]
        assert state.a_s == [0.0, 0.0, 0.0]
        assert state.a_dc == 0.0
        assert state.a_dc1 == 0.0

    @pytest.mark.parametrize("a_c, a_s", [(3, 2), (2, 3), (0, 0)])
    def test_coefficient_length_mismatch_rejected(self, a_c, a_s):
        # the order is fixed when the state is built
        with pytest.raises(ValueError, match=f"got {a_c} and {a_s}$"):
            EstimatorState(a_c=[0.0] * a_c, a_s=[0.0] * a_s, f_hz=50.0)

    @pytest.mark.parametrize("k, error", [
        (10**20, ValueError), (-1, ValueError), (2**53 + 1, ValueError),
        (2.7, TypeError), (True, TypeError)])
    def test_sample_count_the_c_loop_cannot_hold_is_rejected(self, k, error):
        # the C loop reads k from a double into an int64_t
        with pytest.raises(error, match="k must be"):
            EstimatorState([0.0], [0.0], 50.0, k=k)
        state = init(EstimatorConfig())
        with pytest.raises(error, match="k must be"):
            state.k = k
        assert state.k == 0

    def test_largest_sample_count_reads_back_exactly(self):
        assert EstimatorState([0.0], [0.0], 50.0, k=2**53).k == 2**53
        state = init(EstimatorConfig())
        state.k = 2**53
        assert state.k == 2**53

    def test_step_at_the_largest_sample_count_raises(self):
        # beyond 2**53 the loop's k + 1 would round back to k, and no
        # report would come again
        cfg = EstimatorConfig()
        state = init(cfg)
        state.k = 2**53 - 2
        assert step(state, 0.5, cfg) is None
        assert step(state, 0.5, cfg) is None
        before = state_digest(state)
        with pytest.raises(OverflowError, match="k has reached 2\\*\\*53"):
            step(state, 0.5, cfg)
        assert state.k == 2**53 and not state.diverged
        assert state_digest(state) == before

    @pytest.mark.parametrize("p0", [-1.0, -_FIRST_STEP, -0.0, 0.0, 5e-324,
                                    *_NEAR_WRAP, estimator.TWO_PI, 1e300])
    def test_negative_phase_wraps_as_python_mod(self, p0):
        cfg = EstimatorConfig()
        state = init(cfg)
        state.phase_acc = p0
        step(state, 0.5, cfg)
        assert state.f_hz == cfg.f0
        assert repr(state.phase_acc) == repr(
            (p0 + estimator.TWO_PI * state.f_hz * cfg.ts) % estimator.TWO_PI)
        assert 0.0 <= state.phase_acc < estimator.TWO_PI


def _polar(a_s, a_c) -> list[float]:
    """amp_1, phase_1, ..., amp_n, phase_n of the pairs (a_s[i], a_c[i]),
    through polar() of a one-row series."""
    row = [*range(len(ROW_COLUMNS)), *a_c, *a_s]
    return EstimateSeries(np.array([row], float)).polar()[0].tolist()


class TestAmpPhase:
    def test_zero(self):
        assert _polar([0.0], [0.0]) == [0.0, 0.0]

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(1)
        a_s, a_c = rng.normal(0.0, 2.0, (2, 50))
        polar = _polar(a_s, a_c)
        for i, x in enumerate(rng.uniform(-5.0, 5.0, 50)):
            amp, ph = polar[2 * i:2 * i + 2]
            assert a_c[i] * math.sin(x) + a_s[i] * math.cos(x) == (
                pytest.approx(amp * math.sin(x + ph), abs=1e-12))


class TestStepAgainstReference:
    @staticmethod
    def _check(stream, cfg):
        series = run(stream, cfg)
        f_ref, rocof_ref = reference_estimator(
            stream.values, TS, cfg.n, cfg.f0, cfg.gamma_c, cfg.gamma_s,
            cfg.gamma_dc, cfg.gamma_dc1, eta_opt=cfg.eta_opt,
            t_reset=cfg.t_reset_s,
            cutoff_hz=cfg.obs_lowpass_hz)
        assert len(series) == len(stream)
        np.testing.assert_allclose(series.f_hz(), f_ref, atol=1e-9)
        got_raw = np.array([r.rocof_raw_hzps for r in series.records])
        np.testing.assert_allclose(got_raw, rocof_ref, atol=1e-5)

    @staticmethod
    def _noisy_stream():
        stream, _ = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0), FS)
        rng = np.random.default_rng(0)
        return SampleStream(stream.t0, stream.ts,
                            stream.values + rng.normal(0.0, 0.02, len(stream)))

    def test_clean_tone_trace_matches_oracle(self):
        self._check(_clean_stream(2.0),
                    replace(EstimatorConfig(), report_every=1))

    def test_noisy_trace_matches_oracle(self):
        self._check(self._noisy_stream(),
                    replace(EstimatorConfig(), report_every=1))

    @pytest.mark.parametrize("variant", [
        dict(obs_lowpass_hz=400.0),
        dict(t_reset_s=0.5),
        dict(obs_lowpass_hz=400.0, t_reset_s=0.5),
    ], ids=["lowpass", "cap", "lowpass-cap"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_filter_and_anchor_branches_match_oracle(self, variant, noisy):
        stream = self._noisy_stream() if noisy else _clean_stream(2.0)
        self._check(stream, replace(EstimatorConfig(), report_every=1,
                                    **variant))

    def test_residual_shrinks_after_lock(self):
        cfg = EstimatorConfig()
        series = run(_clean_stream(2.0), cfg)
        late = series.residual()[series.t() > 1.0]
        assert float(np.abs(late).max()) < 1e-3


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


class TestResidualLevel:
    """The RMS of a run's residuals against the RMS of its samples."""

    @pytest.mark.parametrize("lowpass", [None, 500.0], ids=["raw", "lowpass"])
    def test_small_after_lock_on_clean_tone(self, lowpass):
        # every 12th sample of a 50 Hz tone at 1.2 kHz is a zero crossing,
        # so the samples' RMS is taken over every sample in the span
        stream = _clean_stream(2.0)
        series = run(stream, replace(EstimatorConfig(),
                                     obs_lowpass_hz=lowpass))
        assert EstimatorConfig().report_every == 12
        late = series.residual()[series.t() >= 0.5]
        assert _rms(late) < 0.01 * _rms(stream.values[stream.times() >= 0.5])

    def test_unlocked_start_is_worse(self):
        series = run(_clean_stream(2.0), EstimatorConfig())
        t, residual = series.t(), series.residual()
        assert _rms(residual[t >= 0.5]) < _rms(residual[t <= 0.2])


class TestReporting:
    def test_report_cadence_and_timestamps(self):
        cfg = EstimatorConfig()
        stream = _clean_stream(1.0)
        series = run(stream, cfg)
        assert len(series) == (len(stream)) // cfg.report_every
        t = series.t()
        assert t[0] == pytest.approx(cfg.report_every * TS)
        np.testing.assert_allclose(np.diff(t), cfg.report_every * TS)

    def test_timestamps_start_at_stream_t0(self):
        cfg = EstimatorConfig()
        stream = _clean_stream(1.0)
        late = SampleStream(100.0, stream.ts, stream.values)
        base, shifted = run(stream, cfg), run(late, cfg)
        k = cfg.report_every * np.arange(1, len(base) + 1)
        np.testing.assert_array_equal(shifted.t(), 100.0 + k * TS)
        np.testing.assert_array_equal(shifted.f_hz(), base.f_hz())

    def test_rocof_is_boxcar_of_raw(self):
        cfg = replace(EstimatorConfig(), report_every=1, rocof_smooth_window=4)
        series = run(_clean_stream(0.1), cfg)
        raw = [r.rocof_raw_hzps for r in series.records]
        for k, rec in enumerate(series.records):
            window = raw[max(0, k - 3):k + 1]
            acc = 0.0
            for v in window:          # left to right, uncompensated
                acc += v
            assert rec.rocof_hzps == acc / len(window)

    def test_amp_phase_fields(self):
        cfg = EstimatorConfig()
        series = run(_clean_stream(2.0), cfg)
        last = series.records[-1]
        assert last.amps[0] == pytest.approx(1.0, abs=0.01)
        assert all(a < 0.01 for a in last.amps[1:])


class TestColumnarSeries:
    def test_columns_are_read_only_views_of_the_rows(self):
        cfg = EstimatorConfig(n=3)
        series = run(_clean_stream(0.5), cfg)
        head = len(ROW_COLUMNS)
        assert series.rows.shape == (len(series), head + 2 * cfg.n)
        for i, name in enumerate(ROW_COLUMNS):
            column = getattr(series, name)()
            assert np.shares_memory(column, series.rows)
            np.testing.assert_array_equal(column, series.rows[:, i])
        np.testing.assert_array_equal(series.a_c(),
                                      series.rows[:, head:head + cfg.n])
        np.testing.assert_array_equal(series.a_s(),
                                      series.rows[:, head + cfg.n:])
        assert (series.eta() == cfg.eta_opt).all()
        with pytest.raises(ValueError, match="read-only"):
            series.f_hz()[0] = 0.0

    @pytest.mark.parametrize("width", [8, 10, 11, 13])
    def test_rows_without_whole_harmonic_pairs_are_rejected(self, width):
        with pytest.raises(ValueError, match=r"10 \+ 2n columns, n >= 1"):
            EstimateSeries(np.zeros((2, width)))

    def test_a_list_of_rows_gives_the_rows_of_the_array(self):
        rows = np.random.default_rng(0).normal(size=(3, 14))
        series = EstimateSeries(rows.tolist())
        assert series.rows.shape == rows.shape
        assert series.rows.tobytes() == rows.tobytes()
        assert EstimateSeries([[0.0] * 12]).n == 1

    @pytest.mark.parametrize("rows", [
        [0.0] * 12, np.zeros((2, 2, 12)), [[0.0] * 12, [0.0] * 14]],
        ids=["1-D", "3-D", "ragged"])
    def test_rows_that_are_not_a_matrix_are_rejected(self, rows):
        with pytest.raises(ValueError):
            EstimateSeries(rows)

    def test_n_is_read_from_the_width(self):
        series = EstimateSeries(np.zeros((2, 12)))
        assert series.n == 1
        assert [f.name for f in fields(EstimateSeries)] == ["rows",
                                                             "diverged_at"]
        with pytest.raises(AttributeError):
            series.n = 2
        # diverged_at is keyword-only, so an old positional n cannot bind
        with pytest.raises(TypeError):
            EstimateSeries(np.zeros((2, 12)), 7)

    def test_records_are_derived_from_the_rows(self):
        cfg = EstimatorConfig(n=2)
        series = run(_clean_stream(0.5), cfg)
        records = series.records
        assert records is not series.records
        records.clear()
        assert len(series.records) == len(series)
        head = len(ROW_COLUMNS)
        for row, rec in zip(series.rows.tolist(), series.records):
            assert rec.eta == cfg.eta_opt
            assert [rec.amps, rec.phases] == list(reference_amps_phases(
                row[head + 2:], row[head:head + 2]))

        # signed zeros, nan and inf: records and polar() give the libm
        # oracle's pairs bit for bit, and a zero pair of either sign is
        # (0.0, 0.0)
        nan, inf = math.nan, math.inf
        pairs = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
                 (nan, 1.0), (-2.0, nan), (inf, nan), (-inf, 3.0),
                 (nan, -inf), (-0.0, 5e-324)]           # (a_s, a_c)
        a_s, a_c = (list(x) for x in zip(*pairs))
        edge = EstimateSeries(
            rows=np.array([[*range(head), *a_c, *a_s]], dtype=float))
        (rec,) = edge.records
        expect = [v for pair in zip(*reference_amps_phases(a_s, a_c))
                  for v in pair]
        assert expect[:8] == [0.0] * 8
        assert all(math.copysign(1.0, v) == 1.0 for v in expect[:8])
        got = [v for pair in zip(rec.amps, rec.phases) for v in pair]
        assert (np.array(got).tobytes() == np.array(expect).tobytes()
                == edge.polar()[0].tobytes())

    def test_c_path_builds_no_record(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-record work on the C path")

        # the amplitude and phase rule is reached only through these
        monkeypatch.setattr(EstimateSeries, "polar", forbidden)
        monkeypatch.setattr(estimator, "EstimateRecord", forbidden)
        stream, truth = synthesize(case1(), FS, seed=0)
        cfg = EstimatorConfig()
        assert evaluate(run(stream, cfg), truth).max_fe < 0.05
        gains = [*cfg.gamma_c, *cfg.gamma_s, cfg.gamma_dc, cfg.gamma_dc1]
        assert ise_fitness(gains, [(stream, truth)], cfg) < DIVERGENCE_PENALTY
        # reading amplitude and phase still needs them
        with pytest.raises(AssertionError, match="per-record work"):
            run(stream, cfg).records


class TestAnchorPolicies:
    def test_saturate_holds_at_cap(self):
        cfg = EstimatorConfig()
        series = run(_clean_stream(1.0), cfg)
        late = [r.t_anchor for r in series.records if r.t > 2 * cfg.t_reset_s]
        assert late
        assert all(v == cfg.t_reset_s for v in late)


class TestDivergence:
    def test_watchdog_trips_and_run_reports_it(self):
        cfg = replace(EstimatorConfig(), eta_opt=1e9)
        stream = _clean_stream(1.0)
        series = run(stream, cfg)
        assert series.diverged_at is not None
        assert series.diverged_at < len(stream)

    def test_step_on_diverged_state_raises(self):
        cfg = replace(EstimatorConfig(), eta_opt=1e9)
        state = init(cfg)
        stream = _clean_stream(1.0)
        for v in stream.values:
            step(state, float(v), cfg)
            if state.diverged:
                break
        assert state.diverged
        with pytest.raises(DivergenceError):
            step(state, 0.0, cfg)

    @pytest.mark.parametrize("gains, values, slot, value", [
        (dict(gamma_dc=1e300), [1e12], "a_dc", math.inf),
        (dict(gamma_dc1=1e308), [0.0, 1e7], "a_dc1", -math.inf)],
        ids=["a_dc", "a_dc1"])
    def test_dc_overflow_with_f_in_band_diverges(self, gains, values, slot,
                                                 value):
        # a_dc and a_dc1 enter no frequency update in the sample that
        # overflows them, so the watchdog checks them itself
        cfg = replace(EstimatorConfig(), **gains)
        k = len(values) - 1
        stream = SampleStream(0.0, cfg.ts, np.array(values))
        _, final = reference_loop(
            values, 0.0, cfg.ts, cfg.n, cfg.f0, cfg.gamma_c, cfg.gamma_s,
            cfg.gamma_dc, cfg.gamma_dc1, cfg.eta_opt, cfg.t_reset_s,
            cfg.report_every, cfg.rocof_smooth_window)
        oracle = EstimatorState(**final)
        assert oracle.diverged and oracle.k == k
        assert run(stream, cfg).diverged_at == k
        state = init(cfg)
        for x in values:
            step(state, x, cfg)
        assert state.diverged and state.k == k
        assert state_digest(state) == state_digest(oracle)
        assert getattr(state, slot) == value
        assert abs(state.f_hz - cfg.f0) <= cfg.f0 / 2
        if k == 0:                     # no frequency update at t = 0
            assert state.f_hz == cfg.f0

    def test_ts_mismatch_rejected(self):
        stream = SampleStream(0.0, 1.0 / 1000.0, np.zeros(10))
        with pytest.raises(ConfigError):
            run(stream, EstimatorConfig())


class TestKernelCache:
    def test_config_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EstimatorConfig().eta_opt = 1.0

    @pytest.mark.parametrize("n", ORDERS)
    def test_new_config_object_every_step_is_bit_identical(self, n):
        cfg = EstimatorConfig(n=n, obs_lowpass_hz=500.0)
        stream = _clean_stream(0.5)
        state = init(cfg)
        records = [rec for x in stream.values.tolist()
                   if (rec := step(state, x, replace(cfg))) is not None]
        assert records == run(stream, cfg).records

    def test_init_binds_the_c_loop_for_every_step(self, monkeypatch):
        # init loads the library and binds the buffer, so no step pays
        # for either
        _native._loaded.cache_clear()
        cfg = EstimatorConfig(n=3)
        state = init(cfg)
        assert _native._loaded.cache_info().currsize == 1
        monkeypatch.setattr(estimator, "_bind", None)
        stream = _clean_stream(0.5)
        records = [rec for x in stream.values.tolist()
                   if (rec := step(state, x, cfg)) is not None]
        assert state.k == len(stream) and not state.diverged
        assert records == run(stream, cfg).records

    @pytest.mark.parametrize("sample", [
        "0.5", None, 0.5j, [0.5], array("d", [0.5]), np.array([0.5]),
        pytest.param(10**400, id="10**400")])      # overflows a double
    def test_sample_that_is_not_a_real_number_is_rejected(self, sample):
        cfg = EstimatorConfig()
        state = init(cfg)
        before = state_digest(state)
        with pytest.raises(TypeError,
                           match=f"got {type(sample).__name__}$"):
            step(state, sample, cfg)
        assert state.k == 0 and state_digest(state) == before
        assert step(state, 0.5, cfg) is None and state.k == 1

    def test_step_records_leak_nothing(self):
        # 120 001 samples of case1, 10 000 reports, each record dropped;
        # then case2 with a collection at every allocation of a tracked
        # object, so collections run while records are half built
        long, _ = synthesize(replace(case1(), duration=100.0), FS, seed=0)
        short, _ = synthesize(case2(), FS, seed=0)
        cfg = EstimatorConfig()
        warm = init(cfg)                   # fills the allocators' free lists
        for x in long.values[:1200].tolist():
            step(warm, x, cfg)
        for stream, threshold, expect in [(long, None, (120_001, 10_000)),
                                          (short, 1, (12_001, 1_000))]:
            values = stream.values.tolist()
            state = init(cfg)
            refs = sys.getrefcount(estimator.EstimateRecord)
            with _collecting_every(threshold):
                tracemalloc.start()
                try:
                    reports = 0
                    for x in values:
                        reports += step(state, x, cfg) is not None
                    grown = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
            leaked = sys.getrefcount(estimator.EstimateRecord) - refs
            assert (len(values), reports) == expect
            assert not state.diverged
            # one leaked float per report would hold 240 KB, one record 2 MB
            assert grown < 16 * 1024
            assert leaked == 0

    def test_step_record_is_a_slotted_dataclass(self):
        # folded with a collection at every allocation of a tracked object,
        # the record among them, so the collector sees records half built
        stream, _ = synthesize(case2(), FS, seed=0)
        cfg = EstimatorConfig()
        with _collecting_every(1):
            state = init(cfg, stream.t0)
            records = [rec for x in stream.values.tolist()
                       if (rec := step(state, x, cfg)) is not None]
        expect = run(stream, cfg).records
        assert len(records) == 1_000
        assert records == expect and repr(records) == repr(expect)
        rec, ref = records[-1], expect[-1]
        assert type(rec) is type(ref) is estimator.EstimateRecord
        assert [f.name for f in fields(rec)] == [
            "t", "f_hz", "rocof_hzps", "rocof_raw_hzps", "amps", "phases",
            "a_dc", "a_dc1", "residual", "eta", "phase_acc", "t_anchor"]
        assert astuple(rec) == astuple(ref) and asdict(rec) == asdict(ref)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec),
                     replace(rec)):
            assert type(twin) is type(rec)
            assert twin == rec and repr(twin) == repr(rec)
        assert replace(rec, f_hz=0.0) != rec
        assert not hasattr(rec, "__dict__") and gc.is_tracked(rec)
        with pytest.raises(TypeError):
            weakref.ref(rec)

    @pytest.mark.parametrize("field", ["t", "t_anchor", "amps", "phases"])
    def test_record_class_without_object_slots_is_refused(self, monkeypatch,
                                                          field):
        names = [f.name for f in fields(estimator.EstimateRecord)]
        if field == "t":                   # a dataclass without slots
            record = make_dataclass("Record", names)
        else:
            record = type("Record", (), {"__slots__": tuple(
                name for name in names if name != field)})
            if field == "amps":            # another class's slot
                record.amps = type("Other", (), {"__slots__": ("amps",)}).amps
            elif field == "phases":        # the slot of another field
                record.phases = record.a_dc
        cfg = EstimatorConfig()
        state = EstimatorState([0.0] * cfg.n, [0.0] * cfg.n, cfg.f0)
        monkeypatch.setattr(estimator, "EstimateRecord", record)
        with pytest.raises(TypeError, match=f"^context: field '{field}' of "
                           f"the record class Record is not an object slot "
                           f"of its own$"):
            step(state, 0.5, cfg)
        # the state is left unbound and unadvanced
        assert state._config is None and state._advance is None
        assert state.k == 0
        monkeypatch.undo()
        assert step(state, 0.5, cfg) is None and state.k == 1

    def test_config_of_another_order_rejected(self):
        state = init(EstimatorConfig())
        with pytest.raises(ConfigError, match="^state has 7 harmonics, "
                                              "config has n = 3$"):
            step(state, 0.0, EstimatorConfig(n=3))

    @pytest.mark.parametrize("size", [3, 9])
    def test_resized_coefficient_list_rejected(self, size):
        # refused at assignment, the state untouched: it steps as a copy
        # that was never assigned to
        cfg = EstimatorConfig()
        values = _clean_stream(0.5).values.tolist()
        state = init(cfg)
        step(state, 0.5, cfg)
        copy = pickle.loads(pickle.dumps(state))
        for name in ("a_c", "a_s"):
            with pytest.raises(ValueError, match=f"state has 7 harmonics, "
                                                 f"got {size} values"):
                setattr(state, name, [1.0] * size)
        assert state_digest(state) == state_digest(copy)
        assert ([repr(step(state, x, cfg)) for x in values]
                == [repr(step(copy, x, cfg)) for x in values])
        assert state_digest(state) == state_digest(copy)

    @pytest.mark.parametrize("name", ["a_c", "a_s"])
    def test_tuple_coefficient_list_steps_like_a_list(self, name):
        # the kernel reads the coefficients and stores new lists, so a tuple
        # in place of a list gives the same records and state, bit for bit
        cfg = EstimatorConfig()
        values = _clean_stream(0.5).values.tolist()[:40]
        lists, tuples = init(cfg), init(cfg)
        for x in values[:5]:
            step(lists, x, cfg)
            step(tuples, x, cfg)
        setattr(tuples, name, tuple(getattr(tuples, name)))
        # the first step after the swap binds a new config object
        got = [repr(step(tuples, x, c)) for x, c in
               zip(values[5:], [replace(cfg)] + [cfg] * 34)]
        assert got == [repr(step(lists, x, cfg)) for x in values[5:]]
        assert got.count("None") < len(got)       # some steps reported
        assert state_digest(tuples) == state_digest(lists)
        assert type(tuples.a_c) is list and type(tuples.a_s) is list

    def test_new_window_keeps_the_newest_values(self):
        cfg = EstimatorConfig()
        values = iter(_clean_stream(0.5).values.tolist())
        state = init(cfg)
        for x in itertools.islice(values, 200):
            step(state, x, cfg)
        before = state.rocof_buf
        assert len(before) == cfg.rocof_smooth_window
        # a shorter window drops the oldest values at once, a longer one
        # keeps them all
        for window, kept in ((10, 9), (200, 10)):
            config = replace(cfg, rocof_smooth_window=window)
            before = state.rocof_buf
            step(state, next(values), config)
            assert state.rocof_buf[:-1] == before[len(before) - kept:]
            while (rec := step(state, next(values), config)) is None:
                pass
            # the boxcar sums the ring left to right, oldest value first
            acc = 0.0
            for v in state.rocof_buf:
                acc += v
            assert rec.rocof_hzps == acc / len(state.rocof_buf)

    @pytest.mark.parametrize("window", [sys.maxsize, 10 ** 12])
    def test_ring_larger_than_memory_is_config_error(self, window):
        # rejected before the ring is asked for, by init and by a step
        config = replace(EstimatorConfig(), rocof_smooth_window=window)
        message = f"rocof_smooth_window = {window} asks for a ring of {window}"
        with pytest.raises(ConfigError, match=message):
            init(config)
        state = init(EstimatorConfig())
        with pytest.raises(ConfigError, match=message):
            step(state, 0.0, config)

    @pytest.mark.parametrize("sample", [
        1, True, np.int64(3), Fraction(1, 2), Decimal("0.5"), np.array(0.5),
        np.float32(0.5)], ids=["int", "bool", "int64", "Fraction", "Decimal",
                               "0-d array", "float32"])
    def test_real_number_sample_steps_like_its_float(self, sample):
        # on a report frame of a locked state, so the record and every
        # state value are compared
        cfg = EstimatorConfig()
        values = _clean_stream(0.5).values.tolist()
        lead = values[:12 * 40 - 1]
        states = init(cfg), init(cfg)
        for state in states:
            for x in lead:
                step(state, x, cfg)
        got = step(states[0], sample, cfg)
        want = step(states[1], float(sample), cfg)
        assert want is not None and repr(got) == repr(want)
        assert state_digest(states[0]) == state_digest(states[1])

    def test_float32_samples_step_as_doubles(self):
        # a step takes its sample as a double, as run() does; float32
        # arithmetic would move the estimate
        cfg = EstimatorConfig()
        stream = _clean_stream(0.5)
        values = stream.values.astype(np.float32)
        state = init(cfg)
        got = [repr(rec) for x in values
               if (rec := step(state, x, cfg)) is not None]
        assert got == [repr(rec) for rec in run(
            SampleStream(stream.t0, stream.ts, values), cfg).records]

    def test_pickled_state_resumes_bit_identically(self):
        cfg = EstimatorConfig()
        values = _clean_stream(0.5).values.tolist()
        state = init(cfg)
        for x in values[:300]:
            step(state, x, cfg)
        copy = pickle.loads(pickle.dumps(state))
        assert ([step(state, x, cfg) for x in values[300:]]
                == [step(copy, x, cfg) for x in values[300:]])


class TestStepMatchesModelKernel:
    """At each order the kernel is output_and_gradient, bit for bit."""

    @staticmethod
    def _mismatches(cfg: EstimatorConfig) -> int:
        stream, _ = synthesize(case1(0.02, 0, duration=2.0), FS, seed=0)
        state = init(cfg)
        mismatches = 0
        for x in stream.values.tolist():
            before = (list(state.a_c), list(state.a_s), state.a_dc,
                      state.a_dc1)
            phase, t = state.phase_acc, state.t_anchor
            rec = step(state, x, cfg)
            out, _ = output_and_gradient(*before, phase, t)
            _, grad = output_and_gradient(state.a_c, state.a_s, state.a_dc,
                                          state.a_dc1, phase, t)
            # the record reports the raw prediction error; the laws are
            # driven by it, low-passed when obs_lowpass_hz is set
            z = rec.residual if cfg.obs_lowpass_hz is None else state.zfilt
            mismatches += rec.residual != x - out
            mismatches += (rec.rocof_raw_hzps
                           != (1.0 / (2.0 * math.pi)) * cfg.eta_opt * z * grad)
        assert state.k == len(stream)
        return mismatches

    @pytest.mark.parametrize("n", ORDERS)
    def test_residual_and_raw_rocof(self, n):
        assert self._mismatches(EstimatorConfig(n=n, report_every=1)) == 0

    @pytest.mark.parametrize("n", ORDERS)
    def test_residual_and_raw_rocof_with_lowpass(self, n):
        cfg = EstimatorConfig(n=n, report_every=1, obs_lowpass_hz=500.0)
        assert self._mismatches(cfg) == 0


class TestGolden:
    """run() and step() reproduce the stored digests."""

    def test_outputs_match_stored_digests(self):
        want = golden_load()
        got = golden_compute()
        assert sorted(got) == sorted(want)
        changed = [name for name in want if got[name] != want[name]]
        assert not changed, f"outputs changed for {changed}"

    def test_divergence_fixtures(self):
        want = golden_load()
        assert want["case1/seed0/x10"]["diverged_at"] == 720
        assert want["case1/seed0/x325"]["diverged_at"] == 4
        assert want["case1/seed0/nan500"]["diverged_at"] == 500


class TestObservationFilter:
    def test_lowpass_still_locks(self):
        cfg = replace(EstimatorConfig(), obs_lowpass_hz=400.0)
        series = run(_clean_stream(3.0), cfg)
        assert series.diverged_at is None
        late = series.f_hz()[series.t() > 1.5]
        assert float(np.abs(late - 50.0).max()) < 0.01


class TestNativeLoader:
    """Building and loading the C library, and the error when it fails."""

    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _native._loaded.cache_clear()
        yield
        _native._loaded.cache_clear()

    @staticmethod
    def _load() -> None:
        """Load the library, failing on any warning while it loads."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _native.library()
            gc.collect()
        assert caught == []

    @pytest.mark.parametrize("fault, cause", [
        ("missing_headers", "Python headers not found: "
                            "{tmp}/include/Python.h"),
        ("missing_cc", "C compiler '{tmp}/no-cc' cannot be run"),
        ("compile_error", "C compiler 'cc' failed on _kernel.c: "),
        ("unwritable_cache", "cache directory {tmp}/file/gridfreq cannot "
                             "be used"),
        ("shared_cache", "cache directory {tmp}/cache/gridfreq is writable "
                         "by other users"),
        ("timeout", "C compiler 'cc' timed out on _kernel.c")],
        ids=["missing_headers", "missing_cc", "compile_error",
             "unwritable_cache", "shared_cache", "timeout"])
    def test_failed_build_raises_naming_its_cause(self, fault, cause,
                                                  monkeypatch, tmp_path):
        spawn = subprocess.run
        if fault == "missing_headers":
            monkeypatch.setattr(_native, "_include_dir",
                                lambda: str(tmp_path / "include"))
        elif fault == "missing_cc":
            monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-cc"))
        elif fault == "compile_error":
            monkeypatch.setattr(_native, "_source",
                                lambda: b"not C\n")
        elif fault == "unwritable_cache":
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        elif fault == "timeout":
            def spawn(args, **kwargs):
                raise subprocess.TimeoutExpired(args, kwargs["timeout"])
        else:
            (tmp_path / "cache" / "gridfreq").mkdir(parents=True)
            (tmp_path / "cache" / "gridfreq").chmod(0o777)
        compiles = []

        def counted(*args, **kwargs):
            compiles.append(args)
            return spawn(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        message = "cannot build gridfreq's C library: " + cause.format(
            tmp=tmp_path)
        stream = _clean_stream(0.1)
        for call in (lambda: init(EstimatorConfig()),
                     lambda: run(stream, EstimatorConfig()),
                     _native.library):
            with pytest.raises(OSError) as raised:
                call()
            assert str(raised.value).startswith(message)
        # once, and cached: a compile that failed runs no second time
        assert len(compiles) == (fault in ("missing_cc", "compile_error",
                                           "timeout"))
        assert not list(tmp_path.glob("cache/gridfreq/*"))

    def test_second_load_reuses_the_cached_object(self, monkeypatch,
                                                  tmp_path):
        spawn, compiles = subprocess.run, []

        def counted(*args, **kwargs):
            compiles.append(args)
            return spawn(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        self._load()
        built = list((tmp_path / "cache" / "gridfreq").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        assert len(compiles) == 1
        _native._loaded.cache_clear()
        self._load()
        assert len(compiles) == 1
        assert list((tmp_path / "cache" / "gridfreq").iterdir()) == built
        name, stream, cfg = next(golden_cases())
        want = golden_load()[name]
        series = run(stream, cfg)
        assert (golden_digest(series), series.diverged_at) == (
            want["sha256"], want["diverged_at"])

    def test_built_module_is_named_for_this_interpreter(self, tmp_path):
        # a shared cache holds one build per interpreter ABI
        self._load()
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        (built,) = (tmp_path / "cache" / "gridfreq").iterdir()
        assert built.name.startswith("_kernel-")
        assert built.name.endswith(suffix)
        assert _native.library().__file__ == str(built)

    def test_unloadable_cached_module_raises(self, tmp_path):
        # a file under the build's name that is no extension module
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        key = _native._key(_native._source(), _native._include_dir(), suffix)
        cache = tmp_path / "cache" / "gridfreq"
        cache.mkdir(mode=0o700, parents=True)
        (cache / f"_kernel-{key}{suffix}").write_bytes(b"not ELF")
        with pytest.raises(OSError, match="^cannot build gridfreq's C "
                                          "library: "):
            _native.library()

    def test_key_hashes_the_interpreter(self, monkeypatch):
        # the key function only: nothing is compiled
        source = _native._source()
        include, suffix = "/usr/include/python3.11", ".cpython-311-x86_64.so"
        key = _native._key(source, include, suffix)
        assert key == _native._key(source, include, suffix)
        keys = {key,
                _native._key(source, "/usr/include/python3.12", suffix),
                _native._key(source, include, ".cpython-312-x86_64.so"),
                _native._key(source + b"\n", include, suffix)}
        # a warm cache never loads another compiler's build
        monkeypatch.setattr(_native, "_CC", "clang")
        keys.add(_native._key(source, include, suffix))
        assert len(keys) == 5

    def test_warm_cache_load_does_not_import_subprocess(self, tmp_path):
        self._load()
        probe = ("import sys; from gridfreq import _native; "
                 "_native.library(); print('subprocess' in sys.modules)")
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": str(Path(estimator.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False"]

    def test_default_cache_is_private_under_home(self, monkeypatch,
                                                 tmp_path):
        # a relative XDG_CACHE_HOME is ignored, as the XDG spec asks
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path))
        self._load()
        cache = tmp_path / ".cache" / "gridfreq"
        assert cache.stat().st_mode & 0o777 == 0o700
        assert len(list(cache.glob("_kernel-*.so"))) == 1


class TestNativeBuffers:
    """The C library takes its arrays through the buffer protocol; one it
    would misread, strided or of another item type, raises instead."""

    @pytest.mark.parametrize("cells", [
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        np.arange(6.0, dtype=np.float32).reshape(2, 3)],
        ids=["fortran", "float32"])
    def test_format_rows_rejects(self, cells):
        with pytest.raises((TypeError, ValueError)):
            _native.format_rows(cells)
        assert _native.format_rows(np.ascontiguousarray(
            cells, np.float64)) == b"0.0,1.0,2.0\r\n3.0,4.0,5.0\r\n"

    def test_format_rows_writes_within_its_documented_buffer(self):
        """format_rows allocates rows * (25 * ncols + 2) bytes and returns
        them shrunk to the text.  The last field follows fields of the
        longest text, so it starts 27 bytes before the end, and takes a
        branch whose fixed-width copies write furthest, 26 bytes from its
        start: 17 digits, 16 of them before the point.  The longest field
        is repeated past pymalloc's 512-byte limit, so the room comes from
        the system allocator: the sanitized tier-1 run's ASan sees a write
        past it, and -X dev's debug hooks check its guard bytes when it is
        shrunk and freed."""
        row = [-2.2250738585072014e-308] * 20 + [-1234567890123456.8]
        text = _native.format_rows(np.array([row]))
        assert type(text) is bytes
        assert text == (",".join(map(repr, row)) + "\r\n").encode()

    def test_c_library_has_exactly_its_entry_points(self):
        """A new C entry point is a deliberate change."""
        lib = _native.library()
        assert {name for name in dir(lib) if not name.startswith("_")
                and callable(getattr(lib, name))} == {
            "context", "format_rows", "parse_rows", "polar"}

    @pytest.fixture
    def args(self, monkeypatch):
        """The arguments init passes to the C library's context, numpy
        copies of its buffers."""
        calls = []
        monkeypatch.setattr(_native.library(), "context",
                            lambda *a: calls.append(a))
        init(EstimatorConfig())
        monkeypatch.undo()
        (args,) = calls
        return [np.array(arg) if isinstance(arg, array) else arg
                for arg in args]

    def test_context_reads_n_and_the_ring_from_the_buffers(self, args):
        state, consts, rows, samples, report_every, record = args
        n = EstimatorConfig().n
        assert len(consts) == 8 + 2 * n
        # the smallest state holds a ring of one value
        assert callable(_native.library().context(
            state[:10 + 4 * n + 1], *args[1:]))
        for state, consts in [(state, consts[:-1]),       # an odd gain count
                              (state, consts[:8]),        # no gain
                              (state[:10 + 4 * n], consts)]:    # no ring
            with pytest.raises(ValueError, match="context: the constants"):
                _native.library().context(state, consts, rows, samples,
                                          report_every, record)

    def test_context_takes_a_record_class_for_a_step_only(self, args):
        record = args[5]
        for args[5] in (lambda *fields: record(*fields), None):
            with pytest.raises(TypeError, match="^context: a step takes a "
                               "record class, a run None$"):
                _native.library().context(*args)
        args[3], args[5] = np.zeros(12), record    # a run
        with pytest.raises(TypeError, match="a step takes a record class"):
            _native.library().context(*args)

    @pytest.mark.parametrize("i", [0, 2], ids=["state", "rows"])
    def test_context_rejects_a_strided_buffer(self, args, i):
        assert callable(_native.library().context(*args))
        args[i] = np.repeat(args[i], 2)[::2]
        with pytest.raises(ValueError, match="not C-contiguous"):
            _native.library().context(*args)

    @pytest.mark.parametrize("i", [0, 2], ids=["state", "rows"])
    def test_context_rejects_a_read_only_buffer(self, args, i):
        args[i].flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            _native.library().context(*args)
