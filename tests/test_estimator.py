"""Unit tests for the per-sample adaptive estimator."""

import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (ConfigError, DivergenceError, EstimateSeries,
                      EstimatorConfig, EstimatorState, SampleStream,
                      ScenarioSpec, evaluate, init, ise_fitness,
                      reconstruction_error, run, step, synthesize)
from gridfreq import _native, estimator
from gridfreq.estimator import INV_TWO_PI, ROW_COLUMNS, amp_phase
from gridfreq.tuner import DIVERGENCE_PENALTY
from cases import case1, needs_cc
from golden import cases as golden_cases
from golden import compute as golden_compute
from golden import digest as golden_digest
from golden import load as golden_load
from golden import state_digest
from reference import output_and_gradient, reference_estimator

FS = 1200.0
TS = 1.0 / FS
# harmonic orders the kernel tests generate: the two shortest unrolls, the
# default 7 and 11, the largest the default ts and f0 allow (Nyquist)
ORDERS = (1, 2, 7, 11)


def _clean_stream(duration: float = 2.0) -> SampleStream:
    stream, _ = synthesize(ScenarioSpec(duration=duration, base_freq=50.0), FS)
    return stream


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

    @pytest.mark.parametrize("backend", ["native_kernel", "python_kernel"])
    @pytest.mark.parametrize("name, value", [("n", 7.0),
                                             ("rocof_smooth_window", 96.0),
                                             ("report_every", 12.0)])
    def test_validation_rejects_non_int_count(self, request, backend, name,
                                              value):
        # a float count used to pass on one backend and fail on the other
        request.getfixturevalue(backend)
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            EstimatorConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            replace(EstimatorConfig(), **{name: value})
        assert len(run(_clean_stream(0.1), EstimatorConfig())) == 10


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

    @pytest.mark.parametrize("a_c, a_s", [(3, 2), (2, 3)])
    def test_coefficient_length_mismatch_rejected(self, a_c, a_s):
        state = EstimatorState(a_c=[0.0] * a_c, a_s=[0.0] * a_s, f_hz=50.0)
        with pytest.raises(ConfigError, match="config has n = 3"):
            step(state, 0.0, EstimatorConfig(n=3))
        assert state.k == 0


class TestAmpPhase:
    def test_zero(self):
        assert amp_phase(0.0, 0.0) == (0.0, 0.0)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a_s, a_c = rng.normal(0.0, 2.0, 2)
            amp, ph = amp_phase(a_s, a_c)
            x = float(rng.uniform(-5.0, 5.0))
            assert a_c * math.sin(x) + a_s * math.cos(x) == pytest.approx(
                amp * math.sin(x + ph), abs=1e-12)


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
            assert [rec.amps, rec.phases] == [list(x) for x in zip(
                *map(amp_phase, row[head + 2:], row[head:head + 2]))]

        # signed zeros, nan and inf: records, polar() and amp_phase agree
        # bit for bit, and a zero pair of either sign is (0.0, 0.0)
        nan, inf = math.nan, math.inf
        pairs = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
                 (nan, 1.0), (-2.0, nan), (inf, nan), (-inf, 3.0),
                 (nan, -inf), (-0.0, 5e-324)]           # (a_s, a_c)
        a_s, a_c = (list(x) for x in zip(*pairs))
        n = len(pairs)
        edge = EstimateSeries(
            rows=np.array([[*range(head), *a_c, *a_s]], dtype=float), n=n)
        (rec,) = edge.records
        expect = [v for pair in pairs for v in amp_phase(*pair)]
        assert expect[:8] == [0.0] * 8
        assert all(math.copysign(1.0, v) == 1.0 for v in expect[:8])
        got = [v for pair in zip(rec.amps, rec.phases) for v in pair]
        assert (np.array(got).tobytes() == np.array(expect).tobytes()
                == edge.polar()[0].tobytes())

    def test_c_path_builds_no_record(self, native_kernel, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-record work on the C path")

        monkeypatch.setattr(estimator, "_amps_phases", forbidden)
        monkeypatch.setattr(estimator, "EstimateRecord", forbidden)
        stream, truth = synthesize(case1(), FS, seed=0)
        cfg = EstimatorConfig()
        assert evaluate(run(stream, cfg), truth).max_fe < 0.05
        assert reconstruction_error(run(stream, cfg), stream, t_min=0.5) < 0.1
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

    def test_ts_mismatch_rejected(self):
        stream = SampleStream(0.0, 1.0 / 1000.0, np.zeros(10))
        with pytest.raises(ConfigError):
            run(stream, EstimatorConfig())


class TestKernelCache:
    def test_config_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EstimatorConfig().eta_opt = 1.0

    @staticmethod
    def _check_step_fold(n: int, compiled: int) -> None:
        estimator._kernel.cache_clear()
        cfg = EstimatorConfig(n=n, obs_lowpass_hz=500.0)
        stream = _clean_stream(0.5)
        state = init(cfg)
        records = [rec for x in stream.values.tolist()
                   if (rec := step(state, x, replace(cfg))) is not None]
        assert records == run(stream, cfg).records
        # step and run share one loop: the C loop compiles no Python
        # kernel, and the Python fallback one per order
        assert estimator._kernel.cache_info().currsize == compiled

    @pytest.mark.parametrize("n", ORDERS)
    def test_new_config_object_every_step_is_bit_identical(self, n,
                                                            native_kernel):
        self._check_step_fold(n, compiled=0)

    @pytest.mark.parametrize("n", ORDERS)
    def test_new_config_object_every_step_is_bit_identical_python_kernel(
            self, n, python_kernel):
        self._check_step_fold(n, compiled=1)

    def test_c_run_compiles_no_python_kernel(self, native_kernel):
        estimator._kernel.cache_clear()
        series = run(_clean_stream(0.5), EstimatorConfig(n=3))
        assert len(series) > 0
        assert estimator._kernel.cache_info().currsize == 0

    def test_c_step_compiles_no_python_kernel(self, native_kernel,
                                              monkeypatch):
        # init loads the library and binds the buffer, so no step pays
        # for either
        estimator._kernel.cache_clear()
        _native.library.cache_clear()
        cfg = EstimatorConfig(n=3)
        state = init(cfg)
        assert _native.library.cache_info().currsize == 1
        monkeypatch.setattr(estimator, "_bind", None)
        stream = _clean_stream(0.5)
        records = [rec for x in stream.values.tolist()
                   if (rec := step(state, x, cfg)) is not None]
        assert state.k == len(stream) and not state.diverged
        assert records == run(stream, cfg).records
        assert estimator._kernel.cache_info().currsize == 0

    def test_config_of_another_order_rejected(self):
        state = init(EstimatorConfig())
        with pytest.raises(ConfigError, match="state has 7 harmonics"):
            step(state, 0.0, EstimatorConfig(n=3))

    @pytest.mark.parametrize("size", [3, 9])
    def test_resized_coefficient_list_rejected(self, size):
        cfg = EstimatorConfig()
        state = init(cfg)
        step(state, 0.5, cfg)
        state.a_c = [0.0] * size
        with pytest.raises(ConfigError, match=f"state has {size} harmonics"):
            step(state, 0.0, cfg)
        assert state.k == 1            # no state was written

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

    @pytest.mark.parametrize("backend", ["native_kernel", "python_kernel"])
    def test_new_window_keeps_the_newest_values(self, request, backend):
        request.getfixturevalue(backend)
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

    def test_float32_samples_step_as_doubles_on_both_backends(self):
        # a step takes its sample as a double, as run() does, whatever the
        # backend; float32 arithmetic would move the estimate
        cfg = EstimatorConfig()
        stream = _clean_stream(0.5)
        values = stream.values.astype(np.float32)

        def fold() -> list:
            state = init(cfg)
            return [repr(rec) for x in values
                    if (rec := step(state, x, cfg)) is not None]

        expect = [repr(rec) for rec in run(
            SampleStream(stream.t0, stream.ts, values), cfg).records]
        assert fold() == expect
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "library", lambda: None)
            assert fold() == expect

    @staticmethod
    def _check_pickle_resume() -> None:
        cfg = EstimatorConfig()
        values = _clean_stream(0.5).values.tolist()
        state = init(cfg)
        for x in values[:300]:
            step(state, x, cfg)
        copy = pickle.loads(pickle.dumps(state))
        assert ([step(state, x, cfg) for x in values[300:]]
                == [step(copy, x, cfg) for x in values[300:]])

    def test_pickled_state_resumes_bit_identically(self, native_kernel):
        self._check_pickle_resume()

    def test_pickled_state_resumes_bit_identically_python_kernel(
            self, python_kernel):
        self._check_pickle_resume()


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
                           != INV_TWO_PI * cfg.eta_opt * z * grad)
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
    """Both backends of run() reproduce the stored digests."""

    @staticmethod
    def _check() -> None:
        want = golden_load()
        got = golden_compute()
        assert sorted(got) == sorted(want)
        changed = [name for name in want if got[name] != want[name]]
        assert not changed, f"outputs changed for {changed}"

    def test_outputs_match_stored_digests(self, native_kernel):
        self._check()

    def test_outputs_match_stored_digests_python_kernel(self, python_kernel):
        self._check()

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
    """Building and loading the C library, and the fallback when it fails."""

    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _native.library.cache_clear()
        yield
        _native.library.cache_clear()

    @staticmethod
    def _load() -> str:
        """The backend run() picks, failing on any warning while it loads."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = estimator.run_backend()
            gc.collect()
        assert caught == []
        return backend

    @staticmethod
    def _golden_case1() -> bool:
        name, stream, cfg = next(golden_cases())
        want = golden_load()[name]
        series = run(stream, cfg)
        return (golden_digest(series), series.diverged_at) == (
            want["sha256"], want["diverged_at"])

    @pytest.mark.parametrize("fault", ["missing_cc", "compile_error",
                                       "unwritable_cache", "shared_cache"])
    def test_failed_build_falls_back_to_an_identical_series(
            self, fault, monkeypatch, tmp_path):
        if fault == "missing_cc":
            monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-cc"))
        elif fault == "compile_error":
            monkeypatch.setattr(_native, "_source",
                                lambda: b"not C\n")
        elif fault == "unwritable_cache":
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        else:
            (tmp_path / "cache" / "gridfreq").mkdir(parents=True)
            (tmp_path / "cache" / "gridfreq").chmod(0o777)
        assert self._load() == "python"
        assert self._golden_case1()
        assert not list(tmp_path.glob("cache/gridfreq/*"))

    @needs_cc
    def test_second_load_reuses_the_cached_object(self, monkeypatch,
                                                  tmp_path):
        assert self._load() == "c"
        built = list((tmp_path / "cache" / "gridfreq").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        _native.library.cache_clear()
        monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-cc"))
        assert self._load() == "c"
        assert list((tmp_path / "cache" / "gridfreq").iterdir()) == built
        assert self._golden_case1()

    @needs_cc
    def test_warm_cache_load_does_not_import_subprocess(self, tmp_path):
        assert self._load() == "c"
        probe = ("import sys; from gridfreq.estimator import run_backend; "
                 "print(run_backend(), 'subprocess' in sys.modules)")
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": str(Path(estimator.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["c", "False"]

    @needs_cc
    def test_default_cache_is_private_under_home(self, monkeypatch,
                                                 tmp_path):
        # a relative XDG_CACHE_HOME is ignored, as the XDG spec asks
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert self._load() == "c"
        cache = tmp_path / ".cache" / "gridfreq"
        assert cache.stat().st_mode & 0o777 == 0o700
        assert len(list(cache.glob("_kernel-*.so"))) == 1
