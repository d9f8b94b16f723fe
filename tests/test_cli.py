"""End-to-end tests of the command-line interface."""

import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (EstimatorConfig, EventProfile, SampleStream,
                      ScenarioSpec, aggregate, evaluate, run, synthesize)
from gridfreq import _native, cli
from gridfreq import io as gio
from gridfreq.cli import EXIT_BOUNDS, EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, main

FS = 1200.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "tone.cfg"
    gio.write_scenario(path, ScenarioSpec(duration=2.0, base_freq=50.0))
    return path


@pytest.fixture()
def synth_outputs(tmp_path, scenario_file):
    assert main(["synth", str(scenario_file), "--out", str(tmp_path)]) == EXIT_OK
    return (tmp_path / "tone_samples.csv", tmp_path / "tone_truth.csv")


class TestSynth:
    def test_writes_sample_and_truth_files(self, tmp_path, scenario_file,
                                           capsys):
        rc = main(["synth", str(scenario_file), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "tone_samples.csv" in out
        stream = gio.read_samples(tmp_path / "tone_samples.csv")
        truth = gio.read_truth(tmp_path / "tone_truth.csv")
        assert len(stream) == len(truth) == int(round(2.0 * FS)) + 1

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        rc = main(["synth", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_nyquist_violation_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n"
                        "harmonic_1.order = 13\nharmonic_1.rel_amp = 0.01\n")
        rc = main(["synth", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("fs, message", [
        # 1e16 samples, 71 PiB of times alone: no host can allocate them;
        # the id keeps the message as it read before the file was named
        pytest.param("1e15", "error: out of memory: {path}: "
                             "10000000000000001 samples at fs=1e+15 do not "
                             "fit in memory\n",
                     id="1e15-error: out of memory: 10000000000000001 "
                        "samples at fs=1e+15 do not fit in memory\n"),
        pytest.param("1e300", "error: {path}: 1e+301 samples at fs=1e+300 "
                              "are more than one array of doubles can hold\n",
                     id="1e300-error: 1e+301 samples at fs=1e+300 are more "
                        "than one array of doubles can hold\n"),
    ])
    def test_render_too_large_is_input_error(self, tmp_path, capsys, fs,
                                             message):
        path = SCENARIOS / "clean.cfg"
        rc = main(["synth", str(path), "--fs", fs,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == message.format(path=path)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("profile, minimum", [
        ("profile = ramp\nprofile.t_start = 0.2\nprofile.duration = 0.5\n"
         "profile.df_hz = -60.0\n", r"-10"),
        # the sample nearest the dip's bottom at -50 Hz
        ("profile = event\nprofile.t_start = 0.2\nprofile.peak_dev_hz = 100\n"
         "profile.peak_rocof_hzps = 1000\n", r"-49\.99\d*"),
    ], ids=["ramp", "event"])
    def test_fundamental_at_or_below_zero_is_input_error(
            self, tmp_path, capsys, profile, minimum):
        path = tmp_path / "bad.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n" + profile)
        rc = main(["synth", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(path))}: the fundamental "
                            f"falls to {minimum} Hz; it must stay above 0 Hz\n",
                            err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, message", [
        ("profile = ramp\nprofile.t_start = 0.2\nprofile.duration = 1e-320\n"
         "profile.df_hz = 1.0\n",
         "the rendered frequency is not finite, first at t = 0 s"),
        ("amp_pu = 1.5e308\nharmonic_1.order = 3\nharmonic_1.rel_amp = 1.0\n",
         "the rendered sample is not finite, first at t = 0.00166667 s"),
    ], ids=["ramp", "amplitude"])
    def test_render_that_is_not_finite_is_input_error(self, tmp_path, capsys,
                                                      body, message):
        # a numpy RuntimeWarning fails the test (pyproject's filterwarnings)
        path = tmp_path / "bad.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n" + body)
        for argv in (["synth", str(path), "--out", str(tmp_path / "out")],
                     ["metrics", "--scenario", str(path), "--seeds", "1"],
                     # the file at fault is the second of the battery
                     ["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
                      "--scenario", str(path), "--swarm", "2",
                      "--iterations", "1", "--out", str(tmp_path / "out")]):
            rc = main(argv)
            out, err = capsys.readouterr()
            assert rc == EXIT_INPUT
            assert err == f"error: {path}: {message}\n"
            assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [
        ("harmonic_1.order = 2.9", "harmonic_1.order"),
        ("duration = nan", "duration"),
        ("distortion_knee = abc", "distortion_knee"),
        ("noise.levle = 0.2", "noise.levle"),
        # item numbers that str.isdigit or int would take
        ("harmonic_\u00b2.order = 3", "harmonic_\u00b2.order"),
        ("harmonic_01.order = 3", "harmonic_01.order"),
    ])
    def test_malformed_key_is_input_error(self, tmp_path, capsys, line, key):
        path = tmp_path / "bad.cfg"
        body = ["duration = 1.0", "base_freq = 50.0", "noise.level = 0.01",
                "harmonic_1.order = 3", "harmonic_1.rel_amp = 0.01"]
        body = [x for x in body if x.split(" = ")[0] != line.split(" = ")[0]]
        path.write_text("\n".join([*body, line]) + "\n")
        rc = main(["synth", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"bad.cfg:{len(body) + 1}: " in err and f"`{key}`" in err

    def test_negative_noise_seed_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n"
                        "noise.level = 0.01\nnoise.seed = -1\n")
        rc = main(["synth", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err == f"error: {path}: noise.seed must be non-negative, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("step_1.duration = -1.0", "step duration must be non-negative, "
                                   "got -1.0"),
        ("step_1.amp_step_pu = -3", "amp_step_pu must be >= -1, got -3.0"),
        ("amp_pu = -1", "amp_pu must be non-negative, got -1.0"),
    ])
    def test_value_rendering_something_else_is_input_error(
            self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        body = {"duration": "1.0", "base_freq": "50.0",
                "step_1.t_start": "0.5", "step_1.duration": "0.2"}
        key, value = line.split(" = ")
        body[key] = value
        path.write_text("".join(f"{k} = {v}\n" for k, v in body.items()))
        rc = main(["synth", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_render_too_large_for_memory_is_input_error(self, tmp_path,
                                                        capsys):
        # 1e16 samples at ts = 1e-15 s: no host can allocate them
        config = tmp_path / "fast.cfg"
        gio.write_config(config, replace(EstimatorConfig(), ts=1e-15))
        rc = main(["metrics", "--scenario", str(SCENARIOS / "clean.cfg"),
                   "--config", str(config), "--seeds", "1"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: out of memory: "
                            rf"{re.escape(str(SCENARIOS / 'clean.cfg'))}: "
                            rf"\d+ samples at fs=1e\+15 do not fit in "
                            rf"memory\n", err), err

    def test_scenario_value_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\nnoise.level = 0.5\n")
        rc = main(["metrics", "--scenario", str(path), "--seeds", "1"])
        assert rc == EXIT_INPUT
        assert f"error: {path}: noise level must lie in" in capsys.readouterr().err


class TestEstimateAndMetrics:
    def test_estimate_then_metrics(self, tmp_path, synth_outputs, capsys):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        rc = main(["estimate", str(samples), "--out", str(est)])
        assert rc == EXIT_OK
        series = gio.read_estimates(est)
        assert len(series) == (int(round(2.0 * FS)) + 1) // 12
        capsys.readouterr()
        rc = main(["metrics", "--est", str(est), "--truth", str(truth)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "Max (FE) (Hz)" in out
        assert "RMSE (RE) (Hz/s)" in out

    @pytest.mark.parametrize("line, message", [
        pytest.param(line, message, id=line) for line, message in [
            ("report_every = 12.7", "c.cfg:{lineno}: key `report_every`"),
            ("eta_opt = nan", "c.cfg:{lineno}: key `eta_opt`"),
            # ints the C loop cannot hold as a Py_ssize_t
            ("report_every = 100000000000000000000",
             "c.cfg: report_every must be at most {maxsize}, got 10"),
            ("rocof_smooth_window = 100000000000000000000",
             "c.cfg: rocof_smooth_window must be at most {maxsize}, got 10"),
            # n sizes the gains, so it is checked before they are built
            ("n = 100000000000000000000",
             "c.cfg: n must be at most {maxsize}, got 10"),
            ("n = -100000000000000000000", "c.cfg: harmonic order n must be"),
            ("n = -1e300", "c.cfg: harmonic order n must be"),
            # a cutoff whose low-pass gain rounds to 0.0
            ("obs_lowpass_hz = 1e-300", "c.cfg: obs_lowpass_hz = 1e-300 at "
             "ts = 0.0008333333333333334 s"),
        ]])
    def test_malformed_config_is_input_error(self, tmp_path, synth_outputs,
                                             capsys, line, message):
        samples, _ = synth_outputs
        config = tmp_path / "c.cfg"
        # every key is written, so a case can replace its line
        gio.write_config(config, EstimatorConfig(obs_lowpass_hz=500.0))
        key = line.split(" = ")[0]
        text = config.read_text().splitlines()
        lineno = [x.split(" = ")[0] for x in text].index(key) + 1
        text[lineno - 1] = line
        config.write_text("\n".join(text) + "\n")
        rc = main(["estimate", str(samples), "--config", str(config),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_INPUT
        assert (message.format(lineno=lineno, maxsize=sys.maxsize)
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line, message", [
        # keys of the retired self-tuning rate law: ignoring them would run
        # the file's eta_opt without its band, 5 % slower than it used to
        ("eta_band = 0.05", "unknown key `eta_band`"),
        ("beta_omega = 1.0", "unknown key `beta_omega`"),
        ("report_every = 6", "duplicate key `report_every`"),
        # keys of the retired filter switch: obs_lowpass_hz replaces both
        ("obs_filter = identity", "unknown key `obs_filter`"),
        ("obs_cutoff_hz = 500.0", "unknown key `obs_cutoff_hz`"),
    ])
    def test_rejected_config_line_is_input_error(self, tmp_path, synth_outputs,
                                                 capsys, line, message):
        samples, _ = synth_outputs
        config = tmp_path / "c.cfg"
        gio.write_config(config, EstimatorConfig())
        text = [*config.read_text().splitlines(), line]
        config.write_text("\n".join(text) + "\n")
        rc = main(["estimate", str(samples), "--config", str(config),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_INPUT
        assert f"c.cfg:{len(text)}: {message}" in capsys.readouterr().err

    def test_report_every_flag(self, tmp_path, synth_outputs):
        samples, _ = synth_outputs
        est = tmp_path / "est.csv"
        config = tmp_path / "c.cfg"
        gio.write_config(config, replace(EstimatorConfig(), report_every=100))
        assert main(["estimate", str(samples), "--out", str(est),
                     "--config", str(config)]) == EXIT_OK
        assert len(gio.read_estimates(est)) == (int(round(2.0 * FS)) + 1) // 100

    def test_bound_violation_exits_4(self, tmp_path, synth_outputs, capsys):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        main(["estimate", str(samples), "--out", str(est)])
        capsys.readouterr()
        rc = main(["metrics", "--est", str(est), "--truth", str(truth),
                   "--max-fe", "1e-12"])
        assert rc == EXIT_BOUNDS
        assert "BOUND FAIL" in capsys.readouterr().out

    def test_bounds_pass_exits_0(self, tmp_path, synth_outputs):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        main(["estimate", str(samples), "--out", str(est)])
        assert main(["metrics", "--est", str(est), "--truth", str(truth),
                     "--max-fe", "0.1", "--rmse-fe", "0.1"]) == EXIT_OK

    def test_metrics_report_file(self, tmp_path, synth_outputs):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        main(["estimate", str(samples), "--out", str(est)])
        report = tmp_path / "report.csv"
        assert main(["metrics", "--est", str(est), "--truth", str(truth),
                     "--out", str(report)]) == EXIT_OK
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 5

    def test_metrics_needs_inputs(self, capsys):
        assert main(["metrics"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert err == ("error: need either --scenario or both --est and "
                       "--truth\n")
        assert out == ""

    def test_monte_carlo_mode(self, tmp_path, capsys):
        path = tmp_path / "noisy.cfg"
        gio.write_scenario(path, ScenarioSpec(
            duration=2.0, base_freq=50.0,
            noise=gio.NoiseSpec(kind="gaussian", level=0.02, seed=0)))
        rc = main(["metrics", "--scenario", str(path), "--seeds", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "mean over 3 seeds" in out
        assert "worst case" in out

    def test_monte_carlo_equals_renders_of_distinct_specs(self, tmp_path,
                                                          capsys):
        # the command renders its spec once and adds each seed's noise; a
        # spec read anew for every seed renders in full
        path = SCENARIOS / "case2.cfg"
        out = tmp_path / "mc.csv"
        assert main(["metrics", "--scenario", str(path), "--seeds", "3",
                     "--out", str(out)]) == EXIT_OK
        reports = []
        for seed in range(3):
            stream, truth = synthesize(gio.read_scenario(path), FS, seed=seed)
            reports.append(evaluate(run(stream, EstimatorConfig()), truth,
                                    cli.DEFAULT_LATENCY_S,
                                    skip_s=cli.DEFAULT_SKIP_S))
        mean, _ = aggregate(reports)
        assert out.read_bytes() == ("metric,value\r\n" + "".join(
            f"{name},{value!r}\r\n" for name, value in mean.rows())).encode()

    def test_divergence_exits_3(self, tmp_path, capsys):
        # a destabilizing learning rate makes the watchdog trip
        cfg_path = tmp_path / "hot.cfg"
        cfg = EstimatorConfig(eta_opt=1e9)
        gio.write_config(cfg_path, cfg)
        stream, _ = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0), FS)
        samples = tmp_path / "s.csv"
        gio.write_samples(samples, stream)
        rc = main(["estimate", str(samples), "--out", str(tmp_path / "e.csv"),
                   "--config", str(cfg_path)])
        assert rc == EXIT_DIVERGED
        assert "DIVERGED" in capsys.readouterr().out


    def test_divergence_before_the_first_report(self, tmp_path, capsys):
        # case1 in raw volts (x 325) diverges at sample 4 with no record
        stream, truth = synthesize(gio.read_scenario(SCENARIOS / "case1.cfg"),
                                   FS, seed=0)
        samples, truth_csv, est = (tmp_path / name for name in
                                   ("s.csv", "truth.csv", "est.csv"))
        gio.write_samples(samples, SampleStream(stream.t0, stream.ts,
                                                stream.values * 325.0))
        gio.write_truth(truth_csv, truth)
        rc = main(["estimate", str(samples), "--out", str(est)])
        assert rc == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "(0 records)" in out and "DIVERGED at sample 4 " in out
        header = ",".join(gio.estimate_header(EstimatorConfig().n))
        assert est.read_bytes() == (header + "\r\n").encode()
        rc = main(["metrics", "--est", str(est), "--truth", str(truth_csv)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {est}: no data rows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row_edit", [
        lambda row: row[:3],                              # short row
        lambda row: [row[0], "fifty", *row[2:]],          # non-numeric field
    ])
    def test_malformed_estimate_file_is_input_error(self, tmp_path,
                                                    synth_outputs, capsys,
                                                    row_edit):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        assert main(["estimate", str(samples), "--out", str(est)]) == EXIT_OK
        lines = est.read_text().splitlines()
        lines[5] = ",".join(row_edit(lines[5].split(",")))
        est.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["metrics", "--est", str(est), "--truth", str(truth)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "est.csv:6" in err

    def test_old_layout_estimate_file_is_input_error(self, tmp_path,
                                                     synth_outputs, capsys):
        # the amp_i/phase_i layout of earlier releases, at n = 7
        _, truth = synth_outputs
        est = tmp_path / "old.csv"
        polar = [f"{q}_{i}" for i in range(1, 8) for q in ("amp", "phase")]
        header = ["t", "f_hz", "rocof_hzps", "residual", "a_dc", "a_dc1", *polar]
        est.write_text(",".join(header) + "\r\n"
                       + ",".join(["0.01", "50.0"] + ["0.0"] * 18) + "\r\n")
        rc = main(["metrics", "--est", str(est), "--truth", str(truth)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {est}: not an estimate CSV" in err
        assert "Traceback" not in err

    def test_ragged_samples_file_is_input_error(self, tmp_path, synth_outputs,
                                                capsys):
        samples, _ = synth_outputs
        lines = samples.read_text().splitlines()
        lines[3] += ",3.0"
        samples.write_text("\n".join(lines) + "\n")
        rc = main(["estimate", str(samples), "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "tone_samples.csv:4" in err

    def test_one_row_samples_file_is_input_error(self, tmp_path, capsys):
        # one row gives no sampling interval
        path = tmp_path / "one.csv"
        path.write_bytes(b"t,value\r\n0.0,1.0\r\n")
        est = tmp_path / "e.csv"
        rc = main(["estimate", str(path), "--out", str(est)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (f"error: {path}: need at least "
                                           f"two samples\n")
        assert not est.exists()

    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_digits_python_alone_reads(self, tmp_path, capsys, value):
        # float() takes an underscore or a non-ASCII digit, the grammar not
        path = tmp_path / "bad.csv"
        path.write_bytes(f"t,value\r\n0.0,1.0\r\n0.1,{value}\r\n".encode())
        rc = main(["estimate", str(path), "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: malformed CSV value")

    @pytest.mark.parametrize("row", [1, 500])
    def test_non_finite_sample_time_is_input_error(self, tmp_path,
                                                   synth_outputs, capsys, row):
        samples, _ = synth_outputs
        lines = samples.read_text().splitlines()
        lines[row] = "nan," + lines[row].split(",")[1]
        samples.write_text("\n".join(lines) + "\n")
        est = tmp_path / "e.csv"
        rc = main(["estimate", str(samples), "--out", str(est)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err
        assert f"tone_samples.csv:{row + 1}: `t` is not finite" in err
        assert not est.exists()

    def test_non_finite_sample_value_is_input_error(self, tmp_path,
                                                    synth_outputs, capsys):
        samples, _ = synth_outputs
        lines = samples.read_text().splitlines()
        lines[300] = lines[300].split(",")[0] + ",inf"
        samples.write_text("\n".join(lines) + "\n")
        est = tmp_path / "e.csv"
        rc = main(["estimate", str(samples), "--out", str(est)])
        assert rc == EXIT_INPUT
        assert "tone_samples.csv:301: `value` is not finite" in \
            capsys.readouterr().err
        assert not est.exists()

    def test_non_finite_estimate_is_input_error(self, tmp_path, synth_outputs,
                                                capsys):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        assert main(["estimate", str(samples), "--out", str(est)]) == EXIT_OK
        lines = est.read_text().splitlines()
        row = lines[100].split(",")
        lines[100] = ",".join([row[0], "nan", *row[2:]])
        est.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["metrics", "--est", str(est), "--truth", str(truth),
                   "--max-fe", "0.1"])
        assert rc == EXIT_INPUT
        assert "est.csv:101: `f_hz` is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["f0_hz = -50.0", "obs_lowpass_hz = 0.0"])
    def test_config_value_error_names_the_file(self, tmp_path, synth_outputs,
                                               capsys, line):
        samples, _ = synth_outputs
        config = tmp_path / "c.cfg"
        gio.write_config(config, EstimatorConfig())
        key = line.split(" = ")[0]
        text = [x for x in config.read_text().splitlines()
                if x.split(" = ")[0] != key]
        config.write_text("\n".join([*text, line]) + "\n")
        rc = main(["estimate", str(samples), "--config", str(config),
                   "--out", str(tmp_path / "est.csv")])
        assert rc == EXIT_INPUT
        assert f"error: {config}: " in capsys.readouterr().err

    def test_ragged_truth_file_is_input_error(self, tmp_path, synth_outputs,
                                              capsys):
        samples, truth = synth_outputs
        est = tmp_path / "est.csv"
        assert main(["estimate", str(samples), "--out", str(est)]) == EXIT_OK
        lines = truth.read_text().splitlines()
        lines[7] = ",".join(lines[7].split(",")[:3])
        truth.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["metrics", "--est", str(est), "--truth", str(truth)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "tone_truth.csv:8" in err


class TestStreamStartTime:
    @staticmethod
    def _report_at(tmp_path: Path, stream: SampleStream, truth,
                   t0: float) -> dict[str, float]:
        """The metrics report of `estimate` and `metrics` on files that
        write_samples and write_truth wrote with the times shifted to t0."""
        d = tmp_path / f"t{t0:g}"
        d.mkdir()
        gio.write_samples(d / "s.csv", SampleStream(t0, stream.ts,
                                                    stream.values))
        gio.write_truth(d / "truth.csv", replace(truth, t0=t0))
        assert main(["estimate", str(d / "s.csv"),
                     "--out", str(d / "e.csv")]) == EXIT_OK
        t_est = gio.read_estimates(d / "e.csv").t()
        assert t_est[0] == pytest.approx(t0 + 12 / FS,
                                         abs=1e-9 + np.spacing(t0))
        assert main(["metrics", "--est", str(d / "e.csv"),
                     "--truth", str(d / "truth.csv"),
                     "--out", str(d / "report.csv")]) == EXIT_OK
        rows = (d / "report.csv").read_text().splitlines()[1:]
        return {k: float(v) for k, v in (row.split(",") for row in rows)}

    def test_late_start_is_paired_with_its_truth(self, tmp_path, capsys):
        # a frequency event, so pairing with shifted truth would show
        spec = ScenarioSpec(duration=2.0, base_freq=50.0,
                            profile=EventProfile(t_start=0.8, peak_dev_hz=0.5,
                                                 peak_rocof_hzps=1.0))
        stream, truth = synthesize(spec, FS, seed=0)
        at_zero = self._report_at(tmp_path, stream, truth, 0.0)
        # at 1e5 s, t[1] - t[0] of the written times is 5.6e-12 s off the
        # interval, and times regenerated from it drift by 1.4e-8 s over
        # the record; the mean step regenerates them exactly
        for t0 in (100.0, 1e5):
            late = self._report_at(tmp_path, stream, truth, t0)
            for name, value in at_zero.items():
                assert late[name] == pytest.approx(value, rel=1e-8), (t0, name)

    # At t0 = 1e5 s, t[1] - t[0] of the written times is off by 5.6e-12 s;
    # at 1.7e9 s (a Unix time) the steps themselves are off by up to
    # 2.4e-7 s.  Both files are read, and run accepts their interval.
    @pytest.mark.parametrize("t0", [1e5, 1.7e9])
    def test_rounded_late_times_are_read(self, tmp_path, t0):
        stream, truth = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0),
                                   FS)
        at_zero = self._report_at(tmp_path, stream, truth, 0.0)
        late = self._report_at(tmp_path, stream, truth, t0)
        for name, value in at_zero.items():
            assert late[name] == pytest.approx(value, rel=1e-6)

    def test_another_interval_is_named_with_both_values(self, tmp_path,
                                                        capsys):
        # 1 kHz samples at a late start: the rounding slack is far below
        # the difference of the intervals
        stream, _ = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0),
                               1000.0)
        path = tmp_path / "s.csv"
        gio.write_samples(path, SampleStream(1.7e9, stream.ts, stream.values))
        ts = gio.read_samples(path).ts
        assert main(["estimate", str(path),
                     "--out", str(tmp_path / "e.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert (f"{path}: time column t[1] - t[0]: stream interval {ts!r} "
                f"does not match config ts {EstimatorConfig().ts!r}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "e.csv").exists()


class TestShortScenario:
    @pytest.mark.parametrize("argv", [
        ["metrics", "--scenario", "{path}", "--seeds", "1"],
        ["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
         "--scenario", "{path}", "--swarm", "2", "--iterations", "1"],
    ], ids=["metrics", "tune"])
    def test_too_short_to_report_is_input_error(self, tmp_path, capsys, argv):
        # 7 samples at 1200 Hz give no report: tune would score the empty
        # series as a divergence, and metrics fail on it unnamed
        path = tmp_path / "short.cfg"
        path.write_text("duration = 0.005\nbase_freq = 50.0\n")
        out_file = tmp_path / "out"
        rc = main([*(a.format(path=path) for a in argv),
                   "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: {path}: 7 samples give no report at "
                       f"report_every = 12\n")
        assert out == ""
        assert not out_file.exists()

    def test_samples_too_short_to_report_are_input_error(self, tmp_path,
                                                         capsys):
        # the estimate CSV would hold no row, which metrics --est refuses
        path = tmp_path / "short.csv"
        gio.write_samples(path, SampleStream(0.0, 1.0 / FS, np.zeros(5)))
        est = tmp_path / "est.csv"
        rc = main(["estimate", str(path), "--out", str(est)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: {path}: 5 samples give no report at "
                       f"report_every = 12\n")
        assert out == ""
        assert not est.exists()

    @pytest.mark.parametrize("argv", [
        ["metrics", "--scenario", "{path}", "--seeds", "1"],
        ["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
         "--scenario", "{path}", "--swarm", "2", "--iterations", "1"],
    ], ids=["metrics", "tune"])
    def test_shorter_than_the_skip_window_is_input_error(self, tmp_path,
                                                          capsys, argv):
        # 60 samples report, but all before the default 0.5 s skip window
        # ends: neither metrics nor tune has anything to score
        path = tmp_path / "short.cfg"
        path.write_text("duration = 0.05\nbase_freq = 50.0\n")
        out_file = tmp_path / "out"
        rc = main([*(a.format(path=path) for a in argv),
                   "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: {path}: duration 0.05 s is shorter than the "
                       f"skip window of 0.5 s\n")
        assert out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["metrics", "--scenario", "{path}", "--seeds", "1"],
    ], ids=["metrics"])
    def test_no_pairs_after_latency_names_the_file(self, tmp_path, capsys,
                                                    argv):
        # a latency longer than the record leaves no report to pair
        path = SCENARIOS / "clean.cfg"
        out_file = tmp_path / "out"
        rc = main([*(a.format(path=path) for a in argv),
                   "--latency-ms", "1e6", "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: {path}: estimate and truth series do not "
                       f"overlap after latency shifting by 1000 s and the "
                       f"skip window of 0.5 s\n")
        assert out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["metrics", "--scenario", "{path}", "--seeds", "1"],
        ["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
         "--scenario", "{path}", "--swarm", "2", "--iterations", "1"],
    ], ids=["metrics", "tune"])
    def test_no_report_after_the_skip_window_names_the_file(self, tmp_path,
                                                             capsys, argv):
        # 720 samples give one report, at sample 500 (0.42 s), before the
        # skip window ends; tune checks this before its swarm starts, as
        # its fitness is what metrics reports
        path = tmp_path / "short.cfg"
        path.write_text("duration = 0.6\nbase_freq = 50.0\n")
        config = tmp_path / "sparse.cfg"
        gio.write_config(config, EstimatorConfig(report_every=500))
        out_file = tmp_path / "out"
        rc = main([*(a.format(path=path) for a in argv), "--config",
                   str(config), "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: {path}: estimate and truth series do not "
                       f"overlap after latency shifting by 0.1 s and the "
                       f"skip window of 0.5 s\n")
        assert out == ""
        assert not out_file.exists()

    def test_tune_names_the_scenario_out_of_memory(self, tmp_path, capsys):
        # 1.2e16 samples at 1200 Hz: no host can allocate them
        path = tmp_path / "huge.cfg"
        path.write_text("duration = 1e13\nbase_freq = 50.0\n")
        out_file = tmp_path / "t.cfg"
        rc = main(["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
                   "--scenario", str(path), "--swarm", "2",
                   "--iterations", "1", "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: out of memory: {path}: 12000000000000001 "
                       f"samples at fs=1200 do not fit in memory\n")
        assert out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("swarm", ["1000000000000000000",
                                       "100000000000000000000"])
    def test_oversized_swarm_is_out_of_memory(self, tmp_path, capsys, swarm):
        # numpy refuses both shapes before allocating: more bytes than an
        # array can hold, and more rows than an index can count
        out_file = tmp_path / "t.cfg"
        rc = main(["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
                   "--swarm", swarm, "--iterations", "1",
                   "--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert err == (f"error: out of memory: a swarm of {swarm} particles "
                       f"of 16 gains does not fit in memory\n")
        assert out == ""
        assert not out_file.exists()


class TestUndecodableInput:
    """A byte that is not UTF-8, in any input file, exits 2 naming its line."""

    @pytest.mark.parametrize("data, line", [
        (b"t,value\r\n0.0,1.0\r\n0.1,\xff\r\n", 3),      # a data row
        (b"t,val\xffue\r\n0.0,1.0\r\n0.1,2.0\r\n", 1),   # the header
    ])
    def test_samples_file(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        rc = main(["estimate", str(path), "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {path}:{line}: not UTF-8 text\n"

    def test_byte_past_the_header_chunk(self, tmp_path, synth_outputs, capsys):
        # the C parser's read of the rows meets it, not the read of the
        # header
        samples, _ = synth_outputs
        lines = samples.read_bytes().split(b"\r\n")
        lines[1000] += b"\xff"
        samples.write_bytes(b"\r\n".join(lines))
        rc = main(["estimate", str(samples), "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {samples}:1001: not UTF-8 text\n"

    @pytest.mark.parametrize("argv", [
        ["synth", "{path}", "--out", "{tmp}"],
        ["metrics", "--scenario", "{path}", "--seeds", "1"],
    ])
    def test_scenario_file(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"duration = 1.0\nbase_freq = 5\xff0.0\n")
        rc = main([a.format(path=path, tmp=tmp_path) for a in argv])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text\n"

    def test_config_file(self, tmp_path, synth_outputs, capsys):
        # the whole file is decoded before a comment is stripped
        samples, _ = synth_outputs
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"n = 7\n# gains \xff\n")
        rc = main(["estimate", str(samples), "--config", str(path),
                   "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text\n"


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is
    skipped by the CSV and the key-value readers."""

    def test_samples_file(self, tmp_path, synth_outputs):
        samples, _ = synth_outputs
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + samples.read_bytes())
        for path, out in ((samples, "e.csv"), (marked, "e_marked.csv")):
            assert main(["estimate", str(path), "--out",
                         str(tmp_path / out)]) == EXIT_OK
        assert ((tmp_path / "e.csv").read_bytes()
                == (tmp_path / "e_marked.csv").read_bytes())

    def test_scenario_file(self, tmp_path, synth_outputs):
        samples, _ = synth_outputs      # of the unmarked tone.cfg
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf"
                           + (tmp_path / "tone.cfg").read_bytes())
        assert main(["synth", str(marked), "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "marked_samples.csv").read_bytes() == \
            samples.read_bytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, message", [
        # these ids name the quantity, as the messages did before they
        # named the flag
        pytest.param(["synth", "{scenario}", "--fs", "nan"],
                     "--fs must be finite, got nan", id="argv0-sampling rate"),
        pytest.param(["synth", "{scenario}", "--fs", "inf"],
                     "--fs must be finite, got inf", id="argv1-sampling rate"),
        pytest.param(["tune", "--scenario", "{scenario}", "--tune-eta", "nan",
                      "100"],
                     "--tune-eta must be finite, got nan", id="argv2-eta_opt"),
        pytest.param(["tune", "--scenario", "{scenario}", "--gain-hi", "inf",
                      "--swarm", "2", "--iterations", "1"],
                     "--gain-hi must be finite, got inf",
                     id="argv3-bounds must be finite"),
        *((["metrics", "--scenario", "{scenario}", "--seeds", "1", flag, "nan"],
           f"{flag} must be finite")
          for flag in ("--max-fe", "--rmse-fe", "--max-re", "--rmse-re",
                       "--latency-ms", "--skip")),
        (["metrics", "--est", "missing.csv", "--truth", "missing.csv",
          "--latency-ms", "nan"], "--latency-ms must be finite"),
        (["metrics", "--est", "missing.csv", "--truth", "missing.csv",
          "--skip", "inf"], "--skip must be finite"),
        (["tune", "--scenario", "{scenario}", "--tune-eta", "100", "nan"],
         "--tune-eta must be finite, got nan"),
    ])
    def test_is_input_error(self, tmp_path, scenario_file, capsys, argv,
                            message):
        argv = [a.format(scenario=scenario_file) for a in argv]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert not (tmp_path / "out").exists()


class TestBadFlag:
    """A flag value the command cannot use exits 2 naming the flag, before
    any scenario is rendered or any output is written."""

    @pytest.mark.parametrize("argv, message", [
        (["metrics", "--scenario", "{scenario}", "--seeds", "0"],
         "--seeds must be >= 1, got 0"),
        (["metrics", "--scenario", "{scenario}", "--seeds", "-3"],
         "--seeds must be >= 1, got -3"),
        (["tune"], "--scenario: scenario battery must not be empty"),
        (["tune", "--scenario", "{scenario}", "--gain-lo", "0"],
         "--gain-lo/--gain-hi: a log-scaled search space needs positive bounds"),
        (["tune", "--scenario", "{scenario}", "--gain-lo", "600"],
         "--gain-lo/--gain-hi: each lower bound must be below its upper bound"),
        (["tune", "--scenario", "{scenario}", "--tune-eta", "200", "100"],
         "--tune-eta: each lower bound must be below its upper bound"),
        (["tune", "--scenario", "{scenario}", "--tune-eta", "0", "100"],
         "--tune-eta: a log-scaled search space needs positive bounds"),
        (["tune", "--scenario", "{scenario}", "--swarm", "1"],
         "--swarm: swarm size must be >= 2"),
        (["tune", "--scenario", "{scenario}", "--iterations", "0"],
         "--iterations: iteration count must be >= 1"),
        (["tune", "--scenario", "{scenario}", "--swarm", "-3"],
         "--swarm: swarm size must be >= 2"),
        (["metrics", "--scenario", "{scenario}", "--seeds", "1",
          "--est", "missing.csv", "--truth", "missing.csv"],
         "--est/--truth: not used with --scenario"),
        (["metrics", "--scenario", "{scenario}", "--seeds", "1",
          "--truth", "missing.csv"], "--truth: not used with --scenario"),
        (["metrics", "--est", "missing.csv", "--truth", "missing.csv",
          "--config", "missing.cfg"], "--config: only --scenario mode runs"),
        (["metrics", "--scenario", "{scenario}", "--seeds", "2",
          "--latency-ms", "-5"], "--latency-ms must be non-negative, got -5.0"),
        (["metrics", "--scenario", "{scenario}", "--skip", "-1"],
         "--skip must be non-negative, got -1.0"),
        (["metrics", "--est", "missing.csv", "--truth", "missing.csv",
          "--latency-ms", "-5"], "--latency-ms must be non-negative, got -5.0"),
        (["metrics", "--est", "missing.csv", "--truth", "missing.csv",
          "--skip", "-1"], "--skip must be non-negative, got -1.0"),
        (["metrics", "--est", "missing.csv", "--truth", "missing.csv",
          "--seeds", "0"], "--seeds: only --scenario mode renders seeds"),
        (["synth", "{scenario}", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
        # the flag checks run before the command's own
        (["tune", "--scenario", "{scenario}", "--swarm", "1", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
        (["tune", "--scenario", "{scenario}", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
        (["synth", "{scenario}", "--fs", "0"], "--fs must be positive, got 0.0"),
        (["synth", "{scenario}", "--fs", "-1200"],
         "--fs must be positive, got -1200.0"),
    ])
    def test_exits_2_naming_the_flag(self, tmp_path, scenario_file, capsys,
                                     monkeypatch, argv, message):
        def no_render(*args, **kwargs):
            raise AssertionError("rendered a scenario before checking flags")

        monkeypatch.setattr(cli, "synthesize", no_render)
        argv = [a.format(scenario=scenario_file) for a in argv]
        rc = main([*argv, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestTune:
    def test_small_gain_tune_writes_config(self, tmp_path, scenario_file):
        out_cfg = tmp_path / "tuned.cfg"
        hist = tmp_path / "hist.csv"
        rc = main(["tune", "--scenario", str(scenario_file),
                   "--out", str(out_cfg), "--history", str(hist),
                   "--swarm", "2", "--iterations", "1",
                   "--gain-lo", "10.0", "--gain-hi", "100.0"])
        assert rc == EXIT_OK
        tuned = gio.read_config(out_cfg)
        assert all(10.0 <= g <= 100.0 for g in tuned.gamma_c)
        assert hist.read_text().startswith("iteration,best_score")

    def test_fitness_is_the_rmse_fe_metrics_prints(self, tmp_path, capsys):
        # one scenario, rendered at seed 0 by both commands: the fitness
        # of the tuned gains is the figure metrics reports for them
        scenario = str(SCENARIOS / "case1.cfg")
        out_cfg = tmp_path / "tuned.cfg"
        assert main(["tune", "--scenario", scenario, "--swarm", "2",
                     "--iterations", "1", "--out", str(out_cfg)]) == EXIT_OK
        tuned = re.fullmatch(rf"wrote {re.escape(str(out_cfg))} "
                             rf"\(fitness (\S+)\)\n", capsys.readouterr().out)
        assert main(["metrics", "--scenario", scenario, "--config",
                     str(out_cfg), "--seeds", "1"]) == EXIT_OK
        reported = re.search(r"^ *RMSE \(FE\) \(Hz\): (\S+)$",
                             capsys.readouterr().out, re.MULTILINE)
        assert tuned.group(1) == reported.group(1)

    def test_fitness_of_a_battery_is_the_sum_of_its_rmse_fe(self, tmp_path,
                                                            capsys):
        # two scenarios, so the fitness calls alternate between two truths;
        # metrics --out writes repr floats, summed in the battery's order
        scenarios = [str(SCENARIOS / f"{name}.cfg")
                     for name in ("case1", "case2b")]
        out_cfg = tmp_path / "tuned.cfg"
        assert main(["tune", *(a for s in scenarios for a in ("--scenario", s)),
                     "--swarm", "2", "--iterations", "1", "--seed", "0",
                     "--out", str(out_cfg)]) == EXIT_OK
        tuned = re.fullmatch(rf"wrote {re.escape(str(out_cfg))} "
                             rf"\(fitness (\S+)\)\n", capsys.readouterr().out)
        total = 0.0
        for i, scenario in enumerate(scenarios):
            report = tmp_path / f"report{i}.csv"
            assert main(["metrics", "--scenario", scenario, "--config",
                         str(out_cfg), "--seeds", "1",
                         "--out", str(report)]) == EXIT_OK
            capsys.readouterr()
            rows = dict(line.split(",") for line in
                        report.read_text().splitlines()[1:])
            total += float(rows["RMSE (FE) (Hz)"])
        assert tuned.group(1) == f"{total:.6g}"

    def test_all_diverged_tune_exits_3(self, tmp_path, capsys):
        # every gain in [1e6, 1e7] diverges on case1
        out_cfg, hist = tmp_path / "tuned.cfg", tmp_path / "hist.csv"
        rc = main(["tune", "--scenario", str(SCENARIOS / "case1.cfg"),
                   "--gain-lo", "1e6", "--gain-hi", "1e7", "--swarm", "4",
                   "--iterations", "2", "--out", str(out_cfg),
                   "--history", str(hist)])
        assert rc == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == ("DIVERGED: the best gains found "
                                        "diverge on the battery (fitness 1e+06)")
        # the files are written, as estimate writes its rows
        tuned = gio.read_config(out_cfg)
        assert all(1e6 <= g <= 1e7 for g in tuned.gamma_c)
        assert hist.read_bytes() == b"iteration,best_score\r\n" + b"".join(
            f"{i},1000000.0\r\n".encode() for i in range(2))
        rc = main(["metrics", "--scenario", str(SCENARIOS / "case1.cfg"),
                   "--config", str(out_cfg), "--seeds", "1"])
        assert rc == EXIT_DIVERGED

    def test_tune_eta_stays_in_range(self, tmp_path, scenario_file):
        out_cfg = tmp_path / "tuned.cfg"
        rc = main(["tune", "--scenario", str(scenario_file),
                   "--out", str(out_cfg), "--swarm", "3", "--iterations", "2",
                   "--tune-eta", "500.0", "3000.0"])
        assert rc == EXIT_OK
        eta = gio.read_config(out_cfg).eta_opt
        assert 500.0 <= eta <= 3000.0
        assert eta != EstimatorConfig().eta_opt

    @pytest.mark.parametrize("lo, hi, message", [
        ("200", "100", "lower bound must be below its upper bound"),
        ("0", "100", "needs positive bounds"),
    ])
    def test_bad_eta_range_is_input_error(self, tmp_path, scenario_file,
                                          capsys, lo, hi, message):
        out_cfg = tmp_path / "tuned.cfg"
        rc = main(["tune", "--scenario", str(scenario_file),
                   "--out", str(out_cfg), "--swarm", "2", "--iterations", "1",
                   "--tune-eta", lo, hi])
        assert rc == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out_cfg.exists()



# every command that needs the C library
NATIVE_COMMANDS = pytest.mark.parametrize("argv", [
    ["estimate", "{samples}", "--out", "{out}/est.csv"],
    ["synth", "{scenario}", "--out", "{out}"],
    ["metrics", "--scenario", "{scenario}", "--seeds", "1"],
    ["tune", "--scenario", "{scenario}", "--swarm", "2",
     "--iterations", "1", "--out", "{out}/tuned.cfg"]],
    ids=["estimate", "synth", "metrics", "tune"])


class TestNoCompiler:
    """Where the C library cannot be built, every command that needs it
    exits 2 naming the cause: no compiler, or no Python headers."""

    @staticmethod
    def _main(argv, tmp_path, synth_outputs, scenario_file, capsys,
              monkeypatch) -> tuple[int, str]:
        """Run the command from an empty cache, which holds no library
        built before; return its exit code and stderr."""
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _native._loaded.cache_clear()
        try:
            capsys.readouterr()
            rc = main([arg.format(samples=synth_outputs[0], out=out,
                                  scenario=scenario_file) for arg in argv])
        finally:
            _native._loaded.cache_clear()
        assert not list(out.iterdir())
        return rc, capsys.readouterr().err

    @NATIVE_COMMANDS
    def test_exits_2_naming_the_compiler(self, tmp_path, synth_outputs,
                                         scenario_file, capsys, monkeypatch,
                                         argv):
        compiler = str(tmp_path / "no-cc")
        monkeypatch.setattr(_native, "_CC", compiler)
        rc, err = self._main(argv, tmp_path, synth_outputs, scenario_file,
                             capsys, monkeypatch)
        assert rc == EXIT_INPUT
        assert err == (f"error: cannot build gridfreq's C library: C compiler "
                       f"{compiler!r} cannot be run (No such file or "
                       f"directory)\n")

    @NATIVE_COMMANDS
    def test_exits_2_naming_the_missing_headers(self, tmp_path, synth_outputs,
                                                scenario_file, capsys,
                                                monkeypatch, argv):
        include = tmp_path / "include"
        monkeypatch.setattr(_native, "_include_dir", lambda: str(include))
        rc, err = self._main(argv, tmp_path, synth_outputs, scenario_file,
                             capsys, monkeypatch)
        assert rc == EXIT_INPUT
        assert err == (f"error: cannot build gridfreq's C library: Python "
                       f"headers not found: {include / 'Python.h'}\n")
