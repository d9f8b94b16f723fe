"""Unit tests for CSV and key-value file round trips."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridfreq import (ConfigError, EstimatorConfig, EventProfile, RampProfile,
                      SampleStream, ScenarioError, ScenarioSpec, run,
                      synthesize)
from gridfreq import io as gio
from gridfreq.synth import (ConstantProfile, DcSpec, HarmonicSpec, NoiseSpec,
                            StepSpec)
from cases import case1, case2, case2b, case3, clean_tone
from golden import csv_digests, io_digests, load_csv, load_io

FS = 1200.0

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestSampleRoundTrip:
    def test_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = SampleStream(0.0, 1.0 / FS, rng.normal(0.0, 1.0, 100))
        path = tmp_path / "s.csv"
        gio.write_samples(path, stream)
        back = gio.read_samples(path)
        assert back.t0 == stream.t0
        assert back.ts == pytest.approx(stream.ts, rel=1e-12)
        np.testing.assert_array_equal(back.values, stream.values)

    def test_rejects_nonuniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
        with pytest.raises(ScenarioError):
            gio.read_samples(path)

    @pytest.mark.parametrize("rows", ["nan,1.0\n0.1,2.0\n0.2,3.0\n",
                                      "0.0,1.0\nnan,2.0\n0.2,3.0\n",
                                      "0.0,1.0\n0.1,2.0\ninf,3.0\n",
                                      "0.0,1.0\n0.1,2.0\n0.2,-inf\n",
                                      "0.0,1.0\n\n0.1,nan\n0.2,3.0\n"])
    def test_rejects_non_finite_time(self, tmp_path, rows):
        # time and value columns alike; a blank line still counts as a line
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n" + rows)
        line, column = next((i, ("t", "value")[j])
                            for i, row in enumerate(rows.splitlines(), 2) if row
                            for j, x in enumerate(row.split(","))
                            if not math.isfinite(float(x)))
        with pytest.raises(ScenarioError,
                           match=rf"bad\.csv:{line}: `{column}` is not finite"):
            gio.read_samples(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val\n0.0,1.0\n")
        with pytest.raises(ScenarioError):
            gio.read_samples(path)

    def test_rejects_empty_and_headerless(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ScenarioError):
            gio.read_samples(path)
        path.write_text("t,value\n")
        with pytest.raises(ScenarioError):
            gio.read_samples(path)

    def test_rejects_malformed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,abc\n")
        with pytest.raises(ScenarioError):
            gio.read_samples(path)

    def test_rejects_a_hash_line(self, tmp_path):
        # a CSV has no comments: the line is a malformed row
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n#0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        with pytest.raises(ScenarioError, match=r"bad\.csv:2: malformed"):
            gio.read_samples(path)

    def test_quoted_header_and_values_read_as_unquoted(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"t","value"\n"0.0",1.0\n0.1,"2.0"\n')
        back = gio.read_samples(path)
        assert (back.t0, back.ts, back.values.tolist()) == (0.0, 0.1, [1.0, 2.0])

    def test_quoted_field_across_lines_names_its_first_line(self, tmp_path):
        # numpy reads `"2` on into the next line, where each line alone
        # parses; the odd quote count names the line that opens the field
        path = tmp_path / "bad.csv"
        path.write_text('t,value\n0.0,"2\n0.1,"3\n')
        with pytest.raises(ScenarioError, match=r"bad\.csv:2: unmatched quote"):
            gio.read_samples(path)

    @pytest.mark.parametrize("rows", ["", "\n\r\n"])
    def test_rowless_file_is_an_error_without_a_warning(self, tmp_path, rows):
        path = tmp_path / "rowless.csv"
        path.write_text("t,value\n" + rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ScenarioError, match="no data rows"):
                gio.read_samples(path)
        assert caught == []


class TestTruthAndPhasorRoundTrip:
    def test_truth_bitwise(self, tmp_path):
        spec = ScenarioSpec(duration=0.5, base_freq=50.0,
                            profile=RampProfile(t_start=0.1, duration=0.2,
                                                df_hz=0.3))
        _, truth = synthesize(spec, FS)
        path = tmp_path / "t.csv"
        gio.write_truth(path, truth)
        back = gio.read_truth(path)
        np.testing.assert_array_equal(back.freq_hz, truth.freq_hz)
        np.testing.assert_array_equal(back.rocof_hzps, truth.rocof_hzps)
        np.testing.assert_array_equal(back.amp_pu, truth.amp_pu)
        np.testing.assert_array_equal(back.phase_rad, truth.phase_rad)

    def test_truth_rejects_nonuniform(self, tmp_path):
        # re-gridding 0, 0.001, 0.005 to 0, 0.001, 0.002 would pair
        # estimates with the wrong truth
        path = tmp_path / "bad.csv"
        path.write_text("t,freq_hz,rocof_hzps,amp_pu,phase_rad\n"
                        "0.0,50.0,0.0,1.0,0.0\n"
                        "0.001,50.0,0.0,1.0,0.1\n"
                        "0.005,50.0,0.0,1.0,0.2\n")
        with pytest.raises(ScenarioError, match="not uniformly spaced"):
            gio.read_truth(path)

    def test_truth_rejects_non_finite_time(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,freq_hz,rocof_hzps,amp_pu,phase_rad\n"
                        "0.0,50.0,0.0,1.0,0.0\n"
                        "nan,50.0,0.0,1.0,0.1\n"
                        "0.002,50.0,0.0,1.0,0.2\n")
        with pytest.raises(ScenarioError, match=r"bad\.csv:3: `t` is not finite"):
            gio.read_truth(path)

    def test_truth_rejects_non_finite_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,freq_hz,rocof_hzps,amp_pu,phase_rad\n"
                        "0.0,50.0,0.0,1.0,0.0\n"
                        "0.001,50.0,0.0,1.0,0.1\n"
                        "0.002,50.0,inf,1.0,0.2\n")
        with pytest.raises(ScenarioError,
                           match=r"bad\.csv:4: `rocof_hzps` is not finite"):
            gio.read_truth(path)


class TestEstimateRoundTrip:
    def test_header(self):
        assert gio.estimate_header(2) == [
            "t", "f_hz", "rocof_hzps", "rocof_raw_hzps", "a_dc", "a_dc1",
            "residual", "eta", "phase_acc", "t_anchor",
            "a_c_1", "a_c_2", "a_s_1", "a_s_2"]

    def test_bitwise_for_stored_fields(self, tmp_path):
        # every field is stored, so the series read back equals the one written
        stream, _ = synthesize(ScenarioSpec(duration=1.0, base_freq=50.0), FS)
        series = run(stream, EstimatorConfig())
        path = tmp_path / "est.csv"
        gio.write_estimates(path, series)
        back = gio.read_estimates(path)
        assert back.n == series.n
        assert back.rows.tobytes() == series.rows.tobytes()
        assert back.records == series.records
        np.testing.assert_array_equal(back.polar(), series.polar())

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,value\n0.0,1.0\n")
        with pytest.raises(ScenarioError):
            gio.read_estimates(path)

    def test_csv_bytes_match_stored_digests(self, tmp_path):
        assert csv_digests(tmp_path) == load_csv()


class TestWrittenBytes:
    """Samples, truth and history files keep the bytes of the stored digests."""

    def test_match_stored_digests(self, tmp_path):
        assert io_digests(tmp_path) == load_io()


class TestHistory:
    def test_write(self, tmp_path):
        path = tmp_path / "h.csv"
        gio.write_history(path, [3.0, 2.0, 1.5])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,best_score"
        assert lines[1] == "0,3.0"
        assert len(lines) == 4


class TestConfigRoundTrip:
    def test_defaults(self, tmp_path):
        cfg = EstimatorConfig()
        path = tmp_path / "c.cfg"
        gio.write_config(path, cfg)
        back = gio.read_config(path)
        assert back == cfg

    def test_nondefault(self, tmp_path):
        cfg = EstimatorConfig(n=3, f0=60.0, ts=1.0 / 1500.0,
                              gamma_c=(1.0, 2.0, 3.0), gamma_s=(4.0, 5.0, 6.0),
                              gamma_dc=7.0, gamma_dc1=8.0, eta_opt=900.0,
                              obs_lowpass_hz=300.0, rocof_smooth_window=24,
                              report_every=3, t_reset_s=0.4)
        path = tmp_path / "c.cfg"
        gio.write_config(path, cfg)
        assert gio.read_config(path) == cfg

    def test_array_gains(self, tmp_path):
        # e.g. a slice of pso_tune's best vector
        cfg = EstimatorConfig(gamma_c=np.arange(31.0, 38.0),
                              gamma_s=np.full(7, 45.5))
        assert cfg == EstimatorConfig(gamma_c=list(range(31, 38)),
                                      gamma_s=[45.5] * 7)
        path = tmp_path / "c.cfg"
        gio.write_config(path, cfg)
        assert gio.read_config(path) == cfg

    def test_missing_n_names_the_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("f0_hz = 50.0\n")
        with pytest.raises(ScenarioError, match="missing key `n`"):
            gio.read_config(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n = 7\nnonsense line\n")
        with pytest.raises(ScenarioError, match="c.cfg:2"):
            gio.read_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        gio.write_config(path, EstimatorConfig())
        text = path.read_text().replace("report_every = 12\n",
                                        "report_every = 12  # inline\n\n")
        path.write_text("# leading comment\n\n" + text)
        assert gio.read_config(path) == EstimatorConfig()

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        gio.write_config(path, EstimatorConfig())
        lines = path.read_text().splitlines()
        first = lines.index("report_every = 12") + 1
        path.write_text("\n".join([*lines, "report_every = 6"]) + "\n")
        with pytest.raises(ScenarioError,
                           match=rf"c\.cfg:{len(lines) + 1}: duplicate key "
                                 rf"`report_every` \(first on line {first}\)"):
            gio.read_config(path)

    @pytest.mark.parametrize("line, match", [
        ("report_every = 12.7", r"c\.cfg:2: key `report_every` is not an integer"),
        ("eta_opt = nan", r"c\.cfg:2: key `eta_opt` is not finite"),
        ("t_reset_s = inf", r"c\.cfg:2: key `t_reset_s` is not finite"),
        ("eta_band = abc", r"c\.cfg:2: unknown key `eta_band`"),
        ("obs_lowpass_hz = abc", r"c\.cfg:2: key `obs_lowpass_hz` is not a number"),
        ("report_evry = 6", r"c\.cfg:2: unknown key `report_evry`"),
        ("gamma_c_8 = 40.0", r"c\.cfg:2: unknown key `gamma_c_8`"),
        ("anchor_policy = saturate", r"c\.cfg:2: unknown key `anchor_policy`"),
    ])
    def test_malformed_value_names_file_and_key(self, tmp_path, line, match):
        path = tmp_path / "c.cfg"
        gio.write_config(path, EstimatorConfig())
        key = line.split(" = ")[0]
        lines = [x for x in path.read_text().splitlines()
                 if x.split(" = ")[0] != key]
        path.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n")
        with pytest.raises(ScenarioError, match=match):
            gio.read_config(path)

    def test_integral_value_accepted(self, tmp_path):
        path = tmp_path / "c.cfg"
        gio.write_config(path, EstimatorConfig())
        path.write_text(path.read_text().replace("report_every = 12",
                                                 "report_every = 6.0"))
        assert gio.read_config(path).report_every == 6

    def test_written_keys_are_the_field_names(self, tmp_path):
        path = tmp_path / "c.cfg"
        gio.write_config(path, EstimatorConfig(n=2))
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
        assert keys == ["n", "f0_hz", "ts_s", "gamma_c_1", "gamma_c_2",
                        "gamma_s_1", "gamma_s_2", "gamma_dc", "gamma_dc1",
                        "eta_opt", "rocof_smooth_window", "report_every",
                        "t_reset_s"]

    def test_invalid_config_rejected_on_read(self, tmp_path):
        path = tmp_path / "c.cfg"
        gio.write_config(path, EstimatorConfig())
        path.write_text(path.read_text().replace("f0_hz = 50.0", "f0_hz = -1.0"))
        with pytest.raises(ConfigError,
                           match=r"c\.cfg: nominal frequency must be positive"):
            gio.read_config(path)


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("spec", [
        ScenarioSpec(duration=1.0, base_freq=50.0),
        ScenarioSpec(duration=2.0, base_freq=60.0, amp_pu=1.5,
                     phase0_rad=0.25,
                     profile=RampProfile(t_start=0.5, duration=1.0,
                                         df_hz=-0.4)),
        ScenarioSpec(duration=4.0, base_freq=50.0,
                     profile=EventProfile(t_start=1.0, peak_dev_hz=0.5,
                                          peak_rocof_hzps=1.0),
                     noise=NoiseSpec(kind="colored", level=0.02, seed=3,
                                     pole=0.8),
                     harmonics=(HarmonicSpec(order=3, rel_amp=0.02,
                                             phase_rad=0.1),
                                HarmonicSpec(order=5, rel_amp=0.01),),
                     steps=(StepSpec(t_start=2.0, duration=0.4,
                                     amp_step_pu=0.05,
                                     phase_step_rad=0.04),),
                     dc_events=(DcSpec(t_start=1.0, a_dc_pu=0.1,
                                       tau_s=0.05),),
                     distortion_knee=2.0),
        ScenarioSpec(duration=1.0, base_freq=50.0,
                     noise=NoiseSpec(kind="impulsive", level=0.05, seed=7,
                                     impulse_rate=0.02, impulse_mag=4.5)),
    ])
    def test_round_trip(self, tmp_path, spec):
        path = tmp_path / "s.cfg"
        gio.write_scenario(path, spec)
        assert gio.read_scenario(path) == spec

    @pytest.mark.parametrize("line", ["noise.impulse_rate = 1.5",
                                      "noise.impulse_mag = -1.0"])
    def test_bad_impulse_noise_rejected(self, tmp_path, line):
        path = tmp_path / "s.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n"
                        f"noise.kind = impulsive\nnoise.level = 0.05\n{line}\n")
        with pytest.raises(ScenarioError, match="impulse"):
            gio.read_scenario(path)

    @pytest.mark.parametrize("line, message", [
        ("noise.level = 0.5", "noise level must lie in"),
        ("duration = -1.0", "scenario duration must be positive"),
    ])
    def test_value_error_names_the_file(self, tmp_path, line, message):
        key = line.split(" = ")[0]
        base = ["duration = 1.0", "base_freq = 50.0", "noise.level = 0.01"]
        path = tmp_path / "s.cfg"
        path.write_text("\n".join([x for x in base if not x.startswith(key)]
                                  + [line]) + "\n")
        with pytest.raises(ScenarioError, match=rf"s\.cfg: {message}"):
            gio.read_scenario(path)

    def test_unknown_profile_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\nprofile = spline\n")
        with pytest.raises(ScenarioError):
            gio.read_scenario(path)

    def test_missing_base_freq_names_the_key(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("duration = 1.0\n")
        with pytest.raises(ScenarioError, match="missing key `base_freq`"):
            gio.read_scenario(path)

    @pytest.mark.parametrize("line, match", [
        ("harmonic_1.order = 2.9", r"key `harmonic_1.order` is not an integer \('2.9'\)"),
        ("noise.seed = 1.5", r"key `noise.seed` is not an integer"),
        ("duration = nan", r"key `duration` is not finite"),
        ("distortion_knee = abc", r"key `distortion_knee` is not a number \('abc'\)"),
        ("noise.levle = 0.2", r"unknown key `noise.levle`"),
        ("harmonic_1.phase = 0.1", r"unknown key `harmonic_1.phase`"),
        ("profile.df_hz = 0.1", r"unknown key `profile.df_hz`"),
    ])
    def test_malformed_value_names_file_and_key(self, tmp_path, line, match):
        base = ["duration = 1.0", "base_freq = 50.0", "noise.level = 0.01",
                "harmonic_1.order = 3", "harmonic_1.rel_amp = 0.01"]
        key = line.split(" = ")[0]
        lines = [x for x in base if x.split(" = ")[0] != key] + [line]
        path = tmp_path / "s.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match=rf"s\.cfg:{len(lines)}: {match}"):
            gio.read_scenario(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\nnoise.level = 0.01\n"
                        "# a later block repeats a key\nnoise.level = 0.2\n")
        with pytest.raises(ScenarioError, match=r"s\.cfg:5: duplicate key "
                                                r"`noise.level` \(first on line 3\)"):
            gio.read_scenario(path)

    def test_integral_values_accepted(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n"
                        "noise.seed = 1e3\nharmonic_1.order = 3.0\n"
                        "harmonic_1.rel_amp = 0.01\n")
        spec = gio.read_scenario(path)
        assert spec.noise == NoiseSpec(seed=1000)
        assert spec.harmonics == (HarmonicSpec(order=3, rel_amp=0.01),)
        assert type(spec.noise.seed) is int and type(spec.harmonics[0].order) is int
        # an integer beyond float precision stays exact
        path.write_text(path.read_text().replace("1e3", str(2 ** 64 + 1)))
        assert gio.read_scenario(path).noise.seed == 2 ** 64 + 1

    def test_constant_profile_default(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("duration = 1.0\nbase_freq = 50.0\n")
        spec = gio.read_scenario(path)
        assert isinstance(spec.profile, ConstantProfile)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_line_ends_and_utf8(self, tmp_path, end):
        # lines end where text mode ends them; a multi-byte character in a
        # comment is read, and a byte that is not UTF-8 names its line
        path = tmp_path / "s.cfg"
        lines = ["# \u00b5s and \u2126".encode(), b"duration = 1.0",
                 b"base_freq = 50.0"]
        path.write_bytes(end.join(lines) + end)
        assert gio.read_scenario(path) == ScenarioSpec(duration=1.0,
                                                       base_freq=50.0)
        path.write_bytes(end.join([*lines, b"# \xff"]) + end)
        with pytest.raises(ScenarioError, match="s.cfg:4: not UTF-8 text$"):
            gio.read_scenario(path)


SHIPPED = ["clean.cfg", "case1.cfg", "case1b.cfg", "case2.cfg", "case2b.cfg",
           "case3.cfg"]


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_parses_and_synthesizes(self, name):
        spec = gio.read_scenario(SCENARIO_DIR / name)
        stream, truth = synthesize(spec, FS, seed=0)
        assert len(stream) == len(truth) == int(round(spec.duration * FS)) + 1

    @pytest.mark.parametrize("name, build", [
        ("clean.cfg", clean_tone), ("case1.cfg", case1),
        ("case1b.cfg", lambda: case1(0.15, 0)), ("case2.cfg", case2),
        ("case2b.cfg", case2b), ("case3.cfg", case3)])
    def test_matches_its_test_builder(self, name, build):
        # tests build these scenarios in code; a file edit must not drift
        assert gio.read_scenario(SCENARIO_DIR / name) == build()

    @pytest.mark.parametrize("name", SHIPPED)
    def test_rewrite_keeps_every_line(self, tmp_path, name):
        # a shipped file, comments aside, is what write_scenario writes
        text = (SCENARIO_DIR / name).read_text().splitlines()
        expect = [line for line in text if not line.startswith("#")]
        path = tmp_path / name
        gio.write_scenario(path, gio.read_scenario(SCENARIO_DIR / name))
        got = path.read_text().splitlines()
        assert [line for line in got if line in expect] == expect
