"""CSV and key-value file round-tripping for streams, truth, estimates,
configs and scenarios.

Floats are written with ``repr`` (shortest round-trip form), so every file
written here parses back bit-identically.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ScenarioError
from .estimator import EstimateRecord, EstimateSeries, EstimatorConfig
from .synth import (ConstantProfile, DcSpec, EventProfile, GroundTruth,
                    HarmonicSpec, NoiseSpec, RampProfile, SampleStream,
                    ScenarioSpec, StepSpec)

SAMPLE_HEADER = ["t", "value"]
TRUTH_HEADER = ["t", "freq_hz", "rocof_hzps", "amp_pu", "phase_rad"]
HISTORY_HEADER = ["iteration", "best_score"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_rows(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence[float]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _read_rows(path: str | Path, header: Sequence[str]) -> np.ndarray:
    width = len(header)
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            got = next(r)
        except StopIteration:
            raise ScenarioError(f"{path}: empty CSV") from None
        if got != list(header):
            raise ScenarioError(f"{path}: expected header {','.join(header)}, "
                                f"got {','.join(got)}")
        data = []
        try:
            for row in r:
                if len(row) != width:
                    if not row:
                        continue
                    raise ScenarioError(f"{path}:{r.line_num}: expected {width} "
                                        f"fields, got {len(row)}")
                data.append(list(map(float, row)))
        except ValueError as exc:
            raise ScenarioError(f"{path}:{r.line_num}: malformed CSV value "
                                f"({exc})") from None
    if not data:
        raise ScenarioError(f"{path}: no data rows")
    return np.array(data)


def _uniform_grid(path: str | Path, t: np.ndarray, what: str
                  ) -> tuple[float, float]:
    """(t0, ts) of a time column, which must be uniformly spaced."""
    if len(t) < 2:
        raise ScenarioError(f"{path}: need at least two {what}")
    ts = float(t[1] - t[0])
    if ts <= 0 or np.abs(np.diff(t) - ts).max() > 1e-9:
        raise ScenarioError(f"{path}: {what} times are not uniformly spaced")
    return float(t[0]), ts


# --------------------------------------------------------------------------
# Streams and truth
# --------------------------------------------------------------------------

def write_samples(path: str | Path, stream: SampleStream) -> None:
    t = stream.times()
    _write_rows(path, SAMPLE_HEADER, zip(t, stream.values))


def read_samples(path: str | Path) -> SampleStream:
    arr = _read_rows(path, SAMPLE_HEADER)
    t0, ts = _uniform_grid(path, arr[:, 0], "samples")
    return SampleStream(t0=t0, ts=ts, values=arr[:, 1])


def write_truth(path: str | Path, truth: GroundTruth) -> None:
    t = truth.times()
    _write_rows(path, TRUTH_HEADER,
                zip(t, truth.freq_hz, truth.rocof_hzps, truth.amp_pu,
                    truth.phase_rad))


def read_truth(path: str | Path) -> GroundTruth:
    arr = _read_rows(path, TRUTH_HEADER)
    t0, ts = _uniform_grid(path, arr[:, 0], "truth rows")
    return GroundTruth(t0=t0, ts=ts, freq_hz=arr[:, 1],
                       rocof_hzps=arr[:, 2], amp_pu=arr[:, 3],
                       phase_rad=arr[:, 4])


# --------------------------------------------------------------------------
# Estimate series
# --------------------------------------------------------------------------

def estimate_header(n: int) -> list[str]:
    cols = ["t", "f_hz", "rocof_hzps", "residual", "a_dc", "a_dc1"]
    for i in range(1, n + 1):
        cols.append(f"amp_{i}")
        cols.append(f"phase_{i}")
    return cols


def write_estimates(path: str | Path, series: EstimateSeries) -> None:
    rows = []
    for r in series.records:
        row = [r.t, r.f_hz, r.rocof_hzps, r.residual, r.a_dc, r.a_dc1]
        for a, p in zip(r.amps, r.phases):
            row.append(a)
            row.append(p)
        rows.append(row)
    _write_rows(path, estimate_header(series.n), rows)


def read_estimates(path: str | Path) -> EstimateSeries:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise ScenarioError(f"{path}: empty CSV") from None
        n = (len(header) - 6) // 2
        if n < 1 or header != estimate_header(n):
            raise ScenarioError(f"{path}: not an estimate CSV")
        records = []
        for lineno, row in enumerate(r, 2):
            if not row:
                continue
            if len(row) != len(header):
                raise ScenarioError(f"{path}:{lineno}: expected {len(header)} "
                                    f"fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ScenarioError(f"{path}:{lineno}: malformed CSV value "
                                    f"({exc})") from None
            amps = vals[6::2]
            phases = vals[7::2]
            records.append(EstimateRecord(
                t=vals[0], f_hz=vals[1], rocof_hzps=vals[2],
                rocof_raw_hzps=math.nan, amps=amps, phases=phases,
                a_dc=vals[4], a_dc1=vals[5], residual=vals[3],
                eta=math.nan, phase_acc=math.nan, t_anchor=math.nan))
    if not records:
        raise ScenarioError(f"{path}: no data rows")
    return EstimateSeries(records=records, n=n)


def write_history(path: str | Path, history: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HISTORY_HEADER)
        for i, score in enumerate(history):
            w.writerow([i, _fmt(score)])


# --------------------------------------------------------------------------
# Key-value files
# --------------------------------------------------------------------------

def _parse_kv(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ScenarioError(f"{path}:{lineno}: empty key")
            out[key] = value
    return out


def _need(kv: dict[str, str], key: str, path: str | Path) -> str:
    if key not in kv:
        raise ScenarioError(f"{path}: missing key `{key}`")
    return kv[key]


def _kv_float(kv: dict[str, str], key: str, path: str | Path,
              default: float | None = None) -> float:
    if key not in kv:
        if default is None:
            raise ScenarioError(f"{path}: missing key `{key}`")
        return default
    try:
        return float(kv[key])
    except ValueError:
        raise ScenarioError(f"{path}: key `{key}` is not a number "
                            f"({kv[key]!r})") from None


# --------------------------------------------------------------------------
# Estimator config files
# --------------------------------------------------------------------------

def write_config(path: str | Path, config: EstimatorConfig) -> None:
    lines = [f"n = {config.n}",
             f"f0_hz = {_fmt(config.f0)}",
             f"ts_s = {_fmt(config.ts)}"]
    for i, g in enumerate(config.gamma_c, 1):
        lines.append(f"gamma_c_{i} = {_fmt(g)}")
    for i, g in enumerate(config.gamma_s, 1):
        lines.append(f"gamma_s_{i} = {_fmt(g)}")
    lines += [f"gamma_dc = {_fmt(config.gamma_dc)}",
              f"gamma_dc1 = {_fmt(config.gamma_dc1)}",
              f"beta_omega = {_fmt(config.beta_omega)}",
              f"eta_opt = {_fmt(config.eta_opt)}",
              f"eta_band = {_fmt(config.eta_band)}",
              f"obs_filter = {config.obs_filter}",
              f"obs_cutoff_hz = {_fmt(config.obs_cutoff_hz)}",
              f"rocof_smooth_window = {config.rocof_smooth_window}",
              f"report_every = {config.report_every}",
              f"anchor_policy = {config.anchor_policy}",
              f"t_reset_s = {_fmt(config.t_reset_s)}"]
    Path(path).write_text("\n".join(lines) + "\n")


def read_config(path: str | Path) -> EstimatorConfig:
    kv = _parse_kv(path)
    try:
        n = int(_need(kv, "n", path))
    except ValueError:
        raise ConfigError(f"{path}: key `n` is not an integer") from None
    gamma_c = tuple(_kv_float(kv, f"gamma_c_{i}", path) for i in range(1, n + 1))
    gamma_s = tuple(_kv_float(kv, f"gamma_s_{i}", path) for i in range(1, n + 1))
    defaults = EstimatorConfig(n=n)
    cfg = EstimatorConfig(
        n=n,
        f0=_kv_float(kv, "f0_hz", path, defaults.f0),
        ts=_kv_float(kv, "ts_s", path, defaults.ts),
        gamma_c=gamma_c,
        gamma_s=gamma_s,
        gamma_dc=_kv_float(kv, "gamma_dc", path, defaults.gamma_dc),
        gamma_dc1=_kv_float(kv, "gamma_dc1", path, defaults.gamma_dc1),
        beta_omega=_kv_float(kv, "beta_omega", path, defaults.beta_omega),
        eta_opt=_kv_float(kv, "eta_opt", path, defaults.eta_opt),
        eta_band=_kv_float(kv, "eta_band", path, defaults.eta_band),
        obs_filter=kv.get("obs_filter", defaults.obs_filter),
        obs_cutoff_hz=_kv_float(kv, "obs_cutoff_hz", path, defaults.obs_cutoff_hz),
        rocof_smooth_window=int(_kv_float(kv, "rocof_smooth_window", path,
                                          defaults.rocof_smooth_window)),
        report_every=int(_kv_float(kv, "report_every", path,
                                   defaults.report_every)),
        anchor_policy=kv.get("anchor_policy", defaults.anchor_policy),
        t_reset_s=_kv_float(kv, "t_reset_s", path, defaults.t_reset_s),
    )
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------

def _indexed(kv: dict[str, str], prefix: str) -> list[int]:
    """Sorted section indices for keys like `step_1.t_start`."""
    idx = set()
    for key in kv:
        if key.startswith(prefix + "_") and "." in key:
            head = key.split(".", 1)[0]
            tail = head[len(prefix) + 1:]
            if tail.isdigit():
                idx.add(int(tail))
    return sorted(idx)


def read_scenario(path: str | Path) -> ScenarioSpec:
    kv = _parse_kv(path)
    duration = _kv_float(kv, "duration", path)
    base_freq = _kv_float(kv, "base_freq", path)
    amp_pu = _kv_float(kv, "amp_pu", path, 1.0)
    phase0 = _kv_float(kv, "phase0_rad", path, 0.0)

    kind = kv.get("profile", "constant")
    if kind == "constant":
        profile = ConstantProfile()
    elif kind == "ramp":
        profile = RampProfile(t_start=_kv_float(kv, "profile.t_start", path),
                              duration=_kv_float(kv, "profile.duration", path),
                              df_hz=_kv_float(kv, "profile.df_hz", path))
    elif kind == "event":
        profile = EventProfile(
            t_start=_kv_float(kv, "profile.t_start", path),
            peak_dev_hz=_kv_float(kv, "profile.peak_dev_hz", path),
            peak_rocof_hzps=_kv_float(kv, "profile.peak_rocof_hzps", path))
    else:
        raise ScenarioError(f"{path}: unknown profile kind {kind!r}")

    noise = None
    if "noise.kind" in kv or "noise.level" in kv:
        defaults = NoiseSpec()
        noise = NoiseSpec(kind=kv.get("noise.kind", defaults.kind),
                          level=_kv_float(kv, "noise.level", path, defaults.level),
                          seed=int(_kv_float(kv, "noise.seed", path, defaults.seed)),
                          pole=_kv_float(kv, "noise.pole", path, defaults.pole),
                          impulse_rate=_kv_float(kv, "noise.impulse_rate", path,
                                                 defaults.impulse_rate),
                          impulse_mag=_kv_float(kv, "noise.impulse_mag", path,
                                                defaults.impulse_mag))

    harmonics = tuple(
        HarmonicSpec(order=int(_kv_float(kv, f"harmonic_{i}.order", path)),
                     rel_amp=_kv_float(kv, f"harmonic_{i}.rel_amp", path),
                     phase_rad=_kv_float(kv, f"harmonic_{i}.phase_rad", path, 0.0))
        for i in _indexed(kv, "harmonic"))
    steps = tuple(
        StepSpec(t_start=_kv_float(kv, f"step_{i}.t_start", path),
                 duration=_kv_float(kv, f"step_{i}.duration", path),
                 amp_step_pu=_kv_float(kv, f"step_{i}.amp_step_pu", path, 0.0),
                 phase_step_rad=_kv_float(kv, f"step_{i}.phase_step_rad", path, 0.0))
        for i in _indexed(kv, "step"))
    dc_events = tuple(
        DcSpec(t_start=_kv_float(kv, f"dc_{i}.t_start", path),
               a_dc_pu=_kv_float(kv, f"dc_{i}.a_dc_pu", path),
               tau_s=_kv_float(kv, f"dc_{i}.tau_s", path))
        for i in _indexed(kv, "dc"))

    knee = kv.get("distortion_knee")
    return ScenarioSpec(duration=duration, base_freq=base_freq, amp_pu=amp_pu,
                        phase0_rad=phase0, profile=profile,
                        harmonics=harmonics, noise=noise, steps=steps,
                        dc_events=dc_events,
                        distortion_knee=float(knee) if knee else None)


def write_scenario(path: str | Path, spec: ScenarioSpec) -> None:
    lines = [f"duration = {_fmt(spec.duration)}",
             f"base_freq = {_fmt(spec.base_freq)}",
             f"amp_pu = {_fmt(spec.amp_pu)}",
             f"phase0_rad = {_fmt(spec.phase0_rad)}"]
    p = spec.profile
    if isinstance(p, RampProfile):
        lines += ["profile = ramp",
                  f"profile.t_start = {_fmt(p.t_start)}",
                  f"profile.duration = {_fmt(p.duration)}",
                  f"profile.df_hz = {_fmt(p.df_hz)}"]
    elif isinstance(p, EventProfile):
        lines += ["profile = event",
                  f"profile.t_start = {_fmt(p.t_start)}",
                  f"profile.peak_dev_hz = {_fmt(p.peak_dev_hz)}",
                  f"profile.peak_rocof_hzps = {_fmt(p.peak_rocof_hzps)}"]
    else:
        lines.append("profile = constant")
    if spec.noise is not None:
        lines += [f"noise.kind = {spec.noise.kind}",
                  f"noise.level = {_fmt(spec.noise.level)}",
                  f"noise.seed = {spec.noise.seed}",
                  f"noise.pole = {_fmt(spec.noise.pole)}",
                  f"noise.impulse_rate = {_fmt(spec.noise.impulse_rate)}",
                  f"noise.impulse_mag = {_fmt(spec.noise.impulse_mag)}"]
    for i, h in enumerate(spec.harmonics, 1):
        lines += [f"harmonic_{i}.order = {h.order}",
                  f"harmonic_{i}.rel_amp = {_fmt(h.rel_amp)}",
                  f"harmonic_{i}.phase_rad = {_fmt(h.phase_rad)}"]
    for i, s in enumerate(spec.steps, 1):
        lines += [f"step_{i}.t_start = {_fmt(s.t_start)}",
                  f"step_{i}.duration = {_fmt(s.duration)}",
                  f"step_{i}.amp_step_pu = {_fmt(s.amp_step_pu)}",
                  f"step_{i}.phase_step_rad = {_fmt(s.phase_step_rad)}"]
    for i, d in enumerate(spec.dc_events, 1):
        lines += [f"dc_{i}.t_start = {_fmt(d.t_start)}",
                  f"dc_{i}.a_dc_pu = {_fmt(d.a_dc_pu)}",
                  f"dc_{i}.tau_s = {_fmt(d.tau_s)}"]
    if spec.distortion_knee is not None:
        lines.append(f"distortion_knee = {_fmt(spec.distortion_knee)}")
    Path(path).write_text("\n".join(lines) + "\n")
