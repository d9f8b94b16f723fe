"""CSV and key-value file round-tripping for streams, truth, estimates,
configs and scenarios.

Floats are written with ``repr`` (shortest round-trip form), so every file
written here parses back bit-identically.

Config and scenario files are ``key = value`` lines whose keys come from
the fields of the frozen dataclasses they describe: ``name`` for a field of
the top-level object, ``section.name`` for a field of a nested one
(``profile.``, ``noise.``) and ``section_i.name`` for the i-th item of a
tuple of them (``harmonic_i.``, ``step_i.``, ``dc_i.``).  One field walk
writes and reads every format, so each key is defined once, by its field.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import GridFreqError, ScenarioError
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


def _read_rows(path: str | Path, header: Sequence[str] | None = None
               ) -> tuple[list[str], np.ndarray]:
    """(header, float rows) of a CSV; ``header``, if given, must match."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            got = next(r)
        except StopIteration:
            raise ScenarioError(f"{path}: empty CSV") from None
        if header is not None and got != list(header):
            raise ScenarioError(f"{path}: expected header {','.join(header)}, "
                                f"got {','.join(got)}")
        width = len(got)
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
    arr = np.array(data)
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ScenarioError(f"{path}:{_line_of_row(path, row)}: "
                            f"`{got[col]}` is not finite")
    return got, arr


def _line_of_row(path: str | Path, row: int) -> int:
    """File line of the ``row``-th data row, found by reading it again."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        lines = (r.line_num for cells in r if cells)
        return next(itertools.islice(lines, row, None))


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
    _, arr = _read_rows(path, SAMPLE_HEADER)
    t0, ts = _uniform_grid(path, arr[:, 0], "samples")
    return SampleStream(t0=t0, ts=ts, values=arr[:, 1])


def write_truth(path: str | Path, truth: GroundTruth) -> None:
    t = truth.times()
    _write_rows(path, TRUTH_HEADER,
                zip(t, truth.freq_hz, truth.rocof_hzps, truth.amp_pu,
                    truth.phase_rad))


def read_truth(path: str | Path) -> GroundTruth:
    _, arr = _read_rows(path, TRUTH_HEADER)
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
    header, arr = _read_rows(path)
    n = (len(header) - 6) // 2
    if n < 1 or header != estimate_header(n):
        raise ScenarioError(f"{path}: not an estimate CSV")
    records = [EstimateRecord(
        t=vals[0], f_hz=vals[1], rocof_hzps=vals[2], rocof_raw_hzps=math.nan,
        amps=vals[6::2], phases=vals[7::2], a_dc=vals[4], a_dc1=vals[5],
        residual=vals[3], eta=math.nan, phase_acc=math.nan,
        t_anchor=math.nan) for vals in arr.tolist()]
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

# annotation text of the scalar fields -> value type
_SCALARS = {"int": int, "float": float, "float | None": float, "str": str}
# keys that differ from their field name
_KEYS = {"f0": "f0_hz", "ts": "ts_s"}
# the scenario's frequency profile: `profile = <kind>` selects the class
_PROFILES = {"constant": ConstantProfile, "ramp": RampProfile,
             "event": EventProfile}
# tuple fields of sections, written as `<prefix>_<i>.<field>`
_INDEXED = {"harmonics": ("harmonic", HarmonicSpec), "steps": ("step", StepSpec),
            "dc_events": ("dc", DcSpec)}
# optional sections, present when any `<field>.` key is
_OPTIONAL = {"noise": NoiseSpec}


class _Keys:
    """The ``key = value`` pairs of one file; each read consumes its key."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.kv: dict[str, tuple[int, str]] = {}
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
                if key in self.kv:
                    raise ScenarioError(f"{path}:{lineno}: duplicate key `{key}` "
                                        f"(first on line {self.kv[key][0]})")
                self.kv[key] = (lineno, value)

    def take(self, key: str, kind: type, default: Any = MISSING) -> Any:
        """The value of ``key`` as an int, a finite float or a str."""
        if key not in self.kv:
            if default is MISSING:
                raise ScenarioError(f"{self.path}: missing key `{key}`")
            return default
        lineno, text = self.kv.pop(key)
        if kind is str:
            return text
        where = f"{self.path}:{lineno}: key `{key}`"
        try:
            x = float(text)
        except ValueError:
            raise ScenarioError(f"{where} is not a number ({text!r})") from None
        if not math.isfinite(x):
            raise ScenarioError(f"{where} is not finite ({text!r})")
        if kind is float:
            return x
        if not x.is_integer():
            raise ScenarioError(f"{where} is not an integer ({text!r})")
        try:
            return int(text)
        except ValueError:            # integral but written as e.g. 3.0
            return int(x)

    def has(self, prefix: str) -> bool:
        return any(key.startswith(prefix) for key in self.kv)

    def indices(self, prefix: str) -> list[int]:
        """Sorted item numbers of keys like ``step_1.t_start``."""
        heads = {key.split(".", 1)[0] for key in self.kv if "." in key}
        return sorted(int(h[len(prefix) + 1:]) for h in heads
                      if h.startswith(prefix + "_") and h[len(prefix) + 1:].isdigit())

    def finish(self) -> None:
        """Reject the keys no field has read."""
        if self.kv:
            key, (lineno, _) = min(self.kv.items(), key=lambda kv: kv[1][0])
            raise ScenarioError(f"{self.path}:{lineno}: unknown key `{key}`")


def _lines(obj: Any, prefix: str = "") -> list[str]:
    """The ``key = value`` lines of a dataclass, in field order."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        key = prefix + _KEYS.get(f.name, f.name)
        if f.name in _INDEXED:
            for i, item in enumerate(value, 1):
                out += _lines(item, f"{_INDEXED[f.name][0]}_{i}.")
        elif is_dataclass(value):
            if f.name == "profile":
                kind = next(k for k, c in _PROFILES.items() if isinstance(value, c))
                out.append(f"{key} = {kind}")
            out += _lines(value, f"{key}.")
        elif isinstance(value, tuple):
            out += [f"{key}_{i} = {_fmt(v)}" for i, v in enumerate(value, 1)]
        elif value is not None:
            text = _fmt(value) if _SCALARS[f.type] is float else value
            out.append(f"{key} = {text}")
    return out


def _read(keys: _Keys, cls: type, prefix: str = "", **given: Any) -> Any:
    """Build ``cls`` from the keys :func:`_lines` writes for it.

    A field with a dataclass default is an optional key; the values in
    ``given`` are taken as read.
    """
    values = dict(given)
    for f in fields(cls):
        if f.name in values:
            continue
        key = prefix + _KEYS.get(f.name, f.name)
        if f.name in _INDEXED:
            head, item = _INDEXED[f.name]
            values[f.name] = tuple(_read(keys, item, f"{head}_{i}.")
                                   for i in keys.indices(head))
        elif f.name in _OPTIONAL:
            values[f.name] = (_read(keys, _OPTIONAL[f.name], f"{key}.")
                              if keys.has(f"{key}.") else None)
        elif f.name == "profile":
            kind = keys.take(key, str, "constant")
            if kind not in _PROFILES:
                raise ScenarioError(f"{keys.path}: unknown profile kind {kind!r}")
            values[f.name] = _read(keys, _PROFILES[kind], f"{key}.")
        elif f.type not in _SCALARS:          # gain tuple, one key per harmonic
            values[f.name] = tuple(keys.take(f"{key}_{i}", float)
                                   for i in range(1, values["n"] + 1))
        else:
            values[f.name] = keys.take(key, _SCALARS[f.type], f.default)
    try:
        return cls(**values)
    except GridFreqError as exc:      # a value check of the dataclass
        raise type(exc)(f"{keys.path}: {exc}") from None


def _write_kv(path: str | Path, obj: Any) -> None:
    Path(path).write_text("\n".join(_lines(obj)) + "\n")


# --------------------------------------------------------------------------
# Estimator config and scenario files
# --------------------------------------------------------------------------

def write_config(path: str | Path, config: EstimatorConfig) -> None:
    _write_kv(path, config)


def read_config(path: str | Path) -> EstimatorConfig:
    keys = _Keys(path)
    # the harmonic count sizes the gain tuples, so it is the one required key
    cfg = _read(keys, EstimatorConfig, n=keys.take("n", int))
    keys.finish()
    return cfg


def write_scenario(path: str | Path, spec: ScenarioSpec) -> None:
    _write_kv(path, spec)


def read_scenario(path: str | Path) -> ScenarioSpec:
    keys = _Keys(path)
    spec = _read(keys, ScenarioSpec)
    keys.finish()
    return spec
