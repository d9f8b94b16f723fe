"""CSV and key-value file round-tripping for streams, truth, estimates,
configs and scenarios.

Floats are written as ``repr`` writes them (shortest round-trip form), so
every file written here parses back bit-identically.  CSV lines end in
CRLF.  The CSV rows are written in chunks by the C formatter of the
package's C library (see :mod:`gridfreq._native`), which gives ``repr``'s
bytes.  Every file is read as UTF-8, less one leading byte-order mark.
A CSV's rows are parsed by the library's C parser alone, whose grammar
(``gridfreq_parse_rows``) is the one README "File formats" states: decimal
fields with blanks and one pair of quotes around them, commas, CRLF, LF
or CR line ends and empty lines, each value to the bits numpy's text
reader gives; it names the first line at fault and its cause.

Config and scenario files are ``key = value`` lines whose keys come from
the fields of the frozen dataclasses they describe: ``name`` for a field of
the top-level object, ``section.name`` for a field of a nested one
(``profile.``, ``noise.``) and ``section_i.name`` for the i-th item of a
tuple of them (``harmonic_i.``, ``step_i.``, ``dc_i.``).  One field walk
writes and reads every format, so each key is defined once, by its field.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import _native
from .errors import ScenarioError, named
from .estimator import (ROW_COLUMNS, TIME_ROUNDING, EstimateSeries,
                        EstimatorConfig)
from .metrics import MetricsReport
from .synth import (ConstantProfile, DcSpec, EventProfile, GroundTruth,
                    HarmonicSpec, NoiseSpec, RampProfile, SampleStream,
                    ScenarioSpec, StepSpec)

SAMPLE_HEADER = ["t", "value"]
TRUTH_HEADER = ["t", "freq_hz", "rocof_hzps", "amp_pu", "phase_rad"]
HISTORY_HEADER = ["iteration", "best_score"]
_LINE_END = re.compile(rb"\r\n?|\n")   # where text mode ends a line
_CHUNK_ROWS = 4096                      # rows formatted per write


def _write_rows(path: str | Path, header: Sequence[str],
                columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns as CSV rows of the ``repr`` of each value
    as a float.  The rows go out in chunks of ``_CHUNK_ROWS``, formatted by
    the C library."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    _native.library()       # raises before the file is created
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(cols[0]), _CHUNK_ROWS):
            fh.write(_native.format_rows(np.column_stack(
                [c[start:start + _CHUNK_ROWS] for c in cols])))


def _read_rows(path: str | Path, header: Sequence[str] | None = None
               ) -> tuple[list[str], np.ndarray]:
    """(header, float rows) of a CSV; ``header``, if given, must match.
    The C parser reads the rows; where a line is at fault, or the file has
    no row, :class:`ScenarioError` names the file and the line and its
    cause, or the first line that is not UTF-8, wherever it lies."""
    data = _read_bytes(path)
    end = _LINE_END.search(data)
    head, start = (data[:end.start()], end.end()) if end else (data, len(data))
    try:
        # no column name holds a quote or a comma: quotes are dropped, and
        # blanks around a name as around a field
        got = [name.strip(" \t") for name in
               head.decode("utf-8").replace('"', "").split(",")]
    except UnicodeDecodeError:
        _text_lines(path)             # raises, naming line 1
    if header is not None and got != list(header):
        raise ScenarioError(f"{path}: expected header {','.join(header)}, "
                            f"got {','.join(got)}")
    arr, fault = _native.parse_rows(data, start, len(got))
    if fault:
        # the C parser accepts ASCII rows only, so a byte that is not UTF-8
        # lies at or past a line at fault
        _text_lines(path)
        line, field, cause = fault
        where = f"{path}:{line + 2}:"
        if cause == "fields":
            raise ScenarioError(f"{where} expected {len(got)} fields, "
                                f"got {field}")
        if cause == "not finite":
            raise ScenarioError(f"{where} `{got[field]}` is not finite")
        if cause == "quote":
            raise ScenarioError(f"{where} unmatched quote")
        raise ScenarioError(f"{where} malformed CSV value in field "
                            f"{field + 1}")
    if not len(arr):
        raise ScenarioError(f"{path}: no data rows")
    return got, arr


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of a text file, less one leading UTF-8 byte-order mark."""
    return Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")


def _text_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, split where text mode splits them (no UTF-8
    sequence holds a CR or LF byte), less one leading byte-order mark; a byte
    that is not UTF-8 raises :class:`ScenarioError` naming its line."""
    lines: list[str] = []
    for lineno, line in enumerate(_LINE_END.split(_read_bytes(path)), 1):
        try:
            lines.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            raise ScenarioError(f"{path}:{lineno}: not UTF-8 text") from None
    return lines


def _uniform_grid(path: str | Path, t: np.ndarray, what: str
                  ) -> tuple[float, float]:
    """(t0, ts) of a time column, which must be uniformly spaced.

    Every step must match ``t[1] - t[0]`` to 1e-9 s plus the rounding of
    times as large as these: a stored time is off by up to half its
    spacing, so a step and ``t[1] - t[0]`` each by up to one spacing.
    ``ts`` is whichever of ``t[1] - t[0]`` and the mean step over the whole
    column regenerates the stored times, as ``t0 + ts * k``, with the
    smaller largest error; a tie keeps ``t[1] - t[0]``.  Finite times
    whose ``t[1] - t[0]`` or mean step overflows a double are refused.
    """
    if len(t) < 2:
        raise ScenarioError(f"{path}: need at least two {what}")
    # finite times whose differences overflow give inf, never a warning
    with np.errstate(over="ignore"):
        ts = float(t[1] - t[0])
        mean = float(t[-1] - t[0]) / (len(t) - 1)
        if not (math.isfinite(ts) and math.isfinite(mean)):
            raise ScenarioError(f"{path}: {what} times overflow a double "
                                f"when subtracted (t[1] - t[0] = {ts!r} s, "
                                f"mean step {mean!r} s)")
        off = float(np.abs(np.diff(t) - ts).max())
    if ts <= 0 or off > 1e-9 + TIME_ROUNDING * np.spacing(np.abs(t).max()):
        raise ScenarioError(f"{path}: {what} times are not uniformly spaced "
                            f"(a step differs from t[1] - t[0] = {ts!r} s "
                            f"by {off!r} s)")
    k = np.arange(len(t))
    if (np.abs(t[0] + mean * k - t).max()
            < np.abs(t[0] + ts * k - t).max()):
        ts = mean
    return float(t[0]), ts


# --------------------------------------------------------------------------
# Streams and truth
# --------------------------------------------------------------------------

def write_samples(path: str | Path, stream: SampleStream) -> None:
    _write_rows(path, SAMPLE_HEADER, (stream.times(), stream.values))


def read_samples(path: str | Path) -> SampleStream:
    _, arr = _read_rows(path, SAMPLE_HEADER)
    t0, ts = _uniform_grid(path, arr[:, 0], "samples")
    return SampleStream(t0=t0, ts=ts, values=arr[:, 1])


def write_truth(path: str | Path, truth: GroundTruth) -> None:
    _write_rows(path, TRUTH_HEADER,
                (truth.times(), truth.freq_hz, truth.rocof_hzps, truth.amp_pu,
                 truth.phase_rad))


def read_truth(path: str | Path) -> GroundTruth:
    _, arr = _read_rows(path, TRUTH_HEADER)
    t0, ts = _uniform_grid(path, arr[:, 0], "truth rows")
    return GroundTruth(t0=t0, ts=ts, freq_hz=arr[:, 1],
                       rocof_hzps=arr[:, 2], amp_pu=arr[:, 3],
                       phase_rad=arr[:, 4])


# --------------------------------------------------------------------------
# Estimate series, reports and tables
# --------------------------------------------------------------------------

def estimate_header(n: int) -> list[str]:
    """The columns of an :class:`EstimateSeries` row of order n."""
    return [*ROW_COLUMNS, *(f"a_{part}_{i}" for part in "cs"
                            for i in range(1, n + 1))]


def write_estimates(path: str | Path, series: EstimateSeries) -> None:
    """The estimate CSV of ``series``: its rows, one per report."""
    _write_rows(path, estimate_header(series.n), series.rows.T)


def read_estimates(path: str | Path) -> EstimateSeries:
    """The series of an estimate CSV, equal to the series written but for
    ``diverged_at``, which the file does not hold."""
    header, arr = _read_rows(path)
    n = (len(header) - len(ROW_COLUMNS)) // 2
    if n < 1 or header != estimate_header(n):
        raise ScenarioError(f"{path}: not an estimate CSV")
    return EstimateSeries(arr)


def write_history(path: str | Path, history: Sequence[float]) -> None:
    """The ``iteration,best_score`` CSV of a tuning run."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(HISTORY_HEADER) + "\r\n")
        fh.writelines(f"{i},{float(score)!r}\r\n"
                      for i, score in enumerate(history))


def write_report(path: str | Path, report: MetricsReport) -> None:
    """The ``metric,value`` CSV of a metrics report."""
    with open(path, "w", newline="") as fh:
        fh.write("metric,value\r\n")
        fh.writelines(f"{name},{value!r}\r\n" for name, value in report.rows())


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
        for lineno, raw in enumerate(_text_lines(path), 1):
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
        """Sorted item numbers of keys like ``step_1.t_start``: ASCII digits
        without a leading zero, so that another spelling of a number stays
        unread, an unknown key to :meth:`finish`."""
        heads = {key.split(".", 1)[0] for key in self.kv if "." in key}
        return sorted(int(h[len(prefix) + 1:]) for h in heads
                      if re.fullmatch(f"{prefix}_[1-9][0-9]*", h))

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
            out += [f"{key}_{i} = {float(v)!r}" for i, v in enumerate(value, 1)]
        elif value is not None:
            text = repr(float(value)) if _SCALARS[f.type] is float else value
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
            # n counts the keys, so it is checked before they are read
            named(keys.path, EstimatorConfig._check_order, values["n"],
                  values["f0"], values["ts"])
            values[f.name] = tuple(keys.take(f"{key}_{i}", float)
                                   for i in range(1, values["n"] + 1))
        else:
            values[f.name] = keys.take(key, _SCALARS[f.type], f.default)
    return named(keys.path, cls, **values)   # a value check of the dataclass


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
