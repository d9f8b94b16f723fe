"""Bit-identity fixtures for the estimator: digests of ``run()`` outputs.

Each case is one ``run()`` over a bundled scenario or a divergence fixture.
Its digest is the SHA-256 of the ``repr`` of every field of every record,
so a change in any output bit changes it.  The default-config cases at
seed 0 also digest the final state of a ``step`` loop over the same
stream.  ``tests/data/golden_run.json`` holds the digests, which both
backends of ``run()`` (the C loop and the Python kernel) must reproduce.
``tests/data/golden_estimate_csv.json`` holds the SHA-256 of the estimate
CSV ``io.write_estimates`` writes for two of the cases, one that runs and
one that diverges before its first report; the file holds the series'
rows, the same floats the record digests cover.
``tests/data/golden_io_csv.json`` holds the SHA-256 of the samples and
truth CSVs ``synth`` writes for two scenarios at seed 0 and of a ``tune
--history`` file, whose iteration column is integral.  Regenerate all
three only when an output change is intended:

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import sys
import tempfile
from dataclasses import fields
from typing import Iterator

from gridfreq import (EstimateSeries, EstimatorConfig, EstimatorState,
                      SampleStream, init, run, step, synthesize)
from gridfreq import io as gio

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_run.json"
GOLDEN_CSV = GOLDEN.with_name("golden_estimate_csv.json")
CSV_CASES = ("case1/seed0/default", "case1/seed0/x325")
GOLDEN_IO = GOLDEN.with_name("golden_io_csv.json")
IO_SCENARIOS = ("case1", "case2b")
FS = 1200.0
SEEDS = (0, 1)
CONFIGS = {
    "default": {},
    "lowpass": {"obs_lowpass_hz": 500.0},
}


def digest(series: EstimateSeries) -> str:
    h = hashlib.sha256()
    for rec in series.records:
        h.update(repr([getattr(rec, f.name) for f in fields(rec)]).encode())
        h.update(b"\n")
    return h.hexdigest()


def state_digest(state: EstimatorState) -> str:
    vals = [state.a_c, state.a_s, state.a_dc, state.a_dc1, state.f_hz,
            state.phase_acc, state.k, state.t_anchor, state.zfilt,
            state.diverged, list(state.rocof_buf)]
    return hashlib.sha256(repr(vals).encode()).hexdigest()


def final_state(stream: SampleStream, config: EstimatorConfig) -> EstimatorState:
    state = init(config)
    for x in stream.values.tolist():
        step(state, x, config)
        if state.diverged:
            break
    return state


def cases() -> Iterator[tuple[str, SampleStream, EstimatorConfig]]:
    """(name, stream, config) of every golden case."""
    for path in sorted((ROOT / "scenarios").glob("*.cfg")):
        spec = gio.read_scenario(path)
        for seed in SEEDS:
            stream, _ = synthesize(spec, FS, seed=seed)
            for label, overrides in CONFIGS.items():
                yield (f"{path.stem}/seed{seed}/{label}", stream,
                       EstimatorConfig(**overrides))
    # amplitude fixtures: 0.1 and 3 pu run, 10 pu and raw volts (325) diverge;
    # and a non-finite sample
    base, _ = synthesize(gio.read_scenario(ROOT / "scenarios" / "case1.cfg"),
                         FS, seed=0)
    for scale in (0.1, 3.0, 10.0, 325.0):
        yield (f"case1/seed0/x{scale:g}",
               SampleStream(base.t0, base.ts, base.values * scale),
               EstimatorConfig())
    values = base.values.copy()
    values[500] = math.nan
    yield "case1/seed0/nan500", SampleStream(base.t0, base.ts, values), EstimatorConfig()


def compute() -> dict[str, dict]:
    out = {}
    for name, stream, config in cases():
        series = run(stream, config)
        out[name] = {"diverged_at": series.diverged_at,
                     "records": len(series),
                     "sha256": digest(series)}
        if "/seed0/" in name and not name.endswith("/lowpass"):
            out[name]["state_sha256"] = state_digest(final_state(stream, config))
    return out


def csv_digests(tmp: pathlib.Path) -> dict[str, str]:
    """SHA-256 of the estimate CSV of each case in CSV_CASES."""
    out = {}
    for name, stream, config in cases():
        if name in CSV_CASES:
            path = tmp / "estimates.csv"
            gio.write_estimates(path, run(stream, config))
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def io_digests(tmp: pathlib.Path) -> dict[str, str]:
    """SHA-256 of the samples and truth CSVs of IO_SCENARIOS at seed 0 and
    of the history of a small ``tune`` over case1."""
    from gridfreq import cli

    def sha(path: pathlib.Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    out = {}
    for stem in IO_SCENARIOS:
        cfg = str(ROOT / "scenarios" / f"{stem}.cfg")
        assert cli.main(["synth", cfg, "--seed", "0", "--out", str(tmp)]) == 0
        for kind in ("samples", "truth"):
            out[f"{stem}/seed0/{kind}"] = sha(tmp / f"{stem}_{kind}.csv")
    history = tmp / "history.csv"
    assert cli.main(["tune", "--scenario", str(ROOT / "scenarios" / "case1.cfg"),
                     "--swarm", "4", "--iterations", "2",
                     "--out", str(tmp / "tuned.cfg"),
                     "--history", str(history)]) == 0
    out["case1/tune/history"] = sha(history)
    return out


def load() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def load_csv() -> dict[str, str]:
    return json.loads(GOLDEN_CSV.read_text())


def load_io() -> dict[str, str]:
    return json.loads(GOLDEN_IO.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    for target, compute_digests in ((GOLDEN_CSV, csv_digests),
                                    (GOLDEN_IO, io_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            digests = compute_digests(pathlib.Path(tmp))
        target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {target}")
