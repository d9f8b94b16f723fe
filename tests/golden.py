"""Bit-identity fixtures for the estimator: digests of ``run()`` outputs.

Each case is one ``run()`` over a bundled scenario or a divergence fixture.
Its digest is the SHA-256 of the ``repr`` of every field of every record,
so a change in any output bit changes it.  The default-config cases at
seed 0 also digest the final state of a ``step`` loop over the same
stream.  ``tests/data/golden_run.json`` holds the digests; regenerate it
only when an output change is intended:

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import sys
from dataclasses import fields
from typing import Iterator

from gridfreq import (EstimateSeries, EstimatorConfig, EstimatorState,
                      SampleStream, init, run, step, synthesize)
from gridfreq import io as gio

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_run.json"
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
    th = state.theta
    vals = [th.a_c, th.a_s, th.a_dc, th.a_dc1, state.f_hz, state.phase_acc,
            state.k, state.t_anchor, state.zfilt, state.diverged,
            list(state.rocof_buf)]
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


def load() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
