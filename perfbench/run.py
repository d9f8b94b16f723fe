"""gridfreq benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the workloads and metrics are listed
in BENCHMARK.json and described in perfbench/README.md.  Each run starts
fresh worker processes (perfbench/worker.py) with numpy/BLAS limited to one
thread.  With --trace 0: two that only set up, then three that each set up,
measure for S/3 seconds and check their outputs; timings are medians over
the passes of all three, because the latency tail differs from process to
process.  With --trace 1: one worker measures for S seconds, half of them
traced, and the result holds the per-layer metrics.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import Pass, timing_figures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2
MEASURERS = 3
DEADLINE_S = 170.0          # the whole run, every worker included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run perfbench/worker.py; return the JSON object on its last line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def merge(results: list[dict]) -> dict:
    """One result from the measuring workers of a run."""
    first = results[0]
    checks: dict[str, dict] = {}
    for r in results:
        for c in r["checks"]:
            if c["name"] not in checks or not c["ok"]:
                checks[c["name"]] = c
    accuracy = [(r["rmse_fe_hz"], r["rmse_re_hzps"]) for r in results]
    agree = {"name": "every worker measured the same accuracy",
             "ok": len(set(accuracy)) == 1, "detail": str(accuracy)}
    checks[agree["name"]] = agree
    passes = [Pass(**p) for r in results for p in r["pass_figures"]]
    return {
        **first,
        **timing_figures(passes),
        "passes": len(passes),
        "attempted": sum(r["attempted"] for r in results) + 1,
        "failed": sum(r["failed"] for r in results) + (not agree["ok"]),
        "checks": list(checks.values()),
        "failures": [f for r in results for f in r["failures"]][:10],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "host": {**first["host"],
                 "calib_after_ms": results[-1]["host"]["calib_after_ms"],
                 "calib_ms": statistics.median(r["host"]["calib_ms"] for r in results)},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "gridfreq" / "__init__.py",
                           ROOT / "scenarios") if not p.exists()]
    if missing:
        print("error: not a gridfreq checkout, missing "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    try:
        if args.trace:
            measured = [worker([*common, "--seconds", str(args.seconds), "--trace", "1"],
                               env, left())]
            setups = measured
        else:
            setups = [worker([*common, "--setup-only"], env, min(60.0, left()))
                      for _ in range(SETUP_PROBES)]
            measured = [worker([*common, "--seconds", str(args.seconds / MEASURERS),
                                "--trace", "0"], env, left())
                        for _ in range(MEASURERS)]
            setups = setups + measured
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = measured[0] if args.trace else merge(measured)
    res["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    raw_setup_s = statistics.median(p["setup_raw_s"] for p in setups)

    host = res["host"]
    print(f"# gridfreq benchmark: workload {args.workload}, seed {args.seed}, "
          f"{res['passes']} passes in ~{args.seconds:g} s, trace {args.trace}")
    print(f"# host: {host['cpu']}, nproc {host['nproc']}, Python {host['python']}, "
          f"numpy {host['numpy']}")
    print(f"# host.calib_ms: before {host['calib_before_ms']:.3f}, after "
          f"{host['calib_after_ms']:.3f}, median over the run {host['calib_ms']:.3f} "
          f"(reference {host['calib_ref_ms']:.3f}; timings are scaled to it)")
    print(f"# raw (unscaled): samples_per_s {res['raw_samples_per_s']:.6g}, "
          f"setup_s {raw_setup_s:.4g} over {len(setups)} set-ups")
    if args.trace:
        print(f"# spans written to {res['trace_file']}")
    for c in res["checks"]:
        print(f"# check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + ("" if c["ok"] else f": {c['detail']}"))
    for f in res["failures"]:
        print(f"# failed: {f}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["layers"] if args.trace else res
    metrics = {}
    correct = all(c["ok"] for c in res["checks"]) and res["failed"] == 0
    for m in wanted:
        value = source.get(m["name"], math.nan)
        if not math.isfinite(value):
            print(f"# metric {m['name']} was not measured")
            correct, value = False, 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:>32} = {value:<14.6g} {m['unit']:<8} ({m['better']} is better)")
    if not args.trace:
        print(f"# step latency percentiles over {res['latency_samples']} step or run() "
              "calls (see perfbench/README.md)")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
