"""Run one workload in this process: set-up, timed passes, output checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``perfbench/run.py`` starts this script in a fresh process per workload
run.  It prints one JSON object.

Timings are scaled to a reference host speed.  On a shared host the same
code runs 30-50 % slower for seconds at a time, and a fixed pure-Python
loop slows with it.  The benchmark times that loop ("marks") before every
CLI call, before every estimator ``run`` call and between 5 s chunks of
the stream, and divides the wall time between two marks by the host
slowdown measured around them.  That keeps slow host phases from reading as
regressions; the raw wall-clock rate is reported next to the scaled one.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
TS = 1.0 / 1200.0

# Seconds one calibration loop takes on the reference host: the fast phase
# of a 2-vCPU Intel Xeon VM under Python 3.11.  Scaled timings read as if
# they were measured there.
CALIB_REF_S = 0.0055


def calib_loop() -> float:
    """Time one fixed allocation-heavy pure-Python loop, in seconds.

    Small lists, tuples and float conversions: of the loops tried, this
    one's slowdown tracked the estimator's most closely.
    """
    t0 = time.perf_counter()
    out: list = []
    for k in range(20_000):
        out.append([float(k), k * 0.5, (k, k + 1)])
        if len(out) > 500:
            out = []
    return time.perf_counter() - t0


class HostClock:
    """Host slowdown measured at marks, and wall time scaled by it."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []   # (start, end, slowdown)

    def mark(self) -> int:
        start = time.perf_counter()
        calib_loop()
        end = time.perf_counter()
        self.marks.append((start, end, (end - start) / CALIB_REF_S))
        return len(self.marks) - 1

    def last(self) -> int:
        return len(self.marks) - 1

    def slowdown(self, i: int) -> float:
        """Host slowdown between marks ``i`` and ``i + 1``.

        The median over those two marks and one more on each side: a
        single 5 ms loop is noisy, and host phases last seconds.
        """
        window = self.marks[max(i - 1, 0):i + 3]
        return statistics.median(m[2] for m in window)

    def span(self, first: int, last: int) -> tuple[float, float]:
        """(wall, scaled) seconds from mark ``first`` to ``last``, loops excluded."""
        wall = scaled = 0.0
        for i in range(first, last):
            seg = self.marks[i + 1][0] - self.marks[i][1]
            wall += seg
            scaled += seg / self.slowdown(i)
        return wall, scaled


@dataclass
class Pass:
    wall_s: float             # calibration loops excluded
    scaled_s: float
    samples: int              # estimator input samples consumed
    ops: int
    failed: int
    p50_us: float             # percentiles of the scaled per-sample latencies
    p99_us: float
    p999_us: float
    latencies: int            # how many latencies the percentiles cover
    late: int                 # raw per-sample latencies above Ts


def run_passes(wl, clock: HostClock, timer, seconds: float, min_passes: int,
               first_k: int) -> list:
    """Timed passes until ``seconds`` would be exceeded (at least ``min_passes``).

    Per-sample latencies are the stream's ``step`` calls, or on the batch
    workloads each non-diverged ``run`` call's time over its samples (``step``
    runs inside ``run``, out of reach without slowing it).  Only their
    percentiles are kept: per-step lists held across passes would make
    peak RSS depend on how many passes fit.
    """
    passes: list = []
    start = time.perf_counter()
    while True:
        k = first_k + len(passes)
        calls0 = len(timer.calls)
        m0 = clock.mark()
        out = wl.execute(k, clock)
        m1 = clock.mark()
        wl.collect(k, out)
        wall, scaled_s = clock.span(m0, m1)
        if wl.batch:
            runs = timer.calls[calls0:]
            samples = sum(r[1] for r in runs)
            groups = [([secs / n], tag) for secs, n, diverged, tag in runs if not diverged]
        else:
            samples = out.samples
            groups = [(out.step_s[lo:hi], mark) for lo, hi, mark in out.chunks]
        scaled: list = []
        for raw, tag in groups:
            factor = 1e6 / clock.slowdown(tag)
            scaled.extend(dt * factor for dt in raw)
        passes.append(Pass(wall, scaled_s, samples, out.ops, out.failed, *percentiles(scaled),
                           len(scaled), sum(dt > TS for raw, _ in groups for dt in raw)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def percentiles(values: list) -> tuple[float, float, float]:
    """p50, p99 and p99.9 of ``values``."""
    import numpy as np
    if not values:
        return math.nan, math.nan, math.nan
    p50, p99, p999 = np.percentile(values, (50, 99, 99.9)).tolist()
    return p50, p99, p999


def timing_figures(passes: list) -> dict:
    """Scaled throughput and per-sample latency percentiles, median over passes."""
    return {
        "samples_per_s": statistics.median(p.samples / p.scaled_s for p in passes),
        "raw_samples_per_s": statistics.median(p.samples / p.wall_s for p in passes),
        "step_p50_us": statistics.median(p.p50_us for p in passes),
        "step_p99_us": statistics.median(p.p99_us for p in passes),
        "step_p999_us": statistics.median(p.p999_us for p in passes),
        "latency_samples": sum(p.latencies for p in passes),
    }


def host_info() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": cpu or platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def calib_ms(loops: int = 5) -> float:
    return statistics.median(calib_loop() for _ in range(loops)) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gridfreq" / "__init__.py").is_file():
        print(f"error: no gridfreq sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  -- part of set-up, as for any user
    import gridfreq
    if Path(gridfreq.__file__).resolve().parent != (src / "gridfreq").resolve():
        print(f"error: imported gridfreq from {gridfreq.__file__}", file=sys.stderr)
        return 2
    import gridfreq.cli as cli
    import gridfreq.tuner as tuner
    from hooks import Patches, RunTimer, Tracer, install_tracer, layer_figures
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, tmp)
        setup_raw_s = time.perf_counter() - T_START
        setup_s = setup_raw_s / (calib_loop() / CALIB_REF_S)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        calib_before = calib_ms()
        clock = HostClock()
        timer = RunTimer(clock.mark)
        tracer = Tracer()
        with Patches() as patches:
            wl.patch(patches)
            timer.install(patches, [cli, tuner])
            if args.trace:
                plain = run_passes(wl, clock, timer, args.seconds / 2, 1, 0)
                # no marks inside traced calls: their spans would include them
                timer.before = clock.last
                with Patches() as traced:
                    install_tracer(tracer, traced)
                    passes = run_passes(wl, clock, timer, args.seconds / 2, 1,
                                        len(plain))
            else:
                plain = passes = run_passes(wl, clock, timer, args.seconds, 2, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks, accuracy, extra = wl.finish()
        calib_after = calib_ms()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    all_passes = plain if plain is passes else plain + passes
    timing = timing_figures(plain)
    marks_ms = statistics.median(m[2] for m in clock.marks) * CALIB_REF_S * 1e3
    result = {
        "passes": len(passes),
        "attempted": sum(p.ops for p in all_passes) + len(checks),
        "failed": sum(p.failed for p in all_passes) + sum(not c.ok for c in checks),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "failures": wl.failures[:10],
        "host": {**host_info(), "calib_before_ms": calib_before,
                 "calib_after_ms": calib_after, "calib_ms": marks_ms,
                 "calib_ref_ms": CALIB_REF_S * 1e3, "marks": len(clock.marks)},
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "rmse_fe_hz": accuracy.get("rmse_fe", math.nan),
        "rmse_re_hzps": accuracy.get("rmse_re", math.nan),
        "peak_rss_mb": peak_rss_mb,
        "pass_figures": [asdict(p) for p in plain],
        **timing,
    }
    if args.trace:
        per_pass = 1.0 / len(passes)
        layers = layer_figures(tracer.spans, len(passes), sum(p.wall_s for p in passes))
        plain_s = statistics.median(p.scaled_s for p in plain)
        traced_s = statistics.median(p.scaled_s for p in passes)
        layers.update({
            # step() calls: made directly (stream) or inside run() (batch)
            "estimator.step.calls": sum(p.samples for p in passes) * per_pass,
            "estimator.step.p999_us": timing["step_p999_us"],
            "estimator.step.deadline_miss": statistics.median(p.late for p in plain),
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "host.calib_ms": marks_ms,
            "host.raw_samples_per_s": timing["raw_samples_per_s"],
            "quality.max_fe_hz": accuracy.get("max_fe", math.nan),
            "quality.max_re_hzps": accuracy.get("max_re", math.nan),
            "tuner.best_ise": extra.get("tuner.best_ise", 0.0),
        })
        result["layers"] = layers
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "passes": [{"wall_s": p.wall_s, "scaled_s": p.scaled_s} for p in passes],
            "spans": tracer.spans}))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
