"""Command-line front end: synthesis, estimation, metrics and PSO gain
tuning.

Estimator settings come only from ``--config``; ``metrics`` and ``tune``
render at its ``1 / ts``, the one rate the estimator accepts.

Exit codes: 0 success, 2 input error, 3 divergence, 4 metric-bound failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as gio
from .errors import ConfigError, GridFreqError, ScenarioError, named
from .estimator import EstimatorConfig, run
from .metrics import (DEFAULT_LATENCY_S, DEFAULT_SKIP_S, MetricsReport,
                      aggregate, align, evaluate)
from .synth import GroundTruth, SampleStream, ScenarioSpec, synthesize
from .tuner import (DIVERGENCE_PENALTY, PsoParams, SearchSpace,
                    apply_gain_vector, pso_tune)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_BOUNDS = 4

BOUNDS = ("max_fe", "rmse_fe", "max_re", "rmse_re")   # metrics bound flags
DEFAULT_SEEDS = 20                                     # metrics --scenario


def _load_config(path: str | None) -> EstimatorConfig:
    return EstimatorConfig() if path is None else gio.read_config(path)


def _print_report(report: MetricsReport, label: str = "") -> None:
    if label:
        print(f"# {label}")
    for name, value in report.rows():
        print(f"{name:>16}: {value:.6g}")
    print(f"{'latency (s)':>16}: {report.latency_s:g}")
    print(f"{'pairs':>16}: {report.n_samples}")


def _check_flags(args: argparse.Namespace) -> None:
    """Reject, naming the flag, a float or list item that is not finite, a
    negative ``--seed``, ``--latency-ms`` or ``--skip``, or ``--fs <= 0``."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"{flag} must be finite, got {x}")
        if name == "fs" and value <= 0:
            raise ConfigError(f"{flag} must be positive, got {value}")
        if name in ("seed", "latency_ms", "skip") and (value or 0) < 0:
            raise ConfigError(f"{flag} must be non-negative, got {value}")


def _render(path: str, spec: ScenarioSpec, config: EstimatorConfig,
            seed: int | None, skip: float) -> tuple[SampleStream, GroundTruth]:
    """Render ``spec`` at the config's rate; any error names file ``path``.

    A scenario that ends inside the skip window ``skip`` has no report
    after lock to score."""
    stream, truth = named(path, synthesize, spec, 1.0 / config.ts, seed=seed)
    if len(stream) < config.report_every:
        raise ScenarioError(f"{path}: {len(stream)} samples give no report "
                            f"at report_every = {config.report_every}")
    if spec.duration < skip:
        raise ScenarioError(f"{path}: duration {spec.duration:g} s is shorter "
                            f"than the skip window of {skip:g} s")
    return stream, truth


def _check_bounds(report: MetricsReport, args: argparse.Namespace) -> bool:
    ok = True
    for name in BOUNDS:
        bound = getattr(args, name)
        if bound is not None and getattr(report, name) > bound:
            print(f"BOUND FAIL: {name} = {getattr(report, name):.6g} > {bound:g}")
            ok = False
    return ok


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    spec = gio.read_scenario(args.scenario)
    stream, truth = named(args.scenario, synthesize, spec, args.fs,
                          seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    gio.write_samples(out / f"{stem}_samples.csv", stream)
    gio.write_truth(out / f"{stem}_truth.csv", truth)
    print(f"wrote {out / f'{stem}_samples.csv'} ({len(stream)} rows)")
    print(f"wrote {out / f'{stem}_truth.csv'} ({len(truth)} rows)")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    stream = gio.read_samples(args.samples)
    config = _load_config(args.config)
    # the stream's interval is t[1] - t[0] of the file's time column
    series = named(f"{args.samples}: time column t[1] - t[0]", run,
                   stream, config)
    gio.write_estimates(args.out, series)
    print(f"wrote {args.out} ({len(series)} records)")
    if series.diverged_at is not None:
        print(f"DIVERGED at sample {series.diverged_at} "
              f"(t = {stream.t0 + series.diverged_at * config.ts:.4f} s)")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    latency = args.latency_ms / 1000.0
    if args.scenario is not None:
        # Monte-Carlo mode: synthesize/run/evaluate over a seed ensemble
        stray = [f"--{name}" for name in ("est", "truth")
                 if getattr(args, name) is not None]
        if stray:
            raise ConfigError(f"{'/'.join(stray)}: not used with --scenario")
        config = _load_config(args.config)
        seeds = DEFAULT_SEEDS if args.seeds is None else args.seeds
        if seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {seeds}")
        spec = gio.read_scenario(args.scenario)
        reports = []
        diverged = 0
        for seed in range(seeds):
            stream, truth = _render(args.scenario, spec, config, seed,
                                    args.skip)
            series = run(stream, config)
            if series.diverged_at is not None:
                diverged += 1
                continue
            reports.append(named(args.scenario, evaluate, series, truth,
                                 latency, skip_s=args.skip))
        if diverged:
            print(f"{diverged}/{seeds} runs diverged")
            return EXIT_DIVERGED
        mean, worst = aggregate(reports)
        _print_report(mean, f"mean over {seeds} seeds")
        _print_report(worst, "worst case")
        report = mean
    else:
        if args.config is not None:
            raise ConfigError("--config: only --scenario mode runs the "
                              "estimator; --est is read as written")
        if args.seeds is not None:
            raise ConfigError("--seeds: only --scenario mode renders seeds; "
                              "--est is one run")
        if args.est is None or args.truth is None:
            raise ConfigError("need either --scenario or both --est "
                              "and --truth")
        series = gio.read_estimates(args.est)
        truth = gio.read_truth(args.truth)
        report = evaluate(series, truth, latency, skip_s=args.skip)
        _print_report(report)
    if args.out is not None:
        gio.write_report(args.out, report)
    if not _check_bounds(report, args):
        return EXIT_BOUNDS
    return EXIT_OK


def cmd_tune(args: argparse.Namespace) -> int:
    if not args.scenario:
        raise ConfigError("--scenario: scenario battery must not be empty")
    pso = named("--swarm", PsoParams, swarm_size=args.swarm, seed=args.seed)
    pso = named("--iterations", replace, pso, iterations=args.iterations)
    config = _load_config(args.config)
    gains = named("--gain-lo/--gain-hi", SearchSpace,
                  ((args.gain_lo, args.gain_hi),), log_scale=True)
    bounds = gains.bounds * (2 * config.n + 2)
    if args.tune_eta is not None:
        bounds += named("--tune-eta", SearchSpace, (tuple(args.tune_eta),),
                        log_scale=True).bounds
    space = SearchSpace(bounds=bounds, log_scale=True)
    scenarios = [_render(path, gio.read_scenario(path), config, args.seed,
                         DEFAULT_SKIP_S)
                 for path in args.scenario]
    # the fitness is what metrics reports, so a scenario none of whose
    # reports pairs with its truth is an input error.  Report times depend
    # on neither the samples nor the gains, and no gains diverge on zeros:
    # one run over zeros stands for every particle that does not diverge
    for path, (stream, truth) in zip(args.scenario, scenarios):
        zeros = SampleStream(stream.t0, stream.ts, np.zeros(len(stream)))
        named(path, align, run(zeros, config), truth, DEFAULT_LATENCY_S,
              skip_s=DEFAULT_SKIP_S)
    best, score, history = pso_tune(space, scenarios, pso, config)
    gio.write_config(args.out, apply_gain_vector(config, best))
    print(f"wrote {args.out} (fitness {score:.6g})")
    if args.history is not None:
        gio.write_history(args.history, history)
        print(f"wrote {args.history}")
    if score >= DIVERGENCE_PENALTY:
        # as estimate does, the files are written before the divergence
        print(f"DIVERGED: the best gains found diverge on the battery "
              f"(fitness {score:.6g})")
        return EXIT_DIVERGED
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridfreq",
        description="Streaming grid frequency / RoCoF estimation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a scenario to sample + truth CSVs")
    p.add_argument("scenario")
    p.add_argument("--fs", type=float, default=1200.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("estimate", help="run the estimator over a sample CSV")
    p.add_argument("samples")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="estimates.csv")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("metrics", help="latency-aligned FE/RE report")
    p.add_argument("--est", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--scenario", default=None,
                   help="Monte-Carlo mode: synthesize and run per seed")
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=None,
                   help=f"Monte-Carlo seed count (default {DEFAULT_SEEDS})")
    p.add_argument("--latency-ms", type=float,
                   default=DEFAULT_LATENCY_S * 1000.0)
    p.add_argument("--skip", type=float, default=DEFAULT_SKIP_S,
                   help="transient exclusion window (s)")
    p.add_argument("--out", default=None)
    for name in BOUNDS:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=None,
                       help="optional bound; exceeding it exits 4")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("tune", help="PSO gain tuning over a scenario battery")
    p.add_argument("--scenario", action="append", default=[])
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="tuned.cfg")
    p.add_argument("--history", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--swarm", type=int, default=30)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--gain-lo", type=float, default=1.0)
    p.add_argument("--gain-hi", type=float, default=500.0)
    p.add_argument("--tune-eta", type=float, nargs=2, metavar=("LO", "HI"),
                   help="also tune eta_opt within [LO, HI]")
    p.set_defaults(func=cmd_tune)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (GridFreqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # a render names its sample count; numpy names an array's shape
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
