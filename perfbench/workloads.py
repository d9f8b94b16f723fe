"""The four workloads: CLI paths driven in-process from one thread.

Every workload is a closed loop with one caller at 1.2 kHz sampling and
the default ``EstimatorConfig()``.  A workload renders or reads its inputs
in ``__init__`` (set-up), runs one timed pass in ``execute`` and inspects
that pass's outputs in ``collect`` (untimed).  ``finish`` runs the output
checks and returns the accuracy of what the passes produced.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
import re
import shutil
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import gridfreq.cli as cli
import gridfreq.estimator as estimator
import gridfreq.io as gio
import gridfreq.tuner as tuner
from gridfreq.estimator import EstimatorConfig
from gridfreq.metrics import evaluate
from gridfreq.synth import synthesize
from hooks import shift_seeds

FS = 1200.0
TS = 1.0 / FS
LATENCY_S = 0.1          # the CLI's --latency-ms and --skip defaults
SKIP_S = 0.5
BATTERY = ("case1", "case1b", "case2", "case2b", "case3", "clean")

# README "Accuracy", 2 % row, as printed: (value, decimals) per column
README_2PCT = {"max_fe": (0.016, 3), "rmse_fe": (0.005, 3),
               "max_re": (0.33, 2), "rmse_re": (0.095, 3)}
REPORT_KEYS = {"Max (FE) (Hz)": "max_fe", "RMSE (FE) (Hz)": "rmse_fe",
               "Max (RE) (Hz/s)": "max_re", "RMSE (RE) (Hz/s)": "rmse_re"}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassOut:
    """What one pass did.  ``samples``, ``step_s`` and ``chunks`` are filled
    by the stream workload only; batch workloads learn them from the
    RunTimer."""

    samples: int = 0
    ops: int = 0
    failed: int = 0
    step_s: list[float] = field(default_factory=list)   # raw seconds per step
    chunks: list[tuple[int, int, int]] = field(default_factory=list)  # (lo, hi, mark)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``gridfreq.cli.main`` with its console output captured."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def read_report(path: Path) -> dict[str, float]:
    """The ``metric,value`` file written by ``gridfreq metrics --out``."""
    rows = path.read_text().splitlines()[1:]
    return {REPORT_KEYS[name]: float(value)
            for name, value in (row.rsplit(",", 1) for row in rows)}


def report_dict(report) -> dict[str, float]:
    return {"max_fe": report.max_fe, "rmse_fe": report.rmse_fe,
            "max_re": report.max_re, "rmse_re": report.rmse_re}


def mean_report(reports: list[dict[str, float]]) -> dict[str, float]:
    return {k: sum(r[k] for r in reports) / len(reports) for k in REPORT_KEYS.values()}


class Workload:
    name = ""
    batch = True            # estimator reached through run(), not step()

    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        self.root, self.seed, self.tmp = root, seed, tmp
        self.failures: list[str] = []

    def scenario(self, stem: str) -> Path:
        return self.root / "scenarios" / f"{stem}.cfg"

    def cli_op(self, out: PassOut, clock, argv: list[str]) -> str:
        clock.mark()
        rc, text = call_cli(argv)
        out.ops += 1
        if rc != cli.EXIT_OK:
            out.failed += 1
            self.failures.append(f"gridfreq {argv[0]} exited {rc}: {text.strip()[-200:]}")
        return text

    def patch(self, patches) -> None:
        """Hooks this workload needs on the program (none by default)."""

    def execute(self, k: int, clock) -> PassOut:
        raise NotImplementedError

    def collect(self, k: int, out: PassOut) -> None:
        raise NotImplementedError

    def finish(self) -> tuple[list[Check], dict[str, float], dict[str, float]]:
        """(checks, accuracy report, extra per-layer figures)."""
        raise NotImplementedError


class CsvPipeline(Workload):
    """synth -> estimate -> metrics --est/--truth over the six scenarios."""

    name = "csv_pipeline"

    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        super().__init__(root, seed, tmp)
        self.specs = {stem: gio.read_scenario(self.scenario(stem)) for stem in BATTERY}
        self.first: dict[str, dict[str, float]] | None = None
        self.mismatched_passes = 0

    def execute(self, k: int, clock) -> PassOut:
        out = PassOut()
        d = self.tmp / f"pass{k}"
        for stem in BATTERY:
            self.cli_op(out, clock, ["synth", str(self.scenario(stem)),
                                     "--seed", str(self.seed), "--out", str(d)])
            self.cli_op(out, clock, ["estimate", str(d / f"{stem}_samples.csv"),
                                     "--out", str(d / f"{stem}_est.csv")])
            self.cli_op(out, clock, ["metrics", "--est", str(d / f"{stem}_est.csv"),
                                     "--truth", str(d / f"{stem}_truth.csv"),
                                     "--out", str(d / f"{stem}_metrics.csv")])
        return out

    def collect(self, k: int, out: PassOut) -> None:
        d = self.tmp / f"pass{k}"
        got = {}
        for stem in BATTERY:
            path = d / f"{stem}_metrics.csv"
            got[stem] = read_report(path) if path.exists() else {}
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.mismatched_passes += 1
        shutil.rmtree(d, ignore_errors=True)

    def finish(self):
        checks = [Check("every pass wrote the same metrics files",
                        self.mismatched_passes == 0,
                        f"{self.mismatched_passes} passes differ")]
        config = EstimatorConfig()
        for stem in BATTERY:
            stream, truth = synthesize(self.specs[stem], FS, seed=self.seed)
            expect = report_dict(evaluate(estimator.run(stream, config), truth,
                                          LATENCY_S, skip_s=SKIP_S))
            got = (self.first or {}).get(stem, {})
            checks.append(Check(f"{stem}: file-mode metrics equal in-memory evaluate",
                                got == expect, f"file {got} vs memory {expect}"))
        reports = [r for r in (self.first or {}).values() if r]
        return checks, mean_report(reports) if reports else {}, {}


class MonteCarlo(Workload):
    """metrics --scenario case1.cfg --seeds 20 over seeds S..S+19."""

    name = "montecarlo"
    SEEDS = 20

    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        super().__init__(root, seed, tmp)
        self.path = self.scenario("case1")
        self.spec = gio.read_scenario(self.path)
        self.first: dict[str, float] | None = None
        self.mismatched_passes = 0

    def patch(self, patches) -> None:
        shift_seeds(patches, cli, self.seed)

    def execute(self, k: int, clock) -> PassOut:
        out = PassOut()
        self.cli_op(out, clock, ["metrics", "--scenario", str(self.path),
                                 "--seeds", str(self.SEEDS),
                                 "--out", str(self.tmp / f"mc{k}.csv")])
        return out

    def collect(self, k: int, out: PassOut) -> None:
        path = self.tmp / f"mc{k}.csv"
        got = read_report(path) if path.exists() else {}
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.mismatched_passes += 1
        path.unlink(missing_ok=True)

    def finish(self):
        got = self.first or {}
        checks = [Check("every pass reported the same ensemble mean",
                        self.mismatched_passes == 0,
                        f"{self.mismatched_passes} passes differ"),
                  Check("ensemble report is complete and finite",
                        len(got) == 4 and all(math.isfinite(v) for v in got.values()),
                        str(got))]
        if self.seed == 0:
            shown = {k: round(got.get(k, math.nan), nd) for k, (_, nd) in README_2PCT.items()}
            want = {k: v for k, (v, _) in README_2PCT.items()}
            checks.append(Check("seed 0 reproduces the README 2 % accuracy row",
                                shown == want, f"got {shown}, README {want}"))
        return checks, got, {}


class Tune(Workload):
    """tune --scenario case1.cfg --swarm 8 --iterations 4 --seed S."""

    name = "tune"
    ACCURACY_SEEDS = 10
    FITNESS = re.compile(r"\(fitness ([^)]+)\)")

    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        super().__init__(root, seed, tmp)
        self.path = self.scenario("case1")
        self.spec = gio.read_scenario(self.path)
        self.printed: list[str] = []
        self.configs: list[str] = []

    def execute(self, k: int, clock) -> PassOut:
        out = PassOut()
        text = self.cli_op(out, clock, ["tune", "--scenario", str(self.path),
                                        "--swarm", "8", "--iterations", "4",
                                        "--seed", str(self.seed),
                                        "--out", str(self.tmp / f"tuned{k}.cfg")])
        m = self.FITNESS.search(text)
        self.printed.append(m.group(1) if m else "")
        return out

    def collect(self, k: int, out: PassOut) -> None:
        path = self.tmp / f"tuned{k}.cfg"
        self.configs.append(path.read_text() if path.exists() else "")
        path.unlink(missing_ok=True)

    def finish(self):
        config = EstimatorConfig()
        battery = [synthesize(self.spec, FS, seed=self.seed)]
        best_ise = math.nan
        if self.configs and self.configs[0]:
            path = self.tmp / "tuned.cfg"
            path.write_text(self.configs[0])
            tuned = gio.read_config(path)
            gains = [*tuned.gamma_c, *tuned.gamma_s, tuned.gamma_dc, tuned.gamma_dc1]
            best_ise = tuner.ise_fitness(gains, battery, config)
        checks = [
            Check("every pass gave the same best_ise and tuned config",
                  len(set(self.printed)) == 1 and len(set(self.configs)) == 1
                  and len(self.printed) >= 2, f"printed fitness {sorted(set(self.printed))}"),
            Check("tuned config on disk reproduces the printed fitness",
                  bool(self.printed) and f"{best_ise:.6g}" == self.printed[0],
                  f"recomputed {best_ise!r}, printed {self.printed[:1]}"),
        ]
        # With 40 evaluations the tuned config's accuracy varies 7-13 %
        # between seeds, and the default config's on one record ~10 %; the
        # default config over ACCURACY_SEEDS records varies ~1 %.
        reports = []
        for seed in range(self.seed, self.seed + self.ACCURACY_SEEDS):
            stream, truth = synthesize(self.spec, FS, seed=seed)
            reports.append(report_dict(evaluate(estimator.run(stream, config), truth,
                                                LATENCY_S, skip_s=SKIP_S)))
        return checks, mean_report(reports), {"tuner.best_ise": best_ise}


def pack(rec, buf: array) -> None:
    """Append every field of an EstimateRecord to a flat array of doubles."""
    buf.extend((rec.t, rec.f_hz, rec.rocof_hzps, rec.rocof_raw_hzps, rec.a_dc,
                rec.a_dc1, rec.residual, rec.eta, rec.phase_acc, rec.t_anchor))
    buf.extend(rec.amps)
    buf.extend(rec.phases)


class Stream(Workload):
    """estimator.step once per sample over a 60 s record from case2.cfg.

    Records are packed into an array of doubles as they arrive, as an
    online consumer would forward them.  Holding ~6 000 record objects
    instead makes the garbage collector's pauses (2-6 ms, several per
    pass) rather than the estimator set the latency tail.

    A step slower than Ts at the same sample in every pass is a failure:
    the program made it slow.  A single late step at a random sample is a
    host stall; those are counted in ``estimator.step.deadline_miss``.
    """

    name = "stream"
    batch = False
    DURATION_S = 60.0
    CHUNK = 6000            # samples (5 s of signal) between host-speed marks

    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        super().__init__(root, seed, tmp)
        spec = replace(gio.read_scenario(self.scenario("case2")), duration=self.DURATION_S)
        self.stream, self.truth = synthesize(spec, FS, seed=self.seed)
        self.values = self.stream.values.tolist()
        self.config = EstimatorConfig()
        self.config.validate()
        self.first: bytes | None = None
        self.packed = array("d")
        self.mismatched_passes = 0
        self.diverged_passes = 0
        self.always_late: set[int] | None = None

    def execute(self, k: int, clock) -> PassOut:
        config = self.config
        step = estimator.step
        perf = time.perf_counter
        state = estimator.init(config)
        self.packed = packed = array("d")
        values = self.values
        dts = [0.0] * len(values)
        chunks = []
        i = 0
        for lo in range(0, len(values), self.CHUNK):
            mark = clock.mark()
            t_prev = perf()
            for x in values[lo:lo + self.CHUNK]:
                rec = step(state, x, config)
                t = perf()
                dts[i] = t - t_prev
                t_prev = t
                i += 1
                if rec is not None:
                    pack(rec, packed)
                if state.diverged:
                    break
            chunks.append((lo, i, mark))
            if state.diverged:
                break
        return PassOut(samples=i, ops=i, failed=int(state.diverged), step_s=dts[:i],
                       chunks=chunks)

    def collect(self, k: int, out: PassOut) -> None:
        if out.samples < len(self.values):
            self.diverged_passes += 1
        late = {j for j, dt in enumerate(out.step_s) if dt > TS}
        self.always_late = late if self.always_late is None else self.always_late & late
        got = self.packed.tobytes()
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.mismatched_passes += 1
        self.packed = array("d")

    def finish(self):
        ref = estimator.run(self.stream, self.config)
        expect = array("d")
        for rec in ref.records:
            pack(rec, expect)
        checks = [
            Check("no pass diverged", self.diverged_passes == 0,
                  f"{self.diverged_passes} passes diverged"),
            Check("step records equal run() records bit for bit",
                  ref.diverged_at is None and expect.tobytes() == self.first,
                  f"{len(self.first or b'') // 8} step values vs {len(expect)} from run()"),
            Check("every pass produced the same records", self.mismatched_passes == 0,
                  f"{self.mismatched_passes} passes differ"),
            Check("no sample's step was slower than Ts in every pass",
                  not self.always_late, f"late at samples {sorted(self.always_late or ())[:20]}"),
        ]
        # equal to the step records when the check above passes
        accuracy = report_dict(evaluate(ref, self.truth, LATENCY_S, skip_s=SKIP_S))
        return checks, accuracy, {}


WORKLOADS = {w.name: w for w in (CsvPipeline, MonteCarlo, Tune, Stream)}
