"""Hooks the benchmark installs on gridfreq module attributes.

All of them work from outside the program: they replace a module attribute
with a wrapper and put the original back on exit, so nothing under
``src/gridfreq`` changes.  ``gridfreq.cli`` and ``gridfreq.tuner`` bind
``run`` with ``from .estimator import run``, so the names wrapped are the
ones those modules look up, not ``gridfreq.estimator.run``.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable

Note = Callable[[tuple, dict, Any], dict]


class Patches:
    """Module-attribute replacements, undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def consumed_samples(stream: Any, series: Any) -> int:
    """Samples ``run`` fed to ``step``: all, or up to the one that diverged.

    ``diverged_at`` counts the steps that completed before it.
    """
    return len(stream) if series.diverged_at is None else series.diverged_at + 1


class RunTimer:
    """Wall time and consumed samples of every estimator ``run`` call.

    Installed in traced and untraced runs alike: it adds two clock reads
    per 12 001-sample record, and it is the only way to learn how many
    samples a PSO particle consumed before it diverged.  ``before`` runs
    ahead of each call (the host-speed mark) and returns a tag kept with
    the call.
    """

    def __init__(self, before: Callable[[], int]) -> None:
        self.before = before
        self.calls: list[tuple[float, int, bool, int]] = []  # (s, samples, diverged, tag)

    def install(self, patches: Patches, owners: list[object]) -> None:
        for owner in owners:
            patches.replace(owner, "run", self._wrap)

    def _wrap(self, fn: Callable) -> Callable:
        calls = self.calls
        perf = time.perf_counter

        def timed(stream, config, *args, **kwargs):
            tag = self.before()
            t0 = perf()
            series = fn(stream, config, *args, **kwargs)
            calls.append((perf() - t0, consumed_samples(stream, series),
                          series.diverged_at is not None, tag))
            return series
        return timed


def shift_seeds(patches: Patches, owner: object, offset: int) -> None:
    """Make ``owner.synthesize(spec, fs, seed=k)`` use seed ``k + offset``.

    ``gridfreq metrics --scenario`` always renders seeds 0..n-1; this moves
    the ensemble to ``offset..offset+n-1`` so that the workload follows the
    benchmark seed.  With offset 0 it is the identity.
    """
    def make(fn: Callable) -> Callable:
        def shifted(spec, fs, seed=None):
            return fn(spec, fs, seed=None if seed is None else seed + offset)
        return shifted
    patches.replace(owner, "synthesize", make)


class Tracer:
    """Spans with name, start, end and parent id, kept in memory.

    ``note`` callbacks turn a call's arguments and result into counts
    (samples, bytes, pairs, penalties) recorded on the span.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, patches: Patches, owner: object, attr: str, name: str,
             note: Note | None = None) -> None:
        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = self._stack[-1] if self._stack else None
                self._stack.append(sid)
                start = time.perf_counter()
                result, ok = None, False
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans.append({
                        "id": sid, "parent": parent, "name": name,
                        "start": start, "end": end,
                        **(note(args, kwargs, result) if note and ok else {})})
            return traced
        patches.replace(owner, attr, make)


# --------------------------------------------------------------------------
# What each wrapped call counts
# --------------------------------------------------------------------------

def _path_arg(args: tuple, kwargs: dict) -> str:
    return str(kwargs.get("path", args[0] if args else ""))


def note_io_write(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes_written": os.path.getsize(_path_arg(args, kwargs))}


def note_io_read(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes_read": os.path.getsize(_path_arg(args, kwargs))}


def note_run(args: tuple, kwargs: dict, series: Any) -> dict:
    return {"samples": consumed_samples(args[0], series),
            "records": len(series),
            "diverged": int(series.diverged_at is not None)}


def note_synth(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"samples": len(result[0])}


def note_evaluate(args: tuple, kwargs: dict, report: Any) -> dict:
    return {"pairs": report.n_samples}


def make_note_fitness(penalty: float) -> Note:
    def note(args: tuple, kwargs: dict, score: Any) -> dict:
        return {"penalized": int(score >= penalty)}
    return note


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    """Wrap every public function of each layer the CLI paths reach."""
    import gridfreq.cli as cli
    import gridfreq.io as gio
    import gridfreq.tuner as tuner

    tracer.wrap(patches, cli, "main", "cli.main")
    tracer.wrap(patches, cli, "synthesize", "synth.synthesize", note_synth)
    tracer.wrap(patches, cli, "run", "estimator.run", note_run)
    tracer.wrap(patches, cli, "evaluate", "metrics.evaluate", note_evaluate)
    tracer.wrap(patches, cli, "aggregate", "metrics.aggregate")
    tracer.wrap(patches, cli, "pso_tune", "tuner.pso_tune")
    tracer.wrap(patches, tuner, "run", "estimator.run", note_run)
    tracer.wrap(patches, tuner, "ise_fitness", "tuner.ise_fitness",
                make_note_fitness(tuner.DIVERGENCE_PENALTY))
    for attr in sorted(vars(gio)):
        fn = getattr(gio, attr)
        if attr.startswith("_") or not callable(fn) \
                or getattr(fn, "__module__", None) != gio.__name__:
            continue
        note = note_io_write if attr.startswith("write_") else \
            note_io_read if attr.startswith("read_") else None
        tracer.wrap(patches, gio, attr, f"io.{attr}", note)


# --------------------------------------------------------------------------
# Per-layer figures from spans
# --------------------------------------------------------------------------

IO_FUNCTIONS = ("write_samples", "read_samples", "write_truth", "read_truth",
                "write_estimates", "read_estimates", "read_scenario")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_figures(spans: list[dict], passes: int, pass_s: float
                  ) -> dict[str, float]:
    """Per-pass counts and busy times, and each layer's share of pass time.

    ``pass_s`` is the summed wall time of the traced passes.
    """
    own = self_times(spans)

    def select(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in select(name))

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in select(name))

    def own_of(prefix: str) -> float:
        return sum(own[s["id"]] for s in spans if s["name"].startswith(prefix))

    per = 1.0 / passes
    runs = select("estimator.run")
    run_samples = total("estimator.run", "samples")
    fitness = select("tuner.ise_fitness")
    penalized = total("tuner.ise_fitness", "penalized")
    out = {
        "synth.calls": len(select("synth.synthesize")) * per,
        "synth.busy_s": busy("synth.synthesize") * per,
        "synth.samples": total("synth.synthesize", "samples") * per,
        "estimator.run.calls": len(runs) * per,
        "estimator.run.busy_s": busy("estimator.run") * per,
        "estimator.run.us_per_sample":
            busy("estimator.run") / run_samples * 1e6 if run_samples else 0.0,
        "estimator.run.diverged": total("estimator.run", "diverged") * per,
        "estimator.records": total("estimator.run", "records") * per,
        "metrics.evaluate.calls": len(select("metrics.evaluate")) * per,
        "metrics.evaluate.busy_s": busy("metrics.evaluate") * per,
        "metrics.pairs": total("metrics.evaluate", "pairs") * per,
        "metrics.aggregate.busy_s": busy("metrics.aggregate") * per,
        "tuner.ise_fitness.calls": len(fitness) * per,
        "tuner.ise_fitness.busy_s": busy("tuner.ise_fitness") * per,
        "tuner.ise_fitness.penalized": penalized * per,
        "tuner.useful_ratio":
            (len(fitness) - penalized) / len(fitness) if fitness else 0.0,
        "tuner.pso.self_s": own_of("tuner.pso_tune") * per,
        "cli.self_s": own_of("cli.main") * per,
    }
    for fn in IO_FUNCTIONS:
        out[f"io.{fn}.calls"] = len(select(f"io.{fn}")) * per
        out[f"io.{fn}.busy_s"] = busy(f"io.{fn}") * per
    out["io.bytes_written"] = sum(s.get("bytes_written", 0) for s in spans) * per
    out["io.bytes_read"] = sum(s.get("bytes_read", 0) for s in spans) * per
    for layer in ("synth", "estimator", "metrics", "io", "tuner", "cli"):
        out[f"{layer}.share"] = own_of(layer + ".") / pass_s if pass_s else 0.0
    return out
