"""Offline particle-swarm tuning of estimator gains.

Global-best PSO over a box-bounded search space, linear or log-scaled as a
whole.  The fitness of a gain vector is the figure ``metrics`` reports:
the RMSE frequency error of :func:`gridfreq.metrics.evaluate` at its
default latency and skip window, in Hz, summed over a scenario battery.
The driver is deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import math

import numpy as np

from .errors import ConfigError, is_count
from .estimator import EstimatorConfig, run
from .metrics import DEFAULT_LATENCY_S, DEFAULT_SKIP_S, evaluate
from .synth import GroundTruth, SampleStream

DIVERGENCE_PENALTY = 1e6

# velocity-update weights of the standard global-best swarm
INERTIA = 0.7
COGNITIVE = 1.5
SOCIAL = 1.5


@dataclass(frozen=True)
class SearchSpace:
    """Per-dimension (lower, upper) bounds, all log-scaled if ``log_scale``."""

    bounds: tuple[tuple[float, float], ...]
    log_scale: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        if not self.bounds:
            raise ConfigError("search space must have at least one dimension")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"bounds must be finite, got ({lo:g}, {hi:g})")
            if not lo < hi:
                raise ConfigError("each lower bound must be below its upper bound")
        if self.log_scale and any(lo <= 0 for lo, _ in self.bounds):
            raise ConfigError("a log-scaled search space needs positive bounds")

    @property
    def dims(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class PsoParams:
    swarm_size: int = 30
    iterations: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("swarm_size", "iterations", "seed"):
            value = getattr(self, name)
            if not is_count(value):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if self.swarm_size < 2:
            raise ConfigError("swarm size must be >= 2")
        if self.iterations < 1:
            raise ConfigError("iteration count must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def apply_gain_vector(config: EstimatorConfig, gains: Sequence[float]
                      ) -> EstimatorConfig:
    """Map a flat gain vector onto a config.

    Length 2n+2 sets (gamma_c[1..n], gamma_s[1..n], gamma_dc, gamma_dc1);
    length 2n+3 additionally sets eta_opt as the last element.
    """
    g = [float(v) for v in gains]
    n = config.n
    if len(g) not in (2 * n + 2, 2 * n + 3):
        raise ConfigError(
            f"gain vector length {len(g)} does not match 2n+2 or 2n+3 for n={n}"
        )
    eta = {"eta_opt": g[2 * n + 2]} if len(g) == 2 * n + 3 else {}
    return replace(config, gamma_c=tuple(g[:n]), gamma_s=tuple(g[n:2 * n]),
                   gamma_dc=g[2 * n], gamma_dc1=g[2 * n + 1], **eta)


def ise_fitness(gains: Sequence[float],
                scenarios: Sequence[tuple[SampleStream, GroundTruth]],
                config: EstimatorConfig) -> float:
    """Sum over the battery of the RMSE frequency error (Hz) that
    ``metrics`` reports, :func:`gridfreq.metrics.evaluate` at its default
    latency and skip window; lower is better.  A run that diverges or
    reports nothing adds :data:`DIVERGENCE_PENALTY` instead, and a gain
    vector the config rejects scores it alone.
    """
    if not scenarios:
        raise ConfigError("scenario battery must not be empty")
    try:
        cfg = apply_gain_vector(config, gains)
    except ConfigError:
        return DIVERGENCE_PENALTY
    score = 0.0
    for stream, truth in scenarios:
        series = run(stream, cfg)
        if series.diverged_at is not None or len(series) == 0:
            score += DIVERGENCE_PENALTY
            continue
        score += evaluate(series, truth, DEFAULT_LATENCY_S,
                          skip_s=DEFAULT_SKIP_S).rmse_fe
    return score


def pso_minimize(fn: Callable[[np.ndarray], float], space: SearchSpace,
                 pso: PsoParams) -> tuple[np.ndarray, float, list[float]]:
    """Standard global-best PSO over a box; deterministic under pso.seed.

    Returns (best position, best score, per-iteration best-score history).
    """
    rng = np.random.default_rng(pso.seed)
    d = space.dims
    wlo, whi = np.array(space.bounds).T     # the box the swarm moves in
    if space.log_scale:
        wlo, whi = np.log(wlo), np.log(whi)
    span = whi - wlo

    def decode(w: np.ndarray) -> np.ndarray:
        return np.exp(w) if space.log_scale else w

    try:
        pos = wlo + rng.random((pso.swarm_size, d)) * span
    except (MemoryError, ValueError):    # numpy: "array is too big"
        raise MemoryError(f"a swarm of {pso.swarm_size} particles of {d} "
                          f"gains does not fit in memory") from None
    vel = (rng.random((pso.swarm_size, d)) - 0.5) * span
    vmax = span  # velocity clamped to the box extent

    pbest = pos.copy()
    pbest_score = np.array([fn(decode(p)) for p in pos])
    gbest_idx = int(np.argmin(pbest_score))
    gbest = pbest[gbest_idx].copy()
    gbest_score = float(pbest_score[gbest_idx])

    history = []
    for _ in range(pso.iterations):
        r1 = rng.random((pso.swarm_size, d))
        r2 = rng.random((pso.swarm_size, d))
        vel = (INERTIA * vel
               + COGNITIVE * r1 * (pbest - pos)
               + SOCIAL * r2 * (gbest - pos))
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, wlo, whi)
        for i in range(pso.swarm_size):
            s = fn(decode(pos[i]))
            if s < pbest_score[i]:
                pbest_score[i] = s
                pbest[i] = pos[i]
                if s < gbest_score:
                    gbest_score = float(s)
                    gbest = pos[i].copy()
        history.append(gbest_score)
    return decode(gbest), gbest_score, history


def pso_tune(space: SearchSpace,
             scenarios: Sequence[tuple[SampleStream, GroundTruth]],
             pso: PsoParams, config: EstimatorConfig
             ) -> tuple[np.ndarray, float, list[float]]:
    """Tune a gain vector against the scenario battery.

    The gain vector is that of :func:`apply_gain_vector`.  Returns (best
    gain vector, best score, per-iteration best-score history).
    """
    return pso_minimize(lambda x: ise_fitness(x, scenarios, config),
                        space, pso)
