"""Acceptance battery: twelve numbered criteria, one verdict line each.

Criteria 2 and 3 each split into a frequency-error half and a RoCoF-error
half.  The RoCoF halves are expected failures (strict xfail): at 100 ms
latency and the stated noise levels the requested bounds sit below the
information-theoretic floor of any chirp-rate estimator with that much
effective delay (Cramer-Rao analysis in the project decisions ledger,
entry D3).  The achieved values are printed so the gap is visible.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cases import FS, case1, case2, case2b, case3, clean_tone
from gridfreq import (EstimatorConfig, PsoParams, SearchSpace, aggregate,
                      align, apply_gain_vector, evaluate, init, ise_fitness,
                      pso_minimize, pso_tune, run, step, synthesize)
from reference import output_and_gradient, reference_gram

LATENCY = 0.1
CONFIG = EstimatorConfig()


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def _monte_carlo(spec_factory, noise_level: float, seeds: int = 20):
    """Mean-aggregated latency-aligned metrics over a seed ensemble."""
    reports = []
    for seed in range(seeds):
        stream, truth = synthesize(spec_factory(noise_level, seed), FS, seed=seed)
        series = run(stream, CONFIG)
        assert series.diverged_at is None, f"diverged on seed {seed}"
        reports.append(evaluate(series, truth, LATENCY))
    mean, _ = aggregate(reports)
    return mean


@pytest.fixture(scope="module")
def case1_mc():
    return _monte_carlo(lambda lvl, seed: case1(lvl, seed), 0.02)


@pytest.fixture(scope="module")
def case1b_mc():
    return _monte_carlo(lambda lvl, seed: case1(lvl, seed), 0.15)


# --------------------------------------------------------------------------
# 1. clean lock
# --------------------------------------------------------------------------

def test_c01_clean_lock():
    stream, truth = synthesize(clean_tone(10.0), FS)
    t0 = time.perf_counter()
    series = run(stream, CONFIG)
    runtime = time.perf_counter() - t0
    t = series.t()
    locked = t > 0.5
    max_df = float(np.abs(series.f_hz()[locked] - 50.0).max())
    max_rocof = float(np.abs(series.rocof_hzps()[locked]).max())
    ok = max_df < 0.005 and max_rocof < 0.05 and runtime < 1.0
    _verdict("C1 clean-lock", ok,
             f"max|f-50| = {max_df:.5f} Hz (< 0.005), "
             f"max|rocof| = {max_rocof:.5f} Hz/s (< 0.05), "
             f"runtime = {runtime:.2f} s (< 1)")
    assert max_df < 0.005
    assert max_rocof < 0.05
    assert runtime < 1.0


# --------------------------------------------------------------------------
# 2./3. event-tracking bounds, 20-seed Monte Carlo
# --------------------------------------------------------------------------

def test_c02_event_2pct_noise_freq(case1_mc):
    m = case1_mc
    ok = m.max_fe <= 0.05 and m.rmse_fe <= 0.01
    _verdict("C2 event 2% noise, FE", ok,
             f"max FE = {m.max_fe:.4f} Hz (<= 0.05), "
             f"RMSE FE = {m.rmse_fe:.4f} Hz (<= 0.01)")
    assert m.max_fe <= 0.05
    assert m.rmse_fe <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="RoCoF bounds below the delay-constrained estimation floor: at 2% "
           "noise the Cramer-Rao lower bound for a chirp-rate estimate with "
           "0.2 s of effective data is 0.19 Hz/s per sample; decisions ledger D3")
def test_c02_event_2pct_noise_rocof(case1_mc):
    m = case1_mc
    ok = m.max_re <= 0.21 and m.rmse_re <= 0.05
    _verdict("C2 event 2% noise, RE", ok,
             f"max RE = {m.max_re:.4f} Hz/s (<= 0.21), "
             f"RMSE RE = {m.rmse_re:.4f} Hz/s (<= 0.05)")
    assert m.max_re <= 0.21
    assert m.rmse_re <= 0.05


def test_c03_event_15pct_noise_freq(case1b_mc):
    m = case1b_mc
    ok = m.max_fe <= 0.18 and m.rmse_fe <= 0.05
    _verdict("C3 event 15% noise, FE", ok,
             f"max FE = {m.max_fe:.4f} Hz (<= 0.18), "
             f"RMSE FE = {m.rmse_fe:.4f} Hz (<= 0.05)")
    assert m.max_fe <= 0.18
    assert m.rmse_fe <= 0.05


@pytest.mark.xfail(
    strict=True,
    reason="RoCoF bounds below the delay-constrained estimation floor at 15% "
           "noise (7.5x the 2% floor); decisions ledger D3")
def test_c03_event_15pct_noise_rocof(case1b_mc):
    m = case1b_mc
    ok = m.max_re <= 0.32 and m.rmse_re <= 0.13
    _verdict("C3 event 15% noise, RE", ok,
             f"max RE = {m.max_re:.4f} Hz/s (<= 0.32), "
             f"RMSE RE = {m.rmse_re:.4f} Hz/s (<= 0.13)")
    assert m.max_re <= 0.32
    assert m.rmse_re <= 0.13


# --------------------------------------------------------------------------
# 4. harmonic + decaying-DC RoCoF bounds
# --------------------------------------------------------------------------

def test_c04_harmonic_dc_rocof():
    stream, truth = synthesize(case3(), FS)
    series = run(stream, CONFIG)
    assert series.diverged_at is None
    m = evaluate(series, truth, LATENCY)
    ok = m.max_re <= 0.33 and m.rmse_re <= 0.18
    _verdict("C4 harmonic + DC, RE", ok,
             f"max RE = {m.max_re:.4f} Hz/s (<= 0.33), "
             f"RMSE RE = {m.rmse_re:.4f} Hz/s (<= 0.18)")
    assert m.max_re <= 0.33
    assert m.rmse_re <= 0.18


# --------------------------------------------------------------------------
# 5. step robustness
# --------------------------------------------------------------------------

def _recovery_time(spec) -> tuple[float, float]:
    """Last time the 0.2 s rolling RMS of FE exceeds 2x its pre-step value.

    The instantaneous |FE| of a noisy run crosses 2x RMS routinely even in
    steady state, so recovery is judged on a short rolling RMS.  Returns
    (last exceedance report time, threshold).
    """
    stream, truth = synthesize(spec, FS, seed=0)
    series = run(stream, CONFIG)
    assert series.diverged_at is None
    pairs = align(series, truth, LATENCY)
    fe = np.abs(pairs.f_est - pairs.f_true)
    pre = (pairs.t >= 2.0) & (pairs.t < 6.0)
    thr = max(2.0 * float(np.sqrt(np.mean(fe[pre] ** 2))), 1e-3)
    dt = float(pairs.t[1] - pairs.t[0])
    w = max(int(round(0.2 / dt)), 1)
    rms = np.sqrt(np.convolve(fe ** 2, np.ones(w) / w, mode="valid"))
    t_rms = pairs.t[w - 1:]
    post = t_rms >= 6.0
    exceed = t_rms[post][rms[post] > thr]
    last = float(exceed.max()) if exceed.size else 6.0
    return last, thr


def test_c05_step_recovery():
    # reports at t describe the state at t - latency, so "within 1 s of the
    # t = 6 s onset" allows report times up to 7 s + latency
    deadline = 7.0 + LATENCY
    last_a, thr_a = _recovery_time(case2())
    last_b, thr_b = _recovery_time(case2b())
    ok = last_a <= deadline and last_b <= deadline
    _verdict("C5 step recovery", ok,
             f"amp+phase step back under 2x pre-step RMSE at t = {last_a:.2f} s, "
             f"pi/8 phase step at t = {last_b:.2f} s (deadline {deadline:.1f} s)")
    assert last_a <= deadline
    assert last_b <= deadline


# --------------------------------------------------------------------------
# 6. learning-rate sensitivity trend
# --------------------------------------------------------------------------

def test_c06_eta_sweep_trend():
    ratios = (1.0, 1.02, 1.04, 1.06)
    stream, truth = synthesize(case1(0.02, 0), FS, seed=0)
    rows = []
    for ratio in ratios:
        cfg = replace(CONFIG, eta_opt=CONFIG.eta_opt * ratio)
        series = run(stream, cfg)
        assert series.diverged_at is None
        m = evaluate(series, truth, LATENCY)
        rows.append((m.rmse_fe, m.rmse_re))
    fe = [r[0] for r in rows]
    re = [r[1] for r in rows]
    fe_up = all(b > a for a, b in zip(fe, fe[1:]))
    re_up = all(b > a for a, b in zip(re, re[1:]))
    _verdict("C6 eta sweep", fe_up and re_up,
             "RMSE FE " + " -> ".join(f"{v:.5f}" for v in fe)
             + ", RMSE RE " + " -> ".join(f"{v:.4f}" for v in re)
             + " (both strictly increasing)")
    assert fe_up, f"RMSE FE not strictly increasing: {fe}"
    assert re_up, f"RMSE RE not strictly increasing: {re}"


# --------------------------------------------------------------------------
# 7. descent / divergence of the frequency loop
# --------------------------------------------------------------------------

def test_c07_descent_and_divergence():
    ts = 1.0 / FS
    cap = 0.5
    theta = ([1.0], [0.0], 0.0, 0.0)       # (a_c, a_s, a_dc, a_dc1)
    omega_true = 2.0 * math.pi * 50.0
    g_max = cap * 1.0

    # descent: frozen amplitudes on a noise-free tone, rate inside the bound
    worst_dj = -math.inf
    for beta in (0.5, 1.0, 1.9):
        eta = beta / (ts * g_max ** 2)
        omega = 2.0 * math.pi * 50.02
        for k in range(1000):
            t = min((k + 1) * ts, cap)
            target = output_and_gradient(*theta, omega_true * t, t)[0]
            y, g = output_and_gradient(*theta, omega * t, t)
            err = y - target
            omega_new = omega - ts * eta * err * g
            y_new = output_and_gradient(*theta, omega_new * t, t)[0]
            dj = 0.5 * (y_new - target) ** 2 - 0.5 * err ** 2
            worst_dj = max(worst_dj, dj)
            omega = omega_new
        assert abs(omega / (2.0 * math.pi) - 50.0) < 1e-3, \
            f"beta={beta}: did not converge"
    desc_ok = worst_dj <= 1e-18

    # divergence: rate at 3x the critical value, gradient pinned near its
    # maximum (omega_true * t is a multiple of 2*pi, so cos = 1 there)
    t = cap
    eta = 3.0 / (ts * g_max ** 2)
    omega = omega_true * (1.0 + 1e-6)
    target = output_and_gradient(*theta, omega_true * t, t)[0]
    J = [0.5 * (output_and_gradient(*theta, omega * t, t)[0] - target) ** 2]
    for _ in range(1000):
        y, g = output_and_gradient(*theta, omega * t, t)
        err = y - target
        omega = omega - ts * eta * err * g
        J.append(0.5 * (output_and_gradient(*theta, omega * t, t)[0]
                        - target) ** 2)
    k = 1
    grew = False
    while k < len(J):
        if J[k] >= 1e3 * J[0]:
            grew = True
            break
        if J[k] <= J[k - 1]:
            break
        k += 1
    _verdict("C7 descent/divergence", desc_ok and grew,
             f"worst dJ = {worst_dj:.2e} (<= 0) over beta in {{0.5, 1.0, 1.9}}; "
             f"at 3x critical rate J grew 1000x monotonically in {k} steps")
    assert desc_ok, f"cost increased at a frequency update: dJ = {worst_dj:.3e}"
    assert grew, "cost did not grow monotonically at 3x the critical rate"


# --------------------------------------------------------------------------
# 8. regressor excitation over one period
# --------------------------------------------------------------------------

def test_c08_excitation_gram():
    omega1 = 100.0 * math.pi
    fs = 12000.0
    worst_lo, worst_hi, worst_off, worst_diag = 1.0, 0.0, 0.0, 0.0
    for n in (1, 3, 7):
        # period-averaged Gram matrix; times the period it is the raw integral
        gram = np.array(reference_gram(omega1, n, fs))
        eig = np.linalg.eigvalsh(gram)
        off = float(np.abs(gram - np.diag(np.diag(gram))).max())
        worst_lo = min(worst_lo, float(eig[0]))
        worst_hi = max(worst_hi, float(eig[-1]))
        worst_off = max(worst_off, off)
        raw = gram * (2.0 * math.pi / omega1)
        worst_diag = max(worst_diag,
                         float(np.abs(np.diag(raw) - math.pi / omega1).max()))
    ok = (worst_lo > 0.45 and worst_hi < 0.55 and worst_off < 1e-3
          and worst_diag < 1e-4)
    _verdict("C8 excitation", ok,
             f"eigenvalues in [{worst_lo:.4f}, {worst_hi:.4f}] (within "
             f"(0.45, 0.55)), max off-diagonal = {worst_off:.2e} (< 1e-3), "
             f"unnormalized diagonal off pi/omega1 by {worst_diag:.2e} (< 1e-4)")
    assert worst_lo > 0.45
    assert worst_hi < 0.55
    assert worst_off < 1e-3
    assert worst_diag < 1e-4


# --------------------------------------------------------------------------
# 9. analytic frequency gradient vs finite differences
# --------------------------------------------------------------------------

def test_c09_gradient_check():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        theta = (list(rng.normal(0.0, 1.0, n)), list(rng.normal(0.0, 1.0, n)),
                 float(rng.normal()), float(rng.normal()))
        omega = float(rng.uniform(250.0, 380.0))
        t = float(rng.uniform(0.01, 1.0))
        g = output_and_gradient(*theta, omega * t, t)[1]
        h = 1e-6 * omega
        fd = (output_and_gradient(*theta, (omega + h) * t, t)[0]
              - output_and_gradient(*theta, (omega - h) * t, t)[0]) / (2.0 * h)
        worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-9))
    _verdict("C9 gradient check", worst < 1e-5,
             f"worst relative error = {worst:.2e} (< 1e-5) over 100 states")
    assert worst < 1e-5


# --------------------------------------------------------------------------
# 10. per-sample frequency/RoCoF arithmetic identity
# --------------------------------------------------------------------------

def test_c10_rocof_frequency_identity():
    stream, _ = synthesize(case1(0.02, 0), FS, seed=0)
    cfg = replace(CONFIG, report_every=1)
    series = run(stream, cfg)
    worst_ulp = 0.0
    for prev, cur in zip(series.records, series.records[1:]):
        expect = prev.f_hz + cfg.ts * cur.rocof_raw_hzps
        if cur.f_hz != expect:
            worst_ulp = max(worst_ulp,
                            abs(cur.f_hz - expect) / math.ulp(cur.f_hz))
    _verdict("C10 rocof identity", worst_ulp <= 1.0,
             f"f[k+1] - f[k] = Ts * rocof_raw[k+1] within {worst_ulp:.1f} ulp "
             f"(<= 1) over {len(series) - 1} consecutive reports")
    assert worst_ulp <= 1.0


# --------------------------------------------------------------------------
# 11. throughput
# --------------------------------------------------------------------------

def test_c11_throughput():
    stream, _ = synthesize(clean_tone(2.0), FS)
    samples = np.tile(stream.values, 25)[:50_000]
    state = init(CONFIG)
    t0 = time.perf_counter()
    for v in samples:
        step(state, float(v), CONFIG)
    mean_us = (time.perf_counter() - t0) / samples.size * 1e6
    _verdict("C11 throughput", mean_us <= 50.0,
             f"mean step time = {mean_us:.2f} us (<= 50) at n = {CONFIG.n}")
    assert mean_us <= 50.0


# --------------------------------------------------------------------------
# 12. tuner sanity
# --------------------------------------------------------------------------

def test_c12_tuner_sanity():
    # optimizer self-test on the sphere function
    space = SearchSpace(bounds=((-5.0, 5.0),) * 4)
    pso = PsoParams(swarm_size=30, iterations=50, seed=0)
    _, sphere_best, _ = pso_minimize(lambda x: float(np.sum(x * x)), space, pso)
    sphere_ok = sphere_best < 1e-3

    # 1-D gain search against a 20-point log-spaced grid oracle
    scenarios = [synthesize(case1(0.02, 0, duration=3.0), FS, seed=0)]

    def uniform_ise(g):
        # one gain for every coefficient pair; the DC gains stay put
        gains = [g] * (2 * CONFIG.n) + [CONFIG.gamma_dc, CONFIG.gamma_dc1]
        return ise_fitness(gains, scenarios, CONFIG)

    grid = np.geomspace(1.0, 500.0, 20)
    grid_best = min(uniform_ise(g) for g in grid)
    gain_space = SearchSpace(bounds=((1.0, 500.0),), log_scale=True)
    gain_pso = PsoParams(swarm_size=10, iterations=15, seed=1)
    best, score, history = pso_minimize(lambda x: uniform_ise(x[0]),
                                        gain_space, gain_pso)
    beats = score < grid_best
    _verdict("C12 tuner", sphere_ok and beats,
             f"sphere best = {sphere_best:.2e} (< 1e-3); 1-D gain "
             f"search {score:.6f} beats 20-point grid {grid_best:.6f} "
             f"(best gain {best[0]:.2f})")
    assert sphere_ok
    assert beats
    assert history == sorted(history, reverse=True)


def test_c12_tuned_gains_beat_the_default_on_held_out_seeds():
    # tune's default search (30 particles, 50 iterations, every gain in
    # [1, 500] on a log scale) on case1 at seed 0, scored on seeds 1-10.
    # The fitness is the RMSE FE metrics reports, so the tuned gains must
    # beat the default ones there.  Tuned at seeds 0-7 and scored on the
    # next ten, they read 3.7-9.9 % below the default (0.00434-0.00465 Hz
    # against 0.00479-0.00491); the bound asks for 5 %, about four times
    # the spread of the default's ten-seed mean between those windows
    space = SearchSpace(bounds=((1.0, 500.0),) * (2 * CONFIG.n + 2),
                        log_scale=True)
    battery = [synthesize(case1(0.02, 0), FS, seed=0)]
    best, _, _ = pso_tune(space, battery, PsoParams(), CONFIG)
    tuned = apply_gain_vector(CONFIG, best)

    def held_out(config):
        return float(np.mean([
            evaluate(run(stream, config), truth, LATENCY).rmse_fe
            for stream, truth in (synthesize(case1(0.02, seed), FS, seed=seed)
                                  for seed in range(1, 11))]))

    got, default = held_out(tuned), held_out(CONFIG)
    ok = got < 0.95 * default
    _verdict("C12 held-out", ok,
             f"gains tuned on seed 0 give RMSE FE {got:.5f} Hz over seeds "
             f"1-10 (< 0.95 x the default's {default:.5f})")
    assert ok
