"""Frozen straight-line reference implementations used as test oracles.

Everything here is written independently of the package internals: plain
Python loops, direct math.sin/math.cos calls, no shared helpers.  Do not
refactor these to call into gridfreq; their value is that a bug in the
package cannot silently propagate into the expectation.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def reference_estimator(values, ts, n, f0, gamma_c, gamma_s, gamma_dc,
                        gamma_dc1, eta_opt, t_reset, cutoff_hz=None):
    """Plain transcription of the per-sample adaptation laws.

    Model: a_hat = sum_i a_c[i]*sin((i+1)*phi) + a_s[i]*cos((i+1)*phi)
                   + a_dc - a_dc1*t_anchor, residual r = sample - a_hat.

    The laws are driven by z = r, or, when ``cutoff_hz`` is given, by the
    one-pole low-pass z += alpha*(r - z) with alpha = 1 - exp(-2*pi*fc*ts).
    Coefficient updates are scaled gradient steps on z**2/2; the frequency
    update is steepest descent at the fixed rate ``eta_opt``.  When the
    anchor time reaches ``t_reset`` it saturates there.  Returns parallel
    lists (f_hz, rocof_raw) with one entry per consumed sample.
    """
    alpha = None
    if cutoff_hz is not None:
        alpha = 1.0 - math.exp(-TWO_PI * cutoff_hz * ts)
    a_c = [0.0] * n
    a_s = [0.0] * n
    a_dc = 0.0
    a_dc1 = 0.0
    f_hz = f0
    phi = 0.0
    t_anchor = 0.0
    z = 0.0
    f_trace = []
    rocof_trace = []
    for sample in values:
        a_hat = a_dc - a_dc1 * t_anchor
        for i in range(n):
            a_hat += a_c[i] * math.sin((i + 1) * phi)
            a_hat += a_s[i] * math.cos((i + 1) * phi)
        if alpha is None:
            z = sample - a_hat
        else:
            z = z + alpha * ((sample - a_hat) - z)

        for i in range(n):
            a_c[i] += ts * gamma_c[i] * z * math.sin((i + 1) * phi)
            a_s[i] += ts * gamma_s[i] * z * math.cos((i + 1) * phi)
        a_dc += ts * gamma_dc * z
        a_dc1 -= t_anchor * ts * gamma_dc1 * z

        g = 0.0
        for i in range(n):
            g += (i + 1) * t_anchor * (a_c[i] * math.cos((i + 1) * phi)
                                       - a_s[i] * math.sin((i + 1) * phi))
        rocof_raw = eta_opt * z * g / TWO_PI
        f_hz = f_hz + ts * rocof_raw

        phi = (phi + TWO_PI * f_hz * ts) % TWO_PI
        t_anchor = t_anchor + ts
        if t_anchor >= t_reset:
            t_anchor = t_reset

        f_trace.append(f_hz)
        rocof_trace.append(rocof_raw)
    return f_trace, rocof_trace


def reference_event_freq(t, f0, t_start, peak_dev, peak_rocof):
    """Raised-cosine frequency excursion evaluated pointwise.

    Duration T = pi*|D|/R makes the largest |df/dt| equal peak_rocof and
    the largest deviation equal peak_dev.
    """
    T = math.pi * abs(peak_dev) / peak_rocof
    u = min(max(t - t_start, 0.0), T)
    return f0 - 0.5 * peak_dev * (1.0 - math.cos(TWO_PI * u / T))


def reference_event_phase(t, f0, t_start, peak_dev, peak_rocof):
    """2*pi times the running integral of reference_event_freq."""
    T = math.pi * abs(peak_dev) / peak_rocof
    u = min(max(t - t_start, 0.0), T)
    integral = f0 * t - 0.5 * peak_dev * (u - (T / TWO_PI) * math.sin(TWO_PI * u / T))
    return TWO_PI * integral


def reference_gram(omega1, n, fs):
    """Period-averaged Gram matrix of the interleaved cos/sin basis.

    Entry (p, q) is the rectangle-rule mean of basis_p(t)*basis_q(t) over
    one fundamental period, with basis order cos(w t), sin(w t),
    cos(2 w t), sin(2 w t), ...  Returned as a nested list.
    """
    tau = TWO_PI / omega1
    m = int(round(fs * tau))
    d = 2 * n
    gram = [[0.0] * d for _ in range(d)]
    for k in range(m):
        t = k / fs
        basis = []
        for i in range(1, n + 1):
            basis.append(math.cos(i * omega1 * t))
            basis.append(math.sin(i * omega1 * t))
        for p in range(d):
            for q in range(d):
                gram[p][q] += basis[p] * basis[q] / m
    return gram


def reference_fe_re(t_est, f_est, r_est, t_tru, f_tru, r_tru, latency, skip):
    """Max/RMSE of |FE| and |RE| with linear-interpolation latency pairing."""

    def interp(x, xs, ys):
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        j = 0
        while xs[j + 1] < x:
            j += 1
        w = (x - xs[j]) / (xs[j + 1] - xs[j])
        return ys[j] * (1.0 - w) + ys[j + 1] * w

    fe = []
    re = []
    for t, f, r in zip(t_est, f_est, r_est):
        if t < skip or t - latency < t_tru[0] or t - latency > t_tru[-1]:
            continue
        fe.append(abs(f - interp(t - latency, t_tru, f_tru)))
        re.append(abs(r - interp(t - latency, t_tru, r_tru)))
    max_fe = max(fe)
    rmse_fe = math.sqrt(sum(e * e for e in fe) / len(fe))
    max_re = max(re)
    rmse_re = math.sqrt(sum(e * e for e in re) / len(re))
    return max_fe, rmse_fe, max_re, rmse_re
