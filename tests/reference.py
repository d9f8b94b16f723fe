"""Frozen straight-line reference implementations used as test oracles.

Everything here is written independently of the package internals: plain
Python loops, direct math.sin/math.cos calls, no shared helpers.  Do not
refactor these to call into gridfreq; their value is that a bug in the
package cannot silently propagate into the expectation.  The exceptions to
direct trig are the model oracle (harmonic_basis, output_and_gradient) and
the loop oracle (reference_loop): they build the basis by the angle-sum
recurrence in the estimator's operation order, so that the tests can pin
the C loop to them bit for bit.  The amplitude and phase oracle calls
libm's hypot and atan2 through ctypes.
"""

from __future__ import annotations

import ctypes
import ctypes.util
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


def reference_loop(values, t0, ts, n, f0, gamma_c, gamma_s, gamma_dc,
                   gamma_dc1, eta_opt, t_reset, report_every, window,
                   cutoff_hz=None):
    """The estimator's laws as one plain loop, from a fresh state, in the
    operand order of the gridfreq.estimator module docstring: each sum and
    product is evaluated left to right as written there, with ts times a
    gain taken first.

    After each sample the divergence watchdog checks the frequency band
    |f - f0| <= f0/2 first, then that every coefficient is finite; when
    either fails the loop stops, and the state keeps the updated
    coefficients, f and the filter state, but the phase, sample count,
    anchor and RoCoF buffer of the sample before.  Every ``report_every``
    samples it reports one row

        t0 + k*ts, f, rocof, rocof_raw, a_dc, a_dc1, residual, eta_opt,
        phase, anchor, a_c[0..n), a_s[0..n)

    whose rocof is the left-to-right mean of the last ``window`` raw
    values, oldest first.  Returns (rows, state): the rows as tuples, and
    the final state as a dict of EstimatorState's constructor arguments.
    """
    eta_rate = (1.0 / TWO_PI) * eta_opt
    alpha = 0.0
    if cutoff_hz is not None:
        alpha = 1.0 - math.exp(-TWO_PI * cutoff_hz * ts)
    kc = [ts * g for g in gamma_c]
    ks = [ts * g for g in gamma_s]
    a_c = [0.0] * n
    a_s = [0.0] * n
    a_dc = 0.0
    a_dc1 = 0.0
    f = f0
    phase = 0.0
    t = 0.0
    zf = 0.0
    k = 0
    buf = []
    rows = []
    diverged = False
    for sample in values:
        c0 = math.cos(phase)
        s0 = math.sin(phase)
        c = [c0]
        s = [s0]
        for i in range(1, n):
            c.append(c[i - 1] * c0 - s[i - 1] * s0)
            s.append(s[i - 1] * c0 + c[i - 1] * s0)
        pred = a_dc - a_dc1 * t
        for i in range(n):
            pred = pred + (a_c[i] * s[i] + a_s[i] * c[i])
        resid = sample - pred
        if cutoff_hz is None:
            z = resid
        else:
            zf = zf + alpha * (resid - zf)
            z = zf

        for i in range(n):
            a_c[i] = a_c[i] + kc[i] * z * s[i]
            a_s[i] = a_s[i] + ks[i] * z * c[i]
        g = 0.0
        for i in range(n):
            g = g + (i + 1) * t * (a_c[i] * c[i] - a_s[i] * s[i])
        a_dc = a_dc + ts * gamma_dc * z
        a_dc1 = a_dc1 - t * ts * gamma_dc1 * z
        rocof_raw = eta_rate * z * g
        f = f + ts * rocof_raw

        if not abs(f - f0) <= f0 / 2:
            diverged = True
            break
        if not all(math.isfinite(v) for v in [*a_c, *a_s, a_dc, a_dc1]):
            diverged = True
            break

        phase = (phase + TWO_PI * f * ts) % TWO_PI
        k += 1
        t = t + ts
        if t > t_reset:
            t = t_reset
        buf.append(rocof_raw)
        if len(buf) > window:
            del buf[0]
        if k % report_every == 0:
            acc = 0.0
            for value in buf:
                acc += value
            rows.append((t0 + k * ts, f, acc / len(buf), rocof_raw, a_dc,
                         a_dc1, resid, eta_opt, phase, t, *a_c, *a_s))
    state = dict(a_c=a_c, a_s=a_s, f_hz=f, a_dc=a_dc, a_dc1=a_dc1,
                 phase_acc=phase, k=k, t_anchor=t, zfilt=zf,
                 diverged=diverged, rocof_buf=buf, t0=t0)
    return rows, state


# libm's own hypot and atan2, which CPython's math module does not expose:
# math.hypot has an algorithm of its own
_libm = ctypes.CDLL(ctypes.util.find_library("m"))
for _f in (_libm.hypot, _libm.atan2):
    _f.argtypes = (ctypes.c_double, ctypes.c_double)
    _f.restype = ctypes.c_double


def reference_amps_phases(a_s, a_c):
    """Amplitudes and full-quadrant phases of (sin, cos) coefficient pairs
    by the rule: libm's hypot and atan2, and (0.0, 0.0) for a zero pair of
    either sign."""
    amps = list(map(_libm.hypot, a_s, a_c))
    phases = list(map(_libm.atan2, a_s, a_c))
    for i, amp in enumerate(amps):
        if amp == 0.0:
            phases[i] = 0.0
    return amps, phases


def reference_record(record, row):
    """``record(...)`` of one report row of reference_loop's layout, with
    the fields of gridfreq's EstimateRecord in order; the class is passed
    in, so this module imports nothing from the package."""
    (t, f_hz, rocof, rocof_raw, a_dc, a_dc1, resid, eta, phase, t_anchor,
     *coefs) = row
    n = len(coefs) // 2
    amps, phases = reference_amps_phases(coefs[n:], coefs[:n])
    return record(t, f_hz, rocof, rocof_raw, amps, phases, a_dc, a_dc1,
                  resid, eta, phase, t_anchor)


def harmonic_basis(phase, n):
    """cos(i*phase), sin(i*phase) for i = 1..n via the angle-sum recurrence."""
    c1 = math.cos(phase)
    s1 = math.sin(phase)
    cos_i = [c1]
    sin_i = [s1]
    for _ in range(1, n):
        c_prev = cos_i[-1]
        s_prev = sin_i[-1]
        cos_i.append(c_prev * c1 - s_prev * s1)
        sin_i.append(s_prev * c1 + c_prev * s1)
    return cos_i, sin_i


def output_and_gradient(a_c, a_s, a_dc, a_dc1, phase, t):
    """Model output and its derivative d(model)/d(w1) at fixed coefficients.

    The model is a = sum_i a_c[i]*sin((i+1)*phase) + a_s[i]*cos((i+1)*phase)
    + a_dc - a_dc1*t.  ``phase`` is the fundamental phase (w1*t; an
    estimator state carries a wrapped phase accumulator instead) and ``t``
    the time that multiplies the DC slope and the gradient.  Harmonic i
    contributes i*t*(a_c*cos(i*phase) - a_s*sin(i*phase)) to the gradient;
    the DC terms do not depend on the fundamental.
    """
    cos_i, sin_i = harmonic_basis(phase, len(a_c))
    value = a_dc - a_dc1 * t
    grad = 0.0
    for i, (ac, as_, c, s) in enumerate(zip(a_c, a_s, cos_i, sin_i), 1):
        value += ac * s + as_ * c
        grad += i * t * (ac * c - as_ * s)
    return value, grad


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
