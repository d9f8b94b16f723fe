/* The estimator's run loop in C: the laws of the gridfreq.estimator module
 * docstring over a whole stream, from a fresh state.
 *
 * gridfreq.estimator builds this file on first use with
 *
 *     cc -O2 -ffp-contract=off -fPIC -shared -lm
 *
 * and calls gridfreq_run through ctypes.  Its output equals the generated
 * Python kernel's (_KERNEL_TEMPLATE) bit for bit, for four reasons: every
 * expression keeps the template's operand order; -ffp-contract=off rules
 * out fused multiply-adds; CPython's math.sin and math.cos call the same
 * libm; and py_mod is CPython's float %.  Amplitude and phase are left to
 * Python, because CPython's math.hypot is not libm's.
 */

#include <math.h>
#include <stdint.h>

#define TWO_PI (2.0 * 3.141592653589793)   /* 2.0 * math.pi */

/* CPython's float x % y */
static double py_mod(double x, double y)
{
    double mod = fmod(x, y);
    if (mod != 0.0) {
        if ((y < 0.0) != (mod < 0.0))
            mod += y;
    } else {
        mod = copysign(0.0, y);
    }
    return mod;
}

/* Run the laws over x[0..len) from a fresh state: all coefficients zero,
 * frequency f0, phase, anchor and filter state 0.
 *
 * work holds 4n + ring doubles: the coefficient pairs, the basis and the
 * RoCoF ring.  ring is min(rocof_smooth_window, len), at least 1: no more
 * values than that are ever summed.  Every report_every-th sample writes
 * one row of rows, 10 + 2n doubles, the layout of
 * gridfreq.estimator.ROW_COLUMNS and of the estimate CSV:
 *
 *     t, f, rocof, rocof_raw, a_dc, a_dc1, resid, eta, phase, t_anchor,
 *     a_c[0..n), a_s[0..n)
 *
 * Returns the number of samples consumed: len, or the index of the sample
 * at which the divergence watchdog tripped.  k / report_every rows are
 * written.
 */
int64_t gridfreq_run(const double *x, int64_t len, int64_t n,
                     const double *tgc, const double *tgs, double ts,
                     double tg_dc, double g_dc1, int lowpass, double alpha,
                     double eta, double f0, double half_f0,
                     double t_reset, int64_t report_every, int64_t ring,
                     double t0, double *work, double *rows)
{
    double *ac = work, *as = work + n, *c = work + 2 * n, *s = work + 3 * n;
    double *buf = work + 4 * n;
    double *row = rows;
    double eta_rate = (1.0 / TWO_PI) * eta;   /* INV_TWO_PI * eta */
    double a_dc = 0.0, a_dc1 = 0.0, f = f0, phase = 0.0, t = 0.0, zf = 0.0;
    int64_t k, i, j, head = 0, count = 0;

    for (i = 0; i < n; i++)
        ac[i] = as[i] = 0.0;
    for (k = 0; k < len; ) {
        /* basis by the angle-sum recurrence, prediction and residual */
        double c0 = cos(phase), s0 = sin(phase);
        double pred, resid, z, g, rocof_raw, sum, acc;
        c[0] = c0;
        s[0] = s0;
        for (i = 1; i < n; i++) {
            c[i] = c[i - 1] * c0 - s[i - 1] * s0;
            s[i] = s[i - 1] * c0 + c[i - 1] * s0;
        }
        pred = a_dc - a_dc1 * t;
        for (i = 0; i < n; i++)
            pred = pred + (ac[i] * s[i] + as[i] * c[i]);
        resid = x[k] - pred;
        if (lowpass) {
            zf += alpha * (resid - zf);
            z = zf;
        } else {
            z = resid;
        }

        /* coefficient updates and, from the updated pairs, the frequency
         * gradient; then the descent update of the frequency */
        for (i = 0; i < n; i++) {
            ac[i] = ac[i] + tgc[i] * z * s[i];
            as[i] = as[i] + tgs[i] * z * c[i];
        }
        g = 0.0;
        for (i = 0; i < n; i++)
            g = g + (double)(i + 1) * t * (ac[i] * c[i] - as[i] * s[i]);
        a_dc = a_dc + tg_dc * z;
        a_dc1 = a_dc1 - t * ts * g_dc1 * z;
        rocof_raw = eta_rate * z * g;
        f = f + ts * rocof_raw;

        /* divergence watchdog: the fast sum, and the exact per-term check
         * when it is not finite */
        if (!(fabs(f - f0) <= half_f0))
            break;
        sum = ac[0] + as[0];
        for (i = 1; i < n; i++)
            sum = sum + ac[i] + as[i];
        if (!isfinite(sum + a_dc + a_dc1)) {
            int finite = isfinite(a_dc) && isfinite(a_dc1);
            for (i = 0; finite && i < n; i++)
                finite = isfinite(ac[i]) && isfinite(as[i]);
            if (!finite)
                break;
        }

        /* advance phase, sample counter and anchor; the anchor ramps up
         * to t_reset and holds there */
        phase = py_mod(phase + TWO_PI * f * ts, TWO_PI);
        k++;
        t = t + ts;
        if (t > t_reset)
            t = t_reset;
        buf[head] = rocof_raw;
        head = head + 1 == ring ? 0 : head + 1;
        if (count < ring)
            count++;
        if (k % report_every)
            continue;

        /* left-to-right boxcar, oldest value first */
        acc = 0.0;
        for (j = count < ring ? 0 : head; j < count; j++)
            acc += buf[j];
        for (j = 0; count == ring && j < head; j++)
            acc += buf[j];
        row[0] = t0 + (double)k * ts;
        row[1] = f;
        row[2] = acc / (double)count;
        row[3] = rocof_raw;
        row[4] = a_dc;
        row[5] = a_dc1;
        row[6] = resid;
        row[7] = eta;
        row[8] = phase;
        row[9] = t;
        for (i = 0; i < n; i++) {
            row[10 + i] = ac[i];
            row[10 + n + i] = as[i];
        }
        row += 10 + 2 * n;
    }
    return k;
}
