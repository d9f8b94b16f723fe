/* The package's C library: the estimator's loop (gridfreq_advance), the
 * CSV float formatter of gridfreq.io (gridfreq_format_rows) and its CSV row
 * parser (gridfreq_parse_rows).
 *
 * gridfreq._native builds this file on first use with
 *
 *     cc -O2 -ffp-contract=off -fPIC -shared -lm
 *
 * and calls the three functions through ctypes.
 *
 * gridfreq_advance runs the laws of the gridfreq.estimator module
 * docstring on a state buffer that persists between calls, over any number
 * of samples: estimator.run calls it once over a whole stream from a fresh
 * state, and estimator.step once per sample, with two arguments, a context
 * that holds the buffer, constant and row pointers, and the sample.  Its
 * output equals the generated Python kernel's (_KERNEL_TEMPLATE) bit for
 * bit, for four reasons: every expression keeps the template's operand
 * order; -ffp-contract=off rules out fused multiply-adds; CPython's
 * math.sin and math.cos call the same libm; and py_mod is CPython's
 * float %.  Amplitude and phase are left to Python, because CPython's
 * math.hypot is not libm's.
 *
 * gridfreq_format_rows writes rows of doubles as CSV text, each as
 * CPython's repr writes it: Ryu's shortest round-trip digits (Adams, "Ryu:
 * fast float-to-string conversion", PLDI 2018), laid out as
 * float.__repr__ lays out the digits of David Gay's dtoa.  Both give the
 * shortest digit string that reads back to the same double, the nearest
 * to it where several are that short.  Ryu's 64x128-bit products need
 * unsigned __int128 (gcc and clang on 64-bit targets); where the compiler
 * lacks it the build fails, and gridfreq takes its Python paths.
 *
 * gridfreq_parse_rows reads rows of decimal floats that fit a strict
 * grammar into doubles, each the nearest to its decimal, as CPython's
 * float() and numpy's loadtxt read it.  At the first byte it does not
 * accept it returns -1, and gridfreq.io hands the whole file to numpy,
 * whose grammar is the rule; deferring is always correct, so the grammar
 * is kept narrow: no quotes, blanks, inf, nan or empty lines.  Every
 * nonzero field goes through one path, Eisel-Lemire, which is exact for
 * every significand below 2^64 in the table's range.
 *
 * The formatter and the parser multiply by one table of 128-bit powers of
 * five, fast_float's, which gridfreq._native builds (see POW10_MIN_Q).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* The state buffer of one estimator, which persists between calls: these
 * slots, then a_c[n], a_s[n], the RoCoF ring (ctx->ring values, oldest
 * first from head once full) and the basis c[n], s[n], which is scratch.
 * k, head and count are integers stored as doubles; the layout is
 * gridfreq.estimator's _SLOTS. */
enum { S_A_DC, S_A_DC1, S_F, S_PHASE, S_T_ANCHOR, S_ZFILT, S_T0, S_K, S_HEAD,
       S_COUNT, S_HEADER };

/* The per-config constants: these, then ts*gamma_c[n] and ts*gamma_s[n] */
enum { C_TS, C_TG_DC, C_G_DC1, C_ALPHA, C_ETA, C_F0, C_HALF_F0, C_T_RESET,
       C_HEADER };

/* What one call advances: a state buffer under one config, writing rows
 * from rows on; over the len samples at x (a run), or over the one sample
 * the call passes when x is NULL (a step). */
struct gridfreq_ctx {
    double *state;
    const double *consts;
    double *rows;
    const double *x;
    int64_t len;
    int64_t n;
    int64_t ring;             /* capacity of the RoCoF ring, at least 1 */
    int64_t report_every;
    int64_t lowpass;          /* 0: the raw residual drives the laws */
};

/* Advance ctx->state by the laws over the samples of ctx (see above).
 *
 * Every report_every-th sample, counted by the state's k, writes one row,
 * 10 + 2n doubles, the layout of gridfreq.estimator.ROW_COLUMNS and of the
 * estimate CSV:
 *
 *     t, f, rocof, rocof_raw, a_dc, a_dc1, resid, eta, phase, t_anchor,
 *     a_c[0..n), a_s[0..n)
 *
 * Returns the number of rows written, or -1 when the divergence watchdog
 * tripped: then the state keeps the updated coefficients, a_dc, a_dc1, f
 * and zfilt, and the phase, k, anchor and ring of the sample before, and
 * the rows written before it stand.
 */
int64_t gridfreq_advance(const struct gridfreq_ctx *ctx, double sample)
{
    const double *x = ctx->x ? ctx->x : &sample;
    int64_t len = ctx->x ? ctx->len : 1;
    int64_t n = ctx->n, ring = ctx->ring, report_every = ctx->report_every;
    double *st = ctx->state, *row = ctx->rows;
    double *ac = st + S_HEADER, *as = ac + n, *buf = as + n;
    double *c = buf + ring, *s = c + n;
    const double *cs = ctx->consts, *tgc = cs + C_HEADER, *tgs = tgc + n;
    double ts = cs[C_TS], tg_dc = cs[C_TG_DC], g_dc1 = cs[C_G_DC1];
    double alpha = cs[C_ALPHA], eta = cs[C_ETA], f0 = cs[C_F0];
    double half_f0 = cs[C_HALF_F0], t_reset = cs[C_T_RESET];
    double eta_rate = (1.0 / TWO_PI) * eta;   /* INV_TWO_PI * eta */
    double a_dc = st[S_A_DC], a_dc1 = st[S_A_DC1], f = st[S_F];
    double phase = st[S_PHASE], t = st[S_T_ANCHOR], zf = st[S_ZFILT];
    double t0 = st[S_T0];
    int64_t k = (int64_t)st[S_K], head = (int64_t)st[S_HEAD];
    int64_t count = (int64_t)st[S_COUNT];
    int64_t m, i, j, rows = 0;

    for (m = 0; m < len; m++) {
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
        resid = x[m] - pred;
        if (ctx->lowpass) {
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
        if (!(fabs(f - f0) <= half_f0)) {
            rows = -1;
            break;
        }
        sum = ac[0] + as[0];
        for (i = 1; i < n; i++)
            sum = sum + ac[i] + as[i];
        if (!isfinite(sum + a_dc + a_dc1)) {
            int finite = isfinite(a_dc) && isfinite(a_dc1);
            for (i = 0; finite && i < n; i++)
                finite = isfinite(ac[i]) && isfinite(as[i]);
            if (!finite) {
                rows = -1;
                break;
            }
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

        /* left-to-right boxcar, oldest value first: until the ring is
         * full, head == count and the first loop is empty */
        acc = 0.0;
        for (j = head; j < count; j++)
            acc += buf[j];
        for (j = 0; j < head; j++)
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
        rows++;
    }
    st[S_A_DC] = a_dc;
    st[S_A_DC1] = a_dc1;
    st[S_F] = f;
    st[S_PHASE] = phase;
    st[S_T_ANCHOR] = t;
    st[S_ZFILT] = zf;
    st[S_K] = (double)k;
    st[S_HEAD] = (double)head;
    st[S_COUNT] = (double)count;
    return rows;
}


/* ------------------------------------------------------------------------
 * CSV rows of floats, byte-identical to CPython's repr
 * ------------------------------------------------------------------------ */

typedef unsigned __int128 u128;

/* The one table of powers of five, which gridfreq._native builds: for q in
 * [-342, 325], pow10[2 * (q + 342)] and [... + 1] are the low and high
 * words of the top 128 bits of 5^q, its leading bit at bit 127.  They are
 * truncated, but for -27 <= q < 0, where they are rounded up. */
#define POW10_MIN_Q (-342)
#define POW10_MAX_Q 325
#define POW5_BITCOUNT 128       /* bits of each entry */

/* ceil(log2(5^e)), and 1 for e = 0; 0 <= e <= 3528 */
static int32_t pow5bits(int32_t e)
{
    return (int32_t)((((uint32_t)e * 1217359) >> 19) + 1);
}

/* floor(log10(2^e)); 0 <= e <= 1650 */
static int32_t log10_pow2(int32_t e)
{
    return (int32_t)(((uint32_t)e * 78913) >> 18);
}

/* floor(log10(5^e)); 0 <= e <= 2620 */
static int32_t log10_pow5(int32_t e)
{
    return (int32_t)(((uint32_t)e * 732923) >> 20);
}

/* whether 5^p divides v, v > 0 */
static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* whether 2^p divides v, p < 64 */
static int multiple_of_pow2(uint64_t v, int32_t p)
{
    return (v & ((1ull << p) - 1)) == 0;
}

/* (m * mul) >> j, mul a 128-bit table entry as (low, high) words, j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 b0 = (u128)m * mul[0], b2 = (u128)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

/* Ryu's d2d: the shortest decimal digits*10^*e10 that reads back as the
 * finite, nonzero double with these mantissa and exponent bits, the
 * nearest to it among the shortest.  pow10 is the table of powers of
 * five; Ryu multiplies by 5^i truncated and by 5^-q rounded up.  One digit
 * loop serves every double: it tracks whether the dropped digits of vm
 * and vr are all zeros, which only an exact bound or an exact tie needs. */
static uint64_t shortest(uint64_t ieee_m, int32_t ieee_e,
                         const uint64_t *pow10, int32_t *e10)
{
    /* the value is m2 * 2^e2, with 2 more bits for the interval bounds */
    int32_t e2 = (ieee_e ? ieee_e : 1) - 1023 - 52 - 2;
    uint64_t m2 = ieee_e ? (1ull << 52) | ieee_m : ieee_m;
    int accept_bounds = (m2 & 1) == 0;      /* round-half-even reads them */
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = ieee_m != 0 || ieee_e <= 1;
    uint64_t vr, vp, vm, output, mul[2];
    int vm_zeros = 0, vr_zeros = 0;
    int32_t removed = 0, q, i, k;
    uint32_t last_digit = 0;

    /* the interval (mm, mp) around mv scaled by 10^-q into vm, vr, vp */
    if (e2 >= 0) {
        q = log10_pow2(e2) - (e2 > 3);
        *e10 = q;
        memcpy(mul, pow10 + 2 * (-q - POW10_MIN_Q), sizeof mul);
        if (q > 27) {
            /* the table truncates 5^-q below q = -27: round it up, with
             * the carry into the high word */
            mul[0]++;
            mul[1] += mul[0] == 0;
        }
        /* 5^0 is 2^127 in the table, not the 2^128 of pow5bits(0) = 1 */
        k = POW5_BITCOUNT + pow5bits(q) - 1 - (q == 0);
        i = -e2 + q + k;
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* only one of mp, mv and mm can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        q = log10_pow5(-e2) - (-e2 > 1);
        *e10 = q + e2;
        i = -e2 - q;
        k = pow5bits(i) - POW5_BITCOUNT;
        memcpy(mul, pow10 + 2 * (i - POW10_MIN_Q), sizeof mul);
        vr = mul_shift(4 * m2, mul, q - k);
        vp = mul_shift(4 * m2 + 2, mul, q - k);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, q - k);
        if (q <= 1) {
            /* mv = 4 * m2 has at least 2 trailing zero bits */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* drop digits while the interval still holds a shorter number; with
     * both flags clear, vr rounds up where the last dropped digit is >= 5
     * or vr reached vm */
    while (vp / 10 > vm / 10) {
        vm_zeros = vm_zeros && vm % 10 == 0;
        vr_zeros = vr_zeros && last_digit == 0;
        last_digit = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_zeros) {
        while (vm % 10 == 0) {
            vr_zeros = vr_zeros && last_digit == 0;
            last_digit = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_zeros && last_digit == 5 && vr % 2 == 0)
        last_digit = 4;                     /* an exact tie rounds to even */
    output = vr + ((vr == vm && (!accept_bounds || !vm_zeros))
                   || last_digit >= 5);
    *e10 += removed;
    return output;
}

/* the decimal digits of v > 0 at p; returns the end */
static char *put_digits(char *p, uint64_t v)
{
    char tmp[20];
    int n = 0;
    do {
        tmp[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        *p++ = tmp[--n];
    return p;
}

/* repr of x at p; returns the end */
static char *put_float(char *p, double x, const uint64_t *pow10)
{
    uint64_t bits, ieee_m, digits;
    int32_t ieee_e, e10, n, decpt, i;
    char d[20];

    memcpy(&bits, &x, sizeof bits);
    ieee_m = bits & ((1ull << 52) - 1);
    ieee_e = (int32_t)((bits >> 52) & 0x7ff);

    if (ieee_e == 0x7ff && ieee_m) {
        memcpy(p, "nan", 3);                /* repr drops a NaN's sign */
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (ieee_e == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (ieee_e == 0 && ieee_m == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    digits = shortest(ieee_m, ieee_e, pow10, &e10);
    n = (int32_t)(put_digits(d, digits) - d);
    decpt = n + e10;        /* the value is 0.d[0..n) * 10^decpt */
    if (decpt > -4 && decpt <= 16) {
        /* fixed notation, with ".0" on an integral value */
        if (decpt <= 0) {
            *p++ = '0';
            *p++ = '.';
            for (i = decpt; i < 0; i++)
                *p++ = '0';
            memcpy(p, d, n);
            return p + n;
        }
        if (decpt < n) {
            memcpy(p, d, decpt);
            p[decpt] = '.';
            memcpy(p + decpt + 1, d + decpt, n - decpt);
            return p + n + 1;
        }
        memcpy(p, d, n);
        p += n;
        for (i = n; i < decpt; i++)
            *p++ = '0';
        *p++ = '.';
        *p++ = '0';
        return p;
    }
    /* d.ddde+XX: a signed exponent of at least two digits */
    *p++ = d[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, d + 1, n - 1);
        p += n - 1;
    }
    *p++ = 'e';
    *p++ = decpt - 1 < 0 ? '-' : '+';
    i = decpt - 1 < 0 ? 1 - decpt : decpt - 1;
    if (i < 10)
        *p++ = '0';
    return put_digits(p, (uint64_t)i);
}

/* Write nrows rows of ncols doubles from cells[0..nrows*ncols), row-major,
 * as CSV text at out: each as repr writes it, fields joined by ',' and
 * each row ended by "\r\n".  out must hold nrows * (25 * ncols + 2)
 * bytes: a field takes at most 24, as in -2.2250738585072014e-308.
 * Returns the number of bytes written. */
int64_t gridfreq_format_rows(const double *cells, int64_t nrows,
                             int64_t ncols, const uint64_t *pow10, char *out)
{
    char *p = out;
    int64_t r, c;

    for (r = 0; r < nrows; r++) {
        for (c = 0; c < ncols; c++) {
            if (c)
                *p++ = ',';
            p = put_float(p, *cells++, pow10);
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    return p - out;
}

/* ------------------------------------------------------------------------
 * CSV rows of decimal floats, parsed as correctly rounded doubles
 * ------------------------------------------------------------------------ */

/* The bits of the double nearest to w * 10^q, w > 0 and q in the table's
 * range, or those of infinity (exponent 0x7ff) where it overflows.  This
 * is fast_float's binary64 path (Lemire, "Number Parsing at a Gigabyte per
 * Second", SPE 2021), whose table this is: w < 2^64, so the 128-bit
 * product is always close enough to round correctly (Mushtak and Lemire,
 * "Fast number parsing without fallback", SPE 2023). */
static uint64_t eisel_lemire(uint64_t w, int64_t q, const uint64_t *pow10)
{
    const uint64_t *p5 = pow10 + 2 * (q - POW10_MIN_Q);
    int lz = __builtin_clzll(w);
    u128 first, second;
    uint64_t high, low, mantissa;
    int upper, shift;
    int64_t power2;

    w <<= lz;
    first = (u128)w * p5[1];
    high = (uint64_t)(first >> 64);
    low = (uint64_t)first;
    if ((high & 0x1ff) == 0x1ff) {
        /* 55 bits are needed; the low word of 5^q can carry into them */
        second = (u128)w * p5[0];
        low += (uint64_t)(second >> 64);
        if ((uint64_t)(second >> 64) > low)
            high++;
    }
    upper = (int)(high >> 63);
    shift = upper + 64 - 52 - 3;
    mantissa = high >> shift;
    /* floor(log2(10^q)) + 63, less the zeros shifted in, plus the bias */
    power2 = (((152170 + 65536) * q) >> 16) + 63 + upper - lz + 1023;
    if (power2 <= 0) {
        /* subnormal, or zero once 64 bits and more fall below the least */
        if (-power2 + 1 >= 64)
            return 0;
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        /* rounding up to 2^52 gives the least normal's bits */
        return mantissa;
    }
    /* an exact tie rounds to even; it needs 5^q in one word */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1
        && (mantissa << shift) == high)
        mantissa &= ~1ull;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= (2ull << 52)) {
        mantissa = 1ull << 52;
        power2++;
    }
    if (power2 >= 0x7ff)
        return 0x7ffull << 52;
    return (mantissa & ~(1ull << 52)) | ((uint64_t)power2 << 52);
}

/* Parse one field, [+-]?digits[.digits][(e|E)[+-]digits], at p into *out:
 * zero where its significand w is 0, else the bits eisel_lemire gives,
 * small exact values included.  Returns its end, or NULL where the field
 * leaves that grammar, has more than 19 significant digits, or its value
 * is not a finite double whose exponent lies in the table: the caller
 * defers those to numpy. */
static const char *parse_field(const char *p, const char *end,
                               const uint64_t *pow10, double *out)
{
    uint64_t w = 0, bits;
    int64_t q = 0, e = 0, digits;
    int neg = 0, eneg = 0;
    const char *start, *s;

    if (p < end && (*p == '-' || *p == '+'))
        neg = *p++ == '-';
    start = p;
    while (p < end && (unsigned char)(*p - '0') < 10)
        w = 10 * w + (uint64_t)(*p++ - '0');
    if (p == start)
        return NULL;
    digits = p - start;
    if (p < end && *p == '.') {
        const char *frac = ++p;
        while (p < end && (unsigned char)(*p - '0') < 10)
            w = 10 * w + (uint64_t)(*p++ - '0');
        if (p == frac)
            return NULL;
        q = -(int64_t)(p - frac);
        digits += p - frac;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        const char *exp;
        if (++p < end && (*p == '-' || *p == '+'))
            eneg = *p++ == '-';
        exp = p;
        while (p < end && (unsigned char)(*p - '0') < 10) {
            if (e < 0x10000)
                e = 10 * e + (*p - '0');
            p++;
        }
        if (p == exp)
            return NULL;
        q += eneg ? -e : e;
    }
    if (digits > 19) {
        /* leading zeros add nothing to w */
        for (s = start; s < p && (*s == '0' || *s == '.'); s++)
            digits -= *s == '0';
        if (digits > 19)
            return NULL;
    }
    if (w == 0) {
        bits = 0;
    } else if (q < POW10_MIN_Q || q > POW10_MAX_Q) {
        return NULL;
    } else {
        bits = eisel_lemire(w, q, pow10);
        if (bits >> 52 == 0x7ff)
            return NULL;
    }
    bits |= (uint64_t)neg << 63;
    memcpy(out, &bits, 8);
    return p;
}

/* Parse the CSV rows of text[start..len) into out, ncols doubles a row,
 * each correctly rounded, as CPython's float() and numpy read them.
 * Fields are separated by ',' and rows end in "\r\n" or "\n"; the last may
 * have no end.  out holds max_rows rows; pow10 is the table gridfreq._native
 * builds for eisel_lemire.  Returns the number of rows, or -1 ("defer") at
 * the first byte outside that grammar, a field parse_field rejects, a row
 * of another width, or a row past max_rows. */
int64_t gridfreq_parse_rows(const char *text, int64_t start, int64_t len,
                            int64_t ncols, int64_t max_rows,
                            const uint64_t *pow10, double *out)
{
    const char *p = text + start, *end = text + len;
    int64_t rows = 0, c;

    while (p < end) {
        if (rows == max_rows)
            return -1;
        for (c = 0; c < ncols; c++) {
            if (c && (p == end || *p++ != ','))
                return -1;
            p = parse_field(p, end, pow10, out++);
            if (!p)
                return -1;
        }
        if (p < end) {
            p += *p == '\r';
            if (p == end || *p++ != '\n')
                return -1;
        }
        rows++;
    }
    return rows;
}
