/* The package's C library, the CPython extension module gridfreq._kernel:
 * the estimator's loop (gridfreq_advance), the CSV float formatter of
 * gridfreq.io (gridfreq_format_rows) and its CSV row parser
 * (gridfreq_parse_rows).
 *
 * gridfreq._native builds this file on first use with
 *
 *     cc -O2 -ffp-contract=off -fPIC -shared -I<the Python headers> -lm
 *
 * and loads it with importlib.  Python calls the three functions through
 * the module's context, format_rows and parse_rows, and reads amplitude
 * and phase through its polar (see the end of the file); all take their
 * arrays through the buffer protocol.
 *
 * gridfreq_advance runs the laws of the gridfreq.estimator module
 * docstring on a state buffer that persists between calls, over any number
 * of samples: estimator.run calls it once over a whole stream from a fresh
 * state, and estimator.step once per sample, through a context that holds
 * views of the state, constant and row buffers, which give its sizes.  Its
 * output equals the plain Python loop reference_loop of tests/reference.py
 * bit for bit, for four reasons: every expression keeps the laws' operand
 * order; -ffp-contract=off rules out fused multiply-adds; CPython's
 * math.sin and math.cos call the same libm; and py_mod is CPython's
 * float %.
 *
 * A step's context builds the report's EstimateRecord itself (make_record),
 * and the module's polar applies the same amplitude and phase rule
 * (amp_phase) to stored rows.  The rule is libm's hypot and atan2,
 * so its bits, like the loop's, depend on libm only; its amplitudes are
 * within 1 ulp of CPython's math.hypot, whose algorithm is its own and
 * differs between CPython versions.
 *
 * gridfreq_format_rows writes rows of doubles as CSV text, each as
 * CPython's repr writes it: Schubfach's shortest round-trip digits
 * (Giulietti, "The Schubfach way to render doubles", 2020), laid out as
 * float.__repr__ lays out the digits of David Gay's dtoa.  Both give the
 * shortest digit string that reads back to the same double, the nearest
 * to it where several are that short, the even one of a tie.  The
 * 128-bit products of Schubfach and of the parser need unsigned __int128
 * (gcc and clang on 64-bit targets); where the compiler lacks it the
 * build fails, and gridfreq._native.library raises.
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

#define PY_SSIZE_T_CLEAN
#include <Python.h>                     /* before the standard headers */

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
static int64_t gridfreq_advance(const struct gridfreq_ctx *ctx, double sample)
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
        if (alpha != 0.0) {                 /* 0.0: no low-pass */
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
 * [-342, 324], pow10[2 * (q + 342)] and [... + 1] are the low and high
 * words of the top 128 bits of 5^q, its leading bit at bit 127.  They are
 * truncated, but for -27 <= q < 0, where they are rounded up.  The parser
 * reads 5^q at a field's decimal exponent q, and the formatter 5^-k for
 * -k in [-292, 324]. */
#define POW10_MIN_Q (-342)
#define POW10_MAX_Q 324

/* g * cp / 2^127 rounded to odd: the floor, its low bit set where the
 * fraction is not zero.  The low 64 bits of the product are dropped:
 * they hold the excess of g over 10^-k, times cp < 2^60, so that an exact
 * quotient stays exact. */
static uint64_t rop(u128 g, uint64_t cp)
{
    u128 high = (u128)(uint64_t)(g >> 64) * cp
                + ((u128)(uint64_t)g * cp >> 64);
    return (uint64_t)(high >> 63) | ((uint64_t)(high << 1) != 0);
}

/* Schubfach, as in Java 19's Double.toString: the shortest digits*10^*e10
 * that read back as the finite, nonzero double c * 2^q, the nearest of
 * them, the even one of a tie; they may end in zeros.  10^k is the
 * largest power of ten not above the width of the interval that rounds to
 * the double, so it holds s or s + 1, s = floor(c * 2^q / 10^k), and at
 * most one multiple of 10; its bounds belong to it where c is even.  vb,
 * vbl and vbr are the double and the bounds in units of 10^k / 4, rounded
 * to odd, which keeps the comparisons exact; g, 10^-k in 126 bits, is the
 * table's 5^-k rounded down, plus 1.  Java writes two digits at least;
 * here no subnormal is scaled by 10, and one digit fewer is tried from
 * s >= 10, not 100, so 5e-324 and 5e-323 come out as repr writes them. */
static uint64_t shortest(uint64_t c, int32_t q, const uint64_t *pow10,
                         int32_t *e10)
{
    const uint64_t *p5;
    uint64_t out = c & 1, cb = c << 2, cbl = cb - 2, vb, vbl, vbr, s, t;
    int64_t k, h, cmp;
    int uin, win;
    u128 g;

    *e10 = 0;
    if (q < 0 && q > -53 && (c & ((1ull << -q) - 1)) == 0)
        return c >> -q;                 /* an integer below 2^53 */
    if (c == 1ull << 52 && q > -1074) {
        /* the double below is half as far: k = floor(log10(3/4 * 2^q)) */
        cbl = cb - 1;
        k = ((int64_t)q * 661971961083 - 274743187321) >> 41;
    } else {
        k = ((int64_t)q * 661971961083) >> 41;     /* floor(log10(2^q)) */
    }
    /* q plus floor(log2(10^-k)), as in eisel_lemire, plus 2: 1 to 4 */
    h = q + (((152170 + 65536) * -k) >> 16) + 2;
    p5 = pow10 + 2 * (-k - POW10_MIN_Q);
    g = ((((u128)p5[1] << 64 | p5[0]) - (k > 0 && k <= 27)) >> 2) + 1;
    vb = rop(g, cb << h);
    vbl = rop(g, cbl << h);
    vbr = rop(g, (cb + 2) << h);
    *e10 = (int32_t)k;
    s = vb >> 2;
    if (s >= 10) {
        /* one digit fewer: the multiple of 10 below s or the one above */
        uint64_t sp = s / 10 * 10;
        uin = vbl + out <= sp << 2;
        win = ((sp + 10) << 2) + out <= vbr;
        if (uin != win)
            return uin ? sp : sp + 10;
    }
    t = s + 1;
    uin = vbl + out <= s << 2;
    win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    cmp = (int64_t)vb - (int64_t)((s + t) << 1);     /* both: the nearer */
    return cmp < 0 || (cmp == 0 && s % 2 == 0) ? s : t;
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
    digits = shortest(ieee_e ? 1ull << 52 | ieee_m : ieee_m,
                      (ieee_e ? ieee_e : 1) - 1075, pow10, &e10);
    while (digits % 10 == 0) {
        digits /= 10;
        e10++;
    }
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
static int64_t gridfreq_format_rows(const double *cells, int64_t nrows,
                                    int64_t ncols, const uint64_t *pow10,
                                    char *out)
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
static int64_t gridfreq_parse_rows(const char *text, int64_t start,
                                   int64_t len, int64_t ncols,
                                   int64_t max_rows, const uint64_t *pow10,
                                   double *out)
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


/* ------------------------------------------------------------------------
 * The module gridfreq._kernel: the C functions as Python sees them
 * ------------------------------------------------------------------------ */

/* Get a view of obj's memory in C order whose items are itemsize bytes,
 * of the struct format given unless it is NULL, and writable where flags
 * hold PyBUF_WRITABLE.  The exporter refuses a strided buffer and these
 * checks a mistyped one, so no function reads memory in another layout.
 * On a failure view->obj is NULL, and PyBuffer_Release a no-op. */
static int get_view(PyObject *obj, Py_buffer *view, int flags,
                    Py_ssize_t itemsize, const char *format, const char *name)
{
    const char *got;

    if (PyObject_GetBuffer(obj, view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    got = view->format ? view->format : "B";
    if (view->itemsize == itemsize && (!format || !strcmp(got, format)))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s: expected %zd-byte items%s%s%s, got "
                 "format '%s'", name, itemsize, format ? " of format '" : "",
                 format ? format : "", format ? "'" : "", got);
    PyBuffer_Release(view);
    return -1;
}

/* The amplitude and full-quadrant phase of the (sin, cos) coefficient pair
 * (a_s, a_c): libm's hypot and atan2, and (0.0, 0.0) for a zero pair of
 * either sign.  The one home of this rule. */
static void amp_phase(double a_s, double a_c, double *amp, double *phase)
{
    *amp = hypot(a_s, a_c);
    *phase = *amp == 0.0 ? 0.0 : atan2(a_s, a_c);
}

/* record(t, f, rocof, rocof_raw, amps, phases, a_dc, a_dc1, resid, eta,
 * phase, t_anchor), the fields of gridfreq.estimator.EstimateRecord in
 * order, for one row of 10 + 2n doubles: amps and phases are the lists of
 * amp_phase over the pairs (a_s[i], a_c[i]), the other fields the row's
 * first 10 columns. */
static PyObject *make_record(PyObject *record, const double *row,
                             Py_ssize_t n)
{
    /* the argument each of the first 10 columns is */
    static const int arg[10] = {0, 1, 2, 3, 6, 7, 8, 9, 10, 11};
    PyObject *args[12] = {NULL}, *result = NULL;
    Py_ssize_t i;

    if (!(args[4] = PyList_New(n)) || !(args[5] = PyList_New(n)))
        goto done;
    for (i = 0; i < 10; i++)
        if (!(args[arg[i]] = PyFloat_FromDouble(row[i])))
            goto done;
    for (i = 0; i < n; i++) {
        double amp, phase;
        PyObject *item;

        amp_phase(row[10 + n + i], row[10 + i], &amp, &phase);
        if (!(item = PyFloat_FromDouble(amp)))
            goto done;
        PyList_SET_ITEM(args[4], i, item);
        if (!(item = PyFloat_FromDouble(phase)))
            goto done;
        PyList_SET_ITEM(args[5], i, item);
    }
    result = PyObject_Vectorcall(record, args, 12, NULL);
done:
    for (i = 0; i < 12; i++)
        Py_XDECREF(args[i]);
    return result;
}

/* One state bound to one config: the struct of gridfreq_advance, the
 * views of its buffers, which keep them alive and unresized until the
 * context is freed, and a step's record class.  A context is only ever
 * seen by Python as the self of its advance function (see
 * kernel_context). */
typedef struct {
    PyObject_HEAD
    struct gridfreq_ctx ctx;
    Py_buffer views[4];                 /* state, consts, rows, samples */
    PyObject *record;                   /* NULL for a run */
} Context;

static void context_dealloc(PyObject *self)
{
    int i;

    for (i = 0; i < 4; i++)
        PyBuffer_Release(&((Context *)self)->views[i]);
    Py_XDECREF(((Context *)self)->record);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject ContextType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "gridfreq._kernel.Context",
    .tp_basicsize = sizeof(Context),
    .tp_dealloc = context_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = PyDoc_STR("The buffers and sizes one advance works on."),
};

/* advance(sample): gridfreq_advance on the context, the sample converted
 * as float() converts it.  Where it cannot be, raise TypeError naming its
 * type before the loop runs, so the state is untouched.  A run's context
 * ignores the sample, releases the GIL over the stream and returns the
 * rows written, or -1 at a divergence.  A step's returns the record of its
 * report (make_record), None on other samples, or False at a divergence;
 * where the record cannot be built, the sample has still advanced the
 * state. */
static PyObject *context_advance(PyObject *self, PyObject *sample)
{
    const struct gridfreq_ctx *ctx = &((Context *)self)->ctx;
    double x = PyFloat_AsDouble(sample);
    int64_t rows;

    if (x == -1.0 && PyErr_Occurred()) {
        PyObject *name;

        PyErr_Clear();
        name = PyObject_GetAttrString((PyObject *)Py_TYPE(sample), "__name__");
        if (name) {
            PyErr_Format(PyExc_TypeError,
                         "sample must be a real number, got %S", name);
            Py_DECREF(name);
        }
        return NULL;
    }
    if (ctx->x) {
        Py_BEGIN_ALLOW_THREADS
        rows = gridfreq_advance(ctx, x);
        Py_END_ALLOW_THREADS
        return PyLong_FromLongLong(rows);
    }
    rows = gridfreq_advance(ctx, x);
    if (rows > 0)
        return make_record(((Context *)self)->record, ctx->rows, ctx->n);
    return Py_NewRef(rows < 0 ? Py_False : Py_None);
}

static PyMethodDef advance_def = {
    "advance", context_advance, METH_O,
    PyDoc_STR("advance(sample)\n--\n\n"
              "Advance the state.  A run returns the number of rows "
              "written, or -1 at a divergence; a step returns the record "
              "of its report, None on other samples, or False at a "
              "divergence."),
};

static PyObject *kernel_context(PyObject *module, PyObject *args)
{
    static const char *const names[4] = {"state", "consts", "rows",
                                         "samples"};
    static const int flags[4] = {PyBUF_WRITABLE, 0, PyBUF_WRITABLE, 0};
    PyObject *objs[4], *record, *advance = NULL;
    Py_ssize_t n, ring, report_every, len = 0, reports = 1;
    int i;
    Context *self;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOOOnO:context", &objs[0], &objs[1],
                          &objs[2], &objs[3], &report_every, &record))
        return NULL;
    if (report_every < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "context: report_every must be >= 1");
        return NULL;
    }
    if (objs[3] == Py_None ? !PyCallable_Check(record) : record != Py_None) {
        PyErr_SetString(PyExc_TypeError, "context: a step takes a callable "
                        "record, a run None");
        return NULL;
    }
    self = (Context *)ContextType.tp_alloc(&ContextType, 0);
    if (!self)
        return NULL;
    if (record != Py_None)
        self->record = Py_NewRef(record);
    for (i = 0; i < 4; i++) {
        if (i == 3 && objs[i] == Py_None)
            break;
        if (get_view(objs[i], &self->views[i], flags[i], 8, "d",
                     names[i]) < 0)
            goto done;
    }
    if (self->views[3].obj) {
        len = self->views[3].len / 8;
        reports = len / report_every;
    }
    /* n below the constants' length bounds every product */
    n = (self->views[1].len / 8 - C_HEADER) / 2;
    ring = self->views[0].len / 8 - S_HEADER - 4 * n;
    if (n < 1 || self->views[1].len / 8 != C_HEADER + 2 * n || ring < 1
        || self->views[2].len / 8 / (10 + 2 * n) < reports) {
        PyErr_SetString(PyExc_ValueError, "context: the constants must hold "
                        "n >= 1 gain pairs, the state a ring and rows the "
                        "rows of the samples");
        goto done;
    }
    self->ctx = (struct gridfreq_ctx){
        self->views[0].buf, self->views[1].buf, self->views[2].buf,
        self->views[3].buf, len, n, ring, report_every};
    advance = PyCFunction_New(&advance_def, (PyObject *)self);
done:
    Py_DECREF(self);
    return advance;
}

static PyObject *kernel_polar(PyObject *module, PyObject *args)
{
    PyObject *rows_obj, *out_obj, *result = NULL;
    Py_buffer rows = {0}, out = {0};
    Py_ssize_t n, r, i;

    (void)module;
    if (!PyArg_ParseTuple(args, "OO:polar", &rows_obj, &out_obj)
        || get_view(rows_obj, &rows, 0, 8, "d", "rows") < 0
        || get_view(out_obj, &out, PyBUF_WRITABLE, 8, "d", "out") < 0)
        goto done;
    /* report rows of 10 + 2n columns (see gridfreq_advance) */
    if (rows.ndim != 2 || rows.shape[1] < 10 || rows.shape[1] % 2
        || out.len / 8 < rows.shape[0] * (rows.shape[1] - 10)) {
        PyErr_SetString(PyExc_ValueError, "polar: rows must be a matrix of "
                        "10 + 2n columns and out hold 2n values a row");
        goto done;
    }
    n = (rows.shape[1] - 10) / 2;
    for (r = 0; r < rows.shape[0]; r++) {
        const double *row = (const double *)rows.buf + r * (10 + 2 * n);
        double *o = (double *)out.buf + r * 2 * n;

        for (i = 0; i < n; i++)
            amp_phase(row[10 + n + i], row[10 + i], &o[2 * i], &o[2 * i + 1]);
    }
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&rows);
    PyBuffer_Release(&out);
    return result;
}

/* The size of the pow10 table, in 64-bit words */
#define POW10_WORDS (2 * (POW10_MAX_Q - POW10_MIN_Q + 1))

static PyObject *kernel_format_rows(PyObject *module, PyObject *args)
{
    PyObject *cells_obj, *pow10_obj, *out_obj, *result = NULL;
    Py_buffer v[3];                     /* cells, pow10, out */
    int64_t size;
    int i;

    (void)module;
    if (!PyArg_ParseTuple(args, "OOO:format_rows", &cells_obj, &pow10_obj,
                          &out_obj))
        return NULL;
    memset(v, 0, sizeof v);
    if (get_view(cells_obj, &v[0], 0, 8, "d", "cells") < 0
        || get_view(pow10_obj, &v[1], 0, 8, NULL, "pow10") < 0
        || get_view(out_obj, &v[2], PyBUF_WRITABLE, 1, NULL, "out") < 0)
        goto done;
    if (v[0].ndim != 2 || v[1].len / 8 != POW10_WORDS
        || v[2].len < v[0].len / 8 * 25 + 2 * v[0].shape[0]) {
        PyErr_SetString(PyExc_ValueError, "format_rows: cells must be a "
                        "matrix, pow10 the table and out hold its text");
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    size = gridfreq_format_rows(v[0].buf, v[0].shape[0], v[0].shape[1],
                                v[1].buf, v[2].buf);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(size);
done:
    for (i = 0; i < 3; i++)
        PyBuffer_Release(&v[i]);
    return result;
}

static PyObject *kernel_parse_rows(PyObject *module, PyObject *args)
{
    PyObject *text_obj, *pow10_obj, *out_obj, *result = NULL;
    Py_buffer v[3];                     /* text, pow10, out */
    Py_ssize_t start, ncols;
    int64_t rows;
    int i;

    (void)module;
    if (!PyArg_ParseTuple(args, "OnnOO:parse_rows", &text_obj, &start, &ncols,
                          &pow10_obj, &out_obj))
        return NULL;
    memset(v, 0, sizeof v);
    if (get_view(text_obj, &v[0], 0, 1, NULL, "text") < 0
        || get_view(pow10_obj, &v[1], 0, 8, NULL, "pow10") < 0
        || get_view(out_obj, &v[2], PyBUF_WRITABLE, 8, "d", "out") < 0)
        goto done;
    if (start < 0 || start > v[0].len || ncols < 1
        || v[1].len / 8 != POW10_WORDS) {
        PyErr_SetString(PyExc_ValueError, "parse_rows: start must lie in "
                        "the text, ncols be >= 1 and pow10 the table");
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    rows = gridfreq_parse_rows(v[0].buf, start, v[0].len, ncols,
                               v[2].len / 8 / ncols, v[1].buf, v[2].buf);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(rows);
done:
    for (i = 0; i < 3; i++)
        PyBuffer_Release(&v[i]);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"context", kernel_context, METH_VARARGS,
     PyDoc_STR("context(state, consts, rows, samples, report_every, "
               "record)\n--\n\n"
               "The advance function of a state under one config's "
               "constants, writing its rows to rows: over the samples on "
               "each call (a run, record None), or over the sample it is "
               "called with where samples is None (a step, which returns "
               "its report as record(...)).  n and the ring's size are read "
               "from the consts and state.  The state and rows must be "
               "writable; every buffer must hold float64 in C order.")},
    {"format_rows", kernel_format_rows, METH_VARARGS,
     PyDoc_STR("format_rows(cells, pow10, out)\n--\n\n"
               "Write the rows of the float64 matrix cells to out as CSV "
               "text, each value as repr writes it; return its size.")},
    {"parse_rows", kernel_parse_rows, METH_VARARGS,
     PyDoc_STR("parse_rows(text, start, ncols, pow10, out)\n--\n\n"
               "Parse the CSV rows of text[start:] into the float64 "
               "buffer out, ncols values a row; return the number of rows, "
               "or -1 where the C parser defers.")},
    {"polar", kernel_polar, METH_VARARGS,
     PyDoc_STR("polar(rows, out)\n--\n\n"
               "Write amp_1, phase_1, ..., amp_n, phase_n of each report "
               "row of the float64 matrix rows to the float64 buffer out.")},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "gridfreq._kernel",
    .m_doc = PyDoc_STR("The package's C library; see gridfreq._native."),
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    if (PyType_Ready(&ContextType) < 0)
        return NULL;
    return PyModule_Create(&kernel_module);
}
