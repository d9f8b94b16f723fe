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
 * arrays through the buffer protocol, and parse_rows its text as bytes.
 * format_rows and parse_rows return bytes they size themselves: the text,
 * in a buffer of the formatter's worst case shrunk to it, and the rows,
 * in a buffer the parser grows as it reads.
 *
 * gridfreq_advance runs the laws of the gridfreq.estimator module
 * docstring on a state buffer that persists between calls, over any number
 * of samples: estimator.run calls it once over a whole stream from a fresh
 * state, and estimator.step once per sample, through a context that holds
 * views of the state, constant and row buffers, which give its sizes.  Per
 * sample it makes two passes over the harmonics, basis with prediction and
 * coefficient update with gradient.  Its output equals the plain Python
 * loop reference_loop of tests/reference.py bit for bit, for four reasons:
 * every expression keeps the laws' operand order, and each sum its index
 * order; -ffp-contract=off rules out fused multiply-adds; CPython's
 * math.sin and math.cos call the same libm; and py_mod is CPython's
 * float %.
 *
 * A step's context fills the report's EstimateRecord itself, slot by slot
 * and without running the class's __init__ (make_record), and the module's
 * polar applies the same amplitude and phase rule (amp_phase) to stored
 * rows.  The rule is libm's hypot and atan2, so its bits, like the loop's,
 * depend on libm only; its amplitudes are within 1 ulp of CPython's
 * math.hypot, whose algorithm is its own and differs between CPython
 * versions.
 *
 * gridfreq_format_rows writes rows of doubles as CSV text, each as
 * CPython's repr writes it: Schubfach's shortest round-trip digits
 * (Giulietti, "The Schubfach way to render doubles", 2020), laid out as
 * float.__repr__ lays out the digits of David Gay's dtoa.  Both give the
 * shortest digit string that reads back to the same double, the nearest
 * to it where several are that short, the even one of a tie.  The digits
 * are emitted eight at a time by SWAR arithmetic on 64-bit words, and
 * laid out by fixed-width copies that may write scratch past a field's
 * end, but never past the room format_rows allocates for the row.  The
 * 128-bit products of Schubfach and of the parser need unsigned __int128
 * (gcc and clang on 64-bit targets); where the compiler lacks it the
 * build fails, and gridfreq._native.library raises.
 *
 * gridfreq_parse_rows is the package's only CSV row parser.  Its grammar
 * (parse_value, parse_field) is the one README "File formats" states:
 * decimal fields with blanks and one pair of quotes around them, empty
 * lines and CRLF, LF or CR line ends.  It reads each value to the double
 * nearest to its decimal, as CPython's float() and numpy's text reader
 * read it: a significand of up to 19 digits through Eisel-Lemire, which
 * is exact for every significand below 2^64 in the table's range, and a
 * longer one through PyOS_string_to_double, the call numpy makes.  At
 * the first line at fault it stops and reports the line, the field and
 * the cause, which gridfreq.io turns into the message.
 *
 * The formatter and the parser multiply by one table of 128-bit powers of
 * five, fast_float's, which gridfreq._native builds (see POW10_MIN_Q).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>                     /* before the standard headers */

#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef Py_T_OBJECT_EX                  /* Python.h defines both from 3.12 */
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#define Py_READONLY READONLY
#endif

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
 *
 * It starts on a 64-byte line, so its loop sits the same way however much
 * code comes before it: at the 16 bytes gcc aligns a function to, the same
 * machine code ran about 1.3 % slower in one placement than in another on
 * an x86-64 Xeon.
 */
static __attribute__((aligned(64))) int64_t
gridfreq_advance(const struct gridfreq_ctx *ctx, double sample)
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
        /* Two fused passes over the harmonics: the basis and the prediction,
         * then the coefficient updates and the gradient.  Locals carry the
         * recurrence and the updated pairs, so the per-sample chain stays in
         * registers instead of going through a store and a reload of c, s,
         * a_c and a_s at every step.  The bits equal those of one loop per
         * quantity: every value takes the same operations in the same order,
         * and no update reads another index. */
        double c0 = cos(phase), s0 = sin(phase), ci = c0, si = s0;
        double pred = a_dc - a_dc1 * t, resid, z, g, rocof_raw, acc;
        c[0] = c0;
        s[0] = s0;
        pred = pred + (ac[0] * s0 + as[0] * c0);
        for (i = 1; i < n; i++) {
            double cp = ci;
            ci = cp * c0 - si * s0;
            si = si * c0 + cp * s0;
            c[i] = ci;
            s[i] = si;
            pred = pred + (ac[i] * si + as[i] * ci);
        }
        resid = x[m] - pred;
        if (alpha != 0.0) {                 /* 0.0: no low-pass */
            zf += alpha * (resid - zf);
            z = zf;
        } else {
            z = resid;
        }

        /* coefficient updates and, from the updated pairs, the frequency
         * gradient; then the descent update of the frequency */
        g = 0.0;
        for (i = 0; i < n; i++) {
            double cb = c[i], sb = s[i];
            double aci = ac[i] + tgc[i] * z * sb;
            double asi = as[i] + tgs[i] * z * cb;
            ac[i] = aci;
            as[i] = asi;
            g = g + (double)(i + 1) * t * (aci * cb - asi * sb);
        }
        a_dc = a_dc + tg_dc * z;
        a_dc1 = a_dc1 - t * ts * g_dc1 * z;
        rocof_raw = eta_rate * z * g;
        f = f + ts * rocof_raw;

        /* divergence watchdog: f in its band needs z and g finite, so every
         * term of g finite, and an infinite or nan a_c[i] or a_s[i] makes
         * its term nan or infinite (inf*0, inf-inf, inf*x).  a_dc and a_dc1
         * reach f only from the next sample on, so they are tested here. */
        if (!(fabs(f - f0) <= half_f0 && isfinite(a_dc) && isfinite(a_dc1))) {
            rows = -1;
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

/* the decimal digits of v > 0 at p, an exponent's; returns the end */
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

/* The eight decimal digits of v < 10^8, leading zeros included, as the
 * bytes of a word, the first digit in the lowest byte, each 0 to 9: one
 * split into two 4-digit lanes of 32 bits, then each lane into two 2-digit
 * lanes of 16 by a multiply-shift quotient by 100, then each of those into
 * two bytes by one by 10.  The quotients are exact on their lanes' ranges,
 * and no lane's product reaches the next lane's bits. */
static uint64_t digits8(uint32_t v)
{
    uint64_t x = v / 10000 | (uint64_t)(v % 10000) << 32;
    uint64_t q = (x * 10486 >> 20) & 0x0000007f0000007full;     /* / 100 */

    x = (x - 100 * q) << 16 | q;
    q = (x * 103 >> 10) & 0x000f000f000f000full;                /* / 10 */
    return (x - 10 * q) << 8 | q;
}

/* repr of x at p; returns the end.  Its fixed-width copies write at most
 * 26 bytes from p (a sign, then 16 digits, the point and 8, or 8 digits,
 * the point and 16); what lies past the end is scratch. */
static char *put_float(char *p, double x, const uint64_t *pow10)
{
    uint64_t bits, ieee_m, digits, top, w[3];
    int32_t ieee_e, e10, lead, trail, n, decpt, i;
    char d[40];
    const char *s;

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

    /* digits < 10^17 as 24 digits, zero-padded on the left, in three
     * words of eight, then 16 '0's, which the copies below read past the
     * last digit; the value is 0.s[0..n) * 10^decpt */
    top = digits / 100000000;
    w[0] = digits8((uint32_t)(top / 100000000));
    w[1] = digits8((uint32_t)(top % 100000000));
    w[2] = digits8((uint32_t)(digits % 100000000));
    for (i = 0; i < 3; i++) {
        uint64_t ascii = w[i] | 0x3030303030303030ull;
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        ascii = __builtin_bswap64(ascii);       /* the first digit first */
#endif
        memcpy(d + 8 * i, &ascii, 8);
    }
    memset(d + 24, '0', 16);
    /* zero digits are zero bytes: the leading ones the low bytes of the
     * first nonzero word, the trailing ones the high bytes of the last */
    i = w[0] ? 0 : w[1] ? 1 : 2;
    lead = 8 * i + __builtin_ctzll(w[i]) / 8;
    i = w[2] ? 2 : w[1] ? 1 : 0;
    trail = 8 * (2 - i) + __builtin_clzll(w[i]) / 8;
    s = d + lead;
    n = 24 - lead - trail;
    decpt = 24 - lead + e10;

    if (decpt > -4 && decpt <= 16) {
        /* fixed notation, with ".0" on an integral value */
        if (decpt <= 0) {                       /* 0.000ddd: n <= 17 */
            memcpy(p, "0.000000", 8);
            memcpy(p + 2 - decpt, s, 17);
            return p + 2 - decpt + n;
        }
        if (decpt < n) {                        /* dd.ddd: n <= 17 */
            memcpy(p, s, 16);
            p[decpt] = '.';
            if (decpt > 8)                      /* at most 8 after it */
                memcpy(p + decpt + 1, s + decpt, 8);
            else
                memcpy(p + decpt + 1, s + decpt, 16);
            return p + n + 1;
        }
        memcpy(p, s, 16);                       /* ddd000.0 */
        memcpy(p + decpt, ".0", 2);
        return p + decpt + 2;
    }
    /* d.ddde+XX: a signed exponent of at least two digits */
    p[0] = s[0];
    p[1] = '.';
    memcpy(p + 2, s + 1, 16);
    p += n > 1 ? n + 1 : 1;
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
 * bytes, the room the module's format_rows allocates: a field takes at
 * most 24, as in -2.2250738585072014e-308, so a row at most 25 * ncols + 1,
 * and every field starts at least 27 bytes before the end of out.
 * put_float writes at most 26 from a field's start; the next field or row
 * end overwrites what it writes past its text.  Returns the number of
 * bytes of text. */

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

/* The causes of a fault in CSV rows that gridfreq_parse_rows reports */
enum { CSV_MALFORMED = 1, CSV_FIELDS, CSV_NOT_FINITE, CSV_QUOTE };

/* Whether c ends a field: a comma or a line end */
#define ENDS_FIELD(c) ((c) == ',' || (c) == '\n' || (c) == '\r')

/* The parser's loop over the fields gridfreq writes inlines the common
 * path and calls the rare ones: with every form handled in line, it read a
 * 120,000-row samples file about 12 % slower on an x86-64 Xeon */
#define INLINE inline __attribute__((always_inline))
#define RARE __attribute__((noinline, cold))

static const char *skip_blanks(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        p++;
    return p;
}

/* Whether the text at p spells the lowercase word w, in any case */
static int spells(const char *p, const char *end, const char *w)
{
    for (; *w; p++, w++)
        if (p == end || (*p | 0x20) != *w)
            return 0;
    return 1;
}

/* Parse inf, infinity or nan, in any case, at p into *out, negative where
 * neg is set; returns its end, or NULL where p spells none of them. */
static RARE const char *parse_word(const char *p, const char *end, int neg,
                                   double *out, int *cause)
{
    uint64_t bits;

    if (spells(p, end, "nan"))
        bits = 0x7ff8ull << 48, p += 3;
    else if (spells(p, end, "infinity"))
        bits = 0x7ffull << 52, p += 8;
    else if (spells(p, end, "inf"))
        bits = 0x7ffull << 52, p += 3;
    else
        return NULL;
    *cause = CSV_NOT_FINITE;
    bits |= (uint64_t)neg << 63;
    memcpy(out, &bits, 8);
    return p;
}

/* Parse the decimal text[first..p) of more than 19 significant digits into
 * *out as PyOS_string_to_double reads it, the call numpy's text reader
 * makes; the text must end in a NUL byte.  Its grammar is parse_value's,
 * so its parse ends at p; where it does not, a MemoryError is set and the
 * result is NULL. */
static RARE const char *parse_long(const char *first, const char *p,
                                   double *out, int *cause)
{
    char *stop;

    *out = PyOS_string_to_double(first, &stop, NULL);
    if (stop != p)
        return NULL;
    if (!isfinite(*out))
        *cause = CSV_NOT_FINITE;
    return p;
}

/* Append the decimal digits at p to w, modulo 2^64; returns their end.
 * Eight digits that lie in one little-endian word are taken at once, the
 * inverse of digits8: each byte less '0', then pairs, quads and the two
 * halves combined by multiply-adds (Lemire, SPE 2021). */
static INLINE const char *take_digits(const char *p, const char *end,
                                      uint64_t *w)
{
    uint64_t v;

    while (end - p >= 8) {
        memcpy(&v, p, 8);
        /* a byte below '0' borrows a high bit, one above '9' carries one */
        if (((v + 0x4646464646464646ull) | (v - 0x3030303030303030ull))
            & 0x8080808080808080ull)
            break;
        v -= 0x3030303030303030ull;
        v = v * 10 + (v >> 8);
        v = ((v & 0x000000ff000000ffull) * 0x000f424000000064ull
             + (v >> 16 & 0x000000ff000000ffull) * 0x0000271000000001ull)
            >> 32;
        *w = *w * 100000000 + v;
        p += 8;
    }
    while (p < end && (unsigned char)(*p - '0') < 10)
        *w = 10 * *w + (uint64_t)(*p++ - '0');
    return p;
}

/* Parse one value at p into *out:
 *
 *     [+-]? (digits [. digits?] | . digits) [(e|E) [+-]? digits]
 *     [+-]? (inf | infinity | nan), in any case
 *
 * the grammar of CPython's float() less its blanks and underscores.  A
 * decimal reads as zero where its significand w is 0, as the bits
 * eisel_lemire gives where w has at most 19 significant digits, and
 * through parse_long where it has more; a value below the table is a
 * signed zero.  Returns the value's end, or NULL where p starts none.  An
 * infinity, a NaN or a decimal that overflows is stored as such and sets
 * *cause to CSV_NOT_FINITE.  Where full is 0, the function is the fast
 * path of the values gridfreq writes: it returns NULL on a value without
 * digits before or after its point, on inf and nan, and where parse_long
 * or CSV_NOT_FINITE would be needed, and the caller parses again with
 * full set. */
static INLINE const char *parse_value(const char *p, const char *end,
                                      const uint64_t *pow10, double *out,
                                      int *cause, int full)
{
    uint64_t w = 0, bits;
    int64_t q = 0, e = 0, digits;
    int neg = 0, eneg = 0;
    const char *first = p, *start, *s;

    if (p < end && (*p == '-' || *p == '+'))
        neg = *p++ == '-';
    start = p;
    p = take_digits(p, end, &w);
    if (p == start && !full)
        return NULL;
    digits = p - start;
    if (p < end && *p == '.') {
        const char *frac = ++p;
        p = take_digits(p, end, &w);
        if (p == frac && !full)
            return NULL;
        q = -(int64_t)(p - frac);
        digits += p - frac;
    }
    if (digits == 0)
        return full ? parse_word(start, end, neg, out, cause) : NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        const char *exp;
        if (++p < end && (*p == '-' || *p == '+'))
            eneg = *p++ == '-';
        exp = p;
        while (p < end && (unsigned char)(*p - '0') < 10) {
            if (e < 1ll << 40)          /* past any fraction's length */
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
            return full ? parse_long(first, p, out, cause) : NULL;
    }
    if (w == 0 || q < POW10_MIN_Q) {
        /* below 10^19 * 10^-343, under half the least subnormal */
        bits = 0;
    } else if (q > POW10_MAX_Q) {
        bits = 0x7ffull << 52;
    } else {
        bits = eisel_lemire(w, q, pow10);
    }
    if (bits >> 52 == 0x7ff) {
        if (!full)
            return NULL;
        *cause = CSV_NOT_FINITE;
    }
    bits |= (uint64_t)neg << 63;
    memcpy(out, &bits, 8);
    return p;
}

/* parse_field for a field that parse_value's fast path does not read:
 * one with blanks or a quote, a rarer value, or none of the grammar. */
static RARE const char *parse_padded(const char *p, const char *end,
                                     const uint64_t *pow10, double *out,
                                     int *cause)
{
    const char *q, *close = NULL;

    if (p < end && *p == '"') {
        for (close = ++p; close < end && *close != '"'; close++)
            if (*close == '\n' || *close == '\r')
                break;
        if (close == end || *close != '"') {
            *cause = CSV_QUOTE;
            return NULL;
        }
    }
    q = parse_value(skip_blanks(p, end), end, pow10, out, cause, 1);
    if (q)
        q = skip_blanks(q, end);
    if (q && close)
        q = q == close ? skip_blanks(q + 1, end) : NULL;
    if (!q || (q < end && !ENDS_FIELD(*q))) {
        *cause = CSV_MALFORMED;
        return NULL;
    }
    return q;
}

/* Parse one field at p into *out: a value, with blanks (spaces and tabs)
 * before and after it, and may be one pair of double quotes around those
 * and more blanks after the closing quote, as in `"0.0"` and `" 0.0" `.
 * A quote opens the field only as its first byte, as in numpy's reader,
 * and closes on the same line.  Returns the field's end, a comma, a line
 * end or the text's end, or NULL with *cause set to CSV_QUOTE where the
 * quote is unmatched and to CSV_MALFORMED where the field is malformed.
 * The text must end in a NUL byte, past end, for parse_long. */
static INLINE const char *parse_field(const char *p, const char *end,
                                      const uint64_t *pow10, double *out,
                                      int *cause)
{
    const char *q = parse_value(p, end, pow10, out, cause, 0);

    /* the fields gridfreq writes end here */
    if (q && (q == end || ENDS_FIELD(*q)))
        return q;
    return parse_padded(p, end, pow10, out, cause);
}

/* Make *b, a bytes or NULL, a bytes of size bytes that keeps its first
 * ones; where size overflows Py_ssize_t or cannot be allocated, raise
 * MemoryError, *b being a bytes or NULL still.  The formatter's text and
 * the parser's rows are sized by it. */
static int resize_bytes(PyObject **b, u128 size)
{
    if (size > PY_SSIZE_T_MAX) {
        PyErr_NoMemory();
        return -1;
    }
    if (*b)
        return _PyBytes_Resize(b, (Py_ssize_t)size);
    *b = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)size);
    return *b ? 0 : -1;
}

/* Parse the CSV rows of text[start..len), ncols >= 1 doubles a row, each
 * correctly rounded, as CPython's float() and numpy's text reader read
 * them.  Fields are separated by ',' and lines end in "\r\n", "\n" or a
 * lone "\r"; the last may have no end, and an empty line holds no row.
 * pow10 is the table gridfreq._native builds for eisel_lemire, and
 * text[len] must be a NUL byte.  Returns the rows as a new bytes of
 * exactly their doubles, or NULL with a Python error set.  The bytes
 * first hold a row for every 8 * ncols bytes of text, which the rows of
 * the scenarios/ battery's files fill to 40-83 %, and double where they
 * are full; the pages past the rows read are never touched.  At the first
 * line at fault it returns the rows before it, and sets fault to the
 * line's index, counted from 0 at start, a field's index or count, and
 * the cause:
 *   - CSV_QUOTE or CSV_MALFORMED: the first field of the line at fault;
 *   - CSV_FIELDS: the line's field count, where it is not ncols and every
 *     field parses;
 *   - CSV_NOT_FINITE: the first field that is not finite, where the line
 *     is otherwise sound. */
static PyObject *gridfreq_parse_rows(const char *text, int64_t start,
                                     int64_t len, int64_t ncols,
                                     const uint64_t *pow10, int64_t fault[3])
{
    const char *p = text + start, *end = text + len;
    int64_t rows = 0, cap = 0, line = 0, c;
    PyObject *buf = NULL;
    double *out = NULL, extra;
    int cause;

    while (p < end) {
        if (*p != '\n' && *p != '\r') {
            if (rows == cap) {
                cap = cap ? 2 * cap : (len - start) / 8 / ncols + 1;
                if (resize_bytes(&buf, (u128)cap * ncols * 8) < 0)
                    goto done;
                out = (double *)PyBytes_AS_STRING(buf) + rows * ncols;
            }
            cause = 0;
            for (c = 0; c < ncols; c++) {
                if (c) {
                    if (p == end || *p != ',')
                        break;
                    p++;
                }
                p = parse_field(p, end, pow10, out + c, &cause);
                if (!p)
                    goto fault;
            }
            /* fields past ncols are parsed, a malformed one being named */
            for (; p < end && *p == ','; c++) {
                p = parse_field(p + 1, end, pow10, &extra, &cause);
                if (!p)
                    goto fault;
            }
            if (c != ncols) {
                cause = CSV_FIELDS;
                goto fault;
            }
            if (cause) {
                for (c = 0; c < ncols - 1 && isfinite(out[c]); c++)
                    ;
                goto fault;
            }
            out += ncols;
            rows++;
            if (p == end)
                break;
        }
        /* the line end: "\r\n", "\r" or "\n" */
        if (*p++ == '\r' && p < end && *p == '\n')
            p++;
        line++;
    }
    goto done;
fault:
    fault[0] = line;
    fault[1] = c;
    fault[2] = cause;
done:
    if (!PyErr_Occurred() && resize_bytes(&buf, rows * ncols * 8) == 0)
        return buf;
    Py_XDECREF(buf);
    return NULL;
}


/* ------------------------------------------------------------------------
 * The module gridfreq._kernel: the C functions as Python sees them
 * ------------------------------------------------------------------------ */

/* Get a view of obj's memory in C order whose items are 8 bytes, of the
 * struct format given unless it is NULL, and writable where flags hold
 * PyBUF_WRITABLE.  The exporter refuses a strided buffer and these
 * checks a mistyped one, so no function reads memory in another layout.
 * On a failure view->obj is NULL, and PyBuffer_Release a no-op. */
static int get_view(PyObject *obj, Py_buffer *view, int flags,
                    const char *format, const char *name)
{
    const char *got;

    if (PyObject_GetBuffer(obj, view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    got = view->format ? view->format : "B";
    if (view->itemsize == 8 && (!format || !strcmp(got, format)))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s: expected 8-byte items%s%s%s, got "
                 "format '%s'", name, format ? " of format '" : "",
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

/* The fields of gridfreq.estimator.EstimateRecord a step's record holds:
 * the row's first 10 columns, in order, then the lists of amp_phase over
 * the pairs (a_s[i], a_c[i]). */
static const char *const record_fields[] = {
    "t", "f_hz", "rocof_hzps", "rocof_raw_hzps", "a_dc", "a_dc1",
    "residual", "eta", "phase_acc", "t_anchor", "amps", "phases"};
enum { F_AMPS = 10, F_PHASES, F_COUNT };

/* Read into offsets where each of record_fields lives in an instance of
 * cls, from the class's member descriptors: each must be a writable object
 * slot of cls, and no two the same.  Otherwise raise TypeError naming the
 * field. */
static int record_offsets(PyTypeObject *cls, Py_ssize_t *offsets)
{
    int i, j, ok;

    for (i = 0; i < F_COUNT; i++) {
        PyObject *d = PyObject_GetAttrString((PyObject *)cls,
                                             record_fields[i]);

        if (!d) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return -1;
            PyErr_Clear();
        }
        ok = d && Py_IS_TYPE(d, &PyMemberDescr_Type)
             && PyType_IsSubtype(cls, PyDescr_TYPE(d));
        if (ok) {
            const PyMemberDef *m = ((PyMemberDescrObject *)d)->d_member;

            ok = m->type == Py_T_OBJECT_EX && !(m->flags & Py_READONLY);
            offsets[i] = m->offset;
        }
        Py_XDECREF(d);
        for (j = 0; ok && j < i; j++)
            ok = offsets[j] != offsets[i];
        if (!ok) {
            PyErr_Format(PyExc_TypeError, "context: field '%s' of the record "
                         "class %s is not an object slot of its own",
                         record_fields[i], cls->tp_name);
            return -1;
        }
    }
    return 0;
}

/* The record of one row of 10 + 2n doubles: an instance of cls allocated
 * with tp_alloc, whose __init__ never runs, each of record_fields stored
 * straight into its slot at offsets.  The collector tracks the record from
 * its allocation on, and skips the slots not yet filled. */
static PyObject *make_record(PyTypeObject *cls, const Py_ssize_t *offsets,
                             const double *row, Py_ssize_t n)
{
    PyObject *record = cls->tp_alloc(cls, 0), *amps, *phases;
    Py_ssize_t i;

    if (!record)
        return NULL;
#define SLOT(f) (*(PyObject **)((char *)record + offsets[f]))
    for (i = 0; i < 10; i++)
        if (!(SLOT(i) = PyFloat_FromDouble(row[i])))
            goto fail;
    if (!(SLOT(F_AMPS) = amps = PyList_New(n))
        || !(SLOT(F_PHASES) = phases = PyList_New(n)))
        goto fail;
#undef SLOT
    for (i = 0; i < n; i++) {
        double amp, phase;
        PyObject *item;

        amp_phase(row[10 + n + i], row[10 + i], &amp, &phase);
        if (!(item = PyFloat_FromDouble(amp)))
            goto fail;
        PyList_SET_ITEM(amps, i, item);
        if (!(item = PyFloat_FromDouble(phase)))
            goto fail;
        PyList_SET_ITEM(phases, i, item);
    }
    return record;
fail:
    Py_DECREF(record);
    return NULL;
}

/* One state bound to one config: the struct of gridfreq_advance, the
 * views of its buffers, which keep them alive and unresized until the
 * context is freed, and a step's record class with the offsets of its
 * slots.  A context is only ever seen by Python as the self of its advance
 * function (see kernel_context). */
typedef struct {
    PyObject_HEAD
    struct gridfreq_ctx ctx;
    Py_buffer views[4];                 /* state, consts, rows, samples */
    PyTypeObject *record;               /* NULL for a run */
    Py_ssize_t offsets[F_COUNT];        /* of record_fields in a record */
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
 * type before the loop runs, so the state is untouched; so too a step
 * whose state's k has reached 2**53, with OverflowError.  A run's context
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
    if (ctx->state[S_K] >= 0x1p53) {    /* k + 1 would round back to k */
        PyErr_SetString(PyExc_OverflowError,
                        "step: the sample count k has reached 2**53");
        return NULL;
    }
    rows = gridfreq_advance(ctx, x);
    if (rows > 0)
        return make_record(((Context *)self)->record,
                           ((Context *)self)->offsets, ctx->rows, ctx->n);
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
    if (objs[3] == Py_None ? !PyType_Check(record) : record != Py_None) {
        PyErr_SetString(PyExc_TypeError, "context: a step takes a record "
                        "class, a run None");
        return NULL;
    }
    self = (Context *)ContextType.tp_alloc(&ContextType, 0);
    if (!self)
        return NULL;
    if (record != Py_None) {
        self->record = (PyTypeObject *)Py_NewRef(record);
        if (record_offsets(self->record, self->offsets) < 0)
            goto done;
    }
    for (i = 0; i < 4; i++) {
        if (i == 3 && objs[i] == Py_None)
            break;
        if (get_view(objs[i], &self->views[i], flags[i], "d", names[i]) < 0)
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
        || get_view(rows_obj, &rows, 0, "d", "rows") < 0
        || get_view(out_obj, &out, PyBUF_WRITABLE, "d", "out") < 0)
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
    PyObject *cells_obj, *pow10_obj, *text = NULL;
    Py_buffer cells = {0}, pow10 = {0};
    int64_t size;

    (void)module;
    if (!PyArg_ParseTuple(args, "OO:format_rows", &cells_obj, &pow10_obj)
        || get_view(cells_obj, &cells, 0, "d", "cells") < 0
        || get_view(pow10_obj, &pow10, 0, NULL, "pow10") < 0)
        goto done;
    if (cells.ndim != 2 || pow10.len / 8 != POW10_WORDS) {
        PyErr_SetString(PyExc_ValueError, "format_rows: cells must be a "
                        "matrix and pow10 the table");
        goto done;
    }
    /* the room gridfreq_format_rows writes in */
    if (resize_bytes(&text,
                     cells.shape[0] * (25 * (u128)cells.shape[1] + 2)) < 0)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    size = gridfreq_format_rows(cells.buf, cells.shape[0], cells.shape[1],
                                pow10.buf, PyBytes_AS_STRING(text));
    Py_END_ALLOW_THREADS
    resize_bytes(&text, size);          /* a shrink; NULL where it fails */
done:
    PyBuffer_Release(&cells);
    PyBuffer_Release(&pow10);
    return text;
}

static PyObject *kernel_parse_rows(PyObject *module, PyObject *args)
{
    PyObject *text, *pow10_obj, *rows, *result = NULL;
    Py_buffer pow10 = {0};
    Py_ssize_t start, ncols;
    int64_t fault[3] = {0, 0, 0};

    (void)module;
    if (!PyArg_ParseTuple(args, "SnnO:parse_rows", &text, &start, &ncols,
                          &pow10_obj)
        || get_view(pow10_obj, &pow10, 0, NULL, "pow10") < 0)
        goto done;
    if (start < 0 || start > PyBytes_GET_SIZE(text) || ncols < 1
        || pow10.len / 8 != POW10_WORDS) {
        PyErr_SetString(PyExc_ValueError, "parse_rows: start must lie in "
                        "the text, ncols be >= 1 and pow10 the table");
        goto done;
    }
    /* the GIL stays held: PyOS_string_to_double needs it */
    rows = gridfreq_parse_rows(PyBytes_AS_STRING(text), start,
                               PyBytes_GET_SIZE(text), ncols, pow10.buf,
                               fault);
    if (rows)
        result = Py_BuildValue("NLLL", rows, (long long)fault[0],
                               (long long)fault[1], (long long)fault[2]);
done:
    PyBuffer_Release(&pow10);
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
               "its report as an instance of the class record, filled slot "
               "by slot).  n and the ring's size are read "
               "from the consts and state.  The state and rows must be "
               "writable; every buffer must hold float64 in C order.")},
    {"format_rows", kernel_format_rows, METH_VARARGS,
     PyDoc_STR("format_rows(cells, pow10)\n--\n\n"
               "The rows of the float64 matrix cells as CSV text, each "
               "value as repr writes it, as bytes.")},
    {"parse_rows", kernel_parse_rows, METH_VARARGS,
     PyDoc_STR("parse_rows(text, start, ncols, pow10)\n--\n\n"
               "Parse the CSV rows of the bytes text[start:], ncols values "
               "a row; return (rows, line, field, cause): the rows read, "
               "as bytes of float64 values, and, where a line is at fault, "
               "its index from start, the field's index or count and the "
               "cause, 1 to 4 (malformed, field count, not finite, "
               "unmatched quote), else 0, 0, 0.")},
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
