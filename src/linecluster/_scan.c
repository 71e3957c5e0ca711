/* Triple-scan kernel and similarity.csv encoder, built and loaded by
 * linecluster/_scan_c.py.
 *
 * Same contract as linecluster._scan_numpy.scan_triples: a triple i < j < k
 * with i in [i_lo, i_hi) is accepted when its score, the smallest eigenvalue
 * of its centered scatter matrix as linecluster.tls._triple_scores computes
 * it, is strictly below t2; an accepted triple adds 1 to the flat
 * upper-triangle entries w[i*n+j], w[i*n+k] and w[j*n+k]. The return value
 * is the number of triples the exact path below decided, or -1 when the
 * per-call arrays (3n doubles) could not be allocated; w is then untouched.
 * The kernel sees no labels: linecluster.hypergraph reads the within/mixed
 * tallies off W afterwards.
 *
 * The identity. Let a = p_j - p_i, b = p_k - p_i, q = |a|^2 + |b|^2 - a.b and
 * c = a_x b_y - a_y b_x. The scatter matrix S of the three points has trace
 * T = 2q/3 and determinant c^2/3, so its eigenvalues lmin <= lmax satisfy
 * 3 (s - lmin)(lmax - s) = s (2q - 3s) - c^2 for every s. With s = t2 >= 0:
 * if 3s > q then s > T/2 >= lmin; otherwise s <= T/2 <= lmax, and lmin < s
 * exactly when P = s (2q - 3s) - c^2 > 0. So, in exact arithmetic,
 *
 *     lmin < s  <=>  g = 3s - q > 0  or  P > 0,
 *
 * which needs no divide and no square root.
 *
 * The filter (classify) evaluates q, c and P = (2s q - 3s^2) - c^2 in double
 * precision, with a and b read from arrays filled once per outer point i,
 * and decides a triple only when it clears a band:
 *
 *     accept  if  g > B1  or  P > B2,       reject  if  P < -B2  (and not accepted),
 *     B1 = 6 * 2^-40 r,   B2 = 3 * 2^-40 r^2,   r = q + s + 2^-50 M^2 + 2^-400,
 *
 * where M = max |p| over all n points. g > B1 is evaluated as q < Q with the
 * per-call Q = (3s - 6 * 2^-40 (r - q)) / (1 + 6 * 2^-40), and B2 as
 * (sqrt(3 * 2^-40) r)^2. Anything else, NaN included, is left to the exact
 * path. A call whose M^2 or t2 is above 2^500, infinite or NaN leaves every
 * triple to the exact path, so no filter term can overflow.
 *
 * Why the band is wide enough. Let u = 2^-53. A decision must match the
 * computed score L, not lmin, so two errors have to fit inside the band.
 *  1. The filter's own. a and b are differences of two doubles, each
 *     component within u of its own size. |a|^2 + |b|^2 <= 2q and
 *     |a_x b_y| + |a_y b_x| <= |a| |b| <= q, so the computed q is within
 *     18u q of q, c within 4u q of c, and c^2 within 10u q^2 of c^2. Every
 *     term of P is at most 3r^2, which puts the computed P within 2^-48 r^2
 *     of P, the computed B2 within 45u B2 of B2, and makes q < Q imply
 *     g > B1 - 2^-48 r.
 *  2. The score's. The computed centroid is off by a vector e with
 *     |e|^2 <= 15 u^2 M^2. The deviations from it are the true deviations
 *     minus e, and the true deviations sum to zero, so the scatter about the
 *     computed centroid is S + 3 e e^T: the coordinates' size enters only at
 *     second order, and 3|e|^2 <= 45 u^2 M^2 < 6u (2^-50 M^2). Rounding the
 *     deviations and their products and sums then moves the matrix by at
 *     most 6.2u T' in norm (T' <= T + 3|e|^2 is its trace), so its smallest
 *     eigenvalue moves by as much (Weyl), and mean - sqrt(diff^2 + sxy^2)
 *     adds at most 3.1u T'. So |L - lmin| <= 10u T' + 3|e|^2 <= 2^-49 r
 *     before the clamp at 0, which changes no decision below: an accepted
 *     triple has 0 <= lmin < s - 2^-49 r, a rejected one L > s.
 *  Accept by g: s - lmin >= s - T/2 = g/3 > 1.9 * 2^-40 r.
 *  Accept by P: P > 2.9 * 2^-40 r^2 > 0 forces lmin < s < lmax <= T <= 2r/3,
 *  so s - lmin = P / (3 (lmax - s)) > 1.45 * 2^-40 r.
 *  Reject: -P > 2.9 * 2^-40 r^2 > 0 puts s below both eigenvalues or above
 *  both. Above both is ruled out: not accepted by g gives g < 6.1 * 2^-40 r,
 *  so s - lmax <= s - T/2 < 2.1 * 2^-40 r and s - lmin < 4.1 * 2^-40 r, and
 *  -P = 3 (s - lmin)(s - lmax) would be below 2^-75 r^2. Below both,
 *  lmin - s = -P / (3 (lmax - s)) > 1.45 * 2^-40 r as before.
 *  Each margin exceeds the score's error, 2^-49 r, more than 700 times over.
 *  When s < 0 neither path accepts: L >= 0 > s, Q < 0 <= q and P <= 0.
 *  Underflow adds at most 2^-1075 to a product and 2^-535 after the square
 *  root; the 2^-400 floor on r keeps those far below every margin.
 *
 * The exact path. A row (i, j) whose filter left some triples undecided runs
 * a second loop over its k, which re-runs the filter (same operations, same
 * results) and scores each undecided triple with the expression of
 * linecluster.tls._triple_scores, operation for operation: the centroid's
 * / 3.0, the sums in their order, sqrt, the clamp at 0 and strict <. So W is
 * bit-identical to the numpy fallback's, whichever path decided a triple. On
 * noisy data the exact path sees almost no triple; a lattice with exact ties
 * (lmin == t2), or many exactly collinear points at a tiny t, sends it many.
 *
 * Vectorization. The filter loop has no control flow, so gcc vectorizes it:
 * a decision is a compare mask turned into 1.0 or 0.0 and then into an
 * int32, which SSE2 has instructions for (a 64-bit mask turned straight into
 * an int is not).
 * Each SIMD lane runs the same correctly rounded IEEE operations on its own
 * triple, FP contraction stays off and there is no fast-math; only the
 * integer row sums are reassociated, which is exact. -fno-math-errno drops
 * sqrt's errno branch in the exact path, whose argument, a sum of squares,
 * is never negative.
 *
 * On x86-64 glibc the function is cloned for AVX2 and the dynamic loader
 * picks the body from cpuid; both bodies vectorize the filter loop.
 * -march=native would not do, because the cached library's name does not
 * depend on the CPU, and a cache shared between hosts could then hold code
 * this CPU cannot run.
 *
 * The library also exports encode_upper_csv, the text encoder of
 * similarity.csv's rows (see its comment at the end of this file).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef SIMD_CLONES
#define SIMD_CLONES
#endif

#define BAND1 0x6p-40                      /* B1 / r */
#define ROOT_BAND2 1.6518123698891422e-06  /* sqrt(B2 / r^2) = sqrt(3 * 2^-40) */
#define CENTROID_TERM 0x1p-50              /* weight of M^2 in r */
#define UNDERFLOW_FLOOR 0x1p-400           /* last term of r */
#define FILTER_LIMIT 0x1p500               /* largest M^2 and t2 the filter takes */

/* Per-call constants of the filter. */
struct band {
    double s2, s33;  /* 2 t2, 3 t2^2 */
    double q_max;    /* Q: g > B1 is q < Q */
    double root_off; /* sqrt(3 * 2^-40) (r - q) */
};

/* Filter of triple (i, j, k) given a = p_j - p_i, |a|^2 and b = p_k - p_i,
 * |b|^2: *acc is 1 when it accepts the triple, *und is 1 when it decides
 * nothing; both are 0 when it rejects. */
static ALWAYS_INLINE void classify(double ax, double ay, double aa, double bx, double by,
                                   double bb, const struct band *bd, int32_t *acc, int32_t *und)
{
    const double q = (aa + bb) - (ax * bx + ay * by);
    const double c = ax * by - ay * bx;
    const double p = (bd->s2 * q - bd->s33) - c * c;
    const double root_b2 = ROOT_BAND2 * q + bd->root_off;
    const double b2 = root_b2 * root_b2;
    const int yes = (q < bd->q_max) | (p > b2);
    const double yes_d = yes ? 1.0 : 0.0, und_d = (yes | (p < -b2)) ? 0.0 : 1.0;
    *acc = (int32_t)yes_d;
    *und = (int32_t)und_d;
}

/* Accepted triples (i, j, k) over k in (j, n); adds each hit to wi[k] and
 * wj[k], and the number of triples the exact path decided to *exact. Rows
 * i < j of w never overlap, hence restrict. */
static ALWAYS_INLINE int32_t scan_row(const double *restrict x, const double *restrict y,
                                      int64_t n, int64_t j, double xi, double yi, double t2,
                                      const double *restrict bx, const double *restrict by,
                                      const double *restrict bb, const struct band *bd,
                                      int32_t *restrict wi, int32_t *restrict wj, int64_t *exact)
{
    const double ax = bx[j], ay = by[j], aa = bb[j];
    int32_t row = 0, undecided = 0;
    for (int64_t k = j + 1; k < n; k++) {
        int32_t hit, und;
        classify(ax, ay, aa, bx[k], by[k], bb[k], bd, &hit, &und);
        row += hit;
        undecided += und;
        wi[k] += hit;
        wj[k] += hit;
    }
    if (undecided) {
        const double xj = x[j], yj = y[j];
        for (int64_t k = j + 1; k < n; k++) {
            int32_t filtered, und;
            classify(ax, ay, aa, bx[k], by[k], bb[k], bd, &filtered, &und);
            if (!und)
                continue;
            const double cx = (xi + xj + x[k]) / 3.0, cy = (yi + yj + y[k]) / 3.0;
            const double dx0 = xi - cx, dx1 = xj - cx, dx2 = x[k] - cx;
            const double dy0 = yi - cy, dy1 = yj - cy, dy2 = y[k] - cy;
            const double sxx = dx0 * dx0 + dx1 * dx1 + dx2 * dx2;
            const double sxy = dx0 * dy0 + dx1 * dy1 + dx2 * dy2;
            const double syy = dy0 * dy0 + dy1 * dy1 + dy2 * dy2;
            const double mean = 0.5 * (sxx + syy), diff = 0.5 * (sxx - syy);
            double lam = mean - sqrt(diff * diff + sxy * sxy);
            lam = lam < 0.0 ? 0.0 : lam;
            const int32_t hit = lam < t2;
            row += hit;
            wi[k] += hit;
            wj[k] += hit;
        }
        *exact += undecided;
    }
    return row;
}

SIMD_CLONES
int64_t scan_triples(const double *restrict x, const double *restrict y, int64_t n, double t2,
                     int64_t i_lo, int64_t i_hi, int32_t *restrict w)
{
    double *diffs = malloc(3 * (size_t)(n > 0 ? n : 1) * sizeof(double));
    if (!diffs)
        return -1;
    double *restrict bx = diffs, *restrict by = diffs + n, *restrict bb = diffs + 2 * n;

    double m2 = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double pp = x[k] * x[k] + y[k] * y[k];
        m2 = pp > m2 ? pp : m2;
    }
    /* Without the filter's preconditions, Q = -inf and B2 = inf decide nothing. */
    struct band bd = {2.0 * t2, 3.0 * t2 * t2, -INFINITY, INFINITY};
    if (m2 <= FILTER_LIMIT && t2 <= FILTER_LIMIT) {
        const double r_minus_q = (t2 + CENTROID_TERM * m2) + UNDERFLOW_FLOOR;
        bd.q_max = (3.0 * t2 - BAND1 * r_minus_q) / (1.0 + BAND1);
        bd.root_off = ROOT_BAND2 * r_minus_q;
    }

    int64_t exact = 0;
    for (int64_t i = i_lo; i < i_hi; i++) {
        const double xi = x[i], yi = y[i];
        for (int64_t k = i + 1; k < n; k++) {
            bx[k] = x[k] - xi;
            by[k] = y[k] - yi;
            bb[k] = bx[k] * bx[k] + by[k] * by[k];
        }
        int32_t *wi = w + i * n;
        for (int64_t j = i + 1; j < n; j++)
            wi[j] += scan_row(x, y, n, j, xi, yi, t2, bx, by, bb, &bd, wi, w + j * n, &exact);
    }
    free(diffs);
    return exact;
}

/* Decimal digits of v, written so that they end just before end; returns
 * where they start. */
static char *put_digits(char *end, uint64_t v)
{
    do {
        *--end = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    return end;
}

/* Adds 1 to the decimal text [start, end), which has room for one more digit
 * before start; returns its new start. */
static ALWAYS_INLINE char *increment(char *start, char *end)
{
    char *d = end - 1;
    while (d >= start && *d == '9')
        *d-- = '0';
    if (d < start)
        *d = '1';
    else
        ++*d;
    return d < start ? d : start;
}

/* Bytes that put_text reads from the start of a text and writes at p, past
 * the text's end if it is shorter: each text array has SLACK spare bytes after
 * its end, and the output bytes past a text are overwritten by the next one or
 * lie past the size returned. */
#define SLACK 16

/* Copies the text [start, end) to p and returns its end there: one fixed
 * SLACK-byte move for any text that short, which is every text below 10^15. */
static ALWAYS_INLINE char *put_text(char *restrict p, const char *start, const char *end)
{
    const ptrdiff_t len = end - start;
    if (len <= SLACK)
        memcpy(p, start, SLACK);
    else
        memcpy(p, start, (size_t)len);
    return p + len;
}

/* Rows of similarity.csv from the n x n int32 matrix w: for i = i_lo,
 * i_lo + 1, ..., one line "i,j,c\n" for each j > i with c = w[i*n+j] != 0,
 * in row-major order, each number written as Python's str(int(value)). A row
 * is written only if its worst case, (n-1-i) lines of the digits of i and of
 * n-1 plus 11 characters for c ("-2147483648") plus 3 separators, and SLACK
 * bytes more, fits in what is left of the cap bytes at out, so a row is never
 * split and put_text never writes past out + cap. Stores the
 * first row not written in *i_next (n when all are) and returns the number
 * of bytes written. j's text is counted up digit by digit along the row, so
 * only c is divided into digits. */
int64_t encode_upper_csv(const int32_t *restrict w, int64_t n, int64_t i_lo, char *restrict out,
                         int64_t cap, int64_t *restrict i_next)
{
    char *restrict p = out;
    char *const end = out + cap;
    char last[24];
    const int64_t j_digits = (last + sizeof last) - put_digits(last + sizeof last,
                                                                (uint64_t)(n > 1 ? n - 1 : 0));
    int64_t i = i_lo;
    for (; i < n; i++) {
        char head[24 + SLACK], j_text[24 + SLACK], value[24 + SLACK];
        char *const head_end = head + 24, *const j_end = j_text + 24, *const value_end = value + 24;
        head_end[-1] = ',';
        const char *const i_start = put_digits(head_end - 1, (uint64_t)i);
        if ((n - 1 - i) * ((head_end - i_start) + j_digits + 13) + SLACK > end - p)
            break;
        const int32_t *restrict row = w + i * n;
        char *j_start = put_digits(j_end, (uint64_t)(i + 1));
        for (int64_t j = i + 1; j < n; j++, j_start = increment(j_start, j_end)) {
            const int32_t c = row[j];
            if (!c)
                continue;
            char *v_start = put_digits(value_end, c < 0 ? -(uint64_t)c : (uint64_t)c);
            if (c < 0)
                *--v_start = '-';
            p = put_text(p, i_start, head_end);
            p = put_text(p, j_start, j_end);
            *p++ = ',';
            p = put_text(p, v_start, value_end);
            *p++ = '\n';
        }
    }
    *i_next = i;
    return p - out;
}
