/* Triple-scan kernel and similarity.csv encoder, built and loaded by
 * linecluster/_scan_c.py.
 *
 * Same contract as linecluster._scan_numpy.scan_triples: a triple i < j < k
 * with i in [i_lo, i_hi) is accepted when its score, the smallest eigenvalue
 * of its centered scatter matrix as linecluster.tls._triple_scores computes
 * it, is strictly below t2; an accepted triple adds 1 to the flat
 * upper-triangle entries w[i*n+j], w[i*n+k] and w[j*n+k]. The return value
 * is the number of triples the exact path below decided, or -1 when the
 * per-call arrays (3n floats) could not be allocated; w is then untouched.
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
 * The filter (classify) works in float, whose unit roundoff is e = 2^-24.
 * For each outer point i, b = p_k - p_i and |b|^2 are computed in double and
 * rounded to float once, into arrays of 3n floats; so each stored value is
 * within 1.0001 e of its exact value, relative, not of the coordinates' size
 * (plus 2^-150 if |b|^2 underflows).
 * From a and b it evaluates q, p1 = a_x b_y, p2 = a_y b_x, c = p1 - p2,
 * m = |p1| + |p2| and P = (2s q - 3s^2) - c^2, and decides a triple only when
 * it clears a band:
 *
 *     accept  if  q < Q  or  P > B,       reject  if  P < -B  (and not accepted),
 *     B = Kc |c| m + R q + F,   R = Ks s + Km M^2 + Kq q_i,   F = 2^-140 (1 + s + M^2),
 *     Q = (3s - C) / (1 + 12e),   C = 2^-98 M^2,
 *     Kc = 10.25 e,   Ks = 30 e,   Km = 2^-96,   Kq = 18 e^2,
 *
 * where M = max |p| over all n points and q_i = 3.01 max_k |b_k|^2 over the
 * stored differences of outer point i. 2s, 3s^2, Q, F and Ks s + Km M^2 are
 * computed once per call in double and rounded to float, R once per i in
 * float. Anything else, NaN included, is left to the exact path. The band
 * scales with s q and |c| m, the sizes of P's terms where P is near 0. A band
 * in (q + s)^2 would be far wider for long thin triples (q >> s) and leave
 * many of them to the exact path; and |c| m, not c^2, because rounding a and
 * b to float moves c by up to 3e m, which no multiple of c^2 bounds.
 *
 * The domain. The filter runs only when 2^-100 <= t2 <= 2^50, M^2 <= 2^50
 * and 2^-90 M^2 <= t2; otherwise Q = -inf and F = inf decide nothing, and
 * the exact path takes every triple. A nonzero difference component below
 * FLT_MIN would round to a subnormal float, whose error is not relative, so
 * its |b|^2 is stored as NaN: every triple that uses it goes to the exact
 * path. In the domain no value overflows: |b| <= 2^26, q <= 12 M^2 <= 2^54,
 * and every product is below 2^112.
 *
 * Why the band is wide enough. A decision must match the computed score L,
 * not lmin, so two errors have to fit inside the band. Write ~ for a
 * computed value and u = 2^-53. A float operation, rounded to nearest with
 * subnormals kept, errs by e relative, plus at most 2^-150 when a product
 * underflows (a sum of subnormals is exact). The exact |a_x b_x| + |a_y b_y|
 * and m* = |a_x b_y| + |a_y b_x| are at most |a| |b| <= (|a|^2 + |b|^2) / 2
 * <= q, since 2 a.b <= |a|^2 + |b|^2.
 *  1. The filter's own errors. Stored inputs and operations each add e:
 *     |q~ - q| <= 9.001 e q + 2^-147;  |c~ - c| <= 3.0003 e m* + 1.0001 e |c~|
 *     + 2^-148.8;  m* <= (1 + 4.0002 e) m~ + 2^-149; and |c~| <= m~, as
 *     rounding is monotone. So the computed c^2 is within 9.001 e |c~| m~ +
 *     16.01 e^2 m~^2 + 2^-147.7 |c~| + 2^-149.9 of c^2 (|c~ - c| (2|c~| +
 *     |c~ - c|) plus its own rounding). A triple not accepted by q~ < Q~
 *     (Q~ >= (1 - e) Q, as Q > 2^-99 is normal in the domain) has
 *     q >= (3s - C)(1 - 22.01 e) - 2^-147, so 3s <= q + G with
 *     G = 66.03 e s + C + 2^-147, C <= s / 256 and s < 0.34 q. With these,
 *     the errors of 2s q~, 3s^2 and the three roundings of P add up to
 *         |P~ - P| <= 29.02 e s q + 10.002 e |c~| m~ + 16.01 e^2 m~^2
 *                     + 2^-121 M^2 q + 2^-143 (1 + s + M^2).
 *  2. The score's. The computed centroid is off by a vector e' with
 *     |e'|^2 <= 15 u^2 M^2. The deviations from it are the true deviations
 *     minus e', and the true deviations sum to zero, so the scatter about the
 *     computed centroid is S + 3 e' e'^T: the coordinates' size enters only at
 *     second order. Rounding the deviations and their products and sums then
 *     moves the matrix by at most 6.2u T' in norm (T' <= T + 3|e'|^2 is its
 *     trace), so its smallest eigenvalue moves by as much (Weyl), and
 *     mean - sqrt(diff^2 + sxy^2) adds at most 3.1u T'. Underflow adds at most
 *     2^-1075 to a product and 2^-535 after the square root. So
 *     |L - lmin| <= E = 6.67u q + 2^-100.4 M^2 + 2^-530 before the clamp at 0,
 *     which changes no decision below: an accepted triple has
 *     0 <= lmin < s - E, a rejected one L > s.
 *  Accept by q~ < Q~: then q < (1 + 10.003 e) Q + 2^-146.9 < 3s, and
 *  s - lmin >= s - T/2 = g/3 > 1.96 e s + C/3 - 2^-148.5 > E.
 *  Accept by P~ > B~: with q <= (1 + 9.002 e) q~ + 2^-146.9,
 *  m~ <= (1 + 13.01 e) q~ + 2^-146 and q~ <= q_i (q~ is at most
 *  1.5 (1 + 5e) times the sum of the two stored |b|^2, as
 *  2 |a.b| <= |a|^2 + |b|^2), the band as computed (each constant above
 *  exceeds what is needed by 2.4 % or more, which covers the band's own
 *  roundings) is B~ >= |P~ - P| + 2q E + 2G^2/3. So P > 2q E >= 0 forces
 *  lmin < s < lmax <= T = 2q/3, and s - lmin = P / (3 (lmax - s)) > E.
 *  Reject: -P > 2q E + 2G^2/3 >= 0 puts s below both eigenvalues or above
 *  both. Above both is ruled out: then s - lmax <= s - T/2 = g/3 <= G/3 and
 *  s - lmin = (s - T/2) + (lmax - T/2) < 2G/3, so -P = 3 (s - lmin)(s - lmax)
 *  < 2G^2/3. Below both, lmin - s = -P / (3 (lmax - s)) > E as before.
 *  Outside the domain the filter decides nothing, so a t2 that is negative,
 *  zero, tiny, huge or NaN needs no case of its own.
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
 * a decision is a 32-bit float compare mask, as wide as the int32 count it is
 * added to, so an AVX2 vector holds 8 triples and an SSE2 vector 4.
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
#include <float.h>
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

#define BAND_C 0x1.48p-21f    /* Kc = 10.25 e: weight of |c| m */
#define BAND_Q 0x1.2p-44f     /* Kq = 18 e^2: weight of q_i q */
#define Q_BOUND 3.01f         /* q_i / max |b|^2 */
#define BAND_S 0x1.ep-20      /* Ks = 30 e: weight of s q */
#define BAND_M 0x1p-96        /* Km: weight of M^2 q */
#define BAND_FLOOR 0x1p-140   /* F / (1 + s + M^2) */
#define G_SLACK 0x1.8p-21     /* 12 e, in Q = (3s - C) / (1 + 12 e) */
#define CENTROID 0x1p-98      /* C / M^2 */
#define T2_MIN 0x1p-100       /* domain: 2^-100 <= t2 */
#define T2_PER_M2 0x1p-90     /* domain: 2^-90 M^2 <= t2 */
#define FILTER_LIMIT 0x1p50   /* domain: t2, M^2 <= 2^50 */

/* Constants of the filter: per call, and r per outer point. */
struct band {
    float s2, s33; /* 2 t2, 3 t2^2 */
    float q_max;   /* Q: accept when q < Q */
    float r;       /* R = Ks t2 + Km M^2 + Kq q_i */
    float floor;   /* F */
};

/* Filter of triple (i, j, k) given a = p_j - p_i, |a|^2 and b = p_k - p_i,
 * |b|^2 as floats: *acc is 1 when it accepts the triple, *und is 1 when it
 * decides nothing; both are 0 when it rejects. */
static ALWAYS_INLINE void classify(float ax, float ay, float aa, float bx, float by, float bb,
                                   const struct band *bd, int32_t *acc, int32_t *und)
{
    const float q = (aa + bb) - (ax * bx + ay * by);
    const float p1 = ax * by, p2 = ay * bx;
    const float c = p1 - p2, m = fabsf(p1) + fabsf(p2);
    const float p = (bd->s2 * q - bd->s33) - c * c;
    const float band = BAND_C * fabsf(c) * m + bd->r * q + bd->floor;
    const int32_t yes = (q < bd->q_max) | (p > band);
    *acc = yes;
    *und = (yes | (p < -band)) ^ 1;
}

/* Accepted triples (i, j, k) over k in (j, n); adds each hit to wi[k] and
 * wj[k], and the number of triples the exact path decided to *exact. Rows
 * i < j of w never overlap, hence restrict. */
static ALWAYS_INLINE int32_t scan_row(const double *restrict x, const double *restrict y,
                                      int64_t n, int64_t j, double xi, double yi, double t2,
                                      const float *restrict bx, const float *restrict by,
                                      const float *restrict bb, const struct band *bd,
                                      int32_t *restrict wi, int32_t *restrict wj, int64_t *exact)
{
    const float ax = bx[j], ay = by[j], aa = bb[j];
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
    float *diffs = malloc(3 * (size_t)(n > 0 ? n : 1) * sizeof(float));
    if (!diffs)
        return -1;
    float *restrict bx = diffs, *restrict by = diffs + n, *restrict bb = diffs + 2 * n;

    double m2 = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double pp = x[k] * x[k] + y[k] * y[k];
        m2 = pp > m2 ? pp : m2;
    }
    /* Outside the filter's domain, Q = -inf and F = inf decide nothing. */
    struct band bd = {0.0f, 0.0f, -INFINITY, 0.0f, INFINITY};
    float r_call = 0.0f;
    if (m2 <= FILTER_LIMIT && t2 <= FILTER_LIMIT && t2 >= T2_MIN && t2 >= T2_PER_M2 * m2) {
        bd.s2 = (float)(2.0 * t2);
        bd.s33 = (float)(3.0 * t2 * t2);
        bd.q_max = (float)((3.0 * t2 - CENTROID * m2) / (1.0 + G_SLACK));
        bd.floor = (float)(BAND_FLOOR * (1.0 + t2 + m2));
        r_call = (float)(BAND_S * t2 + BAND_M * m2);
    }

    int64_t exact = 0;
    for (int64_t i = i_lo; i < i_hi; i++) {
        const double xi = x[i], yi = y[i];
        float bb_max = 0.0f;
        for (int64_t k = i + 1; k < n; k++) {
            const double dx = x[k] - xi, dy = y[k] - yi;
            const double ax = fabs(dx), ay = fabs(dy);
            /* A nonzero difference below FLT_MIN would lose its relative
             * precision as a float: NaN sends its triples to the exact path. */
            const int tiny = (ax > 0.0 && ax < FLT_MIN) | (ay > 0.0 && ay < FLT_MIN);
            bx[k] = (float)dx;
            by[k] = (float)dy;
            bb[k] = tiny ? NAN : (float)(dx * dx + dy * dy);
            bb_max = bb[k] > bb_max ? bb[k] : bb_max;
        }
        bd.r = r_call + BAND_Q * (Q_BOUND * bb_max);
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
