/* Triple-scan kernel, built and loaded by linecluster/_scan_c.py.
 *
 * Same contract as linecluster._scan_numpy.scan_triples: every triple
 * i < j < k with i in [i_lo, i_hi) is scored by the smallest eigenvalue of
 * its centered scatter matrix, in the operation order of
 * linecluster.tls._triple_scores; a score strictly below t2 adds 1 to the
 * flat upper-triangle entries w[i*n+j], w[i*n+k], w[j*n+k] and to counts[0],
 * and to counts[1] when z is given and the three labels agree.
 *
 * The k loop (scan_row) has no control flow, so gcc vectorizes it: the label
 * test is hoisted into the choice of call, and a hit is the 0/1 value of a
 * compare. Scores stay bit-identical to numpy's. Each SIMD lane runs the same
 * correctly rounded IEEE operations (+, -, *, /, sqrt) on its own triple, FP
 * contraction stays off, and there is no fast-math; only the integer row sums
 * are reassociated, which is exact. -fno-math-errno only drops sqrt's errno
 * branch, and sqrt's argument is a sum of squares, never negative.
 *
 * On x86-64 glibc the function is cloned for AVX2 and the dynamic loader
 * picks the body from cpuid. The default (SSE2) body stays scalar: gcc needs
 * SSE4.2's 64-bit compares to turn the lanes' compare masks into 0/1 hits.
 * -march=native would not do, because the cached library's name does not
 * depend on the CPU, and a cache shared between hosts could then hold code
 * this CPU cannot run.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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

/* Accepted triples (i, j, k) over k in (j, n); adds each hit to wi[k] and
 * wj[k], and the hits whose z[k] equals key to *within. Rows i < j of w
 * never overlap, hence restrict. Inlined with z constant NULL or not, so the
 * label test never reaches the loop. */
static ALWAYS_INLINE int32_t scan_row(const double *restrict x, const double *restrict y,
                                      const int8_t *restrict z, int8_t key, int64_t n, int64_t j,
                                      double xi, double yi, double t2,
                                      int32_t *restrict wi, int32_t *restrict wj, int64_t *within)
{
    const double xj = x[j], yj = y[j];
    int32_t row = 0, row_within = 0;
    for (int64_t k = j + 1; k < n; k++) {
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
        if (z)
            row_within += hit & (z[k] == key);
    }
    *within += row_within;
    return row;
}

SIMD_CLONES
void scan_triples(const double *restrict x, const double *restrict y, const int8_t *restrict z,
                  int64_t n, double t2, int64_t i_lo, int64_t i_hi, int32_t *restrict w,
                  int64_t *restrict counts)
{
    int64_t acc = 0, win = 0;
    for (int64_t i = i_lo; i < i_hi; i++) {
        const double xi = x[i], yi = y[i];
        int32_t *wi = w + i * n;
        for (int64_t j = i + 1; j < n; j++) {
            int32_t *wj = w + j * n, row;
            if (z) /* Labels are 1 or 2: key -1 matches no z[k] when z[i] != z[j]. */
                row = scan_row(x, y, z, z[i] == z[j] ? z[j] : -1, n, j, xi, yi, t2, wi, wj, &win);
            else
                row = scan_row(x, y, NULL, 0, n, j, xi, yi, t2, wi, wj, &win);
            wi[j] += row;
            acc += row;
        }
    }
    counts[0] += acc;
    counts[1] += win;
}
