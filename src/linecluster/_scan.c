/* Triple-scan kernel, built and loaded by linecluster/_scan_c.py.
 *
 * Same contract as linecluster._scan_numpy.scan_triples: every triple
 * i < j < k with i in [i_lo, i_hi) is scored by the smallest eigenvalue of
 * its centered scatter matrix, in the operation order of
 * linecluster.tls._triple_scores; a score strictly below t2 adds 1 to the
 * flat upper-triangle entries w[i*n+j], w[i*n+k], w[j*n+k] and to counts[0],
 * and to counts[1] when z is given and the three labels agree. Built without
 * FP contraction or fast-math, so scores are bit-identical to numpy's.
 */
#include <math.h>
#include <stdint.h>

void scan_triples(const double *x, const double *y, const int8_t *z, int64_t n, double t2,
                  int64_t i_lo, int64_t i_hi, int32_t *w, int64_t *counts)
{
    int64_t acc = 0, win = 0;
    for (int64_t i = i_lo; i < i_hi; i++) {
        const double xi = x[i], yi = y[i];
        int32_t *wi = w + i * n;
        for (int64_t j = i + 1; j < n; j++) {
            const double xj = x[j], yj = y[j];
            int32_t *wj = w + j * n;
            const int same = z ? z[i] == z[j] : 0;
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
                    row_within += hit & same & (z[j] == z[k]);
            }
            wi[j] += row;
            acc += row;
            win += row_within;
        }
    }
    counts[0] += acc;
    counts[1] += win;
}
