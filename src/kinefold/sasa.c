/* Exposure counting and the displaced-recount force pass of solvation.py.
 *
 * Sample k of atom i is p = x_i + r_i u_k (r_i the offset radius).  It is
 * covered by neighbor j when |p - x_j|^2 <= r_j^2, evaluated in exactly
 * this order: d = (x_i + r_i u) - x_j per component, then
 * (dx*dx + dy*dy) + dz*dz.  Built with -ffp-contract=off, so no step is
 * fused and the test rounds like the numpy reference in tests/oracles.py.
 *
 * Rows are CSR: the neighbors of atom i are neighbors[offsets[i]] up to
 * neighbors[offsets[i + 1]].  Both passes work on the atoms [lo, hi).
 * They return 0, NO_MEMORY when scratch memory cannot be allocated, or
 * REFUSED when a critical neighbor is not one of the n atoms (the codes
 * of pairs.c and native.py).
 */
#include <stdint.h>
#include <stdlib.h>

#define NO_MEMORY (-1)
#define REFUSED (-2)

typedef struct {
    double d2;
    int64_t j;
} Near;

static int nearest_first(const void *a, const void *b)
{
    const Near *x = a, *y = b;
    if (x->d2 != y->d2)
        return x->d2 < y->d2 ? -1 : 1;
    return (x->j > y->j) - (x->j < y->j);
}

static int64_t longest_row(int64_t lo, int64_t hi, const int64_t *offsets)
{
    int64_t m = 0;
    for (int64_t i = lo; i < hi; i++)
        if (offsets[i + 1] - offsets[i] > m)
            m = offsets[i + 1] - offsets[i];
    return m;
}

/* Clamped coverage counts (0, 1, 2) of every sample of the atoms [lo, hi),
 * the one coverer of each count-1 sample in critical (left as is
 * otherwise), and the number of covered samples per atom.  The row is
 * scanned nearest center first and the scan stops at the second coverer;
 * a count of 1 has exactly one coverer, so the order cannot change it. */
int64_t exposure(int64_t lo, int64_t hi, const double *pos, const double *r_off,
                 const double *r_off2, const int64_t *offsets,
                 const int64_t *neighbors, const double *points, int64_t nq,
                 uint8_t *counts, int32_t *critical, int64_t *covered)
{
    int64_t cap = longest_row(lo, hi, offsets);
    Near *row = malloc((size_t)(cap ? cap : 1) * sizeof *row);
    double *c = malloc((size_t)(cap ? cap : 1) * 4 * sizeof *c);
    if (!row || !c) {
        free(row);
        free(c);
        return NO_MEMORY;
    }
    for (int64_t i = lo; i < hi; i++) {
        int64_t a = offsets[i], m = offsets[i + 1] - a;
        if (m == 0)
            continue;
        const double *xi = pos + 3 * i;
        for (int64_t t = 0; t < m; t++) {
            int64_t j = neighbors[a + t];
            double dx = pos[3 * j] - xi[0], dy = pos[3 * j + 1] - xi[1],
                   dz = pos[3 * j + 2] - xi[2];
            row[t].d2 = (dx * dx + dy * dy) + dz * dz;
            row[t].j = j;
        }
        qsort(row, (size_t)m, sizeof *row, nearest_first);
        for (int64_t t = 0; t < m; t++) {
            int64_t j = row[t].j;
            c[4 * t] = pos[3 * j];
            c[4 * t + 1] = pos[3 * j + 1];
            c[4 * t + 2] = pos[3 * j + 2];
            c[4 * t + 3] = r_off2[j];
        }
        double ri = r_off[i];
        int64_t hit = 0;
        for (int64_t k = 0; k < nq; k++) {
            const double *u = points + 3 * k;
            double px = xi[0] + ri * u[0], py = xi[1] + ri * u[1],
                   pz = xi[2] + ri * u[2];
            int n = 0;
            int64_t first = -1;
            for (int64_t t = 0; t < m; t++) {
                const double *cj = c + 4 * t;
                double dx = px - cj[0], dy = py - cj[1], dz = pz - cj[2];
                if ((dx * dx + dy * dy) + dz * dz <= cj[3]) {
                    if (n++)
                        break; /* the second coverer: the count is 2 */
                    first = row[t].j;
                }
            }
            counts[i * nq + k] = (uint8_t)n;
            if (n == 1)
                critical[i * nq + k] = (int32_t)first;
            hit += n > 0;
        }
        covered[i] = hit;
    }
    free(row);
    free(c);
    return 0;
}

/* Force events of the atoms [lo, hi) with a nonzero weight w_int[i], added
 * into acc (n x 3, int64).  An exposed sample (count 0) tests every
 * neighbor moved by +dr along each axis: each coverage gained moves w from
 * atom i to the neighbor on that axis.  A critical sample (count 1) tests
 * only its coverer moved: each coverage lost moves w from the coverer to
 * atom i.  Multiply covered samples stay covered under one move. */
int64_t force_events(int64_t lo, int64_t hi, const double *pos,
                     const double *r_off, const double *r_off2,
                     const int64_t *offsets, const int64_t *neighbors,
                     const double *points, int64_t nq, const uint8_t *counts,
                     const int32_t *critical, const int64_t *w_int, double dr,
                     int64_t n, int64_t *acc)
{
    int64_t cap = longest_row(lo, hi, offsets);
    /* per neighbor: center, moved center (x + dr, y + dr, z + dr), r^2 */
    double *c = malloc((size_t)(cap ? cap : 1) * 7 * sizeof *c);
    int64_t *gained = malloc((size_t)(cap ? cap : 1) * 3 * sizeof *gained);
    if (!c || !gained) {
        free(c);
        free(gained);
        return NO_MEMORY;
    }
    for (int64_t i = lo; i < hi; i++) {
        int64_t w = w_int[i], a = offsets[i], m = offsets[i + 1] - a;
        if (w == 0 || m == 0)
            continue;
        const double *xi = pos + 3 * i;
        const uint8_t *cnt = counts + i * nq;
        double ri = r_off[i];
        for (int64_t t = 0; t < m; t++) {
            int64_t j = neighbors[a + t];
            double *cj = c + 7 * t;
            for (int s = 0; s < 3; s++) {
                cj[s] = pos[3 * j + s];
                cj[3 + s] = pos[3 * j + s] + dr;
            }
            cj[6] = r_off2[j];
            gained[3 * t] = gained[3 * t + 1] = gained[3 * t + 2] = 0;
        }
        int64_t freed[3] = {0, 0, 0};
        for (int64_t k = 0; k < nq; k++) {
            if (cnt[k] > 1)
                continue;
            const double *u = points + 3 * k;
            double px = xi[0] + ri * u[0], py = xi[1] + ri * u[1],
                   pz = xi[2] + ri * u[2];
            if (cnt[k] == 1) {
                int64_t j = critical[i * nq + k];
                if (j < 0 || j >= n) {
                    free(c);
                    free(gained);
                    return REFUSED;
                }
                const double *x = pos + 3 * j;
                double dx = px - x[0], dy = py - x[1], dz = pz - x[2];
                double mx = px - (x[0] + dr), my = py - (x[1] + dr),
                       mz = pz - (x[2] + dr), r2 = r_off2[j];
                int lost[3] = {
                    !((mx * mx + dy * dy) + dz * dz <= r2),
                    !((dx * dx + my * my) + dz * dz <= r2),
                    !((dx * dx + dy * dy) + mz * mz <= r2),
                };
                for (int s = 0; s < 3; s++) {
                    if (lost[s]) {
                        freed[s] += w;
                        acc[3 * j + s] -= w;
                    }
                }
                continue;
            }
            for (int64_t t = 0; t < m; t++) {
                const double *cj = c + 7 * t;
                double dx = px - cj[0], dy = py - cj[1], dz = pz - cj[2];
                double mx = px - cj[3], my = py - cj[4], mz = pz - cj[5];
                double x2 = dx * dx, y2 = dy * dy, z2 = dz * dz;
                gained[3 * t] += (mx * mx + y2) + z2 <= cj[6];
                gained[3 * t + 1] += (x2 + my * my) + z2 <= cj[6];
                gained[3 * t + 2] += (x2 + y2) + mz * mz <= cj[6];
            }
        }
        for (int64_t t = 0; t < m; t++) {
            int64_t j = neighbors[a + t];
            for (int s = 0; s < 3; s++) {
                acc[3 * i + s] -= gained[3 * t + s] * w;
                acc[3 * j + s] += gained[3 * t + s] * w;
            }
        }
        for (int s = 0; s < 3; s++)
            acc[3 * i + s] += freed[s];
    }
    free(c);
    free(gained);
    return 0;
}
