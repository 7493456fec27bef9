/* Exposure counting and the displaced-recount force pass of solvation.py.
 *
 * Sample k of atom i is p = x_i + r_i u_k (r_i the offset radius).  It is
 * covered by neighbor j when |p - x_j|^2 <= r_j^2, evaluated in exactly
 * this order: d = (x_i + r_i u) - x_j per component, then
 * (dx*dx + dy*dy) + dz*dz.  Built with -ffp-contract=off, so no step is
 * fused and the test rounds like the numpy reference in tests/oracles.py.
 *
 * Exposure counting needs only the clamped count 0/1/2, so one sample
 * needs at most two coverers (Le Grand & Merz, J. Comput. Chem. 14:349,
 * 1993).  It first tests the two neighbors that covered the last sample
 * to reach count 2; on the water folds about 75% of samples end there.
 * The other samples scan the row nearest center first, four neighbors per
 * step as two GCC/Clang vector_size(16) double pairs (SSE2 on x86-64,
 * NEON on aarch64).  Each lane does the scalar test's operations in its
 * order, so the vector test rounds like the scalar one.
 *
 * Rows are CSR: the neighbors of atom i are neighbors[offsets[i]] up to
 * neighbors[offsets[i + 1]].  Both passes work on the atoms [lo, hi).
 * They return 0, NO_MEMORY when scratch memory cannot be allocated, or
 * REFUSED when a critical neighbor is not one of the n atoms (the codes
 * of pairs.c and native.py).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* Two neighbors as one 16-byte vector: SSE2 on x86-64, NEON on aarch64. */
typedef double f64x2 __attribute__((vector_size(16)));
typedef int64_t i64x2 __attribute__((vector_size(16)));

static inline f64x2 pair_at(const double *p)
{
    f64x2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* Bit b set when row slot b of the four at (cx, cy, cz, r2) covers the
 * sample: each lane rounds like the scalar test. */
static inline unsigned covers4(double px, double py, double pz, const double *cx,
                               const double *cy, const double *cz,
                               const double *r2)
{
    const f64x2 x = {px, px}, y = {py, py}, z = {pz, pz};
    const i64x2 lo_bits = {1, 2}, hi_bits = {4, 8};
    f64x2 dx = x - pair_at(cx), dy = y - pair_at(cy), dz = z - pair_at(cz);
    i64x2 lo = (i64x2)((dx * dx + dy * dy) + dz * dz <= pair_at(r2));
    dx = x - pair_at(cx + 2);
    dy = y - pair_at(cy + 2);
    dz = z - pair_at(cz + 2);
    i64x2 hi = (i64x2)((dx * dx + dy * dy) + dz * dz <= pair_at(r2 + 2));
    i64x2 bits = (lo & lo_bits) | (hi & hi_bits);
    return (unsigned)(bits[0] | bits[1]);
}

/* Clamped coverage counts (0, 1, 2) of every sample of the atoms [lo, hi),
 * the one coverer of each count-1 sample in critical (-1 for every other
 * sample), and the number of covered samples per atom.  Every entry of
 * the atoms [lo, hi) is written, those of atoms with an empty row too.  A
 * count of 1 has exactly one coverer and a count of 2 needs any two, so
 * the order of the tests cannot change them.
 *
 * Each atom's row is sorted nearest center first and copied as structures
 * of arrays (cx, cy, cz, r2), padded to a multiple of four slots; a
 * padding slot has r2 = -1 and covers nothing.  s1 and s2 are the slots of
 * the two coverers of the last sample that reached count 2 (the two
 * nearest at the atom's first sample).  A sample tests both: if both
 * cover, its count is 2 after two tests.  Otherwise it scans the row four
 * slots per step and visits each step's coverers lowest slot first, so it
 * finds the same first and second coverer as a one-slot scan, and stops
 * at the second. */
int64_t exposure(int64_t lo, int64_t hi, const double *pos, const double *r_off,
                 const double *r_off2, const int64_t *offsets,
                 const int64_t *neighbors, const double *points, int64_t nq,
                 uint8_t *counts, int32_t *critical, int64_t *covered)
{
    int64_t cap = longest_row(lo, hi, offsets), cap4 = (cap + 3) / 4 * 4;
    Near *row = malloc((size_t)(cap ? cap : 1) * sizeof *row);
    double *soa = malloc((size_t)(cap4 ? cap4 : 4) * 4 * sizeof *soa);
    if (!row || !soa) {
        free(row);
        free(soa);
        return NO_MEMORY;
    }
    for (int64_t i = lo; i < hi; i++) {
        int64_t a = offsets[i], m = offsets[i + 1] - a, m4 = (m + 3) / 4 * 4;
        uint8_t *cnt = counts + i * nq;
        int32_t *crit = critical + i * nq;
        if (m == 0) {
            memset(cnt, 0, (size_t)nq);
            for (int64_t k = 0; k < nq; k++)
                crit[k] = -1;
            covered[i] = 0;
            continue;
        }
        const double *xi = pos + 3 * i;
        for (int64_t t = 0; t < m; t++) {
            int64_t j = neighbors[a + t];
            double dx = pos[3 * j] - xi[0], dy = pos[3 * j + 1] - xi[1],
                   dz = pos[3 * j + 2] - xi[2];
            row[t].d2 = (dx * dx + dy * dy) + dz * dz;
            row[t].j = j;
        }
        qsort(row, (size_t)m, sizeof *row, nearest_first);
        double *cx = soa, *cy = soa + m4, *cz = soa + 2 * m4, *r2 = soa + 3 * m4;
        for (int64_t t = 0; t < m4; t++) {
            int64_t j = t < m ? row[t].j : 0;
            cx[t] = pos[3 * j];
            cy[t] = pos[3 * j + 1];
            cz[t] = pos[3 * j + 2];
            r2[t] = t < m ? r_off2[j] : -1.0;
        }
        double ri = r_off[i];
        int64_t hit = 0, s1 = 0, s2 = 1; /* m4 >= 4: both are slots */
        for (int64_t k = 0; k < nq; k++) {
            const double *u = points + 3 * k;
            double px = xi[0] + ri * u[0], py = xi[1] + ri * u[1],
                   pz = xi[2] + ri * u[2];
            double dx1 = px - cx[s1], dy1 = py - cy[s1], dz1 = pz - cz[s1];
            double dx2 = px - cx[s2], dy2 = py - cy[s2], dz2 = pz - cz[s2];
            int n = 0;
            int64_t first = -1;
            if (((dx1 * dx1 + dy1 * dy1) + dz1 * dz1 <= r2[s1])
                & ((dx2 * dx2 + dy2 * dy2) + dz2 * dz2 <= r2[s2])) {
                n = 2;
            } else {
                for (int64_t t = 0; t < m4; t += 4) {
                    unsigned bits = covers4(px, py, pz, cx + t, cy + t, cz + t, r2 + t);
                    if (!bits)
                        continue;
                    int64_t slot = t + __builtin_ctz(bits);
                    bits &= bits - 1;
                    if (n == 0) {
                        n = 1;
                        first = slot;
                        if (!bits)
                            continue;
                        slot = t + __builtin_ctz(bits);
                    }
                    n = 2;
                    s1 = first;
                    s2 = slot;
                    break;
                }
            }
            cnt[k] = (uint8_t)n;
            crit[k] = n == 1 ? (int32_t)row[first].j : -1;
            hit += n > 0;
        }
        covered[i] = hit;
    }
    free(row);
    free(soa);
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
