/* Exposure counting and the displaced-recount force pass of solvation.py,
 * and the cavity rows both passes read (spatial.filtered_lists).
 *
 * Sample k of atom i is p = x_i + r_i u_k (r_i the offset radius).  It is
 * covered by neighbor j when |p - x_j|^2 <= r_j^2, evaluated in exactly
 * this order: d = (x_i + r_i u) - x_j per component, then
 * (dx*dx + dy*dy) + dz*dz.  Built with -ffp-contract=off, so no step is
 * fused and the test rounds like the numpy reference in tests/oracles.py.
 *
 * The force pass needs only the clamped count 0/1/2 (it finds a count-1
 * sample's one coverer again in its row), so one sample needs at most two
 * coverers (Le Grand & Merz, J. Comput. Chem. 14:349, 1993).
 * It first tests the two neighbors that covered the last sample to reach
 * count 2; on the water folds about 75% of samples end there.  The other
 * samples scan the row nearest center first, four neighbors per step as
 * two GCC/Clang vector_size(16) double pairs (SSE2 on x86-64, NEON on
 * aarch64).  Each lane does the scalar test's operations in its order, so
 * the vector test rounds like the scalar one.  The area alone needs one
 * coverer (Shrake & Rupley, J. Mol. Biol. 79:351, 1973): with need = 1 a
 * sample tests the last coverer found, then scans only up to its first
 * coverer, and the covered samples are the same.
 *
 * Rows are CSR: the neighbors of atom i are neighbors[offsets[i]] up to
 * neighbors[offsets[i + 1]].  Each pass is one loop over the rows of all
 * n atoms, so it is one call whatever the table holds; a row may be
 * empty.  A neighbor's squared offset radius is r_off[j] * r_off[j],
 * the product numpy forms.  The passes return 0, NO_MEMORY when scratch
 * memory cannot be allocated, or REFUSED when need is not 1 or 2 or a
 * count-1 sample has no coverer in its row (the codes of pairs.c and
 * native.py).
 *
 * The cavity rows are those CSR rows: the m cut-off pairs of pairs.c whose
 * offset spheres are within reach, symmetrised into room for 2 m entries by
 * one count pass and one fill pass in pair order, with no sort.  cavity_rows
 * comes last in the last source linked, so it moves no other entry point.
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

/* Sorts a row nearest center first: by d2, then by atom index.  That key
 * is a strict total order on a row's distinct atoms, so any correct sort
 * gives this order.  Insertion sort, inlined: rows are tens of neighbors. */
static void sort_nearest_first(Near *row, int64_t m)
{
    for (int64_t t = 1; t < m; t++) {
        Near x = row[t];
        int64_t s = t;
        for (; s > 0 && (row[s - 1].d2 > x.d2
                         || (row[s - 1].d2 == x.d2 && row[s - 1].j > x.j)); s--)
            row[s] = row[s - 1];
        row[s] = x;
    }
}

static int64_t longest_row(int64_t n, const int64_t *offsets)
{
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++)
        if (offsets[i + 1] - offsets[i] > m)
            m = offsets[i + 1] - offsets[i];
    return m;
}

/* The slots of a row of m neighbors: m rounded up to a multiple of four,
 * and at least four. */
static int64_t slots(int64_t m)
{
    return m > 4 ? (m + 3) / 4 * 4 : 4;
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

/* The samples of one atom, centered at xi with offset radius ri, against
 * its sorted row (cx, cy, cz, r2: m4 >= 4 slots; padding slots, r2 = -1,
 * cover nothing, so an empty row leaves every sample exposed).  Writes
 * each sample's count, clamped at need; returns the number of covered
 * samples.
 *
 * need = 2: s1 and s2 are the slots of the two coverers of the last
 * sample that reached count 2 (the two nearest at the first sample).  A
 * sample tests both: if both cover, its count is 2 after two tests.
 * Otherwise it scans the row four slots per step and visits each step's
 * coverers lowest slot first, so it finds the same first and second
 * coverer as a one-slot scan, and stops at the second.
 *
 * need = 1 (area only): s1 is the slot of the last coverer found (the
 * nearest at the first sample).  A sample tests it; if it misses, the
 * sample scans the row four slots per step up to its first coverer.
 *
 * Every caller passes need as a constant and the body is inlined, so
 * each mode is its own loop with no test of need per sample. */
static inline __attribute__((always_inline)) int64_t
atom_samples(const int need, const double *xi, double ri, const double *points,
             int64_t nq, const double *cx, const double *cy, const double *cz,
             const double *r2, int64_t m4, uint8_t *cnt)
{
    int64_t hit = 0, s1 = 0, s2 = 1; /* m4 >= 4: both are slots */
    for (int64_t k = 0; k < nq; k++) {
        const double *u = points + 3 * k;
        double px = xi[0] + ri * u[0], py = xi[1] + ri * u[1],
               pz = xi[2] + ri * u[2];
        double dx1 = px - cx[s1], dy1 = py - cy[s1], dz1 = pz - cz[s1];
        int n = 0;
        int64_t first = -1;
        if (need == 1) {
            if ((dx1 * dx1 + dy1 * dy1) + dz1 * dz1 <= r2[s1])
                n = 1;
        } else {
            double dx2 = px - cx[s2], dy2 = py - cy[s2], dz2 = pz - cz[s2];
            if (((dx1 * dx1 + dy1 * dy1) + dz1 * dz1 <= r2[s1])
                & ((dx2 * dx2 + dy2 * dy2) + dz2 * dz2 <= r2[s2]))
                n = 2;
        }
        if (n == 0) {
            for (int64_t t = 0; t < m4; t += 4) {
                unsigned bits = covers4(px, py, pz, cx + t, cy + t, cz + t, r2 + t);
                if (!bits)
                    continue;
                int64_t slot = t + __builtin_ctz(bits);
                if (need == 1) {
                    n = 1;
                    s1 = slot;
                    break;
                }
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
        hit += n > 0;
    }
    return hit;
}

/* Coverage counts of every sample of the n atoms, clamped at need (1 or
 * 2; REFUSED otherwise), and the number of covered samples per atom.
 * need = 2 gives the states the force pass reads, need = 1 the area
 * alone.  Every count is written, those of atoms with an empty row too.
 * A count of 1 has exactly one coverer and a count of 2 needs any two, so
 * the order of the tests cannot change them, and covered is the same for
 * either need.
 *
 * Each atom's row is sorted nearest center first and copied as structures
 * of arrays (cx, cy, cz, r2), padded to a multiple of four slots and to
 * at least four; a padding slot has r2 = -1 and covers nothing (see
 * atom_samples). */
int64_t exposure(int64_t n, const double *pos, const double *r_off,
                 const int64_t *offsets, const int64_t *neighbors,
                 const double *points, int64_t nq, int64_t need,
                 uint8_t *counts, int64_t *covered)
{
    if (need != 1 && need != 2)
        return REFUSED;
    int64_t cap4 = slots(longest_row(n, offsets));
    Near *row = malloc((size_t)cap4 * sizeof *row);
    double *soa = malloc((size_t)cap4 * 4 * sizeof *soa);
    if (!row || !soa) {
        free(row);
        free(soa);
        return NO_MEMORY;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t a = offsets[i], m = offsets[i + 1] - a, m4 = slots(m);
        uint8_t *cnt = counts + i * nq;
        const double *xi = pos + 3 * i;
        for (int64_t t = 0; t < m; t++) {
            int64_t j = neighbors[a + t];
            double dx = pos[3 * j] - xi[0], dy = pos[3 * j + 1] - xi[1],
                   dz = pos[3 * j + 2] - xi[2];
            row[t].d2 = (dx * dx + dy * dy) + dz * dz;
            row[t].j = j;
        }
        sort_nearest_first(row, m);
        double *cx = soa, *cy = soa + m4, *cz = soa + 2 * m4, *r2 = soa + 3 * m4;
        for (int64_t t = 0; t < m4; t++) {
            int64_t j = t < m ? row[t].j : 0;
            cx[t] = pos[3 * j];
            cy[t] = pos[3 * j + 1];
            cz[t] = pos[3 * j + 2];
            r2[t] = t < m ? r_off[j] * r_off[j] : -1.0;
        }
        covered[i] = need == 1
            ? atom_samples(1, xi, r_off[i], points, nq, cx, cy, cz, r2, m4, cnt)
            : atom_samples(2, xi, r_off[i], points, nq, cx, cy, cz, r2, m4, cnt);
    }
    free(row);
    free(soa);
    return 0;
}

/* The slot of the neighbor in c (m slots, 7 doubles each) that covers
 * (px, py, pz), searched from slot t around the row, or -1.  Starting at
 * the slot of the atom's previous count-1 sample finds most at once. */
static int64_t coverer(const double *c, int64_t m, int64_t t, double px,
                       double py, double pz)
{
    for (int64_t tried = 0; tried < m; tried++, t = t + 1 < m ? t + 1 : 0) {
        double dx = px - c[7 * t], dy = py - c[7 * t + 1], dz = pz - c[7 * t + 2];
        if ((dx * dx + dy * dy) + dz * dz <= c[7 * t + 6])
            return t;
    }
    return -1;
}

/* Force events of the n atoms with a nonzero weight w_int[i], added into
 * acc (n x 3, int64).  An exposed sample (count 0) tests every
 * neighbor moved by +dr along each axis: each coverage gained moves w from
 * atom i to the neighbor on that axis.  A critical sample (count 1) tests
 * only its coverer moved: each coverage lost moves w from the coverer to
 * atom i.  Multiply covered samples stay covered under one move.  The
 * coverer is found by the exposure test in the gathered row c (see
 * coverer); REFUSED when none covers, as the counts then belong to other
 * rows or positions. */
int64_t force_events(int64_t n, const double *pos, const double *r_off,
                     const int64_t *offsets, const int64_t *neighbors,
                     const double *points, int64_t nq, const uint8_t *counts,
                     const int64_t *w_int, double dr, int64_t *acc)
{
    int64_t cap = longest_row(n, offsets);
    /* per neighbor: center, moved center (x + dr, y + dr, z + dr), r^2 */
    double *c = malloc((size_t)(cap ? cap : 1) * 7 * sizeof *c);
    int64_t *gained = malloc((size_t)(cap ? cap : 1) * 3 * sizeof *gained);
    if (!c || !gained) {
        free(c);
        free(gained);
        return NO_MEMORY;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t w = w_int[i], a = offsets[i], m = offsets[i + 1] - a;
        if (w == 0)
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
            cj[6] = r_off[j] * r_off[j];
            gained[3 * t] = gained[3 * t + 1] = gained[3 * t + 2] = 0;
        }
        int64_t freed[3] = {0, 0, 0}, hint = 0;
        for (int64_t k = 0; k < nq; k++) {
            if (cnt[k] > 1)
                continue;
            const double *u = points + 3 * k;
            double px = xi[0] + ri * u[0], py = xi[1] + ri * u[1],
                   pz = xi[2] + ri * u[2];
            if (cnt[k] == 1) {
                hint = coverer(c, m, hint, px, py, pz);
                if (hint < 0) {
                    free(c);
                    free(gained);
                    return REFUSED;
                }
                const double *cj = c + 7 * hint;
                int64_t j = neighbors[a + hint];
                double dx = px - cj[0], dy = py - cj[1], dz = pz - cj[2];
                double mx = px - cj[3], my = py - cj[4], mz = pz - cj[5];
                int lost[3] = {
                    !((mx * mx + dy * dy) + dz * dz <= cj[6]),
                    !((dx * dx + my * my) + dz * dz <= cj[6]),
                    !((dx * dx + dy * dy) + mz * mz <= cj[6]),
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

/* Whether offset spheres of radii ri and rj, d2 apart squared, are within
 * reach: d2 <= rc * rc, rc = ((ri + rj) + delta_r) + eps, rounded as
 * spatial.reach rounds it. */
static inline int in_reach(double d2, double ri, double rj, double delta_r,
                           double eps)
{
    double rc = ((ri + rj) + delta_r) + eps;
    return d2 <= rc * rc;
}

/* The symmetric CSR rows (offsets, n + 1; neighbors) of the m pairs
 * (i[k], j[k]) within reach.  Row a gets first the partner i[k] of every
 * such pair with j[k] == a, then the partner j[k] of every one with
 * i[k] == a, each in pair order, as a stable sort of the rows (j, i)
 * places them; pairs i < j sorted by (i, j) give ascending rows.  A count
 * pass sizes the rows and a fill pass writes them (at most 2 m entries).
 * Returns the total (twice the pairs within reach), REFUSED when a pair
 * names an atom outside the n atoms, or NO_MEMORY. */
int64_t cavity_rows(int64_t n, int64_t m, const int64_t *i, const int64_t *j,
                    const double *d2, const double *r_off, double delta_r,
                    double eps, int64_t *offsets, int64_t *neighbors)
{
    /* per atom: its partners below and above, then where the next one
     * below and the next one above go */
    int64_t *below = calloc((size_t)(n ? 2 * n : 1), sizeof *below);
    if (!below)
        return NO_MEMORY;
    int64_t *above = below + n;
    for (int64_t k = 0; k < m; k++) {
        int64_t a = i[k], b = j[k];
        if (a < 0 || a >= n || b < 0 || b >= n) {
            free(below);
            return REFUSED;
        }
        int in = in_reach(d2[k], r_off[a], r_off[b], delta_r, eps);
        below[b] += in;
        above[a] += in;
    }
    offsets[0] = 0;
    for (int64_t a = 0; a < n; a++) {
        offsets[a + 1] = offsets[a] + below[a] + above[a];
        above[a] = offsets[a] + below[a];
        below[a] = offsets[a];
    }
    for (int64_t k = 0; k < m; k++)
        if (in_reach(d2[k], r_off[i[k]], r_off[j[k]], delta_r, eps)) {
            neighbors[below[j[k]]++] = i[k];
            neighbors[above[i[k]]++] = j[k];
        }
    free(below);
    return offsets[n];
}
