/* The pair stages of Field.evaluate, one entry point each: the cell-list
 * grid and the half neighbor table (spatial.py), the exact cut-off pairs,
 * the Coulomb and 6-12 pair terms and the force scatter (forcefield.py),
 * and the bond-tree pair weights (topology.py).
 *
 * Each stage computes what its numpy reference in tests/oracles.py
 * computes, and the library is built with -ffp-contract=off, so no step
 * is fused.  The grid, the table, the cut-off pairs and the classes are
 * bitwise the references': squared distances are (dx*dx + dy*dy) + dz*dz
 * of d = x_i - x_j, in numpy's order.  The pair terms and the force
 * scatter keep a fixed C order and agree with them to rel 1e-12: van der
 * Waals powers are products (no pow, whose vectorised and libm versions
 * round differently), and each pair adds its force to atom i and takes
 * it from atom j before the next pair.
 *
 * Every entry point returns a count (or 0), NO_MEMORY when scratch memory
 * cannot be allocated, and REFUSED or WIDE when its input cannot be used.
 * The caller sizes the outputs: by the atom count or by the candidate
 * count; neighbor_table fills the capacity it is given and reports what
 * it needs when that is short.  It also passes in the one candidate-sized
 * scratch array (neighbor_table's unions), so that it can reuse every
 * candidate-sized array from call to call; only atom-sized scratch is
 * allocated here.  Nothing here sorts by comparison: the grid is radix
 * sorted, and the table reads its unions back from two-level bitmaps.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NO_MEMORY (-1)
#define REFUSED (-2)
#define WIDE (-3)

/* ---------------------------------------------------------------------
 * cell-list grid
 * ------------------------------------------------------------------- */

/* Stable LSD radix sort of 0..n-1 by key in [0, bound), 8 bits a pass:
 * order gets the indices sorted by (key, index), numpy's stable argsort. */
static int64_t radix_order(int64_t n, const int64_t *key, int64_t bound,
                           int64_t *order)
{
    int64_t *tmp = malloc((size_t)(n ? n : 1) * sizeof *tmp);
    if (!tmp)
        return NO_MEMORY;
    int64_t *src = order, *dst = tmp;
    for (int64_t k = 0; k < n; k++)
        src[k] = k;
    for (int shift = 0; shift < 63 && ((bound - 1) >> shift) > 0; shift += 8) {
        int64_t count[257] = {0};
        for (int64_t k = 0; k < n; k++)
            count[((key[src[k]] >> shift) & 255) + 1]++;
        for (int b = 0; b < 256; b++)
            count[b + 1] += count[b];
        for (int64_t k = 0; k < n; k++)
            dst[count[(key[src[k]] >> shift) & 255]++] = src[k];
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != order)
        for (int64_t k = 0; k < n; k++)
            order[k] = src[k];
    free(tmp);
    return 0;
}

/* Bin the n positions into cubic cells of edge `edge`: cell
 * floor((p - min) / edge) per axis, dims = the largest cell + 3 per axis,
 * linear id (x * dims[1] + y) * dims[2] + z.  order gets the atoms stably
 * sorted by id; cells gets, in two rows of n + 1, the k occupied ids
 * ascending and, as CSR offsets, where each begins in order, with
 * starts[k] = n where the last one ends.  Returns k, REFUSED for no atoms
 * or a non-finite coordinate, WIDE when an axis spans more than max_span. */
int64_t grid_cells(int64_t n, const double *pos, double edge, double max_span,
                   int64_t *dims, int64_t *order, int64_t *cells)
{
    if (n < 1)
        return REFUSED;
    for (int64_t k = 0; k < 3 * n; k++)
        if (!isfinite(pos[k]))
            return REFUSED;
    double lo[3] = {pos[0], pos[1], pos[2]}, hi[3] = {pos[0], pos[1], pos[2]};
    for (int64_t k = 0; k < n; k++)
        for (int s = 0; s < 3; s++) {
            double x = pos[3 * k + s];
            lo[s] = x < lo[s] ? x : lo[s];
            hi[s] = x > hi[s] ? x : hi[s];
        }
    for (int s = 0; s < 3; s++)
        if (hi[s] - lo[s] > max_span)
            return WIDE;
    int64_t *cell = malloc((size_t)(3 * n) * sizeof *cell);
    int64_t *lin = malloc((size_t)n * sizeof *lin);
    if (!cell || !lin) {
        free(cell);
        free(lin);
        return NO_MEMORY;
    }
    int64_t top[3] = {0, 0, 0};
    for (int64_t k = 0; k < n; k++)
        for (int s = 0; s < 3; s++) {
            int64_t c = (int64_t)floor((pos[3 * k + s] - lo[s]) / edge);
            cell[3 * k + s] = c;
            top[s] = c > top[s] ? c : top[s];
        }
    for (int s = 0; s < 3; s++)
        dims[s] = top[s] + 3;
    for (int64_t k = 0; k < n; k++)
        lin[k] = (cell[3 * k] * dims[1] + cell[3 * k + 1]) * dims[2] + cell[3 * k + 2];
    free(cell);
    int64_t status = radix_order(n, lin, dims[0] * dims[1] * dims[2], order);
    if (status) {
        free(lin);
        return status;
    }
    int64_t *occupied = cells, *starts = cells + n + 1;
    int64_t m = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t id = lin[order[k]];
        if (m == 0 || id != occupied[m - 1]) {
            occupied[m] = id;
            starts[m++] = k;
        }
    }
    starts[m] = n;
    free(lin);
    return m;
}

/* ---------------------------------------------------------------------
 * half neighbor table
 * ------------------------------------------------------------------- */

/* Writes the atoms marked in bits to out, ascending, clears their bits
 * and returns how many there were.  Bit x of summary (n_summary words)
 * marks word x of bits as touched, and is cleared with it: the read-back
 * visits the touched words only, in order, with no sort, at a cost of
 * the marks plus one summary word per 4096 atoms. */
static int64_t read_marks(uint64_t *bits, uint64_t *summary, int64_t n_summary,
                          int64_t *out)
{
    int64_t m = 0;
    for (int64_t s = 0; s < n_summary; s++) {
        for (uint64_t touched = summary[s]; touched; touched &= touched - 1) {
            int64_t x = 64 * s + __builtin_ctzll(touched);
            for (uint64_t word = bits[x]; word; word &= word - 1)
                out[m++] = 64 * x + __builtin_ctzll(word);
            bits[x] = 0;
        }
        summary[s] = 0;
    }
    return m;
}

/* The half table of the grid's candidate pairs: row i holds, ascending,
 * every j > i in a cell within [-2, 2]^3 of i's.  One sweep over the
 * occupied cells a, in id order:
 *   - a's 5x5x5 stencil is 25 columns (dx, dy) of five ids,
 *     occupied[a] + (dx * dims[1] + dy) * dims[2] + [-2, 2]; one cursor
 *     per column finds them, and since the ids ascend with a the cursors
 *     only move forward;
 *   - the atoms of those cells, the union U_a, are marked in a bitmap,
 *     their words in a summary bitmap, and read back ascending into
 *     unions;
 *   - each atom u of a gets the suffix of U_a above u as its row, so its
 *     row length is |U_a| minus u's rank in U_a, minus one.
 * The sweep sums the pairs.  When capacity holds them and union_capacity
 * the stored unions, the offsets (n + 1) are summed from the lengths and
 * each row is copied from its union; otherwise nothing is written but
 * *union_size, the union capacity a fill needs.  Returns the number of
 * pairs, REFUSED when the grid does not partition the n atoms: cell a
 * holds order[starts[a]] up to order[starts[a + 1]], so starts (k + 1)
 * must run from 0 to n, strictly increasing, under ascending ids. */
int64_t neighbor_table(int64_t n, const int64_t *dims, const int64_t *order,
                       const int64_t *occupied, const int64_t *starts, int64_t k,
                       int64_t *offsets, int64_t *neighbors, int64_t capacity,
                       int64_t *unions, int64_t union_capacity, int64_t *union_size)
{
    if (starts[0] != 0 || starts[k] != n)
        return REFUSED;
    for (int64_t a = 0; a < k; a++)
        if (starts[a + 1] <= starts[a] || (a && occupied[a] <= occupied[a - 1]))
            return REFUSED;
    for (int64_t x = 0; x < n; x++)
        if (order[x] < 0 || order[x] >= n)
            return REFUSED;
    /* atom-sized scratch: the bitmap and its summary, a union that does
     * not fit in unions, the row lengths, the end of each union */
    int64_t n_words = n / 64 + 1;
    int64_t n_summary = n_words / 64 + 1;
    uint64_t *bits = calloc((size_t)(n_words + n_summary), sizeof *bits);
    int64_t *scratch = malloc((size_t)(2 * n + k) * sizeof *scratch);
    if (!bits || !scratch) {
        free(bits);
        free(scratch);
        return NO_MEMORY;
    }
    uint64_t *summary = bits + n_words;
    int64_t *spill = scratch, *length = spill + n;
    int64_t *end = length + n, total = 0, used = 0, need = 0;
    for (int64_t x = 0; x < n; x++) {
        uint64_t bit = (uint64_t)1 << (order[x] & 63);
        if (bits[order[x] >> 6] & bit) {  /* an atom twice */
            free(bits);
            free(scratch);
            return REFUSED;
        }
        bits[order[x] >> 6] |= bit;
    }
    memset(bits, 0, (size_t)n_words * sizeof *bits);

    /* column c's five ids are occupied[a] + column[c] + [0, 4]: the cells
     * first[c] up to after[c], and their atoms order[starts[first[c]]]
     * up to order[starts[after[c]]] (both cursors stop at k at most) */
    int64_t column[25], first[25], after[25];
    for (int c = 0; c < 25; c++) {
        column[c] = ((int64_t)(c / 5 - 2) * dims[1] + (c % 5 - 2)) * dims[2] - 2;
        first[c] = after[c] = 0;
    }
    for (int64_t a = 0; a < k; a++) {
        int64_t bound = 0;
        for (int c = 0; c < 25; c++) {
            int64_t lo = occupied[a] + column[c], b = first[c], e = after[c];
            while (b < k && occupied[b] < lo)
                b++;
            for (e = e > b ? e : b; e < k && occupied[e] <= lo + 4; e++)
                ;
            first[c] = b;
            after[c] = e;
            int64_t x = starts[b], stop = starts[e];
            for (bound += stop - x; x < stop; x++) {
                int64_t v = order[x];
                bits[v >> 6] |= (uint64_t)1 << (v & 63);
                summary[v >> 12] |= (uint64_t)1 << ((v >> 6) & 63);
            }
        }
        need = used + bound > need ? used + bound : need;
        int64_t *u_a = used + bound <= union_capacity ? unions + used : spill;
        int64_t size = read_marks(bits, summary, n_summary, u_a);
        for (int64_t x = starts[a]; x < starts[a + 1]; x++) {
            int64_t u = order[x], lo = 0, hi = size - 1;
            while (lo < hi) {  /* u's rank: a's own cell is in its stencil */
                int64_t mid = lo + (hi - lo) / 2;
                if (u_a[mid] < u)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            length[u] = size - lo - 1;
            total += length[u];
        }
        used += size;
        end[a] = used;
    }
    *union_size = need;
    if (total <= capacity && need <= union_capacity) {
        offsets[0] = 0;
        for (int64_t u = 0; u < n; u++)
            offsets[u + 1] = offsets[u] + length[u];
        for (int64_t a = 0; a < k; a++)
            for (int64_t x = starts[a]; x < starts[a + 1]; x++) {
                int64_t u = order[x];
                memcpy(neighbors + offsets[u], unions + end[a] - length[u],
                       (size_t)length[u] * sizeof *neighbors);
            }
    }
    free(bits);
    free(scratch);
    return total;
}

/* ---------------------------------------------------------------------
 * exact cut-off pairs
 * ------------------------------------------------------------------- */

/* The pairs (i, j) of a half table (CSR offsets and neighbors of n rows,
 * m entries) with d2 <= cut2, in table order: i and j in the two rows of
 * ij (2 x m), d2 and d = sqrt(d2) in those of dd (2 x m).  *closest gets
 * the first kept pair of least d (numpy's argmin), or -1 when none is
 * kept.  Returns the number kept, REFUSED when the table does not index
 * the n atoms. */
int64_t cutoff_pairs(int64_t n, const double *pos, const int64_t *offsets,
                     const int64_t *neighbors, int64_t m, double cut2,
                     int64_t *ij, double *dd, int64_t *closest)
{
    int64_t *i_out = ij, *j_out = ij + m;
    double *d2_out = dd, *d_out = dd + m;
    if (offsets[0] != 0 || offsets[n] != m)
        return REFUSED;
    for (int64_t i = 0; i < n; i++)
        if (offsets[i + 1] < offsets[i])
            return REFUSED;
    for (int64_t t = 0; t < m; t++)
        if (neighbors[t] < 0 || neighbors[t] >= n)
            return REFUSED;
    int64_t kept = 0, best = -1;
    for (int64_t i = 0; i < n; i++) {
        const double *xi = pos + 3 * i;
        for (int64_t t = offsets[i]; t < offsets[i + 1]; t++) {
            int64_t j = neighbors[t];
            const double *xj = pos + 3 * j;
            double dx = xi[0] - xj[0], dy = xi[1] - xj[1], dz = xi[2] - xj[2];
            double d2 = (dx * dx + dy * dy) + dz * dz;
            if (!(d2 <= cut2))
                continue;
            double d = sqrt(d2);
            if (best < 0 || d < d_out[best])
                best = kept;
            i_out[kept] = i;
            j_out[kept] = j;
            d2_out[kept] = d2;
            d_out[kept] = d;
            kept++;
        }
    }
    *closest = best;
    return kept;
}

/* ---------------------------------------------------------------------
 * bond-tree weights
 * ------------------------------------------------------------------- */

/* Whether every pair (i[k], j[k]) names two of the n atoms. */
static int indexes_atoms(int64_t m, const int64_t *i, const int64_t *j, int64_t n)
{
    for (int64_t k = 0; k < m; k++)
        if (i[k] < 0 || i[k] >= n || j[k] < 0 || j[k] >= n)
            return 0;
    return 1;
}

static int same(int64_t a, int64_t b)
{
    return a == b && a >= 0;
}

/* The (m, 2) elec/vdW weights of the pairs: by_class (5 x 2) at the
 * pair's interaction class from the parent pointers (topology.py; each
 * -1 or one of the n atoms), followed up to the great-grandparent only
 * for pairs in the tree and at most one residue apart.  Other pairs are
 * full (class 4).  REFUSED when a pair leaves the n atoms. */
int64_t pair_weights(int64_t m, const int64_t *i, const int64_t *j, int64_t n,
                     const int64_t *parent, const int64_t *residue,
                     const uint8_t *in_tree, const double *by_class, double *w)
{
    if (!indexes_atoms(m, i, j, n))
        return REFUSED;
    for (int64_t k = 0; k < m; k++) {
        int64_t a = i[k], b = j[k], cls = 4;
        int64_t apart = residue[a] - residue[b];
        if (in_tree[a] && in_tree[b] && apart <= 1 && apart >= -1) {
            int64_t pa = parent[a], pb = parent[b];
            int64_t ga = pa >= 0 ? parent[pa] : -1, gb = pb >= 0 ? parent[pb] : -1;
            int64_t ha = ga >= 0 ? parent[ga] : -1, hb = gb >= 0 ? parent[gb] : -1;
            if (same(pa, b) || same(pb, a))
                cls = 1;
            else if (same(ga, b) || same(gb, a) || same(pa, pb))
                cls = 2;
            else if (same(ha, b) || same(hb, a) || same(ga, pb) || same(gb, pa))
                cls = 3;
        }
        w[2 * k] = by_class[2 * cls];
        w[2 * k + 1] = by_class[2 * cls + 1];
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * pair terms and the force scatter
 * ------------------------------------------------------------------- */

/* Coulomb energy and force magnitude, in the two rows of out (2 x m), of
 * the pairs with d2 <= r2 and d <= cut (0 for the rest), weight column 0
 * of w (m x 2): energy w coulomb_k q_i q_j / (eps d), with kappa the
 * constant permittivity eps, or 0 for eps(d) = d. */
int64_t elec_terms(int64_t m, const int64_t *i, const int64_t *j,
                   const double *d2, const double *d, const double *w,
                   int64_t n, const double *q, double coulomb_k, double kappa,
                   double r2, double cut, double *out)
{
    double *e = out, *mag = out + m;
    if (!indexes_atoms(m, i, j, n))
        return REFUSED;
    for (int64_t k = 0; k < m; k++) {
        if (!(d2[k] <= r2 && d[k] <= cut)) {
            e[k] = mag[k] = 0.0;
            continue;
        }
        double kap = kappa > 0.0 ? kappa : d[k];
        double qq = coulomb_k * w[2 * k] * q[i[k]] * q[j[k]];
        e[k] = qq / (kap * d[k]);
        mag[k] = qq / (kap * d[k] * d[k]);
    }
    return 0;
}

/* 6-12 energy and force magnitude, in the two rows of out (2 x m), of
 * the pairs with d2 <= r2 and d <= cut (0 for the rest), weight column 1
 * of w (m x 2): well depth sqrt(eps_i eps_j), minimum at R_i + R_j. */
int64_t vdw_terms(int64_t m, const int64_t *i, const int64_t *j,
                  const double *d2, const double *d, const double *w,
                  int64_t n, const double *radius, const double *eps,
                  double r2, double cut, double *out)
{
    double *e = out, *mag = out + m;
    if (!indexes_atoms(m, i, j, n))
        return REFUSED;
    for (int64_t k = 0; k < m; k++) {
        if (!(d2[k] <= r2 && d[k] <= cut)) {
            e[k] = mag[k] = 0.0;
            continue;
        }
        double depth = sqrt(eps[i[k]] * eps[j[k]]);
        double dd = radius[i[k]] + radius[j[k]], x = d[k];
        double dd2 = dd * dd, dd6 = dd2 * dd2 * dd2, dd12 = dd6 * dd6;
        double x2 = x * x, x6 = x2 * x2 * x2, x7 = x6 * x, x13 = x6 * x6 * x;
        double ratio6 = dd6 / x6;
        e[k] = w[2 * k + 1] * depth * (ratio6 * ratio6 - 2.0 * ratio6);
        mag[k] = 12.0 * w[2 * k + 1] * depth * (dd12 / x13 - dd6 / x7);
    }
    return 0;
}

/* forces (n x 3, zeroed by the caller) = sum over pairs of +mag e_ij on i
 * and -mag e_ij on j, e_ij = (x_i - x_j) / d, added in pair order. */
int64_t scatter_forces(int64_t n, const double *pos, int64_t m, const int64_t *i,
                       const int64_t *j, const double *d, const double *mag,
                       double *forces)
{
    if (!indexes_atoms(m, i, j, n))
        return REFUSED;
    for (int64_t k = 0; k < m; k++) {
        const double *xi = pos + 3 * i[k], *xj = pos + 3 * j[k];
        for (int s = 0; s < 3; s++) {
            double f = mag[k] * ((xi[s] - xj[s]) / d[k]);
            forces[3 * i[k] + s] += f;
            forces[3 * j[k] + s] -= f;
        }
    }
    return 0;
}
