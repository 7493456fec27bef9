/* The per-link passes of the folding loop (chain.py, kcm.py), one entry
 * point each: forward kinematics over the link table, the per-link
 * wrench sums of the atom forces, and the joint torques from the
 * subtree wrenches.
 *
 * The links are the rows of chain.LinkArrays: row 0 is the ground link
 * and every other row's parent has a lower index, so one forward pass
 * over the parent column places the tree and one reverse pass sums it.
 * Transforms are row-major 3 x 3, vectors 3 doubles, wrenches 6 doubles
 * (force, then moment about the origin).
 *
 * Each pass computes what its numpy reference in tests/oracles.py
 * computes, built with -ffp-contract=off so no step is fused.  Wrenches,
 * summed in atom order with numpy's cross, are bitwise the reference's.
 * The other passes keep a fixed C order, each 3-term dot product (a0*b0 +
 * a1*b1) + a2*b2, where numpy's matmul and einsum may round in another:
 * transforms, positions and torques agree with the references to rounding.
 *
 * Link l >= 1 turns by theta[l - 1], so the n_links - 1 dofs are the
 * rows after the ground.  Every entry point returns 0, NO_MEMORY when
 * scratch memory cannot be allocated, or REFUSED when a parent or owning
 * link is out of range (the codes of pairs.c and native.py).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NO_MEMORY (-1)
#define REFUSED (-2)

static const double RADIANS_PER_DEGREE = 3.14159265358979323846 / 180.0;

static double dot(const double *a, const double *b)
{
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2];
}

static void cross(const double *a, const double *b, double *out)
{
    out[0] = a[1] * b[2] - a[2] * b[1];
    out[1] = a[2] * b[0] - a[0] * b[2];
    out[2] = a[0] * b[1] - a[1] * b[0];
}

/* out = m v for a row-major 3 x 3 m */
static void apply(const double *m, const double *v, double *out)
{
    for (int r = 0; r < 3; r++)
        out[r] = dot(m + 3 * r, v);
}

/* Whether every link but the ground follows its parent. */
static int valid_links(int64_t n_links, const int64_t *parent)
{
    for (int64_t l = 1; l < n_links; l++)
        if (parent[l] < 0 || parent[l] >= l)
            return 0;
    return 1;
}

/* Whether each of the n_atoms atoms is owned by one of the n_links links. */
static int valid_owners(int64_t n_links, int64_t n_atoms, const int64_t *owner)
{
    for (int64_t a = 0; a < n_atoms; a++)
        if (owner[a] < 0 || owner[a] >= n_links)
            return 0;
    return 1;
}

/* out = a b for row-major 3 x 3 a and b */
static void product(const double *a, const double *b, double *out)
{
    for (int r = 0; r < 3; r++)
        for (int c = 0; c < 3; c++)
            out[3 * r + c] = (a[3 * r] * b[c] + a[3 * r + 1] * b[3 + c])
                             + a[3 * r + 2] * b[6 + c];
}

/* Forward kinematics.  Per link l >= 1, the joint rotation by theta[l - 1]
 * degrees about the reference axis u = axis0[l], R = (I + sin(t) K) +
 * (1 - cos(t)) K K with K v = u x v, then
 *   M[l] = M[parent] R,  P[l] = P[parent] + M[parent] body0[parent],
 * with M[0] = I and P[0] = 0; axes[l] = M[l] axis0[l] for every link.
 * Each of the n_atoms atoms is placed at P[owner] + M[owner] offset, its
 * offset from its link's joint point in the reference build. */
int64_t forward_links(int64_t n_links, const int64_t *parent, const double *theta,
                      const double *axis0, const double *body0, int64_t n_atoms,
                      const int64_t *owner, const double *offset, double *M, double *P,
                      double *axes, double *pos)
{
    if (n_links < 1 || !valid_links(n_links, parent)
        || !valid_owners(n_links, n_atoms, owner))
        return REFUSED;
    memset(M, 0, 9 * sizeof *M);
    M[0] = M[4] = M[8] = 1.0;
    P[0] = P[1] = P[2] = 0.0;
    apply(M, axis0, axes);
    for (int64_t l = 1; l < n_links; l++) {
        const double *u = axis0 + 3 * l;
        const double K[9] = {0.0, -u[2], u[1], u[2], 0.0, -u[0], -u[1], u[0], 0.0};
        double t = theta[l - 1] * RADIANS_PER_DEGREE;
        double s = sin(t), c = 1.0 - cos(t), KK[9], R[9];
        product(K, K, KK);
        for (int e = 0; e < 9; e++)
            R[e] = ((e % 4 == 0) + s * K[e]) + c * KK[e];
        const double *Mp = M + 9 * parent[l];
        product(Mp, R, M + 9 * l);
        double body[3];
        apply(Mp, body0 + 3 * parent[l], body);
        for (int x = 0; x < 3; x++)
            P[3 * l + x] = P[3 * parent[l] + x] + body[x];
        apply(M + 9 * l, u, axes + 3 * l);
    }
    for (int64_t a = 0; a < n_atoms; a++) {
        double rel[3];
        apply(M + 9 * owner[a], offset + 3 * a, rel);
        for (int x = 0; x < 3; x++)
            pos[3 * a + x] = P[3 * owner[a] + x] + rel[x];
    }
    return 0;
}

/* out (n_links x 6) = per link, the sum over its atoms, in atom order, of
 * the force and of pos x force. */
int64_t link_wrenches(int64_t n_links, int64_t n_atoms, const int64_t *owner,
                      const double *pos, const double *force, double *out)
{
    if (!valid_owners(n_links, n_atoms, owner))
        return REFUSED;
    memset(out, 0, (size_t)(6 * n_links) * sizeof *out);
    for (int64_t a = 0; a < n_atoms; a++) {
        const double *f = force + 3 * a;
        double moment[3], *w = out + 6 * owner[a];
        cross(pos + 3 * a, f, moment);
        for (int s = 0; s < 3; s++) {
            w[s] += f[s];
            w[3 + s] += moment[s];
        }
    }
    return 0;
}

/* tau[l - 1] = u . moment - (u x p) . force for every link l >= 1, with
 * u = axes[l], p = points[l] and (force, moment) the total wrench of the
 * subtree under l: one reverse pass adds each link's row of a copy of
 * wrenches (n_links x 6) into its parent's.  wrenches is left as given. */
int64_t joint_torques(int64_t n_links, const int64_t *parent, const double *wrenches,
                      const double *axes, const double *points, double *tau)
{
    if (n_links < 1 || !valid_links(n_links, parent))
        return REFUSED;
    double *total = malloc((size_t)(6 * n_links) * sizeof *total);
    if (!total)
        return NO_MEMORY;
    memcpy(total, wrenches, (size_t)(6 * n_links) * sizeof *total);
    for (int64_t l = n_links - 1; l > 0; l--)
        for (int s = 0; s < 6; s++)
            total[6 * parent[l] + s] += total[6 * l + s];
    for (int64_t l = 1; l < n_links; l++) {
        const double *u = axes + 3 * l, *w = total + 6 * l;
        double arm[3];
        cross(u, points + 3 * l, arm);
        tau[l - 1] = dot(u, w + 3) - dot(arm, w);
    }
    free(total);
    return 0;
}
