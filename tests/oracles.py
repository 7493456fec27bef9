"""Independent reference implementations used to check the fast paths.

Everything here favors clarity over speed: quadratic scans, full
recounts, and per-joint sequential rotations.  The oracles share float
primitives with the library (same IEEE ops) but not algorithms.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from kinefold import chain as ch
from kinefold.chain import Chain, KinematicState, LinkArrays
from kinefold.errors import (
    ChainBuildError,
    ConfigurationError,
    DisconnectedBondGraphError,
    NonFiniteTorqueError,
    ParameterFileError,
    StericClashError,
)
from kinefold.forcefield import COULOMB_K, MIN_DISTANCE, AtomParams
from kinefold.geometry import (
    AXIS_UNIT_TOL,
    dihedral_angle,
    frame_from_backbone,
    norms,
    signed_degrees,
    unit_vector,
    wrap_degrees,
)
from kinefold.kcm import Field
from kinefold.pdbio import _ELEMENT_FALLBACK, _GENERIC_FALLBACK
from kinefold.residues import default_templates
from kinefold.solvation import _force_quantum, offset_radii
from kinefold.spatial import EDGE_PER_CUTOFF, MAX_SPAN, HashGrid, NeighborTable, reach
from kinefold.topology import BondTree, InteractionClass

from .conftest import atom_index


def rotation_about_axis(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit ``axis`` by ``angle_deg``.

    The axis must already be unit length (within 1e-9); right-handed sign
    convention, so ``rotation_about_axis(z, 90) @ x == y``.
    """
    axis = np.asarray(axis, dtype=float)
    if abs(float(np.linalg.norm(axis)) - 1.0) > AXIS_UNIT_TOL:
        raise ConfigurationError(
            f"rotation axis must be unit length, got norm {np.linalg.norm(axis):.3e}"
        )
    t = math.radians(angle_deg)
    c, s = math.cos(t), math.sin(t)
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def measure_backbone_dihedrals(chain, positions: np.ndarray):
    """(phi, psi) measured directly from coordinates; NaN where undefined."""
    m = chain.n_residues
    phi = np.full(m, np.nan)
    psi = np.full(m, np.nan)
    for i in range(m):
        n_i = positions[atom_index(chain, i, "N")]
        ca_i = positions[atom_index(chain, i, "CA")]
        c_i = positions[atom_index(chain, i, "C")]
        if i > 0:
            c_prev = positions[atom_index(chain, i - 1, "C")]
            phi[i] = dihedral_angle(c_prev, n_i, ca_i, c_i)
        if i + 1 < m:
            n_next = positions[atom_index(chain, i + 1, "N")]
            psi[i] = dihedral_angle(n_i, ca_i, c_i, n_next)
    return phi, psi


def template_bonds(chain) -> set[tuple[int, int]]:
    """The bonds of a canonical chain by declaration: every template
    atom's bond to its ``parent``, plus N-CA, CA-C, N-H, C-O, the
    terminal C-OXT and the peptide bonds, as (low, high) index pairs."""
    bonds = set()
    for i, code in enumerate(chain.residues):
        pairs = [("N", "CA"), ("CA", "C"), ("N", "H"), ("C", "O")]
        pairs += [(ta.parent, ta.name) for ta in default_templates().get(code).atoms]
        if i + 1 == chain.n_residues:
            pairs.append(("C", "OXT"))
        ends = [(atom_index(chain, i, x), atom_index(chain, i, y)) for x, y in pairs]
        if i:
            ends.append((atom_index(chain, i - 1, "C"), atom_index(chain, i, "N")))
        bonds.update((min(a, b), max(a, b)) for a, b in ends)
    return bonds


def theta_from_dihedrals(chain, phi, psi, chi=None):
    """The index map: (phi, psi, chi) in degrees -> conformation; the
    inverse of ``chain.dihedrals_from_theta``."""
    conf = chain.conf_from_backbone(phi, psi)
    if chi:
        theta = conf.theta.copy()
        for (i, k), value in chi.items():
            li = _chi_link_index(chain, i, k)
            theta[li - 1] = wrap_degrees(value - chain.links.chi0[li])
        conf = replace(conf, theta=theta)
    return conf


def link_kind(chain, li: int) -> str:
    """ground, phi, psi or chi: what link ``li`` is, read from its row
    (the ground, then a phi and a psi link per residue, then the chi
    links)."""
    if li == 0:
        return "ground"
    if li <= 2 * chain.n_residues:
        return "phi" if li % 2 else "psi"
    return "chi"


def _chi_link_index(chain, i: int, k: int) -> int:
    links = chain.links
    for li in range(len(links)):  # chi index k >= 1 marks a chi link
        if links.residue[li] == i and links.chi_index[li] == k:
            return li
    raise KeyError((i, k))


# --------------------------------------------------------------------------
# numpy references of the native pair stages (pairs.c): grid, table,
# pairs, squared distances and classes are bitwise equal to the native
# ones, pair terms and forces (which bincount sums in another order)
# equal to rounding
# --------------------------------------------------------------------------

# the 62 offsets in [-2, 2]^3 lexicographically above (0, 0, 0)
FORWARD = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), -1).reshape(-1, 3)[63:]


def squared_norms(diff):
    """``(dx*dx + dy*dy) + dz*dz`` per row, the one order of the native
    stages; ``einsum`` sums in an order that varies with the numpy build."""
    return (diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]) + diff[:, 2] * diff[:, 2]


def build_grid(positions, d_cut) -> HashGrid:
    """``spatial.build_grid``: cells by ``floor``, ids by a stable argsort."""
    if not (math.isfinite(d_cut) and d_cut > 0):
        raise ConfigurationError(f"cutoff must be positive and finite, got {d_cut}")
    positions = np.asarray(positions, float)
    if positions.ndim != 2 or positions.shape[1] != 3 or len(positions) < 1:
        raise ConfigurationError("positions must be a non-empty (n, 3) array")
    if not np.isfinite(positions).all():
        raise ConfigurationError("non-finite coordinates cannot be hashed")
    r_min = positions.min(axis=0)
    if np.any(positions.max(axis=0) - r_min > MAX_SPAN * d_cut):
        raise ConfigurationError(
            f"coordinates span more than {MAX_SPAN:g} cutoffs of {d_cut} A on an axis")
    cells = np.floor((positions - r_min) / (EDGE_PER_CUTOFF * d_cut)).astype(np.int64)
    dims = cells.max(axis=0) + 3
    lin = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    order = np.argsort(lin, kind="stable")
    occupied, starts = np.unique(lin[order], return_index=True)
    return HashGrid(dims=dims, order=order, occupied=occupied,
                    starts=np.append(starts, len(order)))


def _segment_arange(lengths):
    """[0..l0-1, 0..l1-1, ...] for consecutive segment lengths."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)


def build_neighbor_table(grid: HashGrid, work=None) -> NeighborTable:
    """``spatial.build_neighbor_table``: the pairs inside each cell and
    between a cell and its occupied forward neighbors, sorted as keys
    ``i * n + j`` into a half table.  ``work`` is ignored, as in every
    stage reference here: the outputs are fresh arrays."""
    order, occ = grid.order, grid.occupied
    starts, counts = grid.starts[:-1], np.diff(grid.starts)
    n = len(order)
    rest = np.repeat(starts + counts, counts) - np.arange(1, n + 1)
    i_in = np.repeat(order, rest)
    j_in = order[np.repeat(np.arange(1, n + 1), rest) + _segment_arange(rest)]
    d1, d2 = int(grid.dims[1]), int(grid.dims[2])
    off = (FORWARD[:, 0] * d1 + FORWARD[:, 1]) * d2 + FORWARD[:, 2]
    target = (occ[:, None] + off).ravel()
    hit = np.minimum(np.searchsorted(occ, target), len(occ) - 1)
    found = occ[hit] == target
    a_cell = np.repeat(np.arange(len(occ)), len(off))[found]
    b_cell = hit[found]
    la = counts[a_cell]
    b_rows = np.repeat(b_cell, la)
    lb = counts[b_rows]
    i_x = np.repeat(order[np.repeat(starts[a_cell], la) + _segment_arange(la)], lb)
    j_x = order[np.repeat(starts[b_rows], lb) + _segment_arange(lb)]
    i = np.concatenate([i_in, i_x])
    j = np.concatenate([j_in, j_x])
    i, j = np.divmod(np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(i, minlength=n), out=offsets[1:])
    return NeighborTable(offsets=offsets, neighbors=j)


def table_pairs(table: NeighborTable):
    """(row, entry) for every entry of ``table``, sorted by row: for a half
    table the unordered pairs (i < j), each once, sorted by (i, j)."""
    return np.repeat(np.arange(len(table)), np.diff(table.offsets)), table.neighbors


def extract_pairs(positions, table: NeighborTable, d_cut, work=None):
    """``forcefield.extract_pairs``: (i, j, d2, d) of the pairs within
    ``d_cut``, after the clash guard on the first pair of least d."""
    i, j = table_pairs(table)
    d2 = squared_norms(positions[i] - positions[j])
    keep = d2 <= d_cut * d_cut
    i, j, d2 = i[keep], j[keep], d2[keep]
    d = np.sqrt(d2)
    if len(d) and float(d.min()) < MIN_DISTANCE:
        k = int(np.argmin(d))
        raise StericClashError(
            f"atoms {i[k]} and {j[k]} closer than {MIN_DISTANCE} A (d={d[k]:.3e})")
    return i, j, d2, d


def symmetric_rows(n, i, j) -> NeighborTable:
    """Symmetric per-atom rows of the pairs (i < j, sorted by (i, j)) by a
    stable sort of the rows ``[j, i]``: row a first gets the partners
    i < a of the pairs (i, a), in ascending i, then the partners j > a of
    the pairs (a, j), in ascending j, so every row comes out ascending."""
    rows = np.concatenate([j, i])
    order = np.argsort(rows, kind="stable")
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return NeighborTable(offsets=offsets, neighbors=np.concatenate([i, j])[order])


def filtered_lists(i, j, d2, r_off, delta_r, work=None) -> NeighborTable:
    """``spatial.filtered_lists``: the numpy reach mask, then the pairs in
    reach as ``symmetric_rows``."""
    rc = reach(r_off[i], r_off[j], delta_r)
    kc = d2 <= rc * rc
    return symmetric_rows(len(r_off), i[kc], j[kc])


def cutoff_lists(table, positions, d_cut):
    """Ascending per-atom neighbor rows at ``d_cut``: the table's pairs
    with ``d2 <= d_cut**2``, symmetrised as ``Field.evaluate`` builds the
    cavity rows."""
    i, j, _, _ = extract_pairs(positions, table, d_cut)
    return symmetric_rows(len(table), i, j)


def _eq(a, b):
    return (a == b) & (a >= 0)


def classify_pairs(tree, i, j):
    """Interaction classes of the pairs from the parent, grandparent and
    great-grandparent pointers; 1-2 overrides 1-3 overrides 1-4."""
    i = np.asarray(i, np.int64)
    j = np.asarray(j, np.int64)
    out = np.full(i.shape, int(InteractionClass.FULL), np.int64)
    near = (tree.chain_mask[i] & tree.chain_mask[j]
            & (np.abs(tree.residue_of[i] - tree.residue_of[j]) <= 1))
    ii, jj = i[near], j[near]
    p = tree.parent
    gp = np.where(p >= 0, p[p], -1)
    gg = np.where(gp >= 0, p[gp], -1)
    is14 = (_eq(gg[ii], jj) | _eq(gg[jj], ii)
            | _eq(gp[ii], p[jj]) | _eq(gp[jj], p[ii]))
    is13 = _eq(gp[ii], jj) | _eq(gp[jj], ii) | _eq(p[ii], p[jj])
    is12 = _eq(p[ii], jj) | _eq(p[jj], ii)
    cls = np.full(ii.shape, int(InteractionClass.FULL), np.int64)
    cls[is14] = int(InteractionClass.PAIR14)
    cls[is13] = int(InteractionClass.PAIR13)
    cls[is12] = int(InteractionClass.BONDED12)
    out[near] = cls
    return out


def weights_for(tree, table, i, j):
    """``TreeWeights.weights_for``: (m, 2) weights by interaction class."""
    return table.by_class()[classify_pairs(tree, i, j)]


def _term_pairs(i, j, d2, d, cutoffs, cut):
    r = max(cutoffs.elec, cutoffs.vdw)
    keep = (d2 <= r * r) & (d <= cut)
    return keep, i[keep], j[keep], d[keep]


def elec_pair_quantities(params, i, j, d2, d, w, dielectric, cutoffs, work=None):
    """``forcefield.elec_pair_quantities``: 0 outside the term's pairs."""
    keep, i, j, d = _term_pairs(i, j, d2, d, cutoffs, cutoffs.elec)
    kap = d if dielectric.kappa is None else dielectric.kappa
    qq = COULOMB_K * w[keep, 0] * params.q[i] * params.q[j]
    e, mag = np.zeros(len(keep)), np.zeros(len(keep))
    e[keep] = qq / (kap * d)
    mag[keep] = qq / (kap * d * d)
    return e, mag


def vdw_pair_quantities(params, i, j, d2, d, w, cutoffs, work=None):
    """``forcefield.vdw_pair_quantities``, powers by multiplication as in
    the native term (numpy's vectorised ``pow`` rounds differently)."""
    keep, i, j, d = _term_pairs(i, j, d2, d, cutoffs, cutoffs.vdw)
    depth = np.sqrt(params.eps[i] * params.eps[j])
    dd = params.R[i] + params.R[j]
    dd2 = dd * dd
    dd6 = dd2 * dd2 * dd2
    dd12 = dd6 * dd6
    x2 = d * d
    x6 = x2 * x2 * x2
    x7 = x6 * d
    x13 = x6 * x6 * d
    ratio6 = dd6 / x6
    e, mag = np.zeros(len(keep)), np.zeros(len(keep))
    e[keep] = w[keep, 1] * depth * (ratio6 * ratio6 - 2.0 * ratio6)
    mag[keep] = 12.0 * w[keep, 1] * depth * (dd12 / x13 - dd6 / x7)
    return e, mag


def accumulate_pair_forces(n, positions, i, j, d, mag):
    """``forcefield.accumulate_pair_forces`` by ``bincount``."""
    out = np.zeros((n, 3))
    if len(d) == 0:
        return out
    f = mag[:, None] * ((positions[i] - positions[j]) / d[:, None])
    for axis in range(3):
        out[:, axis] += np.bincount(i, weights=f[:, axis], minlength=n)
        out[:, axis] -= np.bincount(j, weights=f[:, axis], minlength=n)
    return out


# --------------------------------------------------------------------------
# numpy references of the native link passes (links.c): wrenches are
# bitwise equal to the native ones, transforms, positions and torques
# equal to rounding
# --------------------------------------------------------------------------

def kinematic_state(chain, conf) -> KinematicState:
    """``chain.kinematic_state``: batched Rodrigues rotations, then one
    forward pass over the links, ``M[li] = M[parent] @ R[li]`` and
    ``P[li] = P[parent] + M[parent] @ body0[parent]``."""
    chain.validate_conformation(conf)
    arr = chain.links
    t = np.radians(conf.theta)[:, None, None]  # link l turns by theta[l - 1]
    x, y, z = arr.axis0[1:].T
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)
    rot = np.eye(3) + np.sin(t) * k + (1.0 - np.cos(t)) * (k @ k)
    parent = arr.parent
    n_links = len(parent)
    M = np.empty((n_links, 3, 3))
    M[0] = np.eye(3)
    for li in range(1, n_links):
        M[li] = M[parent[li]] @ rot[li - 1]
    body = np.einsum("lij,lj->li", M, arr.body0)
    P = np.zeros((n_links, 3))
    for li in range(1, n_links):
        P[li] = P[parent[li]] + body[parent[li]]
    axes = np.einsum("lij,lj->li", M, arr.axis0)
    owner = chain.atom_link
    offset = chain.zp_pos - arr.point0[owner]
    pos = P[owner] + np.einsum("aij,aj->ai", M[owner], offset)
    return KinematicState(transforms=M, joint_points=P, axes=axes, positions=pos)


def link_wrenches(chain, positions, forces):
    """``kcm.link_wrenches`` by ``bincount`` of the forces and of
    ``np.cross(positions, forces)``."""
    n_links = len(chain.links)
    moments = np.cross(positions, forces)
    out = np.zeros((n_links, 6))
    for axis in range(3):
        out[:, axis] = np.bincount(chain.atom_link, weights=forces[:, axis],
                                   minlength=n_links)
        out[:, 3 + axis] = np.bincount(chain.atom_link, weights=moments[:, axis],
                                       minlength=n_links)
    return out


def joint_torques(chain, state, wrenches):
    """``kcm.joint_torques``: the reverse parent-pointer pass over a copy
    of the wrenches, then one vectorized projection."""
    arr = chain.links
    total = np.array(wrenches, float)
    for li in range(len(arr) - 1, 0, -1):
        total[arr.parent[li]] += total[li]
    u = state.axes[1:]
    arm = np.cross(u, state.joint_points[1:])
    proj = (np.einsum("li,li->l", u, total[1:, 3:])
            - np.einsum("li,li->l", arm, total[1:, :3]))
    return proj  # link l's torque is tau[l - 1]


# --------------------------------------------------------------------------
# brute-force neighbors
# --------------------------------------------------------------------------

def brute_force_pairs(positions, d_cut):
    """All-pairs cut-off scan (no hashing): the pairs (i < j, sorted by
    (i, j)) within ``d_cut`` and their distances."""
    positions = np.asarray(positions, float)
    n = len(positions)
    iu, ju = np.triu_indices(n, k=1)
    d2 = squared_norms(positions[iu] - positions[ju])
    keep = d2 <= d_cut * d_cut
    return iu[keep], ju[keep], np.sqrt(d2[keep])


def brute_table(positions, d_cut) -> NeighborTable:
    """All-pairs half table: the quadratic scan in the hashed table's
    format.  The brute-force pairs are already sorted by (i, j)."""
    i, j, _ = brute_force_pairs(positions, d_cut)
    offsets = np.searchsorted(i, np.arange(len(positions) + 1))
    return NeighborTable(offsets=offsets, neighbors=j)


class BruteField(Field):
    """A ``Field`` whose neighbor table is the all-pairs scan instead of
    the spatial hash; everything after the table is the library's."""

    def _neighbor_table(self, positions):
        return brute_table(positions, self.table_cutoff)


def brute_neighbor_sets(positions, d_cut):
    """All-pairs exact cut-off neighborhoods as a list of index sets."""
    positions = np.asarray(positions, float)
    n = len(positions)
    out = []
    for i in range(n):
        diff = positions - positions[i]
        d2 = (diff * diff).sum(1)
        mask = (d2 <= d_cut * d_cut) & (np.arange(n) != i)
        out.append(set(np.flatnonzero(mask).tolist()))
    return out


def pair_elec_force(q1, q2, d, kappa, k_coulomb=332.06):
    """Hand evaluation of one Coulomb pair force magnitude."""
    return k_coulomb * q1 * q2 / (kappa * d * d)


def pair_elec_energy(q1, q2, d, kappa, k_coulomb=332.06):
    return k_coulomb * q1 * q2 / (kappa * d)


def pair_vdw_energy(eps1, eps2, r1, r2, d):
    eps = math.sqrt(eps1 * eps2)
    ratio6 = ((r1 + r2) / d) ** 6
    return eps * (ratio6 * ratio6 - 2.0 * ratio6)


def pair_vdw_force(eps1, eps2, r1, r2, d):
    eps = math.sqrt(eps1 * eps2)
    dd = r1 + r2
    return 12.0 * eps * (dd**12 / d**13 - dd**6 / d**7)


def brute_elec_energy(positions, q, d_cut, kappa_of, weights=None, k_coulomb=332.06):
    """O(n^2) truncated Coulomb sum, unordered pairs."""
    n = len(positions)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(positions[i] - positions[j]))
            if d > d_cut:
                continue
            w = 1.0 if weights is None else weights(i, j)
            total += k_coulomb * w * q[i] * q[j] / (kappa_of(d) * d)
    return total


def brute_vdw_energy(positions, eps, r, d_cut, weights=None):
    n = len(positions)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(positions[i] - positions[j]))
            if d > d_cut:
                continue
            w = 1.0 if weights is None else weights(i, j)
            total += w * pair_vdw_energy(eps[i], eps[j], r[i], r[j], d)
    return total


def two_sphere_exposed_area(r_off, d):
    """Analytic exposed area of one of two equal spheres at separation d."""
    h = r_off - d / 2.0
    return 4.0 * math.pi * r_off**2 - 2.0 * math.pi * r_off * h


def distance_exposure_states(positions, params, neighbors, sphere, config):
    """Reference exposure pass: the (N, nb, 3) distance test on every
    (sample, neighbor) pair, with no early exit.  Returns (counts,
    critical, f_exp)."""
    positions = np.asarray(positions, float)
    n = len(positions)
    nq = sphere.n
    r_off = offset_radii(params, config)
    r_off2 = r_off * r_off
    counts = np.zeros((n, nq), np.uint8)
    critical = np.full((n, nq), -1, np.int32)
    covered = np.zeros(n, np.int64)
    for i in range(n):
        nb = np.asarray(neighbors[i], int)
        if len(nb) == 0:
            continue
        pts = positions[i] + r_off[i] * sphere.points
        diff = pts[:, None, :] - positions[nb][None, :, :]
        cov = (diff * diff).sum(-1) <= r_off2[nb][None, :]
        cnt = np.minimum(cov.sum(1), 2)
        counts[i] = cnt
        hit = cnt == 1
        critical[i, hit] = nb[np.argmax(cov[hit], axis=1)]
        covered[i] = int((cnt > 0).sum())
    return counts, critical, (nq - covered) / float(nq)


def critical_neighbor_forces(positions, params, neighbors, sphere, config):
    """The pruned force pass on the distance oracle's own states: an
    exposed sample tests every neighbor moved by +delta_r along each axis,
    a count-1 sample only the critical neighbor the oracle names, each
    test in the order of the distance test.  The same fixed point as the
    production path, so agreement can be checked bitwise."""
    positions = np.asarray(positions, float)
    n = len(positions)
    nq = sphere.n
    r_off = offset_radii(params, config)
    r_off2 = r_off * r_off
    counts, critical, _ = distance_exposure_states(positions, params, neighbors,
                                                   sphere, config)
    w_int, quantum = _force_quantum(params, r_off, nq, config.delta_r)
    acc = np.zeros((n, 3), np.int64)
    for i in range(n):
        nb = np.asarray(neighbors[i], int)
        w = w_int[i]
        if len(nb) == 0 or w == 0:
            continue
        pts = positions[i] + r_off[i] * sphere.points
        exposed = pts[counts[i] == 0]
        single = pts[counts[i] == 1]
        j = critical[i, counts[i] == 1].astype(int)
        for s in range(3):
            diff = exposed[:, None, :] - positions[nb][None, :, :]
            diff[..., s] = exposed[:, None, s] - (positions[nb, s] + config.delta_r)
            gained = ((diff * diff).sum(-1) <= r_off2[nb][None, :]).sum(0)
            acc[i, s] -= int(gained.sum()) * w
            np.add.at(acc[:, s], nb, gained * w)
            diff = single - positions[j]
            diff[:, s] = single[:, s] - (positions[j, s] + config.delta_r)
            lost = ~((diff * diff).sum(-1) <= r_off2[j])
            acc[i, s] += int(lost.sum()) * w
            np.add.at(acc[:, s], j, lost * -w)
    return acc.astype(float) * quantum


def naive_solvation_forces(positions, params, neighbors, sphere, config):
    """Unoptimized displaced-recount force variant (binary coverage).

    For every atom, sample, neighbor, and axis, recount full coverage
    with that one neighbor displaced and convert exposure flips into
    paired contributions.  Uses the same fixed-point representation as
    the production path so agreement can be checked bitwise.
    """
    positions = np.asarray(positions, float)
    n = len(positions)
    nq = sphere.n
    r_off = offset_radii(params, config)
    r_off2 = r_off * r_off
    w_int, quantum = _force_quantum(params, r_off, nq, config.delta_r)
    acc = np.zeros((n, 3), np.int64)
    for i in range(n):
        nb = neighbors[i]
        if len(nb) == 0 or w_int[i] == 0:
            continue
        pts = positions[i] + r_off[i] * sphere.points
        diff = pts[:, None, :] - positions[nb][None, :, :]
        before = ((diff * diff).sum(-1) <= r_off2[nb][None, :]).any(1)
        for jx in range(len(nb)):
            j = int(nb[jx])
            for s in range(3):
                shifted = positions[nb].copy()
                shifted[jx, s] += config.delta_r
                diff = pts[:, None, :] - shifted[None, :, :]
                after = ((diff * diff).sum(-1) <= r_off2[nb][None, :]).any(1)
                newly_covered = int((~before & after).sum())
                newly_exposed = int((before & ~after).sum())
                if newly_covered:
                    acc[i, s] -= newly_covered * w_int[i]
                    acc[j, s] += newly_covered * w_int[i]
                if newly_exposed:
                    acc[i, s] += newly_exposed * w_int[i]
                    acc[j, s] -= newly_exposed * w_int[i]
    return acc.astype(float) * quantum


def recounted_g_cav(positions, params, neighbors, sphere, config):
    """Direct coverage count -> solvation energy (no state machinery)."""
    positions = np.asarray(positions, float)
    r_off = offset_radii(params, config)
    total = 0.0
    for i in range(len(positions)):
        nb = neighbors[i]
        pts = positions[i] + r_off[i] * sphere.points
        if len(nb):
            diff = pts[:, None, :] - positions[nb][None, :, :]
            covered = ((diff * diff).sum(-1) <= (r_off[nb] ** 2)[None, :]).any(1)
            f = 1.0 - covered.sum() / sphere.n
        else:
            f = 1.0
        total += params.gamma[i] * f * 4.0 * math.pi * r_off[i] ** 2
    return total


def quadratic_joint_torques(chain, state, wrenches):
    """Column-scan torque aggregation: one (joint, link) product per pair."""
    links = chain.links
    n_links = len(links)
    subtree = _subtree_links(chain)
    tau = np.zeros(chain.n_dof)
    for li in range(1, n_links):
        u = state.axes[li]
        p = state.joint_points[li]
        total = 0.0
        for h in range(n_links):
            if li in subtree[h]:
                total += float(u @ wrenches[h, 3:]
                               - np.cross(u, p) @ wrenches[h, :3])
        tau[li - 1] = total
    return tau


def reference_kcm_step(tau, conf, kappa):
    """The compliance step as first written, returning (theta, deltas).

    It tests the torques for NaN/inf and takes the peak over the free
    dofs itself, masks the deltas, and then masks them again and wraps
    theta with ``np.mod`` before the new conformation wrapped it a second
    time."""
    bad = np.flatnonzero(~np.isfinite(tau))
    if bad.size:
        raise NonFiniteTorqueError(f"non-finite torque {tau[bad[0]]} on dof {bad[0]}")
    free = ~conf.frozen
    if not free.any():
        raise ConfigurationError("cannot step with every joint frozen")
    tau_max = float(np.max(np.abs(tau[free])))
    if tau_max == 0.0:
        return conf.theta, np.zeros_like(tau)
    with np.errstate(over="ignore"):  # a frozen dof's quotient may overflow
        deltas = np.where(free, kappa * tau / tau_max, 0.0)
    step = np.where(conf.frozen, 0.0, deltas)
    return np.mod(np.mod(conf.theta + step, 360.0), 360.0), deltas


def _subtree_links(chain):
    """For each link h: the set of joints (link ids) on its path to ground."""
    links = chain.links
    ancestors = []
    for li in range(len(links)):
        path = set()
        cur = li
        while cur > 0:  # up to, not into, the ground link
            path.add(cur)
            cur = links.parent[cur]
        ancestors.append(path)
    return ancestors


def twist_fk(chain, conf):
    """Moving-axis forward kinematics: rotate each joint's whole subtree
    about its current axis, root to leaf."""
    positions = chain.zp_pos.copy()
    links = chain.links
    children: dict[int, list[int]] = {}
    for li, pa in enumerate(links.parent):
        children.setdefault(pa, []).append(li)

    def descend(li):
        out = list(np.flatnonzero(chain.atom_link == li))
        for ch in children.get(li, []):
            out.extend(descend(ch))
        return out

    for li in range(1, len(links)):
        theta = float(conf.theta[li - 1])
        src, dst = _axis_atoms(chain, li, positions)
        axis = dst - src
        axis = axis / np.linalg.norm(axis)
        rot = rotation_about_axis(axis, theta)
        idx = np.array(descend(li))
        positions[idx] = src + (positions[idx] - src) @ rot.T
    return positions


def _axis_atoms(chain, li, positions):
    """Current axis endpoints of a joint, looked up by atom name."""
    kind, res = link_kind(chain, li), int(chain.links.residue[li])
    if kind == "phi":
        return positions[atom_index(chain, res, "N")], positions[atom_index(chain, res, "CA")]
    if kind == "psi":
        return positions[atom_index(chain, res, "CA")], positions[atom_index(chain, res, "C")]
    # chi joints: recover endpoint names from the template joint table
    spec =default_templates().get(chain.residues[res])
    src_name, dst_name = spec.joints[chain.links.chi_index[li] - 1]
    return (positions[atom_index(chain, res, src_name)],
            positions[atom_index(chain, res, dst_name)])


def bfs_tree_distance(parent, i, j, cap=5):
    """Shortest path length between i and j along the tree, capped."""
    anc_i = _ancestry(parent, i, cap)
    anc_j = _ancestry(parent, j, cap)
    best = None
    for a, da in anc_i.items():
        if a in anc_j:
            d = da + anc_j[a]
            best = d if best is None else min(best, d)
    return best if best is not None else cap + 1


def _ancestry(parent, x, cap):
    out = {x: 0}
    cur = x
    for d in range(1, cap + 1):
        cur = parent[cur]
        if cur < 0:
            break
        out[int(cur)] = d
    return out


# --------------------------------------------------------------------------
# per-residue references of the set-up passes: the chain builder, the bond
# tree and the parameter lookup as one loop per residue, link and atom.
# The library's array passes must equal them byte for byte.
# --------------------------------------------------------------------------

def scalar_dihedral(p1, p2, p3, p4) -> float:
    """``geometry.dihedral_angle`` of one quadruple, with 1-d dot products
    and the cross product written out."""
    b0 = np.asarray(p1, float) - np.asarray(p2, float)
    b1 = unit_vector(np.asarray(p3, float) - np.asarray(p2, float))
    b2 = np.asarray(p4, float) - np.asarray(p3, float)
    v = b0 - (b0 @ b1) * b1
    w = b2 - (b2 @ b1) * b1
    x, y, z = b1
    vx, vy, vz = v
    b1_v = np.array([y * vz - z * vy, z * vx - x * vz, x * vy - y * vx])
    ang = math.degrees(math.atan2(float(b1_v @ w), float(v @ w)))
    return float(signed_degrees(ang))


def _plane_dir(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([math.cos(a), math.sin(a), 0.0])


def _walk_backbone(m: int, cis: bool):
    """Extended planar walk, one bond at a time; returns N, CA,
    provisional C per residue and the final direction and turn."""
    npos = [np.zeros(3)]
    capos = []
    ctmp = []
    direction = 0.0
    turn = 1.0
    for i in range(m):
        capos.append(npos[i] + ch.BOND_N_CA * _plane_dir(direction))
        direction += turn * (180.0 - ch.ANGLE_N_CA_C)
        turn = -turn
        ctmp.append(capos[i] + ch.BOND_CA_C * _plane_dir(direction))
        if i + 1 < m:
            direction += turn * (180.0 - ch.ANGLE_CA_C_N)
            turn = -turn
            npos.append(ctmp[i] + ch.BOND_C_N * _plane_dir(direction))
            if cis:
                turn = -turn
            direction += turn * (180.0 - ch.ANGLE_C_N_CA)
            turn = -turn
    return npos, capos, ctmp, direction, turn


def _combo(key, b2, b3):
    c1, c2 = ch.PLANE_CONSTANTS[key]
    return c1 * b2 + c2 * b3


@dataclass
class ResidueAtoms:
    """One residue's atoms in order, as the reference assembly takes them."""

    code: str
    names: list[str]
    elements: list[str]
    xyz: np.ndarray            # (n, 3)


def reference_chain(sequence, geometry=None, *, omega="trans") -> Chain:
    """``chain.build_chain`` one residue at a time: the walk bond by bond,
    the peptide atoms and the template atoms per residue, then
    ``reference_assemble``."""
    if geometry is not None:
        residues, hetero, chain_id = reference_imported_residues(geometry)
        return reference_assemble(residues, hetero, "imported", chain_id)

    seq = [str(c).upper() for c in sequence]
    if not seq:
        raise ChainBuildError("zero-length sequence")
    specs = [default_templates().get(code) for code in seq]
    if omega not in ("trans", "cis"):
        raise ChainBuildError(f"omega must be trans or cis, got {omega!r}")
    cis = omega == "cis"

    m = len(seq)
    npos, capos, ctmp, direction, turn = _walk_backbone(m, cis)
    cpos, opos = [], []
    hpos = [npos[0] + ch.BOND_N_H_TERM * _plane_dir(-ch.ANGLE_H_N_CA)]
    for i in range(m - 1):
        b2 = npos[i + 1] - capos[i]
        b3 = capos[i + 1] - npos[i + 1]
        if not cis:
            cpos.append(capos[i] + _combo("CA_C", b2, b3))
            opos.append(cpos[i] + _combo("C_O", b2, b3))
            hpos.append(npos[i + 1] + _combo("N_H", b2, b3))
        else:
            c = ctmp[i]
            cpos.append(c)
            o_dir = unit_vector(-(unit_vector(capos[i] - c)
                                  + unit_vector(npos[i + 1] - c)))
            opos.append(c + ch.BOND_C_O_TERM * o_dir)
            h_dir = unit_vector(-(unit_vector(c - npos[i + 1])
                                  + unit_vector(capos[i + 1] - npos[i + 1])))
            hpos.append(npos[i + 1] + ch.BOND_N_H_TERM * h_dir)
    c_term = ctmp[m - 1]
    split = 180.0 - ch.ANGLE_CA_C_O_TERM
    oxt = c_term + ch.BOND_C_O_TERM * _plane_dir(direction + turn * split)
    o_term = c_term + ch.BOND_C_O_TERM * _plane_dir(direction - turn * split)
    cpos.append(c_term)
    opos.append(o_term)

    frames = frame_from_backbone(np.array(npos), np.array(capos), np.array(cpos))
    residues = []
    for i, (code, spec) in enumerate(zip(seq, specs)):
        local = np.array([ta.local for ta in spec.atoms])
        side = capos[i] + np.matmul(frames[i], local[:, :, None])[:, :, 0]
        names = ["N", "H", "CA", *(ta.name for ta in spec.atoms), "C", "O"]
        elements = ["N", "H", "C", *(ta.element for ta in spec.atoms), "C", "O"]
        rows = [npos[i], hpos[i], capos[i], *side, cpos[i], opos[i]]
        if i + 1 == m:
            names.append("OXT")
            elements.append("O")
            rows.append(oxt)
        residues.append(ResidueAtoms(code, names, elements, np.array(rows)))
    return reference_assemble(residues, [], "canonical")


class Builder:
    """Accumulates atoms, links and bonds one at a time, then a Chain."""

    def __init__(self):
        self.names: list[str] = []
        self.elements: list[str] = []
        self.classes: list[str] = []
        self.residue_of: list[int] = []
        self.link_of: list[int] = []
        self.pos: list[np.ndarray] = []
        self.bonds: list[tuple[int, int]] = []
        self.hetero: list[bool] = []
        self.hetero_residues: dict[int, tuple[str, str, int]] = {}
        self.links: list[dict] = []

    def add_atom(self, name, element, cls, residue, link, xyz, hetero=False) -> int:
        self.names.append(name)
        self.elements.append(element)
        self.classes.append(cls)
        self.residue_of.append(residue)
        self.link_of.append(link)
        self.pos.append(np.asarray(xyz, float))
        self.hetero.append(hetero)
        return len(self.names) - 1

    def add_link(self, *, chi0=0.0, **kw) -> int:
        self.links.append(dict(kw, chi0=chi0))
        return len(self.links) - 1

    def finish(self, residues, source, chain_id="A") -> Chain:
        columns = {name: [rec[name] for rec in self.links] for name in self.links[0]}
        links = LinkArrays(**{name: np.array(col) for name, col in columns.items()})
        return Chain(
            residues=residues, links=links, atom_names=self.names,
            atom_elements=self.elements, atom_classes=self.classes,
            atom_residue=np.asarray(self.residue_of, int),
            atom_link=np.asarray(self.link_of, int), zp_pos=np.array(self.pos),
            bonds=self.bonds, hetero_mask=np.asarray(self.hetero, bool),
            source=source, chain_id=chain_id, hetero_residues=self.hetero_residues,
        )


def reference_assemble(residues: list[ResidueAtoms], hetero, source: str,
                       chain_id: str = "A") -> Chain:
    """The linkage over named atoms, one residue, link and atom at a time."""
    where = [{name: k for k, name in enumerate(r.names)} for r in residues]
    m = len(residues)
    n, ca, c = np.array([[r.xyz[at[nm]] for nm in ("N", "CA", "C")]
                         for r, at in zip(residues, where)]).transpose(1, 0, 2)
    last = where[-1]
    tip = residues[-1].xyz[last["OXT" if "OXT" in last else "O" if "O" in last else "C"]]

    b = Builder()
    ground = b.add_link(residue=-1, chi_index=0, parent=-1,
                        axis0=np.zeros(3), body0=np.zeros(3), point0=np.zeros(3))
    phi_axis, psi_axis = unit_vector(ca - n), unit_vector(c - ca)
    psi_body = np.vstack([n[1:], tip]) - ca
    link_phi, link_psi = [], []
    for i in range(m):
        link_phi.append(b.add_link(
            residue=i, chi_index=0, parent=link_psi[i - 1] if i else ground,
            axis0=phi_axis[i], body0=ca[i] - n[i], point0=n[i],
        ))
        link_psi.append(b.add_link(
            residue=i, chi_index=0, parent=link_phi[i],
            axis0=psi_axis[i], body0=psi_body[i], point0=ca[i],
        ))

    templates = default_templates()
    for i, (r, at) in enumerate(zip(residues, where)):
        spec = templates.specs.get(r.code)
        if spec is not None and not all(ta.name in at for ta in spec.atoms if ta.link):
            spec = None
        owner = {}
        if spec is not None:
            side = [link_phi[i]]
            for k, (src, dst) in enumerate(spec.joints, start=1):
                p_src, p_dst = r.xyz[at[src]], r.xyz[at[dst]]
                refs = spec.chi_refs[k - 1] if spec.chi_refs else ()
                if len(refs) == 4:
                    chi0 = scalar_dihedral(*(r.xyz[at[nm]] for nm in refs))
                else:
                    chi0 = float(spec.rotamer_defaults[k - 1]) if spec.rotamer_defaults else 0.0
                side.append(b.add_link(
                    residue=i, chi_index=k, parent=side[-1],
                    axis0=unit_vector(p_dst - p_src), body0=p_dst - p_src,
                    point0=p_src, chi0=chi0,
                ))
            owner = {ta.name: side[ta.link] for ta in spec.atoms if ta.link}
        n_owner = link_psi[i - 1] if i else ground
        owner.update(dict.fromkeys(("N", *(ch._N_TERM_H_NAMES if i == 0 else ("H",))),
                                   n_owner))
        owner.update(dict.fromkeys(("C", "O", "OXT"), link_psi[i]))
        base = len(b.names)
        for name, element, xyz in zip(r.names, r.elements, r.xyz):
            b.add_atom(name, element, ch._atom_class(name, element, r.code, spec), i,
                       owner.get(name, link_phi[i]), xyz)
        reference_residue_bonds(b, r, at, base)
        if i:
            b.bonds.append((prev_c, base + at["N"]))
        prev_c = base + at["C"]

    for a in hetero:
        k = b.add_atom(a.name, a.element, f"EL_{a.element}", m + a.res_seq % 10_000,
                       ground, a.xyz, hetero=True)
        b.hetero_residues[k] = (a.res_name, a.chain_id, a.res_seq)
    return b.finish([r.code for r in residues], source, chain_id)


def reference_residue_bonds(b: Builder, r: ResidueAtoms, at: dict, base: int) -> None:
    """Backbone bonds by name, the rest by covalent radii row by row, each
    kept the first time it is met."""
    have = set()

    def bond(x, y):
        key = (base + min(x, y), base + max(x, y))
        if key not in have:
            have.add(key)
            b.bonds.append(key)

    for x, y in ch._NAMED_BONDS:
        if x in at and y in at:
            bond(at[x], at[y])
    rest = [k for k, name in enumerate(r.names) if name not in ch._BACKBONE_NAMES]
    if not rest:
        return
    dist = norms(r.xyz[rest][:, None] - r.xyz[None])
    dist[np.arange(len(rest)), rest] = np.inf
    radius = np.array([ch._COVALENT_RADII.get(e, 1.2) for e in r.elements])
    near = dist <= radius[rest][:, None] + radius + ch._BOND_SLACK
    for row, ai in enumerate(rest):
        for aj in np.flatnonzero(near[row]).tolist() or [int(np.argmin(dist[row]))]:
            bond(ai, aj)


def reference_imported_residues(record):
    """Protein atoms of the first chain as one ``ResidueAtoms`` per
    residue, the hetero atoms, and that chain's ID."""
    protein = [a for a in record.atoms if not a.hetero]
    hetero = [a for a in record.atoms if a.hetero]
    if not protein:
        raise ChainBuildError("imported structure has no protein atoms")
    first_chain = protein[0].chain_id
    if any(a.chain_id != first_chain for a in protein):
        warnings.warn("multiple chains in structure; keeping the first", stacklevel=2)
        protein = [a for a in protein if a.chain_id == first_chain]
    residues = []
    for (seq_no, i_code), group in itertools.groupby(protein, lambda a: (a.res_seq, a.i_code)):
        atoms = list(group)
        names = [a.name for a in atoms]
        for needed in ("N", "CA", "C"):
            if needed not in names:
                raise ChainBuildError(f"imported geometry missing backbone atom {needed} "
                                      f"in {atoms[0].res_name} {seq_no}{i_code}")
        residues.append(ResidueAtoms(atoms[0].res_name, names, [a.element for a in atoms],
                                     np.array([a.xyz for a in atoms], float)))
    if len(residues) > 1 and not any("H" in r.names for r in residues[1:]):
        warnings.warn("structure carries no amide hydrogens; building without them",
                      stacklevel=2)
    return residues, hetero, first_chain


def reference_tree(chain) -> BondTree:
    """``topology.build_tree`` with numpy arrays indexed one scalar at a
    time: union-find over the bonds in order, then a depth-first walk."""
    n = chain.n_atoms
    chain_atoms = ~chain.hetero_mask
    uf = np.arange(n)

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in chain.bonds:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        uf[ri] = rj
        adjacency[i].append(j)
        adjacency[j].append(i)

    parent = np.full(n, -1, dtype=np.int64)
    order = [0]
    seen = np.zeros(n, bool)
    seen[0] = True
    while order:
        u = order.pop()
        for v in sorted(adjacency[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    if not np.all(seen[chain_atoms]):
        missing = int(np.flatnonzero(chain_atoms & ~seen)[0])
        raise DisconnectedBondGraphError(
            f"bond graph does not reach atom {missing} ({chain.atom_names[missing]})"
        )
    return BondTree(parent=parent, residue_of=chain.atom_residue.copy(),
                    chain_mask=chain_atoms)


def reference_params(param_set, chain, gamma_set: str = "sharp") -> AtomParams:
    """``ParamSet.resolve`` one atom at a time."""
    gam = param_set.gamma_table(gamma_set)
    n = chain.n_atoms
    q, r, eps, gamma = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for i in range(n):
        row = param_set.classes.get(chain.atom_classes[i])
        if row is None:
            row = _ELEMENT_FALLBACK.get(chain.atom_elements[i], _GENERIC_FALLBACK)
        q[i], r[i], eps[i], sc = row
        if sc not in gam:
            raise ParameterFileError(f"solvation class {sc!r} missing from table")
        gamma[i] = gam[sc]
    return AtomParams(q=q, R=r, eps=eps, gamma=gamma)
