"""Independent reference implementations used to check the fast paths.

Everything here favors clarity over speed: quadratic scans, full
recounts, and per-joint sequential rotations.  The oracles share float
primitives with the library (same IEEE ops) but not algorithms.
"""

import math
from dataclasses import replace

import numpy as np

from kinefold.errors import ConfigurationError
from kinefold.geometry import AXIS_UNIT_TOL, dihedral_angle, wrap_degrees
from kinefold.kcm import Field
from kinefold.solvation import _force_quantum, offset_radii
from kinefold.spatial import NeighborTable
from kinefold.topology import InteractionClass, classify_pairs

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
    from kinefold.residues import default_templates

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
            link = chain.links[_chi_link_index(chain, i, k)]
            theta[link.dof] = wrap_degrees(value - link.chi0)
        conf = replace(conf, theta=theta)
    return conf


def _chi_link_index(chain, i: int, k: int) -> int:
    for li, link in enumerate(chain.links):
        if link.kind == "chi" and link.residue == i and link.chi_index == k:
            return li
    raise KeyError((i, k))


def classify(tree, i: int, j: int) -> InteractionClass:
    """Interaction class of one pair; symmetric, O(1)."""
    return InteractionClass(int(classify_pairs(tree, np.array([i]), np.array([j]))[0]))


def brute_force_pairs(positions, d_cut):
    """All-pairs cut-off scan (no hashing): the pairs (i < j, sorted by
    (i, j)) within ``d_cut`` and their distances."""
    positions = np.asarray(positions, float)
    n = len(positions)
    iu, ju = np.triu_indices(n, k=1)
    diff = positions[iu] - positions[ju]
    d2 = np.einsum("ij,ij->i", diff, diff)
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
    """Unscreened exposure pass: the (N, nb, 3) distance test on every
    (sample, neighbor) pair.  Returns (counts, critical, f_exp)."""
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
    n_links = len(chain.links)
    subtree = _subtree_links(chain)
    tau = np.zeros(chain.n_dof)
    for li, link in enumerate(chain.links):
        if link.kind == "ground":
            continue
        u = state.axes[li]
        p = state.joint_points[li]
        total = 0.0
        for h in range(n_links):
            if li in subtree[h]:
                total += float(u @ wrenches.torque[h]
                               - np.cross(u, p) @ wrenches.force[h])
        tau[link.dof] = total
    return tau


def _subtree_links(chain):
    """For each link h: the set of joints (link ids) on its path to ground."""
    ancestors = []
    for li, link in enumerate(chain.links):
        path = set()
        cur = li
        while cur != -1 and chain.links[cur].kind != "ground":
            path.add(cur)
            cur = chain.links[cur].parent
        ancestors.append(path)
    return ancestors


def twist_fk(chain, conf):
    """Moving-axis forward kinematics: rotate each joint's whole subtree
    about its current axis, root to leaf."""
    positions = chain.zp_pos.copy()
    children: dict[int, list[int]] = {}
    for li, link in enumerate(chain.links):
        children.setdefault(link.parent, []).append(li)

    def descend(li):
        out = list(np.flatnonzero(chain.atom_link == li))
        for ch in children.get(li, []):
            out.extend(descend(ch))
        return out

    for li, link in enumerate(chain.links):
        if link.kind == "ground":
            continue
        theta = float(conf.theta[link.dof])
        src, dst = _axis_atoms(chain, li, positions)
        axis = dst - src
        axis = axis / np.linalg.norm(axis)
        rot = rotation_about_axis(axis, theta)
        idx = np.array(descend(li))
        positions[idx] = src + (positions[idx] - src) @ rot.T
    return positions


def _axis_atoms(chain, li, positions):
    """Current axis endpoints of a joint, looked up by atom name."""
    link = chain.links[li]
    res = link.residue
    if link.kind == "phi":
        return positions[atom_index(chain, res, "N")], positions[atom_index(chain, res, "CA")]
    if link.kind == "psi":
        return positions[atom_index(chain, res, "CA")], positions[atom_index(chain, res, "C")]
    # chi joints: recover endpoint names from the template joint table
    from kinefold.residues import default_templates

    spec = default_templates().get(chain.residues[res])
    src_name, dst_name = spec.joints[link.chi_index - 1]
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
