import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinefold.chain import (
    PLANE_CONSTANTS,
    Conformation,
    _Builder,
    apply_deltas,
    build_chain,
    forward_kinematics,
    kinematic_state,
)
from kinefold.errors import ChainBuildError, ConfigurationError, UnknownResidueError
from kinefold.pdbio import read_pdb, write_pdb
from kinefold.residues import default_templates

from .conftest import atom_index, random_case, random_sequences
from .oracles import (
    measure_backbone_dihedrals,
    rotation_about_axis,
    template_bonds,
    theta_from_dihedrals,
    twist_fk,
)


def backbone_indices(chain):
    return [i for i, nm in enumerate(chain.atom_names)
            if nm in ("N", "H", "CA", "C", "O", "OXT")]


def random_conf(chain, rng, span=360.0):
    theta = rng.uniform(0.0, span, chain.n_dof)
    return Conformation(theta, np.zeros(chain.n_dof, bool))


# ---- construction ---------------------------------------------------------

def test_single_gly_link_count():
    ch = build_chain(["GLY"])
    kinds = ch.links.kind
    assert kinds.count("phi") == 1 and kinds.count("psi") == 1
    assert kinds.count("chi") == 0
    assert ch.n_dof == 2


def test_polyalanine_15_links():
    ch = build_chain(["ALA"] * 15)
    assert ch.n_residues == 15
    kinds = ch.links.kind
    assert kinds.count("phi") + kinds.count("psi") == 30
    assert kinds.count("chi") == 15  # one methyl rotor per template
    assert ch.n_dof == 45
    assert ch.n_dof <= 6 * ch.n_residues


def test_unknown_residue_rejected():
    with pytest.raises(UnknownResidueError):
        build_chain(["XYZ"])


def test_empty_sequence_rejected():
    with pytest.raises(ChainBuildError):
        build_chain([])


@pytest.mark.parametrize("omega", ["trans", "cis"])
@pytest.mark.parametrize("code", sorted(default_templates().specs))
def test_radius_bonds_match_template_bonds(code, omega):
    # canonical bonds come from the covalent-radius rule; a template whose
    # geometry that rule misreads must fail here
    ch = build_chain([code] * 3, omega=omega)
    assert len(set(ch.bonds)) == len(ch.bonds)
    assert set(ch.bonds) == template_bonds(ch)


def test_every_atom_has_one_link(mixed_chain):
    counted = sum(len(np.flatnonzero(mixed_chain.atom_link == li))
                  for li in range(len(mixed_chain.links)))
    assert counted == mixed_chain.n_atoms
    assert mixed_chain.atom_residue.tolist() == sorted(mixed_chain.atom_residue.tolist())


def test_links_follow_their_parents(mixed_chain, tmp_path):
    path = tmp_path / "mixed.pdb"
    write_pdb(mixed_chain, forward_kinematics(mixed_chain, mixed_chain.conf_zp()), path)
    imported = build_chain([], geometry=read_pdb(path))
    for chain in (mixed_chain, imported):
        parents = chain.links.parent
        assert parents[0] == -1
        assert all(0 <= p < i for i, p in enumerate(parents) if i)


def relinked_builder(chain, order):
    """A builder holding ``chain``'s atoms and bonds, with its links
    listed in ``order`` and every link reference renumbered to match."""
    new = {old: k for k, old in enumerate(order)}
    new[-1] = -1
    b, links = _Builder(), chain.links
    for old in order:
        b.add_link(kind=links.kind[old], residue=links.residue[old],
                   chi_index=links.chi_index[old], dof=links.dof[old],
                   parent=new[links.parent[old]], axis0=links.axis0[old],
                   body0=links.body0[old], point0=links.point0[old],
                   chi0=links.chi0[old])
    for a in range(chain.n_atoms):
        b.add_atom(chain.atom_names[a], chain.atom_elements[a], chain.atom_classes[a],
                   int(chain.atom_residue[a]), new[int(chain.atom_link[a])],
                   chain.zp_pos[a], bool(chain.hetero_mask[a]))
    b.bonds = list(chain.bonds)
    return b


def test_reordered_links_rejected(mixed_chain, rng):
    ids = list(range(len(mixed_chain.links)))
    same = relinked_builder(mixed_chain, ids).finish(mixed_chain.residues, "canonical")
    conf = random_conf(mixed_chain, rng)
    assert np.array_equal(forward_kinematics(same, conf),
                          forward_kinematics(mixed_chain, conf))
    # residue 0's psi link ahead of its phi parent; a joint link ahead of ground
    for order, message in (([0, 2, 1] + ids[3:], "link 1 has parent 2"),
                           ([1, 0] + ids[2:], "link 0 has parent 1")):
        with pytest.raises(ChainBuildError, match=message):
            relinked_builder(mixed_chain, order).finish(mixed_chain.residues, "canonical")


def test_directly_built_links_must_follow_their_parents(ala2, rng):
    """The link table refuses a child ahead of its parent however it is
    built, so the forward pass never reads a transform it has not set."""
    same = dataclasses.replace(ala2, links=dataclasses.replace(ala2.links))
    conf = random_conf(ala2, rng)
    assert np.array_equal(forward_kinematics(same, conf), forward_kinematics(ala2, conf))
    parent = list(ala2.links.parent)
    parent[1] = 2
    with pytest.raises(ChainBuildError, match="link 1 has parent 2"):
        dataclasses.replace(ala2, links=dataclasses.replace(ala2.links, parent=parent))


def test_non_unit_axis_rejected(ala2):
    axis0 = ala2.links.axis0.copy()
    axis0[3] = 1.001 * axis0[3]
    with pytest.raises(ConfigurationError, match="unit length"):
        dataclasses.replace(ala2, links=dataclasses.replace(ala2.links, axis0=axis0))


def test_plane_constants_rows():
    assert set(PLANE_CONSTANTS) == {"CA_C", "C_N", "C_O", "N_H"}
    c1, c2 = PLANE_CONSTANTS["CA_C"]
    c1n, c2n = PLANE_CONSTANTS["C_N"]
    assert c1 + c1n == pytest.approx(1.0)
    assert c2 + c2n == pytest.approx(0.0)


def test_zp_backbone_planar(mixed_chain):
    pos = forward_kinematics(mixed_chain, mixed_chain.conf_zp())
    bb = backbone_indices(mixed_chain)
    assert np.abs(pos[bb, 2]).max() < 1e-9


def test_zp_axes_unit_length(mixed_chain):
    links = mixed_chain.links
    for li, kind in enumerate(links.kind):
        if kind != "ground":
            assert abs(np.linalg.norm(links.axis0[li]) - 1.0) < 1e-12


def test_cis_chain_builds_planar():
    ch = build_chain(["GLY", "GLY", "GLY"], omega="cis")
    pos = forward_kinematics(ch, ch.conf_zp())
    bb = backbone_indices(ch)
    assert np.abs(pos[bb, 2]).max() < 1e-9
    from kinefold.geometry import dihedral_angle
    omega = dihedral_angle(pos[atom_index(ch, 0, "CA")], pos[atom_index(ch, 0, "C")],
                           pos[atom_index(ch, 1, "N")], pos[atom_index(ch, 1, "CA")])
    assert abs(omega) < 1e-6  # cis


def test_trans_omega_measured():
    ch = build_chain(["GLY", "GLY"])
    pos = forward_kinematics(ch, ch.conf_zp())
    from kinefold.geometry import dihedral_angle
    omega = dihedral_angle(pos[atom_index(ch, 0, "CA")], pos[atom_index(ch, 0, "C")],
                           pos[atom_index(ch, 1, "N")], pos[atom_index(ch, 1, "CA")])
    assert abs(abs(omega) - 180.0) < 1e-6


def test_l_chirality_of_templates(mixed_chain):
    pos = forward_kinematics(mixed_chain, mixed_chain.conf_zp())
    for i, res in enumerate(mixed_chain.residues):
        if res == "GLY":
            continue
        n = pos[atom_index(mixed_chain, i, "N")]
        ca = pos[atom_index(mixed_chain, i, "CA")]
        c = pos[atom_index(mixed_chain, i, "C")]
        cb = pos[atom_index(mixed_chain, i, "CB")]
        det = np.dot(n - ca, np.cross(c - ca, cb - ca))
        assert det > 0.5  # L-amino acid


# ---- transforms -----------------------------------------------------------

def joint_transforms(chain, conf):
    """Dof and prefix rotation of every joint link (ground excluded)."""
    transforms = kinematic_state(chain, conf).transforms
    return list(zip(chain.links.dof[1:], transforms[1:]))


def test_all_zero_gives_identity(ala2):
    for _, m in joint_transforms(ala2, ala2.conf_zp()):
        assert np.allclose(m, np.eye(3), atol=1e-15)


def test_single_joint_prefix(ala2):
    theta = np.zeros(ala2.n_dof)
    theta[0] = 30.0
    conf = Conformation(theta, np.zeros(ala2.n_dof, bool))
    mats = dict(joint_transforms(ala2, conf))
    first = rotation_about_axis(ala2.links.axis0[1], 30.0)
    for dof in range(4):  # every backbone joint downstream of joint 1
        assert np.allclose(mats[dof], first, atol=1e-12)


def test_prefix_matches_naive_products(ala2, rng):
    conf = random_conf(ala2, rng)
    transforms = kinematic_state(ala2, conf).transforms
    # naive: recompute each backbone prefix from scratch
    links = ala2.links
    backbone = [li for li, kind in enumerate(links.kind) if kind in ("phi", "psi")]
    backbone.sort(key=lambda li: links.dof[li])
    for j in range(len(backbone)):
        m = np.eye(3)
        for r in range(j + 1):
            li = backbone[r]
            m = m @ rotation_about_axis(links.axis0[li], conf.theta[links.dof[li]])
        assert np.abs(m - transforms[backbone[j]]).max() < 1e-12


def test_transforms_orthonormal(mixed_chain, rng):
    conf = random_conf(mixed_chain, rng)
    for _, m in joint_transforms(mixed_chain, conf):
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-10


# ---- forward kinematics ---------------------------------------------------

def test_bond_lengths_invariant(mixed_chain, rng):
    zp = forward_kinematics(mixed_chain, mixed_chain.conf_zp())
    pos = forward_kinematics(mixed_chain, random_conf(mixed_chain, rng))
    for i, j in mixed_chain.bonds:
        d0 = np.linalg.norm(zp[i] - zp[j])
        d1 = np.linalg.norm(pos[i] - pos[j])
        assert abs(d0 - d1) < 1e-9


def test_intralink_rigidity(mixed_chain, rng):
    zp = forward_kinematics(mixed_chain, mixed_chain.conf_zp())
    pos = forward_kinematics(mixed_chain, random_conf(mixed_chain, rng))
    for li in range(len(mixed_chain.links)):
        idx = np.flatnonzero(mixed_chain.atom_link == li)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                d0 = np.linalg.norm(zp[idx[a]] - zp[idx[b]])
                d1 = np.linalg.norm(pos[idx[a]] - pos[idx[b]])
                assert abs(d0 - d1) < 1e-9


def test_anchor_fixed_at_origin(mixed_chain, rng):
    pos = forward_kinematics(mixed_chain, random_conf(mixed_chain, rng))
    assert np.allclose(pos[0], 0.0)


def test_fk_matches_twist_oracle(rng):
    ch = build_chain(["SER", "ALA", "GLY", "CYS", "ALA", "SER", "GLY",
                      "ALA", "CYS", "ALA"])
    for _ in range(3):
        conf = random_conf(ch, rng)
        fast = forward_kinematics(ch, conf)
        slow = twist_fk(ch, conf)
        assert np.abs(fast - slow).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(random_sequences, st.integers(0, 2**32 - 1))
@example(["GLY"], 0)
def test_array_fk_matches_twist_oracle_on_random_chains(sequence, seed):
    chain, conf, _ = random_case(sequence, seed)
    fast = forward_kinematics(chain, conf)
    assert np.abs(fast - twist_fk(chain, conf)).max() < 1e-9


def test_peptide_atoms_match_plane_combination(ala2, rng):
    """C, O, H track the body-vector linear combination at any conformation."""
    conf = random_conf(ala2, rng)
    state = kinematic_state(ala2, conf)
    pos = state.positions
    pc = PLANE_CONSTANTS
    links = ala2.links
    row = {(kind, int(res)): li for li, (kind, res) in enumerate(zip(links.kind, links.residue))
           if kind != "ground"}
    i = 0
    m_psi = state.transforms[row[("psi", i)]]
    m_phi_next = state.transforms[row[("phi", i + 1)]]
    b2 = m_psi @ links.body0[row[("psi", i)]]
    b3 = m_phi_next @ links.body0[row[("phi", i + 1)]]
    ca = pos[atom_index(ala2, i, "CA")]
    c = pos[atom_index(ala2, i, "C")]
    o = pos[atom_index(ala2, i, "O")]
    h = pos[atom_index(ala2, i + 1, "H")]
    n_next = pos[atom_index(ala2, i + 1, "N")]
    c1, c2 = pc["CA_C"]
    assert np.abs(ca + c1 * b2 + c2 * b3 - c).max() < 1e-9
    c1, c2 = pc["C_O"]
    assert np.abs(c + c1 * b2 + c2 * b3 - o).max() < 1e-9
    c1, c2 = pc["N_H"]
    assert np.abs(n_next + c1 * b2 + c2 * b3 - h).max() < 1e-9


def test_measured_dihedrals_match_map(mixed_chain, rng):
    phi_in = rng.uniform(-170, 170, mixed_chain.n_residues)
    psi_in = rng.uniform(-170, 170, mixed_chain.n_residues)
    conf = mixed_chain.conf_from_backbone(phi_in, psi_in)
    pos = forward_kinematics(mixed_chain, conf)
    phi, psi = measure_backbone_dihedrals(mixed_chain, pos)
    assert np.abs(phi[1:] - phi_in[1:]).max() < 1e-8
    assert np.abs(psi[:-1] - psi_in[:-1]).max() < 1e-8


# ---- conformation algebra -------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=8),
)
def test_apply_deltas_wrap_property(thetas, deltas):
    k = min(len(thetas), len(deltas))
    conf = Conformation(np.array(thetas[:k]), np.zeros(k, bool))
    out = apply_deltas(conf, np.array(deltas[:k]))
    assert np.all(out.theta >= 0.0) and np.all(out.theta < 360.0)
    # wrapping preserves the angle modulo a full turn
    diff = (out.theta - conf.theta - np.array(deltas[:k])) % 360.0
    assert np.all((diff < 1e-6) | (diff > 360.0 - 1e-6))


def test_apply_deltas_zero_noop(ala2):
    conf = ala2.conf_zp()
    out = apply_deltas(conf, np.zeros(ala2.n_dof))
    assert np.array_equal(out.theta, conf.theta)


def test_apply_deltas_wraps():
    conf = Conformation(np.array([359.0]), np.array([False]))
    out = apply_deltas(conf, np.array([2.0]))
    assert out.theta[0] == pytest.approx(1.0)


def test_apply_deltas_respects_freeze():
    conf = Conformation(np.array([10.0, 10.0]), np.array([True, False]))
    out = apply_deltas(conf, np.array([90.0, 90.0]))
    assert out.theta[0] == pytest.approx(10.0)
    assert out.theta[1] == pytest.approx(100.0)


def test_conformation_arrays_are_read_only(ala2):
    """Nothing can write into a conformation, so the step shares its
    mask and the fold records its theta without copies."""
    conf = ala2.conf_zp()
    for array in (conf.theta, conf.frozen):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert apply_deltas(conf, np.ones(ala2.n_dof)).frozen is conf.frozen
    mask = np.zeros(ala2.n_dof, bool)
    kept = Conformation(conf.theta, mask)
    assert kept.frozen is not mask and mask.flags.writeable  # the caller's mask is copied


def test_freeze_rejects_out_of_range_dofs(ala2):
    conf = ala2.conf_zp()
    assert conf.freeze([0, ala2.n_dof - 1]).frozen.sum() == 2
    for dof in (-1, ala2.n_dof):
        with pytest.raises(ConfigurationError, match=f"cannot freeze dof {dof}"):
            conf.freeze([0, dof])


def test_apply_deltas_length_mismatch(ala2):
    with pytest.raises(ConfigurationError):
        apply_deltas(ala2.conf_zp(), np.zeros(ala2.n_dof + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dihedral_names_its_dof(ala2, bad):
    """A non-finite theta is refused where the conformation is made,
    naming the first such dof and its value, instead of reaching the
    neighbor grid as unhashable coordinates."""
    theta = np.zeros(ala2.n_dof)
    theta[[2, 3]] = bad
    with pytest.raises(ConfigurationError, match=f"theta of dof 2 is {bad}: "):
        Conformation(theta, np.zeros(ala2.n_dof, bool))


def test_non_finite_step_names_its_dof(ala2):
    deltas = np.zeros(ala2.n_dof)
    deltas[1] = np.nan
    with pytest.raises(ConfigurationError, match="theta of dof 1 is nan"):
        apply_deltas(ala2.conf_zp(), deltas)


def test_index_map_round_trip(mixed_chain, rng):
    phi = rng.uniform(-180, 179.9, mixed_chain.n_residues)
    psi = rng.uniform(-180, 179.9, mixed_chain.n_residues)
    chi = {}
    links = mixed_chain.links
    for li, kind in enumerate(links.kind):
        if kind == "chi":
            chi[(int(links.residue[li]), int(links.chi_index[li]))] = float(
                rng.uniform(-180, 179.9))
    conf = theta_from_dihedrals(mixed_chain, phi, psi, chi)
    phi2, psi2, chi2 = mixed_chain.dihedrals_from_theta(conf)
    assert np.abs(phi2 - phi).max() < 1e-9
    assert np.abs(psi2 - psi).max() < 1e-9
    for key, val in chi.items():
        assert chi2[key] == pytest.approx(val, abs=1e-9)
