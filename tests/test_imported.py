"""Imported-geometry chains: retained coordinates, heteroatoms, side joints."""

import warnings

import numpy as np
import pytest

from kinefold.chain import build_chain, forward_kinematics
from kinefold.cli import main
from kinefold.errors import ChainBuildError
from kinefold.kcm import StepConfig, fold
from kinefold.pdbio import AtomRecord, StructureRecord, read_pdb, write_pdb

from .conftest import assert_identical, make_field
from .oracles import link_kind, reference_chain


def reimport(chain, tmp_path, conf=None):
    pos = forward_kinematics(chain, conf or chain.conf_zp())
    path = tmp_path / "src.pdb"
    write_pdb(chain, pos, path)
    return build_chain([], geometry=read_pdb(path)), pos


def test_zp_reproduces_read_coordinates(tmp_path, mixed_chain):
    ch2, pos = reimport(mixed_chain, tmp_path)
    got = forward_kinematics(ch2, ch2.conf_zp())
    # as-read geometry is the reference conformation, byte-for-byte
    assert np.abs(got - np.round(pos, 3)).max() < 1e-9


def test_bond_lengths_match_direct_reconstruction(tmp_path, mixed_chain):
    """FK at the reference equals distances measured straight off the file."""
    ch2, _ = reimport(mixed_chain, tmp_path)
    got = forward_kinematics(ch2, ch2.conf_zp())
    for i, j in ch2.bonds:
        direct = np.linalg.norm(ch2.zp_pos[i] - ch2.zp_pos[j])
        via_fk = np.linalg.norm(got[i] - got[j])
        assert abs(direct - via_fk) < 1e-6


def test_templated_side_chains_keep_joints(tmp_path):
    ch = build_chain(["SER", "ALA"])
    ch2, _ = reimport(ch, tmp_path)
    assert ch2.n_dof == ch.n_dof  # full atom-name match keeps every chi joint
    kinds = [link_kind(ch2, li) for li in range(len(ch2.links))]
    assert kinds.count("chi") == 3


def test_unmatched_side_chain_rides_rigidly(tmp_path):
    ch = build_chain(["ALA", "ALA"])
    pos = forward_kinematics(ch, ch.conf_zp())
    path = tmp_path / "noh.pdb"
    write_pdb(ch, pos, path)
    # drop the methyl hydrogens: template match fails, no chi joints
    lines = [l for l in path.read_text().splitlines()
             if " HB" not in l]
    path.write_text("\n".join(lines) + "\n")
    ch2 = build_chain([], geometry=read_pdb(path))
    assert ch2.n_dof == 4  # backbone only


def test_missing_backbone_rejected(tmp_path):
    rec = StructureRecord(atoms=[
        AtomRecord("N", "GLY", 1, "A", (0.0, 0.0, 0.0), "N", False),
        AtomRecord("CA", "GLY", 1, "A", (1.47, 0.0, 0.0), "C", False),
    ])
    with pytest.raises(ChainBuildError, match="missing backbone"):
        build_chain([], geometry=rec)


def test_hetero_atoms_fixed_through_fold(tmp_path, param_set):
    ch = build_chain(["GLY", "GLY", "GLY"])
    pos = forward_kinematics(ch, ch.conf_zp())
    path = tmp_path / "h.pdb"
    write_pdb(ch, pos, path)
    text = path.read_text().replace(
        "END",
        "HETATM   99 FE   HEM A   9       3.000   4.000   1.000"
        "  1.00  0.00          FE\nEND",
    )
    path.write_text(text)
    ch2 = build_chain([], geometry=read_pdb(path))
    assert ch2.hetero_mask.sum() == 1
    fe = int(np.flatnonzero(ch2.hetero_mask)[0])
    field = make_field(ch2, param_set)
    traj = fold(ch2, ch2.conf_zp(), field,
                StepConfig(max_iters=5, energy_window=0, torque_tol_rel=0.0))
    final_pos = forward_kinematics(ch2, traj.final)
    assert np.allclose(final_pos[fe], [3.0, 4.0, 1.0])  # field source, never moved
    moved = [i for i in range(ch2.n_atoms) if i != fe and i != 0]
    assert not np.allclose(final_pos[moved], forward_kinematics(ch2, ch2.conf_zp())[moved])


def test_hydrogen_free_structure_warns(tmp_path):
    ch = build_chain(["GLY", "GLY"])
    pos = forward_kinematics(ch, ch.conf_zp())
    path = tmp_path / "xray.pdb"
    write_pdb(ch, pos, path)
    lines = [l for l in path.read_text().splitlines()
             if not (l.startswith("ATOM") and l[76:78].strip() == "H")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="hydrogen"):
        ch2 = build_chain([], geometry=read_pdb(path))
    assert ch2.n_atoms < ch.n_atoms


def test_insertion_code_starts_a_residue(tmp_path):
    ch = build_chain(["GLY", "ALA", "SER"])
    path = tmp_path / "icode.pdb"
    write_pdb(ch, forward_kinematics(ch, ch.conf_zp()), path)
    # renumber residue 3 as 2A: same sequence number, insertion code A
    lines = [l[:22] + "   2A" + l[27:] if l.startswith("ATOM") and l[22:26] == "   3" else l
             for l in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    rec = read_pdb(path)
    assert len(rec.atoms) == 29
    ch2 = build_chain([], geometry=rec)
    assert ch2.residues == ["GLY", "ALA", "SER"]
    assert ch2.n_atoms == 29
    got = forward_kinematics(ch2, ch2.conf_zp())
    assert np.abs(got - np.array([a.xyz for a in rec.atoms])).max() < 1e-9


# ---- the one assembly against its per-residue reference -------------------

def _atom_lines(lines, residue=None, name=None):
    """Indices of the ATOM lines of residue number ``residue`` called ``name``
    (either may be None for any)."""
    return [k for k, line in enumerate(lines) if line.startswith("ATOM")
            and (residue is None or int(line[22:26]) == residue)
            and (name is None or line[12:16].strip() == name)]


def _with_hetero(lines):
    het = ["HETATM  901 FE   HEM B 501       3.000   4.000   1.000  1.00  0.00          FE",
           "HETATM  902 ZN    ZN A 502      -2.000   1.500   6.000  1.00  0.00          ZN",
           "HETATM  903  C1  LIG A 503       0.500  -4.000   2.000  1.00  0.00           C"]
    return lines[:-1] + het + lines[-1:]


def _without(lines, keep):
    return [line for k, line in enumerate(lines) if keep(k, line)]


def _ca_before_n(lines):
    lines = list(lines)
    for residue in (1, 3):
        (n,), (ca,) = _atom_lines(lines, residue, "N"), _atom_lines(lines, residue, "CA")
        lines[n], lines[ca] = lines[ca], lines[n]
    return lines


IMPORT_EDITS = {
    "final.pdb as written": lambda lines: lines,
    "hetero atoms": _with_hetero,
    # residue 2 (ALA) without HB1: no chi joint, it rides on its CA link
    "side atom missing": lambda lines: _without(
        lines, lambda k, line: k not in _atom_lines(lines, 2, "HB1")),
    # residue 3 renumbered 2A: same number, insertion code A
    "insertion code": lambda lines: [
        line[:22] + "   2A" + line[27:] if k in _atom_lines(lines, 3) else line
        for k, line in enumerate(lines)],
    "hydrogen-free": lambda lines: _without(
        lines, lambda k, line: not (line.startswith("ATOM") and line[76:78].strip() == "H")),
    "CA listed before N": _ca_before_n,
}


@pytest.fixture(scope="module")
def folded_pdb(tmp_path_factory):
    """``final.pdb`` of a short fold of a chain with every template kind."""
    out = tmp_path_factory.mktemp("fold")
    assert main(["fold", "--seq", "SACGA", "--max-iters", "3", "--out", str(out)]) == 0
    return (out / "final.pdb").read_text().splitlines()


@pytest.mark.parametrize("edit", sorted(IMPORT_EDITS))
def test_import_equals_the_per_residue_reference(edit, folded_pdb, tmp_path):
    """Imported structures go through the batched assembly to the chain the
    per-residue one builds, byte for byte, with the same warnings."""
    path = tmp_path / "edited.pdb"
    path.write_text("\n".join(IMPORT_EDITS[edit](folded_pdb)) + "\n")
    record = read_pdb(path)
    chains, caught = [], []
    for build in (build_chain, reference_chain):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            chains.append(build([], geometry=record))
        caught.append([str(w.message) for w in seen])
    assert_identical(*chains)
    assert caught[0] == caught[1]
