import numpy as np
import pytest

from kinefold.chain import build_chain, forward_kinematics
from kinefold.errors import ParameterFileError, PDBFormatError
from kinefold.pdbio import (
    load_params,
    read_pdb,
    read_sequence,
    write_manifest,
    write_pdb,
)

from .conftest import atom_index

WATER_ONLY = """\
ATOM      1  O   HOH A   1       0.000   0.000   0.000  1.00  0.00           O
ATOM      2  H1  HOH A   1       0.960   0.000   0.000  1.00  0.00           H
HETATM    3  O   WAT A   2       5.000   0.000   0.000  1.00  0.00           O
END
"""

ONE_ATOM = """\
ATOM      1  N   GLY A   1      11.104  13.207  -2.251  1.00  0.00           N
END
"""

HETERO_MIX = """\
ATOM      1  N   GLY A   1       0.000   0.000   0.000  1.00  0.00           N
ATOM      2  CA  GLY A   1       1.470   0.000   0.000  1.00  0.00           C
ATOM      3  C   GLY A   1       2.023   1.426   0.000  1.00  0.00           C
ATOM      4  O   GLY A   1       1.325   2.439   0.000  1.00  0.00           O
HETATM    5 FE   HEM A   2       4.000   1.000   1.000  1.00  0.00          FE
HETATM    6  O   HOH A   3       8.000   0.000   0.000  1.00  0.00           O
END
"""

MULTI_MODEL = """\
MODEL        1
ATOM      1  N   GLY A   1       0.000   0.000   0.000  1.00  0.00           N
ENDMDL
MODEL        2
ATOM      1  N   GLY A   1       9.000   9.000   9.000  1.00  0.00           N
ENDMDL
END
"""


def test_water_only_file_rejected(tmp_path):
    p = tmp_path / "w.pdb"
    p.write_text(WATER_ONLY)
    with pytest.raises(PDBFormatError, match="empty structure"):
        read_pdb(p)


def test_single_atom_coordinates(tmp_path):
    p = tmp_path / "one.pdb"
    p.write_text(ONE_ATOM)
    rec = read_pdb(p)
    assert len(rec.atoms) == 1
    a = rec.atoms[0]
    assert a.name == "N" and a.res_name == "GLY" and not a.hetero
    assert a.xyz == pytest.approx((11.104, 13.207, -2.251))


def test_water_stripping_keeps_other_heteros(tmp_path):
    p = tmp_path / "mix.pdb"
    p.write_text(HETERO_MIX)
    rec = read_pdb(p)
    names = [a.name for a in rec.atoms]
    assert "FE" in names
    assert all(a.res_name not in ("HOH", "WAT") for a in rec.atoms)
    fe = next(a for a in rec.atoms if a.name == "FE")
    assert fe.hetero and fe.element == "Fe"


def test_first_model_only(tmp_path):
    p = tmp_path / "nmr.pdb"
    p.write_text(MULTI_MODEL)
    rec = read_pdb(p)
    assert len(rec.atoms) == 1
    assert rec.atoms[0].xyz == pytest.approx((0.0, 0.0, 0.0))


def test_malformed_record_raises(tmp_path):
    p = tmp_path / "bad.pdb"
    p.write_text("ATOM      1  N   GLY A   1      bad-x   0.000   0.000\n")
    with pytest.raises(PDBFormatError, match="malformed"):
        read_pdb(p)


def test_round_trip(tmp_path, mixed_chain):
    pos = forward_kinematics(mixed_chain, mixed_chain.conf_zp())
    p = tmp_path / "chain.pdb"
    write_pdb(mixed_chain, pos, p)
    rec = read_pdb(p)
    assert len(rec.atoms) == mixed_chain.n_atoms
    for i, a in enumerate(rec.atoms):
        assert a.name == mixed_chain.atom_names[i]
        assert a.res_seq == int(mixed_chain.atom_residue[i]) + 1
        assert a.xyz == pytest.approx(tuple(np.round(pos[i], 3)), abs=5e-4)
    # write -> read -> write reproduces the bytes
    p2 = tmp_path / "chain2.pdb"
    ch2 = build_chain([], geometry=rec)
    write_pdb(ch2, forward_kinematics(ch2, ch2.conf_zp()), p2)
    assert p.read_text() == p2.read_text()


def test_write_empty_rejected(tmp_path, mixed_chain):
    with pytest.raises(PDBFormatError):
        write_pdb(mixed_chain, np.zeros((0, 3)), tmp_path / "x.pdb")


def test_hetero_emitted_as_hetatm(tmp_path):
    src = tmp_path / "mix.pdb"
    src.write_text(HETERO_MIX)
    ch = build_chain([], geometry=read_pdb(src))
    out = tmp_path / "out.pdb"
    write_pdb(ch, forward_kinematics(ch, ch.conf_zp()), out)
    fe_lines = [l for l in out.read_text().splitlines() if " FE " in l or "FE  " in l]
    assert fe_lines and fe_lines[0].startswith("HETATM")


def test_hetero_names_round_trip(tmp_path):
    """Read -> write -> read keeps each hetero atom's name, residue name and
    element, also for two ligands sharing a number, and writes the records
    in the columns they were read from: a two-letter element's name starts
    in column 13."""
    src = tmp_path / "mix.pdb"
    zinc = "HETATM    6 ZN    ZN A   2       8.000   0.000   0.000  1.00  0.00          ZN"
    src.write_text(HETERO_MIX.replace(HETERO_MIX.splitlines()[5], zinc))
    ch = build_chain([], geometry=read_pdb(src))
    out = tmp_path / "out.pdb"
    write_pdb(ch, forward_kinematics(ch, ch.conf_zp()), out)
    got = [(a.name, a.res_name, a.element, a.res_seq)
           for a in read_pdb(out).atoms if a.hetero]
    assert got == [("FE", "HEM", "Fe", 2), ("ZN", "ZN", "Zn", 2)]
    lines = [l for l in out.read_text().splitlines() if l.startswith("HETATM")]
    want = [l for l in src.read_text().splitlines() if l.startswith("HETATM")]
    assert [l[12:27] for l in lines] == [l[12:27] for l in want]
    assert lines[0][12:27] == "FE   HEM A   2 "
    assert [l[76:78] for l in lines] == ["Fe", "Zn"]


def test_hetero_numbers_round_trip(tmp_path):
    """A hetero atom keeps its own residue number (mod 10000) on export,
    so a ligand numbered 9999 still fits the four-column field, and one
    numbered like a protein residue is not taken for its alternate
    location."""
    src = tmp_path / "lig.pdb"
    src.write_text(HETERO_MIX.replace("HEM A   2", "HEM A9999")
                   .replace("HOH A   3", "LIG A   1"))
    ch = build_chain([], geometry=read_pdb(src))
    assert ch.hetero_mask.sum() == 2
    out = tmp_path / "out.pdb"
    write_pdb(ch, forward_kinematics(ch, ch.conf_zp()), out)
    rec = read_pdb(out)
    assert sorted(a.res_seq for a in rec.atoms if a.hetero) == [1, 9999]
    again = tmp_path / "again.pdb"
    ch2 = build_chain([], geometry=rec)
    write_pdb(ch2, forward_kinematics(ch2, ch2.conf_zp()), again)
    assert again.read_text() == out.read_text()


# ---- sequences ------------------------------------------------------------

def test_one_letter_sequence():
    assert read_sequence("AAA") == ["ALA", "ALA", "ALA"]


def test_three_letter_sequence():
    assert read_sequence("GLY SER") == ["GLY", "SER"]


def test_three_letter_wins_over_letter_runs():
    assert read_sequence("GLY") == ["GLY"]


def test_mixed_case():
    assert read_sequence("gly ala") == ["GLY", "ALA"]
    assert read_sequence("gAsC") == ["GLY", "ALA", "SER", "CYS"]


def test_unknown_code_rejected():
    with pytest.raises(PDBFormatError):
        read_sequence("AXB")


# ---- parameter tables -----------------------------------------------------

def test_default_gamma_values(param_set):
    sharp = param_set.gamma_table("sharp")
    assert sharp["C"] == pytest.approx(0.012)
    assert sharp["N+"] == pytest.approx(-0.186)
    assert sharp["O-"] == pytest.approx(-0.175)
    kyte = param_set.gamma_table("kyte")
    assert kyte["C"] == pytest.approx(0.004)
    assert kyte["N+"] == pytest.approx(-0.169)


def test_resolve_matches_solvation_class(param_set, mixed_chain):
    params = param_set.resolve(mixed_chain, "sharp")
    table = param_set.gamma_table("sharp")
    for i in range(mixed_chain.n_atoms):
        assert params.gamma[i] == table[params.solv_class[i]]
    assert np.all(params.R > 0)


def test_gamma_set_selection(param_set, ala2):
    a = param_set.resolve(ala2, "sharp")
    b = param_set.resolve(ala2, "kyte")
    ca = atom_index(ala2, 0, "CA")
    assert a.gamma[ca] == pytest.approx(0.012)
    assert b.gamma[ca] == pytest.approx(0.004)


def test_missing_column_rejected(tmp_path):
    p = tmp_path / "bad.ff"
    p.write_text("[classes]\nN -0.4 1.8\n[gamma sharp]\nC 0.01\n")
    with pytest.raises(ParameterFileError, match="well depth"):
        load_params(p)


def test_duplicate_class_rejected(tmp_path):
    p = tmp_path / "dup.ff"
    p.write_text("[classes]\nN 0 1.8 0.1 O/N\nN 0 1.8 0.1 O/N\n")
    with pytest.raises(ParameterFileError, match="duplicate"):
        load_params(p)


def test_non_numeric_rejected(tmp_path):
    p = tmp_path / "nan.ff"
    p.write_text("[classes]\nN zero 1.8 0.1 O/N\n[gamma sharp]\nC 0.01\n")
    with pytest.raises(ParameterFileError):
        load_params(p)


def test_weight_overrides(tmp_path):
    p = tmp_path / "w.ff"
    p.write_text(
        "[weights]\nw14_elec 0.5\n[gamma sharp]\nC 0.01\nNONE 0\n"
        "[classes]\nN 0 1.8 0.1 C\n"
    )
    ps = load_params(p)
    assert ps.weights.w14_elec == pytest.approx(0.5)
    assert ps.weights.w13_vdw == 0.0


def test_manifest_round_trip(tmp_path):
    import json
    path = write_manifest(tmp_path, {"alpha": 1.0, "seed": 7,
                                     "arr": np.arange(3)})
    data = json.loads(path.read_text())
    assert data["seed"] == 7
    assert data["arr"] == [0, 1, 2]
