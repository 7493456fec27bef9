import numpy as np
import pytest

from kinefold.errors import TemplateError, UnknownResidueError
from kinefold.residues import default_templates, parse_templates


def test_shipped_templates_cover_test_residues():
    reg = default_templates()
    for code in ("GLY", "ALA", "SER", "CYS"):
        assert code in reg.specs
    assert len(reg.get("GLY").joints) == 0
    assert len(reg.get("ALA").joints) == 1
    assert len(reg.get("SER").joints) == 2
    assert len(reg.get("CYS").joints) == 2


def test_unknown_code_raises():
    with pytest.raises(UnknownResidueError):
        default_templates().get("TRP")


def test_rotamer_defaults_recorded():
    ser = default_templates().get("SER")
    assert len(ser.rotamer_defaults) == 2
    assert len(ser.chi_refs) == 2
    assert ser.chi_refs[0] == ("N", "CA", "CB", "OG")


def test_template_bond_lengths_positive():
    for code in ("GLY", "ALA", "SER", "CYS"):
        spec = default_templates().get(code)
        by_name = {a.name: a for a in spec.atoms}
        for atom in spec.atoms:
            if atom.parent in by_name:
                d = np.linalg.norm(atom.local - by_name[atom.parent].local)
                assert d > 0.5


def test_unreachable_atom_rejected():
    text = """
residue BAD
atom CB C CT QQ 1 0.5 0.5 0.5
joint 1 CA CB
end
"""
    with pytest.raises(TemplateError, match="unreachable"):
        parse_templates(text)


def test_too_many_side_links_rejected():
    lines = ["residue BAD"]
    prev = "CA"
    for k in range(1, 6):
        lines.append(f"atom X{k} C CT {prev} {k} {0.5 * k} 0.0 0.0")
        lines.append(f"joint {k} {prev} X{k}")
        prev = f"X{k}"
    lines.append("end")
    with pytest.raises(TemplateError, match="side links"):
        parse_templates("\n".join(lines))


def test_noncontiguous_joints_rejected():
    text = """
residue BAD
atom CB C CT CA 1 0.5 0.5 0.5
joint 2 CA CB
end
"""
    with pytest.raises(TemplateError, match="contiguous"):
        parse_templates(text)


def test_malformed_line_reports_location():
    with pytest.raises(TemplateError, match="line 2"):
        parse_templates("residue OK\natom CB C CT CA 1 0.5 not-a-number 0\nend")
