"""Residue templates: side-chain geometry, rotatable joints, rotamer defaults.

Templates are plain-text data (``data/templates.kft``); the canonical
backbone is built procedurally, templates only describe what hangs off
the alpha carbon.  The local frame is anchored at CA with x along N->CA,
y toward the carbonyl carbon, z out of the backbone plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import TemplateError, UnknownResidueError

MAX_SIDE_LINKS = 4

ONE_TO_THREE = {
    "A": "ALA", "R": "ARG", "N": "ASN", "D": "ASP", "C": "CYS",
    "Q": "GLN", "E": "GLU", "G": "GLY", "H": "HIS", "I": "ILE",
    "L": "LEU", "K": "LYS", "M": "MET", "F": "PHE", "P": "PRO",
    "S": "SER", "T": "THR", "W": "TRP", "Y": "TYR", "V": "VAL",
}
THREE_LETTER = frozenset(ONE_TO_THREE.values())

# Backbone atoms every template may reference as bond parents.  Local
# coordinates are nominal (used only to validate template bond lengths).
_BACKBONE_LOCAL = {
    "N": np.array([-1.47, 0.0, 0.0]),
    "CA": np.zeros(3),
    "C": np.array([0.533574, 1.437003, 0.0]),
}


@dataclass(frozen=True)
class TemplateAtom:
    name: str
    element: str
    param_class: str
    parent: str
    link: int  # 0 = CA link, 1..4 = side link index
    local: np.ndarray


@dataclass(frozen=True)
class ResidueSpec:
    """Template for one residue type.

    ``joints`` are the rotatable side-chain joints, one per side link;
    ``rotamer_defaults`` are the chi values (degrees) baked into the
    template coordinates, and ``chi_refs`` the four atom names whose
    torsion measures each chi.
    """

    aa_type: str
    atoms: tuple[TemplateAtom, ...]
    joints: tuple[tuple[str, str], ...]
    chi_refs: tuple[tuple[str, str, str, str], ...] = ()
    rotamer_defaults: tuple[float, ...] = ()

    def atom(self, name: str) -> TemplateAtom:
        for a in self.atoms:
            if a.name == name:
                return a
        raise KeyError(name)

    def validate(self) -> None:
        if len(self.joints) > MAX_SIDE_LINKS:
            raise TemplateError(
                f"{self.aa_type}: {len(self.joints)} side links exceeds {MAX_SIDE_LINKS}"
            )
        names = {a.name for a in self.atoms}
        if len(names) != len(self.atoms):
            raise TemplateError(f"{self.aa_type}: duplicate atom name")
        locals_ = dict(_BACKBONE_LOCAL)
        # every atom must reach the backbone through parent bonds
        pending = list(self.atoms)
        progressed = True
        while pending and progressed:
            progressed = False
            for a in list(pending):
                if a.parent in locals_:
                    d = float(np.linalg.norm(a.local - locals_[a.parent]))
                    if d <= 0.0:
                        raise TemplateError(
                            f"{self.aa_type}: zero-length bond {a.name}-{a.parent}"
                        )
                    locals_[a.name] = a.local
                    pending.remove(a)
                    progressed = True
        if pending:
            bad = ", ".join(a.name for a in pending)
            raise TemplateError(f"{self.aa_type}: unreachable template atoms: {bad}")
        for k, (src, dst) in enumerate(self.joints, start=1):
            if src not in locals_ or dst not in locals_:
                raise TemplateError(f"{self.aa_type}: joint {k} names unknown atom")


@dataclass
class TemplateRegistry:
    specs: dict[str, ResidueSpec] = field(default_factory=dict)

    def get(self, code: str) -> ResidueSpec:
        try:
            return self.specs[code]
        except KeyError:
            raise UnknownResidueError(f"no residue template for {code!r}") from None


def parse_templates(text: str) -> TemplateRegistry:
    registry = TemplateRegistry()
    cur: str | None = None
    atoms: list[TemplateAtom] = []
    joints: dict[int, tuple[str, str]] = {}
    chi_refs: dict[int, tuple[str, str, str, str]] = {}
    rotamers: dict[int, float] = {}

    def finish() -> None:
        nonlocal cur, atoms, joints, chi_refs, rotamers
        if cur is None:
            return
        ks = sorted(joints)
        if ks != list(range(1, len(ks) + 1)):
            raise TemplateError(f"{cur}: joint indices must be 1..k contiguous")
        spec = ResidueSpec(
            aa_type=cur,
            atoms=tuple(atoms),
            joints=tuple(joints[k] for k in ks),
            chi_refs=tuple(chi_refs.get(k, ()) for k in ks),
            rotamer_defaults=tuple(rotamers.get(k, 0.0) for k in ks),
        )
        spec.validate()
        registry.specs[cur] = spec
        cur, atoms, joints, chi_refs, rotamers = None, [], {}, {}, {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "residue":
                finish()
                cur = tok[1].upper()
            elif tok[0] == "atom":
                link = 0 if tok[5] == "bb" else int(tok[5])
                atoms.append(TemplateAtom(
                    name=tok[1], element=tok[2], param_class=tok[3],
                    parent=tok[4], link=link,
                    local=np.array([float(tok[6]), float(tok[7]), float(tok[8])]),
                ))
            elif tok[0] == "joint":
                joints[int(tok[1])] = (tok[2], tok[3])
            elif tok[0] == "chiref":
                chi_refs[int(tok[1])] = (tok[2], tok[3], tok[4], tok[5])
            elif tok[0] == "rotamer":
                rotamers[int(tok[1])] = float(tok[2])
            elif tok[0] == "end":
                finish()
            else:
                raise TemplateError(f"unknown directive {tok[0]!r}")
        except (IndexError, ValueError) as exc:
            raise TemplateError(f"template line {lineno}: {raw.strip()!r}: {exc}") from exc
    finish()
    return registry


_default: TemplateRegistry | None = None


def default_templates() -> TemplateRegistry:
    global _default
    if _default is None:
        text = resources.files("kinefold.data").joinpath("templates.kft").read_text()
        _default = parse_templates(text)
    return _default
