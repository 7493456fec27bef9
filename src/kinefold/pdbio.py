"""Structure and parameter I/O: PDB files, sequences, parameter tables, logs.

PDB handling is deliberately narrow: fixed-column ATOM/HETATM records,
first model of multi-model files, waters dropped on read (their effect
belongs to the implicit solvent), all other heteroatoms kept and
flagged.  No hydrogens are ever added; structures without them load
with a warning.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParameterFileError, PDBFormatError
from .forcefield import AtomParams
from .topology import WeightTable

WATER_RESIDUES = {"HOH", "WAT"}

# fallback nonbonded parameters for atoms outside the shipped class set
_ELEMENT_FALLBACK = {
    "C": (0.0, 1.9080, 0.1094, "C"),
    "N": (0.0, 1.8240, 0.1700, "O/N"),
    "O": (0.0, 1.6612, 0.2100, "O/N"),
    "S": (0.0, 2.0000, 0.2500, "S"),
    "H": (0.0, 1.0000, 0.0157, "NONE"),
    "P": (0.0, 2.1000, 0.2000, "NONE"),
}
_GENERIC_FALLBACK = (0.0, 1.5, 0.05, "NONE")


@dataclass(frozen=True)
class AtomRecord:
    name: str
    res_name: str
    res_seq: int
    chain_id: str
    xyz: tuple[float, float, float]
    element: str
    hetero: bool
    i_code: str = ""       # insertion code: residue 2A follows residue 2


@dataclass
class StructureRecord:
    atoms: list[AtomRecord]


def _element_of(name: str, raw: str) -> str:
    raw = raw.strip()
    if raw:
        return raw[0].upper() + raw[1:].lower()
    for ch in name:
        if ch.isalpha():
            return ch.upper()
    return "X"


def read_pdb(path) -> StructureRecord:
    """Parse ATOM/HETATM records; waters removed, first model only."""
    atoms: list[AtomRecord] = []
    seen_alt: set[tuple[str, str, int, str, str]] = set()
    stripped_water = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = line[:6].strip()
            if rec == "ENDMDL":
                break  # keep the first model of NMR-style files
            if rec not in ("ATOM", "HETATM"):
                continue
            try:
                name = line[12:16].strip()
                res_name = line[17:20].strip()
                chain_id = line[21].strip() if len(line) > 21 else ""
                res_seq = int(line[22:26])
                i_code = line[26].strip() if len(line) > 26 else ""
                xyz = (float(line[30:38]), float(line[38:46]), float(line[46:54]))
            except (ValueError, IndexError) as exc:
                raise PDBFormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if res_name in WATER_RESIDUES:
                stripped_water = True
                continue
            key = (rec, chain_id, res_seq, i_code, name)
            if key in seen_alt:
                continue  # alternate locations: first occurrence wins
            seen_alt.add(key)
            atoms.append(AtomRecord(
                name=name,
                res_name=res_name,
                res_seq=res_seq,
                chain_id=chain_id,
                xyz=xyz,
                element=_element_of(name, line[76:78] if len(line) >= 78 else ""),
                hetero=(rec == "HETATM"),
                i_code=i_code,
            ))
    if not atoms:
        detail = " after stripping water" if stripped_water else ""
        raise PDBFormatError(f"{path}: empty structure{detail}")
    return StructureRecord(atoms)


def write_pdb(chain, positions, path) -> None:
    """Fixed-column export; hetero atoms emitted as HETATM records under
    their residue names and numbers as read."""
    positions = np.asarray(positions, float)
    if chain.n_atoms == 0:
        raise PDBFormatError("refusing to write a structure with no atoms")
    if positions.shape != (chain.n_atoms, 3):
        raise PDBFormatError("positions do not match the chain's atom count")
    lines = []
    for i in range(chain.n_atoms):
        name, element = chain.atom_names[i], chain.atom_elements[i]
        # names of two-letter elements (FE) start in column 13, others in 14
        field_name = f"{name:<4s}" if len(name) >= 4 or len(element) == 2 else f" {name:<3s}"
        res = int(chain.atom_residue[i])
        if res < chain.n_residues:
            res_name, res_seq = chain.residues[res], res + 1
        else:  # hetero atoms keep their own number, as read (mod 10000)
            res_name, res_seq = chain.hetero_res_names[i], res - chain.n_residues
        rec = "HETATM" if chain.hetero_mask[i] else "ATOM  "
        x, y, z = positions[i]
        lines.append(
            f"{rec}{i + 1:5d} {field_name}{'':1s}{res_name:>3s} A{res_seq:4d}"
            f"    {x:8.3f}{y:8.3f}{z:8.3f}{1.0:6.2f}{0.0:6.2f}"
            f"          {element:>2s}"
        )
    lines.append("END")
    Path(path).write_text("\n".join(lines) + "\n")


def read_sequence(text: str) -> list[str]:
    """Residue codes from one- or three-letter text, case-insensitive.

    Whitespace tokens that are all known three-letter codes parse as
    such; otherwise each token is a run of one-letter codes.
    """
    from .residues import ONE_TO_THREE, THREE_LETTER

    tokens = text.split()
    if not tokens:
        raise PDBFormatError("empty sequence")
    if all(tok.upper() in THREE_LETTER for tok in tokens):
        return [tok.upper() for tok in tokens]
    out = []
    for tok in tokens:
        for ch in tok:
            code = ONE_TO_THREE.get(ch.upper())
            if code is None:
                raise PDBFormatError(f"unknown residue code {ch!r}")
            out.append(code)
    return out


# --------------------------------------------------------------------------
# parameter tables
# --------------------------------------------------------------------------

@dataclass
class ParamSet:
    classes: dict[str, tuple[float, float, float, str]]
    weights: WeightTable
    gamma_sets: dict[str, dict[str, float]]

    def gamma_table(self, which: str = "sharp") -> dict[str, float]:
        try:
            return self.gamma_sets[which]
        except KeyError:
            raise ParameterFileError(f"no solvation parameter set {which!r}") from None

    def resolve(self, chain, gamma_set: str = "sharp") -> AtomParams:
        """Per-atom parameters; unknown classes fall back by element."""
        gam = self.gamma_table(gamma_set)
        n = chain.n_atoms
        q = np.zeros(n)
        r = np.zeros(n)
        eps = np.zeros(n)
        gamma = np.zeros(n)
        solv: list[str] = []
        for i in range(n):
            cls = chain.atom_classes[i]
            row = self.classes.get(cls)
            if row is None:
                row = _ELEMENT_FALLBACK.get(chain.atom_elements[i], _GENERIC_FALLBACK)
            q[i], r[i], eps[i], sc = row
            if sc not in gam:
                raise ParameterFileError(f"solvation class {sc!r} missing from table")
            gamma[i] = gam[sc]
            solv.append(sc)
        return AtomParams(q=q, R=r, eps=eps, gamma=gamma, solv_class=tuple(solv))


def load_params(path=None) -> ParamSet:
    """Parse the parameter file; defaults to the shipped table."""
    if path is None:
        text = resources.files("kinefold.data").joinpath("params.ff").read_text()
        source = "<default>"
    else:
        text = Path(path).read_text()
        source = str(path)
    classes: dict[str, tuple[float, float, float, str]] = {}
    gamma_sets: dict[str, dict[str, float]] = {}
    wt = {"w13_elec": 0.0, "w13_vdw": 0.0, "w14_elec": 1.0 / 1.2, "w14_vdw": 0.5}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").split()
            continue
        tok = line.split()
        where = f"{source}:{lineno}"
        try:
            if section == ["weights"]:
                if tok[0] not in wt:
                    raise ParameterFileError(f"{where}: unknown weight {tok[0]!r}")
                wt[tok[0]] = float(tok[1])
            elif section and section[0] == "gamma":
                gamma_sets.setdefault(section[1], {})[tok[0]] = float(tok[1])
            elif section == ["classes"]:
                if len(tok) != 5:
                    raise ParameterFileError(
                        f"{where}: class rows need name, charge, radius, "
                        f"well depth, solvation class"
                    )
                if tok[0] in classes:
                    raise ParameterFileError(f"{where}: duplicate class {tok[0]!r}")
                classes[tok[0]] = (float(tok[1]), float(tok[2]), float(tok[3]), tok[4])
            else:
                raise ParameterFileError(f"{where}: content outside any section")
        except (ValueError, IndexError) as exc:
            raise ParameterFileError(f"{where}: {exc}") from exc
    if not classes:
        raise ParameterFileError(f"{source}: no [classes] section")
    if not gamma_sets:
        raise ParameterFileError(f"{source}: no [gamma] sections")
    return ParamSet(classes=classes, weights=WeightTable(**wt), gamma_sets=gamma_sets)


# --------------------------------------------------------------------------
# run logs
# --------------------------------------------------------------------------

LOG_HEADER = ["iteration", "g_elec", "g_vdw", "g_cav", "g_total", "tau_max"]
LOG_VERSION = "kinefold run log v1"


@dataclass
class RunLog:
    """Per-iteration CSV logs plus snapshot PDBs.

    Deterministic quantities (energies, torque norm, dihedrals) go to
    ``log.csv`` and ``dihedrals.csv``; wall-clock phase timings go to
    ``timings.csv`` so reruns with one seed produce byte-identical logs.
    """

    out_dir: Path

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def write_trajectory(self, chain, trajectory) -> None:
        with open(self.out_dir / "log.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"# {LOG_VERSION}"])
            w.writerow(LOG_HEADER)
            for r in trajectory.records:
                e = r.energy
                w.writerow([r.index, _num(e.g_elec), _num(e.g_vdw), _num(e.g_cav),
                            _num(e.g_total), _num(r.tau_max)])
        with open(self.out_dir / "dihedrals.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"# {LOG_VERSION}"])
            w.writerow(["iteration"] + [f"theta_{k}" for k in range(chain.n_dof)])
            for r in trajectory.records:
                w.writerow([r.index] + [_num(v) for v in r.theta])
        with open(self.out_dir / "timings.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"# {LOG_VERSION}"])
            phases = ["fk", "hash", "force", "solvation", "torque"]
            w.writerow(["iteration"] + [f"t_{p}" for p in phases])
            for r in trajectory.records:
                w.writerow([r.index] + [f"{r.timings.get(p, 0.0):.6f}" for p in phases])

    def snapshot(self, chain, positions, tag) -> Path:
        path = self.out_dir / f"snap_{tag}.pdb"
        write_pdb(chain, positions, path)
        return path


def _num(x: float) -> str:
    return f"{x:.10g}"


def write_manifest(out_dir, payload: dict) -> Path:
    """Machine-readable record of every effective parameter of a run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
    return path


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in obj.__dict__.items() if not k.startswith("_")}
    return str(obj)
