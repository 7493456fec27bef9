"""Structure and parameter I/O: PDB files, sequences, parameter tables,
and every file a command leaves in its run directory.

``write_csv`` is the one CSV writer (floats as ``.10g`` through ``_num``),
``write_run`` writes the logs, snapshots and final structure of one fold
and ``write_manifest`` the run's ``manifest.json``; the command line only
parses flags, calls the library and hands the results here.

PDB handling is deliberately narrow: fixed-column ATOM/HETATM records,
first model of multi-model files, waters dropped on read (their effect
belongs to the implicit solvent), all other heteroatoms kept and
flagged.  No hydrogens are ever added; structures without them load
with a warning.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .chain import forward_kinematics
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


def _read_text(path, error: type[Exception]) -> str:
    """The file at ``path`` as UTF-8 text; ``error`` names the path (and
    the line of the first byte that is not UTF-8) when it cannot be."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from exc


def read_pdb(path) -> StructureRecord:
    """Parse ATOM/HETATM records; waters removed, first model only."""
    atoms: list[AtomRecord] = []
    seen_alt: set[tuple[str, str, int, str, str]] = set()
    stripped_water = False
    with io.StringIO(_read_text(path, PDBFormatError), newline=None) as fh:
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
    their residue names, chain IDs and numbers as read."""
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
            res_name, res_seq, chain_id = chain.residues[res], res + 1, chain.chain_id
        else:
            res_name, chain_id, res_seq = chain.hetero_residues[i]
        rec = "HETATM" if chain.hetero_mask[i] else "ATOM  "
        x, y, z = positions[i]
        lines.append(
            f"{rec}{i + 1:5d} {field_name}{'':1s}{res_name:>3s} {chain_id:1s}{res_seq:4d}"
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
        """Per-atom parameters; unknown classes fall back by element.  Each
        distinct class (and element) is looked up once, in atom order."""
        gam = self.gamma_table(gamma_set)
        kinds: dict[tuple[str, str], int] = {}
        kind = np.array([kinds.setdefault(key, len(kinds))
                         for key in zip(chain.atom_classes, chain.atom_elements)], np.int64)
        rows = []
        for cls, element in kinds:
            row = self.classes.get(cls)
            if row is None:
                row = _ELEMENT_FALLBACK.get(element, _GENERIC_FALLBACK)
            q, r, eps, sc = row
            if sc not in gam:
                raise ParameterFileError(f"solvation class {sc!r} missing from table")
            rows.append((q, r, eps, gam[sc]))
        q, r, eps, gamma = np.array(rows, float).reshape(-1, 4).T[:, kind]
        return AtomParams(q=q, R=r, eps=eps, gamma=gamma)


def load_params(path=None) -> ParamSet:
    """Parse the parameter file; defaults to the shipped table."""
    if path is None:
        text = resources.files("kinefold.data").joinpath("params.ff").read_text("utf-8")
        source = "<default>"
    else:
        text = _read_text(path, ParameterFileError)
        source = str(path)
    classes: dict[str, tuple[float, float, float, str]] = {}
    gamma_sets: dict[str, dict[str, float]] = {}
    wt = {f.name: f.default for f in fields(WeightTable)}
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
# run directories
# --------------------------------------------------------------------------

LOG_HEADER = ["iteration", "g_elec", "g_vdw", "g_cav", "g_total", "tau_max"]
LOG_VERSION = "kinefold run log v1"
SUMMARY_HEADER = ["run", "iterations", "converged", "reason", "g_total", "mean_phi",
                  "mean_psi"]


def _num(x: float) -> str:
    return f"{x:.10g}"


def write_csv(path, header, rows, *, versioned=False) -> None:
    """The one CSV writer: the parent directory made, ``# kinefold run log
    v1`` first when ``versioned``, then the header and the rows."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if versioned:
            w.writerow([f"# {LOG_VERSION}"])
        w.writerow(header)
        w.writerows(rows)


def write_run(run_dir, chain, trajectory) -> None:
    """Everything one fold leaves in ``run_dir``.

    Deterministic quantities (energies, torque norm, dihedrals) go to
    ``log.csv`` and ``dihedrals.csv``; wall-clock phase timings go to
    ``timings.csv`` so reruns with one seed produce byte-identical logs.
    Then come ``snap_<iteration>.pdb`` per snapshot and ``final.pdb``.
    """
    run_dir, records = Path(run_dir), trajectory.records
    phases = ["fk", "hash", "force", "solvation", "torque"]
    write_csv(run_dir / "log.csv", LOG_HEADER, (
        [r.index] + [_num(v) for v in (r.energy.g_elec, r.energy.g_vdw, r.energy.g_cav,
                                       r.energy.g_total, r.tau_max)]
        for r in records), versioned=True)
    write_csv(run_dir / "dihedrals.csv",
              ["iteration"] + [f"theta_{k}" for k in range(chain.n_dof)],
              ([r.index] + [_num(v) for v in r.theta] for r in records), versioned=True)
    write_csv(run_dir / "timings.csv", ["iteration"] + [f"t_{p}" for p in phases],
              ([r.index] + [f"{r.timings.get(p, 0.0):.6f}" for p in phases]
               for r in records), versioned=True)
    for it, snap in trajectory.snapshots:
        write_pdb(chain, forward_kinematics(chain, snap), run_dir / f"snap_{it:06d}.pdb")
    write_pdb(chain, forward_kinematics(chain, trajectory.final), run_dir / "final.pdb")


def summary_row(run: int, chain, outcome) -> list:
    """One ``summary.csv`` row: a finished trajectory, or the error that
    ended the run.  The mean phi and psi leave out the chain ends, where
    they are undefined, so a one-residue chain leaves them empty."""
    if isinstance(outcome, Exception):
        return [run, "", False, f"error: {outcome}", "", "", ""]
    phi, psi, _ = chain.dihedrals_from_theta(outcome.final)
    return [run, outcome.iterations, outcome.converged, outcome.reason,
            f"{outcome.records[-1].energy.g_total:.6g}",
            *(f"{np.mean(a):.2f}" if len(a) else "" for a in (phi[1:], psi[:-1]))]


def write_manifest(out_dir, payload: dict) -> Path:
    """Machine-readable record of every effective parameter of a run.
    Arrays and numpy numbers are written as plain values; any other
    object that JSON cannot hold raises ``TypeError``."""
    path = Path(out_dir) / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable))
    return path


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"the manifest cannot hold values of type {type(obj).__name__}")
