"""Kinematic chain model: linkage construction and forward kinematics.

A protein with m residues is a serial linkage of rigid links: per residue
one alpha-carbon link (driven by phi about N-CA) and one peptide-group
link (driven by psi about CA-C), plus up to four side-chain links driven
by chi joints.  All dihedrals are measured from the reference build
(every theta = 0 there): for canonical chains that is the extended
conformation with coplanar peptide groups; for imported chains it is the
geometry as read.

The canonical build only generates reference atoms; they go through the
same named-atom assembly as an imported structure, which derives links,
atom ownership, chi joints and bonds from atom names and templates.

The links live in one table, ``Chain.links`` (a ``LinkArrays``): one
row per link and one column per field (kind, residue, chi index and
reference chi, dof, parent, reference axis, body vector and joint
point), stacked once by the builder.  Atom positions follow from prefix
products of joint rotations about the reference axes and prefix sums of
rotated body vectors; each rigid link carries its member atoms as fixed
offsets from its joint point, worked out once when the chain is built.
Rows are in topological order (every link's parent has a lower index),
so one forward pass over the parent column places the whole tree and one
reverse pass over it aggregates any per-link quantity onto ancestors.
The table refuses any other order, and non-unit axes, whoever builds it.

The forward pass is one call into the native library (``links.c``,
loaded by ``native``), which forms each joint's rotation from its axis
in a fixed C order; its numpy reference is ``tests/oracles.py``'s
``kinematic_state``, which it matches to rounding, not bitwise.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import native
from .errors import ChainBuildError, ConfigurationError
from .geometry import (
    AXIS_UNIT_TOL,
    dihedral_angle,
    frame_from_backbone,
    norms,
    signed_degrees,
    unit_vector,
    wrap_degrees,
)
from .residues import ResidueSpec, default_templates

# Canonical backbone constants (Angstroms / degrees).  The carbonyl C,
# carbonyl O, and amide H are not walked explicitly: they come from the
# peptide-plane coefficient rows applied to the main-chain body vectors,
# so the walk only needs the N/CA skeleton and a provisional C.
BOND_N_CA = 1.47
BOND_CA_C = 1.53
BOND_C_N = 1.32
ANGLE_N_CA_C = 111.0
ANGLE_CA_C_N = 114.5
ANGLE_C_N_CA = 123.0
BOND_C_O_TERM = 1.25
ANGLE_CA_C_O_TERM = 117.0
BOND_N_H_TERM = 1.01
ANGLE_H_N_CA = 119.0

PLANE_CONSTANTS = {
    "CA_C": (-0.2761, 1.4488),
    "C_N": (1.2761, -1.4488),
    "C_O": (-1.3324, 2.3401),
    "N_H": (1.4103, -2.5111),
}

BACKBONE_CLASSES = {"N": "N", "H": "H", "C": "C", "O": "O", "OXT": "O2"}


@dataclass(frozen=True)
class Conformation:
    """Dihedral state: theta per joint in degrees and the frozen-joint mask,
    both read-only.  Only this constructor checks (every theta finite) and
    wraps theta to [0, 360); a read-only bool mask of its own is shared."""

    theta: np.ndarray
    frozen: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, float)
        # a NaN or infinity makes the sum non-finite; so can an overflow,
        # which the exact test then lets pass
        if not math.isfinite(np.add.reduce(theta, axis=None)):
            bad = np.flatnonzero(~np.isfinite(theta))
            if bad.size:
                raise ConfigurationError(
                    f"theta of dof {bad[0]} is {theta.flat[bad[0]]}: "
                    f"dihedrals must be finite")
        frozen = np.asarray(self.frozen, bool)
        if frozen.flags.writeable or frozen.base is not None:
            frozen = frozen.copy()
        for name, array in (("theta", wrap_degrees(theta)), ("frozen", frozen)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.theta.shape != self.frozen.shape:
            raise ConfigurationError("theta and frozen mask must have equal length")

    def freeze(self, dofs) -> "Conformation":
        dofs = np.asarray(dofs, int)
        bad = dofs[(dofs < 0) | (dofs >= len(self.frozen))]
        if bad.size:
            raise ConfigurationError(
                f"cannot freeze dof {bad[0]}: dofs are 0..{len(self.frozen) - 1}"
            )
        mask = self.frozen.copy()
        mask[dofs] = True
        return Conformation(self.theta, mask)


@dataclass(frozen=True)
class LinkArrays:
    """The links of a chain, one row per link in every column.

    Rows are parent-first: row 0 is the ground link (kind "ground", zero
    axis, dof and parent -1) and every other row's parent has a lower
    index, so one forward pass places the tree and one reverse pass sums
    it.  That order and unit joint axes are checked here, so every chain
    has them, however its table was made.  The numeric columns are held as
    the C-contiguous int64 and float64 arrays the native passes read.
    """

    kind: list[str]           # ground | phi | psi | chi
    residue: np.ndarray       # (n_links,) 0-based residue, -1 for ground
    chi_index: np.ndarray     # (n_links,) 1..4 for chi links, else 0
    chi0: np.ndarray          # (n_links,) reference chi (deg) for the index map
    dof: np.ndarray           # (n_links,) flat dof index
    parent: np.ndarray        # (n_links,) parent link index
    axis0: np.ndarray         # (n_links, 3) reference unit axes
    body0: np.ndarray         # (n_links, 3) reference body vectors
    point0: np.ndarray        # (n_links, 3) reference joint points

    def __post_init__(self):
        for name, dtype in (("residue", np.int64), ("chi_index", np.int64),
                            ("chi0", float), ("dof", np.int64), ("parent", np.int64),
                            ("axis0", float), ("body0", float), ("point0", float)):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype))
        parent = self.parent
        row = np.arange(len(parent))
        misplaced = np.where(row == 0, parent != -1, (parent < 0) | (parent >= row))
        bad = np.flatnonzero(misplaced)
        if bad.size:
            li = bad[0]
            raise ChainBuildError(
                f"link {li} has parent {parent[li]}; every link must follow its "
                f"parent and only link 0 may be the root"
            )
        norms = np.linalg.norm(self.axis0[1:], axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > AXIS_UNIT_TOL)
        if bad.size:
            raise ConfigurationError(
                f"rotation axis must be unit length, got norm {norms[bad[0]]:.3e}"
                f" on link {bad[0] + 1}"
            )

    def __len__(self) -> int:
        return len(self.parent)


@dataclass
class Chain:
    """Immutable-by-convention linkage over a fixed atom set.  Each
    atom's offset from its link's joint point is worked out once, when
    the chain is built, so the reference positions and atom owners are
    read-only; ``dataclasses.replace`` builds a chain with others."""

    residues: list[str]
    links: LinkArrays
    atom_names: list[str]
    atom_elements: list[str]
    atom_classes: list[str]
    atom_residue: np.ndarray
    atom_link: np.ndarray
    zp_pos: np.ndarray
    bonds: list[tuple[int, int]]
    hetero_mask: np.ndarray
    source: str = "canonical"
    hetero_res_names: dict[int, str] = field(default_factory=dict)  # atom -> as read
    chain_id: str = "A"   # of the protein atoms: as read when imported
    hetero_chain_ids: dict[int, str] = field(default_factory=dict)  # atom -> as read
    offsets: np.ndarray = field(init=False, repr=False)  # (n_atoms, 3), from joint points

    def __post_init__(self):
        self.atom_link = np.array(self.atom_link, np.int64)
        self.zp_pos = np.array(self.zp_pos, float)
        self.offsets = self.zp_pos - self.links.point0[self.atom_link]
        for column in (self.atom_link, self.zp_pos):
            column.flags.writeable = False

    # ---- counts -------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @property
    def n_residues(self) -> int:
        return len(self.residues)

    @property
    def n_dof(self) -> int:
        return len(self.links) - 1  # every non-ground link has one joint

    def dof_phi(self, i: int) -> int:
        return 2 * i

    def dof_psi(self, i: int) -> int:
        return 2 * i + 1

    # ---- conformation helpers ----------------------------------------------
    def conf_zp(self) -> Conformation:
        return Conformation(theta=np.zeros(self.n_dof), frozen=np.zeros(self.n_dof, bool))

    def conf_from_backbone(self, phi, psi) -> Conformation:
        """Backbone dihedrals in degrees (scalars broadcast); chi at defaults."""
        m = self.n_residues
        phi = np.broadcast_to(np.asarray(phi, float), (m,))
        psi = np.broadcast_to(np.asarray(psi, float), (m,))
        theta = np.zeros(self.n_dof)
        theta[0 : 2 * m : 2] = phi + 180.0
        theta[1 : 2 * m : 2] = psi + 180.0
        return Conformation(theta, np.zeros(self.n_dof, bool))

    def dihedrals_from_theta(self, conf: Conformation):
        """Invert the index map: theta -> (phi, psi, chi) in [-180, 180)."""
        m = self.n_residues
        phi = signed_degrees(conf.theta[0 : 2 * m : 2] - 180.0)
        psi = signed_degrees(conf.theta[1 : 2 * m : 2] - 180.0)
        links = self.links
        chi = {}
        for li in np.flatnonzero(links.chi_index):
            chi[(int(links.residue[li]), int(links.chi_index[li]))] = float(
                signed_degrees(conf.theta[links.dof[li]] + links.chi0[li])
            )
        return phi, psi, chi

    def validate_conformation(self, conf: Conformation) -> None:
        if conf.theta.shape[0] != self.n_dof:
            raise ConfigurationError(
                f"conformation has {conf.theta.shape[0]} dofs, chain needs {self.n_dof}"
            )


# --------------------------------------------------------------------------
# forward kinematics
# --------------------------------------------------------------------------

@dataclass
class KinematicState:
    """Per-link transforms, joint points and axes, plus atom positions."""

    transforms: np.ndarray     # (n_links, 3, 3) prefix rotation per link
    joint_points: np.ndarray   # (n_links, 3) current joint point per link
    axes: np.ndarray           # (n_links, 3) current unit axis; ground row 0
    positions: np.ndarray      # (n_atoms, 3)


def kinematic_state(chain: Chain, conf: Conformation) -> KinematicState:
    """One native forward pass over the links: each joint's Rodrigues
    rotation, then ``M[li] = M[parent] @ R[li]`` and ``P[li] = P[parent]
    + M[parent] @ body0[parent]`` (valid because every parent precedes
    its child), the axes ``M[li] @ axis0[li]``, and every atom at
    ``P[owner] + M[owner] @ offset``."""
    chain.validate_conformation(conf)
    links = chain.links
    n_links, n = len(links), chain.n_atoms
    M = np.empty((n_links, 3, 3))
    P = np.empty((n_links, 3))
    axes = np.empty((n_links, 3))
    pos = np.empty((n, 3))
    if native.load().call("forward_links", n_links, links.parent, links.dof,
                          chain.n_dof, conf.theta, links.axis0, links.body0, n,
                          chain.atom_link, chain.offsets, M, P, axes,
                          pos) == native.REFUSED:
        raise link_index_error(chain)
    return KinematicState(transforms=M, joint_points=P, axes=axes, positions=pos)


def link_index_error(chain: Chain) -> ChainBuildError:
    """What a native link pass's refusal means: its index columns are
    out of range."""
    return ChainBuildError(f"link parents, dofs or atom owners out of range for "
                           f"{len(chain.links)} links and {chain.n_dof} dofs")


def forward_kinematics(chain: Chain, conf: Conformation) -> np.ndarray:
    """Atom positions (Angstroms) for a conformation; heteros unchanged."""
    return kinematic_state(chain, conf).positions


# --------------------------------------------------------------------------
# canonical builder
# --------------------------------------------------------------------------

def _plane_dir(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([math.cos(a), math.sin(a), 0.0])


def _walk_backbone(m: int, cis: bool):
    """Extended planar walk; returns N, CA, provisional C per residue."""
    npos = [np.zeros(3)]
    capos = []
    ctmp = []
    direction = 0.0
    turn = 1.0
    for i in range(m):
        capos.append(npos[i] + BOND_N_CA * _plane_dir(direction))
        direction += turn * (180.0 - ANGLE_N_CA_C)
        turn = -turn
        ctmp.append(capos[i] + BOND_CA_C * _plane_dir(direction))
        if i + 1 < m:
            direction += turn * (180.0 - ANGLE_CA_C_N)
            turn = -turn
            npos.append(ctmp[i] + BOND_C_N * _plane_dir(direction))
            if cis:
                turn = -turn
            direction += turn * (180.0 - ANGLE_C_N_CA)
            turn = -turn
    return npos, capos, ctmp, direction, turn


def _combo(key, b2, b3):
    c1, c2 = PLANE_CONSTANTS[key]
    return c1 * b2 + c2 * b3


def build_chain(sequence, geometry=None, *, omega="trans") -> Chain:
    """Build the linkage from a residue-code list.

    ``geometry`` is None for the canonical build (extended reference with
    the shipped plane coefficients) or a parsed structure record to
    retain imported geometry as-read.  ``omega`` ("trans" or "cis") sets
    every peptide bond of a canonical build.  Either way the named atoms
    go through one assembly, which derives links, ownership and bonds.
    """
    if geometry is not None:
        residues, hetero, chain_id = _imported_residues(geometry)
        return _assemble(residues, hetero, "imported", chain_id)

    seq = [str(c).upper() for c in sequence]
    if not seq:
        raise ChainBuildError("zero-length sequence")
    specs = [default_templates().get(code) for code in seq]
    if omega not in ("trans", "cis"):
        raise ChainBuildError(f"omega must be trans or cis, got {omega!r}")
    cis = omega == "cis"

    m = len(seq)
    npos, capos, ctmp, direction, turn = _walk_backbone(m, cis)

    # peptide-group atoms from the coefficient rows; the rows encode the
    # trans plane, so cis planes (on request) fall back to internal coords
    cpos: list[np.ndarray] = []
    opos: list[np.ndarray] = []
    hpos = [npos[0] + BOND_N_H_TERM * _plane_dir(-ANGLE_H_N_CA)]  # amino-terminal H
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
            opos.append(c + BOND_C_O_TERM * o_dir)
            h_dir = unit_vector(-(unit_vector(c - npos[i + 1])
                                  + unit_vector(capos[i + 1] - npos[i + 1])))
            hpos.append(npos[i + 1] + BOND_N_H_TERM * h_dir)
    # terminal carboxylate from internal coordinates; direction still points
    # along CA_m -> C_m, so both oxygens sit at +/-(180 - angle) off it
    c_term = ctmp[m - 1]
    split = 180.0 - ANGLE_CA_C_O_TERM
    oxt = c_term + BOND_C_O_TERM * _plane_dir(direction + turn * split)
    o_term = c_term + BOND_C_O_TERM * _plane_dir(direction - turn * split)
    cpos.append(c_term)
    opos.append(o_term)

    # template atoms hang off each residue frame at CA
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
        residues.append(_ResidueAtoms(code, names, elements, np.array(rows)))
    return _assemble(residues, [], "canonical")


# --------------------------------------------------------------------------
# assembly: named atoms -> links, ownership, bonds
# --------------------------------------------------------------------------

@dataclass
class _ResidueAtoms:
    """One residue's atoms in order, as the assembly takes them."""

    code: str                  # three-letter residue code
    names: list[str]
    elements: list[str]
    xyz: np.ndarray            # (n, 3)


class _Builder:
    """Accumulates atoms/links/bonds, then produces a Chain."""

    def __init__(self):
        self.names: list[str] = []
        self.elements: list[str] = []
        self.classes: list[str] = []
        self.residue_of: list[int] = []
        self.link_of: list[int] = []
        self.pos: list[np.ndarray] = []
        self.bonds: list[tuple[int, int]] = []
        self.hetero: list[bool] = []
        self.hetero_res_names: dict[int, str] = {}
        self.hetero_chain_ids: dict[int, str] = {}
        self.links: list[dict] = []   # per link, its LinkArrays columns

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
        # the rows are stacked once; kind stays a list
        columns = {name: [rec[name] for rec in self.links] for name in self.links[0]}
        links = LinkArrays(**{name: col if name == "kind" else np.array(col)
                              for name, col in columns.items()})
        return Chain(
            residues=residues,
            links=links,
            atom_names=self.names,
            atom_elements=self.elements,
            atom_classes=self.classes,
            atom_residue=np.asarray(self.residue_of, int),
            atom_link=np.asarray(self.link_of, int),
            zp_pos=np.array(self.pos),
            bonds=self.bonds,
            hetero_mask=np.asarray(self.hetero, bool),
            source=source,
            hetero_res_names=self.hetero_res_names,
            chain_id=chain_id,
            hetero_chain_ids=self.hetero_chain_ids,
        )


_COVALENT_RADII = {"H": 0.31, "C": 0.76, "N": 0.71, "O": 0.66, "S": 1.05, "P": 1.07}
_BOND_SLACK = 0.4

_N_TERM_H_NAMES = ("H", "H1", "H2", "H3", "HN")
_BACKBONE_NAMES = frozenset(("N", "CA", "C", "O", "OXT", *_N_TERM_H_NAMES))
_NAMED_BONDS = (("N", "CA"), ("CA", "C"), ("C", "O"), ("C", "OXT"),
                *(("N", h) for h in _N_TERM_H_NAMES))


def _assemble(residues: list[_ResidueAtoms], hetero, source: str,
              chain_id: str = "A") -> Chain:
    """The linkage over named atoms grouped by residue.  A residue whose
    atoms cover its template's side-link atoms gets the template's chi
    joints; any other rides rigidly on its CA link.  ``hetero`` atoms
    stay fixed on the ground link."""
    where = [{name: k for k, name in enumerate(r.names)} for r in residues]
    m = len(residues)
    n, ca, c = np.array([[r.xyz[at[nm]] for nm in ("N", "CA", "C")]
                         for r, at in zip(residues, where)]).transpose(1, 0, 2)
    last = where[-1]
    tip = residues[-1].xyz[last["OXT" if "OXT" in last else "O" if "O" in last else "C"]]

    # the ground link, then per residue a phi (N-CA) and a psi (CA-C) link;
    # a psi body runs from CA to the next N, the last one to the chain tip
    b = _Builder()
    ground = b.add_link(kind="ground", residue=-1, chi_index=0, dof=-1, parent=-1,
                        axis0=np.zeros(3), body0=np.zeros(3), point0=np.zeros(3))
    phi_axis, psi_axis = unit_vector(ca - n), unit_vector(c - ca)
    psi_body = np.vstack([n[1:], tip]) - ca
    link_phi, link_psi = [], []
    for i in range(m):
        link_phi.append(b.add_link(
            kind="phi", residue=i, chi_index=0, dof=2 * i,
            parent=link_psi[i - 1] if i else ground,
            axis0=phi_axis[i], body0=ca[i] - n[i], point0=n[i],
        ))
        link_psi.append(b.add_link(
            kind="psi", residue=i, chi_index=0, dof=2 * i + 1, parent=link_phi[i],
            axis0=psi_axis[i], body0=psi_body[i], point0=ca[i],
        ))

    templates = default_templates()
    next_dof = 2 * m  # chi joints follow the backbone, grouped by residue
    for i, (r, at) in enumerate(zip(residues, where)):
        spec = templates.specs.get(r.code)
        if spec is not None and not all(ta.name in at for ta in spec.atoms if ta.link):
            spec = None  # incomplete match: ride rigidly on the CA link
        owner = {}
        if spec is not None:
            side = [link_phi[i]]
            for k, (src, dst) in enumerate(spec.joints, start=1):
                p_src, p_dst = r.xyz[at[src]], r.xyz[at[dst]]
                refs = spec.chi_refs[k - 1] if spec.chi_refs else ()
                if len(refs) == 4:
                    chi0 = dihedral_angle(*(r.xyz[at[nm]] for nm in refs))
                else:
                    chi0 = float(spec.rotamer_defaults[k - 1]) if spec.rotamer_defaults else 0.0
                side.append(b.add_link(
                    kind="chi", residue=i, chi_index=k, dof=next_dof, parent=side[-1],
                    axis0=unit_vector(p_dst - p_src), body0=p_dst - p_src,
                    point0=p_src, chi0=chi0,
                ))
                next_dof += 1
            owner = {ta.name: side[ta.link] for ta in spec.atoms if ta.link}
        n_owner = link_psi[i - 1] if i else ground
        owner.update(dict.fromkeys(("N", *(_N_TERM_H_NAMES if i == 0 else ("H",))),
                                   n_owner))
        owner.update(dict.fromkeys(("C", "O", "OXT"), link_psi[i]))
        base = len(b.names)
        for name, element, xyz in zip(r.names, r.elements, r.xyz):
            b.add_atom(name, element, _atom_class(name, element, r.code, spec), i,
                       owner.get(name, link_phi[i]), xyz)
        _residue_bonds(b, r, at, base)
        if i:
            b.bonds.append((prev_c, base + at["N"]))
        prev_c = base + at["C"]

    for a in hetero:
        k = b.add_atom(a.name, a.element, f"EL_{a.element}", m + a.res_seq % 10_000,
                       ground, a.xyz, hetero=True)
        b.hetero_res_names[k] = a.res_name
        b.hetero_chain_ids[k] = a.chain_id
    return b.finish([r.code for r in residues], source, chain_id)


def _atom_class(name: str, element: str, code: str, spec: ResidueSpec | None) -> str:
    if name in BACKBONE_CLASSES:
        return BACKBONE_CLASSES[name]
    if name == "CA":
        return f"CA_{code}"
    if spec is not None:
        try:
            return spec.atom(name).param_class
        except KeyError:
            pass
    return f"EL_{element}"


def _residue_bonds(b: _Builder, r: _ResidueAtoms, at: dict, base: int) -> None:
    """Backbone bonds by name, remaining bonds by covalent radii; an atom
    within no radius sum bonds to its nearest neighbor, which keeps the
    graph connected.  ``base`` is the residue's first atom index."""
    have = set()

    def bond(x, y):
        key = (base + min(x, y), base + max(x, y))
        if key not in have:
            have.add(key)
            b.bonds.append(key)

    for x, y in _NAMED_BONDS:
        if x in at and y in at:
            bond(at[x], at[y])
    rest = [k for k, name in enumerate(r.names) if name not in _BACKBONE_NAMES]
    if not rest:
        return
    dist = norms(r.xyz[rest][:, None] - r.xyz[None])
    dist[np.arange(len(rest)), rest] = np.inf
    radius = np.array([_COVALENT_RADII.get(e, 1.2) for e in r.elements])
    near = dist <= radius[rest][:, None] + radius + _BOND_SLACK
    for row, ai in enumerate(rest):
        for aj in np.flatnonzero(near[row]).tolist() or [int(np.argmin(dist[row]))]:
            bond(ai, aj)


def _imported_residues(record) -> tuple[list[_ResidueAtoms], list, str]:
    """Protein atoms of the first chain grouped into residues by sequence
    number and insertion code, the hetero atoms, and that chain's ID."""
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
        residues.append(_ResidueAtoms(atoms[0].res_name, names, [a.element for a in atoms],
                                      np.array([a.xyz for a in atoms], float)))
    if len(residues) > 1 and not any("H" in r.names for r in residues[1:]):
        warnings.warn("structure carries no amide hydrogens; building without them",
                      stacklevel=2)
    return residues, hetero, first_chain
