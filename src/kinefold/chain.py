"""Kinematic chain model: linkage construction and forward kinematics.

A protein with m residues is a serial linkage of rigid links: per residue
one alpha-carbon link (driven by phi about N-CA) and one peptide-group
link (driven by psi about CA-C), plus up to four side-chain links driven
by chi joints.  All dihedrals are measured from the reference build
(every theta = 0 there): for canonical chains that is the extended
conformation with coplanar peptide groups; for imported chains it is the
geometry as read.

Atom positions follow from prefix products of joint rotations about the
reference axes and prefix sums of rotated body vectors; each rigid link
carries its member atoms as fixed offsets from its joint point.  Links
are stored in topological order (every link's parent has a lower index),
so one forward pass over a parent-index array places the whole tree and
one reverse pass over it aggregates any per-link quantity onto ancestors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChainBuildError, ConfigurationError
from .geometry import (
    AXIS_UNIT_TOL,
    dihedral_angle,
    frame_from_backbone,
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
    """Dihedral state: theta per joint in degrees, wrapped to [0, 360)."""

    theta: np.ndarray
    frozen: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_degrees(np.asarray(self.theta, float)))
        object.__setattr__(self, "frozen", np.asarray(self.frozen, bool).copy())
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
        return replace(self, frozen=mask)


def apply_deltas(conf: Conformation, deltas) -> Conformation:
    """Add per-joint increments (degrees); frozen joints stay put."""
    deltas = np.asarray(deltas, float)
    if deltas.shape != conf.theta.shape:
        raise ConfigurationError(
            f"delta length {deltas.shape} != dof count {conf.theta.shape}"
        )
    step = np.where(conf.frozen, 0.0, deltas)
    return replace(conf, theta=wrap_degrees(conf.theta + step))


@dataclass(frozen=True)
class LinkRecord:
    index: int
    kind: str              # ground | phi | psi | chi
    residue: int           # 0-based, -1 for ground
    chi_index: int         # 1..4 for chi links, else 0
    dof: int               # flat dof index, -1 for ground
    parent: int            # index of kinematic parent link
    axis0: np.ndarray | None
    body0: np.ndarray
    point0: np.ndarray
    chi0: float = 0.0      # reference chi (deg) for the index map


@dataclass(frozen=True)
class LinkArrays:
    """Per-link constants of a chain stacked for the array passes.

    Row ``li`` belongs to ``chain.links[li]``; the ground row (0) has a
    zero axis and dof -1.  ``k`` is each axis's cross-product matrix, so
    a joint's Rodrigues rotation is ``I + sin(t) k + (1 - cos(t)) k2``.
    """

    parent: list[int]         # parent link index, -1 for ground (a list:
                              # the per-link loops index it element-wise)
    dof: np.ndarray           # (n_links,) flat dof index
    axis0: np.ndarray         # (n_links, 3) reference unit axes
    body0: np.ndarray         # (n_links, 3) reference body vectors
    k: np.ndarray             # (n_links, 3, 3)
    k2: np.ndarray            # (n_links, 3, 3), k @ k
    point0: np.ndarray        # (n_links, 3) reference joint points

    @classmethod
    def of(cls, chain: "Chain") -> "LinkArrays":
        links = chain.links
        axis0 = np.array([np.zeros(3) if l.axis0 is None else l.axis0 for l in links])
        norms = np.linalg.norm(axis0[1:], axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > AXIS_UNIT_TOL)
        if bad.size:
            raise ConfigurationError(
                f"rotation axis must be unit length, got norm {norms[bad[0]]:.3e}"
                f" on link {bad[0] + 1}"
            )
        x, y, z = axis0.T
        k = np.zeros((len(links), 3, 3))
        k[:, 0, 1], k[:, 0, 2] = -z, y
        k[:, 1, 0], k[:, 1, 2] = z, -x
        k[:, 2, 0], k[:, 2, 1] = -y, x
        return cls(
            parent=[l.parent for l in links],
            dof=np.array([l.dof for l in links], int),
            axis0=axis0,
            body0=np.array([l.body0 for l in links]),
            k=k,
            k2=k @ k,
            point0=np.array([l.point0 for l in links]),
        )


@dataclass
class Chain:
    """Immutable-by-convention linkage over a fixed atom set."""

    residues: list[str]
    links: list[LinkRecord]
    atom_names: list[str]
    atom_elements: list[str]
    atom_classes: list[str]
    atom_residue: np.ndarray
    atom_link: np.ndarray
    zp_pos: np.ndarray
    bonds: list[tuple[int, int]]
    hetero_mask: np.ndarray
    source: str = "canonical"

    # ---- counts and lookups -------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @property
    def n_residues(self) -> int:
        return len(self.residues)

    @property
    def n_dof(self) -> int:
        return len(self.links) - 1  # every non-ground link has one joint

    def __post_init__(self):
        self._lookup = {}
        for i, (r, nm) in enumerate(zip(self.atom_residue, self.atom_names)):
            self._lookup.setdefault((int(r), nm), i)
        self.link_arrays = LinkArrays.of(self)

    def atom_index(self, residue: int, name: str) -> int:
        return self._lookup[(residue, name)]

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
        theta[0 : 2 * m : 2] = wrap_degrees(phi + 180.0)
        theta[1 : 2 * m : 2] = wrap_degrees(psi + 180.0)
        return Conformation(theta, np.zeros(self.n_dof, bool))

    def dihedrals_from_theta(self, conf: Conformation):
        """Invert the index map: theta -> (phi, psi, chi) in [-180, 180)."""
        m = self.n_residues
        phi = signed_degrees(conf.theta[0 : 2 * m : 2] - 180.0)
        psi = signed_degrees(conf.theta[1 : 2 * m : 2] - 180.0)
        chi = {}
        for link in self.links:
            if link.kind == "chi":
                chi[(link.residue, link.chi_index)] = float(
                    signed_degrees(conf.theta[link.dof] + link.chi0)
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
    """Batched Rodrigues rotations, then one forward pass over the links:
    ``M[li] = M[parent] @ R[li]`` and ``P[li] = P[parent] + M[parent] @
    body0[parent]``, valid because every parent precedes its child."""
    chain.validate_conformation(conf)
    arr = chain.link_arrays
    t = np.radians(conf.theta[arr.dof[1:]])[:, None, None]
    rot = np.eye(3) + np.sin(t) * arr.k[1:] + (1.0 - np.cos(t)) * arr.k2[1:]
    parent = arr.parent
    n_links = len(parent)
    # the loops write through lists of per-link row views, which costs
    # about half of indexing the stacked arrays on every step
    M = np.empty((n_links, 3, 3))
    M[0] = np.eye(3)
    m_rows = list(M)
    for li, r in enumerate(rot, 1):
        np.matmul(m_rows[parent[li]], r, out=m_rows[li])
    body = list(np.einsum("lij,lj->li", M, arr.body0))
    P = np.zeros((n_links, 3))
    p_rows = list(P)
    for li in range(1, n_links):
        pa = parent[li]
        np.add(p_rows[pa], body[pa], out=p_rows[li])
    axes = np.einsum("lij,lj->li", M, arr.axis0)
    owner = chain.atom_link
    offset = chain.zp_pos - arr.point0[owner]
    pos = P[owner] + np.einsum("aij,aj->ai", M[owner], offset)
    return KinematicState(transforms=M, joint_points=P, axes=axes, positions=pos)


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

    def add_link(self, **kw) -> int:
        kw["index"] = len(self.links)
        self.links.append(kw)
        return kw["index"]

    def finish(self, residues, source) -> Chain:
        # the forward and reverse link passes rely on parents coming first
        for rec in self.links:
            i, parent = rec["index"], rec["parent"]
            if not (0 <= parent < i if i else parent == -1):
                raise ChainBuildError(
                    f"link {i} has parent {parent}; every link must follow its "
                    f"parent and only link 0 may be the root"
                )
        # flat dof order: backbone 0..2m-1, then chi joints grouped by residue
        next_dof = 2 * len(residues)
        for rec in self.links:
            if rec["kind"] == "chi":
                rec["dof"] = next_dof
                next_dof += 1
        return Chain(
            residues=residues,
            links=[LinkRecord(**rec) for rec in self.links],
            atom_names=self.names,
            atom_elements=self.elements,
            atom_classes=self.classes,
            atom_residue=np.asarray(self.residue_of, int),
            atom_link=np.asarray(self.link_of, int),
            zp_pos=np.array(self.pos),
            bonds=self.bonds,
            hetero_mask=np.asarray(self.hetero, bool),
            source=source,
        )


def _backbone_links(b: _Builder, npos, capos, cpos, last_tip):
    """The ground link and each residue's phi (N-CA) and psi (CA-C) links.

    A psi link's body runs from CA to the next residue's N; the last one
    ends at ``last_tip``.  Returns (ground, phi link ids, psi link ids).
    """
    m = len(npos)
    ground = b.add_link(kind="ground", residue=-1, chi_index=0, dof=-1, parent=-1,
                        axis0=None, body0=np.zeros(3), point0=np.zeros(3))
    link_phi = [0] * m
    link_psi = [0] * m
    for i in range(m):
        link_phi[i] = b.add_link(
            kind="phi", residue=i, chi_index=0, dof=2 * i,
            parent=link_psi[i - 1] if i else ground,
            axis0=unit_vector(capos[i] - npos[i]),
            body0=capos[i] - npos[i],
            point0=npos[i].copy(),
        )
        link_psi[i] = b.add_link(
            kind="psi", residue=i, chi_index=0, dof=2 * i + 1,
            parent=link_phi[i],
            axis0=unit_vector(cpos[i] - capos[i]),
            body0=(npos[i + 1] if i + 1 < m else last_tip) - capos[i],
            point0=capos[i].copy(),
        )
    return ground, link_phi, link_psi


def _combo(key, b2, b3):
    c1, c2 = PLANE_CONSTANTS[key]
    return c1 * b2 + c2 * b3


def build_chain(sequence, geometry=None, *, omega="trans") -> Chain:
    """Build the linkage from a residue-code list.

    ``geometry`` is None for the canonical build (extended reference with
    the shipped plane coefficients) or a parsed structure record to
    retain imported geometry as-read.  ``omega`` ("trans" or "cis") sets
    every peptide bond of a canonical build.
    """
    if geometry is not None:
        return _build_imported(geometry)

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
    hpos: list = [None] * m  # amide H of residue i (i >= 1)
    for i in range(m - 1):
        b2 = npos[i + 1] - capos[i]
        b3 = capos[i + 1] - npos[i + 1]
        if not cis:
            c = capos[i] + _combo("CA_C", b2, b3)
            cpos.append(c)
            opos.append(c + _combo("C_O", b2, b3))
            hpos[i + 1] = npos[i + 1] + _combo("N_H", b2, b3)
        else:
            c = ctmp[i]
            cpos.append(c)
            o_dir = unit_vector(-(unit_vector(capos[i] - c)
                                  + unit_vector(npos[i + 1] - c)))
            opos.append(c + BOND_C_O_TERM * o_dir)
            h_dir = unit_vector(-(unit_vector(c - npos[i + 1])
                                  + unit_vector(capos[i + 1] - npos[i + 1])))
            hpos[i + 1] = npos[i + 1] + BOND_N_H_TERM * h_dir
    # terminal carboxylate from internal coordinates; direction still points
    # along CA_m -> C_m, so both oxygens sit at +/-(180 - angle) off it
    c_term = ctmp[m - 1]
    split = 180.0 - ANGLE_CA_C_O_TERM
    oxt = c_term + BOND_C_O_TERM * _plane_dir(direction + turn * split)
    o_term = c_term + BOND_C_O_TERM * _plane_dir(direction - turn * split)
    cpos.append(c_term)
    opos.append(o_term)
    # amino-terminal H
    h1 = npos[0] + BOND_N_H_TERM * _plane_dir(-ANGLE_H_N_CA)

    b = _Builder()
    ground, link_phi, link_psi = _backbone_links(b, npos, capos, cpos, oxt)

    # atoms, residue by residue
    idx_n = [0] * m
    idx_ca = [0] * m
    idx_c = [0] * m
    for i in range(m):
        spec = specs[i]
        owner_n = ground if i == 0 else link_psi[i - 1]
        idx_n[i] = b.add_atom("N", "N", "N", i, owner_n, npos[i])
        hp = h1 if i == 0 else hpos[i]
        b.add_atom("H", "H", "H", i, owner_n, hp)
        idx_ca[i] = b.add_atom("CA", "C", f"CA_{seq[i]}", i, link_phi[i], capos[i])
        b.bonds.append((idx_n[i], idx_ca[i]))
        b.bonds.append((idx_n[i], idx_n[i] + 1))  # N-H
        frame = frame_from_backbone(npos[i], capos[i], cpos[i])
        local_index = {"N": idx_n[i], "CA": idx_ca[i]}
        side_link_ids = _add_side_links(b, spec, i, link_phi[i])
        for ta in spec.atoms:
            link_id = link_phi[i] if ta.link == 0 else side_link_ids[ta.link]
            ai = b.add_atom(ta.name, ta.element, ta.param_class, i, link_id,
                            capos[i] + frame @ ta.local)
            local_index[ta.name] = ai
        idx_c[i] = b.add_atom("C", "C", "C", i, link_psi[i], cpos[i])
        local_index["C"] = idx_c[i]
        for ta in spec.atoms:
            b.bonds.append((local_index[ta.parent], local_index[ta.name]))
        oi = b.add_atom("O", "O", "O", i, link_psi[i], opos[i])
        b.bonds.append((idx_ca[i], idx_c[i]))
        b.bonds.append((idx_c[i], oi))
        if i + 1 == m:
            xi = b.add_atom("OXT", "O", "O2", i, link_psi[i], oxt)
            b.bonds.append((idx_c[i], xi))
        # point side joints at their resolved atoms and set chi0
        _finalize_side_links(b, spec, side_link_ids, local_index)
    for i in range(m - 1):
        b.bonds.append((idx_c[i], idx_n[i + 1]))

    return b.finish(list(seq), "canonical")


def _add_side_links(b, spec: ResidueSpec, residue, phi_link):
    """Create side-link records; axes/bodies are filled once atoms exist."""
    ids = {}
    parent = phi_link
    for k in range(1, spec.side_links + 1):
        ids[k] = b.add_link(
            kind="chi", residue=residue, chi_index=k, dof=-2,  # assigned in finish
            parent=parent,
            axis0=None, body0=np.zeros(3), point0=np.zeros(3),
        )
        parent = ids[k]
    return ids


def _finalize_side_links(b, spec: ResidueSpec, ids, local_index):
    for k in range(1, spec.side_links + 1):
        rec = b.links[ids[k]]
        src, dst = spec.joints[k - 1]
        p_src = b.pos[local_index[src]]
        p_dst = b.pos[local_index[dst]]
        rec["axis0"] = unit_vector(p_dst - p_src)
        rec["point0"] = p_src.copy()
        rec["body0"] = p_dst - p_src
        if spec.chi_refs and len(spec.chi_refs[k - 1]) == 4:
            quad = [b.pos[local_index[nm]] for nm in spec.chi_refs[k - 1]]
            rec["chi0"] = dihedral_angle(*quad)
        else:
            rec["chi0"] = float(spec.rotamer_defaults[k - 1]) if spec.rotamer_defaults else 0.0


# --------------------------------------------------------------------------
# imported geometry
# --------------------------------------------------------------------------

_COVALENT_RADII = {"H": 0.31, "C": 0.76, "N": 0.71, "O": 0.66, "S": 1.05, "P": 1.07}
_BOND_SLACK = 0.4

_N_TERM_H_NAMES = ("H", "H1", "H2", "H3", "HN")


def _build_imported(record) -> Chain:
    protein = [a for a in record.atoms if not a.hetero]
    hetero = [a for a in record.atoms if a.hetero]
    if not protein:
        raise ChainBuildError("imported structure has no protein atoms")
    first_chain = protein[0].chain_id
    if any(a.chain_id != first_chain for a in protein):
        warnings.warn("multiple chains in structure; keeping the first", stacklevel=2)
        protein = [a for a in protein if a.chain_id == first_chain]

    groups: list[tuple[int, str, list]] = []
    for a in protein:
        if groups and groups[-1][0] == a.res_seq:
            groups[-1][2].append(a)
        else:
            groups.append((a.res_seq, a.res_name, [a]))
    m = len(groups)

    def res_atom(atoms, name):
        for a in atoms:
            if a.name == name:
                return a
        return None

    for seq_no, res_name, atoms in groups:
        for needed in ("N", "CA", "C"):
            if res_atom(atoms, needed) is None:
                raise ChainBuildError(
                    f"imported geometry missing backbone atom {needed} in "
                    f"{res_name} {seq_no}"
                )
    if not any(res_atom(g[2], "H") for g in groups[1:]) and m > 1:
        warnings.warn("structure carries no amide hydrogens; building without them",
                      stacklevel=2)

    npos = [np.asarray(res_atom(g[2], "N").xyz, float) for g in groups]
    capos = [np.asarray(res_atom(g[2], "CA").xyz, float) for g in groups]
    cpos = [np.asarray(res_atom(g[2], "C").xyz, float) for g in groups]
    tip_atom = res_atom(groups[-1][2], "OXT") or res_atom(groups[-1][2], "O")
    last_tip = np.asarray(tip_atom.xyz, float) if tip_atom is not None else cpos[-1]

    b = _Builder()
    ground, link_phi, link_psi = _backbone_links(b, npos, capos, cpos, last_tip)

    templates = default_templates()
    residues = [g[1] for g in groups]
    for i, (seq_no, res_name, atoms) in enumerate(groups):
        spec = templates.specs.get(res_name)
        side_names = set()
        if spec is not None:
            side_names = {ta.name for ta in spec.atoms if ta.link > 0}
            present = {a.name for a in atoms}
            if not side_names <= present:
                spec = None  # incomplete match: ride rigidly on the CA link
                side_names = set()
        side_link_ids = {}
        if spec is not None and spec.side_links:
            side_link_ids = _add_side_links(b, spec, i, link_phi[i])
        local_index = {}
        res_indices = []
        for a in atoms:
            owner = link_phi[i]
            if a.name == "N":
                owner = ground if i == 0 else link_psi[i - 1]
            elif a.name in _N_TERM_H_NAMES and i == 0:
                owner = ground
            elif a.name == "H" and i > 0:
                owner = link_psi[i - 1]
            elif a.name in ("C", "O", "OXT"):
                owner = link_psi[i]
            elif spec is not None and a.name in side_names:
                owner = side_link_ids[spec.atom(a.name).link]
            cls = _imported_class(a, res_name, spec)
            ai = b.add_atom(a.name, a.element, cls, i, owner, a.xyz)
            local_index[a.name] = ai
            res_indices.append(ai)
        _imported_bonds(b, atoms, local_index, res_indices)
        if i > 0:
            b.bonds.append((prev_c, local_index["N"]))
        prev_c = local_index["C"]
        if spec is not None and spec.side_links:
            _finalize_side_links(b, spec, side_link_ids, local_index)

    for a in hetero:
        b.add_atom(a.name, a.element, f"EL_{a.element}", m + a.res_seq % 10_000,
                   ground, a.xyz, hetero=True)

    return b.finish(residues, "imported")


def _imported_class(a, res_name: str, spec: ResidueSpec | None) -> str:
    if a.name in BACKBONE_CLASSES:
        return BACKBONE_CLASSES[a.name]
    if a.name == "CA":
        return f"CA_{res_name}"
    if spec is not None:
        try:
            return spec.atom(a.name).param_class
        except KeyError:
            pass
    return f"EL_{a.element}"


def _imported_bonds(b, atoms, local_index, res_indices) -> None:
    """Backbone bonds by name, remaining bonds by covalent radii."""
    have = set()

    def bond(x, y):
        if x is not None and y is not None:
            key = (min(x, y), max(x, y))
            if key not in have:
                have.add(key)
                b.bonds.append(key)

    g = local_index.get
    bond(g("N"), g("CA"))
    bond(g("CA"), g("C"))
    bond(g("C"), g("O"))
    bond(g("C"), g("OXT"))
    for hn in _N_TERM_H_NAMES:
        if g(hn) is not None:
            bond(g("N"), g(hn))
    done = {g(x) for x in ("N", "CA", "C", "O", "OXT", *_N_TERM_H_NAMES) if g(x) is not None}
    rest = [ai for ai in res_indices if ai not in done]
    for ai in rest:
        ri = _COVALENT_RADII.get(b.elements[ai], 1.2)
        best, best_d = None, np.inf
        bonded = False
        for aj in res_indices:
            if aj == ai:
                continue
            rj = _COVALENT_RADII.get(b.elements[aj], 1.2)
            d = float(np.linalg.norm(b.pos[ai] - b.pos[aj]))
            if d <= ri + rj + _BOND_SLACK:
                bond(ai, aj)
                bonded = True
            if d < best_d:
                best, best_d = aj, d
        if not bonded and best is not None:
            bond(ai, best)  # keep the graph connected
