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
Set-up runs in array passes, not per residue: the backbone walk is one
prefix sum of its bond steps, each residue kind's template atoms are
placed by one batched product, and the assembly takes the residues in
groups of one kind (code, atom names and elements), one pass per group,
so the number of numpy calls does not grow with the chain.  Its
per-residue reference, ``reference_chain`` in ``tests/oracles.py``, gives
the same chain byte for byte.

The links live in one table, ``Chain.links`` (a ``LinkArrays``): one
row per link and one column per field (residue, chi index and reference
chi, parent, reference axis, body vector and joint point), stacked once
by the builder.  Row 0 is the ground link and link l drives
``theta[l - 1]``: the dofs are the rows after the ground, so residue i's
phi link is row 2i + 1, its psi link row 2i + 2, and the chi links
follow in residue order.  Atom positions follow from prefix
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
        finite = np.isfinite(theta)
        if np.count_nonzero(finite) < finite.size:
            bad = int(np.argmin(finite))  # the first False
            raise ConfigurationError(
                f"theta of dof {bad} is {theta.flat[bad]}: dihedrals must be finite")
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

    Rows are parent-first: row 0 is the ground link (zero axis, parent
    -1) and every other row's parent has a lower index, so one forward
    pass places the tree and one reverse pass sums it.  That order, one
    row per link in every column and unit joint axes are checked here, so
    every chain has them, however its table was made.  The columns are
    held as the C-contiguous int64 and float64 arrays the native passes
    read.
    """

    residue: np.ndarray       # (n_links,) 0-based residue, -1 for ground
    chi_index: np.ndarray     # (n_links,) 1..4 for chi links, else 0
    chi0: np.ndarray          # (n_links,) reference chi (deg) for the index map
    parent: np.ndarray        # (n_links,) parent link index
    axis0: np.ndarray         # (n_links, 3) reference unit axes
    body0: np.ndarray         # (n_links, 3) reference body vectors
    point0: np.ndarray        # (n_links, 3) reference joint points

    def __post_init__(self):
        n_links = len(self.parent)
        for name, dtype, shape in (("residue", np.int64, ()), ("chi_index", np.int64, ()),
                                   ("chi0", float, ()), ("parent", np.int64, ()),
                                   ("axis0", float, (3,)), ("body0", float, (3,)),
                                   ("point0", float, (3,))):
            column = np.ascontiguousarray(getattr(self, name), dtype)
            if column.shape != (n_links, *shape):
                raise ChainBuildError(f"link column {name} has shape {column.shape}, "
                                      f"not {(n_links, *shape)}")
            object.__setattr__(self, name, column)
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
    chain_id: str = "A"   # of the protein atoms: as read when imported
    # hetero atom -> its residue name, chain ID and residue number, as read
    hetero_residues: dict[int, tuple[str, str, int]] = field(default_factory=dict)
    offsets: np.ndarray = field(init=False, repr=False)  # (n_atoms, 3), from joint points

    def __post_init__(self):
        self.atom_link = np.array(self.atom_link, np.int64)
        self.zp_pos = np.array(self.zp_pos, float)
        n = self.n_atoms
        for name, shape in (("atom_link", (n,)), ("zp_pos", (n, 3)),
                            ("atom_residue", (n,)), ("hetero_mask", (n,))):
            if np.shape(getattr(self, name)) != shape:
                raise ChainBuildError(f"{name} has shape {np.shape(getattr(self, name))}, "
                                      f"not one row per atom {shape}")
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
        rows = np.flatnonzero(links.chi_index)
        values = signed_degrees(conf.theta[rows - 1] + links.chi0[rows])
        chi = dict(zip(zip(links.residue[rows].tolist(), links.chi_index[rows].tolist()),
                       values.tolist()))
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
    if native.load().call("forward_links", n_links, links.parent, conf.theta,
                          links.axis0, links.body0, n, chain.atom_link, chain.offsets,
                          M, P, axes, pos) == native.REFUSED:
        raise link_index_error(chain)
    return KinematicState(transforms=M, joint_points=P, axes=axes, positions=pos)


def link_index_error(chain: Chain) -> ChainBuildError:
    """What a native link pass's refusal means: its index columns are
    out of range."""
    return ChainBuildError(f"link parents or atom owners out of range for "
                           f"{len(chain.links)} links")


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
    """Extended planar walk: the N, CA and provisional C of every residue
    as (3m, 3) points in walk order, and the direction and turn after the
    last C.

    Each bond turns the walk by 180 minus its bond angle, to alternate
    sides except that a cis peptide turns twice to one side.  Directions
    and points are prefix sums of the turns and of the bond steps, added
    in walk order; the steps' cosines and sines are libm's (``math``),
    which numpy's vectorised ones need not round like."""
    signs = np.ones((m, 3))   # of the N-CA-C, CA-C-N and C-N-CA turns
    signs[:, 1:] = -1.0
    if not cis:
        signs[:, 2] = 1.0
        signs[1::2] *= -1.0
    bends = np.array([180.0 - ANGLE_N_CA_C, 180.0 - ANGLE_CA_C_N, 180.0 - ANGLE_C_N_CA])
    turns = (signs * bends).ravel()[: 3 * m - 2]
    directions = np.add.accumulate(np.concatenate([[0.0], turns])).tolist()
    angles = list(map(math.radians, directions))
    lengths = np.tile([BOND_N_CA, BOND_CA_C, BOND_C_N], m)[:-1]
    steps = np.zeros((3 * m, 3))
    steps[1:, 0] = lengths * np.array(list(map(math.cos, angles)))
    steps[1:, 1] = lengths * np.array(list(map(math.sin, angles)))
    return np.add.accumulate(steps), directions[-1], -float(signs[-1, 0])


def _backbone_atoms(m: int, cis: bool):
    """N, H, CA, C and O of every residue as (m, 3) arrays, and the OXT."""
    points, direction, turn = _walk_backbone(m, cis)
    n, ca, c = points[0::3], points[1::3], points[2::3].copy()
    h, o = np.empty((m, 3)), np.empty((m, 3))
    h[0] = n[0] + BOND_N_H_TERM * _plane_dir(-ANGLE_H_N_CA)  # amino-terminal H
    # peptide-group atoms from the coefficient rows; the rows encode the
    # trans plane, so cis planes (on request) fall back to internal coords
    if not cis:
        b2, b3 = n[1:] - ca[:-1], ca[1:] - n[1:]
        c[:-1] = ca[:-1] + _combo("CA_C", b2, b3)
        o[:-1] = c[:-1] + _combo("C_O", b2, b3)
        h[1:] = n[1:] + _combo("N_H", b2, b3)
    else:
        cp = c[:-1]
        o[:-1] = cp + BOND_C_O_TERM * unit_vector(-(unit_vector(ca[:-1] - cp)
                                                    + unit_vector(n[1:] - cp)))
        h[1:] = n[1:] + BOND_N_H_TERM * unit_vector(-(unit_vector(cp - n[1:])
                                                      + unit_vector(ca[1:] - n[1:])))
    # terminal carboxylate from internal coordinates; direction still points
    # along CA_m -> C_m, so both oxygens sit at +/-(180 - angle) off it
    split = 180.0 - ANGLE_CA_C_O_TERM
    oxt = c[-1] + BOND_C_O_TERM * _plane_dir(direction + turn * split)
    o[-1] = c[-1] + BOND_C_O_TERM * _plane_dir(direction - turn * split)
    return n, h, ca, c, o, oxt


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
        groups, m, hetero, chain_id = _imported_residues(geometry)
        return _assemble(groups, m, hetero, "imported", chain_id)

    seq = [str(c).upper() for c in sequence]
    if not seq:
        raise ChainBuildError("zero-length sequence")
    kinds: dict[str, list[int]] = {}
    for i, code in enumerate(seq):
        kinds.setdefault(code, []).append(i)
    specs = {code: default_templates().get(code) for code in kinds}
    if omega not in ("trans", "cis"):
        raise ChainBuildError(f"omega must be trans or cis, got {omega!r}")

    m = len(seq)
    n, h, ca, c, o, oxt = _backbone_atoms(m, omega == "cis")
    # template atoms hang off each residue frame at CA, one kind at a time
    frames = frame_from_backbone(n, ca, c)
    groups = []
    for code, rows in kinds.items():
        spec, idx = specs[code], np.array(rows)
        local = np.array([ta.local for ta in spec.atoms])
        side = ca[idx][:, None] + np.matmul(frames[idx][:, None], local[:, :, None])[..., 0]
        xyz = np.concatenate([n[idx][:, None], h[idx][:, None], ca[idx][:, None], side,
                              c[idx][:, None], o[idx][:, None]], axis=1)
        names = ["N", "H", "CA", *(ta.name for ta in spec.atoms), "C", "O"]
        elements = ["N", "H", "C", *(ta.element for ta in spec.atoms), "C", "O"]
        if idx[-1] == m - 1:  # the last residue also carries the OXT
            groups.append(_ResidueGroup(code, names + ["OXT"], elements + ["O"], idx[-1:],
                                        np.concatenate([xyz[-1:], oxt[None, None]], axis=1)))
            idx, xyz = idx[:-1], xyz[:-1]
        if len(idx):
            groups.append(_ResidueGroup(code, names, elements, idx, xyz))
    return _assemble(groups, m, [], "canonical")


# --------------------------------------------------------------------------
# assembly: named atoms -> links, ownership, bonds
# --------------------------------------------------------------------------

@dataclass
class _ResidueGroup:
    """Residues with one code and one atom list (names and elements, in
    order), the assembly's unit of work: residue ``index[r]`` has atoms
    ``xyz[r]``."""

    code: str                  # three-letter residue code
    names: list[str]
    elements: list[str]
    index: np.ndarray          # (k,) residue numbers, ascending
    xyz: np.ndarray            # (k, n_atoms, 3)


_COVALENT_RADII = {"H": 0.31, "C": 0.76, "N": 0.71, "O": 0.66, "S": 1.05, "P": 1.07}
_BOND_SLACK = 0.4

_N_TERM_H_NAMES = ("H", "H1", "H2", "H3", "HN")
_BACKBONE_NAMES = frozenset(("N", "CA", "C", "O", "OXT", *_N_TERM_H_NAMES))
_NAMED_BONDS = (("N", "CA"), ("CA", "C"), ("C", "O"), ("C", "OXT"),
                *(("N", h) for h in _N_TERM_H_NAMES))


def _assemble(groups: list[_ResidueGroup], m: int, hetero, source: str,
              chain_id: str = "A") -> Chain:
    """The linkage over the named atoms of ``m`` residues, one array pass
    per group.  A residue whose atoms cover its template's side-link
    atoms gets the template's chi joints; any other rides rigidly on its
    CA link.  ``hetero`` atoms stay fixed on the ground link.

    Atoms are numbered residue by residue.  Links are the ground link,
    then per residue a phi (N-CA) and a psi (CA-C) link, then the chi
    links in residue order (the row order the module docstring states),
    and link 2i (the previous psi, or the ground) holds residue i's N.  A
    psi body runs from CA to the next N, the last one to the chain tip."""
    templates = default_templates()
    matched = []
    n_atoms, n_chi = np.zeros(m, np.int64), np.zeros(m, np.int64)
    for g in groups:
        at = {name: k for k, name in enumerate(g.names)}
        spec = templates.specs.get(g.code)
        if spec is not None and not all(ta.name in at for ta in spec.atoms if ta.link):
            spec = None  # incomplete match: ride rigidly on the CA link
        n_atoms[g.index] = len(g.names)
        n_chi[g.index] = len(spec.joints) if spec is not None else 0
        matched.append((g, at, spec))
    first_atom = np.concatenate([[0], np.cumsum(n_atoms)])
    first_chi = 2 * m + 1 + np.cumsum(n_chi) - n_chi
    n_links, n_protein = 2 * m + 1 + int(n_chi.sum()), int(first_atom[-1])
    n_total = n_protein + len(hetero)

    residue = np.full(n_links, -1, np.int64)
    chi_index = np.zeros(n_links, np.int64)
    chi0 = np.zeros(n_links)
    parent = np.full(n_links, -1, np.int64)
    axis0, body0, point0 = np.zeros((n_links, 3)), np.zeros((n_links, 3)), np.zeros((n_links, 3))
    zp_pos = np.empty((n_total, 3))
    atom_link = np.zeros(n_total, np.int64)
    backbone = np.empty((m, 3, 3))                  # N, CA, C per residue
    n_atom, c_atom = np.empty(m, np.int64), np.empty(m, np.int64)
    tables = [None] * m                             # per residue: code, names, ...
    n_bonds = (np.arange(m) > 0).astype(np.int64)   # per residue, its peptide bond
    bond_parts = []
    for g, at, spec in matched:
        atoms = first_atom[g.index][:, None] + np.arange(len(g.names))
        zp_pos[atoms] = g.xyz
        backbone[g.index] = g.xyz[:, [at["N"], at["CA"], at["C"]]]
        n_atom[g.index], c_atom[g.index] = atoms[:, at["N"]], atoms[:, at["C"]]
        if g.index[-1] == m - 1:
            tip = g.xyz[-1, at["OXT" if "OXT" in at else "O" if "O" in at else "C"]]
        table = (g.code, g.names, g.elements,
                 [_atom_class(nm, el, g.code, spec) for nm, el in zip(g.names, g.elements)])
        for i in g.index.tolist():
            tables[i] = table

        # owners: 2i + 0 (N side), 1 (CA link) or 2 (psi link), or side link -k
        role = {ta.name: -ta.link for ta in spec.atoms if ta.link} if spec is not None else {}
        role.update(N=0, H=0, C=2, O=2, OXT=2)
        role = np.array([role.get(name, 1) for name in g.names])
        atom_link[atoms] = np.where(role < 0, first_chi[g.index][:, None] - role - 1,
                                    2 * g.index[:, None] + role)
        if spec is not None and spec.joints:
            rows = first_chi[g.index][:, None] + np.arange(len(spec.joints))
            residue[rows], chi_index[rows] = g.index[:, None], np.arange(1, rows.shape[1] + 1)
            parent[rows] = rows - 1
            parent[rows[:, 0]] = 2 * g.index + 1  # joint 1 hangs off the CA link
            axis0[rows], body0[rows], point0[rows], chi0[rows] = _chi_joints(g, at, spec)

        named = np.array([sorted((at[x], at[y])) for x, y in _NAMED_BONDS
                          if x in at and y in at])
        res, pairs = _radius_bonds(g)
        by_radius = np.bincount(res, minlength=len(g.index))
        n_bonds[g.index] += len(named) + by_radius
        bond_parts.append((g.index, first_atom[g.index], named, res, pairs, by_radius))
    for k, name in enumerate(tables[0][1]):  # the amino-terminal hydrogens
        if name in _N_TERM_H_NAMES:
            atom_link[k] = 0

    n, ca, c = backbone.transpose(1, 0, 2)
    phi, psi = slice(1, 2 * m, 2), slice(2, 2 * m + 1, 2)
    residue[phi] = residue[psi] = np.arange(m)
    parent[phi], parent[psi] = 2 * np.arange(m), 2 * np.arange(m) + 1
    axis0[phi], axis0[psi] = unit_vector(ca - n), unit_vector(c - ca)
    body0[phi], body0[psi] = ca - n, np.vstack([n[1:], tip]) - ca
    point0[phi], point0[psi] = n, ca
    links = LinkArrays(residue=residue, chi_index=chi_index, chi0=chi0, parent=parent,
                       axis0=axis0, body0=body0, point0=point0)

    # bonds in residue order: by name, by radius, then the peptide bond
    # C(i-1)-N(i); the bond tree drops the later edge of a ring, so this
    # order is part of the chain.  Each is written at its place, no sort.
    first_bond = np.cumsum(n_bonds) - n_bonds
    bonds = np.empty((int(n_bonds.sum()), 2), np.int64)
    for index, base, named, res, pairs, by_radius in bond_parts:
        start = first_bond[index]
        bonds[start[:, None] + np.arange(len(named))] = base[:, None, None] + named
        rank = np.arange(len(res)) - (np.cumsum(by_radius) - by_radius)[res]
        bonds[start[res] + len(named) + rank] = base[res][:, None] + pairs
    bonds[first_bond[1:] + n_bonds[1:] - 1] = np.stack([c_atom[:-1], n_atom[1:]], axis=1)

    names, elements, classes = [], [], []
    for _, t_names, t_elements, t_classes in tables:
        names += t_names
        elements += t_elements
        classes += t_classes
    hetero_residues = {}
    for k, a in enumerate(hetero, start=n_protein):
        names.append(a.name)
        elements.append(a.element)
        classes.append(f"EL_{a.element}")
        zp_pos[k] = a.xyz
        hetero_residues[k] = (a.res_name, a.chain_id, a.res_seq)
    atom_residue = np.concatenate([np.repeat(np.arange(m), n_atoms),
                                   np.array([m + a.res_seq % 10_000 for a in hetero], np.int64)])
    return Chain(
        residues=[t[0] for t in tables],
        links=links,
        atom_names=names,
        atom_elements=elements,
        atom_classes=classes,
        atom_residue=atom_residue,
        atom_link=atom_link,
        zp_pos=zp_pos,
        bonds=list(map(tuple, bonds.tolist())),
        hetero_mask=np.arange(n_total) >= n_protein,
        source=source,
        chain_id=chain_id,
        hetero_residues=hetero_residues,
    )


def _chi_joints(g: _ResidueGroup, at: dict, spec: ResidueSpec):
    """Unit axis, body vector, joint point and reference chi of every chi
    joint of the group, each (k, joints, ...): a joint turns about its
    template bond, and its reference chi is measured from its four
    reference atoms, else it is the template's rotamer default."""
    src = g.xyz[:, [at[a] for a, _ in spec.joints]]
    body = g.xyz[:, [at[b] for _, b in spec.joints]] - src
    chi0 = np.empty(body.shape[:2])
    chi0[:] = [float(x) for x in spec.rotamer_defaults] or 0.0
    measured = [k for k, refs in enumerate(spec.chi_refs) if len(refs) == 4]
    if measured:
        refs = [[at[nm] for nm in spec.chi_refs[k]] for k in measured]
        chi0[:, measured] = dihedral_angle(*g.xyz[:, refs].transpose(2, 0, 1, 3))
    return unit_vector(body), body, src, chi0


def _radius_bonds(g: _ResidueGroup):
    """The bonds of the group's non-backbone atoms by covalent radii, one
    distance pass over every residue: (residue row, local pair) per bond,
    in each residue's atom-row order, each pair once as (low, high).  An
    atom within no radius sum bonds to its nearest neighbor, which keeps
    the graph connected."""
    rest = np.array([k for k, name in enumerate(g.names) if name not in _BACKBONE_NAMES],
                    np.int64)
    if not len(rest):
        return np.empty(0, np.int64), np.empty((0, 2), np.int64)
    dist = norms(g.xyz[:, rest][:, :, None] - g.xyz[:, None])
    dist[:, np.arange(len(rest)), rest] = np.inf
    radius = np.array([_COVALENT_RADII.get(e, 1.2) for e in g.elements])
    near = dist <= radius[rest][:, None] + radius + _BOND_SLACK
    lone_res, lone_row = np.nonzero(~near.any(axis=2))
    near[lone_res, lone_row, np.argmin(dist[lone_res, lone_row], axis=1)] = True
    res, row, aj = np.nonzero(near)
    ai = rest[row]
    # a bond between two side atoms is met from both rows: keep the first,
    # from the lower atom's row
    row_of = np.full(len(g.names), -1)
    row_of[rest] = np.arange(len(rest))
    twice = (aj < ai) & (row_of[aj] >= 0) & near[res, row_of[aj], ai]
    keep = ~twice
    return res[keep], np.stack([np.minimum(ai, aj)[keep], np.maximum(ai, aj)[keep]], axis=1)


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


def _imported_residues(record) -> tuple[list[_ResidueGroup], int, list, str]:
    """Protein atoms of the first chain grouped into residues by sequence
    number and insertion code, and the residues into groups of one kind;
    the residue count, the hetero atoms, and that chain's ID."""
    protein = [a for a in record.atoms if not a.hetero]
    hetero = [a for a in record.atoms if a.hetero]
    if not protein:
        raise ChainBuildError("imported structure has no protein atoms")
    first_chain = protein[0].chain_id
    if any(a.chain_id != first_chain for a in protein):
        warnings.warn("multiple chains in structure; keeping the first", stacklevel=2)
        protein = [a for a in protein if a.chain_id == first_chain]

    kinds: dict[tuple, tuple[list, list]] = {}
    m, amide_h = 0, False
    for (seq_no, i_code), group in itertools.groupby(protein, lambda a: (a.res_seq, a.i_code)):
        atoms = list(group)
        names = [a.name for a in atoms]
        for needed in ("N", "CA", "C"):
            if needed not in names:
                raise ChainBuildError(f"imported geometry missing backbone atom {needed} "
                                      f"in {atoms[0].res_name} {seq_no}{i_code}")
        key = (atoms[0].res_name, tuple(names), tuple(a.element for a in atoms))
        index, xyz = kinds.setdefault(key, ([], []))
        index.append(m)
        xyz.append([a.xyz for a in atoms])
        amide_h = amide_h or (m > 0 and "H" in names)
        m += 1
    if m > 1 and not amide_h:
        warnings.warn("structure carries no amide hydrogens; building without them",
                      stacklevel=2)
    groups = [_ResidueGroup(code, list(names), list(elements), np.array(index),
                            np.array(xyz, float))
              for (code, names, elements), (index, xyz) in kinds.items()]
    return groups, m, hetero, first_chain
