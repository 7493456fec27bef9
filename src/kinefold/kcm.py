"""Kinetostatic compliance: forces -> link wrenches -> joint torques -> step.

``Field.evaluate`` gives the atom forces of one conformation: one hashed
neighbor table at a cut-off covering the elec and vdW cut-offs and, when
solvated, the reach of the two largest offset spheres; one pass over its
pairs; and the SASA passes on the pairs whose offset spheres can meet
(``solvation.reach``).

Per iteration, atom forces are summed into per-link wrenches (force plus
moment about the amino-terminus anchor, which sits at the global
origin).  Joint torques need the total wrench of the subtree each joint
drives.  Links are stored parent-first, so one reverse pass over the
parent indices, adding each link's wrench into its parent's, leaves
every link holding its subtree total; backbone and side branches need
no separate cases.  One vectorized projection ``u.T - (u x p).F`` onto
the current axes and joint points of the array kinematic state then
gives every torque.  That turns the quadratic contribution scan into a
linear pass.  The compliance step moves every unfrozen joint
proportionally to its torque, normalized so the largest step is exactly
kappa degrees.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import Chain, Conformation, KinematicState, apply_deltas, kinematic_state
from .errors import ConfigurationError, KinefoldError, NonFiniteTorqueError
from .forcefield import (
    AtomParams,
    DielectricModel,
    EnergyBreakdown,
    accumulate_pair_forces,
    elec_pair_quantities,
    extract_pairs,
    vdw_pair_quantities,
)
from .solvation import (
    SampleSphere,
    SolvationConfig,
    generate_samples,
    offset_radii,
    reach,
    sasa_pass,
    solvation_forces,
)
from .spatial import (
    Cutoffs,
    NeighborTable,
    build_grid,
    build_neighbor_table,
    filtered_lists,
)


# --------------------------------------------------------------------------
# field evaluation (one conformation -> forces, energies, phase timings)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldConfig:
    solvation: bool = False
    dielectric: DielectricModel = field(default_factory=DielectricModel)
    cutoffs: Cutoffs = field(default_factory=Cutoffs)
    solvation_cfg: SolvationConfig = field(default_factory=SolvationConfig)


@dataclass
class FieldResult:
    forces: np.ndarray
    energy: EnergyBreakdown
    timings: dict[str, float]
    sasa: object = None


@dataclass
class Field:
    """Bundles parameters, pair weights, and options for one system.  The
    table cut-off, worked out once here, also covers every pair in reach."""

    params: AtomParams
    weights: object
    config: FieldConfig = field(default_factory=FieldConfig)
    _sphere: SampleSphere | None = None
    table_cutoff: float = field(init=False)

    def __post_init__(self):
        cut, solv = self.config.cutoffs, self.config.solvation_cfg
        self.table_cutoff = max(cut.elec, cut.vdw)
        if self.config.solvation:
            r_max = float(np.max(offset_radii(self.params, solv)))
            self.table_cutoff = max(self.table_cutoff,
                                    reach(r_max, r_max, solv.delta_r))

    def sphere(self) -> SampleSphere:
        if self._sphere is None or self._sphere.n != self.config.solvation_cfg.samples:
            cfg = self.config.solvation_cfg
            self._sphere = generate_samples(cfg.samples)
        return self._sphere

    def _neighbor_table(self, positions) -> NeighborTable:
        """Superset half table at the table cut-off."""
        return build_neighbor_table(build_grid(positions), self.table_cutoff)

    def evaluate(self, positions, *, energy_only: bool = False) -> FieldResult:
        cfg = self.config
        cut = cfg.cutoffs
        t0 = time.perf_counter()
        table = self._neighbor_table(positions)
        t_hash = time.perf_counter() - t0
        n = len(positions)

        # one pass over the table's pairs: one distance pass at the table
        # cut-off, one classification, one force scatter of the summed
        # elec and vdW magnitudes, and the cavity rows below from the same
        # arrays.  Each term masks its own cutoff; the elec and vdW masks
        # also require d2 <= max(elec, vdw)^2, so both terms see the same
        # pairs whether or not the reach sets the table cut-off.
        t0 = time.perf_counter()
        i, j, d2, d = extract_pairs(positions, table, self.table_cutoff)
        r = max(cut.elec, cut.vdw)
        kf = d2 <= r * r
        ke = kf & (d <= cut.elec)
        kv = kf & (d <= cut.vdw)
        w = self.weights.weights_for(i, j)
        e_elec, mag_e = elec_pair_quantities(self.params, i[ke], j[ke], d[ke],
                                             w[ke, 0], cfg.dielectric)
        g_elec = float(e_elec.sum())
        e_vdw, mag_v = vdw_pair_quantities(self.params, i[kv], j[kv], d[kv],
                                           w[kv, 1])
        g_vdw = float(e_vdw.sum())
        if energy_only:
            forces = np.zeros((n, 3))
        else:
            mag = np.zeros(len(d))
            mag[ke] = mag_e
            mag[kv] += mag_v
            forces = accumulate_pair_forces(n, positions, i, j, d, mag)
        t_force = time.perf_counter() - t0

        g_cav = 0.0
        sasa = None
        t_solv = 0.0
        if cfg.solvation:
            t0 = time.perf_counter()
            solv = cfg.solvation_cfg
            r_off = offset_radii(self.params, solv)
            rc = reach(r_off[i], r_off[j], solv.delta_r)
            kc = d2 <= rc * rc
            cav_lists = filtered_lists(n, i[kc], j[kc])
            sasa, states = sasa_pass(positions, self.params, cav_lists,
                                     self.sphere(), solv)
            g_cav = sasa.g_cav
            if not energy_only:
                forces += solvation_forces(positions, self.params, cav_lists,
                                           self.sphere(), states, solv)
            t_solv = time.perf_counter() - t0

        energy = EnergyBreakdown(g_elec=g_elec, g_vdw=g_vdw, g_cav=g_cav)
        return FieldResult(
            forces=forces,
            energy=energy,
            timings={"hash": t_hash, "force": t_force, "solvation": t_solv},
            sasa=sasa,
        )


# --------------------------------------------------------------------------
# wrenches and joint torques
# --------------------------------------------------------------------------

@dataclass
class LinkWrenches:
    """Net force and moment-about-origin per link (ground included)."""

    force: np.ndarray    # (n_links, 3)
    torque: np.ndarray   # (n_links, 3)


def link_wrenches(chain: Chain, positions, forces) -> LinkWrenches:
    positions = np.asarray(positions, float)
    forces = np.asarray(forces, float)
    n_links = len(chain.links)
    moments = np.cross(positions, forces)
    f_out = np.zeros((n_links, 3))
    t_out = np.zeros((n_links, 3))
    link_of = chain.atom_link
    for axis in range(3):
        f_out[:, axis] = np.bincount(link_of, weights=forces[:, axis], minlength=n_links)
        t_out[:, axis] = np.bincount(link_of, weights=moments[:, axis], minlength=n_links)
    return LinkWrenches(force=f_out, torque=t_out)


def joint_torques(chain: Chain, state: KinematicState,
                  wrenches: LinkWrenches) -> np.ndarray:
    """Torque per dof (kcal/mol per radian of joint rotation) at the
    kinematic ``state``: subtree wrenches by one reverse parent-pointer
    pass, then projected onto every joint at once; O(l) total.
    ``wrenches`` is left as given."""
    arr = chain.link_arrays
    # a new array: columns 0-2 force, 3-5 moment about the origin
    total = np.concatenate([wrenches.force, wrenches.torque], axis=1)
    parent = arr.parent
    rows = list(total)
    for li in range(len(parent) - 1, 0, -1):
        pa = parent[li]
        np.add(rows[pa], rows[li], out=rows[pa])
    u = state.axes[1:]
    arm = np.cross(u, state.joint_points[1:])
    proj = (np.einsum("li,li->l", u, total[1:, 3:])
            - np.einsum("li,li->l", arm, total[1:, :3]))
    tau = np.zeros(chain.n_dof)
    tau[arr.dof[1:]] = proj
    return tau


# --------------------------------------------------------------------------
# compliance stepping and the folding loop
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepConfig:
    kappa: float = 0.5              # degrees; the largest per-step joint move
    max_iters: int = 2000
    torque_tol: float = 0.0         # absolute |tau_max| stop, 0 disables
    torque_tol_rel: float = 1e-4    # fraction of the initial |tau_max|
    energy_window: int = 20
    energy_tol: float = 0.02        # kcal/mol change across the window
    snapshot_every: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigurationError(f"kappa must be positive and finite, got {self.kappa}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be at least 1, got {self.max_iters}")
        for name in ("energy_window", "snapshot_every"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("torque_tol", "torque_tol_rel", "energy_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be non-negative and finite, got {value}")


def check_finite_torques(tau: np.ndarray, context: str = "") -> None:
    """Raise naming the first non-finite dof instead of stepping on it."""
    bad = np.flatnonzero(~np.isfinite(tau))
    if bad.size:
        raise NonFiniteTorqueError(
            f"{context}non-finite torque {tau[bad[0]]} on dof {bad[0]}"
            f" ({bad.size} of {tau.size} dofs non-finite)"
        )


def kcm_step(tau: np.ndarray, conf: Conformation,
             config: StepConfig) -> tuple[Conformation, np.ndarray]:
    """One normalized compliance step on the per-dof torques ``tau``;
    frozen joints and zero fields stay."""
    check_finite_torques(tau)
    free = ~conf.frozen
    if not free.any():
        raise ConfigurationError("cannot step with every joint frozen")
    tau_max = float(np.max(np.abs(tau[free])))
    if tau_max == 0.0:
        return conf, np.zeros_like(tau)
    deltas = np.where(free, config.kappa * tau / tau_max, 0.0)
    return apply_deltas(conf, deltas), deltas


@dataclass
class IterationRecord:
    index: int
    energy: EnergyBreakdown
    tau_max: float
    timings: dict[str, float]
    theta: np.ndarray


@dataclass
class Trajectory:
    records: list[IterationRecord]
    snapshots: list[tuple[int, Conformation]]
    final: Conformation
    converged: bool
    reason: str

    @property
    def iterations(self) -> int:
        return len(self.records)

    def energies(self) -> np.ndarray:
        return np.array([r.energy.g_total for r in self.records])


def fold(chain: Chain, conf: Conformation, fld: Field,
         step: StepConfig = StepConfig()) -> Trajectory:
    """Iterate kinematics -> field -> torques -> compliance step until a
    stop criterion fires: torque tolerance, energy plateau, or the
    iteration cap."""
    records: list[IterationRecord] = []
    snapshots: list[tuple[int, Conformation]] = []
    tau0 = None
    converged = False
    reason = "max_iters"
    for it in range(step.max_iters):
        t0 = time.perf_counter()
        state = kinematic_state(chain, conf)
        t_fk = time.perf_counter() - t0
        try:
            result = fld.evaluate(state.positions)
        except KinefoldError as exc:
            raise type(exc)(f"aborted at iteration {it}: {exc}") from exc
        t0 = time.perf_counter()
        wr = link_wrenches(chain, state.positions, result.forces)
        tau = joint_torques(chain, state, wr)
        t_torque = time.perf_counter() - t0
        check_finite_torques(tau, f"aborted at iteration {it}: ")

        free = ~conf.frozen
        tau_max = float(np.max(np.abs(tau[free]))) if free.any() else 0.0
        timings = dict(result.timings, fk=t_fk, torque=t_torque)
        records.append(IterationRecord(it, result.energy, tau_max, timings,
                                       conf.theta.copy()))
        if step.snapshot_every and it % step.snapshot_every == 0:
            snapshots.append((it, conf))

        if tau0 is None:
            tau0 = tau_max
        if tau_max == 0.0:
            converged, reason = True, "torque-free"
            break
        if step.torque_tol > 0 and tau_max < step.torque_tol:
            converged, reason = True, "torque tolerance"
            break
        if step.torque_tol_rel > 0 and tau_max < step.torque_tol_rel * tau0:
            converged, reason = True, "torque tolerance (relative)"
            break
        w = step.energy_window
        if w and it >= w:
            drift = abs(records[it].energy.g_total - records[it - w].energy.g_total)
            if drift < step.energy_tol:
                converged, reason = True, "energy plateau"
                break
        conf, _ = kcm_step(tau, conf, step)
    return Trajectory(records, snapshots, conf, converged, reason)


# --------------------------------------------------------------------------
# scans
# --------------------------------------------------------------------------

def single_point(chain: Chain, conf: Conformation, fld: Field) -> EnergyBreakdown:
    positions = kinematic_state(chain, conf).positions
    return fld.evaluate(positions, energy_only=True).energy


@dataclass
class ScanGrid:
    axes: list[np.ndarray]          # angle values per scanned dof
    g_elec: np.ndarray
    g_vdw: np.ndarray
    g_cav: np.ndarray

    @property
    def g_total(self) -> np.ndarray:
        return self.g_elec + self.g_vdw + self.g_cav


def ramachandran_scan(chain: Chain, residue: int, resolution: int,
                      fld: Field, base: Conformation | None = None) -> ScanGrid:
    """Energy over a (phi, psi) grid for one residue, other DOFs fixed."""
    if not 0 <= residue < chain.n_residues:
        raise ConfigurationError(
            f"residue {residue} out of range: the chain has residues "
            f"0..{chain.n_residues - 1}"
        )
    if resolution < 2:
        raise ConfigurationError("grid resolution must be at least 2")
    base = base or chain.conf_zp()
    phis = np.linspace(-180.0, 180.0, resolution, endpoint=False)
    psis = np.linspace(-180.0, 180.0, resolution, endpoint=False)
    return _sweep(chain, fld, base,
                  [chain.dof_phi(residue), chain.dof_psi(residue)],
                  [phis + 180.0, psis + 180.0], [phis, psis])


def hinge_scan(chain: Chain, hinge_dofs: list[int], half_range: float,
               steps: int, fld: Field, base: Conformation) -> ScanGrid:
    """Sweep hinge dihedrals about their base values, everything else
    held at its base value."""
    for dof in hinge_dofs:
        if not 0 <= dof < chain.n_dof:
            raise ConfigurationError(f"hinge joint {dof} out of range")
    if not 1 <= len(hinge_dofs) <= 2:
        raise ConfigurationError("hinge scans support one or two joints")
    if len(set(hinge_dofs)) != len(hinge_dofs):
        raise ConfigurationError(f"hinge joints {list(hinge_dofs)} repeat a joint")
    if steps < 1:
        raise ConfigurationError("steps must be positive")
    offsets = (np.linspace(-half_range, half_range, steps)
               if steps > 1 else np.zeros(1))
    thetas = [base.theta[d] + offsets for d in hinge_dofs]
    labels = [offsets for _ in hinge_dofs]
    return _sweep(chain, fld, base, list(hinge_dofs), thetas, labels)


def _sweep(chain, fld, base, dofs, theta_axes, label_axes) -> ScanGrid:
    shape = tuple(len(a) for a in theta_axes)
    g_e = np.zeros(shape)
    g_v = np.zeros(shape)
    g_c = np.zeros(shape)
    for idx in np.ndindex(*shape):
        theta = base.theta.copy()
        for d, ax, k in zip(dofs, theta_axes, idx):
            theta[d] = ax[k]
        conf = replace(base, theta=theta)
        e = single_point(chain, conf, fld)
        g_e[idx], g_v[idx], g_c[idx] = e.g_elec, e.g_vdw, e.g_cav
    return ScanGrid(axes=list(label_axes), g_elec=g_e, g_vdw=g_v, g_cav=g_c)
