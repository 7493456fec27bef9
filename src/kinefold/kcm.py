"""Kinetostatic compliance: forces -> link wrenches -> joint torques -> step.

``Field.evaluate`` gives the atom forces of one conformation: one
cell-list neighbor table, binned once at a cut-off covering the elec and
vdW cut-offs and, when solvated, the reach of the two largest offset
spheres; one pass over its pairs, filtered exactly at that cut-off; and
the SASA passes on the pairs whose offset spheres can meet
(``spatial.reach``).  An energy-only evaluation (the scans,
``single_point``, ``kinefold sasa``) needs G_cav and no forces, so its
exposure pass stops each sample at its first coverer
(``sasa_pass(..., area_only=True)``); its energies and areas are bitwise
those of a force evaluation.  Every pair stage is one call into the native
library (``native``): ``build_grid`` and ``build_neighbor_table``,
``extract_pairs``, ``TreeWeights.weights_for``, ``elec_pair_quantities``
and ``vdw_pair_quantities`` over the whole pair arrays,
``accumulate_pair_forces`` and, when solvated, ``filtered_lists`` (the
reach test and the cavity rows); ``evaluate`` itself only sums the
energies and the two force magnitudes.  The candidate-sized arrays of
those stages live in the ``Field``'s one ``spatial.Workspace``, which
grows to the largest evaluation it has seen and is reused by every later
one, so an evaluation allocates only atom-sized arrays and the pair
weights.  Everything a ``FieldResult`` holds is its own.

Per iteration, atom forces are summed into per-link wrenches, one
(n_links, 6) array: columns 0-2 the force, 3-5 the moment about the
amino-terminus anchor, which sits at the global origin.  Joint torques
need the total wrench of the subtree each joint drives.  The rows of
``Chain.links`` are parent-first, so one reverse pass over its parent
column, adding each link's wrench row into its parent's (in a copy, so
the caller's array is left as given), leaves every link holding its
subtree total; backbone and side branches need no separate cases.  The
projection ``u.T - (u x p).F`` onto each joint's current axis and joint
point then gives its torque.  That turns the quadratic contribution scan
into a linear pass.  Like the forward kinematics, ``link_wrenches`` and
``joint_torques`` are one native call each (``links.c``); their numpy
references are in ``tests/oracles.py``.  The compliance step moves every
unfrozen joint proportionally to its torque, normalized so the largest
step is exactly kappa degrees: ``peak_torque`` alone tests the torques
and takes that peak, and ``Conformation`` alone checks and wraps theta.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import native
from .chain import (
    Chain,
    Conformation,
    KinematicState,
    kinematic_state,
    link_index_error,
)
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
    sasa_pass,
    solvation_forces,
)
from .spatial import (
    Cutoffs,
    NeighborTable,
    Workspace,
    build_grid,
    build_neighbor_table,
    filtered_lists,
    reach,
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
    table cut-off and, when solvated, the offset radii are worked out once
    here; the table cut-off also covers every pair in reach.

    A Field owns one workspace, ``work``, for the pair arrays of its
    evaluations (empty until the first ``evaluate``), so it is not
    thread-safe: concurrent ``evaluate`` calls on one Field are
    unsupported.  Use one Field per thread."""

    params: AtomParams
    weights: object
    config: FieldConfig = field(default_factory=FieldConfig)
    table_cutoff: float = field(init=False)
    work: Workspace = field(default_factory=Workspace, init=False, repr=False,
                            compare=False)
    _sphere: SampleSphere | None = field(default=None, init=False, repr=False)
    _r_off: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        cut, solv = self.config.cutoffs, self.config.solvation_cfg
        self.table_cutoff = max(cut.elec, cut.vdw)
        native.load()  # a missing compiler fails here, not mid-fold
        if self.config.solvation:
            self._r_off = offset_radii(self.params, solv)
            r_max = float(np.max(self._r_off))
            if not math.isfinite(4.0 * math.pi * r_max * r_max):
                raise ConfigurationError(
                    f"probe radius {solv.probe_radius:g} A gives offset spheres of "
                    f"radius up to {r_max:.6g} A, whose area 4 pi r^2 is not finite")
            self.table_cutoff = max(self.table_cutoff,
                                    reach(r_max, r_max, solv.delta_r))

    def sphere(self) -> SampleSphere:
        if self._sphere is None:
            self._sphere = generate_samples(self.config.solvation_cfg.samples)
        return self._sphere

    def _neighbor_table(self, positions) -> NeighborTable:
        """Superset half table from a cell list binned at the table cut-off."""
        return build_neighbor_table(build_grid(positions, self.table_cutoff), self.work)

    def evaluate(self, positions, *, energy_only: bool = False) -> FieldResult:
        """Forces and energies at ``positions``, converted here once."""
        cfg = self.config
        cut = cfg.cutoffs
        positions = np.ascontiguousarray(positions, float)
        t0 = time.perf_counter()
        table = self._neighbor_table(positions)
        t_hash = time.perf_counter() - t0
        n = len(positions)

        # one pass over the table's pairs: one distance pass at the table
        # cut-off, one classification, both pair terms over every pair
        # (each keeps d <= its cut-off and d2 <= max(elec, vdw)^2, so both
        # see the same pairs whether or not the reach sets the table
        # cut-off), one force scatter of the summed magnitudes, and the
        # cavity rows below from the same arrays
        t0 = time.perf_counter()
        work = self.work
        i, j, d2, d = extract_pairs(positions, table, self.table_cutoff, work)
        w = self.weights.weights_for(i, j)
        e_elec, mag_e = elec_pair_quantities(self.params, i, j, d2, d, w,
                                             cfg.dielectric, cut, work)
        e_vdw, mag_v = vdw_pair_quantities(self.params, i, j, d2, d, w, cut, work)
        # np.add.reduce is ndarray.sum without its Python-level wrapper
        g_elec = float(np.add.reduce(e_elec))
        g_vdw = float(np.add.reduce(e_vdw))
        if energy_only:
            forces = np.zeros((n, 3))
        else:
            forces = accumulate_pair_forces(n, positions, i, j, d,
                                            np.add(mag_e, mag_v, out=mag_e))
        t_force = time.perf_counter() - t0

        g_cav = 0.0
        sasa = None
        t_solv = 0.0
        if cfg.solvation:
            t0 = time.perf_counter()
            solv = cfg.solvation_cfg
            cav_lists = filtered_lists(i, j, d2, self._r_off, solv.delta_r, work)
            sasa, states = sasa_pass(positions, self.params, cav_lists,
                                     self.sphere(), solv, area_only=energy_only)
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

def link_wrenches(chain: Chain, positions, forces) -> np.ndarray:
    """Net wrench per link (ground included) as one (n_links, 6) array:
    columns 0-2 the force, 3-5 the moment about the origin, each summed
    over the link's atoms in atom order."""
    n, n_links = chain.n_atoms, len(chain.links)
    if np.shape(positions) != (n, 3) or np.shape(forces) != (n, 3):
        raise ConfigurationError(f"positions and forces must be ({n}, 3) arrays")
    out = np.empty((n_links, 6))
    if native.load().call("link_wrenches", n_links, n, chain.atom_link, positions,
                          forces, out) == native.REFUSED:
        raise link_index_error(chain)
    return out


def joint_torques(chain: Chain, state: KinematicState,
                  wrenches: np.ndarray) -> np.ndarray:
    """Torque per dof (kcal/mol per radian of joint rotation) at the
    kinematic ``state`` from the (n_links, 6) ``link_wrenches``: subtree
    wrenches by one reverse parent-pointer pass, then projected onto
    every joint; O(l) total.  ``wrenches`` is left as given."""
    links = chain.links
    n_links = len(links)
    if (np.shape(wrenches) != (n_links, 6) or np.shape(state.axes) != (n_links, 3)
            or np.shape(state.joint_points) != (n_links, 3)):
        raise ConfigurationError(
            f"wrenches must be ({n_links}, 6), state axes and joint points ({n_links}, 3)")
    tau = np.empty(chain.n_dof)
    if native.load().call("joint_torques", n_links, links.parent, wrenches, state.axes,
                          state.joint_points, tau) == native.REFUSED:
        raise link_index_error(chain)
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


def peak_torque(tau: np.ndarray, frozen: np.ndarray) -> float:
    """The largest |torque| over the unfrozen dofs, 0 when every dof is
    frozen.  A NaN or infinite torque on any dof, frozen or not, raises
    naming the first such dof instead of being stepped on."""
    if tau.shape != frozen.shape:
        raise ConfigurationError(f"torque shape {tau.shape} != mask shape {frozen.shape}")
    magnitude = np.abs(tau)
    peak = float(np.maximum.reduce(magnitude))  # NaN propagates; inf stays
    if not math.isfinite(peak):
        bad = np.flatnonzero(~np.isfinite(tau))
        raise NonFiniteTorqueError(f"non-finite torque {tau[bad[0]]} on dof {bad[0]}"
                                   f" ({bad.size} of {tau.size} dofs non-finite)")
    if frozen.any():
        peak = float(np.maximum.reduce(magnitude[~frozen], initial=0.0))
    return peak


def kcm_step(tau: np.ndarray, conf: Conformation,
             config: StepConfig) -> tuple[Conformation, np.ndarray]:
    """One normalized compliance step on the per-dof torques ``tau``;
    frozen joints and zero fields stay."""
    tau_max = peak_torque(tau, conf.frozen)
    if tau_max == 0.0:
        if conf.frozen.all():
            raise ConfigurationError("cannot step with every joint frozen")
        return conf, np.zeros_like(tau)
    # mask first: a frozen dof's torque over a tiny free peak can overflow
    deltas = config.kappa * np.where(conf.frozen, 0.0, tau) / tau_max
    return Conformation(conf.theta + deltas, conf.frozen), deltas


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
            t0 = time.perf_counter()
            wr = link_wrenches(chain, state.positions, result.forces)
            tau = joint_torques(chain, state, wr)
            t_torque = time.perf_counter() - t0
            tau_max = peak_torque(tau, conf.frozen)
        except KinefoldError as exc:
            raise type(exc)(f"aborted at iteration {it}: {exc}") from exc
        timings = dict(result.timings, fk=t_fk, torque=t_torque)
        records.append(IterationRecord(it, result.energy, tau_max, timings,
                                       conf.theta))
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
    if not math.isfinite(half_range):
        raise ConfigurationError(f"hinge half range must be finite, got {half_range}")
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
        e = single_point(chain, Conformation(theta, base.frozen), fld)
        g_e[idx], g_v[idx], g_c[idx] = e.g_elec, e.g_vdw, e.g_cav
    return ScanGrid(axes=list(label_axes), g_elec=g_e, g_vdw=g_v, g_cav=g_c)
