"""Workload definitions: inputs from a seed, one timed unit of work, checks.

Every workload builds its system through the public library API, the way
``kinefold fold`` and ``kinefold scan-rama`` do, and then times whole
``kcm.fold`` or ``kcm.ramachandran_scan`` calls.  Library functions are
always called through their module (``kcm.fold``, ``pdbio.load_params``)
so that the span recorder in ``spans.py`` can wrap them.

A unit is the smallest piece of work the benchmark repeats: both folds of
``helix15-vacuum``, one fixed-length fold of ``extended400-vacuum`` or
``helix30-water``, one whole scan of ``rama8-water``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from kinefold import chain as chain_mod
from kinefold import kcm, pdbio, topology
from kinefold.solvation import SolvationConfig

DEFAULT_SEED = 0
# Reference energies are checked to this relative tolerance, not bitwise:
# a change that only reorders floating-point sums must still pass.  Moving
# every seed-0 start angle by 1e-12 (1e-10) degrees moved each final
# energy by at most 2e-13 (2e-11) relative and no helix15 stop: there the
# plateau test reads 0.012 and 0.005 against its 0.02 at the stop, and
# 0.86 and 0.69 one iteration before.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class FoldCase:
    label: str                  # "right" / "left" for the helix pair
    phi: np.ndarray | None      # None: the extended zp conformation
    psi: np.ndarray | None


@dataclass(frozen=True)
class Inputs:
    sequence: list[str]
    solvation: bool
    samples: int = 1024
    folds: tuple[FoldCase, ...] = ()
    step: kcm.StepConfig | None = None
    scan_residue: int = 0
    scan_resolution: int = 0
    base_phi: np.ndarray | None = None
    base_psi: np.ndarray | None = None


@dataclass
class System:
    chain: chain_mod.Chain
    field: kcm.Field


@dataclass
class Observation:
    """What one unit produced, reduced to what the checks need."""

    seconds: float                  # wall time of the fold or scan calls
    iterations: int                 # fold iterations or scan evaluations
    attempted: int                  # folds or scan evaluations
    energies: list[np.ndarray] = field(default_factory=list)  # per fold
    converged: list[bool] = field(default_factory=list)
    final_phi: list[np.ndarray] = field(default_factory=list)
    final_psi: list[np.ndarray] = field(default_factory=list)
    grid: np.ndarray | None = None  # scan g_total
    grid_axes: list[np.ndarray] | None = None


def build_system(inputs: Inputs) -> System:
    """Set-up as the CLI does it: parameters, chain, bond tree, Field;
    the lazily built sample sphere is forced here so it is not timed as
    solve work."""
    params = pdbio.load_params()
    chain = chain_mod.build_chain(inputs.sequence)
    weights = topology.TreeWeights(topology.build_tree(chain), params.weights)
    config = kcm.FieldConfig(solvation=inputs.solvation,
                             solvation_cfg=SolvationConfig(samples=inputs.samples))
    fld = kcm.Field(params.resolve(chain), weights, config)
    if inputs.solvation:
        fld.sphere()
    return System(chain, fld)


def solve(system: System, inputs: Inputs) -> Observation:
    ch, fld = system.chain, system.field
    if inputs.folds:
        confs = [ch.conf_zp() if case.phi is None
                 else ch.conf_from_backbone(case.phi, case.psi)
                 for case in inputs.folds]
        t0 = time.perf_counter()
        trajs = [kcm.fold(ch, conf, fld, inputs.step) for conf in confs]
        obs = Observation(time.perf_counter() - t0, sum(t.iterations for t in trajs),
                          len(trajs))
        for t in trajs:
            phi, psi, _ = ch.dihedrals_from_theta(t.final)
            obs.energies.append(t.energies())
            obs.converged.append(t.converged)
            obs.final_phi.append(phi)
            obs.final_psi.append(psi)
        return obs
    base = ch.conf_from_backbone(inputs.base_phi, inputs.base_psi)
    t0 = time.perf_counter()
    grid = kcm.ramachandran_scan(ch, inputs.scan_residue, inputs.scan_resolution,
                                 fld, base)
    seconds = time.perf_counter() - t0
    total = grid.g_total
    return Observation(seconds, total.size, total.size,
                       grid=total, grid_axes=grid.axes)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object            # (rng, small) -> Inputs
    reference: dict         # default-seed energies at full size, by check key
    checks: tuple = ()      # extra full-size checks: (obs, inputs) -> failures


def _helix15(rng, small):
    m = 6 if small else 15
    # 1e-3 degree jitter keeps every seed in the basin criteria 7/8 pin;
    # 0.1 degree per residue already moves some folds to other plateaus.
    cases = tuple(
        FoldCase(label, start + rng.uniform(-1e-3, 1e-3, m),
                 start + rng.uniform(-1e-3, 1e-3, m))
        for label, start in (("right", -10.0), ("left", 10.0)))
    step = kcm.StepConfig(kappa=0.5, max_iters=2 if small else 1000,
                          torque_tol_rel=0.0, energy_window=20, energy_tol=0.02)
    return Inputs(["ALA"] * m, solvation=False, folds=cases, step=step)


def _extended400(rng, small):
    per_kind = 2 if small else 100
    seq = np.array(["SER", "ALA", "CYS", "GLY"] * per_kind)
    rng.shuffle(seq)
    step = kcm.StepConfig(max_iters=2 if small else 8, torque_tol_rel=0.0,
                          energy_window=0)
    return Inputs(list(seq), solvation=False,
                  folds=(FoldCase("extended", None, None),), step=step)


def _helix30(rng, small):
    m = 6 if small else 30
    # +-2 degrees off the ideal helix: from the exact helix the first
    # compliance steps in water raise the energy, so the descent check
    # would not hold.
    case = FoldCase("helix", -57.0 + rng.uniform(-2.0, 2.0, m),
                    -47.0 + rng.uniform(-2.0, 2.0, m))
    step = kcm.StepConfig(max_iters=2 if small else 3, torque_tol_rel=0.0,
                          energy_window=0)
    return Inputs(["ALA"] * m, solvation=True, samples=64 if small else 1024,
                  folds=(case,), step=step)


def _rama8(rng, small):
    m = 4 if small else 8
    return Inputs(["ALA"] * m, solvation=True, samples=64 if small else 1024,
                  scan_residue=1 if small else 4,
                  scan_resolution=2 if small else 6,
                  base_phi=-57.0 + rng.uniform(-2.0, 2.0, m),
                  base_psi=-47.0 + rng.uniform(-2.0, 2.0, m))


def _helix_bands(obs, inputs):
    """Criterion 7 bands on the interior residues, and criterion 8's
    ordering: the right-handed helix ends lower than the left-handed."""
    out = []
    interior = slice(2, len(inputs.sequence) - 2)
    for k, case in enumerate(inputs.folds):
        phi, psi = obs.final_phi[k][interior], obs.final_psi[k][interior]
        if case.label == "right":
            ok = np.all((phi >= -110) & (phi <= -40)) and np.all((psi >= -70) & (psi <= 10))
        else:
            ok = np.all((phi >= 40) & (phi <= 110)) and np.all((psi >= -10) & (psi <= 70))
        if not obs.converged[k]:
            out.append((k, f"{case.label} fold did not converge"))
        if not ok:
            out.append((k, f"{case.label} fold interior dihedrals outside the helix band"))
    e_right, e_left = obs.energies[0][-1], obs.energies[1][-1]
    if not e_right < e_left:
        msg = f"E_right {e_right:.4f} not below E_left {e_left:.4f}"
        out += [(0, msg), (1, msg)]
    return out


def _steric_band(obs, inputs):
    """Criterion 9 on the scanned residue: G(0,0) sits at least 10 kcal/mol
    above the grid minimum, and the minimum is not at phi near 0."""
    g = obs.grid
    i0 = list(obs.grid_axes[0]).index(0.0)
    j0 = list(obs.grid_axes[1]).index(0.0)
    k = np.unravel_index(np.argmin(g), g.shape)
    phi_min = obs.grid_axes[0][k[0]]
    out = []
    if not g[i0, j0] - g.min() >= 10.0:
        out.append((None, f"steric band G(0,0) - min = {g[i0, j0] - g.min():.3f} < 10"))
    if not abs(phi_min) >= 30.0:
        out.append((None, f"grid minimum at phi = {phi_min:.0f}"))
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "helix15-vacuum",
        "README quick start and criteria 7/8: many cheap iterations, so per-call "
        "overhead in every layer dominates and iterations to convergence count",
        _helix15,
        reference={"right": -44.183278652332575, "left": -5.291408506477012},
        checks=(_helix_bands,),
    ),
    Workload(
        "extended400-vacuum",
        "large mixed SER/ALA/CYS/GLY chain from the extended start: per-link "
        "Python loops in kinematics and torques dominate, side-chain links used",
        _extended400,
        reference={"extended": 900.699673750646},
    ),
    Workload(
        "helix30-water",
        "solvated helix fold: the SASA exposure pass is most of each iteration, "
        "the only fold where the solvation force pass runs",
        _helix30,
        reference={"helix": -169.0078019196153},
    ),
    Workload(
        "rama8-water",
        "energy-only scan with large jumps between conformations: SASA without "
        "forces, torques or steps, so caching across iterations shows as a cost",
        _rama8,
        reference={"min": 13.10878739862181},
        checks=(_steric_band,),
    ),
)}


def make_inputs(workload: Workload, seed: int, small: bool) -> Inputs:
    return workload.make(np.random.default_rng(seed), small)


def check(workload: Workload, inputs: Inputs, obs: Observation, *,
          full: bool, seed: int) -> tuple[int, list[str]]:
    """Returns (failed count, messages).  Folds fail one by one; a scan's
    grid-wide checks fail every evaluation of the scan.  The tiny smoke
    sizes (``full=False``) are only checked for finite energies."""
    bad: dict[int | None, str] = {}
    if obs.grid is None:
        for k, e in enumerate(obs.energies):
            if not np.all(np.isfinite(e)):
                bad[k] = f"{inputs.folds[k].label} fold: non-finite energy"
            elif full and not e[-1] < e[0]:
                bad[k] = (f"{inputs.folds[k].label} fold: last energy {e[-1]:.4f} "
                          f"not below first {e[0]:.4f}")
    elif not np.all(np.isfinite(obs.grid)):
        bad[None] = f"{int(np.sum(~np.isfinite(obs.grid)))} non-finite scan energies"
    if full and not bad:
        for fn in workload.checks:
            for k, msg in fn(obs, inputs):
                bad.setdefault(k, msg)
        if seed == DEFAULT_SEED:
            for k, msg in _reference(workload, inputs, obs):
                bad.setdefault(k, msg)
    if obs.grid is not None and bad:
        return obs.attempted, list(bad.values())
    return len(bad), list(bad.values())


def final_energies(inputs: Inputs, obs: Observation) -> dict[str, float]:
    """The values a reference pins: each fold's last energy, or the scan
    minimum."""
    if obs.grid is not None:
        return {"min": float(obs.grid.min())}
    return {case.label: float(e[-1]) for case, e in zip(inputs.folds, obs.energies)}


def _reference(workload, inputs, obs):
    labels = [case.label for case in inputs.folds]
    for key, value in final_energies(inputs, obs).items():
        want = workload.reference.get(key)
        if want is None:
            continue
        if not math.isclose(value, want, rel_tol=REFERENCE_RTOL):
            k = labels.index(key) if key in labels else None
            yield k, f"{key} energy {value:.10g} != reference {want:.10g}"
