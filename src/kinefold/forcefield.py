"""Electrostatic and van der Waals energies and forces.

Truncated, weighted pairwise sums in kcal/mol, Angstroms, and elementary
charges.  The Coulomb prefactor ``COULOMB_K`` (332.06 kcal A mol^-1 e^-2)
folds the 1/(4 pi eps0) conversion, and the native ``elec_terms`` is
passed this one value; the default dielectric grows linearly with
separation to mimic solvent screening, and the force expression keeps
the dielectric frozen at the instantaneous distance (the conventional
form for a distance-dependent dielectric).  Van der Waals interactions
use the 6-12 form with well depth sqrt(eps_i eps_j) and minimum at the
radius sum.

The pair stages are native (``pairs.c``, loaded by ``native``), one C
call each: ``extract_pairs`` is ``cutoff_pairs``,
``elec_pair_quantities`` and ``vdw_pair_quantities`` are ``elec_terms``
and ``vdw_terms`` over the whole pair arrays, and
``accumulate_pair_forces`` is ``scatter_forces``.  Their numpy
references live in ``tests/oracles.py``.

``extract_pairs`` and the two pair terms write their outputs into the
``spatial.Workspace`` they are given as ``work`` (``kcm.Field`` passes
its own), so their results are views that the next call on the same
workspace overwrites; without one they get fresh arrays.
``accumulate_pair_forces`` always returns a fresh ``(n, 3)`` array, so
the forces an evaluation hands out never alias a workspace.  No stage
converts an array; one in another dtype or layout is refused (``native``).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import native
from .errors import ConfigurationError, StericClashError
from .spatial import Cutoffs, NeighborTable, Workspace

COULOMB_K = 332.06          # kcal A / (mol e^2)
MIN_DISTANCE = 1e-6         # A; closer pairs abort as steric clashes


@dataclass(frozen=True)
class AtomParams:
    """Per-atom nonbonded parameters (struct of arrays), held as the
    C-contiguous float64 arrays the native pair terms read."""

    q: np.ndarray          # charge, e
    R: np.ndarray          # van der Waals radius, A
    eps: np.ndarray        # well depth, kcal/mol
    gamma: np.ndarray      # solvation parameter, kcal/(mol A^2)

    def __post_init__(self):
        for name in ("q", "R", "eps", "gamma"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), float))
        n = len(self.q)
        for name in ("R", "eps", "gamma"):
            if getattr(self, name).shape != (n,):
                raise ConfigurationError("parameter arrays must share one length")
        if np.any(self.R <= 0):
            raise ConfigurationError("van der Waals radii must be positive")
        if np.any(self.eps < 0):
            raise ConfigurationError("well depths must be non-negative")

    @property
    def n_atoms(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class DielectricModel:
    """The relative permittivity of a pair at distance d.

    ``kappa`` is its one setting: ``None`` (the default) gives the
    distance-dependent eps(d) = d / 1 A, a number gives that constant.
    """

    kappa: float | None = None

    def __post_init__(self):
        if self.kappa is not None and not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigurationError(f"kappa must be positive and finite, got {self.kappa}")


@dataclass(frozen=True)
class EnergyBreakdown:
    g_elec: float
    g_vdw: float
    g_cav: float

    @property
    def g_total(self) -> float:
        return self.g_elec + self.g_vdw + self.g_cav


def extract_pairs(positions, table: NeighborTable, d_cut: float,
                  work: Workspace | None = None):
    """Exact cut-off pairs (i < j, sorted by (i, j)) from the superset
    half ``table``, with squared distances and distances, after the
    steric-clash guard.  The outputs are views of ``work``'s ``ij`` and
    ``dd`` (a new workspace when None), sized by the table's candidate
    count, an exact bound."""
    work = Workspace() if work is None else work
    n = len(table)
    if np.shape(positions) != (n, 3):
        raise ConfigurationError(
            f"positions of shape {np.shape(positions)} do not match a table of {n} rows")
    m = len(table.neighbors)
    ij = work.take("ij", (2, m), np.int64)
    dd = work.take("dd", (2, m))
    closest = ctypes.c_int64()
    kept = native.load().call("cutoff_pairs", n, positions, table.offsets,
                              table.neighbors, m, d_cut * d_cut, ij, dd,
                              ctypes.byref(closest))
    if kept == native.REFUSED:
        raise ConfigurationError(f"neighbor rows do not index the {n} atoms")
    (i, j), (d2, d) = ij[:, :kept], dd[:, :kept]
    k = closest.value
    if kept and d[k] < MIN_DISTANCE:
        raise StericClashError(
            f"atoms {i[k]} and {j[k]} closer than {MIN_DISTANCE} A (d={d[k]:.3e})"
        )
    return i, j, d2, d


def _pair_terms(name, n, i, j, d2, d, w, per_atom, cutoffs: Cutoffs, cut: float,
                work: Workspace | None):
    """One native pair-term pass: (energy, force magnitude) per pair, 0
    for the pairs outside ``d2 <= max(elec, vdw)**2`` and ``d <= cut``,
    the two rows of ``work``'s buffer ``name`` (a new workspace when
    None)."""
    work = Workspace() if work is None else work
    m = len(i)
    if any(np.shape(a) != (m,) for a in (i, j, d2, d)) or np.shape(w) != (m, 2):
        raise ConfigurationError("pair arrays must share one length, weights (m, 2)")
    bound = max(cutoffs.elec, cutoffs.vdw)
    out = work.take(name, (2, m))
    if native.load().call(name, m, i, j, d2, d, w, n, *per_atom, bound * bound, cut,
                          out) == native.REFUSED:
        raise ConfigurationError(f"pairs name atoms outside the {n} atoms")
    return out[0], out[1]


def elec_pair_quantities(params, i, j, d2, d, w, dielectric, cutoffs: Cutoffs,
                         work: Workspace | None = None):
    """Energy and force magnitude per pair for the Coulomb term, weights
    ``w[:, 0]``.  A pair counts when ``d <= cutoffs.elec`` and ``d2 <=
    max(elec, vdw)**2`` (so both terms see the same pairs whatever sets
    the table cut-off); the others get 0."""
    return _pair_terms("elec_terms", params.n_atoms, i, j, d2, d, w,
                       (params.q, COULOMB_K, dielectric.kappa or 0.0), cutoffs,
                       cutoffs.elec, work)


def vdw_pair_quantities(params, i, j, d2, d, w, cutoffs: Cutoffs,
                        work: Workspace | None = None):
    """Energy and force magnitude per pair for the 6-12 term, weights
    ``w[:, 1]``, on the pairs with ``d <= cutoffs.vdw`` and ``d2 <=
    max(elec, vdw)**2``; the others get 0."""
    return _pair_terms("vdw_terms", params.n_atoms, i, j, d2, d, w,
                       (params.R, params.eps), cutoffs, cutoffs.vdw, work)


def accumulate_pair_forces(n, positions, i, j, d, mag) -> np.ndarray:
    """Scatter +/- mag * e_ij onto atoms i and j (action equals reaction)."""
    m = len(i)
    if np.shape(positions) != (n, 3) or any(np.shape(a) != (m,) for a in (i, j, d, mag)):
        raise ConfigurationError("positions must be (n, 3) and pair arrays one length")
    out = np.zeros((n, 3))
    if native.load().call("scatter_forces", n, positions, m, i, j, d, mag,
                          out) == native.REFUSED:
        raise ConfigurationError(f"pairs name atoms outside the {n} atoms")
    return out
