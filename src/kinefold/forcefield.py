"""Electrostatic and van der Waals energies and forces.

Truncated, weighted pairwise sums in kcal/mol, Angstroms, and elementary
charges.  The Coulomb prefactor (332.06 kcal A mol^-1 e^-2) folds the
1/(4 pi eps0) conversion; the default dielectric grows linearly with
separation to mimic solvent screening, and the force expression keeps
the dielectric frozen at the instantaneous distance (the conventional
form for a distance-dependent dielectric).  Van der Waals interactions
use the 6-12 form with well depth sqrt(eps_i eps_j) and minimum at the
radius sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StericClashError
from .spatial import NeighborTable

COULOMB_K = 332.06          # kcal A / (mol e^2)
MIN_DISTANCE = 1e-6         # A; closer pairs abort as steric clashes


@dataclass(frozen=True)
class AtomParams:
    """Per-atom nonbonded parameters (struct of arrays)."""

    q: np.ndarray          # charge, e
    R: np.ndarray          # van der Waals radius, A
    eps: np.ndarray        # well depth, kcal/mol
    gamma: np.ndarray      # solvation parameter, kcal/(mol A^2)

    def __post_init__(self):
        n = len(self.q)
        for name in ("R", "eps", "gamma"):
            if len(getattr(self, name)) != n:
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


def extract_pairs(positions, table: NeighborTable, d_cut: float):
    """Exact cut-off pairs (i < j, sorted by (i, j)) from the superset
    half ``table``, with squared distances and distances, after the
    steric-clash guard."""
    i, j = table.pairs()
    diff = positions[i] - positions[j]
    d2 = np.einsum("ij,ij->i", diff, diff)
    keep = d2 <= d_cut * d_cut
    i, j, d2 = i[keep], j[keep], d2[keep]
    d = np.sqrt(d2)
    if len(d) and float(d.min()) < MIN_DISTANCE:
        k = int(np.argmin(d))
        raise StericClashError(
            f"atoms {i[k]} and {j[k]} closer than {MIN_DISTANCE} A (d={d[k]:.3e})"
        )
    return i, j, d2, d


def elec_pair_quantities(params, i, j, d, w, dielectric):
    """Energy and force magnitude per pair for the Coulomb term."""
    kap = d if dielectric.kappa is None else dielectric.kappa
    e = COULOMB_K * w * params.q[i] * params.q[j] / (kap * d)
    mag = COULOMB_K * w * params.q[i] * params.q[j] / (kap * d * d)
    return e, mag


def vdw_pair_quantities(params, i, j, d, w):
    """Energy and force magnitude per pair for the 6-12 term."""
    eps = np.sqrt(params.eps[i] * params.eps[j])
    dd = params.R[i] + params.R[j]
    ratio6 = dd**6 / d**6
    e = w * eps * (ratio6 * ratio6 - 2.0 * ratio6)
    mag = 12.0 * w * eps * (dd**12 / d**13 - dd**6 / d**7)
    return e, mag


def accumulate_pair_forces(n, positions, i, j, d, mag) -> np.ndarray:
    """Scatter +/- mag * e_ij onto atoms i and j (action equals reaction)."""
    out = np.zeros((n, 3))
    if len(d) == 0:
        return out
    e = (positions[i] - positions[j]) / d[:, None]
    f = mag[:, None] * e
    for axis in range(3):
        out[:, axis] += np.bincount(i, weights=f[:, axis], minlength=n)
        out[:, axis] -= np.bincount(j, weights=f[:, axis], minlength=n)
    return out
