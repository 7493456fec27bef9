"""Solvent-accessible surface area and its gradient by sample enumeration.

Each atom carries an offset sphere (van der Waals radius plus probe
radius).  One shared quasi-uniform unit-sphere sampling is mapped onto
every atom; a sample point is exposed when no neighbor offset sphere
covers it, and the exposure ratio approximates the exposed area
fraction.  Per sample point we track a clamped overlap count:

  0         exposed; displacing any neighbor may cover it
  1         critically overlapped; only its one coverer, found in the row, matters
  2 or more multiply overlapped; no single displacement changes exposure

The force pass perturbs neighbors by a forward difference ``delta_r``
along each axis and converts exposure flips into paired, equal and
opposite force contributions of magnitude ``4 pi gamma_i R_off_i^2 /
(N delta_r)``.  Contributions accumulate in 64-bit fixed point with a
power-of-two quantum, so the pair writes cancel bitwise: total momentum
is exactly zero and results are independent of accumulation order
(and therefore of how the rows are split between passes).

Both passes run in the native library (``sasa.c``, built and loaded by
``native``), one call each over the rows they read.  A
sample ``x_i + r_i u`` is covered by neighbor j when
``((x_i + r_i u) - x_j)`` has ``(dx^2 + dy^2) + dz^2 <= r_j^2``, evaluated
in that order with no fused multiply-add, which is the distance test of
the references in ``tests/oracles.py`` bit for bit.  Exposure counting
stops at a sample's second coverer (the per-sample neighbor pruning of
Le Grand & Merz, J. Comput. Chem. 14:349, 1993, on the Shrake & Rupley
sample test).  So each sample first tests the two neighbors that covered
the last sample to reach count 2, and only when they do not both cover
scans its row nearest center first, four neighbors per step.  The area
alone needs less: a sample is buried once one neighbor covers it (Shrake
& Rupley, J. Mol. Biol. 79:351, 1973).  So ``sasa_pass(...,
area_only=True)``, which energy-only evaluations use, tests the last
coverer found first and otherwise scans only up to the first coverer;
its areas are bitwise those of the full pass, and its states cannot
drive the force pass.

G_cav = sum gamma_i a_i weights each atom's area by its atomic solvation
parameter (Eisenberg & McLachlan, Nature 319:199, 1986), so an atom of
gamma 0 (solvation class NONE, which holds every hydrogen) adds nothing to
it and, with a weight of 0, no force events.  ``sasa_pass`` counts the
samples of the atoms it is given (``atoms``, ascending; every atom by
default): folds and scans (``kcm.Field.evaluate``) give only the atoms of
nonzero gamma, about half of a polyalanine's, and ``kinefold sasa`` every
atom.  Every atom stays a neighbor in the others' rows, since its offset
sphere still occludes their samples, so the counted atoms' states, areas,
G_cav and forces are bitwise those of the all-atoms pass.  An atom not
counted reads ``nan`` in ``SasaResult`` and, in ``ExposureStates``, counts
of the pass's need (as if buried), which the force pass never reads.

Both passes take the pairs within ``spatial.reach`` as one symmetric
``spatial.NeighborTable`` (CSR); rows holding more pairs give the same
result.  Neither converts an array; one in another dtype or layout is
refused (``native``).  The rows' ends are checked here, and the kernels
check every row they gather (offsets that fall, neighbors outside the
atoms), so rows that leave the atoms are refused with no numpy pass over
the table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import native
from .errors import ConfigurationError
from .spatial import NeighborTable

MIN_SAMPLES = 12
_FIXED_POINT_BITS = 36


@dataclass(frozen=True)
class SolvationConfig:
    probe_radius: float = 1.4
    delta_r: float = 1e-2
    samples: int = 1024

    def __post_init__(self):
        lengths_ok = all(math.isfinite(x) and x > 0 for x in (self.probe_radius, self.delta_r))
        if not lengths_ok or self.samples < MIN_SAMPLES:
            raise ConfigurationError(
                "probe radius and delta_r must be positive and finite, samples >= 12,"
                f" got {self.probe_radius}, {self.delta_r}, {self.samples}"
            )


@dataclass(frozen=True)
class SampleSphere:
    """Unit-sphere sample set shared by all atoms, held C-contiguous."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.ascontiguousarray(self.points, float))

    @property
    def n(self) -> int:
        return len(self.points)


def generate_samples(n: int) -> SampleSphere:
    """Deterministic quasi-uniform sampling: latitude orbits with uniform
    angular spacing, points per orbit proportional to circumference."""
    if n < MIN_SAMPLES:
        raise ConfigurationError(f"need at least {MIN_SAMPLES} sample points, got {n}")
    n_orb = max(2 * int(round(math.sqrt(math.pi * n) / 4.0)), 2)
    polar = (np.arange(n_orb) + 0.5) * math.pi / n_orb
    weights = np.sin(polar)
    ideal = n * weights / weights.sum()
    counts = np.floor(ideal).astype(int)
    remainder = ideal - counts
    short = n - counts.sum()
    counts[np.argsort(-remainder, kind="stable")[:short]] += 1
    pts = np.empty((n, 3))
    at = 0
    golden = 0.618033988749895
    for t in range(n_orb):
        c = counts[t]
        if c == 0:
            continue
        az = 2.0 * math.pi * (np.arange(c) + (t * golden) % 1.0) / c
        s, z = math.sin(polar[t]), math.cos(polar[t])
        pts[at : at + c, 0] = s * np.cos(az)
        pts[at : at + c, 1] = s * np.sin(az)
        pts[at : at + c, 2] = z
        at += c
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SampleSphere(pts)


@dataclass
class ExposureStates:
    """Per (atom, sample) clamped overlap count, the whole state: the force
    pass finds a count-1 sample's coverer in its row.  ``sasa_pass`` sets
    every entry; the rows of atoms it did not count hold its need (2, or 1
    when area only), as if buried.  Area-only states count to 1 (covered
    or not), so ``solvation_forces`` refuses them."""

    counts: np.ndarray   # uint8 (atoms, samples), values 0/1/2 (0/1 when area only)
    area_only: bool      # counts clamped at 1, by sasa_pass(..., area_only=True)


@dataclass(frozen=True)
class SasaResult:
    """Areas of the atoms ``sasa_pass`` counted, ``nan`` at every other
    atom.  ``g_cav`` sums ``gamma * a_exp`` over every atom, with 0.0 at
    the atoms not counted, so it groups its terms as the all-atoms sum."""

    f_exp: np.ndarray   # exposure ratio per atom, multiples of 1/N
    a_exp: np.ndarray   # exposed area per atom, A^2
    g_cav: float        # nonpolar solvation free energy, kcal/mol


def offset_radii(params, config: SolvationConfig) -> np.ndarray:
    return params.R + config.probe_radius


def _kernel_inputs(positions, params, neighbors: NeighborTable, sphere, config, r_off):
    """The offset radii (``r_off`` when the caller has them), after
    checking the shapes of the arrays the kernels read and the ends of the
    rows.  The kernels check the rows they gather, and square the radii,
    themselves."""
    n = len(positions)
    if r_off is None:
        r_off = offset_radii(params, config)
    offsets, nbrs = neighbors.offsets, neighbors.neighbors
    if (np.shape(positions) != (n, 3) or r_off.ndim != 1 or len(r_off) < n
            or sphere.points.shape != (sphere.n, 3)):
        raise ConfigurationError(
            f"positions {np.shape(positions)}, offset radii {r_off.shape} and samples "
            f"{sphere.points.shape} do not cover {n} atoms and {sphere.n} samples")
    if len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != len(nbrs):
        raise _rows_error(n)
    return r_off


def _rows_error(n: int) -> ConfigurationError:
    return ConfigurationError(f"neighbor rows do not index the {n} atoms")


def _rows_index(neighbors: NeighborTable, n: int) -> bool:
    """Whether the offsets never fall and every neighbor is one of the n
    atoms: the kernels' own row checks, run here only after one refused,
    to say why."""
    offsets, nbrs = neighbors.offsets, neighbors.neighbors
    return bool(np.all(np.diff(offsets) >= 0)
                and (len(nbrs) == 0 or 0 <= nbrs.min() <= nbrs.max() < n))


def sasa_pass(positions, params, neighbors: NeighborTable, sphere: SampleSphere,
              config: SolvationConfig = SolvationConfig(), *, area_only: bool = False,
              atoms: np.ndarray | None = None, r_off: np.ndarray | None = None):
    """Exposure counting: returns (SasaResult, ExposureStates).

    ``neighbors`` holds one row per atom, the pairs within
    ``spatial.reach`` (the cavity rows of ``spatial.filtered_lists``).
    Only the clamped counts 0/1/2 matter, so the compiled kernel stops at
    a sample's second coverer.  It first tests the two neighbors that
    covered the last sample to reach count 2; if both cover, the count is
    2.  Otherwise it scans the row nearest center first, four neighbors
    per step.  A count of 1 has exactly one coverer whatever the order of
    the tests.  The kernel writes every count, so the array is not filled
    in advance.

    With ``area_only`` the kernel stops at a sample's first coverer,
    testing the last coverer found first.  The result is bitwise the
    same; the states' counts are clamped at 1, so only the area can be
    taken from them.

    ``atoms`` (int64, ascending; every atom when None) are the atoms whose
    samples are counted.  The others still occlude as neighbors, so the
    counted atoms' states and areas are bitwise those of the all-atoms
    pass; the others' areas read ``nan`` and their counts the pass's need.
    ``g_cav`` leaves them out, so it equals the all-atoms G_cav when they
    carry no surface tension.  ``r_off`` are the offset radii
    (``offset_radii(params, config)``) when the caller already has them.
    Refused: rows that do not index the atoms, and ``atoms`` that do not
    ascend within them.
    """
    r_off = _kernel_inputs(positions, params, neighbors, sphere, config, r_off)
    n = len(positions)
    nq = sphere.n
    atoms = np.arange(n, dtype=np.int64) if atoms is None else atoms
    counts = np.empty((n, nq), np.uint8)
    covered = np.empty(n, np.int64)
    status = native.load().call(
        "exposure", n, positions, r_off, neighbors.offsets, neighbors.neighbors,
        len(atoms), atoms, sphere.points, nq, 1 if area_only else 2, counts, covered)
    if status == native.REFUSED:
        if not _rows_index(neighbors, n):
            raise _rows_error(n)
        raise ConfigurationError(f"the atoms to count do not ascend within the {n} atoms")
    f_exp = (nq - covered) / float(nq)
    a0 = 4.0 * math.pi * (r_off * r_off)
    a_exp = f_exp * a0
    # covered = nq at the atoms not counted, so their terms are 0.0 and the
    # full-length sum groups its terms as the all-atoms pass's does
    g_cav = float(np.sum(params.gamma * a_exp))
    if len(atoms) < n:
        skipped = np.ones(n, bool)
        skipped[atoms] = False
        f_exp[skipped] = a_exp[skipped] = np.nan
    return SasaResult(f_exp, a_exp, g_cav), ExposureStates(counts, area_only)


def _force_quantum(params, r_off: np.ndarray, nq: int, delta_r: float):
    """Per-atom event magnitudes as integer multiples of a binary quantum:
    ``2**-_FIXED_POINT_BITS`` times the largest power of two not above the
    largest magnitude (``frexp`` is exact where ``floor(log2)`` can round).

    The quantum must be a normal float: a subnormal or zero one would make
    ``delta / quantum`` lose bits or overflow the int64 weights."""
    delta = 4.0 * math.pi * params.gamma * r_off * r_off / (nq * delta_r)
    if not np.any(params.gamma):
        return np.zeros(len(delta), np.int64), 1.0
    peak = float(np.max(np.abs(delta)))
    quantum = math.ldexp(1.0, math.frexp(peak)[1] - 1 - _FIXED_POINT_BITS)
    if not (0.0 < peak < math.inf and quantum >= sys.float_info.min):
        r_max = float(np.max(r_off))
        smallest = math.ldexp(sys.float_info.min, _FIXED_POINT_BITS) * nq * delta_r / (
            4.0 * math.pi * r_max * r_max)
        raise ConfigurationError(
            f"surface tensions give a largest solvation event of {peak:.3g}, "
            "whose fixed-point quantum is not a normal float; gamma must be "
            f"finite and, on the largest offset sphere, |gamma| >= {smallest:.3g}")
    return np.round(delta / quantum).astype(np.int64), quantum


def check_accumulator(nq: int, max_nb: int, w_max: int) -> None:
    """Bound the int64 force accumulator before any sample is tested.

    Per axis, an atom's entry takes at most nq (max_nb + 1) events from its
    own samples (an exposed sample may be covered by each neighbor, a
    critical one freed once) and nq from each neighbor's samples, each of
    at most w_max quanta: ``nq (2 max_nb + 1) w_max`` must stay below 2**63.
    """
    if int(nq) * (2 * int(max_nb) + 1) * int(w_max) >= 2**63:
        raise ConfigurationError(
            f"solvation force accumulator could overflow int64: {nq} samples "
            f"x (2 x {max_nb} neighbors + 1) x {w_max} quanta >= 2**63; "
            "use fewer samples or a smaller probe radius"
        )


def solvation_forces(positions, params, neighbors: NeighborTable, sphere: SampleSphere,
                     states: ExposureStates, config: SolvationConfig = SolvationConfig(),
                     *, r_off: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference solvation forces from the exposure ``states``
    ``sasa_pass`` gave for the same inputs.

    Exposed samples test every neighbor in the row, displaced by +delta_r
    along each axis; critically overlapped samples test only their one
    coverer, found again in the row.  Multiply overlapped samples cannot
    change exposure under a single displacement and are skipped.  Only
    the atoms of nonzero weight are read, every one of them counted by a
    pass over the atoms of nonzero gamma.  ``r_off`` as for ``sasa_pass``.
    Refused: area-only states, which do not tell critical samples from
    multiply overlapped ones, rows that do not index the atoms, and a
    count-1 sample that nothing in its row covers.
    """
    if states.area_only:
        raise ConfigurationError(
            "area-only exposure states (sasa_pass(..., area_only=True)) do not tell "
            "single from multiple coverage; the force pass needs a full sasa_pass")
    r_off = _kernel_inputs(positions, params, neighbors, sphere, config, r_off)
    n, nq = len(positions), sphere.n
    w_int, quantum = _force_quantum(params, r_off, nq, config.delta_r)
    check_accumulator(nq, int(np.diff(neighbors.offsets).max(initial=0)),
                      max(-int(w_int.min(initial=0)), int(w_int.max(initial=0))))
    if states.counts.shape != (n, nq):
        raise ConfigurationError(
            f"exposure states of shape {states.counts.shape} do not match "
            f"{n} atoms and {nq} samples")
    acc = np.zeros((n, 3), np.int64)
    status = native.load().call(
        "force_events", n, positions, r_off, neighbors.offsets, neighbors.neighbors,
        sphere.points, nq, states.counts, w_int, config.delta_r, acc)
    if status == native.REFUSED:
        if not _rows_index(neighbors, n):
            raise _rows_error(n)
        raise ConfigurationError(
            "exposure states do not belong to these rows and positions: a singly "
            "covered sample has no coverer in its row")
    return acc.astype(float) * quantum
