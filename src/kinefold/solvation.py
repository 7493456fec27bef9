"""Solvent-accessible surface area and its gradient by sample enumeration.

Each atom carries an offset sphere (van der Waals radius plus probe
radius).  One shared quasi-uniform unit-sphere sampling is mapped onto
every atom; a sample point is exposed when no neighbor offset sphere
covers it, and the exposure ratio approximates the exposed area
fraction.  Per sample point we track a clamped overlap count:

  0         exposed; displacing any neighbor may cover it
  1         critically overlapped; only the recorded coverer matters
  2 or more multiply overlapped; no single displacement changes exposure

The force pass perturbs neighbors by a forward difference ``delta_r``
along each axis and converts exposure flips into paired, equal and
opposite force contributions of magnitude ``4 pi gamma_i R_off_i^2 /
(N delta_r)``.  Contributions accumulate in 64-bit fixed point with a
power-of-two quantum, so the pair writes cancel bitwise: total momentum
is exactly zero and results are independent of accumulation order
(and therefore of how the atoms are split into blocks).

Coverage of a sample by a neighbor is tested as a dot product against a
per-neighbor threshold (see ``_coverage``); samples near the threshold
fall back to the distance test, so the states equal that test's.

Both passes take the cavity-cutoff rows as one ``spatial.NeighborTable``
(CSR) and gather the rows of each atom block by slicing its offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spatial import NeighborTable

MIN_SAMPLES = 12
_FIXED_POINT_BITS = 36
# Coverage is screened by a dot product and re-decided by the exact
# distance test within this many Angstroms of the threshold.  Both forms
# round at ~1e-13 A for coordinates below 1e3 A, far inside the margin.
_SCREEN_MARGIN = 1e-6
# Slack on the reach test r_i + r_j: tangent spheres stay in the lists.
_REACH_EPS = 1e-6
_AXES = np.arange(3)
# Atoms per vectorized block; bounds the pair and sample temporaries.
_BLOCK_ATOMS = 256


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
    """Unit-sphere sample set shared by all atoms."""

    points: np.ndarray

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
    """Per (atom, sample) clamped overlap count and critical neighbor."""

    counts: np.ndarray    # uint8, values 0/1/2
    critical: np.ndarray  # int32 neighbor index, -1 unless count == 1


@dataclass(frozen=True)
class SasaResult:
    f_exp: np.ndarray   # exposure ratio per atom, multiples of 1/N
    a_exp: np.ndarray   # exposed area per atom, A^2
    g_cav: float        # nonpolar solvation free energy, kcal/mol


def offset_radii(params, config: SolvationConfig) -> np.ndarray:
    return params.R + config.probe_radius


def check_cav_cutoff(params, config: SolvationConfig, d_cut_cav: float) -> None:
    """Truncation at d_cut_cav is exact only if no two offset spheres that
    intersect are farther apart; violating the bound is a setup error."""
    needed = 2.0 * (float(np.max(params.R)) + config.probe_radius)
    if needed > d_cut_cav:
        raise ConfigurationError(
            f"cavity cutoff {d_cut_cav} A below 2(R_max + probe) = {needed:.2f} A"
        )


def _over_blocks(work, n: int) -> list:
    """``work(lo, hi)`` over the fewest contiguous, near-equal atom blocks
    of at most _BLOCK_ATOMS; results in order."""
    bounds = np.linspace(0, n, -(-n // _BLOCK_ATOMS) + 1).astype(int)
    return [work(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _sample_columns(points: np.ndarray) -> np.ndarray:
    """(4, nq): unit sample directions as columns over a row of ones."""
    return np.vstack([points.T, np.ones(len(points))])


def _pair_rows(positions, neighbors: NeighborTable, r_off: np.ndarray,
               atoms: np.ndarray, slack: float):
    """Neighbor pairs (i, j), i in ``atoms``, whose offset spheres can meet
    once j moves by up to ``slack``, in row order: per-atom starts into
    the pair arrays, the neighbor j, and D = x_j - x_i."""
    lengths, j = neighbors.take(atoms)
    row = np.repeat(np.arange(len(atoms)), lengths)
    i = atoms[row]
    d = positions[j] - positions[i]
    reach = r_off[i] + r_off[j] + slack + _REACH_EPS
    keep = np.einsum("ij,ij->i", d, d) <= reach * reach
    starts = np.searchsorted(row[keep], np.arange(len(atoms) + 1))
    return starts, j[keep], d[keep]


def _screen_rows(d: np.ndarray, r_i: np.ndarray, r_j2: np.ndarray) -> np.ndarray:
    """Rows [D, -(|D|^2 + r_i^2 - r_j^2) / (2 r_i)]: a row times a sample
    column [u, 1] is how far u.D lies past the coverage threshold."""
    rows = np.empty((len(d), 4))
    rows[:, :3] = d
    rows[:, 3] = (np.einsum("ij,ij->i", d, d) + r_i * r_i - r_j2) / (-2.0 * r_i)
    return rows


def _coverage(rows: np.ndarray, columns: np.ndarray, exact) -> np.ndarray:
    """(len(rows), columns.shape[1]) mask: the sample of column k lies in
    the offset sphere of the neighbor of row j.

    Sample ``x_i + r_i u`` lies in neighbor j's sphere iff
    ``u.D >= (|D|^2 + r_i^2 - r_j^2) / (2 r_i)``, ``D = x_j - x_i``: one
    product of the ``_screen_rows`` with the sample ``columns``.  Every
    entry farther than _SCREEN_MARGIN from the threshold is decided by its
    sign; the rest go to ``exact(j, k)``, the caller's distance test
    ``|x_i + r_i u - x_j|^2 <= r_j^2``, so the mask equals that test's
    bit for bit.
    """
    gap = rows @ columns
    cov = gap > _SCREEN_MARGIN
    near = gap >= -_SCREEN_MARGIN
    if np.count_nonzero(near) != np.count_nonzero(cov):
        j, k = np.nonzero(near ^ cov)
        cov[j, k] = exact(j, k)
    return cov


def _covers(origin, r_i: float, u: np.ndarray, centers: np.ndarray,
            r_j2: np.ndarray) -> np.ndarray:
    """The distance test: sample ``origin + r_i u`` within sqrt(r_j2) of
    its center."""
    diff = (origin + r_i * u) - centers
    return (diff * diff).sum(-1) <= r_j2


def sasa_pass(positions, params, neighbors: NeighborTable, sphere: SampleSphere,
              config: SolvationConfig = SolvationConfig()):
    """Exposure counting: returns (SasaResult, ExposureStates).

    ``neighbors`` holds one ascending row per atom (the cavity-cutoff
    ``NeighborTable`` of ``spatial.filtered_lists``); the order makes the
    recorded critical neighbor the lowest overlapping index,
    deterministically.
    """
    positions = np.asarray(positions, float)
    n = len(positions)
    nq = sphere.n
    r_off = offset_radii(params, config)
    r_off2 = r_off * r_off
    counts = np.zeros((n, nq), np.uint8)
    critical = np.full((n, nq), -1, np.int32)
    covered = np.zeros(n, np.int64)
    columns = _sample_columns(sphere.points)

    def work(lo: int, hi: int) -> None:
        starts, nbr, d = _pair_rows(positions, neighbors, r_off,
                                    np.arange(lo, hi), 0.0)
        rows = _screen_rows(d, np.repeat(r_off[lo:hi], np.diff(starts)),
                            r_off2[nbr])
        for i in range(lo, hi):
            a, b = starts[i - lo], starts[i - lo + 1]
            if a == b:
                continue
            nb = nbr[a:b]
            cov = _coverage(rows[a:b], columns, lambda j, k: _covers(
                positions[i], r_off[i], sphere.points[k], positions[nb[j]],
                r_off2[nb[j]]))
            cnt = cov.sum(0, dtype=np.int32)
            np.minimum(cnt, 2, out=cnt)
            counts[i] = cnt
            hit = np.flatnonzero(cnt == 1)
            critical[i, hit] = nb[np.argmax(cov[:, hit], axis=0)]
            covered[i] = np.count_nonzero(cnt)

    _over_blocks(work, n)
    f_exp = (nq - covered) / float(nq)
    a0 = 4.0 * math.pi * r_off2
    a_exp = f_exp * a0
    g_cav = float(np.sum(params.gamma * a_exp))
    return SasaResult(f_exp, a_exp, g_cav), ExposureStates(counts, critical)


def _force_quantum(params, r_off: np.ndarray, nq: int, delta_r: float):
    """Per-atom event magnitudes as integer multiples of a binary quantum."""
    delta = 4.0 * math.pi * params.gamma * r_off * r_off / (nq * delta_r)
    peak = float(np.max(np.abs(delta))) if len(delta) else 0.0
    if peak == 0.0:
        return np.zeros(len(delta), np.int64), 1.0
    quantum = 2.0 ** (math.floor(math.log2(peak)) - _FIXED_POINT_BITS)
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
            "use fewer samples or a shorter cavity cutoff"
        )


def solvation_forces(positions, params, neighbors: NeighborTable, sphere: SampleSphere,
                     states: ExposureStates,
                     config: SolvationConfig = SolvationConfig()) -> np.ndarray:
    """Forward-difference solvation forces from precomputed exposure states.

    Exposed samples test every neighbor that can reach them once displaced
    by +delta_r along each axis; critically overlapped samples test only
    their recorded coverer.  Multiply overlapped samples cannot change
    exposure under a single displacement and are skipped.
    """
    positions = np.asarray(positions, float)
    n = len(positions)
    nq = sphere.n
    r_off = offset_radii(params, config)
    w_int, quantum = _force_quantum(params, r_off, nq, config.delta_r)
    check_accumulator(nq, int(np.diff(neighbors.offsets).max(initial=0)),
                      int(np.max(np.abs(w_int), initial=0)))
    r_off2 = r_off * r_off
    dr = config.delta_r
    columns = _sample_columns(sphere.points)

    def work(lo: int, hi: int) -> np.ndarray:
        acc = np.zeros((n, 3), np.int64)
        counts = states.counts[lo:hi]
        weighted = w_int[lo:hi, None] != 0
        # exposed samples: every neighbor that reaches them, displaced;
        # pair p displaced along axis s is row 3p + s
        atoms = lo + np.flatnonzero((weighted & (counts == 0)).any(1))
        starts, nbr, d = _pair_rows(positions, neighbors, r_off, atoms, dr)
        d3 = np.repeat(d[:, None], 3, axis=1)
        d3[:, _AXES, _AXES] += dr
        rows = _screen_rows(d3.reshape(-1, 3),
                            np.repeat(r_off[atoms], 3 * np.diff(starts)),
                            np.repeat(r_off2[nbr], 3))
        for t, i in enumerate(atoms):
            a, b = starts[t], starts[t + 1]
            if a == b:
                continue
            w = w_int[i]
            k0 = np.flatnonzero(states.counts[i] == 0)
            nb = nbr[a:b]

            def exact(row, k):
                jx, axis = nb[row // 3], row % 3
                shifted = positions[jx]  # fancy index: already a copy
                shifted[np.arange(len(jx)), axis] += dr
                return _covers(positions[i], r_off[i], sphere.points[k0[k]],
                               shifted, r_off2[jx])

            cov = _coverage(rows[3 * a:3 * b], columns[:, k0], exact)
            gained = cov.sum(1).reshape(-1, 3)
            acc[i] -= gained.sum(0) * w
            acc[nb] += gained * w  # rows of nb are distinct
        # critically overlapped samples of the whole block: the recorded
        # coverer alone, displaced
        i, k = np.nonzero(weighted & (counts == 1))
        i += lo
        jo = states.critical[i, k]
        shifted = np.repeat(positions[jo][:, None], 3, axis=1)
        shifted[:, _AXES, _AXES] += dr
        freed = ~_covers(positions[i, None], r_off[i, None, None],
                         sphere.points[k, None], shifted, r_off2[jo, None])
        e, axis = np.nonzero(freed)
        np.add.at(acc, (i[e], axis), w_int[i[e]])
        np.subtract.at(acc, (jo[e], axis), w_int[i[e]])
        return acc

    acc = sum(_over_blocks(work, n), np.zeros((n, 3), np.int64))
    return acc.astype(float) * quantum
