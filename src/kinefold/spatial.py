"""Fixed-edge cell list and cut-off neighbor rows.

Atom centers are binned into cubic cells of edge just over half the
cut-off, so two atoms within it are at most two cells apart on every
axis, and a cell's neighbors lie in its 5x5x5 block (all of it: even
the corner cells come within ``edge * sqrt(3) ~ 0.87 * d_cut``).  Each
pair of cells is visited once: a cell with itself, and with the occupied
cells at its 62 forward offsets, those lexicographically above
(0, 0, 0) (Allen & Tildesley, *Computer Simulation of Liquids*, 2nd ed.,
2017, ch. 5).  The candidates are a superset of the cut-off pairs.

Every per-atom neighbor row lives in one CSR type, ``NeighborTable``:
one ``offsets`` array and one flat ``neighbors`` array.  The cell-list
table is a half table: each candidate pair is stored once, as j > i in
row i, and rows ascend, so the pairs come out sorted by (i, j).  Exact
distance filtering happens at use time, once per evaluation at the
table cut-off (``forcefield.extract_pairs``), which keeps downstream
force sums identical to their brute-force definitions;
``filtered_lists`` turns such pairs into a table of symmetric rows
without another distance pass.  The all-pairs scans these are checked
against live with the other references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Cell edge over the cut-off: half, plus a slack far above the rounding
# of the binning (see ``build_grid``).
EDGE_PER_CUTOFF = 0.5 * (1.0 + 1e-9)
# Widest coordinate span, in cut-offs per axis, that can be binned.
MAX_SPAN = 1e5
# the 62 offsets in [-2, 2]^3 lexicographically above (0, 0, 0)
FORWARD = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), -1).reshape(-1, 3)[63:]


@dataclass(frozen=True)
class Cutoffs:
    elec: float = 9.0
    vdw: float = 5.0

    def __post_init__(self):
        if not all(math.isfinite(c) and c > 0 for c in (self.elec, self.vdw)):
            raise ConfigurationError("cutoff distances must be positive and finite")


@dataclass
class HashGrid:
    """Atoms binned by ``build_grid`` into cells of edge ``EDGE_PER_CUTOFF *
    d_cut``; cell (x, y, z) has the id ``(x * dims[1] + y) * dims[2] + z``.  ``dims``
    runs two empty cells past the last occupied one on every axis, so a
    cell moved by an offset in [-2, 2]^3 that leaves the box gets an empty
    or negative id, never another occupied cell's."""

    dims: np.ndarray       # cells per axis of the id box
    order: np.ndarray      # atoms sorted by linear cell id
    occupied: np.ndarray   # sorted linear ids of the occupied cells
    starts: np.ndarray     # where each occupied cell begins in ``order``
    counts: np.ndarray     # atoms per occupied cell


def build_grid(positions: np.ndarray, d_cut: float) -> HashGrid:
    """Bin ``positions`` for neighbor queries at cut-off ``d_cut``.

    Rounding moves ``(x - min) / edge`` by at most ``2**-52 * span / edge``
    cells, under 5e-11 within ``MAX_SPAN``.  Atoms at most ``d_cut`` apart
    are at most ``2 / (1 + 1e-9)`` cells apart before rounding, so the
    slack is over 10x the rounding: a pair at exactly ``d_cut`` cannot
    fall three cells apart.  The bound also keeps linear ids, about
    ``(2 * MAX_SPAN)**3``, far inside int64."""
    if not (math.isfinite(d_cut) and d_cut > 0):
        raise ConfigurationError(f"cutoff must be positive and finite, got {d_cut}")
    positions = np.asarray(positions, float)
    if positions.ndim != 2 or positions.shape[1] != 3 or len(positions) < 1:
        raise ConfigurationError("positions must be a non-empty (n, 3) array")
    if not np.isfinite(positions).all():
        raise ConfigurationError("non-finite coordinates cannot be hashed")
    r_min = positions.min(axis=0)
    if np.any(positions.max(axis=0) - r_min > MAX_SPAN * d_cut):
        raise ConfigurationError(
            f"coordinates span more than {MAX_SPAN:g} cutoffs of {d_cut} A on an axis")
    cells = np.floor((positions - r_min) / (EDGE_PER_CUTOFF * d_cut)).astype(np.int64)
    dims = cells.max(axis=0) + 3
    lin = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    order = np.argsort(lin, kind="stable")
    occupied, starts, counts = np.unique(lin[order], return_index=True, return_counts=True)
    return HashGrid(dims=dims, order=order, occupied=occupied, starts=starts,
                    counts=counts)


@dataclass
class NeighborTable:
    """Per-atom neighbor rows in CSR form, a sequence of rows: row i,
    ``table[i]``, is ``neighbors[offsets[i]:offsets[i + 1]]``, ascending.

    ``build_neighbor_table`` fills it as a half table (row i holds the
    candidates j > i, so ``pairs()`` lists every unordered pair once,
    sorted by (i, j)); ``filtered_lists`` fills it with symmetric rows.
    """

    offsets: np.ndarray    # CSR offsets, length n+1
    neighbors: np.ndarray  # concatenated rows

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[i]
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, entry) for every entry, sorted by row: for a half table,
        the unordered candidate pairs (i < j), each once, sorted by (i, j)."""
        i = np.repeat(np.arange(len(self)), np.diff(self.offsets))
        return i, self.neighbors


def _segment_arange(lengths: np.ndarray) -> np.ndarray:
    """[0..l0-1, 0..l1-1, ...] for consecutive segment lengths."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)


def build_neighbor_table(grid: HashGrid) -> NeighborTable:
    """Half table of superset candidate pairs at the grid's cut-off;
    expected O(n) overall."""
    order, occ, starts, counts = grid.order, grid.occupied, grid.starts, grid.counts
    n = len(order)
    # pairs inside one cell: each sorted position with the rest of its cell
    rest = np.repeat(starts + counts, counts) - np.arange(1, n + 1)
    i_in = np.repeat(order, rest)
    j_in = order[np.repeat(np.arange(1, n + 1), rest) + _segment_arange(rest)]

    # pairs between a cell and its occupied forward neighbors
    d1, d2 = int(grid.dims[1]), int(grid.dims[2])
    off = (FORWARD[:, 0] * d1 + FORWARD[:, 1]) * d2 + FORWARD[:, 2]
    target = (occ[:, None] + off).ravel()
    hit = np.minimum(np.searchsorted(occ, target), len(occ) - 1)
    found = occ[hit] == target
    a_cell = np.repeat(np.arange(len(occ)), len(off))[found]
    b_cell = hit[found]
    la = counts[a_cell]
    b_rows = np.repeat(b_cell, la)
    lb = counts[b_rows]
    i_x = np.repeat(order[np.repeat(starts[a_cell], la) + _segment_arange(la)], lb)
    j_x = order[np.repeat(starts[b_rows], lb) + _segment_arange(lb)]

    i = np.concatenate([i_in, i_x])
    j = np.concatenate([j_in, j_x])
    i, j = np.divmod(np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(i, minlength=n), out=offsets[1:])
    return NeighborTable(offsets=offsets, neighbors=j)


def filtered_lists(n: int, i: np.ndarray, j: np.ndarray) -> NeighborTable:
    """Symmetric per-atom rows of the pairs (i < j, sorted by (i, j)).

    A stable sort of the rows ``[j, i]`` symmetrises the pairs: row a
    first gets the partners i < a of the pairs (i, a), in ascending i,
    then the partners j > a of the pairs (a, j), in ascending j, so every
    row comes out ascending."""
    rows = np.concatenate([j, i])
    order = np.argsort(rows, kind="stable")
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return NeighborTable(offsets=offsets, neighbors=np.concatenate([i, j])[order])
