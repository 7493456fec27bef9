"""Uniform-grid spatial hash and cut-off neighbor rows.

Atom centers are bucketed on a cubic grid whose cell edge is chosen so
the bucket count tracks the atom count (~ALPHA * n cells).  A neighbor
query gathers every bucket whose center lies within
``d_cut + sqrt(3) * cell`` of the query cell center; the extra cell
diagonal covers the worst-case offset between atom and cell centers, so
the gathered set is a strict superset of the true cut-off neighborhood.

Every per-atom neighbor row lives in one CSR type, ``NeighborTable``:
one ``offsets`` array and one flat ``neighbors`` array.  The hashed
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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

SQRT3 = float(np.sqrt(3.0))
# Floor on the cell edge (A): a near-flat or tiny bounding box would
# otherwise give a vanishing cell and an unbounded stencil.
MIN_CELL = 1.0
ALPHA = 1.0  # grid cells per atom: any density gives a superset, so only speed


@dataclass(frozen=True)
class Cutoffs:
    elec: float = 9.0
    vdw: float = 5.0

    def __post_init__(self):
        if not all(math.isfinite(c) and c > 0 for c in (self.elec, self.vdw)):
            raise ConfigurationError("cutoff distances must be positive and finite")


@dataclass
class HashGrid:
    cell_size: float
    r_min: np.ndarray
    dims: np.ndarray                  # cells per axis
    cell_index: np.ndarray            # (n, 3) integer cell of each atom
    _occupied: np.ndarray = field(repr=False)      # sorted linear ids
    _starts: np.ndarray = field(repr=False)        # CSR starts into _atom_order
    _atom_order: np.ndarray = field(repr=False)    # atoms sorted by cell id

    @property
    def n_atoms(self) -> int:
        return len(self._atom_order)


def build_grid(positions: np.ndarray) -> HashGrid:
    """Buckets for ``positions``, about ``ALPHA`` cells per atom."""
    positions = np.asarray(positions, float)
    if positions.ndim != 2 or positions.shape[1] != 3 or len(positions) < 1:
        raise ConfigurationError("positions must be a non-empty (n, 3) array")
    if not np.isfinite(positions).all():
        raise ConfigurationError("non-finite coordinates cannot be hashed")
    n = len(positions)
    r_min = positions.min(axis=0)
    r_max = positions.max(axis=0)
    extent = r_max - r_min
    v_bb = float(np.prod(extent))
    cell = (v_bb / (ALPHA * n)) ** (1.0 / 3.0) if v_bb > 0 else 0.0
    cell = max(cell, MIN_CELL)
    dims = np.maximum(np.ceil(extent / cell).astype(np.int64), 1)
    cells = np.floor((positions - r_min) / cell).astype(np.int64)
    np.clip(cells, 0, dims - 1, out=cells)  # atoms exactly on the max face
    lin = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    order = np.argsort(lin, kind="stable")
    sorted_lin = lin[order]
    occupied, starts = np.unique(sorted_lin, return_index=True)
    starts = np.append(starts, n)
    return HashGrid(
        cell_size=float(cell),
        r_min=r_min,
        dims=dims,
        cell_index=cells,
        _occupied=occupied,
        _starts=starts,
        _atom_order=order,
    )


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

    def take(self, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``atoms``, in that order: their lengths and their
        entries concatenated."""
        begin = self.offsets[atoms]
        lengths = self.offsets[atoms + 1] - begin
        at = np.repeat(begin, lengths) + _segment_arange(lengths)
        return lengths, self.neighbors[at]


def _stencil(cell: float, d_cut: float) -> np.ndarray:
    """Integer cell offsets whose centers lie within d_cut + sqrt(3)*cell."""
    r_c = d_cut + SQRT3 * cell
    reach = int(np.floor(r_c / cell))
    rng = np.arange(-reach, reach + 1)
    ox, oy, oz = np.meshgrid(rng, rng, rng, indexing="ij")
    offs = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)
    keep = (offs.astype(float) ** 2).sum(axis=1) * cell * cell <= r_c * r_c
    return offs[keep]


def _segment_arange(lengths: np.ndarray) -> np.ndarray:
    """[0..l0-1, 0..l1-1, ...] for consecutive segment lengths."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)


def build_neighbor_table(grid: HashGrid, d_cut: float) -> NeighborTable:
    """Half table of superset candidate pairs for one cut-off; expected
    O(n) overall."""
    if d_cut <= 0:
        raise ConfigurationError("cutoff must be positive")
    n = grid.n_atoms
    offs = _stencil(grid.cell_size, d_cut)
    # offsets larger than the grid box can never land inside it
    offs = offs[(np.abs(offs) < grid.dims).all(axis=1)]
    occ = grid._occupied
    n_occ = len(occ)
    d1, d2_, = int(grid.dims[1]), int(grid.dims[2])
    oz = occ % d2_
    oy = (occ // d2_) % d1
    ox = occ // (d1 * d2_)

    # in-box candidates, checked per axis; linear arithmetic is then exact
    inside = (
        ((ox[:, None] + offs[None, :, 0]) >= 0)
        & ((ox[:, None] + offs[None, :, 0]) < grid.dims[0])
        & ((oy[:, None] + offs[None, :, 1]) >= 0)
        & ((oy[:, None] + offs[None, :, 1]) < d1)
        & ((oz[:, None] + offs[None, :, 2]) >= 0)
        & ((oz[:, None] + offs[None, :, 2]) < d2_)
    )
    src_cell, off_idx = np.nonzero(inside)  # row-major: sorted by src_cell
    off_lin = (offs[:, 0] * d1 + offs[:, 1]) * d2_ + offs[:, 2]
    cand_lin = occ[src_cell] + off_lin[off_idx]
    hit_pos = np.searchsorted(occ, cand_lin)
    hit_pos = np.minimum(hit_pos, n_occ - 1)
    found = occ[hit_pos] == cand_lin
    src_cell = src_cell[found]
    dst_cell = hit_pos[found]

    starts = grid._starts
    counts = starts[1:] - starts[:-1]
    atom_order = grid._atom_order

    # flat gather: members of every found destination cell, grouped by
    # source cell, then sorted within each source segment by one sort of
    # the key (segment, atom)
    dst_len = counts[dst_cell]
    flat_gather = atom_order[np.repeat(starts[dst_cell], dst_len) + _segment_arange(dst_len)]
    gather_per_src = np.bincount(src_cell, weights=dst_len, minlength=n_occ).astype(np.int64)
    seg_key = np.repeat(np.arange(n_occ) * n, gather_per_src)
    keys = np.sort(seg_key + flat_gather)
    flat_gather = keys - seg_key
    seg_end = np.cumsum(gather_per_src)

    # atom i's row is the part of its cell's segment above i: a suffix,
    # found by one search for the key (cell of i, i)
    cell_of = np.empty(n, np.int64)
    cell_of[atom_order] = np.repeat(np.arange(n_occ), counts)
    row_begin = np.searchsorted(keys, cell_of * n + np.arange(n), side="right")
    lengths = seg_end[cell_of] - row_begin
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    neighbors = flat_gather[np.repeat(row_begin - offsets[:-1], lengths)
                            + np.arange(offsets[-1], dtype=np.int64)]
    return NeighborTable(offsets=offsets, neighbors=neighbors)


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
