"""Fixed-edge cell list and cut-off neighbor rows.

Atom centers are binned into cubic cells of edge just over half the
cut-off, so two atoms within it are at most two cells apart on every
axis, and a cell's neighbors lie in its 5x5x5 block (all of it: even
the corner cells come within ``edge * sqrt(3) ~ 0.87 * d_cut``).  An
atom's candidates are the other atoms of its cell's block (Allen &
Tildesley, *Computer Simulation of Liquids*, 2nd ed., 2017, ch. 5), a
superset of its cut-off pairs.

Both stages are native (``pairs.c``, loaded by ``native``):
``build_grid`` is one call of ``grid_cells``, which bins and stably sorts
the atoms by cell; ``build_neighbor_table`` is one call of
``neighbor_table``, which sweeps the occupied cells once: the atoms of a
cell's block form one union, marked in a bitmap and read back ascending
through a summary bitmap of its touched words (no sort), and each atom of
the cell gets the union's suffix above it as its row.  That call fills the table into
the workspace's buffers when they hold it; a second call fills it only
after they have had to grow.  Their numpy references live in
``tests/oracles.py``.

The candidate-sized arrays of an evaluation (the table's ``neighbors``,
the native pass's stored unions and the cavity rows here, the kept pairs
and both pair terms' outputs in ``forcefield``) are views of a
``Workspace``: named numpy buffers that only grow.  ``kcm.Field`` owns
one, so from its second evaluation on the pair stages allocate nothing
candidate-sized.  Without one, each of those stages draws from a
workspace of its own that is dropped with its outputs.  On ``extended400-vacuum`` (3901 atoms,
133,399 candidates, 90,650 kept) the ~10 MB of pair arrays used to be
allocated and freed on every evaluation, and glibc gave the heap top back
each time: 2,086 minor page faults per evaluation, none with the Field's
workspace, and about two thirds of the time per evaluation (see the
README's implementation notes).

Every per-atom neighbor row lives in one CSR type, ``NeighborTable``:
one ``offsets`` array and one flat ``neighbors`` array.  The cell-list
table is a half table: each candidate pair is stored once, as j > i in
row i, and rows ascend, so the pairs come out sorted by (i, j).  Exact
distance filtering happens at use time, once per evaluation at the
table cut-off (``forcefield.extract_pairs``), which keeps downstream
force sums identical to their brute-force definitions.
``filtered_lists`` turns such pairs into the cavity rows the SASA passes
read, without another distance pass: one native call (``cavity_rows`` in
``sasa.c``) keeps the pairs within ``reach`` of their offset spheres and
writes them as symmetric rows, a count pass sizing each row and a fill
pass in pair order writing it, with no sort, into room for twice the
pairs.  The all-pairs scans these are checked against live with the
other references in ``tests/oracles.py``, the numpy reach mask and
stable sort the cavity rows replaced among them.  No stage converts an
array; one in another dtype or layout is refused (``native``).
"""

from __future__ import annotations

import ctypes
import math
import mmap
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import native
from .errors import ConfigurationError

# Cell edge over the cut-off: half, plus a slack far above the rounding
# of the binning (see ``build_grid``).
EDGE_PER_CUTOFF = 0.5 * (1.0 + 1e-9)
# Widest coordinate span, in cut-offs per axis, that can be binned.
MAX_SPAN = 1e5
# Slack on the reach r_i + r_j + delta_r: tangent spheres stay in the rows.
_REACH_EPS = 1e-6


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
    or negative id, never another occupied cell's.  Occupied cell a holds
    the atoms ``order[starts[a]:starts[a + 1]]``.  The column lengths are
    checked here, so the native table pass reads inside every column; it
    checks that the cells partition the atoms."""

    dims: np.ndarray       # cells per axis of the id box, (3,)
    order: np.ndarray      # atoms sorted by linear cell id, (n,)
    occupied: np.ndarray   # sorted linear ids of the occupied cells, (k,)
    starts: np.ndarray     # CSR offsets of the cells in ``order``, (k + 1,), ending at n

    def __post_init__(self):
        k = len(self.occupied)
        for name, shape in (("dims", (3,)), ("order", (len(self.order),)),
                            ("occupied", (k,)), ("starts", (k + 1,))):
            if np.shape(getattr(self, name)) != shape:
                raise ConfigurationError(
                    f"grid column {name} has shape {np.shape(getattr(self, name))}, "
                    f"not {shape}")


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
    shape = np.shape(positions)
    if len(shape) != 2 or shape[1] != 3 or shape[0] < 1:
        raise ConfigurationError("positions must be a non-empty (n, 3) array")
    n = shape[0]
    dims = np.empty(3, np.int64)
    order = np.empty(n, np.int64)
    cells = np.empty((2, n + 1), np.int64)
    k = native.load().call("grid_cells", n, positions, EDGE_PER_CUTOFF * d_cut,
                           MAX_SPAN * d_cut, dims, order, cells)
    if k == native.REFUSED:
        raise ConfigurationError("non-finite coordinates cannot be hashed")
    if k == native.WIDE:
        raise ConfigurationError(
            f"coordinates span more than {MAX_SPAN:g} cutoffs of {d_cut} A on an axis")
    return HashGrid(dims=dims, order=order, occupied=cells[0, :k], starts=cells[1, :k + 1])


class Workspace:
    """Named scratch buffers that only grow.

    ``take(name, shape, dtype)`` returns a C-contiguous view of the first
    items of the buffer ``name``, uninitialised: the same memory again for
    the same or a smaller size, so a caller that asks for the sizes of
    its last call allocates nothing.  A buffer that is too small is
    dropped before the larger one is made, and every buffer is made with
    an eighth of headroom, so slowly growing sizes reallocate rarely and
    the peak holds one copy; pages of the headroom that are never written
    cost no memory.  ``buffers`` maps each name to its whole buffer, and
    ``whole`` returns it.  A view is valid until the next ``take`` of
    its name.

    Each buffer is an anonymous memory map of its own, outside the malloc
    heap, and is unmapped when its last view goes.  So where the buffers
    land does not depend on glibc's dynamic mmap threshold, and they
    neither pin the heap nor leave a hole in it when they go."""

    HEADROOM = 8   # a buffer holds size + size // HEADROOM items

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            self.buffers.pop(name, None)
            del buf  # freed before the larger one is made
            count = size + size // self.HEADROOM
            pages = mmap.mmap(-1, max(count * dtype.itemsize, 1))
            buf = self.buffers[name] = np.frombuffer(pages, dtype, count)
        return buf[:size].reshape(shape)

    def whole(self, name: str, dtype=np.float64) -> np.ndarray:
        """The whole buffer ``name``, or an empty array when there is none
        of ``dtype``: for a caller that learns the size it needs only
        while it fills."""
        buf = self.buffers.get(name)
        return buf if buf is not None and buf.dtype == dtype else np.empty(0, dtype)


@dataclass
class NeighborTable:
    """Per-atom neighbor rows in CSR form, a sequence of rows: row i,
    ``table[i]``, is ``neighbors[offsets[i]:offsets[i + 1]]``, ascending.

    ``build_neighbor_table`` fills it as a half table (row i holds the
    candidates j > i, so its rows list every unordered pair once, sorted
    by (i, j)); ``filtered_lists`` fills it with symmetric rows.  Both
    arrays are held C-contiguous int64, as the kernels read them.
    """

    offsets: np.ndarray    # CSR offsets, length n+1
    neighbors: np.ndarray  # concatenated rows

    def __post_init__(self):
        self.offsets = np.ascontiguousarray(self.offsets, np.int64)
        self.neighbors = np.ascontiguousarray(self.neighbors, np.int64)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[i]
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def __iter__(self):
        # one pass over the offsets as Python ints, not a range check and
        # two numpy scalar reads per row and an IndexError at the end
        nbrs = self.neighbors
        return (nbrs[a:b] for a, b in pairwise(self.offsets.tolist()))


def build_neighbor_table(grid: HashGrid, work: Workspace | None = None) -> NeighborTable:
    """Half table of superset candidate pairs at the grid's cut-off, each
    row ascending; expected O(n) overall.  ``neighbors`` and the native
    pass's stored unions are filled into the whole buffers of ``work`` (a
    new workspace when None); only when those are short is the table
    filled by a second call, after they grow to the sizes the first one
    reported."""
    work = Workspace() if work is None else work
    n = len(grid.order)
    offsets = np.empty(n + 1, np.int64)
    union_size = ctypes.c_int64()

    def fill(neighbors, unions):
        return native.load().call(
            "neighbor_table", n, grid.dims, grid.order, grid.occupied, grid.starts,
            len(grid.occupied), offsets, neighbors, len(neighbors), unions, len(unions),
            ctypes.byref(union_size))

    neighbors, unions = work.whole("neighbors", np.int64), work.whole("unions", np.int64)
    total = fill(neighbors, unions)
    if total == native.REFUSED:
        raise ConfigurationError(f"the grid does not partition its {n} atoms")
    if total > len(neighbors) or union_size.value > len(unions):
        neighbors = work.take("neighbors", (total,), np.int64)
        fill(neighbors, work.take("unions", (union_size.value,), np.int64))
    return NeighborTable(offsets=offsets, neighbors=neighbors[:total])


def reach(r_a, r_b, delta_r: float):
    """The center distance within which offset spheres of radii ``r_a``
    and ``r_b`` can meet once one of them moves by up to ``delta_r``:
    the pairs the SASA and force passes need, no more."""
    return r_a + r_b + delta_r + _REACH_EPS


def filtered_lists(i: np.ndarray, j: np.ndarray, d2: np.ndarray, r_off: np.ndarray,
                   delta_r: float, work: Workspace | None = None) -> NeighborTable:
    """The cavity rows: symmetric per-atom rows of the pairs (i < j, sorted
    by (i, j), squared distances ``d2``) whose offset spheres, of radii
    ``r_off`` (one per atom), are within ``reach``: ``d2 <= rc * rc``,
    rounded as ``reach`` rounds ``rc``.

    One native call (``cavity_rows``) applies that test, counts each row
    and fills it in pair order: row a holds the partners i < a of the
    pairs (i, a), ascending, then the partners j > a of the pairs (a, j),
    ascending.  Each kept pair is one entry in each of two rows, so
    ``2 * m`` entries of ``work``'s buffer ``cavity`` (a new workspace
    when None) always hold them.  Every array must be C-contiguous of the
    dtype the pairs come in from ``forcefield.extract_pairs`` (int64
    indices, float64 ``d2`` and radii); anything else is refused, not
    converted."""
    work = Workspace() if work is None else work
    n, m = len(r_off), len(i)
    if len(j) != m or len(d2) != m:
        raise ConfigurationError(
            f"pair arrays of lengths {m}, {len(j)} and {len(d2)} do not match")
    offsets = np.empty(n + 1, np.int64)
    neighbors = work.take("cavity", (2 * m,), np.int64)
    total = native.load().call("cavity_rows", n, m, i, j, d2, r_off, delta_r, _REACH_EPS,
                               offsets, neighbors)
    if total == native.REFUSED:
        raise ConfigurationError(f"pairs name atoms outside the {n} atoms")
    return NeighborTable(offsets=offsets, neighbors=neighbors[:total])
