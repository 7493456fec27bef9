"""Covalent-bond tree and constant-time interaction classification.

Pairs of atoms are weighted by how many bonds separate them along the
chain: directly bonded pairs (1-2) are excluded from the nonbonded
force field, 1-3 and 1-4 pairs are scaled, everything farther apart
interacts fully.  Rather than a quadratic lookup table, a spanning tree
of the bond graph rooted at the amino-terminal nitrogen answers each
query in O(1) from its parent pointers: the classifier follows them up
to the great-grandparent.

Ring closures (aromatic side chains) drop one edge per independent
cycle; path lengths across a dropped edge are then measured along the
tree, which deliberately over-counts -- queries stay O(1).

``TreeWeights.weights_for`` is native (``pair_weights`` in ``pairs.c``,
loaded by ``native``): one C call classifies every pair and looks up its
elec and vdW weights.  The numpy classification it is checked against,
``classify_pairs``, lives with the other references in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import native
from .errors import ConfigurationError, DisconnectedBondGraphError


class InteractionClass(IntEnum):
    """Separation classes; values are tree path lengths (4 = four or more)."""

    BONDED12 = 1
    PAIR13 = 2
    PAIR14 = 3
    FULL = 4


@dataclass(frozen=True)
class WeightTable:
    """Scaling factors per interaction class; 1-2 pinned to 0, full to 1."""

    w13_elec: float = 0.0
    w13_vdw: float = 0.0
    w14_elec: float = 1.0 / 1.2
    w14_vdw: float = 0.5

    def __post_init__(self):
        for name in ("w13_elec", "w13_vdw", "w14_elec", "w14_vdw"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {v}")

    def by_class(self) -> np.ndarray:
        """(5, 2) elec/vdW weights indexed by InteractionClass value (row 0
        unused)."""
        return np.array([
            [np.nan, np.nan],
            [0.0, 0.0],
            [self.w13_elec, self.w13_vdw],
            [self.w14_elec, self.w14_vdw],
            [1.0, 1.0],
        ])


@dataclass
class BondTree:
    """Spanning tree over chain atoms rooted at the N-terminus nitrogen."""

    parent: np.ndarray           # -1 at the root and for hetero atoms
    residue_of: np.ndarray
    chain_mask: np.ndarray       # False for hetero atoms (outside the tree)


def build_tree(chain) -> BondTree:
    """Spanning tree of ``chain.bonds``, dropping one edge per ring.

    A union-find over the bonds in the chain's order keeps each bond that
    joins two components; when a bond would close a cycle, it is the one
    dropped, so of a ring's edges the one met last in the bond order goes,
    deterministically.  A depth-first walk from atom 0 over the kept edges,
    each atom's neighbors in ascending order, then sets the parents.  Both
    run over plain Python lists: per-element numpy indexing costs more
    than the work.
    """
    n = chain.n_atoms
    uf = list(range(n))
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in chain.bonds:
        ri, rj = i, j
        while uf[ri] != ri:  # find with path halving
            uf[ri] = ri = uf[uf[ri]]
        while uf[rj] != rj:
            uf[rj] = rj = uf[uf[rj]]
        if ri == rj:
            continue
        uf[ri] = rj
        adjacency[i].append(j)
        adjacency[j].append(i)

    parent = [-1] * n
    seen = [False] * n
    order = [0]  # root: amino-terminal N is atom 0 by construction
    seen[0] = True
    while order:
        u = order.pop()
        for v in sorted(adjacency[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    chain_atoms, reached = ~chain.hetero_mask, np.array(seen, bool)
    if not np.all(reached[chain_atoms]):
        missing = int(np.flatnonzero(chain_atoms & ~reached)[0])
        raise DisconnectedBondGraphError(
            f"bond graph does not reach atom {missing} ({chain.atom_names[missing]})"
        )
    return BondTree(
        parent=np.array(parent, np.int64),
        residue_of=chain.atom_residue.copy(),
        chain_mask=chain_atoms,
    )


@dataclass(frozen=True)
class TreeWeights:
    """Pair-weight provider backed by a bond tree and a weight table.

    The tree's arrays and the table are converted once, when the provider
    is built, into the arrays the native classifier reads.  The classifier
    follows the parent pointers: its read-only copy of them is checked once
    to hold -1 or one of the atoms, and no later write reaches it."""

    tree: BondTree
    table: WeightTable = WeightTable()
    _arrays: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tree = self.tree
        n = len(tree.parent)
        parent = np.array(tree.parent, np.int64)
        parent.flags.writeable = False
        arrays = [parent, np.ascontiguousarray(tree.residue_of, np.int64),
                  np.ascontiguousarray(tree.chain_mask, np.uint8)]
        if any(a.shape != (n,) for a in arrays):
            raise ConfigurationError("bond tree arrays must share one length")
        if n and not -1 <= arrays[0].min() <= arrays[0].max() < n:
            raise ConfigurationError(f"bond tree parents must be -1 or one of the {n} atoms")
        arrays.append(np.ascontiguousarray(self.table.by_class()))
        object.__setattr__(self, "_arrays", arrays)

    def weights_for(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(m, 2) elec/vdW weights of the pairs, from one classification."""
        if np.ndim(i) != 1 or np.shape(j) != np.shape(i):
            raise ConfigurationError("pair index arrays must be 1-d and one length")
        n = len(self._arrays[0])
        w = np.empty((len(i), 2))
        if native.load().call("pair_weights", len(i), i, j, n, *self._arrays,
                              w) == native.REFUSED:
            raise ConfigurationError(f"pairs name atoms outside the {n} of the bond tree")
        return w
