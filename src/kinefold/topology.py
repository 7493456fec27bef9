"""Covalent-bond tree and constant-time interaction classification.

Pairs of atoms are weighted by how many bonds separate them along the
chain: directly bonded pairs (1-2) are excluded from the nonbonded
force field, 1-3 and 1-4 pairs are scaled, everything farther apart
interacts fully.  Rather than a quadratic lookup table, a spanning tree
of the bond graph rooted at the amino-terminal nitrogen answers each
query from parent/grandparent/great-grandparent pointers in O(1).

Ring closures (aromatic side chains) drop one edge per independent
cycle; path lengths across a dropped edge are then measured along the
tree, which deliberately over-counts -- queries stay O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

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
    grandparent: np.ndarray = field(init=False)
    greatgrand: np.ndarray = field(init=False)

    def __post_init__(self):
        p = self.parent
        safe = np.where(p >= 0, p, 0)
        gp = np.where(p >= 0, p[safe], -1)
        self.grandparent = np.where(gp >= 0, gp, -1)
        safe2 = np.where(self.grandparent >= 0, self.grandparent, 0)
        gg = np.where(self.grandparent >= 0, p[safe2], -1)
        self.greatgrand = np.where(gg >= 0, gg, -1)


def build_tree(chain) -> BondTree:
    """Spanning tree of ``chain.bonds``, dropping one edge per ring.

    When a bond would close a cycle, the edge encountered later in the
    chain's bond order is the one dropped, deterministically.
    """
    n = chain.n_atoms
    chain_atoms = ~chain.hetero_mask
    # union-find to detect ring-closing edges in bond order
    uf = np.arange(n)

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in chain.bonds:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        uf[ri] = rj
        adjacency[i].append(j)
        adjacency[j].append(i)

    parent = np.full(n, -1, dtype=np.int64)
    order = [0]  # root: amino-terminal N is atom 0 by construction
    seen = np.zeros(n, bool)
    seen[0] = True
    while order:
        u = order.pop()
        for v in sorted(adjacency[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    if not np.all(seen[chain_atoms]):
        missing = int(np.flatnonzero(chain_atoms & ~seen)[0])
        raise DisconnectedBondGraphError(
            f"bond graph does not reach atom {missing} ({chain.atom_names[missing]})"
        )
    return BondTree(
        parent=parent,
        residue_of=chain.atom_residue.copy(),
        chain_mask=chain_atoms,
    )


def classify_pairs(tree: BondTree, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized classification; returns InteractionClass values."""
    i = np.asarray(i, np.int64)
    j = np.asarray(j, np.int64)
    out = np.full(i.shape, int(InteractionClass.FULL), np.int64)
    near = (
        tree.chain_mask[i]
        & tree.chain_mask[j]
        & (np.abs(tree.residue_of[i] - tree.residue_of[j]) <= 1)
    )
    if not near.any():
        return out
    ii, jj = i[near], j[near]
    p, gp, gg = tree.parent, tree.grandparent, tree.greatgrand
    is14 = (
        _eq(gg[ii], jj) | _eq(gg[jj], ii)
        | _eq(gp[ii], p[jj]) | _eq(gp[jj], p[ii])
    )
    is13 = _eq(gp[ii], jj) | _eq(gp[jj], ii) | _eq(p[ii], p[jj])
    is12 = _eq(p[ii], jj) | _eq(p[jj], ii)
    cls = np.full(ii.shape, int(InteractionClass.FULL), np.int64)
    cls[is14] = int(InteractionClass.PAIR14)
    cls[is13] = int(InteractionClass.PAIR13)
    cls[is12] = int(InteractionClass.BONDED12)
    out[near] = cls
    return out


def _eq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a == b) & (a >= 0)


@dataclass(frozen=True)
class TreeWeights:
    """Pair-weight provider backed by a bond tree and a weight table."""

    tree: BondTree
    table: WeightTable = WeightTable()

    def weights_for(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(m, 2) elec/vdW weights of the pairs, from one classification."""
        return self.table.by_class()[classify_pairs(self.tree, i, j)]
