import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinefold.chain import build_chain
from kinefold.errors import ConfigurationError, DisconnectedBondGraphError
from kinefold.topology import (
    BondTree,
    InteractionClass,
    TreeWeights,
    WeightTable,
    build_tree,
)

from .conftest import (
    assert_identical,
    atom_index,
    cached_chain,
    classify,
    native_classes,
    random_sequences,
)
from .oracles import bfs_tree_distance, reference_tree


class FakeChain:
    """Minimal stand-in so tree construction can be probed directly."""

    def __init__(self, n, bonds, residue_of=None, hetero=None, names=None):
        self.n_atoms = n
        self.bonds = bonds
        self.atom_residue = np.asarray(residue_of if residue_of is not None
                                       else np.zeros(n, int))
        self.hetero_mask = np.asarray(hetero if hetero is not None
                                      else np.zeros(n, bool))
        self.atom_names = names or [f"A{i}" for i in range(n)]


def edge_set(pairs):
    return {(min(i, int(j)), max(i, int(j))) for i, j in pairs}


def tree_edges(tree):
    return edge_set((i, p) for i, p in enumerate(tree.parent) if p >= 0)


def test_gly_gly_depth_matches_backbone_path():
    ch = build_chain(["GLY", "GLY"])
    tree = build_tree(ch)
    assert tree_edges(tree) == edge_set(ch.bonds)  # no ring, no bond dropped
    # walk from OXT back to the root: exactly the backbone bond count
    i = atom_index(ch, 1, "OXT")
    hops = 0
    while tree.parent[i] != -1:
        i = tree.parent[i]
        hops += 1
    # N-CA-C-N-CA-C-OXT: six bonds from the root nitrogen
    assert hops == 6
    assert i == 0


def test_five_cycle_drops_exactly_one_edge():
    bonds = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    tree = build_tree(FakeChain(5, bonds))
    assert tree_edges(tree) <= edge_set(bonds)
    assert edge_set(bonds) - tree_edges(tree) == {(0, 4)}  # last edge in bond order


def test_parent_pointers_reproduce_bond_set(mixed_chain):
    tree = build_tree(mixed_chain)
    assert tree_edges(tree) == edge_set(mixed_chain.bonds)


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedBondGraphError):
        build_tree(FakeChain(4, [(0, 1), (2, 3)]))


@settings(max_examples=30, deadline=None)
@given(sequence=random_sequences)
def test_tree_equals_the_per_atom_reference(sequence):
    chain = cached_chain(tuple(sequence))
    assert_identical(build_tree(chain), reference_tree(chain))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 40))
def test_ring_trees_equal_the_per_atom_reference(data, n):
    """Random connected graphs with extra ring-closing edges, in a random
    bond order: the list-based walk drops the same later edges and sets
    the same parents as the numpy one."""
    links = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=n))
    bonds = data.draw(st.permutations(links + extra))
    chain = FakeChain(n, bonds)
    assert_identical(build_tree(chain), reference_tree(chain))


def test_disconnected_graph_error_names_the_reference_atom():
    chain = FakeChain(6, [(0, 1), (1, 2), (3, 4), (4, 5)], hetero=[0, 0, 0, 1, 0, 0])
    for build in (build_tree, reference_tree):
        with pytest.raises(DisconnectedBondGraphError,
                           match=r"^bond graph does not reach atom 4 \(A4\)$"):
            build(chain)


def test_backbone_bonded_pair(ala2):
    tree = build_tree(ala2)
    n0 = atom_index(ala2, 0, "N")
    ca0 = atom_index(ala2, 0, "CA")
    assert classify(tree, n0, ca0) is InteractionClass.BONDED12


def test_distant_residues_full():
    ch = build_chain(["ALA"] * 5)
    tree = build_tree(ch)
    i = atom_index(ch, 0, "CA")
    j = atom_index(ch, 4, "CA")
    assert classify(tree, i, j) is InteractionClass.FULL


@pytest.mark.parametrize("sequence", [
    ["SER", "GLY", "CYS"],
    ["ALA", "SER", "GLY", "CYS", "ALA"],
])
def test_classify_matches_path_length_oracle(sequence):
    ch = build_chain(sequence)
    tree = build_tree(ch)
    n = ch.n_atoms
    for i in range(n):
        for j in range(i + 1, n):
            got = classify(tree, i, j)
            dist = bfs_tree_distance(tree.parent, i, j, cap=4)
            want = {1: InteractionClass.BONDED12, 2: InteractionClass.PAIR13,
                    3: InteractionClass.PAIR14}.get(dist, InteractionClass.FULL)
            # residues two apart are full regardless of tree distance
            if abs(int(tree.residue_of[i]) - int(tree.residue_of[j])) >= 2:
                want = InteractionClass.FULL
            assert got is want, (i, j, ch.atom_names[i], ch.atom_names[j], dist)


def test_classification_symmetric(mixed_chain, rng):
    tree = build_tree(mixed_chain)
    n = mixed_chain.n_atoms
    i = rng.integers(0, n, 300)
    j = rng.integers(0, n, 300)
    keep = i != j
    i, j = i[keep], j[keep]
    assert np.array_equal(native_classes(tree, i, j), native_classes(tree, j, i))


def test_build_allocates_linearly():
    ch = build_chain(["ALA"] * 40)
    tree = build_tree(ch)
    n = ch.n_atoms
    for arr in (tree.parent, tree.residue_of, tree.chain_mask):
        assert arr.shape == (n,)  # no quadratic lookup tables


@pytest.mark.parametrize("bad", [-2, 3])
def test_tree_weights_refuse_parents_outside_the_atoms(bad):
    """The classifier follows parent pointers into the arrays, so each
    must be -1 or one of the atoms."""
    tree = BondTree(parent=np.array([-1, 0, bad]), residue_of=np.zeros(3, int),
                    chain_mask=np.ones(3, bool))
    with pytest.raises(ConfigurationError, match="parents must be -1 or one of the 3"):
        TreeWeights(tree)


def test_tree_weights_keep_the_parents_they_checked(ala2, param_set):
    """The provider reads its own read-only copy of the parents, so a
    write to the tree's array after the check does not reach the kernel."""
    tree = build_tree(ala2)
    tw = TreeWeights(tree, param_set.weights)
    n = ala2.n_atoms
    i, j = np.triu_indices(n, 1)
    before = tw.weights_for(i, j)
    tree.parent[:] = 10 ** 9  # far outside the atoms
    assert np.array_equal(tw.weights_for(i, j), before)
    assert not tw._arrays[0].flags.writeable


def test_weight_table_pins_ends():
    wt = WeightTable(w13_elec=0.2, w14_elec=0.7)
    by = wt.by_class()
    assert by[InteractionClass.BONDED12, 0] == 0.0
    assert by[InteractionClass.FULL, 0] == 1.0
    assert by[InteractionClass.PAIR13, 0] == pytest.approx(0.2)
    assert by[InteractionClass.PAIR14, 1] == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        WeightTable(w14_elec=1.5)


def test_tree_weights_vectorized(ala2, param_set):
    tree = build_tree(ala2)
    tw = TreeWeights(tree, param_set.weights)
    n0 = atom_index(ala2, 0, "N")
    ca0 = atom_index(ala2, 0, "CA")
    c0 = atom_index(ala2, 0, "C")
    o0 = atom_index(ala2, 0, "O")
    i = np.array([n0, n0, n0])
    j = np.array([ca0, c0, o0])  # 1-2, 1-3, 1-4
    w = tw.weights_for(i, j)[:, 0]
    assert w[0] == 0.0
    assert w[1] == pytest.approx(param_set.weights.w13_elec)
    assert w[2] == pytest.approx(param_set.weights.w14_elec)


def test_hetero_pairs_classified_full(param_set):
    from kinefold.pdbio import StructureRecord, AtomRecord
    rec = StructureRecord(atoms=[
        AtomRecord("N", "GLY", 1, "A", (0.0, 0.0, 0.0), "N", False),
        AtomRecord("CA", "GLY", 1, "A", (1.47, 0.0, 0.0), "C", False),
        AtomRecord("C", "GLY", 1, "A", (2.0, 1.4, 0.0), "C", False),
        AtomRecord("O", "GLY", 1, "A", (1.4, 2.4, 0.0), "O", False),
        AtomRecord("FE", "HEM", 2, "A", (2.2, 0.2, 1.0), "Fe", True),
    ])
    from kinefold.chain import build_chain as bc
    ch = bc([], geometry=rec)
    tree = build_tree(ch)
    fe = ch.atom_names.index("FE")
    assert classify(tree, 0, fe) is InteractionClass.FULL
    assert classify(tree, fe, 2) is InteractionClass.FULL
