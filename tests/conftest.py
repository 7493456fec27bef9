import dataclasses
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from kinefold.chain import Conformation, build_chain
from kinefold.forcefield import DielectricModel
from kinefold.kcm import Field, FieldConfig
from kinefold.pdbio import load_params
from kinefold.solvation import sasa_pass, solvation_forces
from kinefold.spatial import Cutoffs, NeighborTable
from kinefold.topology import TreeWeights, WeightTable, build_tree


class InteractionClass(IntEnum):
    """Separation classes; values are tree path lengths (4 = four or more)."""

    BONDED12 = 1
    PAIR13 = 2
    PAIR14 = 3
    FULL = 4


@dataclass(frozen=True)
class UniformWeights:
    """All pairs fully weighted; for free clusters without topology."""

    value: float = 1.0

    def weights_for(self, i, j) -> np.ndarray:
        return np.full((len(i), 2), self.value)


@pytest.fixture(scope="session")
def param_set():
    return load_params()


@pytest.fixture(scope="session")
def ala2(param_set):
    return build_chain(["ALA", "ALA"])


@pytest.fixture(scope="session")
def gly3():
    return build_chain(["GLY"] * 3)


@pytest.fixture(scope="session")
def mixed_chain():
    return build_chain(["SER", "ALA", "GLY", "CYS", "ALA"])


def make_field(chain, param_set, **cfg_kwargs):
    params = param_set.resolve(chain)
    weights = TreeWeights(build_tree(chain), param_set.weights)
    return Field(params, weights, FieldConfig(**cfg_kwargs))


def pair_field(params, weights=UniformWeights(), dielectric=DielectricModel(),
               **cutoffs):
    """Vacuum field (elec and vdW terms) for a free cluster at
    ``Cutoffs(**cutoffs)``."""
    return Field(params, weights,
                 FieldConfig(dielectric=dielectric, cutoffs=Cutoffs(**cutoffs)))


def only(params, term: str):
    """``params`` with the other pair term silenced: eps = 0 leaves the
    Coulomb term alone, q = 0 the van der Waals term."""
    zero = np.zeros(params.n_atoms)
    return replace(params, eps=zero) if term == "elec" else replace(params, q=zero)


def neighbor_table(rows) -> NeighborTable:
    """A ``NeighborTable`` holding ``rows``, one index sequence per atom."""
    offsets = np.zeros(len(rows) + 1, np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    entries = [np.asarray(row, np.int64) for row in rows]
    return NeighborTable(offsets=offsets, neighbors=np.concatenate(entries))


def row_parts(table, parts: int) -> list[tuple[int, int, NeighborTable]]:
    """``table`` split into ``parts`` near-equal contiguous atom runs
    [lo, hi): each part's table keeps the rows of its run and leaves every
    other row empty."""
    bounds = np.linspace(0, len(table), parts + 1).astype(int)
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = table.offsets[lo], table.offsets[hi]
        out.append((lo, hi, NeighborTable(offsets=np.clip(table.offsets, a, b) - a,
                                          neighbors=table.neighbors[a:b])))
    return out


def passes_by_row_parts(pos, params, table, sphere, config, parts: int, atoms=None):
    """Both SASA passes run once per part of ``row_parts``, counting
    ``atoms`` (every atom when None): each atom's f_exp and full and
    area-only counts from the part holding its row, and the forces summed
    over the parts."""
    f_exp, counts, clamped, forces = [], [], [], 0.0
    for lo, hi, part in row_parts(table, parts):
        res, states = sasa_pass(pos, params, part, sphere, config, atoms=atoms)
        _, area_states = sasa_pass(pos, params, part, sphere, config, area_only=True,
                                   atoms=atoms)
        f_exp.append(res.f_exp[lo:hi])
        counts.append(states.counts[lo:hi])
        clamped.append(area_states.counts[lo:hi])
        forces = forces + solvation_forces(pos, params, part, sphere, states, config)
    return np.concatenate(f_exp), np.concatenate(counts), np.concatenate(clamped), forces


# elec weights that tell the four interaction classes apart
CLASS_WEIGHTS = WeightTable(w13_elec=0.25, w14_elec=0.5)


def native_classes(parent, i, j) -> np.ndarray:
    """Interaction classes as the native classifier assigns them, read
    back from the weights it looks up in ``CLASS_WEIGHTS``."""
    w = TreeWeights(parent, CLASS_WEIGHTS).weights_for(i, j)[:, 0]
    return np.searchsorted([0.0, 0.25, 0.5, 1.0], w) + 1


def classify(parent, i: int, j: int) -> InteractionClass:
    """Native interaction class of one pair."""
    return InteractionClass(int(native_classes(parent, np.array([i]), np.array([j]))[0]))


def atom_index(chain, residue, name):
    """Index of the first atom called ``name`` in residue ``residue``."""
    for i in np.flatnonzero(chain.atom_residue == residue):
        if chain.atom_names[i] == name:
            return int(i)
    raise KeyError((residue, name))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# random chains for the differential tests of the array kinematics and the
# reverse torque pass: 1-12 residues covering plain, hydroxyl, thiol and
# side-chain-free links
random_sequences = st.lists(st.sampled_from(["SER", "ALA", "GLY", "CYS"]),
                            min_size=1, max_size=12)


@lru_cache(maxsize=64)
def cached_chain(sequence: tuple[str, ...]):
    return build_chain(list(sequence))


def random_case(sequence, seed):
    """Chain, a random conformation with about a quarter of its dofs
    frozen, and random atom forces, all from ``seed``."""
    chain = cached_chain(tuple(sequence))
    rng = np.random.default_rng(seed)
    conf = Conformation(rng.uniform(0.0, 360.0, chain.n_dof),
                        rng.random(chain.n_dof) < 0.25)
    return chain, conf, rng.normal(size=(chain.n_atoms, 3))


def assert_identical(got, want, path: str = "") -> None:
    """Two dataclass instances field by field: arrays equal in dtype, shape
    and bytes, nested dataclasses recursively, anything else equal in value,
    in order and in the Python types it holds (an ``np.int64`` is not an
    ``int``).  ``path`` prefixes the name of a field that differs."""
    assert type(got) is type(want), path
    for f in dataclasses.fields(want):
        a, b, name = getattr(got, f.name), getattr(want, f.name), path + f.name
        if dataclasses.is_dataclass(b):
            assert_identical(a, b, name + ".")
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name
            assert _types(a) == _types(b), name


def _types(value):
    if isinstance(value, (list, tuple)):
        return type(value), [_types(v) for v in value]
    if isinstance(value, dict):
        return dict, [(type(k), _types(v)) for k, v in value.items()]
    return type(value)
