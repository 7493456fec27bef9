"""The native pair stages against their numpy references in ``oracles``.

Each stage of ``Field.evaluate`` is one call into the native library;
``tests/oracles.py`` holds the numpy bodies they replaced, spelled in the
same operation order.  Grid, table, pairs, squared distances, classes
and cavity rows must be bitwise equal; pair terms and forces equal to
rel 1e-12; errors must read the same.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinefold import kcm, native
from kinefold.chain import build_chain, forward_kinematics
from kinefold.errors import ConfigurationError, StericClashError
from kinefold.forcefield import (
    AtomParams,
    DielectricModel,
    accumulate_pair_forces,
    elec_pair_quantities,
    extract_pairs,
    vdw_pair_quantities,
)
from kinefold.kcm import Field, FieldConfig, StepConfig, fold
from kinefold.solvation import SolvationConfig, sasa_pass, solvation_forces
from kinefold.spatial import (
    EDGE_PER_CUTOFF,
    Cutoffs,
    build_grid,
    build_neighbor_table,
    filtered_lists,
)
from kinefold.topology import BondTree, TreeWeights, WeightTable

from . import oracles
from .conftest import UniformWeights, make_field, neighbor_table

STAGES = ("build_grid", "build_neighbor_table", "extract_pairs", "elec_pair_quantities",
          "vdw_pair_quantities", "accumulate_pair_forces")
# (elec, vdw): the default and vdW above elec
CUTOFF_SETS = [Cutoffs(9.0, 5.0), Cutoffs(4.0, 6.0)]


def oracle_weights(self, i, j):
    return oracles.weights_for(self.tree, self.table, i, j)


def with_oracle_stages(mp):
    """Swap every pair stage ``kcm`` calls for its numpy reference."""
    for name in STAGES:
        mp.setattr(kcm, name, getattr(oracles, name))
    mp.setattr(TreeWeights, "weights_for", oracle_weights)


def random_tree(rng, n) -> BondTree:
    """A chain-like tree: each atom's parent one of the last three tree
    atoms before it, about one atom in six a hetero atom outside the
    tree, four atoms a residue."""
    hetero = rng.random(n) < 0.15
    hetero[0] = False
    parent = np.full(n, -1)
    for k in range(1, n):
        if not hetero[k]:
            parent[k] = rng.choice(np.flatnonzero(~hetero[:k])[-3:])
    return BondTree(parent=parent, residue_of=np.arange(n) // 4, chain_mask=~hetero)


@st.composite
def systems(draw):
    """Positions (a random cluster, or a lattice patch with atoms on
    multiples of the cell edge), parameters, a pair-weight provider (a
    bond tree with hetero atoms, or the uniform test provider), a
    dielectric, cut-offs, and a solvation config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cutoffs = draw(st.sampled_from(CUTOFF_SETS))
    if draw(st.booleans()):
        pos = rng.uniform(0.0, draw(st.floats(2.0, 25.0)), (draw(st.integers(1, 90)), 3))
    else:
        step = draw(st.sampled_from([1.0, EDGE_PER_CUTOFF * max(cutoffs.elec, cutoffs.vdw)]))
        pos = np.unique(step * rng.integers(0, 8, (draw(st.integers(1, 90)), 3)), axis=0)
    n = len(pos)
    params = AtomParams(q=rng.uniform(-0.8, 0.8, n), R=rng.uniform(1.0, 2.0, n),
                        eps=rng.uniform(0.0, 0.2, n), gamma=rng.uniform(-0.02, 0.03, n))
    if draw(st.booleans()):
        weights = TreeWeights(random_tree(rng, n),
                              WeightTable(w13_elec=0.25, w13_vdw=0.125, w14_elec=0.5))
    else:
        weights = UniformWeights(draw(st.sampled_from([1.0, 0.5])))
    dielectric = DielectricModel(draw(st.sampled_from([None, 4.0])))
    # probe 4: the reach 2 (R + 4) + delta_r is above both cut-offs
    solvation = SolvationConfig(probe_radius=draw(st.sampled_from([1.4, 4.0])), samples=32)
    return pos, params, weights, dielectric, cutoffs, solvation


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * float(np.abs(want).max(initial=0.0)))


@settings(max_examples=150, deadline=None)
@given(systems())
def test_each_stage_matches_its_oracle(system):
    pos, params, weights, dielectric, cutoffs, _ = system
    n = len(pos)
    cut = max(cutoffs.elec, cutoffs.vdw) + 1.0
    grid, want_grid = build_grid(pos, cut), oracles.build_grid(pos, cut)
    for name in ("dims", "order", "occupied", "starts", "counts"):
        assert np.array_equal(getattr(grid, name), getattr(want_grid, name)), name
    table, want_table = build_neighbor_table(grid), oracles.build_neighbor_table(want_grid)
    assert np.array_equal(table.offsets, want_table.offsets)
    assert np.array_equal(table.neighbors, want_table.neighbors)
    pairs, want_pairs = extract_pairs(pos, table, cut), oracles.extract_pairs(pos, table, cut)
    for got, want in zip(pairs, want_pairs):
        assert np.array_equal(got, want)
    i, j, d2, d = pairs
    w = weights.weights_for(i, j)
    if isinstance(weights, TreeWeights):
        assert np.array_equal(w, oracle_weights(weights, i, j))  # the classes
    elec = elec_pair_quantities(params, i, j, d2, d, w, dielectric, cutoffs)
    vdw = vdw_pair_quantities(params, i, j, d2, d, w, cutoffs)
    for got, want in zip(elec + vdw,
                         oracles.elec_pair_quantities(params, i, j, d2, d, w, dielectric,
                                                      cutoffs)
                         + oracles.vdw_pair_quantities(params, i, j, d2, d, w, cutoffs)):
        assert_close(got, want)
    mag = elec[1] + vdw[1]
    assert_close(accumulate_pair_forces(n, pos, i, j, d, mag),
                 oracles.accumulate_pair_forces(n, pos, i, j, d, mag))


def evaluate(field, pos, oracle: bool):
    """``field.evaluate(pos)`` through the native stages or their oracles,
    and the cavity rows it handed to the SASA pass."""
    rows = []

    def spy(*args):
        rows.append(filtered_lists(*args))
        return rows[-1]

    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            with_oracle_stages(mp)
        mp.setattr(kcm, "filtered_lists", spy)
        result = field.evaluate(pos)
    return result, rows


@settings(max_examples=80, deadline=None)
@given(systems())
def test_solvated_evaluation_matches_the_oracle_pipeline(system):
    """Energies and forces to rel 1e-12; cavity rows and SASA bitwise,
    also when the reach sets the table cut-off."""
    pos, params, weights, dielectric, cutoffs, solvation = system
    field = Field(params, weights, FieldConfig(solvation=True, dielectric=dielectric,
                                               cutoffs=cutoffs, solvation_cfg=solvation))
    got, got_rows = evaluate(field, pos, oracle=False)
    want, want_rows = evaluate(field, pos, oracle=True)
    for name in ("g_elec", "g_vdw"):
        assert_close(getattr(got.energy, name), getattr(want.energy, name))
    assert got.energy.g_cav == want.energy.g_cav
    assert_close(got.forces, want.forces)
    (g,), (w,) = got_rows, want_rows
    assert np.array_equal(g.offsets, w.offsets) and np.array_equal(g.neighbors, w.neighbors)
    assert np.array_equal(got.sasa.f_exp, want.sasa.f_exp)


def test_vacuum_fold_matches_the_oracle_pipeline(mixed_chain, param_set):
    """A real chain's tree, 20 fold iterations: every energy to rel 1e-12."""
    field = make_field(mixed_chain, param_set)
    step = StepConfig(max_iters=20, torque_tol_rel=0.0, energy_window=0)
    got = fold(mixed_chain, mixed_chain.conf_zp(), field, step)
    with pytest.MonkeyPatch.context() as mp:
        with_oracle_stages(mp)
        want = fold(mixed_chain, mixed_chain.conf_zp(), field, step)
    assert got.iterations == want.iterations == 20
    assert_close(got.energies(), want.energies())


# --------------------------------------------------------------------------
# errors keep their meaning
# --------------------------------------------------------------------------

def clash_message(fn, pos, d_cut=5.0):
    table = oracles.brute_table(pos, d_cut)
    with pytest.raises(StericClashError) as info:
        fn(pos, table, d_cut)
    return str(info.value)


@pytest.mark.parametrize("gaps", [(1e-9, 1e-9), (5e-7, 1e-9), (1e-9, 5e-7)])
def test_clash_names_the_pair_argmin_picks(gaps):
    """Two close pairs, (0, 1) and (2, 3): the error names the closer, or
    the first in (i, j) order when they tie, exactly as the oracle does."""
    pos = np.array([[0.0, 0.0, 0.0], [gaps[0], 0.0, 0.0],
                    [3.0, 0.0, 0.0], [3.0, gaps[1], 0.0]])
    got = clash_message(extract_pairs, pos)
    assert got == clash_message(oracles.extract_pairs, pos)
    assert got.startswith("atoms 2 and 3" if gaps[1] < gaps[0] else "atoms 0 and 1")


def test_fold_abort_text_is_the_oracles(param_set):
    ch = build_chain(["ALA", "ALA"])
    ch.zp_pos[3] = ch.zp_pos[2] + 1e-9
    field = make_field(ch, param_set)

    def message():
        with pytest.raises(StericClashError) as info:
            fold(ch, ch.conf_zp(), field, StepConfig(max_iters=3))
        return str(info.value)

    got = message()
    with pytest.MonkeyPatch.context() as mp:
        with_oracle_stages(mp)
        assert got == message()
    assert got.startswith("aborted at iteration 0: atoms ")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "wide"])
def test_build_grid_refuses_like_the_oracle(bad):
    pos = np.zeros((3, 3))
    if bad == "wide":
        pos[2, 1] = np.nextafter(1e5 * 2.0, np.inf)
    else:
        pos[1, 2] = bad
    messages = []
    for fn in (build_grid, oracles.build_grid):
        with pytest.raises(ConfigurationError) as info:
            fn(pos, 2.0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_table_is_sized_by_its_count_pass():
    """300 atoms in one cell: every pair a candidate, no fixed capacity.
    A call whose capacity is short of the count only returns the count."""
    pos = np.random.default_rng(3).uniform(0.0, 1.0, (300, 3))
    grid = build_grid(pos, 9.0)
    table = build_neighbor_table(grid)
    assert len(table.neighbors) == 300 * 299 // 2
    assert np.array_equal(table.neighbors, oracles.build_neighbor_table(grid).neighbors)
    offsets = np.full(301, -7, np.int64)
    short = np.full(10, -7, np.int64)
    total = native.load().call("neighbor_table", 300, grid.dims, grid.order, grid.occupied,
                               grid.starts, grid.counts, len(grid.occupied), offsets,
                               short, len(short))
    assert total == len(table.neighbors)
    assert (offsets == -7).all() and (short == -7).all()


def test_stages_refuse_indices_outside_the_atoms(param_set, ala2):
    pos = forward_kinematics(ala2, ala2.conf_zp())
    n = len(pos)
    field = make_field(ala2, param_set)
    i, j = np.array([0]), np.array([n])
    d = np.ones(1)
    w = np.ones((1, 2))
    cut = Cutoffs()
    calls = [
        lambda: field.weights.weights_for(i, j),
        lambda: elec_pair_quantities(field.params, i, j, d, d, w, DielectricModel(), cut),
        lambda: vdw_pair_quantities(field.params, i, j, d, d, w, cut),
        lambda: accumulate_pair_forces(n, pos, i, j, d, d),
        lambda: extract_pairs(pos, neighbor_table([[n]] + [[]] * (n - 1)), 5.0),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError):
            call()


class Exhausted:
    """A library whose every entry point reports failed allocation."""

    def __getattr__(self, name):
        return lambda *args: native.NO_MEMORY


def test_allocation_failure_is_memory_error(monkeypatch, ala2, param_set):
    pos = forward_kinematics(ala2, ala2.conf_zp())
    field = make_field(ala2, param_set, solvation=True,
                       solvation_cfg=SolvationConfig(samples=16))
    grid = build_grid(pos, 9.0)
    table = build_neighbor_table(grid)
    i, j, d2, d = extract_pairs(pos, table, 9.0)
    w = field.weights.weights_for(i, j)
    cut = Cutoffs()
    lists = filtered_lists(len(pos), i, j)
    sphere, solv = field.sphere(), field.config.solvation_cfg
    _, states = sasa_pass(pos, field.params, lists, sphere, solv)
    calls = {
        "grid_cells": lambda: build_grid(pos, 9.0),
        "neighbor_table": lambda: build_neighbor_table(grid),
        "cutoff_pairs": lambda: extract_pairs(pos, table, 9.0),
        "pair_weights": lambda: field.weights.weights_for(i, j),
        "elec_terms": lambda: elec_pair_quantities(field.params, i, j, d2, d, w,
                                                   DielectricModel(), cut),
        "vdw_terms": lambda: vdw_pair_quantities(field.params, i, j, d2, d, w, cut),
        "scatter_forces": lambda: accumulate_pair_forces(len(pos), pos, i, j, d, d),
        "exposure": lambda: sasa_pass(pos, field.params, lists, sphere, solv),
        "force_events": lambda: solvation_forces(pos, field.params, lists, sphere, states,
                                                 solv),
    }
    exhausted = replace(native.load(), library=Exhausted())
    monkeypatch.setattr(native, "load", lambda: exhausted)
    for name, call in calls.items():
        with pytest.raises(MemoryError, match=f"native {name} pass could not allocate"):
            call()
