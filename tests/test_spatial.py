import time

import numpy as np
import pytest

from kinefold.errors import ConfigurationError
from kinefold.kcm import _brute_table
from kinefold.spatial import (
    Cutoffs,
    GridConfig,
    build_grid,
    build_neighbor_table,
    brute_force_pairs,
    filtered_lists,
    filtered_pairs,
)

from .oracles import brute_neighbor_sets


def buckets(grid) -> dict[tuple[int, int, int], list[int]]:
    """Occupied cells -> atom indices, from each atom's ``cell_index``."""
    out = {}
    for i, cell in enumerate(grid.cell_index.tolist()):
        out.setdefault(tuple(cell), []).append(i)
    return out


def test_single_atom_single_bucket():
    grid = build_grid(np.zeros((1, 3)))
    assert len(buckets(grid)) == 1
    ((cell, members),) = buckets(grid).items()
    assert members == [0]


def test_separated_atoms_get_distinct_buckets():
    # a 2 A cube with alpha = 1 gives 1 A cells: corners land apart
    corners = np.array([[x, y, z] for x in (0.0, 2.0)
                        for y in (0.0, 2.0) for z in (0.0, 2.0)])
    grid = build_grid(corners, GridConfig(alpha=1.0))
    assert grid.cell_size < 2.0
    assert len(buckets(grid)) == 8


def test_cell_size_formula():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 30, (400, 3))
    cfg = GridConfig(alpha=1.0)
    grid = build_grid(pos, cfg)
    v_bb = float(np.prod(pos.max(0) - pos.min(0)))
    assert grid.cell_size == pytest.approx((v_bb / (cfg.alpha * 400)) ** (1 / 3),
                                           abs=1e-12)


def test_min_cell_floor():
    pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.1]])
    grid = build_grid(pos)
    assert grid.cell_size == 1.0


def test_rehash_recovers_every_atom(rng):
    pos = rng.uniform(-10, 40, (500, 3))
    grid = build_grid(pos)
    cells = buckets(grid)
    for i in range(500):
        cell = np.floor((pos[i] - grid.r_min) / grid.cell_size).astype(int)
        cell = np.minimum(cell, grid.dims - 1)
        assert i in cells[tuple(cell.tolist())]


def test_nonfinite_rejected():
    bad = np.array([[0.0, 0.0, np.nan]])
    with pytest.raises(ConfigurationError):
        build_grid(bad)


def test_far_pair_empty_lists():
    pos = np.array([[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
    grid = build_grid(pos, GridConfig(min_cell=1.0))
    table = build_neighbor_table(grid, 9.0)
    assert table.list_of(0).size == 0
    assert table.list_of(1).size == 0


def test_close_pair_mutual():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    table = build_neighbor_table(build_grid(pos), 9.0)
    assert table.list_of(0).tolist() == [1]
    assert table.list_of(1).tolist() == [0]


@pytest.mark.parametrize("d_cut", [9.0, 5.0, 8.0])
def test_filtered_table_matches_brute_force(rng, d_cut):
    pos = rng.uniform(0, 28, (500, 3))
    table = build_neighbor_table(build_grid(pos), d_cut)
    got = filtered_lists(table, pos, d_cut)
    want = brute_neighbor_sets(pos, d_cut)
    for i in range(500):
        assert set(got[i].tolist()) == want[i]
        assert np.all(np.diff(got[i]) > 0)  # sorted, no duplicates


def test_table_rows_ascending(rng):
    """The solvation pass records the first covering neighbor of each row
    as the critical one, so hashed and brute rows must both be ascending,
    before and after exact filtering."""
    pos = rng.uniform(0, 22, (300, 3))
    hashed = build_neighbor_table(build_grid(pos), 8.0)
    brute = _brute_table(pos, 8.0)
    for table in (hashed, brute):
        for row in table.lists() + filtered_lists(table, pos, 6.0):
            assert np.all(np.diff(row) > 0)


def test_superset_and_self_exclusion(rng):
    pos = rng.uniform(0, 22, (300, 3))
    table = build_neighbor_table(build_grid(pos), 8.0)
    want = brute_neighbor_sets(pos, 8.0)
    for i in range(300):
        row = set(table.list_of(i).tolist())
        assert i not in row
        assert row >= want[i]


def test_filtered_symmetry(rng):
    pos = rng.uniform(0, 25, (250, 3))
    table = build_neighbor_table(build_grid(pos), 7.0)
    lists = filtered_lists(table, pos, 7.0)
    for i in range(250):
        for j in lists[i]:
            assert i in lists[j]


def test_pairs_unordered_once(rng):
    pos = rng.uniform(0, 18, (150, 3))
    table = build_neighbor_table(build_grid(pos), 6.0)
    i, j, d = filtered_pairs(table, pos, 6.0)
    assert np.all(i < j)
    keys = set(zip(i.tolist(), j.tolist()))
    assert len(keys) == len(i)
    bi, bj, bd = brute_force_pairs(pos, 6.0)
    assert keys == set(zip(bi.tolist(), bj.tolist()))


def test_cutoffs_validate():
    with pytest.raises(ConfigurationError):
        Cutoffs(elec=-1.0)
    with pytest.raises(ConfigurationError):
        GridConfig(alpha=0.0)


def test_build_and_query_scale_subquadratically():
    """Fixed-density clouds: time exponent under 1.3 across a 16x size span."""
    rng = np.random.default_rng(5)
    sizes = [1000, 4000, 16000]
    times = []
    for n in sizes:
        # protein-like packing: about 0.115 atoms per cubic Angstrom
        side = 20.5 * (n / 1000.0) ** (1.0 / 3.0)
        pos = rng.uniform(0, side, (n, 3))
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            table = build_neighbor_table(build_grid(pos), 5.0)
            filtered_pairs(table, pos, 5.0)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert exponent < 1.3, (sizes, times, exponent)
