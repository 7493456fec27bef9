import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinefold import kcm
from kinefold.errors import ConfigurationError
from kinefold.forcefield import AtomParams, extract_pairs
from kinefold.kcm import Field, FieldConfig
from kinefold.solvation import SolvationConfig, reach
from kinefold.spatial import ALPHA, Cutoffs, build_grid, build_neighbor_table, filtered_lists
from .conftest import UniformWeights, cutoff_lists
from .oracles import BruteField, brute_force_pairs, brute_neighbor_sets, brute_table


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
    # a 2 A cube with one cell per atom gives 1 A cells: corners land apart
    corners = np.array([[x, y, z] for x in (0.0, 2.0)
                        for y in (0.0, 2.0) for z in (0.0, 2.0)])
    grid = build_grid(corners)
    assert grid.cell_size < 2.0
    assert len(buckets(grid)) == 8


def test_cell_size_formula():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 30, (400, 3))
    grid = build_grid(pos)
    v_bb = float(np.prod(pos.max(0) - pos.min(0)))
    assert grid.cell_size == pytest.approx((v_bb / (ALPHA * 400)) ** (1 / 3), abs=1e-12)


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
    grid = build_grid(pos)
    rows = list(build_neighbor_table(grid, 9.0))
    assert rows[0].size == 0
    assert rows[1].size == 0


def test_close_pair_mutual():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    table = build_neighbor_table(build_grid(pos), 9.0)
    lists = filtered_lists(2, *table.pairs())
    assert lists[0].tolist() == [1]
    assert lists[1].tolist() == [0]


@pytest.mark.parametrize("d_cut", [9.0, 5.0, 8.0])
def test_filtered_table_matches_brute_force(rng, d_cut):
    pos = rng.uniform(0, 28, (500, 3))
    table = build_neighbor_table(build_grid(pos), d_cut)
    got = cutoff_lists(table, pos, d_cut)
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
    brute = brute_table(pos, 8.0)
    for table in (hashed, brute):
        for row in list(table) + list(cutoff_lists(table, pos, 6.0)):
            assert np.all(np.diff(row) > 0)


def test_superset_and_self_exclusion(rng):
    pos = rng.uniform(0, 22, (300, 3))
    table = build_neighbor_table(build_grid(pos), 8.0)
    lists = filtered_lists(300, *table.pairs())
    want = brute_neighbor_sets(pos, 8.0)
    for i in range(300):
        row = set(lists[i].tolist())
        assert i not in row
        assert row >= want[i]


def test_filtered_symmetry(rng):
    pos = rng.uniform(0, 25, (250, 3))
    table = build_neighbor_table(build_grid(pos), 7.0)
    lists = cutoff_lists(table, pos, 7.0)
    for i in range(250):
        for j in lists[i]:
            assert i in lists[j]


def test_pairs_unordered_once(rng):
    pos = rng.uniform(0, 18, (150, 3))
    table = build_neighbor_table(build_grid(pos), 6.0)
    i, j, d, _ = extract_pairs(pos, table, 6.0)
    assert np.all(i < j)
    keys = set(zip(i.tolist(), j.tolist()))
    assert len(keys) == len(i)
    bi, bj, bd = brute_force_pairs(pos, 6.0)
    assert keys == set(zip(bi.tolist(), bj.tolist()))


def test_cutoffs_validate():
    with pytest.raises(ConfigurationError):
        Cutoffs(elec=-1.0)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        Cutoffs(vdw=float("inf"))
    with pytest.raises(ConfigurationError, match="positive and finite"):
        Cutoffs(elec=float("nan"))


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
            extract_pairs(pos, table, 5.0)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert exponent < 1.3, (sizes, times, exponent)


# --------------------------------------------------------------------------
# differential tests: the half table and the shared pass against
# brute force
# --------------------------------------------------------------------------

# (elec, vdw): the default and vdW above elec
CUTOFF_SETS = [(9.0, 5.0), (4.0, 6.0)]
CUTOFFS = [4.0, 5.0, 6.0, 8.0, 9.0, 10.0]
# probe radii of the unit-radius cavity tests: the reach 2 (1 + probe) +
# delta_r stays below both cutoff sets, lies between them, or exceeds both
PROBES = [1.4, 3.0, 4.0]
DELTA_R = SolvationConfig().delta_r
REACHES = [reach(1.0 + p, 1.0 + p, DELTA_R) for p in PROBES]


@st.composite
def clouds(draw):
    """A random cluster, or a random patch of a 0.5 A lattice holding a
    pair exactly at one of the cutoffs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 150))
        return rng.uniform(0.0, draw(st.floats(1.0, 30.0)), (n, 3))
    cut = draw(st.sampled_from(CUTOFFS + REACHES))
    pts = 0.5 * rng.integers(0, 25, (draw(st.integers(0, 120)), 3))
    pts = np.concatenate([[[0.0, 0.0, 0.0], [cut, 0.0, 0.0]], pts])
    return np.unique(pts, axis=0)


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_half_table_pairs_equal_brute_force(pos):
    """Hashed and brute-force half tables give exactly the brute-force
    cut-off pairs, element for element and in the same (i, j) order."""
    for d_cut in CUTOFFS:
        bi, bj, bd = brute_force_pairs(pos, d_cut)
        brute = brute_table(pos, d_cut)
        i, j = brute.pairs()
        assert np.array_equal(i, bi) and np.array_equal(j, bj), d_cut
        for table in (build_neighbor_table(build_grid(pos), d_cut), brute):
            i, j = table.pairs()
            assert np.all(i < j)
            assert np.all(np.lexsort((j, i)) == np.arange(len(i)))
            i, j, d2, _ = extract_pairs(pos, table, d_cut)
            assert np.array_equal(i, bi) and np.array_equal(j, bj), d_cut
            assert np.array_equal(np.sqrt(d2), bd)


def cavity_lists(pos, cutoffs, probe=1.4, use_hash=True):
    """The cavity rows one solvated ``Field.evaluate`` hands to the SASA
    pass, for unit-radius atoms at ``Cutoffs(*cutoffs)``."""
    n = len(pos)
    params = AtomParams(q=np.zeros(n), R=np.ones(n), eps=np.zeros(n),
                        gamma=np.zeros(n), solv_class=("C",) * n)
    cfg = FieldConfig(solvation=True, cutoffs=Cutoffs(*cutoffs),
                      solvation_cfg=SolvationConfig(probe_radius=probe, samples=12))
    field_type = Field if use_hash else BruteField
    seen = []

    def spy(*args):
        seen.append(filtered_lists(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kcm, "filtered_lists", spy)
        field_type(params, UniformWeights(), cfg).evaluate(pos, energy_only=True)
    (lists,) = seen
    return lists


def reach_oracle_lists(pos, probe):
    """Per unit-radius atom, every other atom within the reach of the
    offset spheres, ``d2 <= reach**2``, ascending."""
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    rc = reach(1.0 + probe, 1.0 + probe, DELTA_R)
    return [np.flatnonzero(row <= rc * rc) for row in d2]


@settings(max_examples=40, deadline=None)
@given(clouds(), st.sampled_from(CUTOFF_SETS), st.sampled_from(PROBES), st.booleans())
def test_shared_pass_cavity_rows_match_reach_oracle(pos, cutoffs, probe, use_hash):
    got = cavity_lists(pos, cutoffs, probe, use_hash)
    want = reach_oracle_lists(pos, probe)
    assert len(got) == len(want)
    for a, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), (a, g, w)


def with_d2(target):
    """A vector in the xy plane whose squared norm, summed as
    ``extract_pairs`` sums it, is exactly ``target``."""
    for y in np.linspace(0.05, 0.5, 451):
        v = np.array([np.sqrt(target - y * y), y, 0.0])
        if np.einsum("i,i->", v, v) == target:
            return v
    raise AssertionError(f"no vector with squared norm {target!r}")


@pytest.mark.parametrize("cutoffs", CUTOFF_SETS + [(3.0, 2.0)],
                         ids=["9-5", "4-6", "3-2"])
@pytest.mark.parametrize("use_hash", [True, False], ids=["hashed", "brute"])
def test_cavity_membership_is_the_reach_test(cutoffs, use_hash):
    """A pair whose d2 is one ulp past the squared reach stays out of the
    cavity rows, while a pair at exactly the reach stays in, also when the
    reach sets the table cutoff (elec 3, vdw 2)."""
    rc = reach(2.4, 2.4, DELTA_R)
    edge = with_d2(np.nextafter(rc * rc, np.inf))
    at = with_d2(rc * rc)[[2, 1, 0]]
    pos = np.array([[0.0, 0.0, 0.0], edge, at])
    lists = cavity_lists(pos, cutoffs, use_hash=use_hash)
    assert [row.tolist() for row in lists] == [[2], [], [0]]
