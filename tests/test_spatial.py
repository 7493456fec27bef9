import ctypes
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinefold import kcm
from kinefold.errors import ConfigurationError
from kinefold.forcefield import MIN_DISTANCE, AtomParams, extract_pairs
from kinefold.kcm import Field, FieldConfig
from kinefold.solvation import SolvationConfig
from kinefold.spatial import (
    EDGE_PER_CUTOFF,
    MAX_SPAN,
    Cutoffs,
    Workspace,
    build_grid,
    build_neighbor_table,
    filtered_lists,
    reach,
)
from . import oracles
from .conftest import UniformWeights
from .oracles import (
    BruteField,
    brute_force_pairs,
    brute_neighbor_sets,
    brute_table,
    cutoff_lists,
    squared_norms,
    symmetric_rows,
    table_pairs,
)


def buckets(grid) -> dict[tuple[int, int, int], list[int]]:
    """Occupied cells -> atom indices, decoded from the grid's linear ids."""
    cells = np.stack(np.unravel_index(grid.occupied, grid.dims), axis=1)
    return {tuple(cell): sorted(grid.order[s:e].tolist())
            for cell, s, e in zip(cells.tolist(), grid.starts, grid.starts[1:])}


def test_single_atom_single_bucket():
    grid = build_grid(np.zeros((1, 3)), 9.0)
    assert buckets(grid) == {(0, 0, 0): [0]}
    table = build_neighbor_table(grid)
    assert table.offsets.tolist() == [0, 0] and table.neighbors.size == 0


def test_separated_atoms_get_distinct_buckets():
    # a 2 A cube at a 2 A cutoff gives cells just over 1 A: corners land apart
    corners = np.array([[x, y, z] for x in (0.0, 2.0)
                        for y in (0.0, 2.0) for z in (0.0, 2.0)])
    grid = build_grid(corners, 2.0)
    assert sorted(buckets(grid)) == [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def test_rehash_recovers_every_atom(rng):
    """Each atom is in exactly one occupied cell, at floor((x - min) / edge)."""
    pos = rng.uniform(-10, 40, (500, 3))
    grid = build_grid(pos, 5.0)
    cells = buckets(grid)
    assert sorted(sum(cells.values(), [])) == list(range(500))
    want = np.floor((pos - pos.min(axis=0)) / (EDGE_PER_CUTOFF * 5.0)).astype(int)
    for i in range(500):
        assert i in cells[tuple(want[i].tolist())]


def test_nonfinite_rejected():
    bad = np.array([[0.0, 0.0, np.nan]])
    with pytest.raises(ConfigurationError):
        build_grid(bad, 9.0)


@pytest.mark.parametrize("d_cut", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_cutoff_rejected(d_cut):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        build_grid(np.zeros((2, 3)), d_cut)


def test_overwide_extent_rejected():
    """Spans up to ``MAX_SPAN`` cut-offs are binned; wider ones are refused."""
    pos = np.zeros((2, 3))
    pos[1, 1] = MAX_SPAN * 2.0
    assert len(buckets(build_grid(pos, 2.0))) == 2
    pos[1, 1] = np.nextafter(MAX_SPAN * 2.0, np.inf)
    with pytest.raises(ConfigurationError, match="span"):
        build_grid(pos, 2.0)


def test_far_pair_empty_lists():
    pos = np.array([[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
    rows = list(build_neighbor_table(build_grid(pos, 9.0)))
    assert rows[0].size == 0
    assert rows[1].size == 0


def test_close_pair_mutual():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    table = build_neighbor_table(build_grid(pos, 9.0))
    lists = symmetric_rows(2, *table_pairs(table))
    assert lists[0].tolist() == [1]
    assert lists[1].tolist() == [0]


@pytest.mark.parametrize("d_cut", [9.0, 5.0, 8.0])
def test_filtered_table_matches_brute_force(rng, d_cut):
    pos = rng.uniform(0, 28, (500, 3))
    table = build_neighbor_table(build_grid(pos, d_cut))
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
    hashed = build_neighbor_table(build_grid(pos, 8.0))
    brute = brute_table(pos, 8.0)
    for table in (hashed, brute):
        for row in list(table) + list(cutoff_lists(table, pos, 6.0)):
            assert np.all(np.diff(row) > 0)


def test_superset_and_self_exclusion(rng):
    pos = rng.uniform(0, 22, (300, 3))
    table = build_neighbor_table(build_grid(pos, 8.0))
    lists = symmetric_rows(300, *table_pairs(table))
    want = brute_neighbor_sets(pos, 8.0)
    for i in range(300):
        row = set(lists[i].tolist())
        assert i not in row
        assert row >= want[i]


def test_filtered_symmetry(rng):
    pos = rng.uniform(0, 25, (250, 3))
    table = build_neighbor_table(build_grid(pos, 7.0))
    lists = cutoff_lists(table, pos, 7.0)
    for i in range(250):
        for j in lists[i]:
            assert i in lists[j]


def test_pairs_unordered_once(rng):
    pos = rng.uniform(0, 18, (150, 3))
    table = build_neighbor_table(build_grid(pos, 6.0))
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
            table = build_neighbor_table(build_grid(pos, 5.0))
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


def face_diagonal(cut):
    """(v, v, 0) whose squared norm, summed as ``extract_pairs`` sums it,
    is at most ``cut**2`` and within a few ulps of it."""
    v = cut / np.sqrt(2.0)
    while squared_norms(np.array([[v, v, 0.0]]))[0] > cut * cut:
        v = np.nextafter(v, 0.0)
    return np.array([v, v, 0.0])


@st.composite
def clouds(draw):
    """A random cluster, or a random lattice patch holding a pair exactly
    at one of the cutoffs along an axis and one at it along a face
    diagonal.  The lattice step is 0.5 A or that cutoff's cell edge, so
    atoms also sit on exact multiples of the edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 150))
        return rng.uniform(0.0, draw(st.floats(1.0, 30.0)), (n, 3))
    cut = draw(st.sampled_from(CUTOFFS + REACHES))
    step = draw(st.sampled_from([0.5, EDGE_PER_CUTOFF * cut]))
    pts = step * rng.integers(0, 25, (draw(st.integers(0, 120)), 3))
    fixed = np.array([[0.0, 0.0, 0.0], [cut, 0.0, 0.0], face_diagonal(cut)])
    # with the cell edge as step, 2 * step is cut * (1 + 1e-9): a lattice
    # atom there would clash with the pair atom at cut, so it is left out
    gap = np.linalg.norm(pts[:, None, :] - fixed[None], axis=2).min(axis=1)
    return np.unique(np.concatenate([fixed, pts[gap >= MIN_DISTANCE]]), axis=0)


def assert_same_pairs(table, pos, d_cut, want):
    """``table`` gives exactly the pairs ``want`` = (i, j, d), in order."""
    i, j = table_pairs(table)
    assert np.all(i < j)
    assert np.all(np.lexsort((j, i)) == np.arange(len(i)))
    i, j, d2, _ = extract_pairs(pos, table, d_cut)
    assert np.array_equal(i, want[0]) and np.array_equal(j, want[1]), d_cut
    assert np.array_equal(np.sqrt(d2), want[2])


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_half_table_pairs_equal_brute_force(pos):
    """Cell-list and brute-force half tables give exactly the brute-force
    cut-off pairs, element for element and in the same (i, j) order."""
    for d_cut in CUTOFFS:
        want = brute_force_pairs(pos, d_cut)
        brute = brute_table(pos, d_cut)
        i, j = table_pairs(brute)
        assert np.array_equal(i, want[0]) and np.array_equal(j, want[1]), d_cut
        for table in (build_neighbor_table(build_grid(pos, d_cut)), brute):
            assert_same_pairs(table, pos, d_cut, want)


@settings(max_examples=30, deadline=None)
@given(clouds())
def test_shifted_cloud_gives_the_same_pairs(pos):
    """1e4 A from the origin the binning rounds coarser, yet the pairs are
    those of the cloud at the origin.  ``near`` is the cloud on the grid
    of the shifted coordinates, so ``far - near`` is exactly 1e4 and both
    give the same differences, bit for bit."""
    far = pos + 1e4
    near = far - 1e4
    for d_cut in CUTOFFS:
        want = brute_force_pairs(near, d_cut)
        assert_same_pairs(build_neighbor_table(build_grid(near, d_cut)), near, d_cut, want)
        assert_same_pairs(build_neighbor_table(build_grid(far, d_cut)), far, d_cut, want)


@pytest.mark.parametrize("d_cut", [5.0, 9.0])
def test_dense_cluster_matches_brute_table(d_cut):
    """Protein packing, 0.116 atoms per cubic Angstrom: about 10 atoms per
    cell at 9 A."""
    n = 2000
    pos = np.random.default_rng(11).uniform(0.0, (n / 0.116) ** (1 / 3), (n, 3))
    want = extract_pairs(pos, brute_table(pos, d_cut), d_cut)
    got = extract_pairs(pos, build_neighbor_table(build_grid(pos, d_cut)), d_cut)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_pair_at_cutoff_is_never_three_cells_apart():
    """Atoms 1 and 2 are exactly 4 A apart as ``extract_pairs`` computes it.
    At an edge of exactly 2 A, x1 / edge rounds just below 1 and x2 / edge
    is 3, three cells apart; the edge slack keeps them two apart."""
    pos = np.array([[0.0, 0.0, 0.0], [np.nextafter(2.0, 0.0), 0.0, 0.0], [6.0, 0.0, 0.0]])
    assert (pos[2] - pos[1]) @ (pos[2] - pos[1]) == 16.0
    assert_same_pairs(build_neighbor_table(build_grid(pos, 4.0)), pos, 4.0,
                      brute_force_pairs(pos, 4.0))


def test_one_cell_holds_every_pair(rng):
    pos = rng.uniform(0.0, 0.4 * 9.0, (40, 3))
    grid = build_grid(pos, 9.0)
    assert len(grid.occupied) == 1
    i, j = table_pairs(build_neighbor_table(grid))
    bi, bj = np.triu_indices(40, k=1)
    assert np.array_equal(i, bi) and np.array_equal(j, bj)


def cavity_lists(pos, cutoffs, probe=1.4, use_hash=True):
    """The cavity rows one solvated ``Field.evaluate`` hands to the SASA
    pass, for unit-radius atoms at ``Cutoffs(*cutoffs)``."""
    n = len(pos)
    params = AtomParams(q=np.zeros(n), R=np.ones(n), eps=np.zeros(n),
                        gamma=np.zeros(n))
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
    n = len(pos)
    d2 = squared_norms((pos[:, None, :] - pos[None, :, :]).reshape(-1, 3)).reshape(n, n)
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
        if squared_norms(v[None])[0] == target:
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


def assert_same_rows(got, want):
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.neighbors, want.neighbors)


@settings(max_examples=60, deadline=None)
@given(clouds(), st.sampled_from(PROBES), st.booleans(), st.integers(0, 2**32 - 1))
def test_cavity_rows_equal_the_oracle(pos, probe, use_hash, seed):
    """The native reach test and rows are bitwise the numpy oracle's on the
    pairs of a hashed or brute table at the largest reach, with offset
    radii of 1-2 A plus the probe, so some pairs are out of reach."""
    r_off = np.random.default_rng(seed).uniform(1.0, 2.0, len(pos)) + probe
    cut = reach(r_off.max(), r_off.max(), DELTA_R)
    table = build_neighbor_table(build_grid(pos, cut)) if use_hash else brute_table(pos, cut)
    pairs = extract_pairs(pos, table, cut)[:3]
    assert_same_rows(filtered_lists(*pairs, r_off, DELTA_R),
                     oracles.filtered_lists(*pairs, r_off, DELTA_R))


@pytest.mark.parametrize("case", ["no pairs", "isolated atoms", "out of reach"])
def test_cavity_rows_of_empty_rows(case):
    """Atoms 0-1 and 2-3 are 3 A apart, atom 4 far from all: no pairs at
    all, an atom with no pair, and pairs none of which is in reach."""
    pos = np.array([[0.0, 0, 0], [3.0, 0, 0], [0, 9.0, 0], [3.0, 9.0, 0], [50.0, 0, 0]])
    i, j, d2, _ = extract_pairs(pos, brute_table(pos, 12.0), 12.0)
    r_off = np.full(5, 0.5 if case == "out of reach" else 2.0)
    if case == "no pairs":
        i, j, d2 = i[:0], j[:0], d2[:0]
    got = filtered_lists(i, j, d2, r_off, DELTA_R)
    assert_same_rows(got, oracles.filtered_lists(i, j, d2, r_off, DELTA_R))
    want = [[1], [0], [3], [2], []] if case == "isolated atoms" else [[]] * 5
    assert [row.tolist() for row in got] == want


def test_cavity_rows_refuse_pairs_outside_the_atoms():
    """An index past the atoms or below 0 is refused, in reach or not,
    before anything is read; pair arrays of unequal lengths, and a
    float32 ``d2``, are refused too."""
    r_off = np.full(3, 2.0)
    d2 = np.array([1.0, 100.0])
    for j in ([1, 5], [1, -1], [2, 3]):
        with pytest.raises(ConfigurationError, match="pairs name atoms outside the 3 atoms"):
            filtered_lists(np.array([0, 1]), np.array(j), d2, r_off, DELTA_R)
    with pytest.raises(ConfigurationError, match="do not match"):
        filtered_lists(np.array([0, 1]), np.array([1, 2]), d2[:1], r_off, DELTA_R)
    with pytest.raises(ctypes.ArgumentError):
        filtered_lists(np.array([0, 1]), np.array([1, 2]), d2.astype(np.float32), r_off,
                       DELTA_R)


def test_workspace_grows_only_for_a_larger_request():
    """The same memory for the same or a smaller size, also within the
    eighth of headroom every buffer is made with; a larger request
    replaces the buffer.  ``whole`` is the buffer, or empty when there is
    none of the dtype."""
    work = Workspace()
    assert work.whole("ij", np.int64).shape == (0,)
    first = work.take("ij", (2, 40), np.int64)
    assert first.shape == (2, 40) and first.flags.c_contiguous and first.flags.writeable
    assert work.buffers["ij"].size == 80 + 10
    smaller = work.take("ij", (2, 10), np.int64)
    assert smaller.ctypes.data == first.ctypes.data and smaller.flags.c_contiguous
    within = work.take("ij", (2, 45), np.int64)
    assert within.ctypes.data == first.ctypes.data
    assert work.buffers["ij"].size == 90
    whole = work.whole("ij", np.int64)
    assert whole.size == 90 and whole.ctypes.data == first.ctypes.data
    assert work.whole("ij", np.float64).shape == (0,)
    assert work.take("ij", (2, 48), np.int64).shape == (2, 48)
    assert work.buffers["ij"].size == 96 + 12
    assert work.take("ij", (3,), np.float64).dtype == np.float64
    assert work.buffers["ij"].dtype == np.float64
    assert list(work.buffers) == ["ij"]
