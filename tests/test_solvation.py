import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinefold import kcm, native, solvation
from kinefold.chain import build_chain, forward_kinematics
from kinefold.errors import ConfigurationError
from kinefold.forcefield import AtomParams
from kinefold.kcm import Field, FieldConfig
from kinefold.solvation import (
    SampleSphere,
    SolvationConfig,
    check_accumulator,
    generate_samples,
    offset_radii,
    sasa_pass,
    solvation_forces,
)
from kinefold.spatial import (
    Cutoffs,
    NeighborTable,
    build_grid,
    build_neighbor_table,
    reach,
)

from . import oracles
from .conftest import (
    UniformWeights,
    make_field,
    neighbor_table,
    passes_by_row_parts,
    row_parts,
)


def make_params(n, rng=None, gamma=None, radius=None):
    if rng is None:
        r = np.full(n, 1.6) if radius is None else radius
        g = np.full(n, 1.0) if gamma is None else gamma
    else:
        r = rng.uniform(1.2, 2.0, n) if radius is None else radius
        g = rng.uniform(-0.2, 0.05, n) if gamma is None else gamma
    return AtomParams(q=np.zeros(n), R=r, eps=np.full(n, 0.1), gamma=g)


def all_neighbors(n):
    return neighbor_table([[j for j in range(n) if j != i] for i in range(n)])


# ---- sampling -------------------------------------------------------------

def test_minimum_sample_count():
    sp = generate_samples(12)
    assert sp.n == 12
    with pytest.raises(ConfigurationError):
        generate_samples(11)


def test_samples_deterministic():
    a = generate_samples(256)
    b = generate_samples(256)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("n", [12, 128, 1024, 4096])
def test_sample_counts_and_norms(n):
    sp = generate_samples(n)
    assert sp.points.shape == (n, 3)
    assert np.abs(np.linalg.norm(sp.points, axis=1) - 1.0).max() < 1e-12


def test_orbit_counts_proportional_to_circumference():
    n = 1024
    sp = generate_samples(n)
    z = np.round(sp.points[:, 2], 9)
    orbits, counts = np.unique(z, return_counts=True)
    sin_t = np.sqrt(1.0 - orbits**2)
    ideal = n * sin_t / sin_t.sum()
    assert np.abs(counts - ideal).max() <= 1.0


def test_centroid_near_origin():
    for n in (64, 1024, 8192):
        sp = generate_samples(n)
        assert np.linalg.norm(sp.points.mean(axis=0)) < 1.0 / math.sqrt(n)


def test_octant_uniformity():
    sp = generate_samples(4096)
    signs = sp.points >= 0
    octant = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2] * 1
    counts = np.bincount(octant.astype(int), minlength=8)
    assert np.abs(counts - 4096 / 8).max() <= 0.05 * (4096 / 8)


# ---- exposure counting ----------------------------------------------------

def test_isolated_atom_fully_exposed():
    params = make_params(1)
    cfg = SolvationConfig(samples=256)
    sp = generate_samples(256)
    res, states = sasa_pass(np.zeros((1, 3)), params, neighbor_table([[]]), sp, cfg)
    assert res.f_exp[0] == 1.0
    r_off = 1.6 + cfg.probe_radius
    assert res.a_exp[0] == pytest.approx(4 * math.pi * r_off**2, rel=1e-12)
    assert (states.counts == 0).all()


def test_engulfed_atom_fully_buried():
    params = AtomParams(q=np.zeros(2), R=np.array([0.4, 3.0]),
                        eps=np.full(2, 0.1), gamma=np.ones(2))
    pos = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cfg = SolvationConfig(samples=256)
    sp = generate_samples(256)
    res, _ = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    assert res.f_exp[0] == 0.0
    assert res.a_exp[0] == 0.0


def test_two_sphere_cap_analytic():
    params = make_params(2, radius=np.full(2, 1.6))  # offset radius 3.0
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    cfg = SolvationConfig(samples=10_000)
    sp = generate_samples(10_000)
    res, _ = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    want = oracles.two_sphere_exposed_area(3.0, 3.0)
    assert want == pytest.approx(27 * math.pi)
    for a in range(2):
        assert abs(res.a_exp[a] - want) / want < 0.01


def test_two_sphere_error_shrinks_with_samples():
    params = make_params(2, radius=np.full(2, 1.6))
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    want = 27 * math.pi
    errs = []
    for n in (100, 1000, 10_000):
        sp = generate_samples(n)
        res, _ = sasa_pass(pos, params, all_neighbors(2), sp,
                           SolvationConfig(samples=n))
        errs.append(abs(res.a_exp.mean() - want) / want)
    assert errs[2] < errs[0]
    assert errs[2] < 0.01


def test_exposure_quantized(rng):
    n = 6
    pos = rng.uniform(0, 5, (n, 3))
    params = make_params(n, rng)
    cfg = SolvationConfig(samples=1024)
    sp = generate_samples(1024)
    res, _ = sasa_pass(pos, params, all_neighbors(n), sp, cfg)
    assert np.all(res.f_exp >= 0) and np.all(res.f_exp <= 1)
    assert np.array_equal(res.f_exp * 1024, np.round(res.f_exp * 1024))


def test_critical_neighbor_bookkeeping(rng):
    """The states are the counts alone.  The oracle names one coverer for
    exactly the count-1 samples, and the force pass, which finds that
    coverer again in the row, gives the oracle's forces bitwise."""
    n = 5
    pos = rng.uniform(0, 4.5, (n, 3))
    params = make_params(n, rng)
    sp = generate_samples(512)
    states, critical = assert_matches_distance_oracle(
        pos, params, all_neighbors(n), sp, SolvationConfig(samples=512))
    singly = states.counts == 1
    assert singly.any()
    assert (critical[singly] >= 0).all()
    assert (critical[~singly] == -1).all()


def test_g_cav_matches_direct_recount(rng):
    n = 7
    pos = rng.uniform(0, 5.5, (n, 3))
    params = make_params(n, rng)
    cfg = SolvationConfig(samples=512)
    sp = generate_samples(512)
    res, _ = sasa_pass(pos, params, all_neighbors(n), sp, cfg)
    want = oracles.recounted_g_cav(pos, params, all_neighbors(n), sp, cfg)
    assert res.g_cav == pytest.approx(want, rel=1e-12)


# ---- forces ---------------------------------------------------------------

def test_far_apart_no_forces():
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0]])
    cfg = SolvationConfig(samples=256)
    sp = generate_samples(256)
    nbrs = neighbor_table([[], []])  # beyond the cavity cutoff
    res, states = sasa_pass(pos, params, nbrs, sp, cfg)
    f = solvation_forces(pos, params, nbrs, sp, states, cfg)
    assert np.all(f == 0.0)


def test_symmetric_pair_forces_mirror():
    params = make_params(2, radius=np.full(2, 1.6), gamma=np.full(2, 0.05))
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    cfg = SolvationConfig(samples=2048)
    sp = generate_samples(2048)
    _, states = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    f = solvation_forces(pos, params, all_neighbors(2), sp, states, cfg)
    r_off = offset_radii(params, cfg)[0]
    g0 = 4 * math.pi * params.gamma[0] * r_off**2
    quantum = abs(2 * g0 / (2048 * cfg.delta_r)) * (1 + 1e-9)
    assert abs(f[0, 0] + f[1, 0]) <= quantum
    assert np.abs(f[:, 1:]).max() <= quantum


def test_momentum_exactly_zero(rng):
    for _ in range(5):
        n = int(rng.integers(3, 7))
        pos = rng.uniform(0, 4.5, (n, 3))
        params = make_params(n, rng)
        cfg = SolvationConfig(samples=512)
        sp = generate_samples(512)
        _, states = sasa_pass(pos, params, all_neighbors(n), sp, cfg)
        f = solvation_forces(pos, params, all_neighbors(n), sp, states, cfg)
        total = f.sum(axis=0)
        assert np.all(total == 0.0)  # bitwise, by fixed-point construction


def test_incremental_matches_naive_recount_bitwise(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pos = rng.uniform(0, 4.5, (n, 3))
        params = make_params(n, rng)
        cfg = SolvationConfig(samples=256)
        sp = generate_samples(256)
        _, states = sasa_pass(pos, params, all_neighbors(n), sp, cfg)
        fast = solvation_forces(pos, params, all_neighbors(n), sp, states, cfg)
        slow = oracles.naive_solvation_forces(pos, params, all_neighbors(n), sp, cfg)
        assert np.array_equal(fast, slow)


def test_forces_match_energy_forward_difference(rng):
    cfg = SolvationConfig(samples=1024)
    sp = generate_samples(1024)
    for _ in range(4):
        pos = rng.uniform(0, 4.0, (5, 3))
        params = make_params(5, rng)
        nbrs = all_neighbors(5)
        _, states = sasa_pass(pos, params, nbrs, sp, cfg)
        f = solvation_forces(pos, params, nbrs, sp, states, cfg)
        r_off = offset_radii(params, cfg)
        g0_max = float(np.max(np.abs(4 * math.pi * params.gamma * r_off**2)))
        tol = 4.0 * g0_max / (sp.n * cfg.delta_r)
        base, _ = sasa_pass(pos, params, nbrs, sp, cfg)
        for a in range(5):
            for s in range(3):
                moved = pos.copy()
                moved[a, s] += cfg.delta_r
                res, _ = sasa_pass(moved, params, nbrs, sp, cfg)
                fd = -(res.g_cav - base.g_cav) / cfg.delta_r
                assert abs(f[a, s] - fd) <= tol


def test_block_partition_identical(rng):
    """Both passes run over row partitions (each part keeps the rows of
    one contiguous atom run, the others empty) give bitwise the states,
    f_exp and, summed, the forces of one pass over the whole table."""
    n = 24
    pos = rng.uniform(0, 9, (n, 3))
    params = make_params(n, rng)
    nbrs = neighbor_table([np.sort(rng.choice([j for j in range(n) if j != i],
                                              size=min(10, n - 1), replace=False))
                           for i in range(n)])
    sp = generate_samples(512)
    cfg = SolvationConfig(samples=512)
    res1, st1 = sasa_pass(pos, params, nbrs, sp, cfg)
    f1 = solvation_forces(pos, params, nbrs, sp, st1, cfg)
    _, clamped1 = sasa_pass(pos, params, nbrs, sp, cfg, area_only=True)
    for parts in (2, 4, 6, 24):
        f_exp, counts, clamped, f_b = passes_by_row_parts(pos, params, nbrs, sp, cfg,
                                                          parts)
        assert np.array_equal(st1.counts, counts)
        assert np.array_equal(res1.f_exp, f_exp)
        assert np.array_equal(clamped1.counts, clamped)
        assert np.array_equal(f1, f_b)  # fixed point: order independent


# ---- the compiled passes vs the distance test -----------------------------

def assert_area_only_agrees(pos, params, nbrs, sp, cfg):
    """The area-only pass against the full one: bitwise the same f_exp,
    a_exp and g_cav, and the counts clamped at 1.  Returns the area-only
    states."""
    full, states = sasa_pass(pos, params, nbrs, sp, cfg)
    area, clamped = sasa_pass(pos, params, nbrs, sp, cfg, area_only=True)
    assert np.array_equal(area.f_exp, full.f_exp)
    assert np.array_equal(area.a_exp, full.a_exp)
    assert area.g_cav == full.g_cav
    assert np.array_equal(clamped.counts, np.minimum(states.counts, 1))
    assert clamped.area_only and not states.area_only
    return clamped


def assert_matches_distance_oracle(pos, params, nbrs, sp, cfg):
    """Both passes and both kinds of states against the distance oracle,
    and the forces against the displaced recount and against the pruned
    pass on the oracle's critical neighbors.  Returns the states and the
    oracle's critical neighbors (the one coverer of each count-1 sample,
    else -1)."""
    res, states = sasa_pass(pos, params, nbrs, sp, cfg)
    counts, critical, f_exp = oracles.distance_exposure_states(pos, params, nbrs,
                                                               sp, cfg)
    assert np.array_equal(states.counts, counts)
    assert np.array_equal(res.f_exp, f_exp)
    assert_area_only_agrees(pos, params, nbrs, sp, cfg)
    try:
        want = oracles.naive_solvation_forces(pos, params, nbrs, sp, cfg)
    except ConfigurationError as refused:  # an unusable gamma: both refuse it
        with pytest.raises(ConfigurationError, match=re.escape(str(refused))):
            solvation_forces(pos, params, nbrs, sp, states, cfg)
    else:
        assert np.array_equal(oracles.critical_neighbor_forces(pos, params, nbrs, sp, cfg),
                              want)
        assert np.array_equal(solvation_forces(pos, params, nbrs, sp, states, cfg), want)
    return states, critical


def axis_sphere(n=128):
    """Geodesic samples after the six axis directions (rows 0-5: +x, +y,
    +z, -x, -y, -z), where the tie cases put exact boundary points."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    return SampleSphere(np.vstack([axes, generate_samples(n).points]))


# offset radii 2.0/2.5/3.0/3.5/4.0 are exact in binary with the 1.4 probe,
# so clusters on a half-Angstrom lattice hit tangencies and coincidences
_LATTICE_R = (0.6, 1.1, 1.6, 2.1, 2.6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                          st.integers(0, 12), st.sampled_from(_LATTICE_R),
                          st.floats(-0.2, 0.05)),
                min_size=2, max_size=7),
       st.none() | st.integers(0, 2**16))
def test_screened_coverage_matches_distance_oracle(atoms, jitter_seed):
    """Random clusters, on a lattice (ties) or jittered off it."""
    cell = np.array([a[:3] for a in atoms], float) * 0.5
    if jitter_seed is not None:
        cell += np.random.default_rng(jitter_seed).uniform(-0.3, 0.3, cell.shape)
    n = len(atoms)
    params = make_params(n, radius=np.array([a[3] for a in atoms]),
                         gamma=np.array([a[4] for a in atoms]))
    assert_matches_distance_oracle(cell, params, all_neighbors(n), axis_sphere(64),
                                   SolvationConfig(samples=70))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_boundary_samples_match_distance_oracle(seed, displaced):
    """Each neighbor's offset sphere passes through one sample of atom 0,
    as placed or, when ``displaced``, after its +delta_r move along one
    axis.  Rounding decides those samples, so the kernel must round each
    test exactly as the distance oracle does."""
    rng = np.random.default_rng(seed)
    n = 7
    sp = generate_samples(128)
    cfg = SolvationConfig(samples=128)
    params = make_params(n, rng)
    r_off = offset_radii(params, cfg)
    pos = np.empty((n, 3))
    pos[0] = rng.uniform(-20, 20, 3)
    for a, k in enumerate(rng.choice(sp.n, n - 1, replace=False), start=1):
        v = rng.normal(size=3)
        pos[a] = pos[0] + r_off[0] * sp.points[k] + r_off[a] * v / np.linalg.norm(v)
        if displaced:
            pos[a, rng.integers(3)] -= cfg.delta_r
    assert_matches_distance_oracle(pos, params, all_neighbors(n), sp, cfg)


# ---- nearest-first early exit --------------------------------------------
# Atom 0 has offset radius 2.0 at the origin; axis_sphere's sample 0 is its
# +x point (2, 0, 0), sample 1 its +y point (0, 2, 0).

def early_exit_states(neighbors, radii):
    """States of atom 0 among ``neighbors`` (centers), checked bitwise
    against the distance oracle, and the oracle's critical neighbors."""
    pos = np.vstack([np.zeros(3), neighbors])
    params = make_params(len(pos), radius=np.array([0.6, *radii]))
    return assert_matches_distance_oracle(pos, params, all_neighbors(len(pos)),
                                          axis_sphere(), SolvationConfig())


def test_far_coverer_is_critical_when_nearer_neighbors_miss():
    """Two near neighbors miss the +x sample and the farthest one, last in
    both index and distance order, covers it alone, tangent to atom 0's
    offset sphere there: both passes must scan past the misses to that far
    neighbor.  With only atom 0 solvated, each +delta_r move of the far
    neighbor uncovers that sample and nothing else, so its force is the
    one event per axis that the force pass can only find there."""
    centers = [[-1.0, 0.0, 0.0], [0.0, -1.5, 0.0], [5.0, 0.0, 0.0]]
    states, critical = early_exit_states(centers, [0.6, 0.6, 1.6])
    assert states.counts[0, 0] == 1 and critical[0, 0] == 3
    pos = np.vstack([np.zeros(3), centers])
    params = make_params(4, radius=np.array([0.6, 0.6, 0.6, 1.6]),
                         gamma=np.array([1.0, 0.0, 0.0, 0.0]))
    sp, cfg = axis_sphere(), SolvationConfig()
    _, states = sasa_pass(pos, params, all_neighbors(4), sp, cfg)
    f = solvation_forces(pos, params, all_neighbors(4), sp, states, cfg)
    assert np.array_equal(f, oracles.naive_solvation_forces(pos, params, all_neighbors(4),
                                                            sp, cfg))
    assert f[3, 0] < 0 and f[3, 0] == f[3, 1] == f[3, 2]


def test_three_coverers_count_two_without_critical():
    states, critical = early_exit_states(
        [[3.5, 0.0, 0.0], [3.0, 0.5, 0.0], [3.0, 0.0, 0.5]], [0.6, 0.6, 0.6])
    assert states.counts[0, 0] == 2 and critical[0, 0] == -1


def test_neighbors_at_equal_distance():
    """Neighbors 1 and 2, mirror images 3 A from atom 0, each alone cover
    the +y or the -y sample; neighbors 3 and 4, mirror images too, both
    cover the +x sample.  Whichever of a tied pair the scan takes first,
    the states are the same."""
    states, critical = early_exit_states([[0.0, 3.0, 0.0], [0.0, -3.0, 0.0],
                                          [2.9, 0.0, 0.768], [2.9, 0.0, -0.768]],
                                         [0.6] * 4)
    assert states.counts[0, 1] == 1 and critical[0, 1] == 1  # +y
    assert states.counts[0, 4] == 1 and critical[0, 4] == 2  # -y
    assert states.counts[0, 0] == 2 and critical[0, 0] == -1  # +x


# ---- previous coverers and four-slot steps --------------------------------

@pytest.mark.parametrize("length", range(10))
def test_rows_of_every_length_match_distance_oracle(length):
    """Atom 1's row holds ``length`` neighbors, so every remainder of the
    row's padding to four slots occurs.  They lie nearer the farther their
    index, so row slots and atom indices differ.  Atom 0, outside that
    row, engulfs atom 1: a padding slot that copies atom 0's center but
    kept its radius would cover every sample of atom 1."""
    n = 11
    pos = np.zeros((n, 3))
    pos[1] = [0.5, 0.0, 0.0]
    directions = generate_samples(12).points[:9]
    pos[2:] = pos[1] + (3.4 - 0.1 * np.arange(9))[:, None] * directions
    params = make_params(n, radius=np.array([3.0] + [0.6] * 10))
    rows = [[j for j in range(n) if j != i] for i in range(n)]
    rows[1] = list(range(2, 2 + length))
    states, _ = assert_matches_distance_oracle(pos, params, neighbor_table(rows),
                                               generate_samples(256),
                                               SolvationConfig(samples=256))
    assert set(states.counts[1]) == set(range(min(length, 2) + 1))


def test_previous_coverers_each_outcome():
    """Samples of atom 0 in the xy plane, in an order that gives the test
    of the two previous coverers every outcome.  Neighbors 1-5 lie 3 A out
    at 0, 10, 60, 180 and 190 degrees; each covers the samples within
    41.4 degrees of its direction."""
    angles = np.radians([0, 10, 60, 180, 190])
    neighbors = 3.0 * np.stack([np.cos(angles), np.sin(angles), 0 * angles], 1)
    pos = np.vstack([np.zeros(3), neighbors])
    params = make_params(6, radius=np.full(6, 0.6))
    theta = np.radians([
        120,  # count 0: no coverer at all
        5,    # count 2 (1, 2) after a count-0 sample
        -35,  # count 1 (1): only one previous coverer covers
        0,    # count 2: both previous coverers (of two samples back) cover
        30,   # 3 coverers: both previous cover
        50,   # count 2 (2, 3): only previous coverer 2 covers
        180,  # count 2 (4, 5): neither previous coverer covers
        200,  # count 2: both previous cover
        100,  # count 1 (3): neither previous coverer covers
        40,   # count 2 (1, 2, 3): the previous pair (4, 5) misses
    ])
    sphere = SampleSphere(np.stack([np.cos(theta), np.sin(theta), 0 * theta], 1))
    states, critical = assert_matches_distance_oracle(pos, params, all_neighbors(6),
                                                      sphere, SolvationConfig())
    assert list(states.counts[0]) == [0, 2, 1, 2, 2, 2, 2, 2, 1, 2]
    assert list(critical[0]) == [-1, -1, 1, -1, -1, -1, -1, -1, 3, -1]


def test_last_coverer_each_outcome():
    """Area-only samples of atom 0 in the xy plane, in an order that gives
    the test of the last coverer every outcome.  The neighbors lie 2.6,
    2.8, 3.0, 3.2 and 3.4 A out (row slots 0-4, atoms 5 down to 1) at 180,
    90, 0, 270 and 45 degrees; each covers the samples within 49.5, 45.6,
    41.4, 36.9 and 31.8 degrees of its direction.  Slot 4 is in the second
    four-slot step of the row."""
    distance = np.array([3.4, 3.2, 3.0, 2.8, 2.6])
    angles = np.radians([45, 270, 0, 90, 180])
    neighbors = distance[:, None] * np.stack([np.cos(angles), np.sin(angles),
                                              0 * angles], 1)
    pos = np.vstack([np.zeros(3), neighbors])
    params = make_params(6, radius=np.full(6, 0.6))
    theta = np.radians([
        180,  # the first sample's last coverer, slot 0, covers
        0,    # slot 0 misses: the scan finds slot 2
        10,   # the last coverer (slot 2) covers again
        135,  # slot 2 misses: the scan stops at slot 0, before slot 1
        43,   # slot 0 misses: only slot 4, in the second step, covers
        30,   # the last coverer (slot 4) covers; slot 2 does too
        300,  # slot 4 misses: the scan finds slot 3
        310,  # no coverer: count 0, the last coverer stays slot 3
        240,  # after that count-0 sample, slot 3 covers
        170,  # slot 3 misses: the scan finds slot 0
    ])
    sphere = SampleSphere(np.stack([np.cos(theta), np.sin(theta), 0 * theta], 1))
    cfg = SolvationConfig()
    states, _ = assert_matches_distance_oracle(pos, params, all_neighbors(6), sphere, cfg)
    assert list(states.counts[0]) == [1, 1, 1, 2, 1, 2, 1, 0, 1, 1]
    _, clamped = sasa_pass(pos, params, all_neighbors(6), sphere, cfg, area_only=True)
    assert list(clamped.counts[0]) == [1, 1, 1, 1, 1, 1, 1, 0, 1, 1]


def test_exposure_refuses_a_count_other_than_one_or_two():
    """``need`` is the number of coverers that settles a sample: 1 or 2."""
    lib = native.load()
    pos = np.zeros((1, 3))
    for need in (0, 3):
        status = lib.call("exposure", 1, pos, np.ones(1),
                          np.zeros(2, np.int64), np.zeros(0, np.int64),
                          generate_samples(12).points, 12, need,
                          np.zeros((1, 12), np.uint8), np.zeros(1, np.int64))
        assert status == native.REFUSED


def helix_rows(positions, params, cfg):
    """Ascending rows of every pair within the largest reach."""
    r_max = float(np.max(offset_radii(params, cfg)))
    cut = reach(r_max, r_max, cfg.delta_r)
    table = build_neighbor_table(build_grid(positions, cut))
    return oracles.cutoff_lists(table, positions, cut)


@pytest.mark.parametrize("jitter", [0.0, 30.0])
def test_helix_states_match_distance_oracle(param_set, jitter):
    """A 30-ALA helix, as built and with every phi/psi moved by up to
    +-30 degrees: bitwise the states of the unpruned distance pass."""
    chain = build_chain(["ALA"] * 30)
    rng = np.random.default_rng(30)
    phi = -57.0 + rng.uniform(-jitter, jitter, 30)
    psi = -47.0 + rng.uniform(-jitter, jitter, 30)
    pos = forward_kinematics(chain, chain.conf_from_backbone(phi, psi))
    params = param_set.resolve(chain)
    cfg = SolvationConfig()
    rows = helix_rows(pos, params, cfg)
    sp = generate_samples(cfg.samples)
    res, states = sasa_pass(pos, params, rows, sp, cfg)
    counts, _, f_exp = oracles.distance_exposure_states(pos, params, rows, sp, cfg)
    assert np.array_equal(states.counts, counts)
    assert np.array_equal(res.f_exp, f_exp)
    assert (counts == 2).any() and (counts == 1).any() and (counts == 0).any()
    assert_area_only_agrees(pos, params, rows, sp, cfg)
    assert np.array_equal(solvation_forces(pos, params, rows, sp, states, cfg),
                          oracles.critical_neighbor_forces(pos, params, rows, sp, cfg))


def test_chain_forces_match_naive_recount(param_set):
    chain = build_chain(["ALA"] * 4)
    pos = forward_kinematics(chain, chain.conf_from_backbone(-60.0, -40.0))
    params = param_set.resolve(chain)
    cfg = SolvationConfig(samples=256)
    sp = generate_samples(256)
    rows = helix_rows(pos, params, cfg)
    _, states = sasa_pass(pos, params, rows, sp, cfg)
    got = solvation_forces(pos, params, rows, sp, states, cfg)
    assert np.any(got != 0)
    assert np.array_equal(got, oracles.naive_solvation_forces(pos, params, rows, sp, cfg))


def test_single_sample_without_a_coverer_is_refused():
    """States whose count-1 sample no neighbor in its row covers do not
    belong to these rows and positions: one exposed sample's count set to
    1 sends the force pass's search through the whole row in vain."""
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    sp = generate_samples(12)
    cfg = SolvationConfig(samples=12)
    _, states = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    exposed = np.flatnonzero(states.counts[0] == 0)
    states.counts[0, exposed[-1]] = 1
    with pytest.raises(ConfigurationError, match="singly covered sample has no coverer"):
        solvation_forces(pos, params, all_neighbors(2), sp, states, cfg)


def test_area_only_states_are_refused_by_the_force_pass():
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    sp = generate_samples(12)
    cfg = SolvationConfig(samples=12)
    _, states = sasa_pass(pos, params, all_neighbors(2), sp, cfg, area_only=True)
    with pytest.raises(ConfigurationError, match="area-only exposure states"):
        solvation_forces(pos, params, all_neighbors(2), sp, states, cfg)


def test_rows_outside_the_atoms_are_refused():
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    with pytest.raises(ConfigurationError, match="do not index the 2 atoms"):
        sasa_pass(pos, params, neighbor_table([[1], [2]]), generate_samples(12),
                  SolvationConfig(samples=12))


def test_tangent_spheres_tie_is_covered():
    params = make_params(2, radius=np.full(2, 1.6))   # offset radius 3.0
    pos = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
    states, critical = assert_matches_distance_oracle(pos, params, all_neighbors(2),
                                                      axis_sphere(), SolvationConfig())
    assert states.counts[0, 0] == 1 and critical[0, 0] == 1  # +x
    assert states.counts[1, 3] == 1 and critical[1, 3] == 0  # -x
    assert states.counts[0, 1:].max() == 0


@pytest.mark.parametrize("radius, pos", [
    # coincident centers, equal radii: every sample sits on the threshold
    ([1.6, 1.6, 1.1], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 2.0, 3.0]]),
    # atom 0 engulfed by atom 1
    ([0.4, 3.0, 1.6], [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 5.0, 0.0]]),
], ids=["coincident", "engulfed"])
def test_degenerate_overlaps_match_oracle(radius, pos):
    params = make_params(3, radius=np.array(radius))
    assert_matches_distance_oracle(np.array(pos), params, all_neighbors(3),
                                   axis_sphere(), SolvationConfig())


def test_neighbor_at_exact_cutoff_matches_oracle():
    """Offset radius 4.0 on both atoms of a pair 8.0 A apart: the pair sits
    on an 8.0 A table cutoff and its spheres touch at one sample."""
    params = make_params(3, radius=np.full(3, 2.6))
    pos = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0], [0.0, 0.0, 8.0]])
    cfg = SolvationConfig()
    for table in (build_neighbor_table(build_grid(pos, 8.0)),
                  oracles.brute_table(pos, 8.0)):
        nbrs = oracles.cutoff_lists(table, pos, 8.0)
        assert nbrs[0].tolist() == [1, 2]
        states, critical = assert_matches_distance_oracle(pos, params, nbrs,
                                                          axis_sphere(), cfg)
        assert states.counts[0, 0] == states.counts[0, 2] == 1
        assert critical[0, 0] == 1 and critical[0, 2] == 2


@pytest.mark.parametrize("parts", [1, 2], ids=["whole", "two-parts"])
def test_sparse_rows_and_zero_gamma_match_oracle(parts):
    """Atoms with gamma = 0 and atoms with empty rows interleave with the
    active ones, so the force pass gathers the rows of a non-contiguous
    atom subset out of the table: the whole table, and each part of a row
    partition, which empties the rows of the other part's atoms too."""
    rng = np.random.default_rng(11)
    n = 12
    lone = [2, 7, 8]
    pos = rng.uniform(0, 5.0, (n, 3))
    pos[lone] = [[40.0, 0.0, 0.0], [0.0, 40.0, 0.0], [0.0, 0.0, 40.0]]
    gamma = rng.uniform(-0.2, 0.05, n)
    gamma[[1, 4, 10]] = 0.0
    params = make_params(n, radius=rng.uniform(1.2, 2.0, n), gamma=gamma)
    rows = [[] if i in lone else [j for j in range(n) if j != i and j not in lone]
            for i in range(n)]
    nbrs = neighbor_table(rows)
    active = np.flatnonzero((np.diff(nbrs.offsets) > 0) & (gamma != 0))
    assert np.any(np.diff(active) > 1)
    for _, _, part in row_parts(nbrs, parts):
        assert_matches_distance_oracle(pos, params, part, generate_samples(512),
                                       SolvationConfig(samples=512))


def test_neighbor_reaching_only_when_displaced():
    """The neighbor sits delta_r/2 beyond tangency on atom 0's -x side: it
    covers nothing, but its +x displacement covers atom 0's -x sample, so
    the force pass must not drop it as out of reach."""
    params = make_params(2, radius=np.full(2, 1.6))   # offset radius 3.0
    cfg = SolvationConfig()
    pos = np.array([[0.0, 0.0, 0.0], [-6.0 - cfg.delta_r / 2, 0.0, 0.0]])
    sp = axis_sphere()
    states, _ = assert_matches_distance_oracle(pos, params, all_neighbors(2), sp, cfg)
    assert states.counts.max() == 0
    f = solvation_forces(pos, params, all_neighbors(2), sp, states, cfg)
    assert f[0, 0] != 0 and f[1, 0] == -f[0, 0]


# ---- the reach rule at the Field level ------------------------------------

def reach_case(name):
    """(positions, params without pair terms, probe, cutoffs, sphere) for
    one reach case."""
    rng = np.random.default_rng(5)
    if name == "displaced-only":
        # test_neighbor_reaching_only_when_displaced, through a Field
        pos = np.array([[0.0, 0.0, 0.0], [-6.0 - SolvationConfig().delta_r / 2, 0.0, 0.0]])
        params = make_params(2, radius=np.full(2, 1.6))
        probe, cutoffs, sphere = 1.4, {}, axis_sphere()
    else:
        pos = rng.uniform(0.0, 12.0, (40, 3))
        params = make_params(40, rng)
        sphere = generate_samples(256)
        # probe 3.0: 2 (R_max + probe) is about 9.8 A, past the default
        # cutoffs; cutoffs 3 and 2 A sit below the reach at probe 1.4
        probe, cutoffs = {"probe-3": (3.0, {}),
                          "short-cutoffs": (1.4, {"elec": 3.0, "vdw": 2.0})}[name]
    zero = np.zeros(len(pos))
    return pos, replace(params, q=zero, eps=zero), probe, cutoffs, sphere


@pytest.mark.parametrize("field_type", [Field, oracles.BruteField],
                         ids=["hashed", "brute"])
@pytest.mark.parametrize("name", ["probe-3", "short-cutoffs", "displaced-only"])
def test_field_reach_rows_match_all_pairs(field_type, name):
    """A solvated ``evaluate`` keeps only the pairs within reach, which
    sets the table cutoff whenever it exceeds the pair-term cutoffs, and
    gives bitwise the SASA, G_cav and forces of both passes run on
    all-pairs rows."""
    pos, params, probe, cutoffs, sp = reach_case(name)
    cfg = SolvationConfig(probe_radius=probe, samples=sp.n)
    cut = Cutoffs(**cutoffs)
    fld = field_type(params, UniformWeights(),
                     FieldConfig(solvation=True, cutoffs=cut, solvation_cfg=cfg))
    fld._sphere = sp  # the lazily built sphere, set ahead of its first use
    r_max = float(np.max(offset_radii(params, cfg)))
    rc = reach(r_max, r_max, cfg.delta_r)
    assert fld.table_cutoff == max(cut.elec, cut.vdw, rc)
    assert (fld.table_cutoff == rc) == (name != "displaced-only")
    got = fld.evaluate(pos)
    nbrs = all_neighbors(len(pos))
    want, states = sasa_pass(pos, params, nbrs, sp, cfg)
    assert np.array_equal(got.sasa.f_exp, want.f_exp)
    assert np.array_equal(got.sasa.a_exp, want.a_exp)
    assert got.energy.g_cav == want.g_cav
    area = fld.evaluate(pos, energy_only=True)
    assert np.array_equal(area.sasa.f_exp, want.f_exp)
    assert np.array_equal(area.sasa.a_exp, want.a_exp)
    assert area.energy.g_cav == want.g_cav
    forces = solvation_forces(pos, params, nbrs, sp, states, cfg)
    assert np.any(forces != 0)
    assert np.array_equal(got.forces, forces)


def test_energy_only_evaluations_pass_area_only(param_set, monkeypatch):
    """Energy-only evaluations (scans, ``single_point``, ``kinefold sasa``)
    ask ``sasa_pass`` for the area alone; force evaluations for the full
    states."""
    chain = build_chain(["ALA"] * 3)
    fld = Field(param_set.resolve(chain), UniformWeights(),
                FieldConfig(solvation=True, solvation_cfg=SolvationConfig(samples=64)))
    seen = []

    def spy(*args, area_only=False):
        seen.append(area_only)
        return sasa_pass(*args, area_only=area_only)

    monkeypatch.setattr(kcm, "sasa_pass", spy)
    pos = forward_kinematics(chain, chain.conf_zp())
    fld.evaluate(pos, energy_only=True)
    fld.evaluate(pos)
    assert seen == [True, False]


def test_each_pass_is_one_native_call(param_set, monkeypatch):
    """A solvated evaluation of the 301-atom 30-ALA helix runs each SASA
    kernel once over every atom; an energy-only one runs exposure once."""
    chain = build_chain(["ALA"] * 30)
    assert chain.n_atoms == 301
    fld = make_field(chain, param_set, solvation=True,
                     solvation_cfg=SolvationConfig(samples=64))
    pos = forward_kinematics(chain, chain.conf_from_backbone(-57.0, -47.0))
    names = []
    call = native.Native.call

    def spy(self, name, *args):
        names.append(name)
        return call(self, name, *args)

    monkeypatch.setattr(native.Native, "call", spy)
    fld.evaluate(pos)
    assert [name for name in names if name in ("exposure", "force_events")] == [
        "exposure", "force_events"]
    names.clear()
    fld.evaluate(pos, energy_only=True)
    assert [name for name in names if name in ("exposure", "force_events")] == [
        "exposure"]


def test_accumulator_bound():
    check_accumulator(1024, 2000, 2**37)
    with pytest.raises(ConfigurationError,
                       match="2048 samples x .2 x 40000 neighbors"):
        check_accumulator(2048, 40_000, 2**37)


def test_forces_refuse_overflowing_accumulator():
    """The guard fires before any sample is touched: one row of 2**16
    copies of the other atom, over 1024 samples, bounds the accumulator
    past 2**63."""
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    sp, cfg = generate_samples(1024), SolvationConfig(samples=1024)
    _, states = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    long_row = neighbor_table([[1] * 2**16, [0]])
    with pytest.raises(ConfigurationError,
                       match=r"1024 samples x \(2 x 65536 neighbors \+ 1\)"):
        solvation_forces(pos, params, long_row, sp, states, cfg)


def test_forces_check_rows_before_bounding_the_accumulator():
    """A table whose last offset runs far past its neighbor array is
    refused as a table, not as an accumulator that could overflow."""
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    sp, cfg = generate_samples(12), SolvationConfig(samples=12)
    _, states = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    overrun = NeighborTable(offsets=np.array([0, 1, 2**40]), neighbors=np.array([1, 0]))
    with pytest.raises(ConfigurationError, match="neighbor rows do not index the 2 atoms"):
        solvation_forces(pos, params, overrun, sp, states, cfg)


@pytest.mark.parametrize("gamma", [5e-324, 2.2250738585072014e-308, float("nan"), -math.inf])
def test_unusable_surface_tension_refused(gamma):
    """A subnormal gamma gives a subnormal or zero fixed-point quantum, and
    a non-finite one none at all: the weights would wrap to INT64_MIN, so
    the compiled and the naive force passes both refuse."""
    params = make_params(4, gamma=np.full(4, gamma))
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]])
    cfg = SolvationConfig(samples=64)
    sp = generate_samples(64)
    _, states = sasa_pass(pos, params, all_neighbors(4), sp, cfg)
    with pytest.raises(ConfigurationError, match="not a normal float"):
        solvation_forces(pos, params, all_neighbors(4), sp, states, cfg)
    with pytest.raises(ConfigurationError, match="not a normal float"):
        oracles.naive_solvation_forces(pos, params, all_neighbors(4), sp, cfg)


def test_smallest_normal_quantum_agrees_bitwise(rng):
    """The smallest gamma with a normal quantum still gives the naive
    recount's forces bit for bit."""
    cfg = SolvationConfig(samples=512)
    sp = generate_samples(512)
    r_off = 1.6 + cfg.probe_radius
    gamma = 1.5 * 2.0**-986 * sp.n * cfg.delta_r / (4.0 * math.pi * r_off * r_off)
    params = make_params(5, gamma=np.full(5, gamma))
    _, quantum = solvation._force_quantum(params, offset_radii(params, cfg), sp.n,
                                          cfg.delta_r)
    assert quantum == sys.float_info.min
    pos = rng.uniform(0, 4.5, (5, 3))
    _, states = sasa_pass(pos, params, all_neighbors(5), sp, cfg)
    fast = solvation_forces(pos, params, all_neighbors(5), sp, states, cfg)
    slow = oracles.naive_solvation_forces(pos, params, all_neighbors(5), sp, cfg)
    assert np.any(fast != 0)
    assert np.array_equal(fast, slow)


def test_accumulator_bound_sees_int64_min(monkeypatch):
    """The weight bound is taken with Python ints: ``np.abs`` of INT64_MIN
    is still negative and would pass."""
    params = make_params(2)
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    sp = generate_samples(12)
    cfg = SolvationConfig(samples=12)
    _, states = sasa_pass(pos, params, all_neighbors(2), sp, cfg)
    wrapped = np.array([np.iinfo(np.int64).min, 1])
    monkeypatch.setattr(solvation, "_force_quantum", lambda *args: (wrapped, 1.0))
    with pytest.raises(ConfigurationError, match=f"{2**63} quanta"):
        solvation_forces(pos, params, all_neighbors(2), sp, states, cfg)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SolvationConfig(delta_r=0.0)
    with pytest.raises(ConfigurationError):
        SolvationConfig(samples=4)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        SolvationConfig(probe_radius=float("inf"))
