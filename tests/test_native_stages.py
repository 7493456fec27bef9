"""The native pair stages and link passes against their numpy references
in ``oracles``.

Each stage of ``Field.evaluate``, and each per-link pass of the folding
loop, is one call into the native library; ``tests/oracles.py`` holds
the numpy bodies they replaced.
Grid, table, pairs, squared distances, classes, cavity rows and link
wrenches must be bitwise equal; pair terms, forces, kinematics and
torques equal to rel 1e-12; errors must read the same.
"""

import ctypes
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinefold import kcm, native
from kinefold.chain import Conformation, build_chain, forward_kinematics, kinematic_state
from kinefold.errors import ChainBuildError, ConfigurationError, StericClashError
from kinefold.forcefield import (
    AtomParams,
    DielectricModel,
    accumulate_pair_forces,
    elec_pair_quantities,
    extract_pairs,
    vdw_pair_quantities,
)
from kinefold.kcm import Field, FieldConfig, StepConfig, fold, joint_torques, link_wrenches
from kinefold.pdbio import AtomRecord, read_pdb, write_pdb
from kinefold.solvation import (
    SampleSphere,
    SolvationConfig,
    generate_samples,
    offset_radii,
    sasa_pass,
    solvation_forces,
)
from kinefold.spatial import (
    EDGE_PER_CUTOFF,
    Cutoffs,
    HashGrid,
    NeighborTable,
    Workspace,
    build_grid,
    build_neighbor_table,
    filtered_lists,
)
from kinefold.topology import BondTree, TreeWeights, WeightTable

from . import oracles
from .conftest import UniformWeights, make_field, neighbor_table

STAGES = ("build_grid", "build_neighbor_table", "extract_pairs", "elec_pair_quantities",
          "vdw_pair_quantities", "accumulate_pair_forces", "filtered_lists",
          "kinematic_state", "link_wrenches", "joint_torques")
# (elec, vdw): the default and vdW above elec
CUTOFF_SETS = [Cutoffs(9.0, 5.0), Cutoffs(4.0, 6.0)]


def oracle_weights(self, i, j):
    return oracles.weights_for(self.tree, self.table, i, j)


def with_oracle_stages(mp):
    """Swap every pair stage and link pass ``kcm`` calls for its numpy
    reference."""
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
    for name in ("dims", "order", "occupied", "starts"):
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

    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            with_oracle_stages(mp)
        stage = kcm.filtered_lists

        def spy(*args):
            rows.append(stage(*args))
            return rows[-1]

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
# the link passes (links.c)
# --------------------------------------------------------------------------

def imported_with_hetero(tmp_path):
    """A SER/ALA/GLY/CYS/ALA chain read back from a PDB file, with two
    hetero atoms on the ground link."""
    ch = build_chain(["SER", "ALA", "GLY", "CYS", "ALA"])
    path = tmp_path / "in.pdb"
    write_pdb(ch, forward_kinematics(ch, ch.conf_zp()), path)
    record = read_pdb(path)
    record.atoms += [AtomRecord("FE", "HEM", 9, "A", (3.0, 4.0, 1.0), "Fe", True),
                     AtomRecord("ZN", "ZN", 10, "B", (-2.5, 5.0, -3.25), "Zn", True)]
    return build_chain([], geometry=record)


LINK_CHAINS = {
    "ala15-trans": lambda tmp_path: build_chain(["ALA"] * 15),
    "ala15-cis": lambda tmp_path: build_chain(["ALA"] * 15, omega="cis"),
    "mixed100": lambda tmp_path: build_chain(
        list(np.random.default_rng(100).choice(["SER", "ALA", "CYS", "GLY"], 100))),
    "imported-hetero": imported_with_hetero,
}


@pytest.fixture(params=list(LINK_CHAINS))
def link_case(request, tmp_path):
    """A chain, three random conformations and random atom forces."""
    chain = LINK_CHAINS[request.param](tmp_path)
    rng = np.random.default_rng(len(request.param))
    confs = [Conformation(rng.uniform(-720.0, 720.0, chain.n_dof),
                          np.zeros(chain.n_dof, bool)) for _ in range(3)]
    return chain, confs, rng.normal(size=(chain.n_atoms, 3))


def test_forward_links_match_the_oracle(link_case):
    chain, confs, _ = link_case
    hetero = chain.hetero_mask
    for conf in confs:
        got, want = kinematic_state(chain, conf), oracles.kinematic_state(chain, conf)
        scale = 1e-12 * float(np.abs(want.positions).max())
        assert np.abs(got.positions - want.positions).max() <= scale
        assert np.abs(got.joint_points - want.joint_points).max() <= scale
        assert np.abs(got.transforms - want.transforms).max() <= 1e-12
        assert np.abs(got.axes - want.axes).max() <= 1e-12
        assert np.array_equal(got.positions[hetero], chain.zp_pos[hetero])
    assert hetero.sum() == (2 if chain.source == "imported" else 0)


def test_link_wrenches_are_the_oracles_bitwise(link_case):
    chain, confs, forces = link_case
    for conf in confs:
        pos = kinematic_state(chain, conf).positions
        assert np.array_equal(link_wrenches(chain, pos, forces),
                              oracles.link_wrenches(chain, pos, forces))


def test_joint_torques_match_the_oracle(link_case):
    chain, confs, forces = link_case
    for conf in confs:
        state = kinematic_state(chain, conf)
        wrenches = link_wrenches(chain, state.positions, forces)
        given = wrenches.copy()
        assert_close(joint_torques(chain, state, wrenches),
                     oracles.joint_torques(chain, state, wrenches))
        assert np.array_equal(wrenches, given)  # left as given


def test_link_passes_refuse_out_of_range_indices(ala2, rng):
    """An atom owner or a parent outside the table is refused, not read.
    ``LinkArrays`` refuses a bad parent when built, so a parent column
    reaches the passes only by a direct call."""
    conf = Conformation(rng.uniform(0.0, 360.0, ala2.n_dof), np.zeros(ala2.n_dof, bool))
    state = kinematic_state(ala2, conf)
    forces = np.ones((ala2.n_atoms, 3))
    owner = ala2.atom_link.copy()
    owner[-1] = -1
    negative_owner = replace(ala2, atom_link=owner)
    for call in (lambda: kinematic_state(negative_owner, conf),
                 lambda: link_wrenches(negative_owner, state.positions, forces)):
        with pytest.raises(ChainBuildError, match="out of range"):
            call()
    links, n_links, n = ala2.links, len(ala2.links), ala2.n_atoms
    lib = native.load()
    for bad in (n_links, -1, 3):  # past the table, below it, after link 3 itself
        parent = links.parent.copy()
        parent[3] = bad
        assert lib.call("forward_links", n_links, parent, conf.theta, links.axis0,
                        links.body0, n, ala2.atom_link, ala2.offsets,
                        np.empty((n_links, 3, 3)), np.empty((n_links, 3)),
                        np.empty((n_links, 3)), np.empty((n, 3))) == native.REFUSED
        assert lib.call("joint_torques", n_links, parent, np.zeros((n_links, 6)),
                        state.axes, state.joint_points,
                        np.empty(ala2.n_dof)) == native.REFUSED


def test_link_passes_refuse_wrong_dtype_or_layout(ala2):
    """The declared argument types reject an array of another dtype, a
    strided view and a read-only output instead of misreading them."""
    lib = native.load()
    links, n_links, n_dof, n = ala2.links, len(ala2.links), ala2.n_dof, ala2.n_atoms
    out = {"M": np.empty((n_links, 3, 3)), "P": np.empty((n_links, 3)),
           "axes": np.empty((n_links, 3)), "pos": np.empty((n, 3))}

    def forward(theta=np.zeros(n_dof), owner=ala2.atom_link, pos=out["pos"]):
        return lib.call("forward_links", n_links, links.parent, theta, links.axis0,
                        links.body0, n, owner, ala2.offsets, out["M"], out["P"],
                        out["axes"], pos)

    assert forward() == 0
    read_only = np.empty((n, 3))
    read_only.flags.writeable = False
    bad = [lambda: forward(theta=np.zeros(n_dof, np.float32)),
           lambda: forward(theta=np.zeros(2 * n_dof)[::2]),
           lambda: forward(owner=ala2.atom_link.astype(np.int32)),
           lambda: forward(pos=read_only),
           lambda: lib.call("link_wrenches", n_links, n, ala2.atom_link,
                            np.zeros((n, 3), np.float32), np.zeros((n, 3)),
                            np.empty((n_links, 6))),
           lambda: lib.call("joint_torques", n_links, links.parent,
                            np.zeros((n_links, 6)).T, out["axes"], out["P"],
                            np.empty(n_dof))]
    for call in bad:
        with pytest.raises(ctypes.ArgumentError):
            call()


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
    zp = ch.zp_pos.copy()
    zp[3] = zp[2] + 1e-9
    ch = replace(ch, zp_pos=zp)
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
    A call whose capacity is short of the pairs, or whose union capacity
    is short of the size it reports, only returns the count and that
    size and writes nothing of the table; a call with enough of both
    fills the table in the same call."""
    pos = np.random.default_rng(3).uniform(0.0, 1.0, (300, 3))
    grid = build_grid(pos, 9.0)
    want = oracles.build_neighbor_table(grid)
    total = 300 * 299 // 2
    assert len(want.neighbors) == total
    union_size = ctypes.c_int64(-1)

    def call(capacity, union_capacity):
        offsets, neighbors = np.full(301, -7, np.int64), np.full(capacity, -7, np.int64)
        got = native.load().call(
            "neighbor_table", 300, grid.dims, grid.order, grid.occupied, grid.starts,
            len(grid.occupied), offsets, neighbors, capacity,
            np.empty(union_capacity, np.int64), union_capacity, ctypes.byref(union_size))
        assert got == total and union_size.value == 300
        return offsets, neighbors

    for short in ((0, 0), (10, 300), (total - 1, 300), (total, 299)):
        offsets, neighbors = call(*short)
        assert (offsets == -7).all() and (neighbors == -7).all(), short
    offsets, neighbors = call(total + 5, 300)
    assert np.array_equal(offsets, want.offsets)
    assert np.array_equal(neighbors[:total], want.neighbors)
    assert (neighbors[total:] == -7).all()
    table = build_neighbor_table(grid)
    assert np.array_equal(table.offsets, want.offsets)
    assert np.array_equal(table.neighbors, want.neighbors)


def lattice(shape, cut, rng=None):
    """One atom in each cell of a block of the given shape at ``cut``, the
    cells on the low faces included: on the low face of its cell for the
    cells at 0 of an axis, a quarter edge inside for the rest.  Atom
    indices are shuffled when ``rng`` is given."""
    points = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), -1).reshape(-1, 3)
    pos = EDGE_PER_CUTOFF * cut * (points + np.where(points == 0, 0.0, 0.25))
    return pos if rng is None else pos[rng.permutation(len(pos))]


def folded_back(cut, line=1000):
    """line + 120 atoms whose first and last 60 lie in two adjacent cells,
    the last ones in the cell of lower id, while the rest run off along a
    line: the unions there hold two runs of atom indices far apart, with
    many empty bitmap words between them, met high run first.  Past 4096
    atoms the two runs also fall under different summary words."""
    rng = np.random.default_rng(11)
    edge = EDGE_PER_CUTOFF * cut
    pos = np.zeros((line + 120, 3))
    pos[60:line + 60, 0] = 3.0 * cut + 0.6 * np.arange(line)
    pos[:60] = rng.uniform(0.1, 0.9, (60, 3)) * edge + [edge, 0.0, 0.0]
    pos[line + 60:] = rng.uniform(0.1, 0.9, (60, 3)) * edge
    return pos


TABLE_LAYOUTS = {
    "n=1": lambda: np.zeros((1, 3)),
    "one-cell": lambda: np.random.default_rng(5).uniform(0.0, 0.4 * 9.0, (80, 3)),
    "low-faces": lambda: lattice((3, 4, 5), 9.0),
    "flat": lambda: lattice((7, 6, 1), 9.0),
    "line": lambda: lattice((1, 1, 9), 9.0),
    "one-per-cell-shuffled": lambda: lattice((12, 12, 12), 9.0, np.random.default_rng(7)),
    "folded-back": lambda: folded_back(9.0),
    "folded-back-5120": lambda: folded_back(9.0, 5000),
    "dense-2000": lambda: np.random.default_rng(9).uniform(0.0, 14.0, (2000, 3)),
}


@pytest.mark.parametrize("layout", list(TABLE_LAYOUTS))
def test_table_is_the_oracles_on_hard_layouts(layout):
    """Bitwise the oracle's table: filled by a fresh workspace (a count
    call, then a fill call), by the same workspace again (one call), and
    by one whose buffers hold a larger table's stale entries."""
    pos = TABLE_LAYOUTS[layout]()
    grid = build_grid(pos, 9.0)
    if layout in ("low-faces", "flat", "line", "one-per-cell-shuffled"):
        assert len(grid.occupied) == len(pos)
    want = oracles.build_neighbor_table(grid)
    work, stale = Workspace(), Workspace()
    build_neighbor_table(build_grid(np.random.default_rng(1).uniform(0.0, 3.0, (400, 3)),
                                    9.0), stale)
    for table in (build_neighbor_table(grid), build_neighbor_table(grid, work),
                  build_neighbor_table(grid, work), build_neighbor_table(grid, stale)):
        assert np.array_equal(table.offsets, want.offsets)
        assert np.array_equal(table.neighbors, want.neighbors)


@pytest.mark.parametrize("broken", ["not from 0", "not ending at n", "empty cell",
                                    "descending", "outside", "twice"])
def test_table_refuses_a_grid_that_does_not_partition_the_atoms(broken):
    grid = build_grid(lattice((2, 2, 2), 9.0), 9.0)
    bad = {name: getattr(grid, name).copy() for name in ("dims", "order", "occupied", "starts")}
    assert bad["starts"].tolist() == list(range(9))  # one atom per cell
    if broken == "not from 0":
        bad["starts"][0] = -1
    elif broken == "not ending at n":
        bad["starts"][-1] = 9
    elif broken == "empty cell":
        bad["starts"][2] = bad["starts"][1]
    elif broken == "descending":
        bad["occupied"][[2, 3]] = bad["occupied"][[3, 2]]
    elif broken == "outside":
        bad["order"][4] = 8
    else:
        bad["order"][4] = bad["order"][5]
    with pytest.raises(ConfigurationError, match="does not partition its 8 atoms"):
        build_neighbor_table(HashGrid(**bad))


@pytest.mark.parametrize("broken", ["one dims entry", "starts too short", "occupied too long"])
def test_grid_refuses_columns_the_table_pass_would_read_past(broken):
    """A grid whose columns disagree in length is refused when it is
    built, not read past by the native table pass."""
    grid = build_grid(lattice((2, 2, 2), 9.0), 9.0)
    bad = {name: getattr(grid, name).copy() for name in ("dims", "order", "occupied", "starts")}
    if broken == "one dims entry":
        bad["dims"] = bad["dims"][:1]
    elif broken == "starts too short":
        bad["starts"] = bad["starts"][:-1]
    else:
        bad["occupied"] = np.append(bad["occupied"], bad["occupied"][-1] + 1)
    with pytest.raises(ConfigurationError, match="grid column (dims|starts) has shape"):
        HashGrid(**bad)


def test_scatter_adds_each_pair_in_pair_order(rng):
    """On pairs that share atoms, the scatter is bitwise a loop that adds
    +f to atom i and -f to atom j, one pair after another."""
    n, m = 5, 60
    pos = rng.normal(scale=3.0, size=(n, 3))
    i = rng.integers(0, n, m)
    j = (i + rng.integers(1, n, m)) % n
    d = np.sqrt(((pos[i] - pos[j]) ** 2).sum(axis=1))
    mag = rng.normal(size=m)
    want = np.zeros((n, 3))
    for k in range(m):
        f = mag[k] * ((pos[i[k]] - pos[j[k]]) / d[k])
        want[i[k]] += f
        want[j[k]] -= f
    assert np.array_equal(accumulate_pair_forces(n, pos, i, j, d, mag), want)


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
    state = kinematic_state(ala2, ala2.conf_zp())
    pos = state.positions
    field = make_field(ala2, param_set, solvation=True,
                       solvation_cfg=SolvationConfig(samples=16))
    grid = build_grid(pos, 9.0)
    table = build_neighbor_table(grid)
    i, j, d2, d = extract_pairs(pos, table, 9.0)
    w = field.weights.weights_for(i, j)
    cut = Cutoffs()
    sphere, solv = field.sphere(), field.config.solvation_cfg
    r_off = offset_radii(field.params, solv)
    lists = filtered_lists(i, j, d2, r_off, solv.delta_r)
    _, states = sasa_pass(pos, field.params, lists, sphere, solv)
    calls = [
        ("grid_cells", lambda: build_grid(pos, 9.0)),
        ("neighbor_table", lambda: build_neighbor_table(grid)),
        ("cutoff_pairs", lambda: extract_pairs(pos, table, 9.0)),
        ("pair_weights", lambda: field.weights.weights_for(i, j)),
        ("elec_terms", lambda: elec_pair_quantities(field.params, i, j, d2, d, w,
                                                    DielectricModel(), cut)),
        ("vdw_terms", lambda: vdw_pair_quantities(field.params, i, j, d2, d, w, cut)),
        ("cavity_rows", lambda: filtered_lists(i, j, d2, r_off, solv.delta_r)),
        ("exposure", lambda: sasa_pass(pos, field.params, lists, sphere, solv)),
        ("exposure", lambda: sasa_pass(pos, field.params, lists, sphere, solv,
                                       area_only=True)),
        ("force_events", lambda: solvation_forces(pos, field.params, lists, sphere,
                                                  states, solv)),
        ("joint_torques",
         lambda: kcm.joint_torques(ala2, state, np.zeros((len(ala2.links), 6)))),
    ]
    exhausted = replace(native.load(), library=Exhausted())
    monkeypatch.setattr(native, "load", lambda: exhausted)
    for name, call in calls:
        with pytest.raises(MemoryError, match=f"native {name} pass could not allocate"):
            call()


# --------------------------------------------------------------------------
# one array contract at the native boundary
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stage_calls(ala2, param_set):
    """Each stage wrapper with one array argument left open: name -> (that
    argument as the library hands it over, the call taking it)."""
    state = kinematic_state(ala2, ala2.conf_zp())
    pos, n = state.positions, ala2.n_atoms
    field = make_field(ala2, param_set, solvation=True,
                       solvation_cfg=SolvationConfig(samples=16))
    params, solv, sphere = field.params, field.config.solvation_cfg, field.sphere()
    table = build_neighbor_table(build_grid(pos, 9.0))
    i, j, d2, d = extract_pairs(pos, table, 9.0)
    w = field.weights.weights_for(i, j)
    cut, r_off = Cutoffs(), offset_radii(params, solv)
    lists = filtered_lists(i, j, d2, r_off, solv.delta_r)
    _, states = sasa_pass(pos, params, lists, sphere, solv)
    forces = np.ones((n, 3))
    return {
        "build_grid": (pos, lambda x: build_grid(x, 9.0)),
        "extract_pairs": (pos, lambda x: extract_pairs(x, table, 9.0)),
        "weights_for": (i, lambda x: field.weights.weights_for(x, j)),
        "elec_pair_quantities": (d2, lambda x: elec_pair_quantities(
            params, i, j, x, d, w, DielectricModel(), cut)),
        "vdw_pair_quantities": (w, lambda x: vdw_pair_quantities(params, i, j, d2, d, x,
                                                                 cut)),
        "accumulate_pair_forces": (j, lambda x: accumulate_pair_forces(n, pos, i, x, d, d)),
        "filtered_lists": (d2, lambda x: filtered_lists(i, j, x, r_off, solv.delta_r)),
        "sasa_pass": (pos, lambda x: sasa_pass(x, params, lists, sphere, solv)),
        "solvation_forces": (pos, lambda x: solvation_forces(x, params, lists, sphere,
                                                             states, solv)),
        "link_wrenches": (forces, lambda x: link_wrenches(ala2, pos, x)),
        "joint_torques": (link_wrenches(ala2, pos, forces),
                          lambda x: joint_torques(ala2, state, x)),
    }


BAD_LAYOUTS = {
    "float32": lambda a: a.astype(np.float32),
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
    "list": lambda a: a.tolist(),
}


@pytest.mark.parametrize("layout", list(BAD_LAYOUTS))
@pytest.mark.parametrize("stage", ["build_grid", "extract_pairs", "weights_for",
                                   "elec_pair_quantities", "vdw_pair_quantities",
                                   "accumulate_pair_forces", "filtered_lists", "sasa_pass",
                                   "solvation_forces", "link_wrenches", "joint_torques"])
def test_stages_refuse_arrays_they_would_have_to_convert(stage_calls, stage, layout):
    """A stage reads its arrays in the layout the library builds them in:
    a float32, strided or list argument is refused by the declared
    argument types (their ``TypeError``, raised as ``ctypes.ArgumentError``),
    never copied."""
    good, call = stage_calls[stage]
    call(good)
    bad = BAD_LAYOUTS[layout](good)
    assert not (isinstance(bad, np.ndarray) and bad.dtype == good.dtype
                and bad.flags.c_contiguous)
    with pytest.raises(ctypes.ArgumentError, match="TypeError: expected a C-contiguous"):
        call(bad)


def test_row_tables_and_samples_take_the_kernels_layout_when_built():
    """``NeighborTable`` and ``SampleSphere`` carry arrays into the
    stages, so they convert them once, when built: C-contiguous int64
    rows and float64 sample points, from lists, other dtypes or Fortran
    order, with the same values."""
    for offsets, neighbors in (([0, 2, 3, 4], [1, 2, 0, 0]),
                               (np.array([0, 2, 3, 4], np.int32),
                                np.array([1, 2, 0, 0], np.int32))):
        table = NeighborTable(offsets=offsets, neighbors=neighbors)
        for a in (table.offsets, table.neighbors):
            assert a.dtype == np.int64 and a.flags.c_contiguous
        assert [row.tolist() for row in table] == [[1, 2], [0], [0]]
    points = generate_samples(12).points
    for given in (points.tolist(), points.astype(np.float32), np.asfortranarray(points)):
        held = SampleSphere(given).points
        assert held.dtype == np.float64 and held.flags.c_contiguous
        assert np.array_equal(held, np.asarray(given, float))


@pytest.mark.parametrize("layout", ["list", "float32", "fortran"])
def test_evaluate_converts_the_callers_positions_once(param_set, mixed_chain, layout):
    """Positions are the one per-call input from outside the library:
    ``Field.evaluate`` takes a list, float32 or Fortran-ordered array and
    gives forces, energies and areas bitwise those of the float64 call."""
    field = make_field(mixed_chain, param_set, solvation=True,
                       solvation_cfg=SolvationConfig(samples=64))
    pos = forward_kinematics(mixed_chain, mixed_chain.conf_zp())
    pos = pos.astype(np.float32).astype(float)  # values float32 holds exactly
    given = {"list": pos.tolist(), "float32": pos.astype(np.float32),
             "fortran": np.asfortranarray(pos)}[layout]
    for energy_only in (False, True):
        got = field.evaluate(given, energy_only=energy_only)
        want = field.evaluate(pos, energy_only=energy_only)
        assert got.forces.tobytes() == want.forces.tobytes()
        assert got.energy == want.energy
        assert got.sasa.a_exp.tobytes() == want.sasa.a_exp.tobytes()
