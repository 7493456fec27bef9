from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinefold import native
from kinefold.chain import Conformation, build_chain, forward_kinematics, kinematic_state
from kinefold.errors import ConfigurationError, NonFiniteTorqueError
from kinefold.kcm import (
    Field,
    FieldConfig,
    StepConfig,
    fold,
    hinge_scan,
    joint_torques,
    kcm_step,
    link_wrenches,
    ramachandran_scan,
    single_point,
)
from kinefold.solvation import SolvationConfig

from .conftest import atom_index, make_field, random_case, random_sequences
from .oracles import quadratic_joint_torques, reference_kcm_step


def random_conf(chain, rng, lo=0.0, hi=360.0):
    return Conformation(rng.uniform(lo, hi, chain.n_dof),
                        np.zeros(chain.n_dof, bool))


# ---- wrenches -------------------------------------------------------------

def test_zero_forces_zero_wrenches(ala2):
    pos = forward_kinematics(ala2, ala2.conf_zp())
    w = link_wrenches(ala2, pos, np.zeros_like(pos))
    assert np.all(w[:, :3] == 0.0) and np.all(w[:, 3:] == 0.0)


def test_atom_at_origin_no_moment(ala2):
    pos = forward_kinematics(ala2, ala2.conf_zp())
    forces = np.zeros_like(pos)
    forces[0] = [1.0, 2.0, 3.0]  # the anchored N sits exactly at the origin
    w = link_wrenches(ala2, pos, forces)
    link = int(ala2.atom_link[0])
    assert np.allclose(w[link, 3:], 0.0)
    assert np.allclose(w[link, :3], [1.0, 2.0, 3.0])


def test_wrenches_match_direct_sums(mixed_chain, rng):
    pos = forward_kinematics(mixed_chain, random_conf(mixed_chain, rng))
    forces = rng.normal(size=pos.shape)
    w = link_wrenches(mixed_chain, pos, forces)
    for li in range(len(mixed_chain.links)):
        idx = np.flatnonzero(mixed_chain.atom_link == li)
        assert np.allclose(w[li, :3], forces[idx].sum(0), atol=1e-12)
        assert np.allclose(w[li, 3:],
                           np.cross(pos[idx], forces[idx]).sum(0), atol=1e-12)


# ---- joint torques --------------------------------------------------------

def test_joint_torques_leave_wrenches_unchanged(mixed_chain, rng):
    conf = random_conf(mixed_chain, rng)
    state = kinematic_state(mixed_chain, conf)
    w = link_wrenches(mixed_chain, state.positions,
                      rng.normal(size=(mixed_chain.n_atoms, 3)))
    force, torque = w[:, :3].copy(), w[:, 3:].copy()
    joint_torques(mixed_chain, state, w)
    assert np.array_equal(w[:, :3], force) and np.array_equal(w[:, 3:], torque)


def test_zero_wrenches_zero_torques(ala2):
    conf = ala2.conf_zp()
    pos = forward_kinematics(ala2, conf)
    w = link_wrenches(ala2, pos, np.zeros_like(pos))
    tau = joint_torques(ala2, kinematic_state(ala2, conf), w)
    assert np.all(tau == 0.0)


def test_single_joint_hand_value():
    ch = build_chain(["GLY"])
    conf = ch.conf_zp()
    state = kinematic_state(ch, conf)
    pos = state.positions
    forces = np.zeros_like(pos)
    target = atom_index(ch, 0, "O")
    forces[target] = [0.0, 0.0, 2.0]
    w = link_wrenches(ch, pos, forces)
    tau = joint_torques(ch, state, w)
    # psi joint: axis through CA along CA->C
    li = 2  # residue 0's psi link
    u = state.axes[li]
    p = state.joint_points[li]
    expect = float(u @ np.cross(pos[target] - p, forces[target]))
    assert tau[li - 1] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("length", [10, 20])
def test_suffix_matches_quadratic_scan(rng, length):
    ch = build_chain((["SER", "ALA", "GLY", "CYS", "ALA"] * 4)[:length])
    for _ in range(4):
        conf = random_conf(ch, rng)
        state = kinematic_state(ch, conf)
        forces = rng.normal(size=(ch.n_atoms, 3))
        w = link_wrenches(ch, state.positions, forces)
        fast = joint_torques(ch, state, w)
        slow = quadratic_joint_torques(ch, state, w)
        scale = np.abs(slow).max()
        assert np.abs(fast - slow).max() < 1e-10 * max(scale, 1.0)


@settings(max_examples=100, deadline=None)
@given(random_sequences, st.integers(0, 2**32 - 1))
@example(["GLY"], 0)
def test_reverse_pass_matches_quadratic_scan_on_random_chains(sequence, seed):
    chain, conf, forces = random_case(sequence, seed)
    state = kinematic_state(chain, conf)
    w = link_wrenches(chain, state.positions, forces)
    fast = joint_torques(chain, state, w)
    slow = quadratic_joint_torques(chain, state, w)
    assert np.abs(fast - slow).max() < 1e-10 * max(np.abs(slow).max(), 1.0)


def test_torque_is_energy_gradient(ala2, param_set, rng):
    """tau_k = -dG/dtheta_k (radians) under a constant dielectric, where
    the electrostatic force is the exact energy gradient."""
    from kinefold.forcefield import DielectricModel
    field = make_field(ala2, param_set,
                       dielectric=DielectricModel(kappa=4.0))
    conf = ala2.conf_from_backbone(-50.0, -40.0)
    state = kinematic_state(ala2, conf)
    res = field.evaluate(state.positions)
    w = link_wrenches(ala2, state.positions, res.forces)
    tau = joint_torques(ala2, state, w)
    h = 1e-5  # degrees
    for dof in rng.choice(ala2.n_dof, size=4, replace=False):
        plus = conf.theta.copy(); plus[dof] += h
        minus = conf.theta.copy(); minus[dof] -= h
        gp = single_point(ala2, Conformation(plus, conf.frozen), field).g_total
        gm = single_point(ala2, Conformation(minus, conf.frozen), field).g_total
        grad = (gp - gm) / (2 * h) * 180.0 / np.pi  # per radian
        assert -grad == pytest.approx(tau[dof], rel=2e-4, abs=1e-5)


# ---- stepping -------------------------------------------------------------

def _conf(n):
    return Conformation(np.zeros(n), np.zeros(n, bool))


def test_step_normalization():
    conf = _conf(3)
    tau = np.array([4.0, -2.0, 1.0])
    out, deltas = kcm_step(tau, conf, StepConfig(kappa=0.5))
    assert deltas[0] == pytest.approx(0.5)
    assert deltas[1] == pytest.approx(-0.25)
    assert deltas[2] == pytest.approx(0.125)
    assert np.abs(deltas).max() == pytest.approx(0.5)


def test_step_scale_invariance():
    conf = _conf(3)
    t1 = np.array([4.0, -2.0, 1.0])
    t2 = np.array([4.0, -2.0, 1.0]) * 137.0
    _, d1 = kcm_step(t1, conf, StepConfig(kappa=0.5))
    _, d2 = kcm_step(t2, conf, StepConfig(kappa=0.5))
    assert np.allclose(d1, d2, atol=1e-15)


@st.composite
def step_cases(draw):
    """Torques, a mask that leaves some joint free, thetas near the wrap
    points 0 and 360 as well as anywhere, and a kappa that can make steps
    small enough to land a hair below zero."""
    n = draw(st.integers(1, 10))
    tau = draw(st.one_of(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n),
        st.just([0.0] * n)))
    frozen = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                  .filter(lambda mask: not all(mask)))
    theta = draw(st.lists(st.one_of(st.floats(-1e-12, 1e-12),
                                    st.floats(360.0 - 1e-12, 360.0 + 1e-12),
                                    st.floats(0.0, 360.0)), min_size=n, max_size=n))
    kappa = draw(st.one_of(st.just(0.5), st.floats(1e-30, 10.0)))
    return np.array(tau), np.array(frozen), np.array(theta), kappa


@settings(max_examples=300, deadline=None)
@given(step_cases())
@example((np.array([-1.0, 0.5]), np.zeros(2, bool), np.array([0.0, 5.0]), 1e-20))
@example((np.array([3.0, -1.0, 2.0]), np.array([False, True, False]),
          np.array([1e-13, 359.9999999999999, 0.0]), 0.5))
@example((np.array([1.0, 2.2e-311]), np.array([True, False]), np.zeros(2), 0.5))
def test_step_matches_reference_bitwise(case):
    """``kcm_step`` (one peak, one mask, one wrap) gives the theta and
    deltas of the step as first written, to the bit."""
    tau, frozen, theta, kappa = case
    conf = Conformation(theta, frozen)
    out, deltas = kcm_step(tau, conf, StepConfig(kappa=kappa))
    ref_theta, ref_deltas = reference_kcm_step(tau, conf, kappa)
    assert out.theta.tobytes() == ref_theta.tobytes()
    assert deltas.tobytes() == ref_deltas.tobytes()


def test_step_skips_frozen_and_excludes_from_max():
    conf = Conformation(np.zeros(2), np.array([True, False]))
    tau = np.array([100.0, 1.0])
    out, deltas = kcm_step(tau, conf, StepConfig(kappa=0.5))
    assert deltas[0] == 0.0
    assert deltas[1] == pytest.approx(0.5)  # max over unfrozen joints only


def test_step_zero_torques_no_motion():
    conf = _conf(2)
    out, deltas = kcm_step(np.zeros(2), conf, StepConfig())
    assert np.all(deltas == 0.0)
    assert np.array_equal(out.theta, conf.theta)


def test_step_all_frozen_rejected():
    conf = Conformation(np.zeros(2), np.ones(2, bool))
    with pytest.raises(ConfigurationError):
        kcm_step(np.ones(2), conf, StepConfig())


def test_step_rejects_non_finite_torque():
    tau = np.array([1.0, np.nan, np.inf])
    with pytest.raises(NonFiniteTorqueError, match="torque nan on dof 1 "):
        kcm_step(tau, _conf(3), StepConfig())


def test_step_config_rejects_out_of_range_counts():
    # each would end a fold with an IndexError or silently change its meaning
    for kwargs, message in (({"max_iters": 0}, "max_iters must be at least 1"),
                            ({"energy_window": -1}, "energy_window must be non-negative"),
                            ({"snapshot_every": -1}, "snapshot_every must be non-negative")):
        with pytest.raises(ConfigurationError, match=message):
            StepConfig(**kwargs)
    assert StepConfig(max_iters=1, energy_window=0, snapshot_every=0).max_iters == 1


# ---- the Field's workspace ------------------------------------------------

FIELD_MODES = pytest.mark.parametrize("solvation, energy_only", [
    (False, False), (True, False), (True, True)], ids=["vacuum", "solvated", "energy-only"])


def workspace_case(param_set, solvation):
    """A 12-residue chain, its Field, and its extended and helical
    positions: the helix has more candidate and kept pairs."""
    chain = build_chain(["SER", "ALA", "GLY", "CYS"] * 3)
    cfg = dict(solvation=True, solvation_cfg=SolvationConfig(samples=64)) if solvation else {}
    m = chain.n_residues
    compact = chain.conf_from_backbone(np.full(m, -57.0), np.full(m, -47.0))
    positions = [forward_kinematics(chain, c) for c in (chain.conf_zp(), compact)]
    return chain, cfg, make_field(chain, param_set, **cfg), positions


def result_arrays(result):
    """Every number of a FieldResult but its timings, as arrays (copies)."""
    e = result.energy
    out = [result.forces.copy(), np.array([e.g_elec, e.g_vdw, e.g_cav])]
    if result.sasa is not None:
        out += [result.sasa.f_exp.copy(), result.sasa.a_exp.copy()]
    return out


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)  # nan: areas not counted


@FIELD_MODES
def test_reused_workspace_matches_a_fresh_field(param_set, solvation, energy_only):
    """Extended and helical positions in turn on one Field: its buffers grow
    at the first helix and are only partly used by the extended positions
    after it.  Every result is bitwise a fresh Field's, and no later
    evaluation changes an earlier result."""
    chain, cfg, fld, (extended, compact) = workspace_case(param_set, solvation)
    results, copies, sizes = [], [], []
    for pos in (extended, compact, extended, compact, extended):
        results.append(fld.evaluate(pos, energy_only=energy_only))
        copies.append(result_arrays(results[-1]))
        sizes.append({name: buf.size for name, buf in fld.work.buffers.items()})
        fresh = make_field(chain, param_set, **cfg).evaluate(pos, energy_only=energy_only)
        assert_same_arrays(copies[-1], result_arrays(fresh))
    assert all(sizes[1][name] > size for name, size in sizes[0].items())
    assert sizes[2:] == [sizes[1]] * 3
    for result, copy in zip(results, copies):
        assert_same_arrays(result_arrays(result), copy)


@FIELD_MODES
def test_repeat_evaluation_reuses_every_buffer(param_set, solvation, energy_only):
    """The same positions again: every buffer at the same address, none
    grown, and the candidate-sized arrays of every pair stage among them,
    the cavity rows when solvated."""
    _, _, fld, (_, compact) = workspace_case(param_set, solvation)
    assert fld.work.buffers == {}
    fld.evaluate(compact, energy_only=energy_only)
    before = {name: (buf.ctypes.data, buf.size) for name, buf in fld.work.buffers.items()}
    fld.evaluate(compact, energy_only=energy_only)
    after = {name: (buf.ctypes.data, buf.size) for name, buf in fld.work.buffers.items()}
    assert after == before
    cavity = {"cavity"} if solvation else set()
    assert set(before) == {"neighbors", "unions", "ij", "dd", "elec_terms",
                           "vdw_terms"} | cavity


class CountingLibrary:
    """The native library, counting the calls of each entry point."""

    def __init__(self, library):
        self.library, self.calls = library, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.library, name)


@FIELD_MODES
def test_repeat_evaluation_builds_the_table_in_one_call(param_set, solvation, energy_only,
                                                       monkeypatch):
    """A fresh Field's first evaluation sizes the table with one native
    call and fills it with a second; the same positions again fit the
    workspace, so one call sizes and fills it.  The cavity rows, when
    solvated, are one call every time: twice the pairs bounds them.
    Every result is bitwise a fresh Field's."""
    chain, cfg, fld, (_, compact) = workspace_case(param_set, solvation)
    counting = CountingLibrary(native.load().library)
    counted = replace(native.load(), library=counting)
    for table_calls, cavity_calls in ((2, 1), (3, 2)):
        with monkeypatch.context() as mp:
            mp.setattr(native, "load", lambda: counted)
            got = result_arrays(fld.evaluate(compact, energy_only=energy_only))
        assert counting.calls["neighbor_table"] == table_calls
        assert counting.calls["cavity_rows"] == (cavity_calls if solvation else 0)
        fresh = make_field(chain, param_set, **cfg).evaluate(compact,
                                                             energy_only=energy_only)
        assert_same_arrays(got, result_arrays(fresh))


@pytest.mark.parametrize("energy_only", [False, True], ids=["solvated", "energy-only"])
def test_cavity_rows_outgrow_the_workspace_mid_run(param_set, energy_only, monkeypatch):
    """Extended positions size the cavity buffer; the helix after them
    has more pairs, so the buffer grows before its rows are written, still
    by one call per evaluation, and every result is bitwise a fresh
    Field's."""
    chain, cfg, fld, (extended, compact) = workspace_case(param_set, True)
    counting = CountingLibrary(native.load().library)
    counted = replace(native.load(), library=counting)
    calls, sizes = [], []
    for pos in (extended, compact, compact):
        with monkeypatch.context() as mp:
            mp.setattr(native, "load", lambda: counted)
            got = result_arrays(fld.evaluate(pos, energy_only=energy_only))
        calls.append(counting.calls["cavity_rows"])
        sizes.append(fld.work.buffers["cavity"].size)
        fresh = make_field(chain, param_set, **cfg).evaluate(pos, energy_only=energy_only)
        assert_same_arrays(got, result_arrays(fresh))
    assert calls == [1, 2, 3]
    assert sizes[0] < sizes[1] == sizes[2]


# ---- fold -----------------------------------------------------------------

def test_torque_free_start_converges_immediately(param_set):
    """A null field, or a real one with every joint frozen, leaves no free
    torque: the fold stops at iteration 0 with one record."""
    ch = build_chain(["GLY", "GLY"])
    params = param_set.resolve(ch)
    # null field: no charges, no well depths, no surface energy
    null = replace(params, q=np.zeros(ch.n_atoms), eps=np.zeros(ch.n_atoms))
    from kinefold.topology import TreeWeights, build_tree
    weights = TreeWeights(build_tree(ch), param_set.weights)
    for atom_params, start in ((null, ch.conf_zp()),
                               (params, ch.conf_zp().freeze(range(ch.n_dof)))):
        field = Field(atom_params, weights, FieldConfig())
        traj = fold(ch, start, field, StepConfig(max_iters=10))
        assert traj.converged and traj.reason == "torque-free"
        assert traj.iterations == 1 and traj.records[0].tau_max == 0.0
        assert np.array_equal(traj.final.theta, ch.conf_zp().theta)


def test_fold_respects_freeze(param_set):
    ch = build_chain(["ALA"] * 4)
    field = make_field(ch, param_set)
    conf = ch.conf_from_backbone(-30.0, -30.0).freeze([0, 1])
    traj = fold(ch, conf, field, StepConfig(max_iters=25, energy_window=0,
                                            torque_tol_rel=0.0))
    assert np.array_equal(traj.final.theta[:2], conf.theta[:2])
    assert not np.array_equal(traj.final.theta[2:], conf.theta[2:])


def test_fold_energy_mostly_decreases(param_set):
    ch = build_chain(["ALA"] * 15)
    field = make_field(ch, param_set)
    conf = ch.conf_from_backbone(-10.0, -10.0)
    traj = fold(ch, conf, field, StepConfig(max_iters=11, energy_window=0,
                                            torque_tol_rel=0.0))
    e = traj.energies()
    drops = (np.diff(e) < 0).sum()
    assert drops >= 8  # steepest-descent character with a fixed step


def test_fold_reports_offending_iteration(param_set):
    ch = build_chain(["ALA", "ALA"])
    field = make_field(ch, param_set)
    # collapse two atoms: the clash error must carry the iteration index
    zp = ch.zp_pos.copy()
    zp[3] = zp[2] + 1e-9
    ch_bad = replace(ch, zp_pos=zp)
    from kinefold.errors import StericClashError
    with pytest.raises(StericClashError, match="iteration 0"):
        fold(ch_bad, ch_bad.conf_zp(), field, StepConfig(max_iters=3))
    del ch, field


def test_fold_names_iteration_of_non_finite_torque(param_set):
    """The abort names the iteration and the first non-finite dof, also
    when every dof carrying the NaN is frozen: the peak covers only the
    free dofs, but the finiteness test covers them all."""
    ch = build_chain(["ALA"] * 3)
    field = make_field(ch, param_set)
    # the dofs upstream of the last atom carry its NaN force; the chi
    # joints of the three residues stay free to step on iteration 0
    li, nan_dofs = int(ch.atom_link[-1]), []
    while li > 0:
        nan_dofs.append(li - 1)
        li = int(ch.links.parent[li])
    start = ch.conf_from_backbone(-30.0, -30.0)

    class NaNAfterFirst:
        """Finite forces on iteration 0, a NaN force on the last atom after."""
        calls = 0

        def evaluate(self, positions):
            result = field.evaluate(positions)
            if self.calls:
                result.forces[-1, 0] = np.nan
            self.calls += 1
            return result

    # the NaN reaches every joint upstream of the last atom: dof 0 first
    for conf in (start, start.freeze(nan_dofs)):
        assert not conf.frozen.all()
        with pytest.raises(NonFiniteTorqueError,
                           match="iteration 1: non-finite torque nan on dof 0 "):
            fold(ch, conf, NaNAfterFirst(), StepConfig(max_iters=5, torque_tol_rel=0.0))


def test_fold_water_mode_runs(param_set):
    ch = build_chain(["ALA"] * 6)
    field = make_field(ch, param_set, solvation=True)
    conf = ch.conf_from_backbone(-30.0, -30.0)
    traj = fold(ch, conf, field, StepConfig(max_iters=8, energy_window=0,
                                            torque_tol_rel=0.0))
    assert traj.iterations == 8
    assert any(r.energy.g_cav != 0.0 for r in traj.records)
    assert all(r.timings["solvation"] > 0 for r in traj.records)


def test_polyglycine_mirror_symmetry(param_set, rng):
    """Achiral chain: negating every dihedral preserves the vacuum energy."""
    ch = build_chain(["GLY"] * 6)
    field = make_field(ch, param_set)
    done = 0
    while done < 20:
        conf = random_conf(ch, rng)
        mirror = Conformation((360.0 - conf.theta) % 360.0, conf.frozen)
        try:
            g1 = single_point(ch, conf, field).g_total
            g2 = single_point(ch, mirror, field).g_total
        except Exception:
            continue  # clashing draw; try another conformation
        assert g2 == pytest.approx(g1, rel=1e-8)
        done += 1


# ---- scans ----------------------------------------------------------------

def test_rama_grid_shape(ala2, param_set):
    field = make_field(ala2, param_set)
    grid = ramachandran_scan(ala2, 1, 2, field)
    assert grid.g_total.shape == (2, 2)
    assert len(grid.axes[0]) == 2 and len(grid.axes[1]) == 2


def test_rama_matches_single_point(ala2, param_set, rng):
    field = make_field(ala2, param_set)
    grid = ramachandran_scan(ala2, 1, 6, field)
    i = int(rng.integers(0, 6))
    j = int(rng.integers(0, 6))
    conf = ala2.conf_zp()
    theta = conf.theta.copy()
    theta[ala2.dof_phi(1)] = grid.axes[0][i] + 180.0
    theta[ala2.dof_psi(1)] = grid.axes[1][j] + 180.0
    e = single_point(ala2, Conformation(theta, conf.frozen), field)
    assert grid.g_total[i, j] == pytest.approx(e.g_total, rel=1e-12)


def test_rama_steric_band(ala2, param_set):
    field = make_field(ala2, param_set)
    grid = ramachandran_scan(ala2, 1, 12, field)
    phis = list(grid.axes[0])
    i0 = phis.index(0.0)
    j0 = list(grid.axes[1]).index(0.0)
    assert grid.g_total[i0, j0] > grid.g_total.min() + 10.0


def test_hinge_zero_width_equals_native(param_set):
    ch = build_chain(["ALA"] * 4)
    field = make_field(ch, param_set)
    base = ch.conf_from_backbone(-60.0, -45.0)
    base = base.freeze([d for d in range(ch.n_dof) if d != ch.dof_phi(2)])
    grid = hinge_scan(ch, [ch.dof_phi(2)], 0.0, 1, field, base)
    native = single_point(ch, base, field)
    assert grid.g_total.shape == (1,)
    assert grid.g_total[0] == pytest.approx(native.g_total, rel=1e-12)


def test_hinge_grid_matches_single_point(param_set):
    ch = build_chain(["ALA"] * 4)
    field = make_field(ch, param_set)
    base = ch.conf_from_backbone(-60.0, -45.0)
    dof = ch.dof_psi(1)
    base = base.freeze([d for d in range(ch.n_dof) if d != dof])
    grid = hinge_scan(ch, [dof], 10.0, 5, field, base)
    for k, off in enumerate(grid.axes[0]):
        theta = base.theta.copy()
        theta[dof] = base.theta[dof] + off
        e = single_point(ch, Conformation(theta, base.frozen), field)
        assert grid.g_total[k] == pytest.approx(e.g_total, rel=1e-12)


def test_hinge_out_of_range_rejected(ala2, param_set):
    field = make_field(ala2, param_set)
    with pytest.raises(ConfigurationError):
        hinge_scan(ala2, [99], 5.0, 3, field, ala2.conf_zp())


def test_hinge_repeated_joint_rejected(ala2, param_set):
    field = make_field(ala2, param_set)
    with pytest.raises(ConfigurationError, match="repeat"):
        hinge_scan(ala2, [2, 2], 5.0, 3, field, ala2.conf_zp())
