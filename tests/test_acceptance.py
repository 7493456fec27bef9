"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Numbered tolerances are frozen here; nothing defers to later calibration.
"""

import math
import time

import numpy as np
import pytest

from kinefold.chain import Conformation, build_chain, forward_kinematics, kinematic_state
from kinefold.forcefield import AtomParams
from kinefold.kcm import (
    StepConfig,
    fold,
    joint_torques,
    link_wrenches,
    ramachandran_scan,
    single_point,
)
from kinefold.solvation import (
    SolvationConfig,
    generate_samples,
    offset_radii,
    sasa_pass,
    solvation_forces,
)
from kinefold.spatial import build_grid, build_neighbor_table

from .conftest import (
    make_field,
    neighbor_table,
    only,
    pair_field,
    passes_by_row_parts,
)
from .oracles import (
    BruteField,
    cutoff_lists,
    naive_solvation_forces,
    quadratic_joint_torques,
    two_sphere_exposed_area,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def cluster(rng, n, side, min_d=1.5):
    pts = [rng.uniform(0, side, 3)]
    while len(pts) < n:
        cand = rng.uniform(0, side, 3)
        if min(np.linalg.norm(cand - p) for p in pts) >= min_d:
            pts.append(cand)
    return np.array(pts)


# --------------------------------------------------------------------------
# 1. cell-list neighbor sets == brute force, three cutoffs, 50 configs, <10 s
# --------------------------------------------------------------------------

def test_criterion_1_neighbor_oracle():
    rng = np.random.default_rng(101)
    cutoffs = (9.0, 5.0, 8.0)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        pos = rng.uniform(0, 30, (500, 3))
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2, np.inf)
        for d_cut in cutoffs:
            table = build_neighbor_table(build_grid(pos, d_cut))
            got = cutoff_lists(table, pos, d_cut)
            want_mask = d2 <= d_cut * d_cut
            for i in range(500):
                if not np.array_equal(got[i], np.flatnonzero(want_mask[i])):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(1, ok, f"50 configs x 3 cutoffs exact ({mismatches} mismatches, "
                  f"{elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 2. two-sphere SASA within 1% of 27*pi at N=10,000; isolated atom exact
# --------------------------------------------------------------------------

def test_criterion_2_sasa_analytic():
    params = AtomParams(q=np.zeros(2), R=np.full(2, 1.6), eps=np.full(2, 0.1),
                        gamma=np.ones(2))
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    cfg = SolvationConfig(samples=10_000)
    sphere = generate_samples(10_000)
    nbrs = neighbor_table([[1], [0]])
    res, _ = sasa_pass(pos, params, nbrs, sphere, cfg)
    want = two_sphere_exposed_area(3.0, 3.0)
    rel = np.abs(res.a_exp - want).max() / want
    iso, _ = sasa_pass(pos[:1], params, neighbor_table([[]]), sphere, cfg)
    exact = iso.a_exp[0] == 4.0 * math.pi * 3.0**2
    ok = rel < 0.01 and want == pytest.approx(27 * math.pi) and exact
    report(2, ok, f"two-sphere a_exp within {rel:.4%} of 27*pi; isolated exact")


# --------------------------------------------------------------------------
# 3. incremental forces match the full-energy forward difference; sum == 0
# --------------------------------------------------------------------------

def test_criterion_3_solvation_gradient():
    rng = np.random.default_rng(103)
    cfg = SolvationConfig(samples=256)
    sphere = generate_samples(256)
    worst = 0.0
    momentum_exact = True
    for _ in range(10):
        pos = cluster(rng, 5, 4.2, min_d=1.0)
        params = AtomParams(q=np.zeros(5), R=rng.uniform(1.2, 2.0, 5),
                            eps=np.full(5, 0.1), gamma=rng.uniform(-0.2, 0.05, 5))
        nbrs = neighbor_table([[j for j in range(5) if j != i] for i in range(5)])
        _, states = sasa_pass(pos, params, nbrs, sphere, cfg)
        f = solvation_forces(pos, params, nbrs, sphere, states, cfg)
        momentum_exact &= bool(np.all(f.sum(axis=0) == 0.0))
        r_off = offset_radii(params, cfg)
        g0_max = float(np.max(np.abs(4 * math.pi * params.gamma * r_off**2)))
        tol = 4.0 * g0_max / (sphere.n * cfg.delta_r)
        base, _ = sasa_pass(pos, params, nbrs, sphere, cfg)
        for a in range(5):
            for s in range(3):
                moved = pos.copy()
                moved[a, s] += cfg.delta_r
                res, _ = sasa_pass(moved, params, nbrs, sphere, cfg)
                fd = -(res.g_cav - base.g_cav) / cfg.delta_r
                worst = max(worst, abs(f[a, s] - fd) / tol)
    ok = worst <= 1.0 and momentum_exact
    report(3, ok, f"10 clusters: worst deviation {worst:.3f} of budget; "
                  f"momentum exactly zero: {momentum_exact}")


# --------------------------------------------------------------------------
# 4. incremental critical-neighbor forces == displaced-recount, bitwise
# --------------------------------------------------------------------------

def test_criterion_4_step2_soundness():
    rng = np.random.default_rng(104)
    cfg = SolvationConfig(samples=256)
    sphere = generate_samples(256)
    exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        pos = rng.uniform(0, 4.5, (n, 3))
        params = AtomParams(q=np.zeros(n), R=rng.uniform(1.0, 2.0, n),
                            eps=np.full(n, 0.1), gamma=rng.uniform(-0.2, 0.05, n))
        nbrs = neighbor_table([[j for j in range(n) if j != i] for i in range(n)])
        _, states = sasa_pass(pos, params, nbrs, sphere, cfg)
        fast = solvation_forces(pos, params, nbrs, sphere, states, cfg)
        slow = naive_solvation_forces(pos, params, nbrs, sphere, cfg)
        exact += int(np.array_equal(fast, slow))
    report(4, exact == 100, f"{exact}/100 trials bitwise-equal to the recount")


# --------------------------------------------------------------------------
# 5. reverse-pass torques == quadratic column scan, 1e-10 relative
# --------------------------------------------------------------------------

def test_criterion_5_torque_equivalence():
    rng = np.random.default_rng(105)
    ch = build_chain(["SER", "ALA", "GLY", "CYS", "ALA",
                      "SER", "GLY", "ALA", "CYS", "ALA"])
    worst = 0.0
    for _ in range(20):
        conf = Conformation(rng.uniform(0, 360, ch.n_dof),
                            np.zeros(ch.n_dof, bool))
        state = kinematic_state(ch, conf)
        forces = rng.normal(size=(ch.n_atoms, 3))
        w = link_wrenches(ch, state.positions, forces)
        fast = joint_torques(ch, state, w)
        slow = quadratic_joint_torques(ch, state, w)
        worst = max(worst, np.abs(fast - slow).max() / max(np.abs(slow).max(), 1.0))
    report(5, worst < 1e-10, f"20 conformations, worst relative gap {worst:.2e}")


# --------------------------------------------------------------------------
# 6. electrostatic and van der Waals force sums vanish
# --------------------------------------------------------------------------

def test_criterion_6_force_equilibrium():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(5):
        pos = cluster(rng, 200, 21.0)
        params = AtomParams(q=rng.uniform(-0.8, 0.8, 200),
                            R=rng.uniform(1.2, 2.0, 200),
                            eps=rng.uniform(0.02, 0.25, 200),
                            gamma=np.zeros(200))
        fe = pair_field(only(params, "elec"), elec=9.0).evaluate(pos).forces
        fv = pair_field(only(params, "vdw"), vdw=5.0).evaluate(pos).forces
        for f in (fe, fv):
            worst = max(worst, np.abs(f.sum(0)).max() / max(np.abs(f).max(), 1.0))
    report(6, worst < 1e-9, f"largest residual momentum {worst:.2e} relative")


# --------------------------------------------------------------------------
# 7 & 8. helix formation and chirality ordering (shared folding runs)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def helix_runs(param_set):
    ch = build_chain(["ALA"] * 15)
    field = make_field(ch, param_set)
    step = StepConfig(kappa=0.5, max_iters=1000, torque_tol_rel=0.0,
                      energy_window=20, energy_tol=0.02)
    out = {}
    for start in (-10.0, +10.0):
        t0 = time.perf_counter()
        traj = fold(ch, ch.conf_from_backbone(start, start), field, step)
        out[start] = (traj, time.perf_counter() - t0)
    return ch, out


def test_criterion_7_helix_formation(helix_runs):
    ch, runs = helix_runs
    traj_r, dt_r = runs[-10.0]
    traj_l, dt_l = runs[+10.0]
    interior = slice(2, 13)
    phi_r, psi_r, _ = ch.dihedrals_from_theta(traj_r.final)
    phi_l, psi_l, _ = ch.dihedrals_from_theta(traj_l.final)
    right_ok = (np.all((phi_r[interior] >= -110) & (phi_r[interior] <= -40))
                and np.all((psi_r[interior] >= -70) & (psi_r[interior] <= 10)))
    left_ok = (np.all((phi_l[interior] >= 40) & (phi_l[interior] <= 110))
               and np.all((psi_l[interior] >= -10) & (psi_l[interior] <= 70)))
    converged = traj_r.converged and traj_l.converged
    within = traj_r.iterations <= 1000 and traj_l.iterations <= 1000
    fast = (dt_r + dt_l) < 300.0
    ok = right_ok and left_ok and converged and within and fast
    report(7, ok,
           f"-10 deg run: {traj_r.iterations} iters, interior "
           f"({np.mean(phi_r[interior]):.1f}, {np.mean(psi_r[interior]):.1f}); "
           f"+10 deg run mirrored ({np.mean(phi_l[interior]):.1f}, "
           f"{np.mean(psi_l[interior]):.1f}); {dt_r + dt_l:.0f} s total")


def test_criterion_8_chirality_ordering(helix_runs):
    _, runs = helix_runs
    e_right = runs[-10.0][0].records[-1].energy.g_total
    e_left = runs[+10.0][0].records[-1].energy.g_total
    report(8, e_right < e_left,
           f"right-handed {e_right:.2f} < left-handed {e_left:.2f} kcal/mol")


# --------------------------------------------------------------------------
# 9. Ramachandran steric band and minimum placement
# --------------------------------------------------------------------------

def test_criterion_9_ramachandran(param_set):
    ch = build_chain(["ALA", "ALA"])
    field = make_field(ch, param_set)
    grid = ramachandran_scan(ch, 1, 36, field)
    g = grid.g_total
    phis = list(grid.axes[0])
    i0 = phis.index(0.0)
    j0 = list(grid.axes[1]).index(0.0)
    band = g[i0, j0] - g.min()
    k = np.unravel_index(np.argmin(g), g.shape)
    phi_min = grid.axes[0][k[0]]
    ok = band >= 10.0 and abs(phi_min) >= 30.0
    report(9, ok, f"G(0,0) - min = {band:.1f} kcal/mol; minimum at "
                  f"phi = {phi_min:.0f} deg")


# --------------------------------------------------------------------------
# 10. force-computation scaling and hashed-vs-brute speedup
# --------------------------------------------------------------------------

def test_criterion_10_scaling(param_set):
    sizes = [50, 100, 200, 400]
    times = []
    for m in sizes:
        ch = build_chain(["ALA"] * m)
        field = make_field(ch, param_set, solvation=True,
                          solvation_cfg=SolvationConfig(samples=256))
        pos = forward_kinematics(ch, ch.conf_zp())
        best = np.inf
        for _ in range(2):
            r = field.evaluate(pos)
            best = min(best, r.timings["force"] + r.timings["solvation"])
        times.append(best)
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])

    ch = build_chain(["ALA"] * 60)
    f_hash = make_field(ch, param_set)
    f_brute = BruteField(f_hash.params, f_hash.weights, f_hash.config)
    pos = forward_kinematics(ch, ch.conf_zp())
    t_h = t_b = np.inf
    for _ in range(5):
        rh = f_hash.evaluate(pos)
        t_h = min(t_h, rh.timings["force"])
        rb = f_brute.evaluate(pos)
        t_b = min(t_b, rb.timings["force"] + rb.timings["hash"])
    speedup = t_b / t_h
    ok = exponent < 1.3 and speedup >= 2.0
    report(10, ok, f"force-phase exponent {exponent:.2f} over m=50..400; "
                   f"hashed {speedup:.1f}x faster at m=60")


# --------------------------------------------------------------------------
# 11. the atom-block partition never changes exposure states; forces within
#     1e-6.  A block is one part of a row partition: its table keeps the
#     rows of one contiguous atom run and leaves the others empty.
# --------------------------------------------------------------------------

def test_criterion_11_block_partition_invariance(param_set):
    ch = build_chain(["SER", "ALA", "CYS"] * 6)
    params = param_set.resolve(ch)
    pos = forward_kinematics(ch, ch.conf_zp())
    lists = cutoff_lists(build_neighbor_table(build_grid(pos, 8.0)), pos, 8.0)
    sphere = generate_samples(1024)
    cfg = SolvationConfig(samples=1024)
    n = len(pos)
    res1, st1 = sasa_pass(pos, params, lists, sphere, cfg)
    f1 = solvation_forces(pos, params, lists, sphere, st1, cfg)
    ok = True
    for blocks in (2, 4, 7):
        f_exp, counts, _, f_t = passes_by_row_parts(pos, params, lists, sphere, cfg,
                                                    blocks)
        ok &= bool(np.array_equal(st1.counts, counts))
        ok &= bool(np.array_equal(res1.f_exp, f_exp))
        scale = max(np.abs(f1).max(), 1e-12)
        ok &= bool(np.abs(f_t - f1).max() <= 1e-6 * scale)
    report(11, ok, "exposure states identical and forces within 1e-6 "
                   f"for {n} atoms in 1, 2, 4, and 7 blocks")


# --------------------------------------------------------------------------
# 12. polyglycine vacuum energy is mirror symmetric
# --------------------------------------------------------------------------

def test_criterion_12_mirror_symmetry(param_set):
    rng = np.random.default_rng(112)
    ch = build_chain(["GLY"] * 6)
    field = make_field(ch, param_set)
    worst = 0.0
    done = 0
    while done < 20:
        conf = Conformation(rng.uniform(0, 360, ch.n_dof),
                            np.zeros(ch.n_dof, bool))
        mirror = Conformation((360.0 - conf.theta) % 360.0, conf.frozen)
        try:
            g1 = single_point(ch, conf, field).g_total
            g2 = single_point(ch, mirror, field).g_total
        except Exception:
            continue
        worst = max(worst, abs(g1 - g2) / max(abs(g1), 1e-9))
        done += 1
    report(12, worst < 1e-8, f"20 conformations, worst relative gap {worst:.2e}")
