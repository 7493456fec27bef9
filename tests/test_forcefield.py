import numpy as np
import pytest

from kinefold.errors import ConfigurationError, StericClashError
from kinefold.forcefield import (
    COULOMB_K,
    AtomParams,
    DielectricModel,
    EnergyBreakdown,
)
from . import oracles
from .conftest import UniformWeights, only, pair_field


def cluster_params(n, rng, charged=True):
    q = rng.uniform(-0.8, 0.8, n) if charged else np.zeros(n)
    return AtomParams(
        q=q,
        R=rng.uniform(1.2, 2.0, n),
        eps=rng.uniform(0.02, 0.25, n),
        gamma=np.zeros(n),
    )


def spread_cluster(rng, n, side, min_d=1.6):
    """Random points with a minimum separation (keeps forces finite)."""
    pts = [rng.uniform(0, side, 3)]
    while len(pts) < n:
        cand = rng.uniform(0, side, 3)
        if min(np.linalg.norm(cand - p) for p in pts) >= min_d:
            pts.append(cand)
    return np.array(pts)


def energy(pos, params, weights=UniformWeights(), **kw):
    return pair_field(params, weights, **kw).evaluate(pos, energy_only=True).energy


def forces(pos, params, term, weights=UniformWeights(), **kw):
    """Forces of one pair term: the other is silenced in ``params``."""
    return pair_field(only(params, term), weights, **kw).evaluate(pos).forces


def test_zero_charge_no_contribution(rng):
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    params = AtomParams(q=np.array([0.0, 1.0]), R=np.ones(2) * 1.5,
                        eps=np.ones(2) * 0.1, gamma=np.zeros(2))
    f = forces(pos, params, "elec")
    assert np.allclose(f, 0.0)
    assert energy(pos, params).g_elec == 0.0


def test_beyond_cutoff_zero():
    pos = np.array([[0.0, 0.0, 0.0], [9.5, 0.0, 0.0]])
    params = AtomParams(q=np.ones(2), R=np.ones(2) * 1.5, eps=np.ones(2) * 0.1,
                        gamma=np.zeros(2))
    assert energy(pos, params, elec=9.0).g_elec == 0.0
    assert np.allclose(forces(pos, params, "elec", elec=9.0), 0.0)


def test_unit_charges_hand_value():
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    params = AtomParams(q=np.ones(2), R=np.ones(2) * 1.5, eps=np.ones(2) * 0.1,
                        gamma=np.zeros(2))
    f = forces(pos, params, "elec")
    want = oracles.pair_elec_force(1.0, 1.0, 3.0, kappa=3.0)
    assert f[0, 0] == pytest.approx(-want, rel=1e-12)
    assert f[1, 0] == pytest.approx(want, rel=1e-12)
    e = energy(pos, params).g_elec
    assert e == pytest.approx(oracles.pair_elec_energy(1.0, 1.0, 3.0, kappa=3.0))
    assert e == pytest.approx(COULOMB_K / 9.0)


def test_opposite_charges_negative_energy():
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    params = AtomParams(q=np.array([1.0, -1.0]), R=np.ones(2) * 1.5,
                        eps=np.ones(2) * 0.1, gamma=np.zeros(2))
    assert energy(pos, params).g_elec < 0


def test_elec_energy_matches_brute(rng):
    pos = spread_cluster(rng, 20, 11.0)
    params = cluster_params(20, rng)
    got = energy(pos, params, elec=9.0).g_elec
    want = oracles.brute_elec_energy(pos, params.q, 9.0, lambda d: d)
    assert got == pytest.approx(want, rel=1e-12)


def test_vdw_zero_force_at_minimum():
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    params = AtomParams(q=np.zeros(2), R=np.array([1.5, 1.5]),
                        eps=np.array([0.2, 0.2]), gamma=np.zeros(2))
    f = forces(pos, params, "vdw")
    assert np.abs(f).max() < 1e-12
    e = energy(pos, params).g_vdw
    assert e == pytest.approx(-0.2)


def test_vdw_repulsive_inside_minimum():
    pos = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0]])
    params = AtomParams(q=np.zeros(2), R=np.array([1.5, 1.5]),
                        eps=np.array([0.2, 0.2]), gamma=np.zeros(2))
    f = forces(pos, params, "vdw")
    assert f[0, 0] < 0 and f[1, 0] > 0  # pushed apart


def test_vdw_energy_matches_brute(rng):
    pos = spread_cluster(rng, 18, 9.0, min_d=2.2)
    params = cluster_params(18, rng, charged=False)
    got = energy(pos, params, vdw=5.0).g_vdw
    want = oracles.brute_vdw_energy(pos, params.eps, params.R, 5.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_vdw_beyond_cutoff_zero():
    pos = np.array([[0.0, 0.0, 0.0], [5.5, 0.0, 0.0]])
    params = AtomParams(q=np.zeros(2), R=np.ones(2), eps=np.ones(2) * 0.1,
                        gamma=np.zeros(2))
    assert energy(pos, params, vdw=5.0).g_vdw == 0.0


def test_newton_third_law(rng):
    pos = spread_cluster(rng, 60, 14.0)
    params = cluster_params(60, rng)
    fe = forces(pos, params, "elec", elec=9.0)
    fv = forces(pos, params, "vdw", vdw=5.0)
    for f in (fe, fv):
        scale = np.abs(f).max()
        assert np.abs(f.sum(axis=0)).max() < 1e-9 * max(scale, 1.0)


def test_force_energy_consistency_constant_dielectric(rng):
    """Central difference of the energy matches the force (constant kappa)."""
    dielectric = DielectricModel(kappa=2.0)
    pos = spread_cluster(rng, 8, 6.5, min_d=2.0)
    params = cluster_params(8, rng)
    cut = {"elec": 50.0, "vdw": 50.0}  # everything well inside the cutoffs
    h = 1e-5
    f_e = forces(pos, params, "elec", dielectric=dielectric, **cut)
    f_v = forces(pos, params, "vdw", **cut)
    for a in (0, 3):
        for s in range(3):
            plus = pos.copy(); plus[a, s] += h
            minus = pos.copy(); minus[a, s] -= h
            e_plus = energy(plus, params, dielectric=dielectric, **cut)
            e_minus = energy(minus, params, dielectric=dielectric, **cut)
            ge = e_plus.g_elec - e_minus.g_elec
            gv = e_plus.g_vdw - e_minus.g_vdw
            assert -ge / (2 * h) == pytest.approx(f_e[a, s], rel=1e-4, abs=1e-7)
            assert -gv / (2 * h) == pytest.approx(f_v[a, s], rel=1e-4, abs=1e-7)


def test_weight_gating_zeroes_everything(rng):
    pos = spread_cluster(rng, 12, 8.0)
    params = cluster_params(12, rng)
    zero = UniformWeights(0.0)
    e = energy(pos, params, zero)
    assert e.g_elec == 0.0
    assert e.g_vdw == 0.0
    assert np.allclose(forces(pos, params, "elec", zero), 0.0)
    assert np.allclose(forces(pos, params, "vdw", zero), 0.0)


def test_truncation_reaches_untruncated_limit(rng):
    pos = spread_cluster(rng, 15, 7.0)
    params = cluster_params(15, rng)
    diameter = np.linalg.norm(pos.max(0) - pos.min(0)) + 1.0
    got = energy(pos, params, elec=diameter).g_elec
    want = oracles.brute_elec_energy(pos, params.q, np.inf, lambda d: d)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kappa", [None, 4.0])
def test_dielectric_kappa_is_the_permittivity(rng, kappa):
    """``kappa=None`` is eps(d) = d; a number is used as the constant
    permittivity, never dropped for the distance model."""
    pos = spread_cluster(rng, 12, 7.0)
    params = cluster_params(12, rng)
    diameter = np.linalg.norm(pos.max(0) - pos.min(0)) + 1.0
    got = energy(pos, params, dielectric=DielectricModel(kappa=kappa), elec=diameter)
    want = oracles.brute_elec_energy(pos, params.q, np.inf,
                                     lambda d: d if kappa is None else kappa)
    assert got.g_elec == pytest.approx(want, rel=1e-12)


def test_coincident_atoms_raise():
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-9]])
    params = AtomParams(q=np.ones(2), R=np.ones(2), eps=np.ones(2) * 0.1,
                        gamma=np.zeros(2))
    with pytest.raises(StericClashError):
        forces(pos, params, "elec")


def test_energy_breakdown_sums():
    e = EnergyBreakdown(g_elec=1.25, g_vdw=-0.5, g_cav=0.125)
    assert e.g_total == pytest.approx(1.25 - 0.5 + 0.125, rel=1e-12)


def test_param_validation():
    with pytest.raises(ConfigurationError):
        AtomParams(q=np.zeros(2), R=np.array([0.0, 1.0]), eps=np.zeros(2),
                   gamma=np.zeros(2))
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="kappa must be positive and finite"):
            DielectricModel(kappa=kappa)
