import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinefold.chain import Conformation
from kinefold.errors import ConfigurationError
from kinefold.geometry import (
    dihedral_angle,
    signed_degrees,
    unit_vector,
    wrap_degrees,
)

from .oracles import rotation_about_axis


def test_zero_angle_is_identity():
    r = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.0)
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_z_quarter_turn_maps_x_to_y():
    r = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 90.0)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_non_unit_axis_rejected():
    with pytest.raises(ConfigurationError):
        rotation_about_axis(np.array([0.0, 0.0, 2.0]), 10.0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.floats(-720, 720, allow_nan=False),
)
def test_rotation_orthonormal_and_fixes_axis(axis, angle):
    axis = unit_vector(np.array(axis))
    r = rotation_about_axis(axis, angle)
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
    assert abs(np.linalg.det(r) - 1.0) < 1e-10
    assert np.allclose(r @ axis, axis, atol=1e-12)


def test_wrap_conventions():
    assert wrap_degrees(361.0) == pytest.approx(1.0)
    assert wrap_degrees(-1.0) == pytest.approx(359.0)
    assert signed_degrees(180.0) == pytest.approx(-180.0)
    assert signed_degrees(179.0) == pytest.approx(179.0)
    # np.mod rounds a tiny negative up to the divisor itself; the upper
    # bound is mapped to the lower one, a positive zero
    for x in (-1e-20, -5e-324, -0.0, 720.0):
        assert wrap_degrees(x) == 0.0 and not np.signbit(wrap_degrees(x))
    assert signed_degrees(np.nextafter(-180.0, -np.inf)) == -180.0
    assert Conformation(np.array([-1e-20]), np.zeros(1, bool)).theta[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-20)
@example(-5e-324)
@example(-0.0)
@example(720.0)
@example(float(np.nextafter(-180.0, -np.inf)))
def test_wrappers_stay_in_range_and_wrap_idempotent(x):
    wrapped = wrap_degrees(x)
    assert 0.0 <= wrapped < 360.0
    assert wrap_degrees(wrapped) == wrapped
    assert -180.0 <= signed_degrees(x) < 180.0


def test_dihedral_sign_follows_right_hand_rotation():
    p1 = np.array([0.0, 1.0, 0.0])
    p2 = np.zeros(3)
    p3 = np.array([1.0, 0.0, 0.0])
    p4_trans = np.array([1.0, -1.0, 0.0])
    assert dihedral_angle(p1, p2, p3, p4_trans) == pytest.approx(-180.0)
    rot = rotation_about_axis(np.array([1.0, 0.0, 0.0]), 30.0)
    p4 = p3 + rot @ (p4_trans - p3)
    assert dihedral_angle(p1, p2, p3, p4) == pytest.approx(-150.0)


def test_dihedral_planar_cis_is_zero():
    assert dihedral_angle([0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0]) == pytest.approx(0.0)


def test_unit_vector_rejects_zero():
    with pytest.raises(ConfigurationError):
        unit_vector(np.zeros(3))


def test_dihedral_additivity_under_axis_rotation(rng):
    for _ in range(25):
        pts = rng.normal(size=(4, 3)) * 3.0
        if np.linalg.norm(pts[2] - pts[1]) < 0.2:
            continue
        base = dihedral_angle(*pts)
        delta = float(rng.uniform(-179, 179))
        axis = unit_vector(pts[2] - pts[1])
        rot = rotation_about_axis(axis, delta)
        p4 = pts[2] + rot @ (pts[3] - pts[2])
        moved = dihedral_angle(pts[0], pts[1], pts[2], p4)
        diff = (moved - base - delta + 180.0) % 360.0 - 180.0
        assert abs(diff) < 1e-8
