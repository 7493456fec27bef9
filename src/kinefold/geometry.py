"""Low-level 3D geometry: unit vectors, angle wrapping, dihedral
measurement and residue frames.

All public angles are in degrees; trigonometry converts internally.
Rotations follow the right-hand rule about the given axis direction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

AXIS_UNIT_TOL = 1e-9


def norms(v) -> np.ndarray:
    """Euclidean norms along the last axis, each bitwise equal to
    ``np.linalg.norm`` of its row (a dot product, not a sum of squares)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def unit_vector(v: np.ndarray) -> np.ndarray:
    """Normalize ``v`` along its last axis, so an (m, 3) array gives m
    unit rows; raises on zero-length input."""
    v = np.asarray(v, dtype=float)
    n = norms(v)
    if np.count_nonzero(n) < n.size:
        raise ConfigurationError("cannot normalize a zero-length vector")
    return v / n[..., None]


def wrap_degrees(theta) -> np.ndarray:
    """Wrap angle(s) into [0, 360); a tiny negative goes to 0, not 360."""
    wrapped = np.mod(theta, 360.0)
    return np.where(wrapped == 360.0, 0.0, wrapped)


def signed_degrees(theta) -> np.ndarray:
    """Wrap angle(s) into [-180, 180)."""
    return wrap_degrees(np.asarray(theta, dtype=float) + 180.0) - 180.0


def dihedral_angle(p1, p2, p3, p4) -> float:
    """Torsion angle p1-p2-p3-p4 in degrees, in [-180, 180).

    Sign convention (IUPAC): a right-handed rotation of the distal pair
    about the p2->p3 direction increases the returned angle.
    """
    b0 = np.asarray(p1, float) - np.asarray(p2, float)
    b1 = unit_vector(np.asarray(p3, float) - np.asarray(p2, float))
    b2 = np.asarray(p4, float) - np.asarray(p3, float)
    v = b0 - (b0 @ b1) * b1
    w = b2 - (b2 @ b1) * b1
    # b1 x v written out: np.cross costs ~15 us on a single 3-vector
    x, y, z = b1
    vx, vy, vz = v
    b1_v = np.array([y * vz - z * vy, z * vx - x * vz, x * vy - y * vx])
    ang = math.degrees(math.atan2(float(b1_v @ w), float(v @ w)))
    return float(signed_degrees(ang))


def frame_from_backbone(n: np.ndarray, ca: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Orthonormal residue frames as columns [ex ey ez] anchored at CA.

    ex points N->CA, ey lies in the N-CA-C plane on the carbonyl-carbon
    side, ez = ex x ey completes the right-handed triad.  Rows of (m, 3)
    position arrays give m frames, shape (m, 3, 3).
    """
    ex = unit_vector(np.asarray(ca, float) - np.asarray(n, float))
    w = unit_vector(np.asarray(c, float) - np.asarray(ca, float))
    ez = unit_vector(np.cross(ex, w))
    ey = np.cross(ez, ex)
    return np.stack([ex, ey, ez], axis=-1)
