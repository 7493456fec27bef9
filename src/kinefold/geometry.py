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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, each bitwise the 1-d ``a @ b`` of
    its rows (``matmul`` of a row by a column, whatever the stacking)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def norms(v) -> np.ndarray:
    """Euclidean norms along the last axis, each bitwise equal to
    ``np.linalg.norm`` of its row (a dot product, not a sum of squares)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(_dot(v, v))


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


def dihedral_angle(p1, p2, p3, p4):
    """Torsion angle p1-p2-p3-p4 in degrees, in [-180, 180).

    Sign convention (IUPAC): a right-handed rotation of the distal pair
    about the p2->p3 direction increases the returned angle.  The points
    may be stacked, shape (..., 3), to give an array of shape (...);
    single points give a float.  Each angle is bitwise the one its points
    give alone: the dot products are row by column ``matmul``s, the cross
    product is written out, and ``math.atan2`` (libm) runs per value,
    since numpy's vectorised ``arctan2`` need not round like it.
    """
    b0 = np.asarray(p1, float) - np.asarray(p2, float)
    b1 = unit_vector(np.asarray(p3, float) - np.asarray(p2, float))
    b2 = np.asarray(p4, float) - np.asarray(p3, float)
    v = b0 - _dot(b0, b1)[..., None] * b1
    w = b2 - _dot(b2, b1)[..., None] * b1
    x, y, z = b1[..., 0], b1[..., 1], b1[..., 2]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    b1_v = np.stack([y * vz - z * vy, z * vx - x * vz, x * vy - y * vx], axis=-1)
    ang = np.array([math.degrees(math.atan2(s, c)) for s, c in
                    zip(_dot(b1_v, w).ravel().tolist(), _dot(v, w).ravel().tolist())])
    ang = signed_degrees(ang.reshape(b1.shape[:-1]))
    return float(ang) if ang.ndim == 0 else ang


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
