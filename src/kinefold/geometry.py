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


def unit_vector(v: np.ndarray) -> np.ndarray:
    """Normalize ``v``; raises on zero-length input."""
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ConfigurationError("cannot normalize a zero-length vector")
    return np.asarray(v, dtype=float) / n


def wrap_degrees(theta) -> np.ndarray:
    """Wrap angle(s) into [0, 360)."""
    return np.mod(theta, 360.0)


def signed_degrees(theta) -> np.ndarray:
    """Wrap angle(s) into [-180, 180)."""
    return np.mod(np.asarray(theta, dtype=float) + 180.0, 360.0) - 180.0


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
    ang = math.degrees(math.atan2(float(np.cross(b1, v) @ w), float(v @ w)))
    return float(signed_degrees(ang))


def frame_from_backbone(n: np.ndarray, ca: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Orthonormal residue frame as columns [ex ey ez] anchored at CA.

    ex points N->CA, ey lies in the N-CA-C plane on the carbonyl-carbon
    side, ez = ex x ey completes the right-handed triad.
    """
    ex = unit_vector(np.asarray(ca, float) - np.asarray(n, float))
    w = unit_vector(np.asarray(c, float) - np.asarray(ca, float))
    ez = unit_vector(np.cross(ex, w))
    ey = np.cross(ez, ex)
    return np.column_stack([ex, ey, ez])
