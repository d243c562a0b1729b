"""3D math for the software rasterizer.

Column-vector convention: a point ``p`` transforms as ``M @ p`` with
``p`` homogeneous ``(x, y, z, 1)``.  Matrices are ``float64`` numpy
arrays of shape ``(4, 4)``; batches of points are ``(N, 4)`` and
transform as ``(M @ points.T).T``.

The projection uses OpenGL clip-space conventions (right-handed eye
space looking down ``-z``, NDC cube ``[-1, 1]^3``) because the paper's
workloads are OpenGL/Direct3D traces and its SMP description is written
in terms of an ``[-W, +W]`` screen axis.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "identity",
    "look_at",
    "normalize",
    "perspective",
    "rotate_y",
    "transform_points",
    "translate",
]


def identity() -> np.ndarray:
    """The 4x4 identity transform."""
    return np.eye(4, dtype=np.float64)


def normalize(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit length (raises on the zero vector)."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def translate(dx: float, dy: float, dz: float) -> np.ndarray:
    """Translation by ``(dx, dy, dz)``."""
    m = identity()
    m[:3, 3] = (dx, dy, dz)
    return m


def _rotation(axis_a: int, axis_b: int, radians: float) -> np.ndarray:
    m = identity()
    c, s = math.cos(radians), math.sin(radians)
    m[axis_a, axis_a] = c
    m[axis_a, axis_b] = -s
    m[axis_b, axis_a] = s
    m[axis_b, axis_b] = c
    return m


def rotate_y(radians: float) -> np.ndarray:
    """Rotation about the +y axis."""
    return _rotation(2, 0, radians)


def look_at(
    eye: Sequence[float],
    target: Sequence[float],
    up: Sequence[float] = (0.0, 1.0, 0.0),
) -> np.ndarray:
    """A right-handed view matrix placing the camera at ``eye``.

    The camera looks towards ``target``; eye space looks down ``-z``.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = normalize(target - eye)
    right = normalize(np.cross(forward, np.asarray(up, dtype=np.float64)))
    true_up = np.cross(right, forward)
    m = identity()
    m[0, :3] = right
    m[1, :3] = true_up
    m[2, :3] = -forward
    m[:3, 3] = -(m[:3, :3] @ eye)
    return m


def perspective(
    fov_y_degrees: float,
    aspect: float,
    near: float,
    far: float,
) -> np.ndarray:
    """An OpenGL-style perspective projection.

    Maps the right-handed view frustum to the ``[-1, 1]^3`` NDC cube
    (after the perspective divide).  ``aspect`` is width over height.
    """
    if not 0.0 < fov_y_degrees < 180.0:
        raise ValueError("field of view must be in (0, 180) degrees")
    if aspect <= 0:
        raise ValueError("aspect ratio must be positive")
    if near <= 0 or far <= near:
        raise ValueError("need 0 < near < far")
    f = 1.0 / math.tan(math.radians(fov_y_degrees) / 2.0)
    m = np.zeros((4, 4), dtype=np.float64)
    m[0, 0] = f / aspect
    m[1, 1] = f
    m[2, 2] = (far + near) / (near - far)
    m[2, 3] = 2.0 * far * near / (near - far)
    m[3, 2] = -1.0
    return m


def transform_points(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 ``matrix`` to ``(N, 3)`` or ``(N, 4)`` points.

    Returns homogeneous ``(N, 4)`` coordinates *without* dividing by
    ``w`` — the rasterizer needs ``w`` for perspective-correct
    interpolation and near-plane handling.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] not in (3, 4):
        raise ValueError("points must have shape (N, 3) or (N, 4)")
    if points.shape[1] == 3:
        points = np.hstack([points, np.ones((len(points), 1))])
    return (matrix @ points.T).T
