"""Mono and stereo cameras.

A :class:`StereoCamera` produces the two view matrices of an HMD: the
eyes sit ``ipd`` apart along the camera's right axis and share one
projection.  This is exactly the geometry the paper's SMP engine
exploits — "it duplicates the geometry process from left to right views
through changing the projection centers instead of executing the
geometry process twice" (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.render.math3d import look_at, normalize, perspective

__all__ = ["Camera", "StereoCamera"]


@dataclass(frozen=True)
class Camera:
    """A single-viewpoint perspective camera.

    Parameters
    ----------
    position / target / up:
        World-space placement (see :func:`repro.render.math3d.look_at`).
    fov_y_degrees:
        Vertical field of view.  VR HMDs are wide (Table 1 quotes 120°+
        horizontally); the examples default to a conservative 90°.
    aspect:
        Viewport width over height.
    near / far:
        Clip plane distances.
    """

    position: Tuple[float, float, float]
    target: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    up: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    fov_y_degrees: float = 90.0
    aspect: float = 1.0
    near: float = 0.1
    far: float = 100.0

    def view_matrix(self) -> np.ndarray:
        return look_at(self.position, self.target, self.up)

    def projection_matrix(self) -> np.ndarray:
        return perspective(self.fov_y_degrees, self.aspect, self.near, self.far)

    def view_projection(self) -> np.ndarray:
        """The combined clip-from-world transform."""
        return self.projection_matrix() @ self.view_matrix()


@dataclass(frozen=True)
class StereoCamera:
    """A stereo rig: one head pose, two eye viewpoints.

    The eye separation (interpupillary distance, ``ipd``) defaults to
    64 mm expressed in scene units (the examples use metres).  Both eyes
    look along the head's forward axis — parallel view directions, as in
    real HMD projection — and share a single projection matrix, which is
    the property that makes SMP a pure re-projection.
    """

    head: Camera
    ipd: float = 0.064

    def __post_init__(self) -> None:
        if self.ipd <= 0:
            raise ValueError("interpupillary distance must be positive")

    def _eye_offset(self) -> np.ndarray:
        """The world-space right axis of the head, scaled to ipd/2."""
        position = np.asarray(self.head.position, dtype=np.float64)
        target = np.asarray(self.head.target, dtype=np.float64)
        forward = normalize(target - position)
        right = normalize(
            np.cross(forward, np.asarray(self.head.up, dtype=np.float64))
        )
        return right * (self.ipd / 2.0)

    def eye_camera(self, eye: str) -> Camera:
        """The per-eye camera (``"left"`` or ``"right"``)."""
        if eye not in ("left", "right"):
            raise ValueError("eye must be 'left' or 'right'")
        sign = -1.0 if eye == "left" else 1.0
        offset = self._eye_offset() * sign
        position = tuple(np.asarray(self.head.position) + offset)
        target = tuple(np.asarray(self.head.target) + offset)
        return Camera(
            position=position,
            target=target,
            up=self.head.up,
            fov_y_degrees=self.head.fov_y_degrees,
            aspect=self.head.aspect,
            near=self.head.near,
            far=self.head.far,
        )

    def view_projections(self) -> Tuple[np.ndarray, np.ndarray]:
        """(left, right) clip-from-world matrices."""
        return (
            self.eye_camera("left").view_projection(),
            self.eye_camera("right").view_projection(),
        )

    def reprojection_offset_ndc(self) -> float:
        """The SMP approximation: the NDC x-shift between the two eyes.

        For scene points far from the camera the two eye projections
        differ (to first order) by a constant shift along x.  The SMP
        engine in the paper's Fig. 5 renders the left view and shifts
        the viewport by W/2; this returns the equivalent NDC offset for
        a point at the head's target distance, used by the fast
        reprojection path of :class:`repro.render.stereo.StereoRenderer`.
        """
        position = np.asarray(self.head.position, dtype=np.float64)
        target = np.asarray(self.head.target, dtype=np.float64)
        distance = float(np.linalg.norm(target - position))
        if distance == 0:
            raise ValueError("head target coincides with head position")
        # Screen-space parallax of a point at `distance`, in NDC units.
        projection = self.head.projection_matrix()
        focal_x = float(projection[0, 0])
        return focal_x * self.ipd / distance
