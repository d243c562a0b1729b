"""Stereo frame rendering: sequential stereo vs. SMP (the Fig. 5 study).

:class:`StereoRenderer` renders a list of :class:`SceneObject3D` props
into a side-by-side stereo framebuffer under three modes:

- ``SEQUENTIAL`` — the pre-SMP pipeline: every object's geometry is
  transformed twice, once per eye (two full passes);
- ``SMP`` — simultaneous multi-projection: vertex shading (the
  model-space work) happens once per object, and only the per-eye
  *projection* is applied twice, exactly the duplication the paper's
  SMP engine performs inside the PolyMorph Engine;
- ``REPROJECTED`` — the aggressive approximation described around
  Fig. 5: render the left eye, then shift the viewport by the stereo
  parallax to synthesise the right eye, with clipping preventing spill
  into the opposite eye.  Cheap but geometrically wrong for near
  objects — the validation report quantifies the error.

Per-frame :class:`StereoFrameStats` expose the counter the paper uses
to validate its simulator changes: SMP halves ``vertices_transformed``
while leaving fragment counts untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.render.camera import StereoCamera
from repro.render.framebuffer import FrameBuffer, side_by_side
from repro.render.mesh3d import TriangleMesh
from repro.render.raster import DrawStats, FragmentShader, Rasterizer, checker_shader

__all__ = [
    "SceneObject3D",
    "StereoFrameStats",
    "StereoRenderMode",
    "StereoRenderer",
]


class StereoRenderMode(enum.Enum):
    """How the right eye's image is produced."""

    SEQUENTIAL = "sequential"
    SMP = "smp"
    REPROJECTED = "reprojected"


@dataclass(frozen=True)
class SceneObject3D:
    """A renderable prop: mesh + model transform + shader.

    ``name`` ties the prop to the statistical scene's object names so
    :mod:`repro.render.validate` can pair them up.
    """

    name: str
    mesh: TriangleMesh
    model_matrix: np.ndarray
    shader: Optional[FragmentShader] = None
    texture_name: str = "default"

    def shader_or_default(self) -> FragmentShader:
        return self.shader if self.shader is not None else checker_shader()


@dataclass
class StereoFrameStats:
    """Whole-frame counters, per eye and per object."""

    mode: StereoRenderMode
    per_object: Dict[str, DrawStats] = field(default_factory=dict)
    left: DrawStats = field(default_factory=DrawStats)
    right: DrawStats = field(default_factory=DrawStats)

    @property
    def total(self) -> DrawStats:
        return self.left.merged_with(self.right)

    def summary(self) -> str:
        """A short human-readable digest for examples and benches."""
        total = self.total
        return (
            f"mode={self.mode.value}: "
            f"tv={total.vertices_transformed} "
            f"tri={total.triangles_rasterised}/{total.triangles_in} "
            f"frag={total.fragments_shaded} "
            f"pix={total.pixels_written} "
            f"overdraw={total.overdraw:.2f}"
        )


class StereoRenderer:
    """Renders stereo frames from 3D props.

    Parameters
    ----------
    camera:
        The stereo rig.
    eye_width / eye_height:
        Per-eye resolution; the packed HMD image is twice as wide.
    """

    def __init__(
        self, camera: StereoCamera, eye_width: int, eye_height: int
    ) -> None:
        if eye_width <= 0 or eye_height <= 0:
            raise ValueError("eye resolution must be positive")
        self.camera = camera
        self.eye_width = eye_width
        self.eye_height = eye_height

    # -- internal helpers -----------------------------------------------------

    def _render_eye(
        self,
        objects: Sequence[SceneObject3D],
        view_projection: np.ndarray,
        stats_into: Dict[str, DrawStats],
    ) -> Tuple[FrameBuffer, DrawStats]:
        target = FrameBuffer(self.eye_width, self.eye_height)
        raster = Rasterizer(target)
        eye_total = DrawStats()
        for obj in objects:
            mvp = view_projection @ obj.model_matrix
            stats = raster.draw_mesh(obj.mesh, mvp, obj.shader_or_default())
            eye_total = eye_total.merged_with(stats)
            merged = stats_into.get(obj.name, DrawStats()).merged_with(stats)
            stats_into[obj.name] = merged
        return target, eye_total

    def _reproject(
        self, left: FrameBuffer
    ) -> Tuple[FrameBuffer, DrawStats]:
        """Synthesise the right eye by shifting the left image.

        The shift is the NDC parallax at the head's focus distance,
        converted to pixels.  Pixels shifted past the eye boundary are
        clipped (the paper "modif[ies] the triangle clipping to prevent
        the spill over into the opposite eye"); the revealed band on the
        other side stays background.
        """
        offset_ndc = self.camera.reprojection_offset_ndc()
        shift_px = int(round(offset_ndc * 0.5 * self.eye_width))
        right = FrameBuffer(self.eye_width, self.eye_height)
        stats = DrawStats()
        if shift_px >= self.eye_width:
            return right, stats
        if shift_px <= 0:
            right.color[:, :] = left.color
            right.depth[:, :] = left.depth
        else:
            right.color[:, : self.eye_width - shift_px] = left.color[:, shift_px:]
            right.depth[:, : self.eye_width - shift_px] = left.depth[:, shift_px:]
        # Reprojection shades no fragments; the copy is ROP work only.
        stats.pixels_written = int(np.isfinite(right.depth).sum())
        right.pixels_written = stats.pixels_written
        return right, stats

    # -- public API -------------------------------------------------------------

    def render(
        self,
        objects: Sequence[SceneObject3D],
        mode: StereoRenderMode = StereoRenderMode.SMP,
    ) -> Tuple[FrameBuffer, StereoFrameStats]:
        """Render one stereo frame; returns (packed framebuffer, stats).

        ``SEQUENTIAL`` and ``SMP`` produce *pixel-identical* images —
        SMP is an execution optimisation, not an approximation — but
        their geometry counters differ: SMP transforms each vertex once
        and re-projects, sequential transforms everything twice.
        ``REPROJECTED`` trades correctness for cost and differs near
        the eye boundary and for close objects.
        """
        if not objects:
            raise ValueError("nothing to render")
        stats = StereoFrameStats(mode=mode)
        left_vp, right_vp = self.camera.view_projections()

        left_fb, stats.left = self._render_eye(objects, left_vp, stats.per_object)

        if mode is StereoRenderMode.REPROJECTED:
            right_fb, stats.right = self._reproject(left_fb)
        else:
            right_fb, stats.right = self._render_eye(
                objects, right_vp, stats.per_object
            )
            if mode is StereoRenderMode.SMP:
                # SMP runs vertex shading once: the right eye re-uses the
                # transformed geometry stream and only re-projects it.
                # Model the saving by removing the duplicated transforms
                # from the counters (the image is untouched).
                stats.right.vertices_transformed = 0
        return side_by_side(left_fb, right_fb), stats

    def render_eye_buffers(
        self,
        objects: Sequence[SceneObject3D],
        mode: StereoRenderMode = StereoRenderMode.SMP,
    ) -> Tuple[FrameBuffer, FrameBuffer, StereoFrameStats]:
        """Like :meth:`render` but returns the two eyes separately."""
        packed, stats = self.render(objects, mode)
        left = FrameBuffer(self.eye_width, self.eye_height)
        right = FrameBuffer(self.eye_width, self.eye_height)
        left.color[:, :] = packed.color[:, : self.eye_width]
        left.depth[:, :] = packed.depth[:, : self.eye_width]
        right.color[:, :] = packed.color[:, self.eye_width :]
        right.depth[:, :] = packed.depth[:, self.eye_width :]
        return left, right, stats
