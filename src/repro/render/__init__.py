"""A small software rasterizer: the frame-producing substrate.

The paper's evaluation substrate (ATTILA-sim) is *execution driven*: it
renders real frames, and Fig. 5 shows the actual left/right images its
SMP engine produces.  The statistical simulator in :mod:`repro.gpu` and
:mod:`repro.pipeline` prices draws from *counts* (triangles, covered
pixels, overdraw); this package closes the loop by actually rasterising
triangle meshes so those counts can be **measured** instead of assumed:

- :mod:`repro.render.math3d` — vectors, matrices, projections;
- :mod:`repro.render.mesh3d` — triangle meshes and procedural shapes;
- :mod:`repro.render.framebuffer` — colour + depth targets, PPM output;
- :mod:`repro.render.raster` — the triangle rasterizer (barycentric,
  z-buffered, per-draw statistics);
- :mod:`repro.render.camera` — mono and stereo cameras;
- :mod:`repro.render.stereo` — sequential-stereo vs. SMP rendering of a
  full scene (the Fig. 5 experiment);
- :mod:`repro.render.validate` — measures covered pixels / overdraw of
  rendered objects and compares them with the statistical
  :class:`~repro.scene.objects.RenderObject` model.

Everything is pure numpy; no GPU or external imaging library is used.
"""

from repro.render.camera import Camera, StereoCamera
from repro.render.framebuffer import FrameBuffer, side_by_side
from repro.render.math3d import (
    look_at,
    normalize,
    perspective,
    rotate_y,
    translate,
)
from repro.render.mesh3d import (
    TriangleMesh,
    make_box,
    make_checker_ground,
    make_cylinder,
    make_icosphere,
    make_quad,
)
from repro.render.raster import DrawStats, Rasterizer
from repro.render.stereo import (
    SceneObject3D,
    StereoFrameStats,
    StereoRenderer,
    StereoRenderMode,
)
from repro.render.validate import ObjectValidation, ValidationReport, validate_scene

__all__ = [
    "Camera",
    "DrawStats",
    "FrameBuffer",
    "ObjectValidation",
    "Rasterizer",
    "SceneObject3D",
    "StereoCamera",
    "StereoFrameStats",
    "StereoRenderMode",
    "StereoRenderer",
    "TriangleMesh",
    "ValidationReport",
    "look_at",
    "make_box",
    "make_checker_ground",
    "make_cylinder",
    "make_icosphere",
    "make_quad",
    "normalize",
    "perspective",
    "rotate_y",
    "side_by_side",
    "translate",
    "validate_scene",
]
