"""The Object-Oriented VR programming model (``OO_Application``).

The software interface of Section 5.1: developers (or the auto mode)
merge the left and right views of each object into a *single* rendering
task by replacing the original viewport with a ``viewportL``/
``viewportR`` pair — the ``GL_OVR_multiview2`` idiom — so the SMP engine
in whichever GPM renders the object produces both eye views from one
geometry pass over the same texture data.

Two ways to build an application:

- :class:`OOApplication` wraps an existing stereo
  :class:`~repro.scene.scene.Frame` (objects already carry both eye
  viewports);
- the **auto mode** (:meth:`OOApplication.from_mono_frame`) extends
  conventional single-view content: each object's original viewport is
  shifted by half the eye offset ``W`` per eye and clipped against its
  eye boundary, mirroring the paper's SMP implementation in ATTILA
  (Section 3 / Fig. 5).

The builder API (:class:`OOObjectBuilder`) is the library-user-facing
way to author OO-VR content directly — see ``examples/custom_vr_scene.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.pipeline.smp import project_viewports
from repro.scene.geometry import Mesh, Viewport, full_screen
from repro.scene.objects import RenderObject, StereoDraw
from repro.scene.scene import Frame
from repro.scene.texture import Texture, TexturePool


class OOObjectBuilder:
    """Fluent builder for one OO-VR render object.

    Mirrors the software interface of Fig. 12: an object declares its
    name, geometry, texture bindings and its two viewports.
    """

    def __init__(self, app: "OOApplication", name: str) -> None:
        self._app = app
        self._name = name
        self._mesh: Optional[Mesh] = None
        self._textures: List[Texture] = []
        self._viewport_left: Optional[Viewport] = None
        self._viewport_right: Optional[Viewport] = None
        self._depth_complexity = 1.3
        self._shader_complexity = 1.0
        self._coverage = 0.5
        self._depends_on: Optional[int] = None

    def mesh(self, num_vertices: int, num_triangles: int) -> "OOObjectBuilder":
        self._mesh = Mesh(num_vertices, num_triangles)
        return self

    def texture(self, name: str, size_bytes: int) -> "OOObjectBuilder":
        """Bind a texture from the application's shared pool."""
        self._textures.append(self._app.texture_pool.get_or_create(name, size_bytes))
        return self

    def viewports(self, left: Viewport, right: Viewport) -> "OOObjectBuilder":
        """Explicit ``viewportL`` / ``viewportR`` pair."""
        self._viewport_left = left
        self._viewport_right = right
        return self

    def auto_viewports(self, original: Viewport) -> "OOObjectBuilder":
        """Auto mode: derive both eye views by shifting ``original``."""
        left, right = project_viewports(
            original,
            half_offset=self._app.half_offset,
            eye_bounds_left=self._app.eye_bounds,
            eye_bounds_right=self._app.eye_bounds,
        )
        return self.viewports(left, right)

    def appearance(
        self,
        depth_complexity: float = 1.3,
        shader_complexity: float = 1.0,
        coverage: float = 0.5,
    ) -> "OOObjectBuilder":
        self._depth_complexity = depth_complexity
        self._shader_complexity = shader_complexity
        self._coverage = coverage
        return self

    def after(self, other_name: str) -> "OOObjectBuilder":
        """Declare a draw-order dependency on a previously added object."""
        self._depends_on = self._app.object_id_of(other_name)
        return self

    def add(self) -> RenderObject:
        """Finalise the object and register it with the application."""
        if self._mesh is None:
            raise ValueError(f"object {self._name!r} needs a mesh")
        if self._viewport_left is None and self._viewport_right is None:
            raise ValueError(f"object {self._name!r} needs viewports")
        if not self._textures:
            raise ValueError(f"object {self._name!r} needs at least one texture")
        obj = RenderObject(
            object_id=self._app.next_object_id(),
            name=self._name,
            mesh=self._mesh,
            textures=tuple(self._textures),
            viewport_left=self._viewport_left,
            viewport_right=self._viewport_right,
            depth_complexity=self._depth_complexity,
            shader_complexity=self._shader_complexity,
            coverage=self._coverage,
            depends_on=self._depends_on,
        )
        self._app.register(obj)
        return obj


class OOApplication:
    """An OO-VR application: objects with merged multi-view tasks."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("display dimensions must be positive")
        self.width = width
        self.height = height
        self.texture_pool = TexturePool()
        self._objects: List[RenderObject] = []
        self._ids_by_name: Dict[str, int] = {}
        self._next_id = 0

    # -- construction -------------------------------------------------------

    def object(self, name: str) -> OOObjectBuilder:
        """Start building a new render object."""
        if name in self._ids_by_name:
            raise ValueError(f"object {name!r} already defined")
        return OOObjectBuilder(self, name)

    def next_object_id(self) -> int:
        next_id = self._next_id
        self._next_id += 1
        return next_id

    def register(self, obj: RenderObject) -> None:
        self._ids_by_name[obj.name] = obj.object_id
        self._objects.append(obj)

    def object_id_of(self, name: str) -> int:
        if name not in self._ids_by_name:
            raise KeyError(f"unknown object {name!r}")
        return self._ids_by_name[name]

    # -- geometry helpers ------------------------------------------------------

    @property
    def eye_bounds(self) -> Viewport:
        return full_screen(self.width, self.height)

    @property
    def half_offset(self) -> float:
        """Auto-mode stereo shift: half of the coordinate offset ``W``."""
        return self.width / 2.0 * 0.08  # ~4% of eye width interocular shift

    # -- outputs ---------------------------------------------------------------

    def frame(self, frame_id: int = 0) -> Frame:
        """The application's current frame."""
        if not self._objects:
            raise ValueError("application has no objects")
        return Frame(
            objects=tuple(self._objects),
            width=self.width,
            height=self.height,
            frame_id=frame_id,
        )

    def multiview_draws(self) -> Tuple[StereoDraw, ...]:
        """The merged single-task-per-object draw stream."""
        return self.frame().multiview_draws()

    # -- auto mode ----------------------------------------------------------------

    @classmethod
    def from_stereo_frame(cls, frame: Frame) -> "OOApplication":
        """Wrap an existing stereo frame (views already authored)."""
        app = cls(frame.width, frame.height)
        for obj in frame.objects:
            app.register(replace(obj, object_id=app.next_object_id()))
        return app

    @classmethod
    def from_mono_frame(cls, frame: Frame) -> "OOApplication":
        """Auto mode: stereo-project conventional single-view content.

        Each object's left viewport is treated as the original mono
        rectangle; the two eye views are produced by shifting it along
        X by the half offset, clipped to the eye bounds (Section 5.1's
        "generating two fixed viewports for each object via shifting
        the original viewport along the X coordinate").
        """
        app = cls(frame.width, frame.height)
        for obj in frame.objects:
            original = obj.viewport_left or obj.viewport_right
            assert original is not None  # Frame invariant
            left, right = project_viewports(
                original,
                half_offset=app.half_offset,
                eye_bounds_left=app.eye_bounds,
                eye_bounds_right=app.eye_bounds,
            )
            app.register(
                replace(
                    obj,
                    object_id=app.next_object_id(),
                    viewport_left=left,
                    viewport_right=right if right.area > 0 else left,
                )
            )
        return app
