"""Render objects: the draw calls the frameworks schedule.

A :class:`RenderObject` is one object in the VR scene — geometry plus
texture bindings plus a screen-space footprint for *each eye*.  The
parallel rendering frameworks consume objects in two forms:

- **stereo draws** (:meth:`RenderObject.stereo_draws`): the conventional
  trace, one draw per eye, as classic object-level SFR sees it ("it still
  executes the objects from the left and right views separately");
- **multi-view draws** (:meth:`RenderObject.multiview_draw`): one draw
  covering both eyes, as the OO-VR programming model issues after merging
  ``viewportL``/``viewportR`` — geometry runs once, SMP projects twice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.scene.geometry import Mesh, Viewport
from repro.scene.texture import Texture, unique_texture_bytes


class Eye(enum.Enum):
    """Which view a draw renders: one eye, or both via SMP."""

    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"

    @property
    def view_count(self) -> int:
        """Number of projections this draw produces."""
        return 2 if self is Eye.BOTH else 1


@dataclass(frozen=True)
class RenderObject:
    """One scene object (a draw call with stereo footprints).

    Parameters
    ----------
    object_id:
        Unique, stable id; also encodes programmer-defined draw order.
    name:
        Material/asset name for debugging ("pillar1", "flag", ...).
    mesh:
        Geometry statistics.
    textures:
        Bound textures.  Sharing with other objects is by identity.
    viewport_left / viewport_right:
        Screen rectangle covered in each eye's image.  For mono content
        (HUD in one eye only) one of them may be ``None``.
    depth_complexity:
        Average overdraw: fragments rasterised per covered pixel.
    shader_complexity:
        Fragment shader cost multiplier relative to the cost model's
        unit shader.
    coverage:
        Fraction of the viewport rectangle actually covered by the
        object's triangles (a tree covers far less than its bbox).
    depends_on:
        ``object_id`` of a draw that must precede this one (blending /
        render-target dependencies).  The middleware keeps dependent
        objects in the same batch (Section 5.1).
    """

    object_id: int
    name: str
    mesh: Mesh
    textures: Tuple[Texture, ...]
    viewport_left: Optional[Viewport]
    viewport_right: Optional[Viewport]
    depth_complexity: float = 1.3
    shader_complexity: float = 1.0
    coverage: float = 0.45
    depends_on: Optional[int] = None

    def __post_init__(self) -> None:
        if self.viewport_left is None and self.viewport_right is None:
            raise ValueError(f"object {self.name!r} is invisible in both eyes")
        if self.depth_complexity < 1.0:
            raise ValueError("depth_complexity is at least 1 (one hit per pixel)")
        if self.shader_complexity <= 0:
            raise ValueError("shader_complexity must be positive")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.depends_on is not None and self.depends_on == self.object_id:
            raise ValueError("object cannot depend on itself")

    # -- derived workload statistics -----------------------------------

    @property
    def is_stereo(self) -> bool:
        """Visible in both eyes, hence SMP-shareable."""
        return self.viewport_left is not None and self.viewport_right is not None

    @property
    def texture_bytes(self) -> int:
        """Unique texture footprint bound to this object."""
        return unique_texture_bytes(self.textures)

    def covered_pixels(self, eye: Eye) -> float:
        """Pixels covered in ``eye`` (before overdraw)."""
        total = 0.0
        if eye in (Eye.LEFT, Eye.BOTH) and self.viewport_left is not None:
            total += self.viewport_left.area * self.coverage
        if eye in (Eye.RIGHT, Eye.BOTH) and self.viewport_right is not None:
            total += self.viewport_right.area * self.coverage
        return total

    def fragments(self, eye: Eye) -> float:
        """Fragments rasterised in ``eye`` (pixels x overdraw)."""
        return self.covered_pixels(eye) * self.depth_complexity

    # -- draw expansion -------------------------------------------------

    def stereo_draws(self) -> Tuple["StereoDraw", ...]:
        """The conventional per-eye draw sequence (left then right)."""
        draws = []
        if self.viewport_left is not None:
            draws.append(StereoDraw(self, Eye.LEFT))
        if self.viewport_right is not None:
            draws.append(StereoDraw(self, Eye.RIGHT))
        return tuple(draws)

    def multiview_draw(self) -> "StereoDraw":
        """A single SMP multi-view draw covering every visible eye."""
        if not self.is_stereo:
            only = Eye.LEFT if self.viewport_left is not None else Eye.RIGHT
            return StereoDraw(self, only)
        return StereoDraw(self, Eye.BOTH)


@dataclass(frozen=True)
class StereoDraw:
    """A schedulable draw: an object bound to one eye or both.

    This is the unit the frameworks distribute.  ``Eye.BOTH`` draws go
    through the SMP engine (geometry processed once, projected twice);
    single-eye draws run the full pipeline for that view only.
    """

    obj: RenderObject
    eye: Eye

    def __post_init__(self) -> None:
        if self.eye is Eye.LEFT and self.obj.viewport_left is None:
            raise ValueError("left draw of an object with no left viewport")
        if self.eye is Eye.RIGHT and self.obj.viewport_right is None:
            raise ValueError("right draw of an object with no right viewport")
        if self.eye is Eye.BOTH and not self.obj.is_stereo:
            raise ValueError("BOTH draw requires stereo visibility")

    @property
    def view_count(self) -> int:
        return self.eye.view_count

    @property
    def mesh(self) -> Mesh:
        return self.obj.mesh

    @property
    def textures(self) -> Tuple[Texture, ...]:
        return self.obj.textures

    def viewports(self) -> Tuple[Viewport, ...]:
        """The screen rectangles this draw touches (one per view)."""
        out = []
        if self.eye in (Eye.LEFT, Eye.BOTH) and self.obj.viewport_left is not None:
            out.append(self.obj.viewport_left)
        if self.eye in (Eye.RIGHT, Eye.BOTH) and self.obj.viewport_right is not None:
            out.append(self.obj.viewport_right)
        return tuple(out)

    @property
    def fragments(self) -> float:
        return self.obj.fragments(self.eye)

    @property
    def covered_pixels(self) -> float:
        return self.obj.covered_pixels(self.eye)
