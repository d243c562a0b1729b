"""Frames and scenes.

A :class:`Frame` is one stereo VR frame: an ordered list of
:class:`~repro.scene.objects.RenderObject` draws plus the display
geometry.  A :class:`Scene` is a short sequence of frames, which is what
AFR (frame-level parallelism) needs to show its throughput-vs-latency
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from repro.scene.batch import ObjectBatch
from repro.scene.geometry import Viewport, full_screen
from repro.scene.objects import Eye, RenderObject, StereoDraw
from repro.scene.texture import Texture, unique_texture_bytes


@dataclass(frozen=True)
class Frame:
    """One stereo frame of a VR application.

    Frames are immutable after construction and, through the
    per-process scene memo (:func:`~repro.session.spec.cached_scene`),
    *shared by identity* across every cell of a sweep that renders the
    same workload point.  That identity is load-bearing: frame-derived
    artefacts — middleware batch groupings, characterised work units —
    are memoised on the frame object itself (:meth:`derived`), so
    mutating a frame in place would silently poison artefacts other
    cells reuse.  Derive changed frames with
    :func:`dataclasses.replace` instead; a new object starts with an
    empty memo, even when it compares equal.

    Parameters
    ----------
    objects:
        Draw-ordered render objects.
    width, height:
        Per-eye display resolution in pixels.  The HMD shows two images,
        so the full framebuffer is ``2 * width * height`` pixels.
    frame_id:
        Index within the owning scene.
    """

    objects: Tuple[RenderObject, ...]
    width: int
    height: int
    frame_id: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame resolution must be positive")
        if not self.objects:
            raise ValueError("a frame needs at least one object")
        seen_ids = set()
        for obj in self.objects:
            if obj.object_id in seen_ids:
                raise ValueError(f"duplicate object_id {obj.object_id}")
            seen_ids.add(obj.object_id)
        for obj in self.objects:
            if obj.depends_on is not None and obj.depends_on not in seen_ids:
                raise ValueError(
                    f"object {obj.object_id} depends on missing {obj.depends_on}"
                )

    # -- display geometry -----------------------------------------------

    @property
    def eye_viewport(self) -> Viewport:
        """The single-eye screen rectangle."""
        return full_screen(self.width, self.height)

    @property
    def stereo_viewport(self) -> Viewport:
        """Both eyes side by side: the full HMD framebuffer."""
        return Viewport(0.0, 0.0, 2.0 * self.width, float(self.height))

    @property
    def total_pixels(self) -> int:
        """Output pixels per frame across both eyes."""
        return 2 * self.width * self.height

    # -- draw streams -----------------------------------------------------

    def stereo_draws(self) -> Tuple[StereoDraw, ...]:
        """The conventional trace: each object issued once per eye.

        Order is all of object 0's views, then object 1's, matching a
        driver that replays the left/right command buffers per object.
        """
        draws: List[StereoDraw] = []
        for obj in self.objects:
            draws.extend(obj.stereo_draws())
        return tuple(draws)

    def multiview_draws(self) -> Tuple[StereoDraw, ...]:
        """The OO_Application trace: one SMP draw per object."""
        return tuple(obj.multiview_draw() for obj in self.objects)

    @cached_property
    def object_batch(self) -> ObjectBatch:
        """The struct-of-array view of this frame's objects.

        Built lazily and cached on the (frozen, memoised) frame, so a
        sweep pays the flattening cost once per scene rather than once
        per cell.  Index order matches ``objects``.
        """
        return ObjectBatch.from_objects(self.objects)

    @cached_property
    def _derived(self) -> Dict[Hashable, Any]:
        return {}

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()`` memoised on this frame under ``key``.

        For artefacts that depend only on the frame plus the hashable
        config slice in ``key`` (lead it with a section name).  Cells
        sharing the memoised frame share the very object the first
        build returned, and it is freed with the frame.  The memo is a
        plain dict: two threads racing on one key may both build, and
        the builds are equal.
        """
        memo = self._derived
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- aggregate statistics ---------------------------------------------

    @property
    def total_triangles(self) -> int:
        """Triangles across all objects (single-view geometry)."""
        return sum(obj.mesh.num_triangles for obj in self.objects)

    @property
    def total_vertices(self) -> int:
        return sum(obj.mesh.num_vertices for obj in self.objects)

    @property
    def unique_textures(self) -> Tuple[Texture, ...]:
        seen = {}
        for obj in self.objects:
            for texture in obj.textures:
                seen.setdefault(texture.texture_id, texture)
        return tuple(seen.values())

    @property
    def texture_bytes(self) -> int:
        """Unique texture working set of the frame."""
        return unique_texture_bytes(self.unique_textures)

    @property
    def total_fragments(self) -> float:
        """Fragments across both eyes (with overdraw)."""
        return sum(obj.fragments(Eye.BOTH) for obj in self.objects)

    def texture_sharing_ratio(self) -> float:
        """How much texture data is shared between objects.

        Ratio of the sum of per-object footprints to the unique frame
        footprint; 1.0 means no sharing, larger means heavy reuse.
        """
        per_object = sum(obj.texture_bytes for obj in self.objects)
        unique = self.texture_bytes
        return per_object / unique if unique else 1.0


@dataclass(frozen=True)
class Scene:
    """A sequence of frames from one application run."""

    name: str
    frames: Tuple[Frame, ...]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a scene needs at least one frame")
        first = self.frames[0]
        for frame in self.frames:
            if (frame.width, frame.height) != (first.width, first.height):
                raise ValueError("all frames in a scene share one resolution")

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def representative_frame(self) -> Frame:
        """The frame used for single-frame latency experiments."""
        return self.frames[0]

    @property
    def num_draws(self) -> int:
        """Objects per frame — comparable to Table 3's #Draw column."""
        return len(self.frames[0].objects)
