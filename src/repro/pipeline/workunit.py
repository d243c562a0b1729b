"""Work units: the schedulable quanta of rendering work.

A :class:`WorkUnit` is what a framework hands to a GPM: either a whole
draw, a fraction of a draw (tile-SFR strip share, fine-grained steal
slice), or a merged batch.  It carries

- stage work *counts* (vertices, triangles, fragments, pixels) that the
  timing model prices in cycles, and
- memory *touches* (texture/vertex resources with unique and stream
  byte counts) that the NUMA layer resolves into local and remote
  traffic once the unit is bound to a GPM.

Framebuffer and depth traffic are kept as counts, not touches, because
where those bytes go depends on the framework's framebuffer layout
(interleaved, master-node, per-GPM private, or DHC-striped).

:class:`UnitColumns` is the same content for a whole frame as columns,
read straight from the frame's counters
(:func:`repro.pipeline.batch.unit_columns`) without a single
:class:`WorkUnit`.  The statically scheduled frameworks hand it to the
slice pass (:mod:`repro.engine.split`) as it is; the clock-driven
dispatchers (OO-VR, OO_APP) merge each of their batches straight from
its rows (:func:`merge_rows`), building only the merged units;
:meth:`UnitColumns.units` reads the units back out of it, and
:meth:`UnitColumns.from_units` is the bridge from units (the per-slice
oracles and the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.memory.address import Resource, Touch


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One schedulable piece of rendering work.

    All counts are totals over the unit's views.  ``fraction`` tracks
    how much of the original draw this unit represents (1.0 = whole),
    so splits preserve invariants checkable in tests.
    """

    label: str
    #: Views produced (1 = mono pass, 2 = SMP multi-view).
    views: int
    #: Vertex-shader invocations (SMP shares these across views).
    vertices: float
    #: Triangles through primitive setup (per-view duplicates included).
    triangles_setup: float
    #: Triangles surviving cull/clip and sent to the rasteriser.
    triangles_raster: float
    #: Rasterised fragments (both views).
    fragments: float
    #: Pixels written to the framebuffer after depth test.
    pixels_out: float
    #: Texture sample requests issued by the fragment stage.
    texel_requests: float
    #: Fragment shader cost multiplier.
    shader_complexity: float
    #: Texture memory touches (resource-bound).
    texture_touches: Tuple[Touch, ...]
    #: Vertex buffer touches (resource-bound); batches carry one per
    #: merged object so page placement stays per-object.
    vertex_touches: Tuple[Touch, ...]
    #: Depth-test request bytes (stream) and touched depth footprint.
    z_stream_bytes: float
    z_unique_bytes: float
    #: Colour bytes written by the ROPs.
    fb_write_bytes: float
    #: Command/state bytes the command processor ships to the GPM.
    command_bytes: float
    #: Fraction of the source draw this unit represents.
    fraction: float = 1.0
    #: Fixed per-unit scheduling overhead multiplier (draw overhead is
    #: charged once per unit; merged batches amortise it).
    draw_count: float = 1.0

    def __post_init__(self) -> None:
        if self.views not in (1, 2):
            raise ValueError("views must be 1 or 2")
        numeric = (
            self.vertices,
            self.triangles_setup,
            self.triangles_raster,
            self.fragments,
            self.pixels_out,
            self.texel_requests,
            self.z_stream_bytes,
            self.z_unique_bytes,
            self.fb_write_bytes,
            self.command_bytes,
        )
        if any(v < 0 for v in numeric):
            raise ValueError(f"negative work count in {self.label!r}")
        if self.shader_complexity <= 0:
            raise ValueError("shader_complexity must be positive")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    # -- splitting ---------------------------------------------------------

    def with_screen_share(
        self,
        pixel_share: float,
        geometry_share: float,
        unique_inflation: float,
        label_suffix: str,
        stream_inflation: float = 1.0,
    ) -> "WorkUnit":
        """A unit covering ``pixel_share`` of the screen work.

        Used by tile-SFR: the fragment-side work scales with the strip's
        pixel share, the geometry side with the fraction of triangles
        overlapping the strip (``geometry_share``), and per-texture
        *unique* footprints scale by ``pixel_share * unique_inflation``
        (capped at 1): neighbouring strips re-touch border texels and
        shared mip levels, so unique bytes do not divide cleanly —
        that redundancy is exactly why tile-SFR inflates traffic.
        """
        if not 0.0 < pixel_share <= 1.0:
            raise ValueError("pixel_share must be in (0, 1]")
        if not 0.0 < geometry_share <= 1.0:
            raise ValueError("geometry_share must be in (0, 1]")
        if unique_inflation < 1.0:
            raise ValueError("unique_inflation is at least 1")
        if stream_inflation < 1.0:
            raise ValueError("stream_inflation is at least 1")
        unique_share = min(1.0, pixel_share * unique_inflation)
        stream_share = min(1.0, pixel_share * stream_inflation)
        touches = []
        for touch in self.texture_touches:
            touches.append(
                Touch(
                    resource=touch.resource,
                    unique_bytes=touch.unique_bytes * unique_share,
                    stream_bytes=touch.stream_bytes * stream_share,
                    write_bytes=touch.write_bytes * pixel_share,
                )
            )
        return replace(
            self,
            label=f"{self.label}/{label_suffix}",
            vertices=self.vertices * geometry_share,
            triangles_setup=self.triangles_setup * geometry_share,
            triangles_raster=self.triangles_raster * geometry_share,
            fragments=self.fragments * pixel_share,
            pixels_out=self.pixels_out * pixel_share,
            texel_requests=self.texel_requests * pixel_share,
            texture_touches=tuple(touches),
            vertex_touches=tuple(
                t.scaled(geometry_share) for t in self.vertex_touches
            ),
            z_stream_bytes=self.z_stream_bytes * pixel_share,
            z_unique_bytes=self.z_unique_bytes * pixel_share,
            fb_write_bytes=self.fb_write_bytes * pixel_share,
            command_bytes=self.command_bytes,
            fraction=self.fraction * pixel_share,
            draw_count=self.draw_count,
        )

    # -- aggregate properties ----------------------------------------------

    @property
    def texture_unique_bytes(self) -> float:
        return sum(t.unique_bytes for t in self.texture_touches)

    @property
    def texture_stream_bytes(self) -> float:
        return sum(t.stream_bytes for t in self.texture_touches)


#: The :class:`WorkUnit` counts :class:`UnitColumns` holds as float
#: columns, the ones ``WorkUnit`` keeps non-negative first.
_COUNTS = (
    "vertices",
    "triangles_setup",
    "triangles_raster",
    "fragments",
    "pixels_out",
    "texel_requests",
    "z_stream_bytes",
    "z_unique_bytes",
    "fb_write_bytes",
    "command_bytes",
)
_FLOATS = _COUNTS + ("shader_complexity", "draw_count")


@dataclass(frozen=True, eq=False)
class UnitColumns:
    """A frame's work units as columns, in unit order.

    Unit ``u`` is labelled ``labels[u]`` and renders ``views[u]``
    views; every other per-unit column holds its :class:`WorkUnit`
    field of the same name as a float.  Its touches are rows
    ``touch_bounds[u]:touch_bounds[u + 1]`` of the ``touch_*`` columns —
    its texture touches, then its vertex touches (``touch_texture``
    tells them apart) — and each names its resource as a row of
    :attr:`resources`, which holds one :class:`Resource` per distinct
    resource in first-touch order.

    Construction runs :class:`WorkUnit`'s and :class:`Touch`'s checks
    over whole columns, and floors every touch's stream at its unique
    footprint, as ``Touch`` does.
    """

    labels: Tuple[str, ...]
    views: np.ndarray
    vertices: np.ndarray
    triangles_setup: np.ndarray
    triangles_raster: np.ndarray
    fragments: np.ndarray
    pixels_out: np.ndarray
    texel_requests: np.ndarray
    shader_complexity: np.ndarray
    z_stream_bytes: np.ndarray
    z_unique_bytes: np.ndarray
    fb_write_bytes: np.ndarray
    command_bytes: np.ndarray
    draw_count: np.ndarray
    touch_bounds: np.ndarray
    touch_resource: np.ndarray
    touch_unique: np.ndarray
    touch_stream: np.ndarray
    touch_write: np.ndarray
    touch_texture: np.ndarray
    resources: Tuple[Resource, ...]

    def __post_init__(self) -> None:
        if not np.all((self.views == 1) | (self.views == 2)):
            raise ValueError("views must be 1 or 2")
        negative = np.zeros(len(self.labels), bool)
        for name in _COUNTS:
            negative |= getattr(self, name) < 0
        if negative.any():
            label = self.labels[int(np.argmax(negative))]
            raise ValueError(f"negative work count in {label!r}")
        if not np.all(self.shader_complexity > 0):
            raise ValueError("shader_complexity must be positive")
        if (
            (self.touch_unique < 0).any()
            or (self.touch_stream < 0).any()
            or (self.touch_write < 0).any()
        ):
            raise ValueError("touch byte counts cannot be negative")
        # The request stream never falls below the unique footprint.
        object.__setattr__(
            self,
            "touch_stream",
            np.where(
                self.touch_stream < self.touch_unique,
                self.touch_unique,
                self.touch_stream,
            ),
        )

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_units(cls, units: Sequence[WorkUnit]) -> "UnitColumns":
        """The table of ``units``, field for field."""
        count = len(units)
        index: Dict[Resource, int] = {}
        bounds = [0]
        resource: List[int] = []
        unique: List[float] = []
        stream: List[float] = []
        write: List[float] = []
        texture: List[bool] = []
        for unit in units:
            for on_texture, group in (
                (True, unit.texture_touches), (False, unit.vertex_touches)
            ):
                for touch in group:
                    row = index.setdefault(touch.resource, len(index))
                    resource.append(row)
                    unique.append(touch.unique_bytes)
                    stream.append(touch.stream_bytes)
                    write.append(touch.write_bytes)
                    texture.append(on_texture)
            bounds.append(len(resource))
        return cls(
            labels=tuple(unit.label for unit in units),
            views=np.fromiter((unit.views for unit in units), np.int64, count),
            **{
                name: np.fromiter(
                    map(attrgetter(name), units), np.float64, count
                )
                for name in _FLOATS
            },
            touch_bounds=np.array(bounds, np.int64),
            touch_resource=np.array(resource, np.int64),
            touch_unique=np.array(unique, np.float64),
            touch_stream=np.array(stream, np.float64),
            touch_write=np.array(write, np.float64),
            touch_texture=np.array(texture, bool),
            resources=tuple(index),
        )

    def units(self) -> Tuple[WorkUnit, ...]:
        """The table's units, field for field: the inverse of
        :meth:`from_units`.

        The table holds no ``fraction``, so every unit is whole.  Each
        unit's touches are its rows in order, texture touches first,
        and every touch names the table's own :class:`Resource`
        object.  Built afresh per call.
        """
        resources = self.resources
        touches = [
            Touch(resources[row], unique, stream, write)
            for row, unique, stream, write in zip(
                self.touch_resource.tolist(),
                self.touch_unique.tolist(),
                self.touch_stream.tolist(),
                self.touch_write.tolist(),
            )
        ]
        bounds = self.touch_bounds
        textures = np.zeros(len(self.touch_texture) + 1, np.int64)
        np.cumsum(self.touch_texture, out=textures[1:])
        # Where each unit's texture rows end and its vertex rows begin.
        split = bounds[:-1] + np.diff(textures[bounds])
        return tuple(
            WorkUnit(
                label=label,
                views=views,
                texture_touches=tuple(touches[begin:middle]),
                vertex_touches=tuple(touches[middle:end]),
                **dict(zip(_FLOATS, counts)),
            )
            for label, views, begin, middle, end, *counts in zip(
                self.labels,
                self.views.tolist(),
                bounds[:-1].tolist(),
                split.tolist(),
                bounds[1:].tolist(),
                *(getattr(self, name).tolist() for name in _FLOATS),
            )
        )


#: The counts a merged unit sums over its members.
_SUMMED = _COUNTS + ("draw_count",)


def merge_rows(
    table: UnitColumns, groups: Sequence[Tuple[str, Sequence[int]]]
) -> List[WorkUnit]:
    """Each ``(label, rows)`` group of ``table``'s units merged into one
    batch-level unit, in group order.

    Used by the OO middleware after grouping objects into batches: a
    batch is scheduled as one quantum, its draw overheads amortised by
    the command processor submitting its members back to back.  The
    members are read straight from the table's columns, so no member
    :class:`WorkUnit` or :class:`Touch` is built.  Every count is
    builtin ``sum()`` over the members in member order, the shader
    complexity their fragment-weighted mean and the view count their
    maximum.  Texture touches merge per resource id in first-use
    order: streams and writes add in member order, but the unique
    footprint is shared (the larger one: the TSL payoff, the second
    object re-reads cached data).  Vertex touches are concatenated, one
    per member, so page placement stays per-object.  The reference
    reads the members out as units and merges those
    (``tests/oracles.py::merge_units``).
    """
    resources = table.resources
    bounds = table.touch_bounds.tolist()
    touch_resource = table.touch_resource.tolist()
    touch_unique = table.touch_unique.tolist()
    touch_stream = table.touch_stream.tolist()
    touch_write = table.touch_write.tolist()
    touch_texture = table.touch_texture.tolist()
    views = table.views.tolist()
    complexity = table.shader_complexity.tolist()
    fragments = table.fragments.tolist()
    counts = {name: getattr(table, name).tolist() for name in _SUMMED}
    merged: List[WorkUnit] = []
    for label, rows in groups:
        if not rows:
            raise ValueError("cannot merge zero units")
        # resource id -> [resource, unique, stream, write]
        shared: Dict[Tuple[str, int], list] = {}
        vertex_touches: List[Touch] = []
        for row in rows:
            for touch in range(bounds[row], bounds[row + 1]):
                resource = resources[touch_resource[touch]]
                if not touch_texture[touch]:
                    vertex_touches.append(
                        Touch(
                            resource,
                            touch_unique[touch],
                            touch_stream[touch],
                            touch_write[touch],
                        )
                    )
                    continue
                seen = shared.get(resource.resource_id)
                if seen is None:
                    shared[resource.resource_id] = [
                        resource,
                        touch_unique[touch],
                        touch_stream[touch],
                        touch_write[touch],
                    ]
                else:
                    seen[0] = resource
                    seen[1] = max(seen[1], touch_unique[touch])
                    seen[2] += touch_stream[touch]
                    seen[3] += touch_write[touch]
        merged.append(
            WorkUnit(
                label=label,
                views=max(views[row] for row in rows),
                shader_complexity=(
                    sum(complexity[row] * fragments[row] for row in rows)
                    / max(1.0, sum(fragments[row] for row in rows))
                ),
                texture_touches=tuple(
                    Touch(*values) for values in shared.values()
                ),
                vertex_touches=tuple(vertex_touches),
                **{
                    name: sum(column[row] for row in rows)
                    for name, column in counts.items()
                },
            )
        )
    return merged
