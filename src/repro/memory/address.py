"""Resources, pages, and access descriptors.

The simulator does not track byte addresses; it tracks *resources*
(a texture, a vertex buffer, a framebuffer partition) broken into
fixed-size pages.  Page granularity is what the paper's first-touch
policy and PA-unit pre-allocation operate on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class ResourceKind(enum.Enum):
    """What a resource holds; used for the traffic taxonomy."""

    TEXTURE = "texture"
    VERTEX = "vertex"
    FRAMEBUFFER = "framebuffer"
    DEPTH = "depth"
    COMMAND = "command"


@dataclass(frozen=True, slots=True)
class Resource:
    """A paged memory object.

    Identity: resources created from the same scene object (e.g. the
    same :class:`~repro.scene.texture.Texture`) must carry the same
    ``resource_id`` so that page placement and sharing are consistent.
    The convention is ``("tex", texture_id)``, ``("vb", object_id)``,
    ``("fb", eye/partition)`` etc., hashed into the id by the caller.
    """

    resource_id: Tuple[str, int]
    kind: ResourceKind
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"resource {self.resource_id} must have positive size")

    def num_pages(self, page_bytes: int) -> int:
        """Pages needed to hold this resource."""
        return max(1, -(-self.size_bytes // page_bytes))


def texture_resource(texture_id: int, size_bytes: int) -> Resource:
    return Resource(("tex", texture_id), ResourceKind.TEXTURE, size_bytes)


def vertex_resource(object_id: int, size_bytes: int) -> Resource:
    return Resource(("vb", object_id), ResourceKind.VERTEX, size_bytes)


@dataclass(frozen=True, slots=True)
class Touch:
    """One work unit's use of a resource.

    Parameters
    ----------
    resource:
        The resource touched.
    unique_bytes:
        Compulsory bytes: the footprint actually needed from DRAM when
        the data is local and cacheable (post-L2 filtering).
    stream_bytes:
        Request bytes leaving the SM cluster (post-L1).  When the pages
        are *remote*, this is what must cross the link, because the
        local memory-side L2 cannot cache another GPM's address range;
        only the small remote cache filters it (MCM-GPU, Section 3).
    write_bytes:
        Bytes written (ROP colour/depth output).  Writes stream to the
        owning GPM's DRAM, crossing a link when remote.
    """

    resource: Resource
    unique_bytes: float = 0.0
    stream_bytes: float = 0.0
    write_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.unique_bytes < 0 or self.stream_bytes < 0 or self.write_bytes < 0:
            raise ValueError("touch byte counts cannot be negative")
        if self.stream_bytes < self.unique_bytes:
            # The request stream can never be smaller than the unique
            # footprint it has to pull in at least once.
            object.__setattr__(self, "stream_bytes", self.unique_bytes)

    def scaled(self, factor: float) -> "Touch":
        """This touch scaled by ``factor`` (for fractional work splits)."""
        if factor < 0:
            raise ValueError("scale factor cannot be negative")
        return Touch(
            resource=self.resource,
            unique_bytes=self.unique_bytes * factor,
            stream_bytes=self.stream_bytes * factor,
            write_bytes=self.write_bytes * factor,
        )
