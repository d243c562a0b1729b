"""Fragment-stage memory demand.

The fragment process is where nearly all of a frame's memory traffic
originates: every fragment samples its material textures (16x
anisotropic filtering multiplies taps), tests depth, and writes colour.
This module turns a draw's fragment count and texture bindings into the
byte quantities the NUMA layer prices:

- **raw texel bytes**: fragments x samples x filter taps x texel size;
- **stream bytes** (post-L1): what leaves the SM cluster.  Texture L1s
  exploit the strong spatial locality of neighbouring fragments, so the
  stream is a calibrated leak fraction of the raw demand, floored at
  the compulsory unique footprint;
- **unique bytes**: the distinct texels the draw touches at its active
  mip level, bounded by both the texture's size and the fragment count.

The split between *stream* and *unique* is what makes NUMA placement
matter: local touches cost ``unique`` bytes of DRAM (the memory-side L2
absorbs re-reads), while remote touches cost ``stream x (1 - remote
cache hit)`` bytes of link bandwidth, because the local L2 cannot cache
remote addresses (Section 2.3 / MCM-GPU).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.config import CostModel
from repro.memory.address import Touch, texture_resource
from repro.scene.texture import Texture

#: Smallest footprint a texture bind ever touches (a few mip tiles).
MIN_TOUCH_BYTES = 4096.0


def texture_touches_for_draw(
    textures: Sequence[Texture],
    fragments: float,
    cost: CostModel,
    view_reuse: float = 1.0,
) -> Tuple[float, Tuple[Touch, ...]]:
    """Texel demand and per-texture touches for ``fragments``.

    ``view_reuse`` models SMP multi-view texture sharing: when the two
    eye views render back-to-back on the same GPM, the second view's
    samples hit the same texels (small disparity), so its *unique*
    contribution collapses.  ``view_reuse=1`` means no sharing (mono or
    sequential stereo); ``2`` means two views share one footprint.
    """
    if fragments < 0:
        raise ValueError("fragments cannot be negative")
    if view_reuse < 1.0:
        raise ValueError("view_reuse is at least 1")
    texel_requests = (
        fragments * cost.samples_per_fragment * cost.anisotropic_texels_per_sample
    )
    raw_bytes = texel_requests * cost.bytes_per_texel
    if not textures or raw_bytes == 0:
        return texel_requests, ()

    total_size = float(sum(t.size_bytes for t in textures))
    touches = []
    for texture in textures:
        weight = texture.size_bytes / total_size
        raw_share = raw_bytes * weight
        # Unique texels: one view's fragments touch ~1 texel each at the
        # matched mip level; capped by the texture itself.
        unique = min(
            float(texture.size_bytes),
            max(
                MIN_TOUCH_BYTES,
                fragments * weight * cost.bytes_per_texel / view_reuse,
            ),
        )
        stream = max(unique, raw_share * cost.l1_texture_leak / view_reuse)
        touches.append(
            Touch(
                resource=texture_resource(texture.texture_id, texture.size_bytes),
                unique_bytes=unique,
                stream_bytes=stream,
            )
        )
    return texel_requests, tuple(touches)


def depth_and_color_demand(
    fragments: float,
    pixels_out: float,
    cost: CostModel,
) -> Tuple[float, float, float]:
    """(z stream, z unique, colour write) bytes for the raster output.

    Every fragment is depth-tested (stream); the touched depth region
    is the covered pixels (unique); survivors write colour.
    """
    if fragments < 0 or pixels_out < 0:
        raise ValueError("counts cannot be negative")
    z_stream = fragments * cost.bytes_per_ztest
    z_unique = pixels_out * cost.bytes_per_ztest
    fb_write = pixels_out * cost.bytes_per_pixel_out
    return z_stream, z_unique, fb_write
