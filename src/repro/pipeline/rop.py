"""Render output and frame composition pricing.

Two consumers:

- the per-draw ROP cost inside :mod:`repro.pipeline.timing` (colour
  writes at 4 pixels/cycle/ROP), and
- the *composition phase* at the end of sort-last rendering, where the
  per-GPM colour outputs are assembled into the final frame.  Classic
  object-level SFR funnels everything through the master node's ROPs;
  the paper's DHC spreads the work over every GPM's ROPs (Section 5.3),
  which is modelled here as a simple throughput division plus the link
  transfers the caller records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPMConfig


@dataclass(frozen=True)
class CompositionCost:
    """Cycles and bytes of one frame-composition pass."""

    rop_cycles: float
    pixels: float
    color_bytes: float
    depth_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.color_bytes + self.depth_bytes


def master_composition(
    pixels: float,
    gpm: GPMConfig,
    bytes_per_pixel: float = 4.0,
    depth_bytes_per_pixel: float = 4.0,
) -> CompositionCost:
    """Sort-last composition on a single master GPM.

    All ``pixels`` (the union of every worker's rendered output) funnel
    through one GPM's ROPs; the master also depth-compares overlapping
    contributions, hence the depth byte stream.
    """
    if pixels < 0:
        raise ValueError("pixels cannot be negative")
    return CompositionCost(
        rop_cycles=pixels / gpm.rop_throughput,
        pixels=pixels,
        color_bytes=pixels * bytes_per_pixel,
        depth_bytes=pixels * depth_bytes_per_pixel,
    )


def distributed_composition(
    pixels: float,
    gpm: GPMConfig,
    num_gpms: int,
    bytes_per_pixel: float = 4.0,
    depth_bytes_per_pixel: float = 4.0,
) -> CompositionCost:
    """DHC composition across ``num_gpms`` GPMs' ROPs (Section 5.3).

    The framebuffer is striped so every GPM's ROPs write their own
    partition concurrently: 4 GPMs give 4x the output bandwidth of the
    master-node scheme.  The returned cycle count is the per-GPM
    critical path under a perfectly balanced stripe split.
    """
    if num_gpms <= 0:
        raise ValueError("need at least one GPM")
    base = master_composition(pixels, gpm, bytes_per_pixel, depth_bytes_per_pixel)
    return CompositionCost(
        rop_cycles=base.rop_cycles / num_gpms,
        pixels=pixels,
        color_bytes=base.color_bytes,
        depth_bytes=base.depth_bytes,
    )
