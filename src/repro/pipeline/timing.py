"""Stage timing: pricing a work unit in GPM cycles.

The timing model is a per-unit roofline over the pipeline stages of
Fig. 2(b): a deeply pipelined GPU overlaps the stages of one draw, so a
unit's *compute* time is the maximum over its stage times, plus the
fixed per-draw command/state overhead.  Memory time (local DRAM, remote
links) is priced separately by the GPM layer and combined with another
max — whichever resource saturates first bounds throughput.

Stage rates come from Table 2 via :class:`~repro.config.GPMConfig`:

==============  ===================================================
vertex shading  ``shader_cores`` cores x ``vertex_shader_cycles``
setup           ``num_pmes`` x ``triangles_per_cycle_per_pme``
raster          ``raster_fragments_per_cycle``
fragment        ``shader_cores`` x ``fragment_shader_cycles`` x
                complexity
texture         ``texture_units`` texels/cycle
ROP             ``num_rops`` x ``rop_pixels_per_cycle``
==============  ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config import CostModel, GPMConfig
from repro.pipeline.workunit import WorkUnit


@dataclass(frozen=True)
class StageBreakdown:
    """Per-stage cycle costs of one work unit on one GPM."""

    vertex_cycles: float
    setup_cycles: float
    raster_cycles: float
    fragment_cycles: float
    texture_cycles: float
    rop_cycles: float
    overhead_cycles: float

    @property
    def compute_cycles(self) -> float:
        """Pipelined compute time: slowest stage plus fixed overhead."""
        return (
            max(
                self.vertex_cycles,
                self.setup_cycles,
                self.raster_cycles,
                self.fragment_cycles,
                self.texture_cycles,
                self.rop_cycles,
            )
            + self.overhead_cycles
        )

    @property
    def serial_cycles(self) -> float:
        """Un-pipelined total; an upper bound used in sanity tests."""
        return (
            self.vertex_cycles
            + self.setup_cycles
            + self.raster_cycles
            + self.fragment_cycles
            + self.texture_cycles
            + self.rop_cycles
            + self.overhead_cycles
        )

    @property
    def bottleneck(self) -> str:
        """Name of the slowest stage."""
        stages = {
            "vertex": self.vertex_cycles,
            "setup": self.setup_cycles,
            "raster": self.raster_cycles,
            "fragment": self.fragment_cycles,
            "texture": self.texture_cycles,
            "rop": self.rop_cycles,
        }
        return max(stages, key=stages.get)


def stage_cycles(
    vertices,
    triangles_setup,
    fragments,
    shader_complexity,
    texel_requests,
    pixels_out,
    draw_count,
    gpm: GPMConfig,
    cost: CostModel,
) -> Tuple:
    """Eq. 3's per-stage cycles, for one unit or for columns of units.

    Returns ``(vertex, setup, raster, fragment, texture, rop,
    overhead)`` cycles — :class:`StageBreakdown`'s field order.  The
    counts are one unit's floats or numpy columns of them; every stage
    is the same product/quotient chain either way, so the two call
    shapes agree bit for bit.
    """
    cores = gpm.shader_cores
    setup_rate = gpm.num_pmes * cost.triangles_per_cycle_per_pme
    # TXUs pipeline the anisotropic taps of one sample: throughput is
    # one *sample* per TXU-cycle, while the taps hit the memory system.
    samples = texel_requests / cost.anisotropic_texels_per_sample
    return (
        vertices * cost.vertex_shader_cycles / cores,
        triangles_setup / setup_rate,
        fragments / cost.raster_fragments_per_cycle,
        fragments * cost.fragment_shader_cycles * shader_complexity / cores,
        samples / gpm.texture_units,
        pixels_out / gpm.rop_throughput,
        cost.draw_overhead_cycles * draw_count,
    )


def price_work_unit(
    unit: WorkUnit, gpm: GPMConfig, cost: CostModel
) -> StageBreakdown:
    """Price ``unit`` on a GPM with configuration ``gpm``."""
    return StageBreakdown(
        *stage_cycles(
            unit.vertices,
            unit.triangles_setup,
            unit.fragments,
            unit.shader_complexity,
            unit.texel_requests,
            unit.pixels_out,
            unit.draw_count,
            gpm,
            cost,
        )
    )
