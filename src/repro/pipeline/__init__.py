"""The four-step VR rendering pipeline (Fig. 2).

Converts a frame's draws into a unit table (and
:class:`~repro.pipeline.workunit.WorkUnit` objects read from it)
carrying stage work counts and memory touches, and prices them in
cycles:

1. **Geometry process + multi-projection** — vertex shading, cull/clip
   survival, and the SMP engine duplicating projections for the
   left/right eyes (:mod:`repro.pipeline.smp` names the
   :class:`~repro.pipeline.smp.SMPMode` and projects the per-eye
   viewports);
2. **Rasterisation** (:mod:`repro.pipeline.raster`) — 16x16 tiling and
   strip-overlap math for the tile-SFR schemes;
3. **Fragment process** — shading and texture sampling demand,
   cache-filtered into stream/unique bytes;
4. **Colour output and composition** (:mod:`repro.pipeline.rop`) —
   per-draw ROP writes plus master vs. distributed composition pricing.

:mod:`repro.pipeline.batch` computes stages 1 and 3 and the ROP
demand for a whole frame in one vectorized pass;
:mod:`repro.pipeline.characterize` memoises the resulting unit table
on the frame and reads its work units; :mod:`repro.pipeline.timing`
prices a unit in cycles on one GPM.
"""

from repro.pipeline.workunit import UnitColumns, WorkUnit
from repro.pipeline.smp import SMPMode, project_viewports
from repro.pipeline.batch import FrameCounters, frame_counters, unit_columns
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.timing import StageBreakdown, price_work_unit

__all__ = [
    "UnitColumns",
    "WorkUnit",
    "SMPMode",
    "project_viewports",
    "DrawCharacterizer",
    "FrameCounters",
    "frame_counters",
    "unit_columns",
    "StageBreakdown",
    "price_work_unit",
]
