"""The four-step VR rendering pipeline (Fig. 2).

Converts scheduled draws into :class:`~repro.pipeline.workunit.WorkUnit`
objects carrying stage work counts and memory touches, and prices them
in cycles:

1. **Geometry process + multi-projection** (:mod:`repro.pipeline.smp`)
   — vertex shading, cull/clip survival, and the SMP engine duplicating
   projections for the left/right eyes;
2. **Rasterisation** (:mod:`repro.pipeline.raster`) — 16x16 tiling and
   strip-overlap math for the tile-SFR schemes;
3. **Fragment process** (:mod:`repro.pipeline.fragment`) — shading and
   texture sampling demand, cache-filtered into stream/unique bytes;
4. **Colour output and composition** (:mod:`repro.pipeline.rop`) —
   per-draw ROP writes plus master vs. distributed composition pricing.

:mod:`repro.pipeline.characterize` assembles stages 1-4 into a frame's
unit table and its work units; :mod:`repro.pipeline.timing` prices a
unit in cycles on one GPM.
"""

from repro.pipeline.workunit import UnitColumns, WorkUnit
from repro.pipeline.smp import SMPEngine, SMPMode
from repro.pipeline.batch import FrameCounters, frame_counters, unit_columns
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.timing import StageBreakdown, price_work_unit

__all__ = [
    "UnitColumns",
    "WorkUnit",
    "SMPEngine",
    "SMPMode",
    "DrawCharacterizer",
    "FrameCounters",
    "frame_counters",
    "unit_columns",
    "StageBreakdown",
    "price_work_unit",
]
