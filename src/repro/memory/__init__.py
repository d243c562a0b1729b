"""NUMA memory-system substrate.

Models the paper's memory organisation (Section 2.3): each GPM owns a
local DRAM stack (1 TB/s) and a memory-side L2 slice; GPMs exchange data
over dedicated pairwise NVLinks (64 GB/s per direction).  The address
space is shared and paged; page placement decides which accesses are
local and which cross a link — the asymmetry the whole paper is about.

- :mod:`repro.memory.address` — resources, pages, touch descriptors;
- :mod:`repro.memory.placement` — first-touch / fixed / interleaved /
  replicated page placement, PA-unit copies (pre-allocation);
- :mod:`repro.memory.cache` — the analytic working-set cache model
  used by the fast timing path;
- :mod:`repro.memory.dram` — per-GPM DRAM bandwidth accounting;
- :mod:`repro.memory.link` — the pairwise link fabric with per-type
  traffic taxonomy;
- :mod:`repro.memory.remote_cache` — the MCM-GPU style remote cache that
  filters repeated remote reads.
"""

from repro.memory.address import Resource, ResourceKind, Touch
from repro.memory.placement import PagePlacement, PlacementPolicy
from repro.memory.dram import DramTracker
from repro.memory.link import LinkFabric, TrafficType
from repro.memory.remote_cache import RemoteCache

__all__ = [
    "Resource",
    "ResourceKind",
    "Touch",
    "PagePlacement",
    "PlacementPolicy",
    "DramTracker",
    "LinkFabric",
    "TrafficType",
    "RemoteCache",
]
