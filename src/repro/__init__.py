"""OO-VR reproduction: NUMA-friendly object-oriented VR rendering.

A cycle-approximate simulator of NUMA-based multi-GPU systems running
stereo VR rendering, reproducing Xie et al., *OO-VR* (ISCA 2019):

- the multi-GPU substrate (GPMs, NVLink fabric, NUMA page placement);
- the four-step SMP rendering pipeline;
- the parallel rendering baselines (AFR, tile-SFR, object-SFR);
- the OO-VR contribution (programming model, TSL batching, runtime
  distribution engine, distributed hardware composition).

Quickstart — every experiment is a :class:`Session` (one run) or a
:class:`Sweep` (a grid)::

    from repro import Session, Sweep

    # One cell: OO-VR on Half-Life 2 at 1280x1024.
    result = Session().framework("oo-vr").workload("HL2-1280").run()
    print(result.single_frame_cycles, result.traffic.total_bytes)

    # A grid: two frameworks x two workloads, four worker processes,
    # tidy records out.
    records = (
        Sweep()
        .frameworks("baseline", "oo-vr")
        .workloads("HL2-1280", "WE")
        .fast()
        .run(jobs=4)
        .to_records()
    )

:class:`ResultSet` (what ``Sweep.run`` returns) exports ``to_json()`` /
``to_csv()`` and computes paper-style series: ``pivot``, ``geomean_by``,
and ``normalize_to`` (speedups and traffic ratios against a baseline
column).  ``Sweep.run(cache=ResultCache("dir"))`` memoises executed
cells on disk keyed by the spec's content hash, so repeated grids skip
already-measured cells byte-identically.  The same grids drive ``oovr
fig``, ``oovr sweep --jobs N --cache DIR``, and the benchmark harness.
"""

from repro.config import (
    CostModel,
    GPMConfig,
    LinkConfig,
    SMConfig,
    SystemConfig,
    baseline_system,
)
from repro.frameworks import build_framework, framework_names
from repro.scene import (
    BENCHMARKS,
    WORKLOADS,
    Frame,
    RenderObject,
    Scene,
    make_benchmark_scene,
    workload_scene,
)
from repro.core import (
    OOApplication,
    OOMiddleware,
    OverheadModel,
    RenderingTimePredictor,
    texture_sharing_level,
)
from repro.session import (
    FAST,
    FULL,
    ExperimentConfig,
    ResultCache,
    ResultSet,
    RunSpec,
    Session,
    Sweep,
)
from repro.stats import FrameResult, SceneResult, geomean, normalize

__version__ = "1.2.0"

__all__ = [
    "CostModel",
    "GPMConfig",
    "LinkConfig",
    "SMConfig",
    "SystemConfig",
    "baseline_system",
    "build_framework",
    "framework_names",
    "BENCHMARKS",
    "WORKLOADS",
    "Frame",
    "RenderObject",
    "Scene",
    "make_benchmark_scene",
    "workload_scene",
    "OOApplication",
    "OOMiddleware",
    "OverheadModel",
    "RenderingTimePredictor",
    "texture_sharing_level",
    "FAST",
    "FULL",
    "ExperimentConfig",
    "ResultCache",
    "ResultSet",
    "RunSpec",
    "Session",
    "Sweep",
    "FrameResult",
    "SceneResult",
    "geomean",
    "normalize",
    "__version__",
]
