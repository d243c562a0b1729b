"""Architecture extensions beyond the paper's evaluated design points.

The paper closes by arguing OO-VR "potentially benefits the future
larger multi-GPU scenarios"; this package builds the studies that
conclusion invites, each on top of the same simulator:

- :mod:`repro.extensions.atw` — Asynchronous Time Warp (Section 2.2's
  frame re-projection fallback): deadline tracking, dropped-frame
  fill-in, and the judder metrics that penalise AFR's latency;
- :mod:`repro.extensions.topology` — inter-GPM link topologies (the
  paper's dedicated pairwise links vs. a ring vs. a central switch),
  with multi-hop routing and port contention;
- :mod:`repro.extensions.migration` — first-touch + page *migration*
  (the NUMA-GPU alternative to OO-VR's pre-allocation), with a
  hot-page detector and per-frame migration budget;
- :mod:`repro.extensions.foveated` — foveated rendering: an
  eccentricity-based shading-rate transform over scenes, stacking a
  perception-driven fragment saving on top of OO-VR's locality win;
- :mod:`repro.extensions.hbm` — local-bandwidth scaling (HBM
  generations), quantifying Section 6.3's claim that faster local
  memory widens OO-VR's advantage.

Each study's driver (:func:`atw_study`, :func:`foveation_study`,
:func:`topology_sweep`, :func:`migration_study`,
:func:`local_bandwidth_sweep`) is a declarative
:class:`~repro.session.Sweep` grid — parameterised design points are
framework variants (:mod:`repro.frameworks.variants`) — so every study
runs wherever the enclosing :func:`~repro.session.sweep_defaults`
block says: process fan-out, a :class:`~repro.session.ResultCache`
memoising repeated cells, any :mod:`repro.session.executor` backend
and a per-cell progress callback, like any sweep.
"""

from repro.extensions.atw import ATWConfig, ATWReport, atw_study, simulate_atw
from repro.extensions.foveated import (
    FoveationConfig,
    foveate_frame,
    foveate_scene,
    foveation_study,
)
from repro.extensions.hbm import HBM_GENERATIONS, local_bandwidth_sweep
from repro.extensions.migration import (
    MigrationConfig,
    MigrationEngine,
    migration_study,
)
from repro.extensions.topology import (
    RoutedLinkFabric,
    Topology,
    install_topology,
    topology_sweep,
)

__all__ = [
    "ATWConfig",
    "ATWReport",
    "FoveationConfig",
    "HBM_GENERATIONS",
    "MigrationConfig",
    "MigrationEngine",
    "RoutedLinkFabric",
    "Topology",
    "atw_study",
    "foveate_frame",
    "foveate_scene",
    "foveation_study",
    "install_topology",
    "local_bandwidth_sweep",
    "migration_study",
    "simulate_atw",
    "topology_sweep",
]
