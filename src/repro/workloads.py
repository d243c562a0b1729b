"""The names of the nine workload points the paper evaluates.

The Table 3 suite (:mod:`repro.scene.benchmarks`) defines how each
workload's scene is generated; this module holds only the names, so
that code which names workloads without rendering them (the
:data:`~repro.session.spec.FULL` and :data:`~repro.session.spec.FAST`
presets, and through them the sweep service and the ``oovr cache``
commands) loads neither numpy nor the scene generator.
"""

from __future__ import annotations

from typing import Tuple

#: The nine workload points evaluated throughout the paper's figures:
#: DM3 and HL2 at three resolutions each, the rest at their native one.
WORKLOADS: Tuple[str, ...] = (
    "DM3-640",
    "DM3-1280",
    "DM3-1600",
    "HL2-640",
    "HL2-1280",
    "HL2-1600",
    "NFS",
    "UT3",
    "WE",
)
