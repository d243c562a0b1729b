"""Shared experiment machinery, re-platformed on :mod:`repro.session`.

The canonical experiment surface is now the Session/Sweep API; this
module keeps the thin helpers the figures' arithmetic is written in
(speedups, traffic ratios, geometric-mean rows) plus backwards-
compatible aliases: :class:`ExperimentConfig`, the :data:`FAST` /
:data:`FULL` presets, :func:`scene_for`, and :func:`run_framework_suite`
(a one-framework :class:`~repro.session.Sweep`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.config import SystemConfig
from repro.scene.scene import Scene
from repro.session import FAST, FULL, ExperimentConfig, Sweep
from repro.session.spec import cached_scene
from repro.stats.metrics import SceneResult, geomean

__all__ = [
    "ExperimentConfig",
    "FAST",
    "FULL",
    "scene_for",
    "run_framework_suite",
    "single_frame_speedups",
    "traffic_ratios",
    "with_average",
]


def scene_for(workload: str, experiment: ExperimentConfig = FULL) -> Scene:
    """The (cached) scene for one workload point."""
    return cached_scene(
        workload, experiment.num_frames, experiment.seed, experiment.draw_scale
    )


def run_framework_suite(
    framework_name: str,
    experiment: ExperimentConfig = FULL,
    config: Optional[SystemConfig] = None,
) -> Dict[str, SceneResult]:
    """Run one framework over every workload of the experiment."""
    sweep = Sweep().preset(experiment).frameworks(framework_name)
    if config is not None:
        sweep.config(config)
    return sweep.run().by_workload()


def single_frame_speedups(
    results: Mapping[str, SceneResult],
    baseline: Mapping[str, SceneResult],
) -> Dict[str, float]:
    """Per-workload single-frame speedup vs. the baseline results."""
    return {
        workload: baseline[workload].single_frame_cycles
        / results[workload].single_frame_cycles
        for workload in results
    }


def traffic_ratios(
    results: Mapping[str, SceneResult],
    baseline: Mapping[str, SceneResult],
) -> Dict[str, float]:
    """Per-workload inter-GPM traffic normalised to the baseline."""
    out: Dict[str, float] = {}
    for workload in results:
        base = baseline[workload].mean_inter_gpm_bytes_per_frame
        mine = results[workload].mean_inter_gpm_bytes_per_frame
        out[workload] = mine / base if base > 0 else 0.0
    return out


def with_average(values: Mapping[str, float]) -> Dict[str, float]:
    """Append the geometric-mean 'Avg.' entry the paper's figures show."""
    out = dict(values)
    out["Avg."] = geomean(list(values.values()))
    return out
