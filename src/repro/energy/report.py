"""Scene-level energy roll-ups and cross-framework comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.energy.model import EnergyModel, FrameEnergy
from repro.stats.metrics import SceneResult, geomean

__all__ = ["SceneEnergy", "compare_frameworks", "scene_energy"]


@dataclass(frozen=True)
class SceneEnergy:
    """Steady-state per-frame energy for one scene run."""

    framework: str
    workload: str
    per_frame: FrameEnergy


def scene_energy(
    result: SceneResult,
    model: EnergyModel | None = None,
) -> SceneEnergy:
    """Average steady-state frame energy of a scene run.

    The distribution engine's static power is charged only for OO-VR
    runs (the other schemes do not have the hardware).
    """
    model = model or EnergyModel()
    engine_active = result.framework == "oo-vr"
    frames = result.steady_frames
    energies = [model.frame_energy(f, engine_active) for f in frames]
    count = len(energies)
    mean = FrameEnergy(
        link_joules=sum(e.link_joules for e in energies) / count,
        dram_joules=sum(e.dram_joules for e in energies) / count,
        compute_joules=sum(e.compute_joules for e in energies) / count,
        engine_joules=sum(e.engine_joules for e in energies) / count,
    )
    return SceneEnergy(
        framework=result.framework, workload=result.workload, per_frame=mean
    )


def compare_frameworks(
    results_by_framework: Mapping[str, Mapping[str, SceneResult]],
    model: EnergyModel | None = None,
) -> Dict[str, Dict[str, float]]:
    """Geomean per-frame energy (mJ) by framework, with breakdowns.

    ``results_by_framework`` maps framework name -> workload -> result
    (the shape :func:`repro.experiments.runner.run_framework_suite`
    produces).  Returns ``{framework: {component: mJ}}`` with a
    ``total`` entry per framework.
    """
    model = model or EnergyModel()
    out: Dict[str, Dict[str, float]] = {}
    for framework, results in results_by_framework.items():
        components: Dict[str, List[float]] = {
            "link": [],
            "dram": [],
            "compute": [],
            "engine": [],
            "total": [],
        }
        for result in results.values():
            energy = scene_energy(result, model).per_frame
            components["link"].append(energy.link_joules * 1e3)
            components["dram"].append(energy.dram_joules * 1e3)
            components["compute"].append(energy.compute_joules * 1e3)
            components["engine"].append(energy.engine_joules * 1e3)
            components["total"].append(energy.millijoules)
        out[framework] = {
            key: geomean(values) if any(v > 0 for v in values) else 0.0
            for key, values in components.items()
        }
    return out
