"""Local-memory bandwidth scaling (the HBM-generation study).

Section 6.3 argues that "as the local memory bandwidth scales in future
GPU design (e.g. High-Bandwidth Memory), the performance of the future
multi-GPU scenario is more likely to be constrained by inter-GPU
memory" — i.e. OO-VR's advantage *grows* as local DRAM gets faster
while links stay hard to scale.  :func:`local_bandwidth_sweep` measures
that claim: single-frame speedup over today's baseline for each scheme
at each local-bandwidth point, with the 64 GB/s link held fixed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Sequence

from repro.config import SystemConfig, baseline_system

__all__ = ["HBM_GENERATIONS", "local_bandwidth_sweep"]

#: Local DRAM bandwidth points, GB/s, spanning the local:link asymmetry
#: from none (64 GB/s local = the 64 GB/s link, a flat machine) through
#: the paper's 1 TB/s HBM baseline to an HBM3e-class 4 TB/s.  The
#: paper's conclusion argues OO-VR's advantage grows with this
#: asymmetry; the low points are where that claim is visible.
HBM_GENERATIONS: Mapping[str, float] = {
    "64 GB/s (=link)": 64.0,
    "128 GB/s": 128.0,
    "256 GB/s": 256.0,
    "1 TB/s (paper)": 1000.0,
    "4 TB/s": 4000.0,
}


def with_local_bandwidth(
    config: SystemConfig, bytes_per_cycle: float
) -> SystemConfig:
    """A copy of ``config`` with a different local DRAM bandwidth."""
    if bytes_per_cycle <= 0:
        raise ValueError("bandwidth must be positive")
    return replace(
        config, gpm=replace(config.gpm, dram_bytes_per_cycle=bytes_per_cycle)
    )


def local_bandwidth_sweep(
    schemes: Sequence[str] = ("baseline", "object", "oo-vr"),
    generations: Mapping[str, float] = HBM_GENERATIONS,
    workloads: Sequence[str] = ("DM3-1280", "HL2-1280", "WE"),
    draw_scale: float = 1.0,
    num_frames: int = 2,
) -> Dict[str, Dict[str, float]]:
    """Speedup over (baseline, 1 TB/s) per (generation, scheme) cell.

    Returns ``{generation: {scheme: speedup}}``, geomean over
    workloads.  The link stays at the Table 2 value throughout: the
    sweep isolates the bandwidth *asymmetry*, not raw bandwidth.

    The generations are the :class:`~repro.session.Sweep`'s config
    axis, so the whole study is one declarative grid.  The reference
    cell is the generation running the paper's 1 TB/s local DRAM; when
    ``generations`` omits that point, an internal reference column is
    added.
    """
    from repro.session import Sweep
    from repro.stats.metrics import geomean

    reference_bandwidth = baseline_system().gpm.dram_bytes_per_cycle
    reference_label = next(
        (
            label
            for label, gbps in generations.items()
            if float(gbps) == reference_bandwidth
        ),
        None,
    )
    sweep = (
        Sweep()
        .workloads(*workloads)
        .frames(num_frames)
        .scale(draw_scale)
        .frameworks(*schemes)
    )
    for label, gbps in generations.items():
        sweep.config(
            with_local_bandwidth(baseline_system(), float(gbps)), label=label
        )
    results = sweep.run()

    def cycles(scheme: str, label: str) -> Dict[str, float]:
        return {
            workload: results.get(
                framework=scheme, config_label=label, workload=workload
            ).single_frame_cycles
            for workload in workloads
        }

    if "baseline" in schemes and reference_label is not None:
        reference = cycles("baseline", reference_label)
    else:
        # The main grid lacks (baseline, 1 TB/s); run just those
        # reference cells instead of widening the cartesian product.
        ref_results = (
            Sweep()
            .workloads(*workloads)
            .frames(num_frames)
            .scale(draw_scale)
            .frameworks("baseline")
            .config(baseline_system(), label="reference (1 TB/s)")
            .run()
        )
        reference = {
            workload: ref_results.get(
                workload=workload
            ).single_frame_cycles
            for workload in workloads
        }
    table: Dict[str, Dict[str, float]] = {}
    for label in generations:
        row: Dict[str, float] = {}
        for scheme in schemes:
            mine = cycles(scheme, label)
            row[scheme] = geomean([reference[w] / mine[w] for w in workloads])
        table[label] = row
    return table
