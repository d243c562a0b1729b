"""Extension experiments beyond the paper's figures.

- :func:`oovr_ablation` — per-component contribution of OO-VR's
  hardware mechanisms (the paper reports only the aggregate);
- :func:`batching_sensitivity` — sweep of the middleware's TSL
  threshold and triangle cap (Section 5.1's fixed 0.5 / 4096 choices);
- :func:`energy_report` — link-traffic energy at the paper's quoted
  pJ/bit figures (Section 6.2's energy-saving argument).

Each experiment is one declarative :class:`~repro.session.Sweep` grid —
the ablated and parameter-shifted design points are spelled as
framework variants (:mod:`repro.frameworks.variants`), so every cell
is an ordinary :class:`~repro.session.spec.RunSpec` that fans out over
worker processes, memoises through a
:class:`~repro.session.ResultCache` and runs on any
:mod:`repro.session.executor` backend (including a shard slice) like
any paper figure: the caller says which in a
:func:`~repro.session.sweep_defaults` block around the call.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.ablation import ABLATION_VARIANTS
from repro.experiments.figures import FigureResult
from repro.experiments.runner import (
    FULL,
    ExperimentConfig,
    single_frame_speedups,
    with_average,
)
from repro.session import Sweep

#: The middleware operating points swept by :func:`batching_sensitivity`
#: (the paper fixes TSL > 0.5 and a 4096-triangle cap).
BATCHING_TSL_THRESHOLDS = (0.1, 0.3, 0.5, 0.7, 0.9)
BATCHING_TRIANGLE_CAPS = (1024, 2048, 4096, 8192, 16384)


def oovr_ablation(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Speedup over baseline with each OO-VR mechanism disabled."""
    variants = list(ABLATION_VARIANTS)
    results = (
        Sweep()
        .preset(experiment)
        .frameworks("baseline", *(f"oo-vr:{key}" for key in variants))
        .run()
    )
    baseline = results.by_workload(framework="baseline")
    series: Dict[str, Mapping[str, float]] = {
        key: with_average(
            single_frame_speedups(
                results.by_workload(framework=f"oo-vr:{key}"), baseline
            )
        )
        for key in variants
    }
    return FigureResult(
        figure="Ablation A1",
        title="OO-VR speedup over baseline with components disabled",
        series=series,
        row_order=[*experiment.workloads, "Avg."],
    )


def batching_sensitivity(
    experiment: ExperimentConfig = FULL,
    workload: str = "HL2-1280",
) -> FigureResult:
    """Middleware parameter sweep: TSL threshold and triangle cap.

    The paper fixes TSL > 0.5 and a 4096-triangle cap; this sweep shows
    both sit on a plateau — smaller caps fragment batches (more
    overhead, less locality), larger caps recreate object-SFR's
    stragglers.
    """
    points = {
        f"tsl>{threshold}": f"oo-vr:tsl={threshold}"
        for threshold in BATCHING_TSL_THRESHOLDS
    }
    points.update(
        {f"cap={cap}": f"oo-vr:cap={cap}" for cap in BATCHING_TRIANGLE_CAPS}
    )
    results = (
        Sweep()
        .preset(experiment)
        .workloads(workload)
        .frameworks("baseline", *points.values())
        .run()
    )
    base = results.get(framework="baseline")
    series = {
        label: base.single_frame_cycles
        / results.get(framework=name).single_frame_cycles
        for label, name in points.items()
    }
    return FigureResult(
        figure="Ablation A2",
        title=f"OO-VR speedup vs. middleware parameters on {workload} "
        "(paper uses TSL>0.5, cap=4096)",
        series={"speedup": series},
        row_order=list(series),
    )


def energy_report(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Per-frame link energy under the paper's integration assumptions.

    Section 6.2: inter-GPM transfers cost ~10 pJ/bit on-board (250
    pJ/bit across nodes); traffic reduction is therefore direct energy
    saving.  Reports millijoules per frame for the three Fig. 16
    schemes at both integration points.
    """
    schemes = ("baseline", "object", "oo-vr")
    results = (
        Sweep()
        .preset(experiment)
        .frameworks(*schemes)
        .run()
    )
    bytes_per_frame = results.geomean_by(
        "mean_inter_gpm_bytes_per_frame", by="framework"
    )
    on_board: Dict[str, float] = {}
    off_board: Dict[str, float] = {}
    for scheme in schemes:
        bits = bytes_per_frame[scheme] * 8.0
        on_board[scheme] = bits * 10.0 * 1e-9  # pJ -> mJ
        off_board[scheme] = bits * 250.0 * 1e-9
    return FigureResult(
        figure="Extension E1",
        title="inter-GPM link energy per frame (mJ, geomean of workloads)",
        series={"10 pJ/bit (board)": on_board, "250 pJ/bit (nodes)": off_board},
        row_order=list(schemes),
    )
