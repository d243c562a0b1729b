"""Reproductions of the paper's figures (Sections 2-6).

Every figure is a declarative :class:`~repro.session.Sweep` — the grid
of (framework x workload x config) cells the paper plots — plus a small
formatting step that pivots the resulting
:class:`~repro.session.ResultSet` into paper-style series.  No figure
says where its grid runs: the caller wraps the call in
:func:`~repro.session.sweep_defaults` (worker processes, result cache,
executor backend, per-cell progress callback), as ``oovr fig`` and the
bench harness do.

Every function returns a :class:`FigureResult`: named series over the
nine workload points (or a parameter sweep), plus the paper's reported
values where the text states them, so benches can print paper-vs-
measured side by side.  Nothing here re-tunes the model — all runs share
the Table 2 configuration (modulo the parameter being swept).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.config import baseline_system
from repro.experiments.runner import FULL, ExperimentConfig, with_average
from repro.frameworks.base import build_framework
from repro.session import ResultSet, Sweep
from repro.stats.metrics import geomean
from repro.stats.reporting import series_table


@dataclass(frozen=True)
class FigureResult:
    """One reproduced figure: series keyed by design point."""

    figure: str
    title: str
    #: column -> {row -> value}
    series: Mapping[str, Mapping[str, float]]
    row_order: Sequence[str]
    #: The paper's headline numbers for the same quantity, if stated.
    paper_reference: Mapping[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        body = series_table(
            self.series, self.row_order, title=f"{self.figure}: {self.title}"
        )
        if not self.paper_reference:
            return body
        ref_lines = ["", "paper reference:"]
        for key, value in self.paper_reference.items():
            ref_lines.append(f"  {key}: {value:.3f}")
        return body + "\n" + "\n".join(ref_lines)

    def to_chart(self, width: int = 36) -> str:
        """The figure as a terminal bar chart (paper-style grouped bars).

        Averages-only when every series has an ``Avg.`` row (the usual
        per-workload figures collapse to their headline bars); full
        grouped chart otherwise.
        """
        from repro.stats.plotting import bar_chart, grouped_bar_chart

        title = f"{self.figure}: {self.title}"
        if all("Avg." in values for values in self.series.values()):
            avgs = {name: values["Avg."] for name, values in self.series.items()}
            return bar_chart(avgs, title=title, width=width, reference=1.0)
        return grouped_bar_chart(
            self.series, self.row_order, title=title, width=width
        )

    def average(self, column: str) -> float:
        values = self.series[column]
        if "Avg." in values:
            return values["Avg."]
        return geomean(list(values.values()))


def _rows(experiment: ExperimentConfig) -> List[str]:
    return [*experiment.workloads, "Avg."]


def _suite(experiment: ExperimentConfig, *frameworks: str) -> Sweep:
    """The common grid: given frameworks over the experiment's workloads."""
    return Sweep().preset(experiment).frameworks(*frameworks)


def _speedups(
    results: ResultSet, metric: str = "single_frame_cycles"
) -> Dict[str, Dict[str, float]]:
    """Per-framework speedup series vs. the ``baseline`` framework."""
    return results.normalize_to("baseline", metric, invert=True)


# ---------------------------------------------------------------------------
# Figure 4 — baseline sensitivity to inter-GPM link bandwidth
# ---------------------------------------------------------------------------

FIG4_BANDWIDTHS_GB = (1000.0, 256.0, 128.0, 64.0, 32.0)


def _bandwidth_label(bandwidth: float) -> str:
    return "1TB/s" if bandwidth >= 1000 else f"{bandwidth:.0f}GB/s"


def fig04_bandwidth_sensitivity(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Normalised baseline performance as the links shrink (Fig. 4).

    Performance is single-frame rate, normalised to the 1 TB/s links;
    the paper reports average degradations of 22 % / 42 % / 65 % at
    128 / 64 / 32 GB/s.
    """
    sweep = _suite(experiment, "baseline")
    for bandwidth in FIG4_BANDWIDTHS_GB:
        sweep.config(
            baseline_system().with_link_bandwidth(bandwidth),
            label=_bandwidth_label(bandwidth),
        )
    results = sweep.run()
    speedups = results.normalize_to(
        _bandwidth_label(FIG4_BANDWIDTHS_GB[0]),
        "single_frame_cycles",
        cols="config_label",
        invert=True,
    )
    per_bw = {label: with_average(values) for label, values in speedups.items()}
    return FigureResult(
        figure="Figure 4",
        title="baseline performance vs. inter-GPM link bandwidth "
        "(normalised to 1TB/s links)",
        series=per_bw,
        row_order=_rows(experiment),
        paper_reference={
            "128GB/s avg": 0.78,
            "64GB/s avg": 0.58,
            "32GB/s avg": 0.35,
        },
    )


# ---------------------------------------------------------------------------
# Figure 7 — AFR throughput and single-frame latency
# ---------------------------------------------------------------------------


def fig07_afr(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """AFR vs. baseline: overall performance and frame latency (Fig. 7)."""
    results = _suite(experiment, "baseline", "afr").run()
    overall = with_average(
        _speedups(results, "frame_interval_cycles")["afr"]
    )
    latency = with_average(
        results.normalize_to("baseline", "single_frame_cycles")["afr"]
    )
    return FigureResult(
        figure="Figure 7",
        title="AFR normalised overall performance (left) and single-frame "
        "latency (right)",
        series={"overall perf": overall, "frame latency": latency},
        row_order=_rows(experiment),
        paper_reference={"overall perf avg": 1.67, "frame latency avg": 1.59},
    )


# ---------------------------------------------------------------------------
# Figures 8 and 9 — tile/object SFR performance and traffic
# ---------------------------------------------------------------------------

SFR_SCHEMES = ("tile-v", "tile-h", "object")
_SFR_LABELS = {
    "tile-v": "Tile-Level (V)",
    "tile-h": "Tile-Level (H)",
    "object": "Object-Level",
}


def fig08_sfr_performance(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """SFR schemes' frame-rate speedup over the baseline (Fig. 8)."""
    results = _suite(experiment, "baseline", *SFR_SCHEMES).run()
    speedups = _speedups(results, "frame_interval_cycles")
    series = {
        _SFR_LABELS[scheme]: with_average(speedups[scheme])
        for scheme in SFR_SCHEMES
    }
    return FigureResult(
        figure="Figure 8",
        title="normalised performance of SFR schemes",
        series=series,
        row_order=_rows(experiment),
        paper_reference={
            "Tile-Level (V) avg": 1.28,
            "Tile-Level (H) avg": 1.03,
            "Object-Level avg": 1.60,
        },
    )


def fig09_sfr_traffic(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """SFR schemes' inter-GPM traffic vs. the baseline (Fig. 9)."""
    results = _suite(experiment, "baseline", *SFR_SCHEMES).run()
    ratios = results.normalize_to(
        "baseline", "mean_inter_gpm_bytes_per_frame"
    )
    series = {
        _SFR_LABELS[scheme]: with_average(ratios[scheme])
        for scheme in SFR_SCHEMES
    }
    return FigureResult(
        figure="Figure 9",
        title="normalised inter-GPM memory traffic of SFR schemes",
        series=series,
        row_order=_rows(experiment),
        paper_reference={
            "Tile-Level (V) avg": 1.50,
            "Tile-Level (H) avg": 1.44,
            "Object-Level avg": 0.60,
        },
    )


# ---------------------------------------------------------------------------
# Figure 10 — object-level SFR load imbalance
# ---------------------------------------------------------------------------


def fig10_load_balance(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Best-to-worst GPM busy-time ratio under object-level SFR."""
    results = _suite(experiment, "object").run()
    ratios = with_average(
        results.pivot("mean_load_balance_ratio")["object"]
    )
    return FigureResult(
        figure="Figure 10",
        title="object-level SFR best-to-worst performance ratio among GPMs",
        series={"best-to-worst": ratios},
        row_order=_rows(experiment),
        paper_reference={"max reported": 2.2, "typical": 1.4},
    )


# ---------------------------------------------------------------------------
# Figures 15 and 16 — the OO-VR headline results
# ---------------------------------------------------------------------------

FIG15_SCHEMES = ("object", "afr", "1tbs-bw", "oo-app", "oo-vr")
_FIG15_LABELS = {
    "object": "Object-Level",
    "afr": "Frame-Level",
    "1tbs-bw": "1TB/s-BW",
    "oo-app": "OO_APP",
    "oo-vr": "OOVR",
}


def fig15_oovr_speedup(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Single-frame speedup of all design points vs. baseline (Fig. 15)."""
    results = _suite(experiment, "baseline", *FIG15_SCHEMES).run()
    speedups = _speedups(results)
    series = {
        _FIG15_LABELS[scheme]: with_average(speedups[scheme])
        for scheme in FIG15_SCHEMES
    }
    return FigureResult(
        figure="Figure 15",
        title="normalised single-frame speedup of the design scenarios",
        series=series,
        row_order=_rows(experiment),
        paper_reference={
            "OO_APP avg": 1.99,
            "OOVR avg vs object-level": 1.99,
            "OOVR avg vs OO_APP": 1.59,
        },
    )


def fig16_oovr_traffic(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Inter-GPM traffic: baseline vs. object-level vs. OO-VR (Fig. 16)."""
    results = _suite(experiment, "baseline", "object", "oo-vr").run()
    ratios = results.normalize_to(
        "baseline", "mean_inter_gpm_bytes_per_frame"
    )
    series: Dict[str, Mapping[str, float]] = {
        "Baseline": with_average(
            {workload: 1.0 for workload in experiment.workloads}
        ),
        "Object-Level": with_average(ratios["object"]),
        "OOVR": with_average(ratios["oo-vr"]),
    }
    return FigureResult(
        figure="Figure 16",
        title="normalised inter-GPM memory traffic",
        series=series,
        row_order=_rows(experiment),
        paper_reference={"Object-Level avg": 0.60, "OOVR avg": 0.24},
    )


# ---------------------------------------------------------------------------
# Figure 17 — sensitivity of the design points to link bandwidth
# ---------------------------------------------------------------------------

FIG17_BANDWIDTHS_GB = (32.0, 64.0, 128.0, 256.0)
FIG17_SCHEMES = ("baseline", "object", "oo-vr")
_FIG17_LABELS = {
    "baseline": "Baseline",
    "object": "Object-level",
    "oo-vr": "OOVR",
}


def fig17_link_bandwidth(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Speedup vs. link bandwidth, normalised to baseline@64GB/s.

    The 64 GB/s grid column doubles as the normalisation reference:
    ``with_link_bandwidth(64)`` reproduces the Table 2 baseline config,
    so no separate reference run is needed.
    """
    sweep = _suite(experiment, *FIG17_SCHEMES)
    for bandwidth in FIG17_BANDWIDTHS_GB:
        sweep.config(
            baseline_system().with_link_bandwidth(bandwidth),
            label=f"{bandwidth:.0f}GB/s",
        )
    results = sweep.run()
    means = results.geomean_by(
        "single_frame_cycles", by=("framework", "config_label")
    )
    reference_mean = means[("baseline", "64GB/s")]
    series: Dict[str, Dict[str, float]] = {
        label: {} for label in _FIG17_LABELS.values()
    }
    for (scheme, row), mean_cycles in means.items():
        series[_FIG17_LABELS[scheme]][row] = reference_mean / mean_cycles
    return FigureResult(
        figure="Figure 17",
        title="speedup vs. inter-GPM link bandwidth "
        "(normalised to Baseline @ 64GB/s)",
        series=series,
        row_order=[f"{bw:.0f}GB/s" for bw in FIG17_BANDWIDTHS_GB],
        paper_reference={
            "OOVR insensitivity (256/32 ratio)": 1.15,
        },
    )


# ---------------------------------------------------------------------------
# Figure 18 — scalability with the number of GPMs
# ---------------------------------------------------------------------------

FIG18_GPM_COUNTS = (1, 2, 4, 8)
FIG18_SCHEMES = ("baseline", "object", "oo-vr")


def fig18_scalability(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """Speedup over a single GPM as the module count grows (Fig. 18)."""
    sweep = _suite(experiment, *FIG18_SCHEMES)
    for count in FIG18_GPM_COUNTS:
        sweep.config(baseline_system(num_gpms=count), label=f"{count} GPM")
    results = sweep.run()
    means = results.geomean_by(
        "single_frame_cycles", by=("framework", "config_label")
    )
    single_mean = means[("baseline", f"{FIG18_GPM_COUNTS[0]} GPM")]
    series: Dict[str, Dict[str, float]] = {
        _FIG17_LABELS[s]: {} for s in FIG18_SCHEMES
    }
    for (scheme, row), mean_cycles in means.items():
        series[_FIG17_LABELS[scheme]][row] = single_mean / mean_cycles
    return FigureResult(
        figure="Figure 18",
        title="speedup over single GPM vs. number of GPMs",
        series=series,
        row_order=[f"{c} GPM" for c in FIG18_GPM_COUNTS],
        paper_reference={
            "Baseline @8": 2.08,
            "Object-level @8": 3.47,
            "OOVR @4": 3.64,
            "OOVR @8": 6.27,
        },
    )


# ---------------------------------------------------------------------------
# Section 3 — SMP validation (Fig. 5 context)
# ---------------------------------------------------------------------------


def smp_validation(
    experiment: ExperimentConfig = FULL,
) -> FigureResult:
    """SMP multi-view vs. sequential stereo on one GPM (~27 % gain).

    Mirrors the paper's validation of the ATTILA SMP engine: the same
    frames rendered as two sequential per-eye passes and as SMP
    multi-view draws on a single-GPM system.  The comparison drives the
    pipeline below the framework layer, so it runs serially and
    in-process, outside any :func:`~repro.session.sweep_defaults`
    block's executor.
    """
    from repro.gpu.system import MultiGPUSystem
    from repro.pipeline.smp import SMPMode
    from repro.session import Session

    config = baseline_system(num_gpms=1)
    speedups: Dict[str, float] = {}
    for workload in experiment.workloads:
        scene = Session().preset(experiment).workload(workload).scene()
        frame = scene.representative_frame
        framework = build_framework("baseline", config)

        def frame_cycles(mode: SMPMode) -> float:
            system = MultiGPUSystem(config)
            system.begin_frame()
            draws = (
                frame.stereo_draws()
                if mode is SMPMode.SEQUENTIAL
                else frame.multiview_draws()
            )
            for draw in draws:
                unit = framework.characterizer.characterize(draw, mode=mode)
                system.execute_unit(unit, 0, fb_targets={0: 1.0})
            return system.frame_result("smp-check", workload).cycles

        sequential = frame_cycles(SMPMode.SEQUENTIAL)
        simultaneous = frame_cycles(SMPMode.SIMULTANEOUS)
        speedups[workload] = sequential / simultaneous
    return FigureResult(
        figure="Section 3",
        title="SMP multi-view speedup over sequential stereo (single GPM)",
        series={"SMP speedup": with_average(speedups)},
        row_order=_rows(experiment),
        paper_reference={"paper": 1.27},
    )


#: Registry used by the CLI and the benches.
FIGURES = {
    "4": fig04_bandwidth_sensitivity,
    "7": fig07_afr,
    "8": fig08_sfr_performance,
    "9": fig09_sfr_traffic,
    "10": fig10_load_balance,
    "15": fig15_oovr_speedup,
    "16": fig16_oovr_traffic,
    "17": fig17_link_bandwidth,
    "18": fig18_scalability,
    "smp": smp_validation,
}
