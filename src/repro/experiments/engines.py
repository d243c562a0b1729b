"""Engine-contention study: what the analytic roofline cannot see.

The analytic engine prices every work unit in isolation, so two flows
sharing a wire (or a DRAM stack) in the same window each get the full
bandwidth — concurrent congestion is *under-priced*, and reported
speedups are over-credited wherever schedules overlap on a shared
resource.  :func:`engine_contention_study` quantifies the gap: it runs
the same (framework x link-bandwidth x workload) grid once under each
of the ``analytic`` and ``event`` engines (the run's engine,
:meth:`Sweep.engine <repro.session.session.Sweep.engine>`) and reports
the **over-credit factor** — event-engine cycles over analytic cycles,
geomean across workloads.  A factor of 1.0 means the analytic model was
exact; 1.5 means congestion makes frames 50 % slower than it claims.
Factors a fraction of a percent *below* 1.0 are the one modelling
divergence documented in :mod:`repro.engine.event`: bidirectional
traffic to a peer drains in parallel on the full-duplex wires where
the analytic per-peer roll-up serialises it.

On the paper's dedicated pairwise fabric the factor stays ~1 by
construction ("the intercommunication between two GPMs will not be
interfered"); on the routed fabrics larger systems actually ship
(``<scheme>:topo=ring`` / ``:topo=switch``) the baseline's remote
streams pile onto shared wires while OO-VR, having removed most of the
bytes, is nearly immune — the NUMA-locality argument, sharpened.

With the engine layer covering every frame phase (staging flows and
the composition barrier included), :func:`engine_contention_phases`
resolves the same factor per phase: how much the render window slows
once PA/staging copies fight render flows for wires, and how much the
composition barrier itself stretches — the two mechanisms (Section 5.2
PA overlap, Section 5.3 DHC) the aggregate number conflates.  Both
views read one grid (:func:`engine_contention_grid`): pass it to each
as ``results=``, or run both inside one
:func:`~repro.session.sweep_defaults` block with a ``cache``, and every
cell executes once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import baseline_system
from repro.experiments.figures import FigureResult, _bandwidth_label
from repro.experiments.runner import FULL, ExperimentConfig
from repro.session import Sweep
from repro.stats.metrics import geomean

__all__ = [
    "CONTENTION_BANDWIDTHS_GB",
    "CONTENTION_FRAMEWORKS",
    "CONTENTION_PHASES",
    "engine_contention_grid",
    "engine_contention_phases",
    "engine_contention_study",
]

#: Link bandwidths swept by default (the paper's 64 GB/s and the
#: cheaper points where congestion bites hardest).
CONTENTION_BANDWIDTHS_GB = (64.0, 32.0, 16.0)

#: Default design points: the naive baseline and full OO-VR, each on
#: the paper's dedicated fabric and on a shared central switch.
CONTENTION_FRAMEWORKS = (
    "baseline",
    "oo-vr",
    "baseline:topo=switch",
    "oo-vr:topo=switch",
)


#: The frame phases the per-phase breakdown resolves.  ``render``
#: covers everything before the barrier (units, staging stalls and —
#: under the event engine — the wire time PA/staging flows steal from
#: render traffic); ``composition`` is the post-render barrier.
CONTENTION_PHASES = ("render", "composition")


def engine_contention_grid(
    experiment: ExperimentConfig = FULL,
    frameworks: Sequence[str] = CONTENTION_FRAMEWORKS,
    link_bandwidths: Sequence[float] = CONTENTION_BANDWIDTHS_GB,
    workloads: Optional[Sequence[str]] = None,
):
    """Execute the (framework x engine x bandwidth x workload) grid.

    The grid both study views read: one (framework x bandwidth x
    workload) sweep run once per engine, the two record sets merged.
    Run it once and pass the returned :class:`~repro.session.ResultSet`
    to :func:`engine_contention_study` *and*
    :func:`engine_contention_phases` as ``results=`` so every cell
    executes (or hits the cache) exactly once.
    """
    chosen = tuple(workloads) if workloads is not None else tuple(
        experiment.workloads
    )
    sweep = (
        Sweep().preset(experiment).workloads(*chosen).frameworks(*frameworks)
    )
    for bandwidth in link_bandwidths:
        sweep.config(
            baseline_system().with_link_bandwidth(bandwidth),
            label=_bandwidth_label(bandwidth),
        )
    return sweep.engine("analytic").run().merge(sweep.engine("event").run())


def _run_grid(
    experiment: ExperimentConfig,
    frameworks: Sequence[str],
    link_bandwidths: Sequence[float],
    workloads: Optional[Sequence[str]],
    results,
):
    """Resolve the grid a study view reads: reuse or execute."""
    chosen = tuple(workloads) if workloads is not None else tuple(
        experiment.workloads
    )
    if results is None:
        results = engine_contention_grid(
            experiment, frameworks, link_bandwidths, workloads
        )
    return results, chosen


def engine_contention_study(
    experiment: ExperimentConfig = FULL,
    frameworks: Sequence[str] = CONTENTION_FRAMEWORKS,
    link_bandwidths: Sequence[float] = CONTENTION_BANDWIDTHS_GB,
    workloads: Optional[Sequence[str]] = None,
    results=None,
) -> FigureResult:
    """Analytic over-credit factor per (framework, link bandwidth).

    One declarative :class:`~repro.session.Sweep`, run once per engine:
    every framework runs twice per cell — under the ``analytic`` and
    the ``event`` engine — across the bandwidth axis, executed wherever
    the enclosing :func:`~repro.session.sweep_defaults` block says,
    like any figure.  Returns a
    :class:`~repro.experiments.figures.FigureResult` whose series map
    each framework to ``{bandwidth: event/analytic}`` (geomean over
    workloads, on single-frame cycles).  Pass ``results`` (from
    :func:`engine_contention_grid`) to read an already-executed grid
    instead of running one.
    """
    results, chosen = _run_grid(
        experiment, frameworks, link_bandwidths, workloads, results
    )

    def cycles(framework: str, label: str, engine: str) -> Dict[str, float]:
        subset = results.select(
            framework=framework, config_label=label, engine=engine
        )
        return {
            workload: subset.get(workload=workload).single_frame_cycles
            for workload in chosen
        }

    series: Dict[str, Dict[str, float]] = {}
    row_order = [_bandwidth_label(bandwidth) for bandwidth in link_bandwidths]
    for framework in frameworks:
        row: Dict[str, float] = {}
        for label in row_order:
            analytic = cycles(framework, label, "analytic")
            event = cycles(framework, label, "event")
            row[label] = geomean(
                [event[w] / analytic[w] for w in chosen]
            )
        series[framework] = row
    return FigureResult(
        figure="Engine contention",
        title="analytic over-credit factor (event / analytic cycles)",
        series=series,
        row_order=row_order,
    )


def engine_contention_phases(
    experiment: ExperimentConfig = FULL,
    frameworks: Sequence[str] = CONTENTION_FRAMEWORKS,
    link_bandwidths: Sequence[float] = CONTENTION_BANDWIDTHS_GB,
    workloads: Optional[Sequence[str]] = None,
    results=None,
) -> FigureResult:
    """Phase-resolved over-credit: where congestion actually bites.

    Reads the same grid as :func:`engine_contention_study` — run it
    once with :func:`engine_contention_grid` and pass it as
    ``results``, or run both views inside one
    :func:`~repro.session.sweep_defaults` block with a ``cache`` so the
    second pass is pure hits — and splits the over-credit factor by
    frame phase — one ``<framework> [render]`` and one
    ``<framework> [composition]`` column per design point:

    - the **render** factor isolates what PA/staging flows and remote
      render streams cost each other on contended wires — with full
      engine coverage the event engine replays pre-allocation copies
      as background flows, so this column shows how much of the
      "free" PA overlap congestion claws back;
    - the **composition** factor prices the barrier itself — DHC's
      all-pairs scatter holds up on the dedicated fabric but queues on
      a shared switch, which is exactly the Equalizer-style
      compositing-bound regime the paper's Section 5.3 argues about.

    Frameworks with no composition pass (the interleaved baseline,
    sort-first tiling) report 1.0 there.
    """
    results, chosen = _run_grid(
        experiment, frameworks, link_bandwidths, workloads, results
    )

    def phase_cycles(
        framework: str, label: str, engine: str, phase: str
    ) -> Dict[str, float]:
        subset = results.select(
            framework=framework, config_label=label, engine=engine
        )
        out: Dict[str, float] = {}
        for workload in chosen:
            scene = subset.get(workload=workload)
            if phase == "composition":
                out[workload] = scene.single_frame_composition_cycles
            else:
                out[workload] = scene.single_frame_render_cycles
        return out

    def factor(analytic: float, event: float) -> float:
        if analytic <= 0.0:
            # No such phase in this framework (e.g. baseline has no
            # composition barrier): the analytic model is trivially
            # exact about it.
            return 1.0
        return event / analytic

    series: Dict[str, Dict[str, float]] = {}
    row_order = [_bandwidth_label(bandwidth) for bandwidth in link_bandwidths]
    for framework in frameworks:
        for phase in CONTENTION_PHASES:
            row: Dict[str, float] = {}
            for label in row_order:
                analytic = phase_cycles(framework, label, "analytic", phase)
                event = phase_cycles(framework, label, "event", phase)
                row[label] = geomean(
                    [factor(analytic[w], event[w]) for w in chosen]
                )
            series[f"{framework} [{phase}]"] = row
    return FigureResult(
        figure="Engine contention by phase",
        title="per-phase over-credit factor (event / analytic cycles)",
        series=series,
        row_order=row_order,
    )
