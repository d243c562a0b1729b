"""Ablation: per-component contribution of OO-VR's mechanisms.

Not a paper figure — the paper reports OO-VR only in aggregate.  This
bench disables one mechanism at a time (prediction, pre-allocation,
DHC, stealing) and re-measures Fig. 15's speedup, quantifying each
component's share of the gain.
"""

from benchmarks.conftest import BENCH, record_output
from repro.experiments.extensions import oovr_ablation


def test_ablation_oovr(bench_once):
    result = bench_once(oovr_ablation, BENCH)
    record_output("ablation_oovr", result.to_text())
    full = result.average("full")
    software = result.average("software-only")
    assert full > software, "hardware mechanisms must contribute"
    # DHC is a major contributor (composition serialises otherwise).
    assert result.average("no-dhc") < full
