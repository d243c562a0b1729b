"""Ablation: middleware TSL-threshold and triangle-cap sensitivity.

Checks that the paper's fixed choices (TSL > 0.5, 4096-triangle cap)
sit on the plateau of the parameter space rather than at a cliff.
"""

from benchmarks.conftest import BENCH, record_output
from repro.experiments.extensions import batching_sensitivity


def test_ablation_batching(bench_once):
    result = bench_once(batching_sensitivity, BENCH)
    record_output("ablation_batching", result.to_text())
    series = result.series["speedup"]
    paper_point = series["tsl>0.5"]
    # The paper's operating point is within 25% of the best setting.
    assert paper_point >= 0.75 * max(series.values())
