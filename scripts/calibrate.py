"""Calibration harness: print the headline averages vs. paper targets.

Run with ``python scripts/calibrate.py [--fast]``.  Used during
development to tune the CostModel constants; the chosen values are
frozen in ``repro.config`` and asserted by ``tests/test_shapes.py``.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.runner import FAST, ExperimentConfig
from repro.experiments import figures


def main() -> None:
    experiment = FAST if "--fast" in sys.argv else ExperimentConfig(
        draw_scale=0.3, num_frames=3
    )
    t0 = time.time()

    fig4 = figures.fig04_bandwidth_sensitivity(experiment)
    print("fig4  (paper 1/.95/.78/.58/.35):",
          " ".join(f"{fig4.average(c):.2f}" for c in fig4.series))

    fig7 = figures.fig07_afr(experiment)
    print(f"fig7  overall (paper 1.67): {fig7.average('overall perf'):.2f}  "
          f"latency (paper 1.59): {fig7.average('frame latency'):.2f}")

    fig8 = figures.fig08_sfr_performance(experiment)
    print("fig8  (paper 1.28/1.03/1.60):",
          " ".join(f"{fig8.average(c):.2f}" for c in fig8.series))

    fig9 = figures.fig09_sfr_traffic(experiment)
    print("fig9  (paper 1.50/1.44/0.60):",
          " ".join(f"{fig9.average(c):.2f}" for c in fig9.series))

    fig10 = figures.fig10_load_balance(experiment)
    print(f"fig10 balance (paper ~1.4, max 2.2): "
          f"{fig10.average('best-to-worst'):.2f}")

    fig15 = figures.fig15_oovr_speedup(experiment)
    print("fig15 (paper obj 1.60 / frame 0.63 / 1tb 1.55 / app 1.99 / oovr ~3):",
          " ".join(f"{fig15.average(c):.2f}" for c in fig15.series))

    fig16 = figures.fig16_oovr_traffic(experiment)
    print("fig16 (paper 1/0.60/0.24):",
          " ".join(f"{fig16.average(c):.2f}" for c in fig16.series))

    print(f"[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
