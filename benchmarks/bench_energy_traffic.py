"""Extension: per-frame energy (Section 6.2's pJ/bit argument).

Two reports:

- the paper's original argument — inter-GPM *link* energy at the two
  integration points it quotes (10 pJ/bit on-board, 250 pJ/bit across
  nodes), where OO-VR's 76% traffic reduction is a direct saving;
- the full-system view from :mod:`repro.energy` — link + DRAM +
  compute + the 0.3 W distribution engine, showing the engine's static
  cost is negligible next to the link energy it removes.
"""

from benchmarks.conftest import BENCH, record_output
from repro.energy import (
    EnergyConstants,
    EnergyModel,
    IntegrationPoint,
    compare_frameworks,
)
from repro.experiments.extensions import energy_report
from repro.experiments.runner import run_framework_suite

SCHEMES = ("baseline", "object", "oo-vr")


def run_energy():
    link_figure = energy_report(BENCH)
    suites = {name: run_framework_suite(name, BENCH) for name in SCHEMES}
    board = compare_frameworks(
        suites, EnergyModel(EnergyConstants.for_integration(IntegrationPoint.ON_BOARD))
    )
    lines = [
        link_figure.to_text(),
        "",
        "full-system energy per frame (mJ, geomean, on-board integration):",
        f"{'scheme':<12}{'link':>9}{'dram':>9}{'compute':>9}{'engine':>9}{'total':>9}",
    ]
    for scheme in SCHEMES:
        row = board[scheme]
        lines.append(
            f"{scheme:<12}{row['link']:>9.2f}{row['dram']:>9.2f}"
            f"{row['compute']:>9.2f}{row['engine']:>9.4f}{row['total']:>9.2f}"
        )
    return "\n".join(lines), link_figure, board


def test_energy(bench_once):
    text, link_figure, board = bench_once(run_energy)
    record_output("energy", text)
    series = link_figure.series["10 pJ/bit (board)"]
    assert series["oo-vr"] < series["object"] < series["baseline"]
    # The distribution engine's static energy is far smaller than the
    # link energy OO-VR saves relative to the baseline.
    saved_link = board["baseline"]["link"] - board["oo-vr"]["link"]
    assert board["oo-vr"]["engine"] < saved_link
