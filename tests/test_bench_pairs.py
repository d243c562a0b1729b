"""``scripts/bench_pairs.py``: the verdict rule on synthetic pairs.

Only the rule and the table are exercised; no benchmark process runs.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

#: Ten parent runs of a lower-is-better metric, q1-q3 = 1.0225-1.0675.
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_quartiles_interpolate_like_numpy_percentile():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((1.0225, 1.045, 1.0675))
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_clear_win_is_a_gain():
    change = [value - 0.2 for value in PARENT]
    summary = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert summary.wins == 10 and summary.pairs == 10
    assert summary.verdict == "gain"


def test_nine_wins_in_ten_suffice_but_eight_do_not():
    change = [value - 0.2 for value in PARENT]
    change[0] = 1.5
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25).verdict == "gain"
    change[1] = 1.5
    summary = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert summary.wins == 8
    assert summary.verdict == "held"


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # Wins every pair, but the medians lie 0.04 apart, inside q1-q3.
    change = [value - 0.04 for value in PARENT]
    summary = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert summary.wins == 10
    assert summary.verdict == "held"


def test_a_median_past_the_bound_is_worse():
    assert (
        bench_pairs.verdict(PARENT, [v * 1.3 for v in PARENT], "lower", 0.25)
        .verdict == "worse"
    )
    assert (
        bench_pairs.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.25)
        .verdict == "held"
    )


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.verdict(PARENT, noisy, "lower", 0.25).verdict == (
        "unresolved"
    )
    assert bench_pairs.verdict(noisy, PARENT, "lower", 0.25).verdict == (
        "unresolved"
    )


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0]
    better = [value / 10 for value in wide]
    summary = bench_pairs.verdict(wide, better, "lower", 0.25)
    assert summary.verdict == "gain"
    # One change run no better than the best parent run: unresolved.
    better[0] = 1.0
    assert bench_pairs.verdict(wide, better, "lower", 0.25).verdict == (
        "unresolved"
    )


def test_higher_is_better_metrics_count_the_other_way():
    up = [value + 0.2 for value in PARENT]
    assert bench_pairs.verdict(PARENT, up, "higher", 0.25).verdict == "gain"
    assert bench_pairs.verdict(up, PARENT, "higher", 0.25).verdict == "held"
    down = [value * 0.7 for value in PARENT]
    assert bench_pairs.verdict(PARENT, down, "higher", 0.25).verdict == "worse"


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:-1], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.verdict([], [], "lower", 0.25)
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT, "sideways", 0.25)


def test_table_reads_every_end_to_end_metric_from_the_raw_runs():
    def result(grid_s, rss):
        metrics = {"grid_s": grid_s, "setup_s": 0.1, "peak_rss_mb": rss,
                   "cells_per_s": 27 / grid_s}
        return {"correct": True, "failed": 0, "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()
        }}

    runs = [
        dict(pair=pair, side=side, revision=side,
             result=result(grid_s, 70.0))
        for pair in range(10)
        for side, grid_s in (("parent", PARENT[pair]),
                             ("change", PARENT[pair] - 0.2))
    ]
    lines = bench_pairs.table(json.loads(json.dumps(runs)), "grid-x")
    assert lines[0] == "grid-x: 10 pairs; correct on every run: True"
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[2:]}
    assert verdicts == {
        "grid_s": "gain", "setup_s": "held", "peak_rss_mb": "held",
        "cells_per_s": "gain",
    }


def test_both_sides_run_from_one_path(tmp_path, monkeypatch, capsys):
    """Each run finds its own side's tree at the same path, so a path
    string cannot tell the sides apart in peak RSS."""
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )

    def export(revision, directory):
        directory.mkdir(parents=True)
        (directory / "REVISION").write_text(revision, encoding="utf-8")

    seen = []

    def run_once(checkout, args):
        seen.append((checkout, (checkout / "REVISION").read_text()))
        metrics = {"grid_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0,
                   "cells_per_s": 27.0}
        return {"correct": True, "failed": 0, "metrics": {
            name: {"value": value, "unit": "x"}
            for name, value in metrics.items()
        }}

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: f"{rev:0<40}")
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(
        ["a", "b", "--workload", "grid-x", "--pairs", "3"]
    ) == 0
    assert len({checkout for checkout, _ in seen}) == 1
    # Alternating order, each run on its own side's tree.
    assert [revision[0] for _, revision in seen] == list("abbaab")
    assert "grid-x: 3 pairs" in capsys.readouterr().out
