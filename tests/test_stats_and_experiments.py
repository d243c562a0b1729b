"""Stats, reporting, the experiment runner, figures and tables."""

import pytest

from repro import extensions
from repro.experiments import engines, figures, tables
from repro.experiments import extensions as studies
from repro.experiments.runner import (
    ExperimentConfig,
    run_framework_suite,
    scene_for,
    single_frame_speedups,
    throughput_speedups,
    traffic_ratios,
    with_average,
)
from repro.memory.link import TrafficType
from repro.stats.metrics import (
    FrameResult,
    SceneResult,
    TrafficBreakdown,
    geomean,
    normalize,
)
from repro.stats.reporting import format_table, series_table

#: Two tiny workloads keep the experiment tests quick.
TINY = ExperimentConfig(
    draw_scale=0.08, num_frames=2, workloads=("DM3-640", "WE")
)


def frame(cycles=1000.0, busy=(250.0, 250.0, 250.0, 250.0), comp=0.0, tex=100.0):
    return FrameResult(
        framework="f",
        workload="w",
        cycles=cycles,
        gpm_busy_cycles=list(busy),
        composition_cycles=comp,
        traffic=TrafficBreakdown({TrafficType.TEXTURE: tex}),
        dram_bytes=[0.0] * 4,
    )


class TestMetrics:
    def test_load_balance_ratio(self):
        f = frame(busy=(100.0, 200.0, 150.0, 50.0))
        assert f.load_balance_ratio == pytest.approx(4.0)

    def test_load_balance_ignores_idle_gpms(self):
        f = frame(busy=(100.0, 0.0, 0.0, 0.0))
        assert f.load_balance_ratio == 1.0

    def test_latency_ms(self):
        assert frame(cycles=2e6).latency_ms() == pytest.approx(2.0)

    def test_traffic_merge(self):
        a = TrafficBreakdown({TrafficType.TEXTURE: 10.0})
        b = TrafficBreakdown(
            {TrafficType.TEXTURE: 5.0, TrafficType.COMMAND: 2.0}
        )
        merged = a.merged_with(b)
        assert merged.bytes_of(TrafficType.TEXTURE) == 15.0
        assert merged.total_bytes == 17.0

    def test_scene_steady_frames(self):
        scene = SceneResult(
            framework="f", workload="w",
            frames=[frame(cycles=5000.0), frame(cycles=1000.0),
                    frame(cycles=1200.0)],
            frame_interval_cycles=1100.0,
        )
        assert scene.single_frame_cycles == pytest.approx(1100.0)

    def test_scene_single_frame_fallback(self):
        scene = SceneResult(
            framework="f", workload="w",
            frames=[frame(cycles=5000.0)],
            frame_interval_cycles=5000.0,
        )
        assert scene.single_frame_cycles == 5000.0

    def test_throughput_fps(self):
        scene = SceneResult(
            framework="f", workload="w", frames=[frame()],
            frame_interval_cycles=1e7,
        )
        assert scene.throughput_fps == pytest.approx(100.0)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([0.0])

    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "z")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("x", 1.0), ("long-name", 2.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "2.500" in text

    def test_format_table_title(self):
        text = format_table(("a",), [("b",)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_series_table_missing_cells(self):
        text = series_table(
            {"col": {"row1": 1.0}}, ["row1", "row2"], row_header="wl"
        )
        assert "-" in text


class TestRunner:
    def test_scene_caching(self):
        a = scene_for("DM3-640", TINY)
        b = scene_for("DM3-640", TINY)
        assert a is b

    def test_run_framework_suite_keys(self):
        results = run_framework_suite("oo-vr", TINY)
        assert set(results) == set(TINY.workloads)

    def test_speedup_helpers(self):
        base = run_framework_suite("baseline", TINY)
        fast = run_framework_suite("oo-vr", TINY)
        speedups = single_frame_speedups(fast, base)
        assert all(v > 1.0 for v in speedups.values())
        ratios = traffic_ratios(fast, base)
        assert all(v < 1.0 for v in ratios.values())
        throughput = throughput_speedups(fast, base)
        assert all(v > 0 for v in throughput.values())

    def test_with_average_appends_geomean(self):
        out = with_average({"a": 1.0, "b": 4.0})
        assert out["Avg."] == pytest.approx(2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(draw_scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(num_frames=0)


class TestFigures:
    def test_fig4_monotone_in_bandwidth(self):
        result = figures.fig04_bandwidth_sensitivity(TINY)
        avgs = [result.average(c) for c in result.series]
        assert avgs == sorted(avgs, reverse=True)
        assert avgs[0] == pytest.approx(1.0)

    def test_fig7_structure(self):
        result = figures.fig07_afr(TINY)
        assert result.average("overall perf") > 1.0
        assert result.average("frame latency") > 1.0

    def test_fig10_ratios_at_least_one(self):
        result = figures.fig10_load_balance(TINY)
        for value in result.series["best-to-worst"].values():
            assert value >= 1.0

    def test_fig15_oovr_wins(self):
        result = figures.fig15_oovr_speedup(TINY)
        assert result.average("OOVR") > result.average("OO_APP")
        assert result.average("OO_APP") > 1.0

    def test_fig16_oovr_lowest(self):
        result = figures.fig16_oovr_traffic(TINY)
        assert result.average("OOVR") < result.average("Object-Level") < 1.0

    def test_smp_validation_gain(self):
        result = figures.smp_validation(TINY)
        assert result.average("SMP speedup") > 1.1

    def test_to_text_includes_reference(self):
        result = figures.fig16_oovr_traffic(TINY)
        text = result.to_text()
        assert "paper reference" in text
        assert "OOVR" in text

    def test_registry_complete(self):
        assert set(figures.FIGURES) == {
            "4", "7", "8", "9", "10", "15", "16", "17", "18", "smp"
        }


class TestTables:
    def test_table1_text(self):
        text = tables.table1_requirements()
        assert "Stereo HMD" in text
        assert "58.32x2" in text

    def test_table2_text(self):
        text = tables.table2_configuration()
        assert "64GB/s NVLink" in text
        assert "4MB total, 16-way" in text

    def test_table3_text(self):
        text = tables.table3_benchmarks(TINY)
        assert "Doom 3" in text
        assert "1697" in text

    def test_overhead_text(self):
        text = tables.overhead_analysis()
        assert "bits" in text


#: Every public function that runs a grid.  None says where: the caller
#: wraps it in ``sweep_defaults``.
GRID_FUNCTIONS = (
    *figures.FIGURES.values(),
    studies.oovr_ablation,
    studies.batching_sensitivity,
    studies.energy_report,
    engines.engine_contention_grid,
    engines.engine_contention_study,
    engines.engine_contention_phases,
    run_framework_suite,
    extensions.atw_study,
    extensions.foveation_study,
    extensions.local_bandwidth_sweep,
    extensions.migration_study,
    extensions.topology_sweep,
)


class TestNoRunKnobs:
    @pytest.mark.parametrize(
        "function", GRID_FUNCTIONS, ids=lambda function: function.__name__
    )
    @pytest.mark.parametrize(
        "knob", ("jobs", "cache", "executor", "on_result")
    )
    def test_run_knob_rejected(self, function, knob):
        with pytest.raises(TypeError, match=knob):
            function(**{knob: None})
