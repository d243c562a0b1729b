"""Tests for the dispatch- and trace-timeline renderers."""

import pytest

from repro.core.distribution import DispatchRecord
from repro.core.oovr import OOVRFramework
from repro.engine.trace import KINDS, FrameTrace, TraceInterval, TraceSpans
from repro.frameworks.base import build_framework
from repro.scene.benchmarks import make_benchmark_scene
from repro.stats.timeline import dispatch_timeline, trace_timeline


def record(gpm, cycles, calibration=False, batch_id=0):
    return DispatchRecord(
        batch_id=batch_id,
        gpm=gpm,
        predicted_cycles=None if calibration else cycles,
        actual_cycles=cycles,
        prealloc_bytes=0.0,
        calibration=calibration,
    )


class TestDispatchTimeline:
    def test_one_row_per_gpm_plus_legend(self):
        text = dispatch_timeline([record(0, 100.0)], num_gpms=2)
        lines = text.splitlines()
        assert lines[0].startswith("GPM0")
        assert lines[1].startswith("GPM1")
        assert "calibration" in lines[2]

    def test_busiest_gpm_reads_full(self):
        text = dispatch_timeline(
            [record(0, 100.0), record(1, 50.0)], num_gpms=2, width=20
        )
        gpm0 = text.splitlines()[0]
        assert "100% busy" in gpm0
        assert gpm0.count("█") == 20

    def test_idle_gpm_shows_idle_cells(self):
        text = dispatch_timeline(
            [record(0, 100.0), record(1, 25.0)], num_gpms=2, width=20
        )
        gpm1 = text.splitlines()[1]
        assert "·" in gpm1
        assert " 25% busy" in gpm1

    def test_calibration_glyph_differs(self):
        text = dispatch_timeline(
            [record(0, 50.0, calibration=True), record(1, 50.0)],
            num_gpms=2,
            width=20,
        )
        lines = text.splitlines()
        assert "▒" in lines[0]
        assert "█" in lines[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            dispatch_timeline([], num_gpms=2)
        with pytest.raises(ValueError):
            dispatch_timeline([record(0, 1.0)], num_gpms=0)
        with pytest.raises(ValueError):
            dispatch_timeline([record(0, 1.0)], num_gpms=2, width=4)
        with pytest.raises(ValueError):
            dispatch_timeline([record(5, 1.0)], num_gpms=2)

    def test_renders_real_engine_records(self):
        scene = make_benchmark_scene("HL2-640", num_frames=1, draw_scale=0.1)
        framework = OOVRFramework()
        framework.render_scene(scene)
        text = dispatch_timeline(
            framework.last_engine.records, framework.config.num_gpms
        )
        assert text.count("GPM") == framework.config.num_gpms
        # Calibration batches (the first 8) must be visible.
        assert "▒" in text

    def test_width_clamps_every_row(self):
        # A batch far longer than the scale must not overrun the frame,
        # and a sliver batch still paints at least one cell.
        text = dispatch_timeline(
            [record(0, 1e9), record(1, 1.0)], num_gpms=2, width=12
        )
        for line in text.splitlines()[:2]:
            assert len(line.split("|")[1]) == 12
        assert text.splitlines()[1].count("█") == 1

    def test_minimum_width_accepted(self):
        text = dispatch_timeline([record(0, 10.0)], num_gpms=1, width=10)
        assert len(text.splitlines()[0].split("|")[1]) == 10

    def test_negative_gpm_rejected(self):
        with pytest.raises(ValueError):
            dispatch_timeline([record(-1, 1.0)], num_gpms=2)


def interval(gpm, start, end, kind="render", label="u"):
    return TraceInterval(gpm=gpm, label=label, start=start, end=end, kind=kind)


def make_trace(intervals, num_gpms=2, engine="event"):
    busy = [0.0] * num_gpms
    end = [0.0] * num_gpms
    for span in intervals:
        busy[span.gpm] += span.cycles
        end[span.gpm] = max(end[span.gpm], span.end)
    return FrameTrace(
        engine=engine,
        num_gpms=num_gpms,
        spans=TraceSpans(
            [span.gpm for span in intervals],
            [span.label for span in intervals],
            [span.start for span in intervals],
            [span.end for span in intervals],
            [KINDS.index(span.kind) for span in intervals],
        ),
        gpm_busy=tuple(busy),
        gpm_end=tuple(end),
    )


class TestTraceSpans:
    def test_intervals_are_the_spans_in_log_order(self):
        spans = [interval(1, 5.0, 9.0, "stall", "b"), interval(0, 0.0, 5.0)]
        trace = make_trace(spans)
        assert trace.intervals == tuple(spans)
        assert trace.intervals_for(0) == [spans[1]]

    def test_a_span_ending_before_it_starts_is_rejected(self):
        spans = TraceSpans(
            [0, 1], ["a", "late"], [0.0, 9.0], [5.0, 5.0], [0, 0]
        )
        with pytest.raises(ValueError, match="ends before it starts"):
            FrameTrace(
                engine="event", num_gpms=2, spans=spans,
                gpm_busy=(5.0, 0.0), gpm_end=(5.0, 0.0),
            )


class TestTraceTimeline:
    def test_one_row_per_gpm_plus_legend(self):
        text = trace_timeline(make_trace([interval(0, 0.0, 100.0)]))
        lines = text.splitlines()
        assert lines[0].startswith("GPM0")
        assert lines[1].startswith("GPM1")
        assert "render" in lines[2] and "event engine" in lines[2]

    def test_idle_gap_shows_in_place(self):
        # Unlike dispatch_timeline, a late interval leaves a leading gap.
        text = trace_timeline(
            make_trace([interval(0, 50.0, 100.0), interval(1, 0.0, 100.0)]),
            width=20,
        )
        gpm0 = text.splitlines()[0].split("|")[1]
        assert gpm0.startswith("·")
        assert "50% busy" in text.splitlines()[0]

    def test_kind_glyphs(self):
        text = trace_timeline(
            make_trace(
                [
                    interval(0, 0.0, 40.0, kind="render"),
                    interval(0, 40.0, 80.0, kind="stall"),
                    interval(1, 0.0, 80.0, kind="steal"),
                ]
            ),
            width=20,
        )
        lines = text.splitlines()
        assert "█" in lines[0] and "▒" in lines[0]
        assert "◆" in lines[1]

    def test_width_clamping(self):
        text = trace_timeline(
            make_trace([interval(0, 0.0, 1e9), interval(1, 0.0, 1.0)]),
            width=15,
        )
        for line in text.splitlines()[:2]:
            assert len(line.split("|")[1]) == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_timeline(make_trace([interval(0, 0.0, 1.0)]), width=4)
        with pytest.raises(ValueError):
            trace_timeline(make_trace([]))

    def test_renders_real_event_trace(self):
        scene = make_benchmark_scene("HL2-640", num_frames=1, draw_scale=0.1)
        framework = build_framework("oo-vr", engine="event")
        framework.render_scene(scene)
        trace = framework.last_system.last_trace
        text = trace_timeline(trace)
        assert text.count("GPM") == framework.config.num_gpms
        assert "% busy" in text
