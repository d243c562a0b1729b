"""CLI surface and cross-module integration scenarios."""

import pytest

from repro import cli
from repro.config import baseline_system
from repro.core.middleware import OOMiddleware
from repro.core.programming_model import OOApplication
from repro.frameworks.base import build_framework
from repro.scene.benchmarks import make_benchmark_scene
from repro.scene.geometry import Viewport

MB = 1024 * 1024


class TestCLI:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "oo-vr" in out
        assert "HL2-1280" in out

    def test_table_1(self, capsys):
        assert cli.main(["table", "1"]) == 0
        assert "Stereo HMD" in capsys.readouterr().out

    def test_table_2(self, capsys):
        assert cli.main(["table", "2"]) == 0
        assert "NVLink" in capsys.readouterr().out

    def test_table_3_fast(self, capsys):
        assert cli.main(["table", "3", "--fast"]) == 0
        assert "Doom 3" in capsys.readouterr().out

    def test_unknown_table(self, capsys):
        assert cli.main(["table", "9"]) == 2

    def test_unknown_figure(self, capsys):
        assert cli.main(["fig", "99"]) == 2

    def test_overhead(self, capsys):
        assert cli.main(["overhead"]) == 0
        assert "mm^2" in capsys.readouterr().out

    def test_run_command(self, capsys):
        assert cli.main(["run", "oo-vr", "DM3-640", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "single frame" in out
        assert "traffic by type" in out

    def test_run_flag_aliases(self, capsys):
        assert (
            cli.main(
                ["run", "--framework", "oo-vr", "--workload", "DM3-640",
                 "--fast"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "single frame" in out

    def test_run_mixed_positional_and_alias(self, capsys):
        assert (
            cli.main(["run", "oo-vr", "--workload", "DM3-640", "--fast"])
            == 0
        )
        assert "single frame" in capsys.readouterr().out

    def test_run_conflicting_names_error(self, capsys):
        assert (
            cli.main(
                ["run", "oo-vr", "DM3-640", "--framework", "baseline",
                 "--fast"]
            )
            == 2
        )
        assert "too many framework/workload names" in capsys.readouterr().err

    def test_run_missing_names_error(self, capsys):
        assert cli.main(["run", "oo-vr", "--fast"]) == 2
        assert "needs a framework and a workload" in capsys.readouterr().err

    def test_sweep_negative_seed_is_a_usage_error(self, capsys):
        assert (
            cli.main(
                ["sweep", "--frameworks", "oo-vr", "--workloads", "WE",
                 "--fast", "--seed", "-1"]
            )
            == 2
        )
        assert capsys.readouterr().err == (
            "error: seed must be non-negative\n"
        )

    def test_scene_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scene", "info", "x"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'scene'" in capsys.readouterr().err

    def test_scene_store_env_is_ignored(self, capsys, tmp_path, monkeypatch):
        store_dir = tmp_path / "env-store"
        monkeypatch.setenv("OOVR_SCENE_STORE", str(store_dir))
        assert cli.main(["run", "oo-vr", "DM3-640", "--fast"]) == 0
        assert "single frame" in capsys.readouterr().out
        assert not store_dir.exists()

    def test_unknown_engine_is_a_one_line_error(self, capsys):
        # No traceback, exit 2, and the message lists what *would* work.
        assert cli.main(["run", "oo-vr", "DM3-640", "--engine", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: unknown execution engine 'bogus'; "
            "have ['analytic', 'event']"
        ]
        assert (
            cli.main(
                ["sweep", "--frameworks", "baseline", "--workloads", "WE",
                 "--fast", "--engine", "bogus"]
            )
            == 2
        )
        assert "unknown execution engine 'bogus'" in capsys.readouterr().err

    def test_event_engine_run_shows_all_lanes(self, capsys):
        assert (
            cli.main(["run", "oo-app", "HL2-640", "--fast", "--engine", "event"])
            == 0
        )
        out = capsys.readouterr().out
        assert "frame trace (last frame, event engine):" in out
        # Full-frame coverage: render, staging-stall and compose lanes
        # all appear in the legend of a scheme that has all three.
        assert "█ render" in out
        assert "▒ staging stall" in out
        assert "▣ compose" in out

    def test_trace_record_info_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "dm3.json.gz")
        assert cli.main(["trace", "record", "DM3-640", trace, "--fast"]) == 0
        assert "captured DM3-640" in capsys.readouterr().out

        assert cli.main(["trace", "info", trace]) == 0
        out = capsys.readouterr().out
        assert "DM3-640" in out
        assert "TSL>0.5 pairs" in out

        assert cli.main(["trace", "replay", trace, "object"]) == 0
        out = capsys.readouterr().out
        assert "replayed DM3-640 under object" in out

    def test_trace_record_plain_json(self, capsys, tmp_path):
        trace = str(tmp_path / "we.json")
        assert cli.main(["trace", "record", "WE", trace, "--fast"]) == 0
        assert (tmp_path / "we.json").exists()

    def test_energy_command(self, capsys):
        assert cli.main(["energy", "DM3-640", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "10 pJ/bit" in out
        assert "oo-vr" in out

    def test_energy_command_cross_node(self, capsys):
        assert cli.main(["energy", "DM3-640", "--fast", "--nodes"]) == 0
        assert "250 pJ/bit" in capsys.readouterr().out

    def test_render_command(self, capsys, tmp_path):
        assert cli.main(["render", str(tmp_path), "--size", "48"]) == 0
        assert (tmp_path / "stereo.ppm").exists()
        assert (tmp_path / "stereo.png").exists()

    def test_fig_chart_flag(self, capsys):
        assert cli.main(["fig", "16", "--fast", "--chart"]) == 0
        assert "█" in capsys.readouterr().out


class TestEndToEnd:
    def test_authored_app_through_oovr(self):
        """Author content with the OO API, render with every scheme."""
        app = OOApplication(640, 480)
        for index in range(12):
            x = 40.0 * index + 5
            (
                app.object(f"pillar{index}")
                .mesh(300, 500)
                .texture("stone" if index % 2 == 0 else "brick", MB)
                .appearance(depth_complexity=1.4, coverage=0.6)
                .auto_viewports(Viewport(x, 100, x + 35, 300))
                .add()
            )
        frame = app.frame()
        from repro.scene.scene import Scene

        scene = Scene(name="authored", frames=(frame,))
        cycles = {}
        for name in ("baseline", "object", "oo-vr"):
            cycles[name] = build_framework(name).render_scene(scene).frames[0].cycles
        assert cycles["oo-vr"] < cycles["baseline"]

    def test_middleware_batches_feed_engine(self):
        """Batches built by the middleware run through the full OO-VR path."""
        scene = make_benchmark_scene("UT3", num_frames=2, draw_scale=0.1)
        fw = build_framework("oo-vr")
        result = fw.render_scene(scene)
        records = fw.last_engine.records
        batches = OOMiddleware().build_batches(scene.frames[-1].objects)
        assert len(records) == len(batches)

    def test_all_workloads_run_oovr_quickly(self):
        for workload in ("DM3-640", "HL2-640", "NFS", "UT3", "WE"):
            scene = make_benchmark_scene(workload, num_frames=1, draw_scale=0.05)
            result = build_framework("oo-vr").render_scene(scene)
            assert result.single_frame_cycles > 0

    def test_different_resolutions_scale_work(self):
        low = make_benchmark_scene("DM3-640", num_frames=1, draw_scale=0.2)
        high = make_benchmark_scene("DM3-1600", num_frames=1, draw_scale=0.2)
        fw = build_framework("baseline")
        assert (
            fw.render_scene(high).single_frame_cycles
            > fw.render_scene(low).single_frame_cycles
        )

    def test_energy_accounting_available(self):
        scene = make_benchmark_scene("HL2-640", num_frames=1, draw_scale=0.1)
        fw = build_framework("baseline")
        system = fw.make_system()
        system.begin_frame()
        fw.render_frame_on(system, scene.frames[0], "HL2-640")
        energy = system.fabric.energy_picojoules(
            fw.config.link.picojoules_per_bit
        )
        assert energy > 0

    def test_vr_deadline_check_integrates(self):
        from repro.scene.vr import STEREO_VR

        scene = make_benchmark_scene("WE", num_frames=1, draw_scale=0.1)
        result = build_framework("oo-vr").render_scene(scene)
        # The check runs; tiny scaled scenes comfortably meet 5 ms.
        assert STEREO_VR.meets_deadline(result.single_frame_cycles)

    def test_two_gpm_system_end_to_end(self):
        scene = make_benchmark_scene("DM3-640", num_frames=2, draw_scale=0.15)
        cfg = baseline_system(num_gpms=2)
        for name in ("baseline", "object", "oo-app", "oo-vr"):
            result = build_framework(name, cfg).render_scene(scene)
            assert len(result.frames[0].gpm_busy_cycles) == 2
