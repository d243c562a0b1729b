"""The OO-VR ablation points and the extension experiments."""

import pytest

from repro.core.ablation import ABLATION_VARIANTS
from repro.core.oovr import OOVRFramework
from repro.experiments.extensions import (
    batching_sensitivity,
    energy_report,
    oovr_ablation,
)
from repro.experiments.runner import ExperimentConfig
from repro.frameworks.base import build_framework
from repro.scene.benchmarks import make_benchmark_scene

TINY = ExperimentConfig(draw_scale=0.08, num_frames=2, workloads=("HL2-640",))


@pytest.fixture(scope="module")
def scene():
    return make_benchmark_scene("HL2-1280", num_frames=2, draw_scale=0.12)


def _ablated(key):
    return build_framework(f"oo-vr:{key}")


def _without_framework(result):
    """``result.to_dict()`` minus the framework names it carries."""
    data = result.to_dict()
    del data["framework"]
    for frame in data["frames"]:
        del frame["framework"]
    return data


class TestFeatures:
    def test_suite_has_six_variants(self):
        assert set(ABLATION_VARIANTS) == {
            "full", "no-prediction", "no-preallocation",
            "no-dhc", "no-stealing", "software-only",
        }

    @pytest.mark.parametrize("key", sorted(ABLATION_VARIANTS))
    def test_every_key_builds_oovr_with_its_features(self, key):
        framework = _ablated(key)
        assert type(framework) is OOVRFramework
        assert framework.features == ABLATION_VARIANTS[key]
        assert framework.name == f"oo-vr:{key}"


class TestAblatedRendering:
    def test_all_variants_run(self, scene):
        for key in ABLATION_VARIANTS:
            result = _ablated(key).render_scene(scene)
            assert result.single_frame_cycles > 0, key

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    def test_full_matches_oovr_semantics(self, scene, engine):
        full = build_framework("oo-vr:full", engine=engine).render_scene(scene)
        oovr = build_framework("oo-vr", engine=engine).render_scene(scene)
        assert _without_framework(full) == _without_framework(oovr)

    def test_no_dhc_slower_composition(self, scene):
        full = _ablated("full").render_scene(scene)
        no_dhc = _ablated("no-dhc").render_scene(scene)
        assert (
            no_dhc.frames[0].composition_cycles
            > full.frames[0].composition_cycles
        )

    def test_no_preallocation_not_faster(self, scene):
        full = _ablated("full").render_scene(scene)
        no_pa = _ablated("no-preallocation").render_scene(scene)
        assert no_pa.single_frame_cycles >= full.single_frame_cycles * 0.98

    def test_software_only_slowest(self, scene):
        cycles = {
            key: _ablated(key).render_scene(scene).single_frame_cycles
            for key in ABLATION_VARIANTS
        }
        assert cycles["software-only"] >= max(
            cycles["full"], cycles["no-prediction"], cycles["no-stealing"]
        ) * 0.99


class TestExtensionExperiments:
    def test_ablation_experiment_structure(self):
        result = oovr_ablation(TINY)
        assert "full" in result.series
        assert result.average("full") > 1.0

    def test_energy_ordering(self):
        result = energy_report(TINY)
        board = result.series["10 pJ/bit (board)"]
        assert board["oo-vr"] < board["baseline"]
        nodes = result.series["250 pJ/bit (nodes)"]
        assert nodes["baseline"] == pytest.approx(25 * board["baseline"])

    def test_batching_sensitivity_rows(self):
        result = batching_sensitivity(TINY, workload="HL2-640")
        series = result.series["speedup"]
        assert "tsl>0.5" in series
        assert "cap=4096" in series
        assert all(v > 0 for v in series.values())
