"""Tests for the energy model and reports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import (
    EnergyConstants,
    EnergyModel,
    IntegrationPoint,
    compare_frameworks,
    scene_energy,
)
from repro.experiments.runner import ExperimentConfig, run_framework_suite
from repro.memory.link import TrafficType
from repro.stats.metrics import FrameResult, TrafficBreakdown

TINY = ExperimentConfig(draw_scale=0.05, num_frames=2, workloads=("DM3-640",))


def make_frame(
    inter_bytes=1_000_000.0,
    dram=(2_000_000.0, 2_000_000.0),
    busy=(50_000.0, 50_000.0),
    cycles=120_000.0,
) -> FrameResult:
    return FrameResult(
        framework="test",
        workload="w",
        cycles=cycles,
        gpm_busy_cycles=list(busy),
        composition_cycles=0.0,
        traffic=TrafficBreakdown({TrafficType.TEXTURE: inter_bytes}),
        dram_bytes=list(dram),
    )


class TestEnergyModel:
    def test_link_energy_is_bits_times_pj(self):
        model = EnergyModel(EnergyConstants(link_pj_per_bit=10.0))
        energy = model.frame_energy(make_frame(inter_bytes=1e6))
        assert energy.link_joules == pytest.approx(1e6 * 8 * 10e-12)

    def test_dram_energy_sums_gpms(self):
        model = EnergyModel(EnergyConstants(dram_pj_per_byte=50.0))
        energy = model.frame_energy(make_frame(dram=(1e6, 3e6)))
        assert energy.dram_joules == pytest.approx(4e6 * 50e-12)

    def test_engine_energy_only_when_active(self):
        model = EnergyModel()
        off = model.frame_energy(make_frame(), engine_active=False)
        on = model.frame_energy(make_frame(cycles=1e9), engine_active=True)
        assert off.engine_joules == 0.0
        # 0.3 W for 1e9 cycles at 1 GHz = 1 second = 0.3 J.
        assert on.engine_joules == pytest.approx(0.3)

    def test_total_is_sum_of_components(self):
        energy = EnergyModel().frame_energy(make_frame(), engine_active=True)
        assert energy.total_joules == pytest.approx(
            energy.link_joules
            + energy.dram_joules
            + energy.compute_joules
            + energy.engine_joules
        )

    def test_integration_point_constants(self):
        assert IntegrationPoint.ON_BOARD.picojoules_per_bit == 10.0
        assert IntegrationPoint.CROSS_NODE.picojoules_per_bit == 250.0
        cross = EnergyConstants.for_integration(IntegrationPoint.CROSS_NODE)
        assert cross.link_pj_per_bit == 250.0

    def test_cross_node_is_25x_link_energy(self):
        frame = make_frame()
        board = EnergyModel(
            EnergyConstants.for_integration(IntegrationPoint.ON_BOARD)
        ).frame_energy(frame)
        nodes = EnergyModel(
            EnergyConstants.for_integration(IntegrationPoint.CROSS_NODE)
        ).frame_energy(frame)
        assert nodes.link_joules == pytest.approx(25.0 * board.link_joules)

    def test_constants_validated(self):
        with pytest.raises(ValueError):
            EnergyConstants(link_pj_per_bit=-1.0)
        with pytest.raises(ValueError):
            EnergyModel(clock_hz=0.0)

    @settings(max_examples=20, deadline=None)
    @given(nbytes=st.floats(0, 1e9), scale=st.floats(1.1, 10.0))
    def test_property_link_energy_monotone_in_traffic(self, nbytes, scale):
        model = EnergyModel()
        small = model.frame_energy(make_frame(inter_bytes=nbytes))
        large = model.frame_energy(make_frame(inter_bytes=nbytes * scale))
        assert large.link_joules >= small.link_joules


class TestSceneEnergy:
    def test_scene_energy_charges_engine_for_oovr_only(self):
        results_oovr = run_framework_suite("oo-vr", TINY)
        results_base = run_framework_suite("baseline", TINY)
        oovr = scene_energy(results_oovr["DM3-640"])
        base = scene_energy(results_base["DM3-640"])
        assert oovr.per_frame.engine_joules > 0.0
        assert base.per_frame.engine_joules == 0.0

    def test_oovr_spends_less_link_energy_than_baseline(self):
        oovr = scene_energy(run_framework_suite("oo-vr", TINY)["DM3-640"])
        base = scene_energy(run_framework_suite("baseline", TINY)["DM3-640"])
        assert oovr.per_frame.link_joules < base.per_frame.link_joules

    def test_compare_frameworks_shapes(self):
        suites = {
            name: run_framework_suite(name, TINY)
            for name in ("baseline", "oo-vr")
        }
        table = compare_frameworks(suites)
        assert set(table) == {"baseline", "oo-vr"}
        for row in table.values():
            assert {"link", "dram", "compute", "engine", "total"} <= set(row)
        assert table["oo-vr"]["link"] < table["baseline"]["link"]
