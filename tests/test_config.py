"""Configuration: Table 2 defaults, validation, derived quantities."""

from dataclasses import replace

import pytest

from repro.config import (
    ConfigError,
    CostModel,
    GPMConfig,
    LinkConfig,
    SMConfig,
    baseline_system,
)

KB = 1024
MB = 1024 * KB


class TestTable2Defaults:
    def test_four_gpms(self):
        assert baseline_system().num_gpms == 4

    def test_thirty_two_sms_total(self):
        assert baseline_system().total_sms == 32

    def test_eight_sms_per_gpm(self):
        assert baseline_system().gpm.num_sms == 8

    def test_sixty_four_cores_per_sm(self):
        assert baseline_system().gpm.sm.shader_cores == 64

    def test_l1_is_128kb(self):
        assert baseline_system().gpm.sm.l1_bytes == 128 * KB

    def test_four_texture_units_per_sm(self):
        assert baseline_system().gpm.sm.texture_units == 4

    def test_thirty_two_rops_total(self):
        assert baseline_system().total_rops == 32

    def test_l2_is_4mb_total_16_way(self):
        cfg = baseline_system()
        assert cfg.total_l2_bytes == 4 * MB
        assert cfg.gpm.l2_ways == 16

    def test_link_is_64_gbps(self):
        assert baseline_system().link.bytes_per_cycle == 64.0

    def test_dram_is_1_tbps(self):
        assert baseline_system().gpm.dram_bytes_per_cycle == 1000.0

    def test_clock_is_1ghz(self):
        assert baseline_system().clock_hz == 1_000_000_000

    def test_rop_throughput_4_pixels_each(self):
        gpm = baseline_system().gpm
        assert gpm.rop_throughput == gpm.num_rops * 4


class TestDerived:
    def test_shader_cores_per_gpm(self):
        assert baseline_system().gpm.shader_cores == 512

    def test_texture_units_per_gpm(self):
        assert baseline_system().gpm.texture_units == 32

    def test_single_gpu_system(self):
        # Fig. 18's normalisation base.
        assert baseline_system(num_gpms=1).num_gpms == 1


class TestConstructors:
    def test_with_link_bandwidth(self):
        cfg = baseline_system().with_link_bandwidth(128.0)
        assert cfg.link.bytes_per_cycle == 128.0
        # Everything else untouched.
        assert cfg.num_gpms == 4
        assert cfg.gpm == baseline_system().gpm

    def test_with_num_gpms_scales_ports(self):
        cfg = baseline_system().with_num_gpms(8)
        assert cfg.num_gpms == 8
        assert cfg.link.ports_per_gpm >= 7
        cfg.validate()

    def test_with_num_gpms_keeps_per_gpm_resources(self):
        cfg = baseline_system().with_num_gpms(2)
        assert cfg.gpm.num_sms == 8

    def test_baseline_system_validates(self):
        baseline_system().validate()


class TestValidation:
    def test_zero_gpms_rejected(self):
        with pytest.raises(ConfigError):
            replace(baseline_system(), num_gpms=0).validate()

    def test_bad_l1_geometry_rejected(self):
        sm = replace(SMConfig(), l1_bytes=100)
        with pytest.raises(ConfigError):
            sm.validate()

    def test_negative_link_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            replace(LinkConfig(), bytes_per_cycle=-1.0).validate()

    def test_non_power_of_two_page_rejected(self):
        with pytest.raises(ConfigError):
            replace(baseline_system(), page_bytes=3000).validate()

    def test_insufficient_ports_rejected(self):
        cfg = replace(
            baseline_system(),
            num_gpms=8,
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_cull_survival_bounds(self):
        with pytest.raises(ConfigError):
            replace(CostModel(), cull_survival=0.0).validate()
        with pytest.raises(ConfigError):
            replace(CostModel(), cull_survival=1.5).validate()

    def test_negative_stage_factor_rejected(self):
        with pytest.raises(ConfigError):
            replace(CostModel(), tile_stage_factor=-1.0).validate()

    def test_driver_serial_fraction_bounds(self):
        with pytest.raises(ConfigError):
            replace(CostModel(), driver_serial_fraction=1.0).validate()

    def test_zero_pme_rejected(self):
        with pytest.raises(ConfigError):
            replace(GPMConfig(), num_pmes=0).validate()

    def test_cost_model_defaults_valid(self):
        CostModel().validate()

    def test_leak_bounds(self):
        with pytest.raises(ConfigError):
            replace(CostModel(), l1_texture_leak=0.0).validate()
