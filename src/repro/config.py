"""Hardware configuration for the simulated NUMA-based multi-GPU system.

The defaults reproduce Table 2 of the paper (baseline configuration):

====================================  =======================================
GPU frequency                         1 GHz
Number of GPMs                        4
Number of SMs                         32 total, 8 per GPM
SM configuration                      64 shader cores, 128 KB unified L1,
                                      4 texture units
Texture filtering                     16x anisotropic
Raster engine                         16x16 tiled rasterisation
Number of ROPs                        32 total, 8 per GPM
L2 cache                              4 MB total, 16-way
Inter-GPU interconnect                64 GB/s NVLink (uni-directional)
Local DRAM bandwidth                  1 TB/s
====================================  =======================================

All bandwidths are expressed internally in **bytes per cycle**.  At the
1 GHz baseline clock, ``N GB/s`` is numerically ``N`` bytes/cycle, which
keeps the arithmetic easy to audit against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Cycles per second at the baseline 1 GHz clock.
BASE_CLOCK_HZ = 1_000_000_000


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


@dataclass(frozen=True)
class SMConfig:
    """A single streaming multiprocessor (SM).

    Mirrors the per-SM row of Table 2: 64 shader cores, a 128 KB unified
    texture/L1 cache, and 4 texture units.
    """

    shader_cores: int = 64
    l1_bytes: int = 128 * KB
    l1_ways: int = 8
    l1_line_bytes: int = 128
    texture_units: int = 4

    def validate(self) -> None:
        if self.shader_cores <= 0:
            raise ConfigError("SM needs at least one shader core")
        if self.l1_bytes <= 0 or self.l1_line_bytes <= 0:
            raise ConfigError("L1 sizes must be positive")
        if self.l1_bytes % (self.l1_ways * self.l1_line_bytes) != 0:
            raise ConfigError(
                "L1 size must be divisible by ways*line "
                f"({self.l1_bytes} % {self.l1_ways * self.l1_line_bytes})"
            )
        if self.texture_units <= 0:
            raise ConfigError("SM needs at least one texture unit")


@dataclass(frozen=True)
class GPMConfig:
    """One GPU module (GPM) of the multi-chip package.

    Each GPM resembles a scaled-down Pascal-class GPU: ``num_sms`` SMs, a
    slice of the shared L2, its own DRAM stack, and ``num_rops`` render
    output units that each write ``rop_pixels_per_cycle`` pixels/cycle.
    """

    num_sms: int = 8
    sm: SMConfig = field(default_factory=SMConfig)
    num_rops: int = 8
    rop_pixels_per_cycle: int = 4
    l2_bytes: int = 1 * MB  # 4 MB total / 4 GPMs
    l2_ways: int = 16
    l2_line_bytes: int = 128
    dram_bytes_per_cycle: float = 1000.0  # 1 TB/s at 1 GHz
    #: Polymorph engines; each hosts one SMP unit (Fig. 2(c)).
    num_pmes: int = 2

    def validate(self) -> None:
        self.sm.validate()
        if self.num_sms <= 0:
            raise ConfigError("GPM needs at least one SM")
        if self.num_rops <= 0 or self.rop_pixels_per_cycle <= 0:
            raise ConfigError("ROP configuration must be positive")
        if self.l2_bytes <= 0:
            raise ConfigError("L2 size must be positive")
        if self.l2_bytes % (self.l2_ways * self.l2_line_bytes) != 0:
            raise ConfigError("L2 size must be divisible by ways*line")
        if self.dram_bytes_per_cycle <= 0:
            raise ConfigError("DRAM bandwidth must be positive")
        if self.num_pmes <= 0:
            raise ConfigError("GPM needs at least one PME")

    @property
    def shader_cores(self) -> int:
        """Total shader cores across the GPM's SMs."""
        return self.num_sms * self.sm.shader_cores

    @property
    def texture_units(self) -> int:
        """Total texture units across the GPM's SMs."""
        return self.num_sms * self.sm.texture_units

    @property
    def rop_throughput(self) -> int:
        """Pixels written per cycle with every ROP busy."""
        return self.num_rops * self.rop_pixels_per_cycle


@dataclass(frozen=True)
class LinkConfig:
    """Point-to-point inter-GPM interconnect (NVLink-style).

    The paper assumes 6 ports per GPM paired so that every GPM pair has a
    dedicated link: traffic between two GPMs never contends with a third.
    ``bytes_per_cycle`` is the *uni-directional* bandwidth of one link.
    """

    bytes_per_cycle: float = 64.0  # 64 GB/s at 1 GHz
    ports_per_gpm: int = 6
    latency_cycles: int = 120
    #: Energy per transferred bit, used in the traffic/energy report
    #: (the paper quotes 10 pJ/bit on-board integration).
    picojoules_per_bit: float = 10.0

    def validate(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.ports_per_gpm <= 0:
            raise ConfigError("link ports must be positive")
        if self.latency_cycles < 0:
            raise ConfigError("link latency cannot be negative")


@dataclass(frozen=True)
class CostModel:
    """Per-stage cycle and byte costs for the rendering pipeline.

    These are the knobs of the stage-throughput timing model.  They are
    calibrated once (see ``tests/test_calibration.py``) so that the
    single-GPM pipeline matches the throughput ratios the paper's
    baseline exhibits, and then **held fixed for every experiment**.
    """

    #: Average shader cycles to transform one vertex (vertex + geometry
    #: shaders), per shader core.
    vertex_shader_cycles: float = 96.0
    #: Triangles set up per cycle per PME (input assembly + attribute setup).
    triangles_per_cycle_per_pme: float = 0.5
    #: Fragments emitted per cycle by the raster engine.
    raster_fragments_per_cycle: float = 16.0
    #: Average shader cycles per fragment for a unit-complexity shader.
    fragment_shader_cycles: float = 48.0
    #: Texture samples issued per fragment (multi-texturing: diffuse +
    #: normal + lightmap amortised).
    samples_per_fragment: float = 2.0
    #: Memory-side texel reads per sample under 16x anisotropic
    #: filtering (taps averaged over surface anisotropy).  Affects
    #: memory demand; the TXUs pipeline the taps of one sample.
    anisotropic_texels_per_sample: float = 6.0
    #: Bytes fetched from memory per texel miss (compressed block amortised).
    bytes_per_texel: float = 4.0
    #: Fraction of raw texel demand that leaks past the per-SM texture
    #: L1s (1 - hit rate).  Calibrated; anisotropic taps and small
    #: ATTILA-era L1s keep this relatively high.
    l1_texture_leak: float = 0.50
    #: Bytes staged (copied into the strip GPM's memory segment) per
    #: unique texture byte under software tile-SFR: the distributed-
    #: memory heritage of those frameworks duplicates page-granular
    #: working sets per GPM (Section 2.3 / 4.2).  Strips re-copy shared
    #: borders, full mip chains, and both eye passes re-stage, so the
    #: factor is well above the object-level one.
    tile_stage_factor: float = 6.0
    #: Bytes staged per unique touched byte when a whole object's data
    #: is distributed with it (object-level SFR): page granularity and
    #: separate per-eye passes overfetch.
    object_stage_factor: float = 1.8
    #: Bytes staged per unique touched byte for a TSL batch: one copy
    #: serves every object of the batch and both eye views.
    batch_stage_factor: float = 0.65
    #: Effective copy parallelism while staging objects/batches
    #: (incoming links x overlap); stall = bytes / (link_bw x this).
    stage_parallelism: float = 14.0
    #: Tile-SFR staging parallelism: sort-first binning must finish
    #: before the strip rasterises, so the copy barely overlaps.
    tile_stage_parallelism: float = 4.5
    #: Post-L1 stream inflation when one draw's fragments interleave
    #: across GPMs (the naive baseline): tile-boundary texels are
    #: fetched by several GPMs' L1s and filtered mip footprints repeat.
    interleave_stream_inflation: float = 1.80
    #: Bytes of attributes per vertex fetched by the input assembler.
    bytes_per_vertex: float = 32.0
    #: Bytes written per output pixel (colour + coverage).
    bytes_per_pixel_out: float = 4.0
    #: Bytes of depth traffic per fragment tested (read+write amortised).
    bytes_per_ztest: float = 4.0
    #: Fraction of triangles surviving clipping/back-face culling.
    cull_survival: float = 0.55
    #: SMP projection cost per extra view, as a fraction of triangle setup.
    smp_projection_overhead: float = 0.15
    #: Fixed per-draw driver/command-processor cycles (state changes).
    draw_overhead_cycles: float = 600.0
    #: Per-draw command bytes broadcast to a rendering GPM.
    command_bytes_per_draw: float = 2048.0
    #: Unique-footprint inflation when a draw's fragments are
    #: interleaved across GPMs (the naive baseline): neighbouring tiles
    #: on different GPMs re-touch border texels, mip levels and repeated
    #: materials, so per-GPM unique bytes exceed an even split.
    interleave_unique_inflation: float = 1.8
    #: Unique-footprint inflation for tile-SFR strips: the software
    #: distribution stages each strip's working set into its GPM's
    #: memory segment, re-copying shared borders and mip chains.
    tile_unique_inflation: float = 2.4
    #: Draw-overhead multiplier inside a TSL batch: objects grouped by
    #: texture sharing need fewer state changes between draws.
    batch_draw_discount: float = 0.6
    #: Serial driver fraction per frame for AFR (command generation and
    #: app-side work that cannot overlap across frames in flight).
    driver_serial_fraction: float = 0.15

    def validate(self) -> None:
        positive = (
            ("vertex_shader_cycles", self.vertex_shader_cycles),
            ("triangles_per_cycle_per_pme", self.triangles_per_cycle_per_pme),
            ("raster_fragments_per_cycle", self.raster_fragments_per_cycle),
            ("fragment_shader_cycles", self.fragment_shader_cycles),
            ("samples_per_fragment", self.samples_per_fragment),
            ("anisotropic_texels_per_sample", self.anisotropic_texels_per_sample),
            ("bytes_per_texel", self.bytes_per_texel),
            ("bytes_per_vertex", self.bytes_per_vertex),
            ("bytes_per_pixel_out", self.bytes_per_pixel_out),
        )
        for name, value in positive:
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not 0.0 < self.l1_texture_leak <= 1.0:
            raise ConfigError("l1_texture_leak must be in (0, 1]")
        if self.interleave_unique_inflation < 1.0:
            raise ConfigError("interleave_unique_inflation is at least 1")
        if self.tile_stage_factor < 0.0:
            raise ConfigError("tile_stage_factor cannot be negative")
        if self.object_stage_factor < 0.0:
            raise ConfigError("object_stage_factor cannot be negative")
        if self.batch_stage_factor < 0.0:
            raise ConfigError("batch_stage_factor cannot be negative")
        if self.stage_parallelism <= 0.0:
            raise ConfigError("stage_parallelism must be positive")
        if self.tile_stage_parallelism <= 0.0:
            raise ConfigError("tile_stage_parallelism must be positive")
        if self.interleave_stream_inflation < 1.0:
            raise ConfigError("interleave_stream_inflation is at least 1")
        if self.tile_unique_inflation < 1.0:
            raise ConfigError("tile_unique_inflation is at least 1")
        if not 0.0 < self.batch_draw_discount <= 1.0:
            raise ConfigError("batch_draw_discount must be in (0, 1]")
        if not 0.0 <= self.driver_serial_fraction < 1.0:
            raise ConfigError("driver_serial_fraction must be in [0, 1)")
        if not 0.0 < self.cull_survival <= 1.0:
            raise ConfigError("cull_survival must be in (0, 1]")
        if self.smp_projection_overhead < 0:
            raise ConfigError("smp_projection_overhead cannot be negative")


@dataclass(frozen=True)
class SystemConfig:
    """The whole NUMA-based multi-GPU system (Table 2 defaults)."""

    num_gpms: int = 4
    gpm: GPMConfig = field(default_factory=GPMConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    cost: CostModel = field(default_factory=CostModel)
    clock_hz: int = BASE_CLOCK_HZ
    page_bytes: int = 64 * KB
    #: Remote cache (MCM-GPU style) capacity per GPM, carved from L2.
    remote_cache_bytes: int = 512 * KB
    #: Whether the MCM-GPU first-touch + remote-cache baseline is on.
    numa_optimizations: bool = True

    def validate(self) -> None:
        if self.num_gpms <= 0:
            raise ConfigError("system needs at least one GPM")
        self.gpm.validate()
        self.link.validate()
        self.cost.validate()
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigError("page size must be a positive power of two")
        if self.remote_cache_bytes < 0:
            raise ConfigError("remote cache size cannot be negative")
        max_pairs = self.num_gpms - 1
        if self.num_gpms > 1 and self.link.ports_per_gpm < max_pairs:
            raise ConfigError(
                f"{self.link.ports_per_gpm} ports cannot give each of "
                f"{max_pairs} peers a dedicated link"
            )

    # -- convenience constructors -------------------------------------

    def with_link_bandwidth(self, gb_per_s: float) -> "SystemConfig":
        """A copy of this config with a different inter-GPM bandwidth."""
        return replace(self, link=replace(self.link, bytes_per_cycle=float(gb_per_s)))

    def with_num_gpms(self, num_gpms: int) -> "SystemConfig":
        """A copy of this config scaled to ``num_gpms`` modules.

        Following the paper's scalability study (Fig. 18), per-GPM
        resources stay fixed while the module count changes; at 8 GPMs
        the port budget still provides pairwise links.
        """
        cfg = replace(self, num_gpms=num_gpms)
        if num_gpms > 1 and cfg.link.ports_per_gpm < num_gpms - 1:
            cfg = replace(cfg, link=replace(cfg.link, ports_per_gpm=num_gpms - 1))
        return cfg

    @property
    def total_sms(self) -> int:
        return self.num_gpms * self.gpm.num_sms

    @property
    def total_rops(self) -> int:
        return self.num_gpms * self.gpm.num_rops

    @property
    def total_l2_bytes(self) -> int:
        return self.num_gpms * self.gpm.l2_bytes


def baseline_system(num_gpms: int = 4) -> SystemConfig:
    """The paper's Table 2 baseline configuration.

    4 GPMs, 8 SMs per GPM (64 cores each), 8 ROPs per GPM, 1 MB L2 slice
    per GPM, 64 GB/s pairwise NVLinks and 1 TB/s local DRAM.
    """
    cfg = SystemConfig().with_num_gpms(num_gpms)
    cfg.validate()
    return cfg
