"""Reproductions of the paper's tables and the Section 5.4 overheads."""

from __future__ import annotations

from typing import List, Tuple

from repro.config import SystemConfig, baseline_system
from repro.core.overhead import OverheadModel
from repro.experiments.runner import FULL, ExperimentConfig
from repro.scene.benchmarks import BENCHMARKS
from repro.scene.vr import requirements_table
from repro.session import Session
from repro.stats.reporting import format_table


def table1_requirements() -> str:
    """Table 1: PC gaming vs. stereo VR."""
    rows = requirements_table()
    return format_table(
        headers=("", "Gaming PC", "Stereo VR"),
        rows=rows,
        title="Table 1: differences between PC gaming and VR",
    )


def table2_configuration(config: SystemConfig | None = None) -> str:
    """Table 2: the baseline simulated configuration."""
    cfg = config or baseline_system()
    gpm = cfg.gpm
    rows: List[Tuple[str, str]] = [
        ("GPU frequency", f"{cfg.clock_hz / 1e9:.0f}GHz"),
        ("Number of GPMs", str(cfg.num_gpms)),
        (
            "Number of SMs",
            f"{cfg.total_sms}, {gpm.num_sms} per GPM",
        ),
        (
            "SM configuration",
            f"{gpm.sm.shader_cores} shader cores, "
            f"{gpm.sm.l1_bytes // 1024}KB unified L1, "
            f"{gpm.sm.texture_units} texture units",
        ),
        ("Raster engine", "16x16 tiled rasterization"),
        (
            "Number of ROPs",
            f"{cfg.total_rops}, {gpm.num_rops} per GPM "
            f"({gpm.rop_pixels_per_cycle} pixel/cycle each)",
        ),
        (
            "L2 cache",
            f"{cfg.total_l2_bytes // (1024 * 1024)}MB total, {gpm.l2_ways}-way",
        ),
        (
            "Inter-GPU interconnect",
            f"{cfg.link.bytes_per_cycle:.0f}GB/s NVLink uni-directional",
        ),
        (
            "Local DRAM bandwidth",
            f"{gpm.dram_bytes_per_cycle / 1000:.0f}TB/s",
        ),
    ]
    return format_table(
        headers=("parameter", "value"),
        rows=rows,
        title="Table 2: baseline configuration",
    )


def table3_benchmarks(experiment: ExperimentConfig = FULL) -> str:
    """Table 3: the benchmark suite, with measured scene statistics.

    The #Draw column reproduces the paper; the triangle/texture columns
    report what the synthetic generator actually produced, so the bench
    output doubles as a workload audit.
    """
    rows = []
    for abbr, spec in BENCHMARKS.items():
        scene = Session().preset(experiment).workload(abbr).scene()
        frame = scene.representative_frame
        resolutions = ", ".join(f"{w}x{h}" for w, h in spec.resolutions)
        rows.append(
            (
                abbr,
                spec.title,
                spec.library,
                resolutions,
                spec.num_draws,
                frame.total_triangles,
                f"{frame.texture_bytes / (1024 * 1024):.0f}MB",
                f"{frame.texture_sharing_ratio():.2f}x",
            )
        )
    return format_table(
        headers=(
            "abbr",
            "name",
            "library",
            "resolutions",
            "#draw",
            "triangles",
            "textures",
            "sharing",
        ),
        rows=rows,
        title="Table 3: benchmarks",
    )


def overhead_analysis(num_gpms: int = 4) -> str:
    """Section 5.4: distribution-engine storage/area/power."""
    model = OverheadModel(num_gpms=num_gpms)
    return model.report()
