"""Fig. 5 + Section 3 SMP validation — executed-pipeline edition.

The paper's Fig. 5 shows the actual left/right images its ATTILA SMP
engine produces, and Section 3 validates that engine by comparing
triangle and fragment counts (and reports SMP ≈ 27% faster than
rendering the two views sequentially).  This bench renders a real scene
with the software rasterizer, checks SMP is pixel-identical to
sequential stereo while halving vertex transforms, and reports the
simulated-cycle speedup of SMP over sequential rendering using the same
cost model the simulator prices draws with.
"""

import numpy as np

from repro.config import baseline_system
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.smp import SMPMode
from repro.pipeline.timing import price_work_unit
from repro.render import (
    Camera,
    StereoCamera,
    StereoRenderer,
    StereoRenderMode,
    validate_scene,
)
from repro.scene.scene import Frame

from benchmarks.conftest import record_output
from benchmarks.bench_scenes import build_temple_scene

EYE_W, EYE_H = 256, 256


def _smp_speedup_from_models(render_objects) -> float:
    """Price the measured frame both ways through the cost model: the
    stereo draw stream under sequential stereo against one multi-view
    draw per object under SMP."""
    config = baseline_system()
    characterizer = DrawCharacterizer(config)
    frame = Frame(objects=tuple(render_objects), width=EYE_W, height=EYE_H)

    def compute_cycles(mode: SMPMode, expansion: str) -> float:
        # A plain loop in draw order: builtin sum() compensates float
        # rounding on Python 3.12+, which would move the total.
        total = 0.0
        for unit in characterizer.characterize_frame(frame, mode, expansion):
            total += price_work_unit(unit, config.gpm, config.cost).compute_cycles
        return total

    sequential = compute_cycles(SMPMode.SEQUENTIAL, "stereo")
    smp = compute_cycles(SMPMode.SIMULTANEOUS, "multiview")
    return sequential / smp if smp else 1.0


def run_fig05() -> str:
    camera = StereoCamera(
        Camera(position=(0.0, 1.6, 4.2), target=(0.0, 1.0, 0.0), aspect=1.0),
        ipd=0.12,
    )
    objects = build_temple_scene()
    renderer = StereoRenderer(camera, EYE_W, EYE_H)

    fb_seq, seq = renderer.render(objects, StereoRenderMode.SEQUENTIAL)
    fb_smp, smp = renderer.render(objects, StereoRenderMode.SMP)
    identical = np.array_equal(fb_seq.color, fb_smp.color)

    report = validate_scene(objects, camera, EYE_W, EYE_H)
    speedup = _smp_speedup_from_models(report.render_objects)

    lines = [
        "Fig. 5 / Section 3 — SMP rendering validation (executed pipeline)",
        f"scene: {len(objects)} objects at {EYE_W}x{EYE_H} per eye",
        "",
        f"sequential: {seq.summary()}",
        f"smp:        {smp.summary()}",
        "",
        f"images pixel-identical: {identical}",
        f"vertex transforms: {seq.total.vertices_transformed} -> "
        f"{smp.total.vertices_transformed} "
        f"({100 * (1 - smp.total.vertices_transformed / seq.total.vertices_transformed):.0f}% saved)",
        f"fragments unchanged: {seq.total.fragments_shaded} == {smp.total.fragments_shaded}",
        "",
        f"cost-model SMP speedup over sequential stereo: {speedup:.2f}x",
        "paper reports: 27% speedup (1.27x) for its ATTILA SMP engine",
        "",
        "measured-vs-modelled workload statistics:",
        report.table(),
    ]
    return "\n".join(lines)


def test_fig05(bench_once):
    text = bench_once(run_fig05)
    record_output("fig05", text)
    assert "pixel-identical: True" in text
