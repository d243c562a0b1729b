"""Micro-benchmarks of the simulator itself (not a paper figure).

Tracks the cost of the hot paths — draw characterisation, NUMA-resolved
unit execution, and a full OO-VR frame — so performance regressions in
the simulator are visible in CI, plus the dispatch overhead of each
sweep-executor backend (``BENCH_service_throughput.json``).
"""

import json
import threading
import time
from pathlib import Path

from benchmarks.conftest import BENCH, OUTPUT_DIR
from repro.frameworks.base import build_framework
from repro.experiments.runner import scene_for
from repro.gpu.system import MultiGPUSystem
from repro.pipeline.smp import SMPMode
from repro.service import RemoteExecutor, SweepWorker, serve
from repro.session import FAST, ResultCache, RunSpec, Sweep

GOLDEN_BASELINE = (
    Path(__file__).parent / "golden" / "cell_throughput_baseline.json"
)


def test_characterize_draw(benchmark):
    scene = scene_for("HL2-1280", BENCH)
    fw = build_framework("baseline")
    draw = scene.frames[0].objects[0].multiview_draw()
    benchmark(fw.characterizer.characterize, draw, SMPMode.SIMULTANEOUS)


def test_execute_unit(benchmark):
    scene = scene_for("HL2-1280", BENCH)
    fw = build_framework("baseline")
    unit = fw.characterizer.characterize(
        scene.frames[0].objects[0].multiview_draw()
    )
    system = MultiGPUSystem(fw.config)
    system.begin_frame()

    def run():
        system.execute_unit(unit, 0, fb_targets={0: 1.0})

    benchmark(run)


def test_oovr_full_frame(benchmark):
    scene = scene_for("HL2-1280", BENCH)
    fw = build_framework("oo-vr")

    def run():
        return fw.render_frame(scene.frames[0], "HL2-1280")

    benchmark.pedantic(run, rounds=3, iterations=1)


def _best_seconds(fn, repeats=3, warm=True):
    """Best-of-N wall time of ``fn()``, after one warm-up call unless
    the caller has already warmed it."""
    if warm:
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _reference_loop_ab(spec, reference_repeats=2):
    """Same-host A/B of the window loop against the retained reference
    loop on one event cell, under the same reuse state, so the ratio
    isolates the loop itself.  Both loops' results are asserted equal
    before either side is timed (the asserting runs warm the cell)."""
    from repro.engine.event import EventEngine

    expected = spec.execute().to_dict()
    EventEngine.use_reference_loop = True
    try:
        assert spec.execute().to_dict() == expected
        reference_s = _best_seconds(
            spec.execute, repeats=reference_repeats, warm=False
        )
    finally:
        EventEngine.use_reference_loop = False
    seconds = _best_seconds(spec.execute, repeats=2)
    return seconds, {
        "reference_loop_seconds": round(reference_s, 4),
        "incremental_loop_speedup": round(reference_s / seconds, 2),
    }


def test_cell_throughput():
    """Event-vs-analytic cells/sec, plus the batched-kernel trajectory.

    Three matrices, all emitted as
    ``benchmarks/output/BENCH_cell_throughput.json``:

    - ``engines`` — whole-cell rates (``RunSpec.execute()`` of the
      oo-vr HL2-1280 FULL cell) under the analytic and event engines,
      each with its speedup over the PR 7 seed pinned in
      ``benchmarks/golden/cell_throughput_baseline.json``.  The event
      entry carries the window-loop trajectory: a same-host A/B of the
      incremental loop against the retained scalar reference loop on
      that cell and on the baseline HL2-1280 FULL cell
      (``baseline_cell``, where the loop's cost is), both cells'
      results asserted equal under the two loops before timing, and
      the loop's own counters (windows per frame, mean live rows per
      window, per-window wall cost) captured via the profiling layer;
    - ``hot_path_kernels`` — the per-cell hot-path kernels measured
      batched *and* through the retained scalar reference on the same
      machine, so the speedup column is an honest same-host A/B rather
      than a cross-machine ratio.  Kernels are measured with the reuse
      cache *disabled* — a memo hit would time dictionary lookups, not
      the kernels.  The raster front end (a fully-scissored
      5120-triangle draw, where batching rejects every face without
      entering Python) is the headline: it must clear 10x over the
      per-triangle reference walk;
    - ``scene_build`` — the vectorized scene generator against the
      retained scalar reference (both sides emit frames *and* batches,
      equality asserted field-for-field before timing, gate >= 3x),
      plus a ``plan_store`` block timing the compiled-plan store on
      the fast cell — absent/cold/warm walls plus the profiled
      bind+price phase seconds, gated at a >= 2x phase speedup warm
      vs. absent (results asserted identical before timing);
    - ``shared_workload_sweep`` — a 4-cell serial sweep whose cells all
      share one workload, run with the reuse cache on and off.  The
      CSVs are asserted byte-identical before either side is timed,
      then the reuse side must clear 1.5x — both sides same-host, so
      the ratio is machine-independent.

    The batched paths are asserted equal to their references before
    being timed — a fast wrong kernel must fail here, not ship a
    flattering number.
    """
    from repro import profiling
    from repro.reuse import reuse_scope

    baseline = json.loads(GOLDEN_BASELINE.read_text())["kernels"]

    # -- whole cells: analytic vs event engine --------------------------
    engines = {}
    for engine in ("analytic", "event"):
        spec = RunSpec(
            framework="oo-vr", workload="HL2-1280", engine=engine
        )
        if engine == "event":
            seconds, loop_ab = _reference_loop_ab(spec)
        else:
            spec.execute()  # warm the memoised scene before timing
            seconds = _best_seconds(spec.execute, repeats=2)
        rate = 1.0 / seconds
        engines[engine] = {
            "seconds": round(seconds, 4),
            "cells_per_sec": round(rate, 3),
            "speedup_vs_baseline": round(
                rate / baseline[f"cell_per_sec_{engine}"], 3
            ),
        }
        if engine != "event":
            continue
        engines[engine].update(loop_ab)
        # The baseline cell beside it: its crowded windows (dozens of
        # live rows each) are where the window loop's cost is.  The
        # reference loop takes seconds per frame there, so it is timed
        # once.
        baseline_s, baseline_ab = _reference_loop_ab(
            RunSpec(framework="baseline", workload="HL2-1280", engine=engine),
            reference_repeats=1,
        )
        engines[engine]["baseline_cell"] = {
            "seconds": round(baseline_s, 4), **baseline_ab
        }
        # Window-loop counters, straight from the engine's profiling
        # instrumentation (the same numbers `oovr run --profile
        # --engine event` prints).
        profile = profiling.PhaseProfile()
        with profiling.capture(profile):
            spec.execute()
        windows = profile.counters["event_windows"]
        loop_s = profile.counters["event_loop_s"]
        engines[engine]["window_loop"] = {
            "windows": int(windows),
            "windows_per_frame": round(windows / spec.num_frames, 1),
            "mean_live_rows_per_window": round(
                profile.counters["event_live_rows"] / windows, 2
            ),
            "loop_wall_s": round(loop_s, 4),
            "mean_window_cost_us": round(loop_s / windows * 1e6, 2),
        }

    kernels = {}

    # -- middleware grouping (Fig. 12 loop, memoised share vectors) -----
    from repro.core.middleware import OOMiddleware

    frame = scene_for("HL2-1280", BENCH).frames[0]
    middleware = OOMiddleware()
    seconds = _best_seconds(
        lambda: middleware.build_batches(frame.objects)
    )
    rate = len(frame.objects) / seconds
    kernels["middleware_grouping"] = {
        "objects_per_sec": round(rate, 1),
        "speedup_vs_baseline": round(
            rate / baseline["middleware_grouping_objects_per_sec"], 2
        ),
    }

    # -- frame characterisation: SoA pass vs per-draw scalar loop -------
    # Reuse is scoped off: a memo hit would time a dictionary lookup,
    # not the Eq. 3 pricing pass under test.
    fw = build_framework("baseline")
    draws = frame.multiview_draws()
    with reuse_scope(False):
        batched_units = fw.characterizer.characterize_frame(frame)
        scalar_units = tuple(
            fw.characterizer.characterize(draw) for draw in draws
        )
        assert batched_units == scalar_units
        batched_s = _best_seconds(
            lambda: fw.characterizer.characterize_frame(frame)
        )
        scalar_s = _best_seconds(
            lambda: [fw.characterizer.characterize(d) for d in draws]
        )
    kernels["characterize"] = {
        "batched_draws_per_sec": round(len(draws) / batched_s, 1),
        "reference_draws_per_sec": round(len(draws) / scalar_s, 1),
        "speedup_vs_reference": round(scalar_s / batched_s, 2),
        "speedup_vs_baseline": round(
            (len(draws) / batched_s)
            / baseline["characterize_draws_per_sec"],
            2,
        ),
    }

    # -- raster front end: batched cull vs per-triangle walk ------------
    import numpy as np

    from repro.render.framebuffer import FrameBuffer
    from repro.render.math3d import look_at, perspective
    from repro.render.mesh3d import make_icosphere
    from repro.render.raster import Rasterizer

    mesh = make_icosphere(radius=1.0, subdivisions=4)
    view = look_at(
        np.asarray([3.0, 2.5, 4.0]), np.zeros(3), np.asarray([0.0, 1.0, 0.0])
    )
    mvp = perspective(60.0, 1.0, 0.1, 50.0) @ view
    # Scissored to a corner the sphere never covers: the batched front
    # end rejects all 5120 faces in a handful of array ops, while the
    # reference walks them one by one — the per-cell hot path at its
    # purest.
    fb = FrameBuffer(640, 640)
    raster = Rasterizer(fb, scissor=(0, 0, 2, 2))
    assert raster.draw_mesh(mesh, mvp) == raster.draw_mesh_reference(
        mesh, mvp
    )
    batched_s = _best_seconds(lambda: raster.draw_mesh(mesh, mvp))
    scalar_s = _best_seconds(
        lambda: raster.draw_mesh_reference(mesh, mvp)
    )
    kernels["raster_front_end"] = {
        "batched_tris_per_sec": round(mesh.num_triangles / batched_s, 1),
        "reference_tris_per_sec": round(mesh.num_triangles / scalar_s, 1),
        "speedup_vs_reference": round(scalar_s / batched_s, 2),
        "speedup_vs_baseline": round(
            (mesh.num_triangles / batched_s)
            / baseline["raster_front_end_tris_per_sec"],
            2,
        ),
    }

    # The tentpole target: >= 10x on the per-cell hot path, measured as
    # a same-machine batched-vs-reference A/B.
    assert kernels["raster_front_end"]["speedup_vs_reference"] >= 10.0

    # -- scene construction: batched generator vs scalar reference ------
    # Both sides produce a Frame *and* its ObjectBatch (the reference
    # pays `from_objects` flattening, the batched path emits the batch
    # natively), and equality is asserted field-for-field before either
    # side is timed — the vectorized generator must be bit-identical,
    # not merely fast.
    import shutil
    import tempfile
    from dataclasses import replace as dataclass_replace

    from repro.scene.benchmarks import parse_workload
    from repro.scene.synthetic import SyntheticSceneGenerator
    from repro.session.spec import cached_scene

    bench_spec, width, height = parse_workload("HL2-1280")
    scene_profile = dataclass_replace(
        bench_spec.profile,
        num_objects=bench_spec.num_draws,
        width=width,
        height=height,
        name="HL2-1280",
    )

    def build_reference():
        generator = SyntheticSceneGenerator(scene_profile, seed=2019)
        scene = generator.make_scene_reference(num_frames=3)
        for scene_frame in scene.frames:
            scene_frame.object_batch  # flattening is part of the cost
        return scene

    def build_batched():
        generator = SyntheticSceneGenerator(scene_profile, seed=2019)
        return generator.make_scene(num_frames=3)

    reference_scene = build_reference()
    batched_scene = build_batched()
    assert reference_scene.frames == batched_scene.frames
    for ref_frame, fast_frame in zip(
        reference_scene.frames, batched_scene.frames
    ):
        ref_batch = ref_frame.object_batch
        fast_batch = fast_frame.object_batch
        for column in (
            "object_ids", "num_vertices", "num_triangles", "vertex_bytes",
            "vertex_buffer_bytes", "depth_complexity", "shader_complexity",
            "coverage", "left_area", "right_area", "has_left", "has_right",
            "tex_offsets", "tex_ids", "tex_sizes",
        ):
            assert np.array_equal(
                getattr(ref_batch, column), getattr(fast_batch, column)
            ), column
    objects_built = sum(len(f.objects) for f in batched_scene.frames)
    reference_s = _best_seconds(build_reference)
    batched_s = _best_seconds(build_batched)
    scene_build = {
        "workload": "HL2-1280 FULL x 3 frames (batch included both sides)",
        "objects": objects_built,
        "batched_objects_per_sec": round(objects_built / batched_s, 1),
        "reference_objects_per_sec": round(objects_built / reference_s, 1),
        "speedup_vs_reference": round(reference_s / batched_s, 2),
    }
    # The tentpole gate: the vectorized generator clears 3x over the
    # retained scalar reference on the same host.
    assert scene_build["speedup_vs_reference"] >= 3.0

    # -- compiled-plan store: absent/cold/warm on the fast cell ---------
    # The fast oo-vr cell, its scene rebuilt on every call.  Results are
    # asserted identical across all three store states before anything
    # is timed; the gate is on *phase seconds* (bind + price with the
    # store warm must be at least 2x cheaper than with no store), which
    # scene building never enters, so it is a same-host A/B the whole-
    # cell walls merely contextualise.
    from repro.plan.store import PlanStore, plan_store_scope
    from repro.reuse import get_cache

    plan_root = tempfile.mkdtemp(prefix="oovr-plan-bench-")
    try:
        plan_store = PlanStore(plan_root)
        fast_spec = RunSpec(framework="oo-vr", workload="HL2-1280").with_preset(
            FAST
        )

        def plan_cell(active_plan):
            # Fresh frames each call: the per-process memo is anchored
            # on frame identity, so clearing the scene memo forces the
            # build path (and with it the store consult) to run.
            cached_scene.cache_clear()
            get_cache().clear()
            if active_plan is None:
                return fast_spec.execute()
            with plan_store_scope(active_plan):
                return fast_spec.execute()

        absent_result = plan_cell(None)
        start = time.perf_counter()
        cold_result = plan_cell(plan_store)
        plan_cold_s = time.perf_counter() - start
        warm_result = plan_cell(plan_store)
        assert cold_result.to_dict() == absent_result.to_dict()
        assert warm_result.to_dict() == absent_result.to_dict()
        plan_warm_s = _best_seconds(lambda: plan_cell(plan_store), repeats=2)
        plan_absent_s = _best_seconds(lambda: plan_cell(None), repeats=2)

        def bind_price_seconds(active_plan):
            profile = profiling.PhaseProfile()
            with profiling.capture(profile):
                plan_cell(active_plan)
            seconds = profile.seconds.get("bind", 0.0) + profile.seconds.get(
                "price", 0.0
            )
            return seconds, profile

        absent_phase_s, _ = bind_price_seconds(None)
        warm_phase_s, warm_profile = bind_price_seconds(plan_store)
        scene_build["plan_store"] = {
            "cell": "oo-vr HL2-1280 FAST preset, scene rebuilt per call",
            "cold_cell_seconds": round(plan_cold_s, 4),
            "warm_cell_seconds": round(plan_warm_s, 4),
            "no_store_cell_seconds": round(plan_absent_s, 4),
            "warm_speedup_vs_no_store": round(plan_absent_s / plan_warm_s, 2),
            "no_store_bind_price_seconds": round(absent_phase_s, 4),
            "warm_bind_price_seconds": round(warm_phase_s, 4),
            "warm_bind_price_speedup": round(absent_phase_s / warm_phase_s, 2),
            "warm_bind_price_fraction": round(
                warm_phase_s / warm_profile.total_seconds, 4
            ),
            "warm_plan_hits": int(
                warm_profile.counters.get("plan_store_hit", 0)
            ),
            "byte_identical": True,
        }
        # The gate: a warm plan store halves (at least) the combined
        # bind+price phase cost of the fast cell.
        assert scene_build["plan_store"]["warm_bind_price_speedup"] >= 2.0
        assert scene_build["plan_store"]["warm_plan_hits"] > 0
    finally:
        shutil.rmtree(plan_root, ignore_errors=True)

    # -- shared-workload sweep: reuse cache on vs off -------------------
    # Four cells over one workload — the ablation-grid shape the reuse
    # layer exists for (cells differ only in framework/variant, so
    # scene batches and frame characterisation are shared).  Equality
    # is asserted before either side is timed, and both sides run on
    # this host, so the 1.5x floor is a machine-independent A/B.
    # (Frameworks whose cost is per-unit NUMA binding — baseline's
    # 7.7k single-object units above all — reuse little by design;
    # this grid measures the characterisation-bound family.)
    def shared_grid():
        return (
            Sweep()
            .full()
            .frameworks("oo-app", "oo-vr", "oo-vr:no-dhc", "afr")
            .workloads("HL2-1280")
        )

    csv_with_reuse = shared_grid().run().to_csv()
    csv_without = shared_grid().run(reuse=False).to_csv()
    assert csv_with_reuse == csv_without
    reuse_s = _best_seconds(lambda: shared_grid().run(), repeats=2)
    no_reuse_s = _best_seconds(
        lambda: shared_grid().run(reuse=False), repeats=2
    )
    shared_sweep = {
        "grid": "oo-app/oo-vr/oo-vr:no-dhc/afr x HL2-1280, FULL preset, serial",
        "cells": 4,
        "byte_identical": True,
        "reuse_seconds": round(reuse_s, 4),
        "no_reuse_seconds": round(no_reuse_s, 4),
        "reuse_speedup": round(no_reuse_s / reuse_s, 2),
    }
    assert shared_sweep["reuse_speedup"] >= 1.5

    document = {
        "bench": "cell_throughput",
        "cell": "oo-vr HL2-1280 FULL preset RunSpec.execute()",
        "baseline": GOLDEN_BASELINE.name,
        "engines": engines,
        "hot_path_kernels": kernels,
        "scene_build": scene_build,
        "shared_workload_sweep": shared_sweep,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_cell_throughput.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(json.dumps(document, indent=2))


def test_service_throughput(tmp_path):
    """Cells/sec of one fast grid through each executor backend.

    Serial is the floor, the process pool adds spawn cost, and the
    remote loopback (daemon + two worker threads on this host) adds
    the full submit/lease/upload/poll round trip — the number that
    says what the sweep service costs *beyond* the simulator.  Every
    backend must still export byte-identical records.  Emits
    ``benchmarks/output/BENCH_service_throughput.json``.
    """

    def grid() -> Sweep:
        return (
            Sweep()
            .preset(FAST)
            .frameworks("baseline", "oo-vr")
            .workloads("DM3-640", "HL2-640", "WE")
        )

    cells = len(grid().specs())

    def timed(executor, **kwargs):
        start = time.perf_counter()
        results = grid().run(executor=executor, **kwargs)
        return results.to_csv(), time.perf_counter() - start

    backends = {}
    reference, seconds = timed("serial")
    backends["serial"] = {"seconds": seconds}

    csv, seconds = timed("process", jobs=2)
    assert csv == reference
    backends["process"] = {"seconds": seconds, "jobs": 2}

    server = serve(cache=ResultCache(tmp_path / "server-cache"))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    stop = threading.Event()
    workers = [
        SweepWorker(server.url, name=f"w{index}", poll_interval=0.02)
        for index in range(2)
    ]
    threads = [
        threading.Thread(
            target=worker.run_forever,
            kwargs={"should_stop": stop.is_set},
            daemon=True,
        )
        for worker in workers
    ]
    for thread in threads:
        thread.start()
    try:
        csv, seconds = timed(
            RemoteExecutor(server.url, poll_interval=0.02)
        )
        assert csv == reference
        backends["remote-loopback"] = {"seconds": seconds, "workers": 2}
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        server.shutdown()
        server.server_close()

    for row in backends.values():
        row["cells_per_sec"] = round(cells / row["seconds"], 3)
        row["seconds"] = round(row["seconds"], 3)
    document = {
        "bench": "service_throughput",
        "grid_cells": cells,
        "preset": {
            "draw_scale": FAST.draw_scale,
            "num_frames": FAST.num_frames,
        },
        "byte_identical": True,
        "backends": backends,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_service_throughput.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(json.dumps(document, indent=2))
