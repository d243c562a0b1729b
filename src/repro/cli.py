"""Command-line interface: ``oovr``.

Every experiment command is a thin wrapper over the Session/Sweep API
(:mod:`repro.session`).  Examples::

    oovr fig 15                 # reproduce Figure 15 (full workloads)
    oovr fig 4 --fast --jobs 4  # quick pass, grid fanned over 4 processes
    oovr table 3                # print Table 3
    oovr overhead               # Section 5.4 overhead analysis
    oovr run oo-vr HL2-1280     # run one framework on one workload
    oovr run oo-vr HL2-1280 --json    # ... as a JSON document
    oovr sweep --frameworks oo-vr,afr --workloads HL2-1280,WE \\
        --fast --jobs 4 --csv out.csv # grid -> tidy CSV records
    oovr run oo-vr HL2-1280 --engine event  # contention-aware timing
    oovr sweep --fast --engine event  # whole grid on the event engine
    oovr sweep --fast --cache .oovr-cache  # memoise cells on disk
    oovr sweep --fast --progress      # one line per completed cell
    oovr sweep --fast --shard 0/2 --cache shard0  # this host's slice
    oovr cache merge merged shard0 shard1  # gather scattered shards
    oovr cache manifest merged   # audit shard coverage of a cache
    oovr cache info .oovr-cache  # entry count and footprint
    oovr cache info .oovr-cache --json  # ... machine-readable, with
                                        # per-grid manifest coverage
    oovr cache clear .oovr-cache # drop every cached result
    oovr serve --cache farm --port 8765   # sweep-service daemon
    oovr worker http://farmhost:8765 --jobs 4  # lease-executing agent
    oovr sweep --fast --server http://farmhost:8765  # remote executor
    oovr list                   # list frameworks and workloads
    oovr trace record WE we.json.gz   # capture a workload as a trace
    oovr trace info we.json.gz        # profile a captured trace
    oovr trace replay we.json.gz oo-vr  # render a trace with a framework
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Tuple

from repro.engine import ENGINE_NAMES
from repro.experiments import figures, tables
from repro.frameworks.base import build_framework, framework_names
from repro.scene.benchmarks import WORKLOADS
from repro.session import (
    EXECUTOR_NAMES,
    FAST,
    FULL,
    CacheMergeError,
    ExecutorError,
    ResultCache,
    Session,
    SessionError,
    SpecError,
    Sweep,
    spec_key,
    sweep_defaults,
)
from repro.service.client import ServiceError
from repro.trace import load_scene, profile_scene, save_scene


def _experiment(args: argparse.Namespace):
    return FAST if getattr(args, "fast", False) else FULL


def _progress_line(spec, result, cached) -> None:
    """One ``--progress`` line per completed cell (stderr, grid order)."""
    status = "hit " if cached else "miss"
    print(
        f"[{spec_key(spec)[:12]}] {status} {spec.framework} "
        f"{spec.workload} ({spec.config_label})",
        file=sys.stderr,
    )


def _on_result(args: argparse.Namespace):
    return _progress_line if getattr(args, "progress", False) else None


def _cmd_fig(args: argparse.Namespace) -> int:
    key = args.number
    if key not in figures.FIGURES:
        print(
            f"unknown figure {key!r}; have {sorted(figures.FIGURES)}",
            file=sys.stderr,
        )
        return 2
    if key == "smp" and (args.jobs != 1 or args.progress):
        raise SessionError(
            "fig smp renders below the framework layer, outside any "
            "sweep, so it takes neither --jobs nor --progress"
        )
    with sweep_defaults(jobs=args.jobs, on_result=_on_result(args)):
        result = figures.FIGURES[key](_experiment(args))
    print(result.to_text())
    if args.chart:
        print()
        print(result.to_chart())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    experiment = _experiment(args)
    if args.number == "1":
        print(tables.table1_requirements())
    elif args.number == "2":
        print(tables.table2_configuration())
    elif args.number == "3":
        print(tables.table3_benchmarks(experiment))
    else:
        print(f"unknown table {args.number!r}; have 1/2/3", file=sys.stderr)
        return 2
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    print(tables.overhead_analysis(num_gpms=args.gpms))
    return 0


def _resolve_run_names(args: argparse.Namespace) -> Tuple[str, str]:
    """The run's (framework, workload) from positionals and/or aliases.

    ``oovr run oo-vr HL2-1280``, ``oovr run --framework oo-vr
    --workload HL2-1280`` and mixed forms like ``oovr run oo-vr
    --workload HL2-1280`` all resolve; naming a slot both positionally
    and via its option is a conflict (exit 2), never a silent override.
    """
    positionals = list(args.names)
    given = (
        len(positionals)
        + (args.framework_opt is not None)
        + (args.workload_opt is not None)
    )
    if given > 2:
        raise SessionError(
            "too many framework/workload names: each slot may be "
            "given once, positionally or via --framework/--workload, "
            "not both"
        )
    framework = args.framework_opt
    workload = args.workload_opt
    if framework is None and positionals:
        framework = positionals.pop(0)
    if workload is None and positionals:
        workload = positionals.pop(0)
    if framework is None or workload is None:
        raise SessionError(
            "run needs a framework and a workload: "
            "`oovr run FRAMEWORK WORKLOAD` or "
            "`oovr run --framework NAME --workload NAME`"
        )
    return framework, workload


def _cmd_run(args: argparse.Namespace) -> int:
    framework, workload = _resolve_run_names(args)
    session = (
        Session()
        .framework(framework)
        .workload(workload)
        .preset(_experiment(args))
        .engine(args.engine)
    )
    result = session.run(profile=args.profile)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        if session.last_profile is not None:
            print(session.last_profile.table(), file=sys.stderr)
        return 0
    frame = result.frames[0]
    print(f"framework       : {result.framework}")
    print(f"workload        : {result.workload}")
    print(f"single frame    : {frame.cycles / 1e6:.3f} Mcycles "
          f"({frame.latency_ms():.3f} ms @1GHz)")
    print(f"frame interval  : {result.frame_interval_cycles / 1e6:.3f} Mcycles")
    print(f"throughput      : {result.throughput_fps:.1f} FPS @1GHz")
    print(f"inter-GPM bytes : {frame.inter_gpm_bytes / (1024 * 1024):.2f} MB/frame")
    print(f"load balance    : {frame.load_balance_ratio:.3f} (worst/best GPM)")
    print(f"composition     : {frame.composition_cycles / 1e3:.1f} Kcycles")
    print("traffic by type :")
    for traffic, nbytes in sorted(
        frame.traffic.by_type.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {traffic.value:<12} {nbytes / (1024 * 1024):8.2f} MB")
    system = getattr(session.last_framework, "last_system", None)
    trace = getattr(system, "last_trace", None)
    if trace is not None and trace.engine != "analytic" and trace.intervals:
        from repro.stats.timeline import trace_timeline

        print(f"frame trace (last frame, {trace.engine} engine):")
        print(trace_timeline(trace))
    engine = getattr(session.last_framework, "last_engine", None)
    if engine is not None and engine.records:
        from repro.stats.timeline import dispatch_timeline

        print("dispatch timeline (last frame):")
        print(
            dispatch_timeline(
                engine.records, session.last_framework.config.num_gpms
            )
        )
    if session.last_profile is not None:
        print(session.last_profile.table())
    return 0


def _csv_list(text: str) -> Sequence[str]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _grid(args: argparse.Namespace) -> Sweep:
    """The grid named by ``--frameworks``/``--workloads``/``--fast``/
    ``--frames``/``--seed``; bad input is a usage error (exit 2)."""
    sweep = Sweep().preset(_experiment(args))
    if args.frameworks is None:
        sweep.frameworks(*framework_names())
    else:
        names = _csv_list(args.frameworks)
        if not names:
            raise SessionError("--frameworks was given but names no frameworks")
        sweep.frameworks(*names)
    if args.workloads is not None:
        names = _csv_list(args.workloads)
        if not names:
            raise SessionError("--workloads was given but names no workloads")
        sweep.workloads(*names)
    if args.frames is not None:
        sweep.frames(args.frames)
    if args.seed is not None:
        sweep.seed(args.seed)
    return sweep


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = _grid(args).engine(args.engine)
    cache = ResultCache(args.cache) if args.cache else None
    if args.shard and not args.cache:
        print(
            "note: --shard without --cache computes this slice but "
            "persists nothing; pass --cache DIR to scatter across hosts",
            file=sys.stderr,
        )
    executor = args.executor
    if args.server:
        if executor not in (None, "remote"):
            raise ExecutorError(
                f"--server selects the remote executor; it cannot be "
                f"combined with --executor {executor}"
            )
        from repro.service import RemoteExecutor, ServiceError

        try:
            executor = RemoteExecutor(args.server)
        except ServiceError as error:
            # A URL that cannot even be parsed is a usage error (exit
            # 2), not a runtime service failure (exit 1).
            raise ExecutorError(str(error)) from None
    results = sweep.run(
        jobs=args.jobs,
        cache=cache,
        executor=executor,
        shard=args.shard,
        on_result=_on_result(args),
        profile=args.profile,
    )

    from repro.stats.reporting import format_table

    rows = [
        (
            record["framework"],
            record["workload"],
            record["config_label"],
            float(record["single_frame_cycles"]) / 1e6,
            float(record["throughput_fps"]),
            float(record["mean_inter_gpm_bytes_per_frame"]) / (1024 * 1024),
            float(record["mean_load_balance_ratio"]),
        )
        for record in results.to_records()
    ]
    title = f"sweep: {len(results)} runs ({args.jobs} jobs)"
    if args.shard:
        title += f", shard {args.shard}"
    print(
        format_table(
            ("framework", "workload", "config", "Mcycles",
             "FPS@1GHz", "MB/frame", "imbalance"),
            rows,
            title=title,
        )
    )
    if results.profiles is not None:
        for (spec, _), prof in zip(results, results.profiles):
            print(
                prof.table(
                    f"{spec.framework} {spec.workload} "
                    f"({spec.config_label})"
                )
            )
    if cache is not None:
        print(f"cache: {cache.stats.summary()} -> {args.cache}")
    if args.csv:
        results.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        results.to_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    if not os.path.isdir(args.dir):
        # Inspection/maintenance must not create the directory a typo
        # names (ResultCache.__init__ would mkdir it).
        print(f"error: no cache directory at {args.dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.dir)
    if args.cache_command == "info":
        if getattr(args, "json", False):
            # The same document the sweep service's GET /cache serves
            # (one code path: ResultCache.status), so scripts and the
            # daemon read identical numbers.
            print(json.dumps(cache.status(), indent=2))
            return 0
        info = cache.status()
        print(f"cache at {info['root']}:")
        print(f"  entries     : {info['entries']}")
        print(f"  total bytes : {info['total_bytes']}")
        for grid in info["grids"]:
            print(
                f"  grid {grid['grid'][:12]}: {grid['present']}/"
                f"{grid['cells']} cells present across {grid['shards']} "
                f"shard manifest(s)"
                + ("" if grid["complete"] else " [incomplete]")
            )
        return 0
    removed = cache.clear()
    print(f"cleared {removed} cached result(s) from {args.dir}")
    return 0


def _cmd_cache_merge(args: argparse.Namespace) -> int:
    import os

    for source in args.sources:
        if not os.path.isdir(source):
            print(f"error: no cache directory at {source}", file=sys.stderr)
            return 2
    destination = ResultCache(args.dst)
    for source in args.sources:
        try:
            stats = destination.merge(source, on_conflict=args.on_conflict)
        except CacheMergeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"merged {source} -> {args.dst}: {stats.summary()}")
    print(f"{args.dst}: {len(destination)} entr(y/ies) total")
    return 0


def _cmd_cache_manifest(args: argparse.Namespace) -> int:
    import os

    from repro.session.executor import ShardManifest, shard_manifest_paths

    if not os.path.isdir(args.dir):
        print(f"error: no cache directory at {args.dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.dir)
    present = set(cache.keys())
    print(f"cache at {args.dir}: {len(present)} entr(y/ies)")
    manifests = []
    complete = True
    for path in shard_manifest_paths(args.dir):
        try:
            manifests.append(ShardManifest.load(path))
        except (OSError, ValueError, KeyError, TypeError) as error:
            # A torn or version-skewed manifest is an audit failure,
            # not a crash.
            print(f"  unreadable shard manifest {path.name}: {error}")
            complete = False
    if not manifests:
        if complete:
            print(
                "no shard manifests (cache was not written by --shard runs)"
            )
            return 0
        return 1
    manifests.sort(
        key=lambda m: (m.grid_key, m.shard_count, m.shard_index)
    )
    grid: set = set()
    claimed: dict = {}
    for manifest in manifests:
        owned = manifest.owned_keys
        missing = [key for key in owned if key not in present]
        grid.update(owned)
        grid.update(manifest.skipped_keys)
        label = (
            f"grid {manifest.grid_key[:12]} shard "
            f"{manifest.shard_index}/{manifest.shard_count}"
        )
        print(
            f"  {label}: owns {len(owned)}, present "
            f"{len(owned) - len(missing)}, missing {len(missing)}, "
            f"skipped {len(manifest.skipped_keys)}"
        )
        if missing:
            complete = False
            for key in missing:
                print(f"    missing {key[:12]}…")
        for key in owned:
            # Ownership is disjoint only within one (grid, N-way)
            # scatter: two different grids legitimately share cells.
            owner = (
                manifest.grid_key,
                manifest.shard_count,
                manifest.shard_index,
            )
            scatter = owner[:2]
            if claimed.get((scatter, key), owner) != owner:
                complete = False
                other = claimed[(scatter, key)]
                print(
                    f"    overlap: {key[:12]}… owned by shard "
                    f"{other[2]}/{other[1]} and {label}"
                )
            claimed[(scatter, key)] = owner
    covered = len(grid & present)
    print(
        f"coverage: {covered}/{len(grid)} grid cells present across "
        f"{len(manifests)} shard manifest(s)"
    )
    if covered < len(grid):
        complete = False
    return 0 if complete else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    try:
        server = serve(
            cache=args.cache,
            host=args.host,
            port=args.port,
            lease_timeout=args.lease_timeout,
            verbose=args.verbose,
        )
    except ValueError as error:
        raise SessionError(str(error)) from None
    print(
        f"oovr serve: cache {args.cache}, listening on {server.url} "
        f"(lease timeout {args.lease_timeout:g}s)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service import SweepWorker

    try:
        worker = SweepWorker(
            args.server,
            jobs=args.jobs,
            name=args.name,
            poll_interval=args.poll_interval,
            lease_limit=args.lease_limit,
            max_idle=args.max_idle,
        )
    except ValueError as error:
        raise SessionError(str(error)) from None
    print(
        f"oovr worker: {worker.name} pulling from {args.server} "
        f"({args.jobs} job(s))",
        flush=True,
    )
    stats = worker.run_forever()
    print(
        f"worker {stats['name']} exiting: {stats['cells_done']} cell(s) "
        f"over {stats['leases_served']} lease(s)"
    )
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    scene = Session().preset(_experiment(args)).workload(args.workload).scene()
    path = save_scene(scene, args.path)
    profile = profile_scene(scene).representative
    print(
        f"captured {args.workload} -> {path} "
        f"({profile.num_objects} objects/frame, {len(scene)} frames)"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    scene = load_scene(args.path)
    print(profile_scene(scene).table())
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    scene = load_scene(args.path)
    framework = build_framework(args.framework)
    result = framework.render_scene(scene)
    frame = result.frames[0]
    print(f"replayed {scene.name} under {result.framework}")
    print(f"single frame    : {frame.cycles / 1e6:.3f} Mcycles "
          f"({frame.latency_ms():.3f} ms @1GHz)")
    print(f"inter-GPM bytes : {frame.inter_gpm_bytes / (1024 * 1024):.2f} MB/frame")
    print(f"load balance    : {frame.load_balance_ratio:.3f} (worst/best GPM)")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.energy import (
        EnergyConstants,
        EnergyModel,
        IntegrationPoint,
        scene_energy,
    )

    experiment = _experiment(args)
    point = (
        IntegrationPoint.CROSS_NODE if args.nodes else IntegrationPoint.ON_BOARD
    )
    model = EnergyModel(EnergyConstants.for_integration(point))
    print(
        f"energy per frame on {args.workload} "
        f"({point.value}, {point.picojoules_per_bit:.0f} pJ/bit):"
    )
    print(f"{'scheme':<12}{'link mJ':>9}{'dram mJ':>9}{'sm mJ':>9}"
          f"{'engine mJ':>11}{'total mJ':>10}")
    for scheme in ("baseline", "object", "oo-vr"):
        result = (
            Session()
            .preset(experiment)
            .framework(scheme)
            .workload(args.workload)
            .run()
        )
        e = scene_energy(result, model).per_frame
        print(
            f"{scheme:<12}{e.link_joules * 1e3:>9.2f}"
            f"{e.dram_joules * 1e3:>9.2f}{e.compute_joules * 1e3:>9.2f}"
            f"{e.engine_joules * 1e3:>11.4f}{e.millijoules:>10.2f}"
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    import pathlib

    from repro.render import (
        Camera,
        SceneObject3D,
        StereoCamera,
        StereoRenderer,
        StereoRenderMode,
        make_box,
        make_checker_ground,
        make_cylinder,
        make_icosphere,
        rotate_y,
        translate,
    )

    camera = StereoCamera(
        Camera(position=(0.0, 1.6, 4.2), target=(0.0, 1.0, 0.0), aspect=1.0),
        ipd=0.12,
    )
    objects = [
        SceneObject3D("ground", make_checker_ground(12.0, 8), translate(0, 0, 0)),
        SceneObject3D(
            "pillar1", make_cylinder(0.32, 2.4, 20), translate(-1.4, 0, -0.4)
        ),
        SceneObject3D(
            "pillar2", make_cylinder(0.32, 2.4, 20), translate(1.4, 0, -0.4)
        ),
        SceneObject3D("orb", make_icosphere(0.45, 2), translate(0, 1.35, -0.8)),
        SceneObject3D(
            "crate", make_box(0.9, 0.9, 0.9),
            translate(0.3, 0.45, 1.1) @ rotate_y(0.6),
        ),
    ]
    renderer = StereoRenderer(camera, args.size, args.size)
    packed, stats = renderer.render(objects, StereoRenderMode.SMP)
    out = pathlib.Path(args.out)
    packed.write_ppm(out / "stereo.ppm")
    packed.write_png(out / "stereo.png")
    print(stats.summary())
    print(f"wrote {out}/stereo.ppm and {out}/stereo.png")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("frameworks:")
    for name in framework_names():
        print(f"  {name}")
    print("workloads:")
    for name in WORKLOADS:
        print(f"  {name}")
    print("figures:", ", ".join(sorted(figures.FIGURES)))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oovr",
        description="OO-VR (ISCA 2019) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("fig", help="reproduce a figure")
    fig.add_argument("number", help="figure id (4, 7, 8, 9, 10, 15-18, smp)")
    fig.add_argument("--fast", action="store_true", help="scaled-down scenes")
    fig.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the figure's sweep",
    )
    fig.add_argument(
        "--chart", action="store_true", help="also draw a terminal bar chart"
    )
    fig.add_argument(
        "--progress", action="store_true",
        help="print one line per completed grid cell to stderr",
    )
    fig.set_defaults(func=_cmd_fig)

    table = sub.add_parser("table", help="reproduce a table")
    table.add_argument("number", help="table id (1, 2, 3)")
    table.add_argument("--fast", action="store_true")
    table.set_defaults(func=_cmd_table)

    overhead = sub.add_parser("overhead", help="Section 5.4 overheads")
    overhead.add_argument("--gpms", type=int, default=4)
    overhead.set_defaults(func=_cmd_overhead)

    run = sub.add_parser("run", help="run one framework on one workload")
    run.add_argument(
        "names", nargs="*", metavar="NAME",
        help="framework then workload, positionally; either slot may "
        "instead be named via --framework/--workload",
    )
    run.add_argument(
        "--framework", dest="framework_opt", metavar="NAME", default=None,
        help="alias for the framework positional (conflicts if both "
        "name the slot)",
    )
    run.add_argument(
        "--workload", dest="workload_opt", metavar="NAME", default=None,
        help="alias for the workload positional (conflicts if both "
        "name the slot)",
    )
    run.add_argument("--fast", action="store_true")
    run.add_argument(
        "--json", action="store_true",
        help="print the scene result as a JSON document",
    )
    run.add_argument(
        "--engine", metavar="NAME", default="analytic",
        help="execution engine "
        f"({'/'.join(ENGINE_NAMES)}): the paper's analytic roofline or "
        "discrete-event contention-aware timing (default: analytic)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="time the run phase by phase (scene build, bind, price, "
        "execute) and print the wall-time breakdown (with the event "
        "engine: plus window-loop counters)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run a (framework x workload) grid to tidy records"
    )
    sweep.add_argument(
        "--frameworks",
        help="comma-separated framework names (default: all registered)",
    )
    sweep.add_argument(
        "--workloads",
        help="comma-separated workload names (default: the full suite)",
    )
    sweep.add_argument("--fast", action="store_true", help="scaled-down scenes")
    sweep.add_argument("--frames", type=int, help="frames per scene")
    sweep.add_argument("--seed", type=int, help="scene-generation seed")
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the grid"
    )
    sweep.add_argument("--csv", metavar="PATH", help="write records as CSV")
    sweep.add_argument("--json", metavar="PATH", help="write records as JSON")
    sweep.add_argument(
        "--cache", metavar="DIR",
        help="memoise results on disk, keyed by RunSpec; repeated grids "
        "skip already-executed cells",
    )
    sweep.add_argument(
        "--engine", metavar="NAME", default="analytic",
        help=f"execution engine ({'/'.join(ENGINE_NAMES)}) for every "
        "cell (default: analytic; part of the cache key when not "
        "'analytic')",
    )
    sweep.add_argument(
        "--executor", metavar="NAME", default=None,
        help=f"execution backend ({'/'.join(EXECUTOR_NAMES)}; default: "
        "serial, or process when --jobs > 1; remote reads $OOVR_SERVER "
        "unless --server is given)",
    )
    sweep.add_argument(
        "--server", metavar="URL", default=None,
        help="submit the grid to an `oovr serve` daemon (selects the "
        "remote executor) and block for results; records stay "
        "byte-identical to a serial run",
    )
    sweep.add_argument(
        "--shard", metavar="I/N", default=None,
        help="execute only shard I of an N-way deterministic partition "
        "of the grid (0-based; cells are assigned by spec_key, so the "
        "same grid shards identically on every host); with --cache, "
        "records a shard manifest next to the entries",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="print one line per completed cell (key prefix, hit/miss, "
        "framework, workload) to stderr",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="time every cell phase by phase (scene build, bind, price, "
        "execute, cache I/O), print per-cell breakdowns and export "
        "profile_*_s record columns (serial execution only)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect/clear/merge result caches"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_info = cache_sub.add_parser("info", help="entry count and bytes")
    cache_info.add_argument("dir", help="cache directory")
    cache_info.add_argument(
        "--json", action="store_true",
        help="machine-readable status (entries, bytes, per-grid shard-"
        "manifest coverage) — the same document the sweep service's "
        "GET /cache endpoint serves",
    )
    cache_info.set_defaults(func=_cmd_cache)
    cache_clear = cache_sub.add_parser("clear", help="drop every entry")
    cache_clear.add_argument("dir", help="cache directory")
    cache_clear.set_defaults(func=_cmd_cache)
    cache_merge = cache_sub.add_parser(
        "merge",
        help="fold per-shard cache directories into one (atomic per "
        "entry, conflicts detected)",
    )
    cache_merge.add_argument("dst", help="destination cache directory")
    cache_merge.add_argument(
        "sources", nargs="+", metavar="src",
        help="source cache directories (merged in order)",
    )
    cache_merge.add_argument(
        "--on-conflict", choices=("error", "keep", "replace"),
        default="error",
        help="what to do when both sides hold different results for "
        "one key (default: error)",
    )
    cache_merge.set_defaults(func=_cmd_cache_merge)
    cache_manifest = cache_sub.add_parser(
        "manifest",
        help="audit shard manifests: per-shard ownership, missing "
        "entries, grid coverage (exit 1 when incomplete)",
    )
    cache_manifest.add_argument("dir", help="cache directory")
    cache_manifest.set_defaults(func=_cmd_cache_manifest)

    trace = sub.add_parser("trace", help="capture/inspect/replay traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser("record", help="capture a workload")
    record.add_argument("workload")
    record.add_argument("path", help="output .json or .json.gz")
    record.add_argument("--fast", action="store_true")
    record.set_defaults(func=_cmd_trace_record)

    info = trace_sub.add_parser("info", help="profile a trace file")
    info.add_argument("path")
    info.set_defaults(func=_cmd_trace_info)

    replay = trace_sub.add_parser("replay", help="render a trace")
    replay.add_argument("path")
    replay.add_argument("framework")
    replay.set_defaults(func=_cmd_trace_replay)

    serve = sub.add_parser(
        "serve",
        help="run the sweep-service daemon: accepts RunSpec grids over "
        "HTTP/JSON, dispatches cells to registered workers, answers "
        "repeats straight from its result cache",
    )
    serve.add_argument(
        "--cache", metavar="DIR", required=True,
        help="content-addressed result cache directory the daemon owns "
        "(the shared result store; repeated grids are pure cache reads)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: OS-assigned, printed at startup)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=60.0, metavar="SECONDS",
        help="seconds a worker may hold leased cells before they are "
        "re-dispatched (a dead worker degrades to a re-run, not a "
        "wedged job)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run a worker agent: registers with an `oovr serve` "
        "daemon, leases pending sweep cells, executes them with the "
        "standard in-process executors and uploads the results",
    )
    worker.add_argument("server", help="daemon URL (http://host:port)")
    worker.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for leased cells (process executor "
        "when > 1)",
    )
    worker.add_argument(
        "--name", default=None, help="worker name (default: host-pid)"
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="sleep between empty lease polls",
    )
    worker.add_argument(
        "--lease-limit", type=int, default=None, metavar="N",
        help="cells per lease (default: --jobs)",
    )
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help="exit after this long without work (default: wait forever)",
    )
    worker.set_defaults(func=_cmd_worker)

    energy = sub.add_parser("energy", help="Section 6.2 energy accounting")
    energy.add_argument("workload")
    energy.add_argument("--fast", action="store_true")
    energy.add_argument(
        "--nodes", action="store_true",
        help="price links at 250 pJ/bit (cross-node) instead of 10 (board)",
    )
    energy.set_defaults(func=_cmd_energy)

    render = sub.add_parser(
        "render", help="render a real stereo frame (Fig. 5) to PPM/PNG"
    )
    render.add_argument("out", help="output directory")
    render.add_argument("--size", type=int, default=320, help="pixels per eye")
    render.set_defaults(func=_cmd_render)

    lst = sub.add_parser("list", help="list frameworks/workloads/figures")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SessionError, SpecError, ExecutorError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except CacheMergeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
