"""The processes the benchmark measures, one mode per subcommand.

``grid``    one grid sample: import, expand, ``Sweep.run``, CSV written.
            ``--setup-only`` stops after expansion (a set-up probe).
``replay``  the serve-replay client: a closed loop of threads, each
            resubmitting the grid to a daemon through ``RemoteExecutor``.
``daemon``  ``oovr serve`` with the daemon-side layers traced.

Each writes one JSON document to ``--out``.  Timestamps use
``time.monotonic``, one system-wide clock on Linux, so the parent
compares them with the time it spawned the process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import threading
import time
from contextlib import nullcontext

from layers import FRAMEWORKS, LAYERS
from tracer import Tracer


def _sweep(args):
    from repro import Sweep

    sweep = Sweep().frameworks(*FRAMEWORKS).workloads(*args.workloads)
    sweep = sweep.full() if args.preset == "full" else sweep.fast()
    sweep.seed(args.seed)
    if args.engine != "analytic":
        sweep.engine(args.engine)
    return sweep


def grid(args) -> dict:
    tracer = Tracer() if args.trace else None
    with tracer.span("import") if tracer is not None else nullcontext():
        from repro import ResultCache
    if tracer is not None:
        tracer.install(LAYERS)
    sweep = _sweep(args)
    sweep.specs()
    out = {"ready": time.monotonic()}
    if args.setup_only:
        return out
    cache = ResultCache(args.cache) if args.cache else None
    marks = []
    first = time.monotonic()
    results = sweep.run(
        cache=cache, on_result=lambda spec, result, cached: marks.append(
            time.monotonic()
        )
    )
    results.to_csv(args.csv)
    done = time.monotonic()
    out.update(
        first=first,
        done=done,
        cell_s=[b - a for a, b in zip([first] + marks, marks)],
        cache_entries=len(cache) if cache is not None else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["trace"] = tracer.summary(args.spans)
    return out


def replay(args) -> dict:
    from repro import Sweep
    from repro.service.client import RemoteExecutor

    expected = args.expected_sha

    def once(executor):
        """One replay: (latency s, client CPU s, ok)."""
        started = time.monotonic()
        cpu = time.thread_time()
        results = (
            Sweep().frameworks(*FRAMEWORKS).fast().seed(args.seed)
            .run(executor=executor)
        )
        text = results.to_csv()
        cpu = time.thread_time() - cpu
        latency = time.monotonic() - started
        ok = hashlib.sha256(text.encode()).hexdigest() == expected
        return latency, cpu, ok

    def attempt(executor, sink):
        try:
            latency, cpu, ok = once(executor)
        except Exception as error:  # a failed replay is counted, not fatal
            sink["errors"].append(f"{type(error).__name__}: {error}")
            sink["failed"] += 1
            return
        sink["latency"].append(latency)
        sink["cpu"].append(cpu)
        if not ok:
            sink["failed"] += 1

    def new_sink():
        return {"latency": [], "cpu": [], "failed": 0, "errors": []}

    executor = RemoteExecutor(args.url)
    warm = new_sink()
    for _ in range(args.warmup):
        attempt(executor, warm)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install([layer for layer in LAYERS if layer.side == "client"])
    loaded = [new_sink() for _ in range(args.threads if args.seconds else 0)]
    deadline = time.monotonic() + args.seconds

    def loop(sink):
        mine = RemoteExecutor(args.url)
        while time.monotonic() < deadline:
            attempt(mine, sink)

    threads = [
        threading.Thread(target=loop, args=(sink,)) for sink in loaded
    ]
    began = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - began
    out = {
        "warm": warm,
        "loaded": loaded,
        "loaded_wall_s": wall,
    }
    if tracer is not None:
        out["trace"] = tracer.summary(args.spans)
    return out


def daemon(args) -> dict:
    tracer = Tracer()
    with tracer.span("import"):
        import repro.cli
    tracer.install([layer for layer in LAYERS if layer.side == "daemon"])
    repro.cli.main(["serve", "--cache", args.cache, "--port", "0"])
    return {"trace": tracer.summary(args.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    g = sub.add_parser("grid")
    g.add_argument("--workloads", nargs="+", required=True)
    g.add_argument("--preset", choices=("full", "fast"), required=True)
    g.add_argument("--engine", choices=("analytic", "event"), required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--cache", default=None)
    g.add_argument("--csv", default=None)
    g.add_argument("--setup-only", action="store_true")
    r = sub.add_parser("replay")
    r.add_argument("--url", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--expected-sha", required=True)
    r.add_argument("--threads", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--warmup", type=int, default=3)
    d = sub.add_parser("daemon")
    d.add_argument("--cache", required=True)
    for p in (g, r, d):
        p.add_argument("--out", required=True)
        p.add_argument("--spans", default=None, help="write spans (.npz)")
    for p in (g, r):
        p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = {"grid": grid, "replay": replay, "daemon": daemon}[args.mode](args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
