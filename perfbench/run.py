#!/usr/bin/env python3
"""Grid benchmark: the paper's evaluation grids and a cache-replay service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-fast-event --seed 2019 \\
        --seconds 30 --trace 0

Workloads (the nine pinned frameworks of :data:`layers.FRAMEWORKS`):

- ``grid-full-analytic``: x {HL2-1280, DM3-1280, WE}, full preset,
  analytic engine, serial, no result cache;
- ``grid-fast-event``: x all nine workloads, fast preset, event engine,
  serial, a cold private ``ResultCache`` written per sample;
- ``serve-replay``: an ``oovr serve`` daemon whose cache holds the fast
  analytic 81-cell grid (warmed outside every metric), resubmitted by a
  closed loop of ``min(2, nproc)`` client threads via ``RemoteExecutor``.

Every grid sample and every daemon runs in a fresh process whose
environment has ``OOVR_SCENE_STORE``, ``OOVR_PLAN_STORE`` and
``OOVR_SERVER`` removed, with a private temporary directory for its
caches.  The scene seed is ``--seed``; for the pinned seed the CSVs are
checked row by row against ``expected.json``, for any seed every replay
must match the serial CSV byte for byte and every grid sample must
match the run's first.  Correctness is checked before any timing is
reported.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``layers.py``).  The last stdout line is one JSON
object; a full record, host details included, is written under
``.perfbench/results/``.  ``--pin`` recomputes ``expected.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from importlib import metadata
from pathlib import Path

from layers import DERIVED, FRAMEWORKS, LAYERS, per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected.json"

NINE = (
    "DM3-640", "DM3-1280", "DM3-1600", "HL2-640", "HL2-1280", "HL2-1600",
    "NFS", "UT3", "WE",
)
GRID_SPECS = {
    "grid-full-analytic": dict(
        workloads=("HL2-1280", "DM3-1280", "WE"), preset="full",
        engine="analytic", cache=False,
    ),
    "grid-fast-event": dict(
        workloads=NINE, preset="fast", engine="event", cache=True,
    ),
    # The grid the serve-replay daemon's cache holds.
    "serve-replay": dict(
        workloads=NINE, preset="fast", engine="analytic", cache=True,
    ),
}
WORKLOADS = tuple(GRID_SPECS)
PINNED_SEED = 2019
ISOLATED = ("OOVR_SCENE_STORE", "OOVR_PLAN_STORE", "OOVR_SERVER")
#: Set-up is measured this many extra times per run, then the median.
SETUP_PROBES = 9
#: Replays served before serve-replay's timed loop; the daemon keeps
#: every job in memory, so its RSS is read after this fixed amount.
WARM_REPLAYS = 20
CHILD_TIMEOUT = 170.0
END_TO_END = (
    ("grid_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_s", "1/s"),
)


class BenchError(RuntimeError):
    """The harness could not take a measurement."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_digests(text: str):
    """One digest per CSV data row, each covering the header too."""
    header, *rows = text.splitlines()
    return [sha256(header + "\n" + row) for row in rows]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def latency_info(operation: str, seconds) -> dict:
    """Ungated per-operation latency percentiles, for the record.  The
    grids' slowest cells move with the seed's heaviest scene, too much
    for a bound."""
    return {
        f"{operation}_p50_ms": 1e3 * statistics.median(seconds),
        f"{operation}_p99_ms": 1e3 * percentile(seconds, 99),
        f"{operation}s": len(seconds),
    }


def host_record() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


class Bench:
    """One benchmark run: owns its temp directory and every child."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        self.procs = []
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reference = {}
        #: Off while expected.json is being recomputed.
        self.use_pinned = True

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)

    def env(self, work: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in ISOLATED}
        paths = [str(ROOT / "src")] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = str(work)
        return env

    def workdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp))

    def spawn(self, argv, work: Path, **kwargs):
        proc = subprocess.Popen(
            [sys.executable, *map(str, argv)],
            cwd=ROOT, env=self.env(work), **kwargs,
        )
        self.procs.append(proc)
        return proc

    def child(self, argv, work: Path) -> dict:
        """Run ``child.py`` to completion; its JSON plus the spawn time."""
        out = work / "out.json"
        spawned = time.monotonic()
        proc = self.spawn(
            [CHILD, *argv, "--out", out], work,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{argv[0]} child timed out") from None
        if proc.returncode != 0:
            tail = "\n".join(stderr.strip().splitlines()[-15:])
            raise BenchError(f"{argv[0]} child exited {proc.returncode}:\n{tail}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["spawned"] = spawned
        return result

    # -- grids --------------------------------------------------------------

    def grid_sample(self, workload: str, trace=False, setup_only=False,
                    cache_dir=None, spans=None) -> dict:
        spec = GRID_SPECS[workload]
        work = self.workdir()
        argv = [
            "grid", "--workloads", *spec["workloads"],
            "--preset", spec["preset"], "--engine", spec["engine"],
            "--seed", self.seed,
        ]
        if setup_only:
            argv.append("--setup-only")
        else:
            argv += ["--csv", work / "grid.csv"]
            if spec["cache"]:
                argv += ["--cache", cache_dir or work / "cache"]
        if trace:
            argv.append("--trace")
            if spans:
                argv += ["--spans", spans]
        try:
            sample = self.child(argv, work)
            sample["setup_s"] = sample["ready"] - sample["spawned"]
            if not setup_only:
                sample["csv"] = (work / "grid.csv").read_text(encoding="utf-8")
                sample["grid_s"] = sample["done"] - sample["first"]
                sample["wall_s"] = sample["done"] - sample["spawned"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not setup_only:
            self.check_grid(workload, sample)
        return sample

    def check_grid(self, workload: str, sample: dict) -> None:
        """Count the sample's wrong cells: grid order, the pinned rows
        (pinned seed), the run's first sample (any seed), and the
        private cache holding one entry per cell."""
        spec = GRID_SPECS[workload]
        order = [(f, w) for f in FRAMEWORKS for w in spec["workloads"]]
        text = sample["csv"]
        self.attempted += len(order)
        rows = list(csv.reader(io.StringIO(text)))[1:] if text else []
        bad = set(range(len(rows), len(order)))
        bad |= {
            i for i, row in enumerate(rows)
            if i >= len(order) or tuple(row[:2]) != order[i]
        }
        digests = row_digests(text) if text else []
        expected = self.pinned(workload)
        if expected is not None:
            bad |= {
                i for i, digest in enumerate(expected)
                if i >= len(digests) or digests[i] != digest
            }
        first = self.reference.setdefault(workload, digests)
        bad |= {
            i for i, digest in enumerate(first)
            if i >= len(digests) or digests[i] != digest
        }
        note = ""
        if spec["cache"] and sample.get("cache_entries") != len(order):
            note = f"; cache holds {sample.get('cache_entries')} entries"
            bad = set(range(len(order)))
        bad = {i for i in bad if i < len(order)}
        if bad:
            self.fail(len(bad), f"{workload}: {len(bad)} wrong cell(s), "
                                f"first at row {min(bad)}{note}")

    def pinned(self, workload: str):
        if self.seed != PINNED_SEED or not self.use_pinned:
            return None
        document = json.loads(EXPECTED.read_text(encoding="utf-8"))
        return document["workloads"][workload]["row_sha256"]

    def setup_probes(self, workload: str):
        # One discarded probe first: it pulls the interpreter, numpy and
        # the sources into the page cache, as any earlier run would have.
        return [
            self.grid_sample(workload, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES + 1)
        ][1:]

    def run_grid(self, workload: str) -> dict:
        setups = self.setup_probes(workload)
        samples = []
        began = time.monotonic()
        while True:
            samples.append(self.grid_sample(workload))
            elapsed = time.monotonic() - began
            if elapsed + samples[-1]["wall_s"] > self.seconds:
                break
        cells = [c for s in samples for c in s["cell_s"]]
        metrics = {
            "grid_s": statistics.median(s["grid_s"] for s in samples),
            "setup_s": statistics.median(
                setups + [s["setup_s"] for s in samples]
            ),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "cells_per_s": statistics.median(
                len(s["cell_s"]) / s["grid_s"] for s in samples
            ),
        }
        counts = {
            "grid_s": len(samples),
            "setup_s": len(setups) + len(samples),
            "peak_rss_mb": len(samples),
            "cells_per_s": len(samples),
        }
        return {"metrics": metrics, "samples": counts,
                "info": latency_info("cell", cells),
                "csv_sha256": sha256(samples[0]["csv"])}

    def trace_grid(self, workload: str) -> dict:
        plain = self.grid_sample(workload)
        spans = OUT / "spans" / f"{workload}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = self.grid_sample(workload, trace=True, spans=spans)
        trace = traced["trace"]
        metrics = layer_metrics([trace], wall=traced["wall_s"])
        metrics["trace.overhead.s"] = traced["wall_s"] - plain["wall_s"]
        return {"metrics": metrics, "absent": trace["absent"],
                "wall_terms": wall_terms(trace),
                "by_framework": trace["by_framework"],
                "csv_sha256": sha256(plain["csv"]), "spans": str(spans)}

    # -- serve-replay -------------------------------------------------------

    def warm_cache(self) -> tuple:
        """The daemon's private cache, holding the serial grid, and
        that grid's CSV: the bytes every replay must reproduce."""
        cache_dir = self.workdir() / "daemon-cache"
        sample = self.grid_sample("serve-replay", cache_dir=cache_dir)
        return cache_dir, sample["csv"]

    def start_daemon(self, cache_dir: Path, traced=False, out=None,
                     spans=None) -> dict:
        work = self.workdir()
        if traced:
            argv = [CHILD, "daemon", "--cache", cache_dir, "--out", out]
            if spans:
                argv += ["--spans", spans]
        else:
            argv = ["-m", "repro.cli", "serve", "--cache", cache_dir]
        spawned = time.monotonic()
        log = open(work / "daemon.log", "w", encoding="utf-8")
        proc = self.spawn(argv, work, stdout=subprocess.PIPE, stderr=log, text=True)
        log.close()
        deadline = spawned + 60.0
        url = None
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while url is None and time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = proc.stdout.readline()
                if not line:
                    break
                found = re.search(r"listening on (http://\S+)", line)
                url = found.group(1) if found else None
        if url is None:
            self.stop_daemon({"proc": proc})
            raise BenchError("daemon did not start:\n"
                             + (work / "daemon.log").read_text()[-2000:])
        while True:
            try:
                with urllib.request.urlopen(url + "/health", timeout=5) as reply:
                    if json.loads(reply.read()).get("ok"):
                        break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop_daemon({"proc": proc})
                raise BenchError("daemon never answered /health")
            time.sleep(0.002)
        return {"proc": proc, "url": url,
                "setup_s": time.monotonic() - spawned}

    @staticmethod
    def peak_rss_mb(proc) -> float:
        """The process's peak RSS so far, from /proc (0 if unknown)."""
        try:
            with open(f"/proc/{proc.pid}/status", encoding="utf-8") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop_daemon(self, daemon: dict) -> None:
        proc = daemon["proc"]
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def replay(self, url: str, csv_text: str, seconds: float, warmup=3,
               trace=False, spans=None) -> dict:
        work = self.workdir()
        argv = [
            "replay", "--url", url, "--seed", self.seed,
            "--expected-sha", sha256(csv_text),
            "--threads", min(2, os.cpu_count() or 1),
            "--seconds", seconds, "--warmup", warmup,
        ]
        if trace:
            argv.append("--trace")
            if spans:
                argv += ["--spans", spans]
        try:
            result = self.child(argv, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        phases = [result["warm"], *result["loaded"]]
        for phase in phases:
            self.attempted += len(phase["latency"]) + len(phase["errors"])
            if phase["failed"]:
                raised = "; ".join(phase["errors"][:3])
                self.fail(phase["failed"], f"serve-replay: {phase['failed']} "
                          "replay(s) differ from the serial CSV or raised"
                          + (f": {raised}" if raised else ""))
        loaded = [x for sink in result["loaded"] for x in sink["latency"]]
        if seconds and not loaded:
            raise BenchError("no replay completed in the closed loop")
        result["loaded_latency"] = loaded
        result["loaded_cpu"] = [x for s in result["loaded"] for x in s["cpu"]]
        return result

    def run_serve(self) -> dict:
        cache_dir, csv_text = self.warm_cache()
        setups = []
        daemon = None
        # Probe 0 is discarded, as in setup_probes.
        for probe in range(SETUP_PROBES + 1):
            daemon = self.start_daemon(cache_dir)
            if probe:
                setups.append(daemon["setup_s"])
            if probe < SETUP_PROBES:
                self.stop_daemon(daemon)
        try:
            # Jobs stay in the daemon's memory, so its RSS is read after
            # a fixed number of grids, before the timed loop.
            self.replay(daemon["url"], csv_text, 0, warmup=WARM_REPLAYS)
            rss = self.peak_rss_mb(daemon["proc"])
            result = self.replay(daemon["url"], csv_text, self.seconds)
        finally:
            self.stop_daemon(daemon)
        loaded = result["loaded_latency"]
        cells = len(FRAMEWORKS) * len(GRID_SPECS["serve-replay"]["workloads"])
        metrics = {
            "grid_s": statistics.median(loaded),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "cells_per_s": cells * len(loaded) / result["loaded_wall_s"],
        }
        counts = {
            "grid_s": len(loaded),
            "setup_s": len(setups),
            "peak_rss_mb": 1,
            "cells_per_s": len(loaded),
        }
        return {"metrics": metrics, "samples": counts,
                "info": latency_info("replay", loaded),
                "csv_sha256": sha256(csv_text)}

    def trace_serve(self) -> dict:
        cache_dir, csv_text = self.warm_cache()
        half = self.seconds / 2.0
        daemon = self.start_daemon(cache_dir)
        try:
            plain = self.replay(daemon["url"], csv_text, half)
        finally:
            self.stop_daemon(daemon)
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        daemon_out = self.workdir() / "daemon.json"
        daemon = self.start_daemon(
            cache_dir, traced=True, out=daemon_out,
            spans=OUT / "spans" / "serve-replay-daemon.npz",
        )
        try:
            traced = self.replay(
                daemon["url"], csv_text, half, trace=True,
                spans=OUT / "spans" / "serve-replay.npz",
            )
        finally:
            self.stop_daemon(daemon)
        served = json.loads(daemon_out.read_text(encoding="utf-8"))
        client, server = traced["trace"], served["trace"]
        latency = traced["loaded_latency"]
        wall = sum(latency)
        metrics = layer_metrics([client, server], wall=wall, local=client)
        metrics["service.server.s"] = wall - sum(traced["loaded_cpu"])
        metrics["trace.overhead.s"] = len(latency) * (
            statistics.median(latency)
            - statistics.median(plain["loaded_latency"])
        )
        return {"metrics": metrics, "wall_terms": wall_terms(client),
                "absent": sorted(set(client["absent"]) | set(server["absent"])),
                "by_framework": {}, "csv_sha256": sha256(csv_text)}


def layer_metrics(traces, wall: float, local=None) -> dict:
    """Per-layer metrics from one or more trace summaries.

    ``wall`` is the traced wall of the process ``local`` (default: the
    only trace) ran in; ``residual.s`` is that wall minus the self time
    of every span ``local`` recorded, so its layers' printed self times
    plus the residual add up to the wall.
    """
    local = local if local is not None else traces[0]
    layers = {}
    hits = 0
    for trace in traces:
        hits += trace["hits"]
        for name, row in trace["layers"].items():
            merged = layers.setdefault(name, {"calls": 0, "self_s": 0.0,
                                              "incl_s": 0.0})
            for key in merged:
                merged[key] += row[key]
    metrics = {name: 0.0 for name, _, _ in per_layer_metrics()}
    metrics["import.s"] = layers.get("import", {}).get("self_s", 0.0)
    for layer in LAYERS:
        if layer.kind == "framework":
            rows = [row for name, row in layers.items()
                    if name.startswith("framework.")]
        else:
            rows = [layers[layer.name]] if layer.name in layers else []
        metrics[f"{layer.name}.calls"] = float(sum(r["calls"] for r in rows))
        metrics[f"{layer.name}.s"] = sum((r["self_s"] for r in rows), 0.0)
    for name in FRAMEWORKS:
        metrics[f"framework.{name}.s"] = layers.get(
            f"framework.{name}", {}
        ).get("incl_s", 0.0)
    lookups = metrics["session.cache.get.calls"]
    metrics["session.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["residual.s"] = wall - local["self_total_s"]
    metrics["trace.wall.s"] = wall
    metrics["trace.calls"] = float(sum(t["spans"] for t in traces))
    return metrics


def wall_terms(trace) -> list:
    """The printed self-time metrics that, with ``residual.s``, sum to
    ``trace.wall.s``: those of the layers the wall's process ran."""
    names = set()
    for name, row in trace["layers"].items():
        if not row["calls"]:
            continue
        if name.startswith("framework."):
            names.add("framework.dispatch.s")
        else:
            names.add(f"{name}.s")
    return sorted(names)


def print_table(workload: str, report: dict, units: dict) -> None:
    print(f"== {workload} (seed {report['seed']}, trace {report['trace']})")
    host = report["host"]
    print(f"host: nproc {host['nproc']}, python {host['python']}, "
          f"numpy {host['numpy']}, load {host['loadavg_1m']:.2f}")
    counts = report.get("samples", {})
    for name, value in report["metrics"].items():
        extra = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:34s} {value:14.6f} {units[name]}{extra}")
    terms = report.get("wall_terms")
    if terms:
        total = sum(report["metrics"][t] for t in terms)
        total += report["metrics"]["residual.s"]
        print(f"  {' + '.join(terms)} + residual.s = {total:.6f} s "
              f"(trace.wall.s {report['metrics']['trace.wall.s']:.6f} s)")
    for name, value in report.get("info", {}).items():
        print(f"  info: {name} {value:.6g}")
    for dotted in report.get("absent", []):
        print(f"  absent: {dotted}")
    by_framework = report.get("by_framework") or {}
    if by_framework:
        print("  self seconds by framework and layer:")
        for framework in sorted(by_framework):
            split = by_framework[framework]
            top = sorted(split.items(), key=lambda kv: -kv[1])[:6]
            print(f"    {framework:13s} " + ", ".join(
                f"{name} {seconds:.3f}" for name, seconds in top))
    print(f"  csv sha256 (seed {report['seed']}): {report['csv_sha256']}")
    for note in report["notes"]:
        print(f"  FAILED: {note}")


def pin() -> int:
    """Recompute expected.json for the pinned seed."""
    bench = Bench(PINNED_SEED, 0)
    bench.use_pinned = False
    try:
        document = {"seed": PINNED_SEED, "workloads": {}}
        for workload in WORKLOADS:
            text = bench.grid_sample(workload)["csv"]
            document["workloads"][workload] = {
                "csv_sha256": sha256(text),
                "row_sha256": row_digests(text),
            }
        EXPECTED.write_text(json.dumps(document, indent=1) + "\n")
    finally:
        bench.close()
    print(f"wrote {EXPECTED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute expected.json for the pinned seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Stopped from outside, still stop every child (Bench.close).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    host = host_record()
    # Build step: byte-compile the sources so no sample pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
         str(BENCH)],
        check=True, stdout=subprocess.DEVNULL,
    )
    bench = Bench(args.seed, args.seconds)
    try:
        if args.workload == "serve-replay":
            report = bench.trace_serve() if args.trace else bench.run_serve()
        else:
            report = (bench.trace_grid(args.workload) if args.trace
                      else bench.run_grid(args.workload))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        units = dict(END_TO_END)
    report.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, host=host, attempted=bench.attempted,
        failed=bench.failed, notes=bench.notes,
    )
    if args.trace:
        report["moves"] = {
            **{layer.name: layer.moves for layer in LAYERS}, **DERIVED,
        }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    print_table(args.workload, report, units)
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": report["metrics"][name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
