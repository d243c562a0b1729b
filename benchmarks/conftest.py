"""Shared benchmark harness configuration.

Every bench regenerates one of the paper's tables or figures at **full
workload scale** (Table 3 draw counts, 3 frames per scene) and

- prints the series the paper plots, next to the paper's reported
  values, and
- writes the same text to ``benchmarks/output/<name>.txt``.

``pytest-benchmark`` times one full regeneration per figure
(``pedantic(rounds=1)``): the numbers of interest are the figure's
values, not the wall-clock, but the timing documents simulation cost.

The harness rides on the Session/Sweep API: ``BENCH`` is the standard
:data:`repro.session.FULL` preset, the same grids ``oovr fig`` and
``oovr sweep`` execute.  :func:`bench_once` runs every bench inside
one :func:`repro.session.sweep_defaults` block naming
:data:`BENCH_EXECUTOR` and :data:`BENCH_CACHE`, so the bench files pass
no run knobs and every grid — paper figures and extension/ablation
studies alike — shares :data:`BENCH_CACHE`, a
:class:`repro.session.ResultCache` under ``benchmarks/output/cache``:
cells common to several benches (the baseline suite above all) execute
once per bench session instead of once per bench, and a re-run
regenerates figures from disk.  Note the cache keys on the *spec*, not
the simulator code — clear it (``oovr cache clear
benchmarks/output/cache``) after changing the model to re-measure.

Execution rides the pluggable executor layer
(:mod:`repro.session.executor`), steered by environment variables so
one bench invocation can be a slice of a cross-machine fleet:

- ``OOVR_BENCH_JOBS=8`` — fan cache misses over worker processes;
- ``OOVR_BENCH_SHARD=0/2`` — warm-only scatter mode: every grid
  executes just this host's deterministic slice (recording a shard
  manifest per cache), and each bench then *skips* instead of
  asserting — figure math is only meaningful on the whole grid;
- ``OOVR_BENCH_CACHE=DIR`` — per-host cache directory for scattered
  runs (default ``benchmarks/output/cache``).

The gather half: ``oovr cache merge benchmarks/output/cache HOST0
HOST1 ...`` folds the per-host directories together (``oovr cache
manifest`` audits coverage), after which an unsharded bench pass is
100 % hits and regenerates every figure from disk.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.session import FULL, ResultCache, make_executor, sweep_defaults

#: Full-scale experiment preset used by every bench.
BENCH = FULL

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: RunSpec-keyed result store shared by every bench grid
#: (``OOVR_BENCH_CACHE`` points scattered hosts at private directories).
BENCH_CACHE = ResultCache(
    os.environ.get("OOVR_BENCH_CACHE", OUTPUT_DIR / "cache")
)

#: Worker processes for every bench sweep (``OOVR_BENCH_JOBS``).
BENCH_JOBS = int(os.environ.get("OOVR_BENCH_JOBS", "1"))

#: This host's shard slice (``OOVR_BENCH_SHARD=I/N``), or None.
BENCH_SHARD = os.environ.get("OOVR_BENCH_SHARD")

#: The executor backend every bench grid runs on — serial by default,
#: process under OOVR_BENCH_JOBS, a shard slice under OOVR_BENCH_SHARD.
BENCH_EXECUTOR = make_executor(jobs=BENCH_JOBS, shard=BENCH_SHARD)


def record_output(name: str, text: str) -> None:
    """Print a figure's text and persist it under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def bench_once(benchmark):
    """Run a figure generator exactly once under the benchmark timer.

    The generator runs inside ``sweep_defaults(executor=BENCH_EXECUTOR,
    cache=BENCH_CACHE)``, so every sweep it makes executes on the bench
    executor and stores into the object whose stats the shard mode
    below counts.  Under ``OOVR_BENCH_SHARD`` the generator runs for
    its cache side effects only — each sweep executes (and stores)
    this host's slice — and the test skips, so no figure text or
    assertion is ever produced from a partial grid.  Caveat: a bench
    chaining several grids stops at its first figure-math lookup of a
    cell another shard owns, so later grids in the same bench stay
    cold; ``oovr cache manifest`` on the merged directory shows exactly
    which grids each shard recorded, and the unsharded replay executes
    any cells still missing.
    """

    def run(func, *args, **kwargs):
        with sweep_defaults(executor=BENCH_EXECUTOR, cache=BENCH_CACHE):
            if BENCH_SHARD is None:
                return benchmark.pedantic(
                    func, args=args, kwargs=kwargs, rounds=1, iterations=1
                )
            stores_before = BENCH_CACHE.stats.stores
            stopped = ""
            try:
                func(*args, **kwargs)
            except (KeyError, ValueError):
                # Figure math tripped on a cell another shard owns;
                # every sweep reached before that point has already
                # executed and cached this host's slice.
                stopped = " (stopped at a cell another shard owns)"
        stored = BENCH_CACHE.stats.stores - stores_before
        pytest.skip(
            f"OOVR_BENCH_SHARD={BENCH_SHARD}: stored {stored} "
            f"cell(s) of this host's slice at {BENCH_CACHE.root}"
            f"{stopped}; merge and re-run unsharded for figures"
        )

    return run
