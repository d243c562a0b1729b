"""Unified Session/Sweep API: one composable entry point per experiment.

Every experiment in this repo — each figure, table, example, and bench —
is a cell (or grid of cells) of the paper's evaluation space
(framework x workload x system config).  This package names that space:

- :class:`RunSpec` — one frozen, picklable cell;
- :class:`Session` — fluent builder for a single run::

      Session().framework("oo-vr").workload("HL2-1280").fast().run()

- :class:`Sweep` — cartesian grids with optional multi-process
  execution (``.run(jobs=4)``) and deterministic ordering;
- :func:`sweep_defaults` — a block saying once where every
  ``Sweep.run`` inside it executes (``jobs``, ``cache``, ``executor``,
  ``on_result``), so functions that run grids take none of those;
- :class:`ResultSet` — tidy records with ``to_records`` / ``to_json`` /
  ``to_csv`` export and the paper's figure math (``pivot``,
  ``geomean_by``, ``normalize_to``).

:data:`FAST` and :data:`FULL` are the two standard scale presets
(:class:`ExperimentConfig`), applied with ``.fast()`` / ``.full()`` /
``.preset(...)``.

:class:`ResultCache` memoises executed cells on disk, keyed by a
stable content hash of the spec (:func:`spec_key`); pass it (or a
directory path) as ``Sweep.run(cache=...)`` to skip already-executed
grid cells while staying byte-identical to an uncached run.

*Where* a sweep executes is a pluggable backend
(:mod:`repro.session.executor`): :class:`SerialExecutor`,
:class:`ProcessExecutor` (``Sweep.run(jobs=N)`` is sugar for it) and
:class:`ShardExecutor` — one deterministic, content-addressed slice of
the grid, the scatter half of cross-machine sweeps whose caches
:meth:`ResultCache.merge` gathers back together.  A custom backend is
passed as an instance.
"""

from repro.session.cache import (
    CacheMergeError,
    CacheStats,
    MergeStats,
    ResultCache,
    encode_entry,
    is_entry_key,
    spec_key,
)
from repro.session.executor import (
    EXECUTOR_NAMES,
    ExecutorError,
    ProcessExecutor,
    ResultCallback,
    SerialExecutor,
    ShardExecutor,
    ShardManifest,
    SweepExecutor,
    grid_key,
    load_shard_manifests,
    make_executor,
    parse_shard,
    shard_manifest_paths,
    shard_of,
)
from repro.session.result import ResultSet
from repro.session.session import (
    Session,
    SessionError,
    Sweep,
    sweep_defaults,
)
from repro.session.spec import (
    DEFAULT_FRAMES,
    DEFAULT_SEED,
    FAST,
    FULL,
    RECORD_FIELDS,
    ExperimentConfig,
    RunSpec,
    SpecError,
)

__all__ = [
    "CacheMergeError",
    "CacheStats",
    "DEFAULT_FRAMES",
    "DEFAULT_SEED",
    "EXECUTOR_NAMES",
    "ExecutorError",
    "ExperimentConfig",
    "FAST",
    "FULL",
    "MergeStats",
    "ProcessExecutor",
    "RECORD_FIELDS",
    "ResultCache",
    "ResultCallback",
    "ResultSet",
    "RunSpec",
    "SerialExecutor",
    "Session",
    "SessionError",
    "ShardExecutor",
    "ShardManifest",
    "SpecError",
    "Sweep",
    "SweepExecutor",
    "encode_entry",
    "grid_key",
    "is_entry_key",
    "load_shard_manifests",
    "make_executor",
    "parse_shard",
    "shard_manifest_paths",
    "shard_of",
    "spec_key",
    "sweep_defaults",
]
