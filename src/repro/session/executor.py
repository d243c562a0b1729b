"""Pluggable sweep execution backends: *what* to run vs. *where*.

``Sweep.run`` expands a grid into :class:`~repro.session.spec.RunSpec`
cells; a :class:`SweepExecutor` decides where those cells execute.
Four backends ship, selectable by name end-to-end (``Sweep.run
(executor=...)``, a :func:`~repro.session.session.sweep_defaults`
block around a figure or study, ``oovr sweep --executor``); any other
object with ``name`` and ``run`` is passed as an instance:

- ``serial`` — in-process, one cell at a time, one scene at a time:
  cells run grouped by the workload point they render, and a group's
  scene leaves the scene memo when the run moves on to the next
  group (unless the cache answered every cell of the group), so the
  scene and its frames' artefacts are held while one group runs
  rather than for the whole grid;
- ``process`` — fans cache misses out over a ``ProcessPoolExecutor``
  (``Sweep.run(jobs=N)`` remains sugar for this backend) in grid
  order (the parent builds no scene; dealing cells to workers by
  workload point measured slower) while gathering results in grid
  order, so records stay byte-identical to a serial run;
- ``shard`` — executes only the deterministic ``shard_index/shard_count``
  slice of the grid (:func:`shard_of` partitions by :func:`spec_key
  <repro.session.cache.spec_key>`, so membership depends on cell
  *content*, never on grid order) and records a :class:`ShardManifest`
  of owned vs. skipped keys next to the per-shard cache entries;
- ``remote`` — submits the grid to an ``oovr serve`` daemon
  (:mod:`repro.service`) and blocks for results; the daemon's worker
  fleet executes the misses and its cache answers repeats.  By name it
  reads the daemon URL from ``$OOVR_SERVER``; ``oovr sweep --server
  URL`` builds the instance directly.

The shard backend is the scatter half of cross-machine sweeps: a
coordinator runs the same grid on N hosts with ``--shard i/N --cache
DIR``, collects the cache directories, ``oovr cache merge``\\ s them
(:meth:`ResultCache.merge <repro.session.cache.ResultCache.merge>`)
and replays the grid unsharded against the merged directory — 100 %
hits, byte-identical exports.

Every executor returns results, and threads an optional
``on_result`` callback — ``on_result(spec, result, cached)`` fired
once per completed cell — in grid order, whatever order its cells
ran in; ``oovr sweep --progress`` uses the callback to print one line
per cell.  A cell is reported only once every cell before it in the
grid has finished, so where cells run out of grid order (the serial
backend on a grid of several workload points) the lines come in
bursts rather than as each cell finishes.

Executors with no work left to place (every cell a cache hit) still
fire the callbacks, so progress output is a complete account of the
grid regardless of cache state.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.profiling import PhaseProfile, capture, phase
from repro.session.cache import ResultCache, atomic_write, spec_key
from repro.session.spec import RunSpec, SceneKey, release_scene
from repro.stats.metrics import SceneResult


class ExecutorError(ValueError):
    """Raised for unknown executor names or malformed shard specs."""


#: ``on_result(spec, result, cached)`` — fired once per completed
#: cell, in grid order; ``cached`` is True for a cache hit.
ResultCallback = Callable[[RunSpec, SceneResult, bool], None]


@runtime_checkable
class SweepExecutor(Protocol):
    """Where a sweep's cells execute.

    ``run`` receives the full grid (specs in deterministic grid order)
    and returns one result slot per spec, aligned by index; a slot is
    ``None`` only when the executor deliberately skipped the cell (the
    shard backend skips cells other shards own).  Cache lookups and
    stores are the executor's responsibility so a backend can overlap
    them with execution however it likes.
    """

    #: Backend name (``serial``/``process``/``shard``/...).
    name: str

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: Optional[ResultCache] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[SceneResult]]:
        ...


def _execute_spec(spec: RunSpec) -> SceneResult:
    """Top-level worker so ``ProcessPoolExecutor`` can pickle it."""
    return spec.execute()


def _lookup(
    specs: Sequence[RunSpec], cache: Optional[ResultCache]
) -> Tuple[List[Optional[SceneResult]], List[bool]]:
    """Per-spec cached results (``None`` on miss) and hit flags."""
    results: List[Optional[SceneResult]] = [None] * len(specs)
    hits = [False] * len(specs)
    if cache is not None:
        for index, spec in enumerate(specs):
            found = cache.get(spec)
            if found is not None:
                results[index] = found
                hits[index] = True
    return results, hits


def _scene_groups(specs: Sequence[RunSpec]) -> Dict[SceneKey, List[int]]:
    """The grid's cells grouped by the scene they read.

    One group per workload point (:attr:`RunSpec.scene_key
    <repro.session.spec.RunSpec.scene_key>`, the key
    :func:`~repro.session.spec.cached_scene` memoises scenes by), in
    order of first appearance; a group lists its cells' grid indices
    in grid order.
    """
    groups: Dict[SceneKey, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.scene_key, []).append(index)
    return groups


class SerialExecutor:
    """In-process execution, one cell at a time, one scene at a time.

    Cells run grouped by the scene they read (:func:`_scene_groups`),
    so a scene and the artefacts memoised on its frames are built,
    shared by the group's cells and let go before the next scene is
    built.  Once a group that executed a cell is done, and another
    group follows, its scene leaves
    :func:`~repro.session.spec.cached_scene`'s memo
    (:func:`~repro.session.spec.release_scene`).  The last group's
    scene stays, so a one-group run (a worker's lease of one workload
    point's cells, a repeated cell) releases nothing, and neither
    does a group the cache answered whole, whose scene the run never
    read.  A caller that runs a second grid over the same scenes
    (both engines of one grid, a reference column) builds them again.

    Results are returned, and ``on_result`` fires, in grid order: a
    cell is reported once every cell before it in the grid has
    finished, so on a grid of several workload points the callbacks
    arrive in bursts, most of them while the last group runs.
    :meth:`_run_cell` is the one per-cell step a subclass overrides.
    """

    name = "serial"

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: Optional[ResultCache] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[SceneResult]]:
        results: List[Optional[SceneResult]] = [None] * len(specs)
        hits = [False] * len(specs)
        reported = 0
        groups = _scene_groups(specs)
        for position, (key, group) in enumerate(groups.items(), 1):
            for index in group:
                results[index], hits[index] = self._run_cell(
                    index, specs[index], cache
                )
                while reported < len(specs) and results[reported] is not None:
                    if on_result is not None:
                        on_result(
                            specs[reported], results[reported], hits[reported]
                        )
                    reported += 1
            if position < len(groups) and not all(
                hits[index] for index in group
            ):
                release_scene(key)
        return results

    def _run_cell(
        self, index: int, spec: RunSpec, cache: Optional[ResultCache]
    ) -> Tuple[SceneResult, bool]:
        """Cell ``index``'s result, and whether the cache answered it."""
        if cache is not None:
            with phase("cache"):
                found = cache.get(spec)
            if found is not None:
                return found, True
        result = _execute_spec(spec)
        if cache is not None:
            with phase("cache"):
                cache.put(spec, result)
        return result, False


class ProfilingSerialExecutor(SerialExecutor):
    """Serial execution capturing one :class:`PhaseProfile` per cell.

    Each cell runs under :func:`repro.profiling.capture`, so the phase
    timers inside the spec/engine/cache layers record into a fresh
    profile; :attr:`profiles` is aligned with the last grid run (one
    entry per spec, cache hits included — those show only ``cache``
    time).  Cells run in :class:`SerialExecutor`'s order and release
    its scenes, so a profiled sweep times the schedule a plain one
    runs, and results are byte-identical: timing never changes what
    executes.  ``Sweep.run(profile=True)`` builds it; it is not
    selectable by name, since only that call returns the profiles.
    """

    def __init__(self) -> None:
        self.profiles: List[PhaseProfile] = []

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: Optional[ResultCache] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[SceneResult]]:
        self.profiles = [PhaseProfile() for _ in specs]
        return super().run(specs, cache=cache, on_result=on_result)

    def _run_cell(
        self, index: int, spec: RunSpec, cache: Optional[ResultCache]
    ) -> Tuple[SceneResult, bool]:
        with capture(self.profiles[index]):
            return super()._run_cell(index, spec, cache)


class ProcessExecutor:
    """Cache misses fanned out over a ``ProcessPoolExecutor``.

    A numerically-identical port of the pool path ``Sweep.run(jobs=N)``
    used to hard-wire: hits resolve up front, misses ship to worker
    processes (scene construction stays memoised per process), and
    results — like ``on_result`` callbacks — are gathered in grid
    order, so exports are byte-identical to a serial run.  A single
    miss (or ``jobs=1``) short-circuits to in-process execution rather
    than paying pool start-up.
    """

    name = "process"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ExecutorError("jobs must be at least 1")
        self.jobs = int(jobs)

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: Optional[ResultCache] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[SceneResult]]:
        specs = list(specs)
        results, hits = _lookup(specs, cache)
        missing = [i for i, result in enumerate(results) if result is None]

        def gather(executed: Iterable[SceneResult]) -> None:
            produced = iter(executed)
            for index, spec in enumerate(specs):
                if results[index] is None:
                    result = next(produced)
                    if cache is not None:
                        cache.put(spec, result)
                    results[index] = result
                if on_result is not None:
                    on_result(spec, results[index], hits[index])

        to_run = [specs[i] for i in missing]
        if self.jobs == 1 or len(missing) <= 1:
            gather(map(_execute_spec, to_run))
        else:
            workers = min(self.jobs, len(missing))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                gather(pool.map(_execute_spec, to_run))
        return results


# ---------------------------------------------------------------------------
# Sharding: deterministic content-addressed grid partition
# ---------------------------------------------------------------------------


def parse_shard(shard: Union[str, Tuple[int, int]]) -> Tuple[int, int]:
    """``"I/N"`` (or an ``(I, N)`` pair) -> validated ``(index, count)``.

    Indices are 0-based: a two-way scatter is ``0/2`` on one host and
    ``1/2`` on the other.
    """
    if isinstance(shard, tuple):
        index, count = shard
    else:
        head, sep, tail = str(shard).partition("/")
        if not sep:
            raise ExecutorError(
                f"bad shard {shard!r}: expected INDEX/COUNT, e.g. 0/2"
            )
        try:
            index, count = int(head), int(tail)
        except ValueError:
            raise ExecutorError(
                f"bad shard {shard!r}: expected INDEX/COUNT, e.g. 0/2"
            ) from None
    if count < 1:
        raise ExecutorError(f"shard count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ExecutorError(
            f"shard index {index} out of range for {count} shard(s) "
            f"(0-based: 0..{count - 1})"
        )
    return index, count


def shard_of(spec: RunSpec, shard_count: int) -> int:
    """The shard owning ``spec`` in an ``shard_count``-way partition.

    Keyed on the cell's stable content address (:func:`spec_key
    <repro.session.cache.spec_key>`), so membership is identical
    across machines, Python hash seeds and grid orderings — every spec
    lands in exactly one shard, and reordering or widening the grid
    never moves a cell between shards.
    """
    if shard_count < 1:
        raise ExecutorError(
            f"shard count must be at least 1, got {shard_count}"
        )
    return int(spec_key(spec), 16) % shard_count


MANIFEST_VERSION = 1

_MANIFEST_SUFFIX = ".manifest.json"


def grid_key(keys: Iterable[str]) -> str:
    """Stable fingerprint of one whole grid (its set of spec keys).

    Order-independent, so two hosts expanding the same sweep agree on
    it; distinct grids sharing one cache directory (the bench suite
    above all) get distinct manifests instead of clobbering each
    other's.
    """
    import hashlib

    canonical = ",".join(sorted(keys))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass
class ShardManifest:
    """What one shard of a scattered sweep owned and skipped.

    Written next to the shard's cache entries so the coordinator can
    audit coverage before (and after) merging: ``owned`` carries the
    key plus human-readable identity of every cell this shard executed,
    ``skipped_keys`` the addresses it left to the other shards.  The
    filename embeds the :func:`grid_key` fingerprint, so several grids
    scattered into one cache directory keep one manifest each.
    """

    shard_index: int
    shard_count: int
    #: One ``{"key", "framework", "workload", "config_label"}`` dict
    #: per owned cell, in grid order.
    owned: List[Dict[str, object]] = field(default_factory=list)
    #: spec_keys of the grid cells other shards own, in grid order.
    skipped_keys: List[str] = field(default_factory=list)

    @property
    def grid_key(self) -> str:
        return grid_key([*self.owned_keys, *self.skipped_keys])

    @property
    def filename(self) -> str:
        return (
            f"shard-{self.shard_index}of{self.shard_count}"
            f"-{self.grid_key[:12]}{_MANIFEST_SUFFIX}"
        )

    @property
    def owned_keys(self) -> List[str]:
        return [str(entry["key"]) for entry in self.owned]

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": MANIFEST_VERSION,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "grid_key": self.grid_key,
            "total_specs": len(self.owned) + len(self.skipped_keys),
            "owned": self.owned,
            "skipped_keys": self.skipped_keys,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardManifest":
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"shard manifest from another schema version: "
                f"{data.get('version')!r}"
            )
        return cls(
            shard_index=int(data["shard_index"]),  # type: ignore[arg-type]
            shard_count=int(data["shard_count"]),  # type: ignore[arg-type]
            owned=list(data.get("owned", ())),  # type: ignore[arg-type]
            skipped_keys=[
                str(key) for key in data.get("skipped_keys", ())
            ],
        )

    def write(self, root: Union[str, Path]) -> Path:
        """Write atomically (unique temp + replace), like cache entries:
        a shard process killed mid-write must not leave a torn manifest
        for the merge to propagate."""
        path = Path(root) / self.filename
        atomic_write(path, json.dumps(self.to_dict(), indent=1) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def shard_manifest_paths(root: Union[str, Path]) -> List[Path]:
    """Every shard-manifest file under a cache directory, sorted."""
    return sorted(
        path
        for path in Path(root).glob(f"*{_MANIFEST_SUFFIX}")
        if path.is_file()
    )


class ShardExecutor:
    """One deterministic slice of the grid; the scatter half of a sweep.

    Executes (through ``inner`` — serial by default, a
    :class:`ProcessExecutor` when built with ``jobs > 1``) only the
    cells :func:`shard_of` assigns to ``shard_index``, returns ``None``
    slots for the rest, and — when a cache is in play — writes a
    :class:`ShardManifest` of owned vs. skipped keys into the cache
    directory so the merge half can audit coverage.
    """

    name = "shard"

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        inner: Optional[SweepExecutor] = None,
    ) -> None:
        self.shard_index, self.shard_count = parse_shard(
            (shard_index, shard_count)
        )
        self.inner: SweepExecutor = inner or SerialExecutor()

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: Optional[ResultCache] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[SceneResult]]:
        specs = list(specs)
        owned_indices = [
            index
            for index, spec in enumerate(specs)
            if shard_of(spec, self.shard_count) == self.shard_index
        ]
        inner_results = self.inner.run(
            [specs[index] for index in owned_indices],
            cache=cache,
            on_result=on_result,
        )
        results: List[Optional[SceneResult]] = [None] * len(specs)
        for index, result in zip(owned_indices, inner_results):
            results[index] = result
        if cache is not None:
            self.manifest_for(specs).write(cache.root)
        return results

    def manifest_for(self, specs: Sequence[RunSpec]) -> ShardManifest:
        """The manifest this shard records for ``specs`` (grid order)."""
        manifest = ShardManifest(self.shard_index, self.shard_count)
        for spec in specs:
            key = spec_key(spec)
            if shard_of(spec, self.shard_count) == self.shard_index:
                manifest.owned.append(
                    {
                        "key": key,
                        "framework": spec.framework,
                        "workload": spec.workload,
                        "config_label": spec.config_label,
                    }
                )
            else:
                manifest.skipped_keys.append(key)
        return manifest


#: The built-in backends (for help strings and error messages).
EXECUTOR_NAMES = ("serial", "process", "shard", "remote")


def make_executor(
    executor: Optional[Union[str, SweepExecutor]] = None,
    jobs: int = 1,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
) -> SweepExecutor:
    """Resolve a backend: instance, built-in name, or inferred.

    - an executor *instance* passes through unchanged (it already
      carries its own configuration, so ``jobs`` is ignored and
      combining it with ``shard=`` is an error) — this is how a custom
      backend is used;
    - a *name* builds one of :data:`EXECUTOR_NAMES`;
    - ``None`` infers the classic behaviour: ``shard`` given ->
      ``shard``, ``jobs > 1`` -> ``process``, else ``serial``.
    """
    if jobs < 1:
        raise ExecutorError("jobs must be at least 1")
    parsed = parse_shard(shard) if shard is not None else None
    if executor is not None and not isinstance(executor, str):
        if parsed is not None:
            raise ExecutorError(
                "cannot combine shard= with an executor instance; "
                "construct ShardExecutor(index, count, inner=...) directly"
            )
        return executor
    if executor is None:
        if parsed is not None:
            executor = "shard"
        else:
            executor = "process" if jobs > 1 else "serial"
    if executor not in EXECUTOR_NAMES:
        raise ExecutorError(
            f"unknown executor {executor!r}; "
            f"have {sorted(EXECUTOR_NAMES)}"
        )
    if executor == "shard":
        if parsed is None:
            raise ExecutorError(
                "the shard executor needs a slice: pass shard='I/N' "
                "(e.g. Sweep.run(executor='shard', shard='0/2') or "
                "oovr sweep --shard 0/2)"
            )
        inner = ProcessExecutor(jobs) if jobs > 1 else SerialExecutor()
        return ShardExecutor(*parsed, inner=inner)
    if parsed is not None:
        raise ExecutorError(
            f"executor {executor!r} does not shard; drop shard= or select "
            "the 'shard' executor"
        )
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessExecutor(jobs)
    # The service layer imports this module, so resolve it lazily; the
    # daemon URL comes from $OOVR_SERVER (the CLI's --server constructs
    # a RemoteExecutor instance directly instead).
    from repro.service.client import RemoteExecutor

    return RemoteExecutor.from_env()
