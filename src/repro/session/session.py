"""Fluent builders for single runs and cartesian sweeps.

``Session`` configures and executes one cell::

    result = Session().framework("oo-vr").workload("HL2-1280").fast().run()

``Sweep`` expands cartesian (config x framework x workload) grids into
:class:`~repro.session.spec.RunSpec` lists and hands them to a
pluggable :class:`~repro.session.executor.SweepExecutor` backend —
``serial``, ``process`` (``jobs=4`` is sugar for it) or ``shard``
(one deterministic slice of a cross-machine scatter) — collecting a
:class:`~repro.session.result.ResultSet`::

    records = (
        Sweep()
        .frameworks("baseline", "oo-vr")
        .workloads("HL2-1280", "WE")
        .fast()
        .run(jobs=4)
        .to_records()
    )

Execution is deterministic: specs run (or are gathered) in grid order,
so a parallel sweep produces records identical to a serial one, and a
sharded-then-merged sweep replays byte-identically to either.

*Where* a grid runs is said once, around the call that runs it:
:func:`sweep_defaults` sets ``jobs``/``cache``/``executor``/
``on_result`` for every ``Sweep.run`` inside the block, so a figure or
study function that runs several sweeps takes none of them::

    with sweep_defaults(jobs=4, cache=".oovr-cache"):
        fig15_oovr_speedup(FAST)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.profiling import PhaseProfile, capture, phase
from repro.scene.scene import Scene
from repro.session.cache import ResultCache
from repro.session.executor import (
    ProfilingSerialExecutor,
    ResultCallback,
    SweepExecutor,
    make_executor,
)
from repro.session.result import ResultSet
from repro.session.spec import (
    DEFAULT_FRAMES,
    DEFAULT_SEED,
    FAST,
    FULL,
    ExperimentConfig,
    RunSpec,
)
from repro.stats.metrics import SceneResult


class SessionError(ValueError):
    """Raised when a builder is incomplete or inconsistent."""


#: The enclosing :func:`sweep_defaults` blocks' settings, merged.  Each
#: block sets a fresh dict, so the default is never mutated.
_SWEEP_DEFAULTS: ContextVar[Dict[str, object]] = ContextVar(
    "sweep_defaults", default={}
)


@contextmanager
def sweep_defaults(
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    executor: Optional[Union[str, SweepExecutor]] = None,
    on_result: Optional[ResultCallback] = None,
) -> Iterator[None]:
    """Say once where every :meth:`Sweep.run` inside the block runs.

    Each value is the :meth:`Sweep.run` argument of the same name and
    applies to every call that leaves it unset; a value passed to the
    call wins.  A nested block overrides only the keys it names, and
    leaving a block restores the enclosing settings (also when the
    block raises).  The settings live in a
    :class:`~contextvars.ContextVar`, so a thread started inside the
    block does not see them.  ``jobs < 1`` raises
    :class:`SessionError` on entry, and a ``cache`` given as a
    directory path opens one :class:`~repro.session.cache.ResultCache`
    for the whole block, so its stats count every sweep inside it.
    """
    if jobs is not None and jobs < 1:
        raise SessionError("jobs must be at least 1")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    named = {
        "jobs": jobs,
        "cache": cache,
        "executor": executor,
        "on_result": on_result,
    }
    settings = dict(_SWEEP_DEFAULTS.get())
    settings.update({k: v for k, v in named.items() if v is not None})
    token = _SWEEP_DEFAULTS.set(settings)
    try:
        yield
    finally:
        _SWEEP_DEFAULTS.reset(token)


class _ScaleMixin:
    """The scale knobs shared by ``Session`` and ``Sweep``."""

    def __init__(self) -> None:
        self._num_frames: int = DEFAULT_FRAMES
        self._seed: int = DEFAULT_SEED
        self._draw_scale: float = 1.0
        self._engine: str = "analytic"

    def engine(self, name: str):
        """Select the execution engine (``analytic``, the default, or
        ``event``) for every cell this builder produces: the spec's
        :attr:`~repro.session.spec.RunSpec.engine`, the one place a
        run's engine is chosen (see :mod:`repro.engine`).  Part of the
        spec's cache fingerprint when it names a non-analytic engine.
        """
        from repro.engine import EngineError, validate_engine_name

        try:
            validate_engine_name(name)
        except EngineError as error:
            raise SessionError(str(error)) from error
        self._engine = name
        return self

    def frames(self, num_frames: int):
        if num_frames < 1:
            raise SessionError("need at least one frame")
        self._num_frames = int(num_frames)
        return self

    def seed(self, seed: int):
        if seed < 0:
            raise SessionError("seed must be non-negative")
        self._seed = int(seed)
        return self

    def scale(self, draw_scale: float):
        if draw_scale <= 0:
            raise SessionError("draw_scale must be positive")
        self._draw_scale = float(draw_scale)
        return self

    def preset(self, experiment: ExperimentConfig):
        """Apply an :class:`ExperimentConfig`'s scale/frames/seed."""
        self._num_frames = experiment.num_frames
        self._seed = experiment.seed
        self._draw_scale = experiment.draw_scale
        return self

    def fast(self):
        """The reduced preset used by tests and quick CLI passes."""
        return self.preset(FAST)

    def full(self):
        """The full-scale preset used by the benchmark harness."""
        return self.preset(FULL)


def _config_label(config: SystemConfig) -> str:
    """A readable default label for a custom config axis point."""
    return (
        f"{config.num_gpms}gpm@{config.link.bytes_per_cycle:.0f}GB/s"
    )


class Session(_ScaleMixin):
    """Fluent builder for one (framework, workload) run."""

    def __init__(self) -> None:
        super().__init__()
        self._framework: Optional[str] = None
        self._workload: Optional[str] = None
        self._config: Optional[SystemConfig] = None
        self._config_label: Optional[str] = None
        #: The framework instance of the last ``run()`` (for engine
        #: introspection, e.g. dispatch timelines).
        self.last_framework = None
        #: The :class:`~repro.profiling.PhaseProfile` of the last
        #: ``run(profile=True)``; ``None`` after unprofiled runs.
        self.last_profile: Optional[PhaseProfile] = None

    def framework(self, name: str) -> "Session":
        self._framework = name
        return self

    def workload(self, name: str) -> "Session":
        self._workload = name
        return self

    def config(
        self, config: Optional[SystemConfig], label: Optional[str] = None
    ) -> "Session":
        self._config = config
        self._config_label = label
        return self

    def spec(self) -> RunSpec:
        """The validated :class:`RunSpec` this builder describes."""
        if self._framework is None:
            raise SessionError("no framework selected; call .framework(name)")
        if self._workload is None:
            raise SessionError("no workload selected; call .workload(name)")
        label = self._config_label
        if label is None:
            label = "base" if self._config is None else _config_label(self._config)
        return RunSpec(
            framework=self._framework,
            workload=self._workload,
            config=self._config,
            num_frames=self._num_frames,
            seed=self._seed,
            draw_scale=self._draw_scale,
            config_label=label,
            engine=self._engine,
        ).validate()

    def scene(self) -> Scene:
        """The (memoised) scene the run would render.

        Only the workload and scale knobs are needed, so the framework
        may be left unset (used by Table 3's workload audit).
        """
        if self._workload is None:
            raise SessionError("no workload selected; call .workload(name)")
        probe = RunSpec(
            framework="baseline",
            workload=self._workload,
            num_frames=self._num_frames,
            seed=self._seed,
            draw_scale=self._draw_scale,
        ).validate()
        return probe.scene()

    def run(self, profile: bool = False) -> SceneResult:
        """Execute the run and return its :class:`SceneResult`.

        Unlike :meth:`RunSpec.execute <repro.session.spec.RunSpec.execute>`
        (which worker processes call), the framework instance is kept on
        :attr:`last_framework` for introspection — dispatch records,
        ``last_system.last_trace``.  With ``profile=True`` the run is
        additionally timed phase by phase (scene build, binding,
        pricing, execution) into :attr:`last_profile`; the numerical
        result is unchanged.
        """
        spec = self.spec()
        framework = spec.build()
        self.last_framework = framework
        self.last_profile = None
        if not profile:
            return framework.render_scene(spec.scene())
        self.last_profile = PhaseProfile()
        with capture(self.last_profile):
            with phase("scene"):
                scene = spec.scene()
            with phase("execute"):
                return framework.render_scene(scene)


class Sweep(_ScaleMixin):
    """Cartesian (config x framework x workload) grid of runs."""

    def __init__(self) -> None:
        super().__init__()
        self._frameworks: List[str] = []
        self._workloads: List[str] = []
        self._configs: List[Tuple[str, Optional[SystemConfig]]] = []
        self._default_workloads: Sequence[str] = FULL.workloads

    # -- axes ---------------------------------------------------------------

    def frameworks(self, *names: str) -> "Sweep":
        """Append framework axis points (order defines run order)."""
        for name in names:
            if name in self._frameworks:
                raise SessionError(f"framework {name!r} listed twice")
            self._frameworks.append(name)
        return self

    def workloads(self, *names: str) -> "Sweep":
        """Append workload axis points (order defines run order)."""
        for name in names:
            if name in self._workloads:
                raise SessionError(f"workload {name!r} listed twice")
            self._workloads.append(name)
        return self

    def config(
        self, config: SystemConfig, label: Optional[str] = None
    ) -> "Sweep":
        """Append a system-config axis point (e.g. a link bandwidth)."""
        label = label or _config_label(config)
        if any(existing == label for existing, _ in self._configs):
            raise SessionError(f"config label {label!r} listed twice")
        self._configs.append((label, config))
        return self

    def preset(self, experiment: ExperimentConfig) -> "Sweep":
        super().preset(experiment)
        self._default_workloads = experiment.workloads
        return self

    # -- expansion and execution --------------------------------------------

    def specs(self) -> List[RunSpec]:
        """The validated grid, in deterministic config>framework>workload order."""
        if not self._frameworks:
            raise SessionError("no frameworks selected; call .frameworks(...)")
        workloads = self._workloads or list(self._default_workloads)
        if not workloads:
            raise SessionError("no workloads selected; call .workloads(...)")
        configs = self._configs or [("base", None)]
        out: List[RunSpec] = []
        for label, config in configs:
            for framework in self._frameworks:
                for workload in workloads:
                    out.append(
                        RunSpec(
                            framework=framework,
                            workload=workload,
                            config=config,
                            num_frames=self._num_frames,
                            seed=self._seed,
                            draw_scale=self._draw_scale,
                            config_label=label,
                            engine=self._engine,
                        ).validate()
                    )
        return out

    def run(
        self,
        jobs: Optional[int] = None,
        cache: Optional[Union[ResultCache, str, Path]] = None,
        executor: Optional[Union[str, SweepExecutor]] = None,
        on_result: Optional[ResultCallback] = None,
        shard: Optional[Union[str, Tuple[int, int]]] = None,
        profile: bool = False,
    ) -> ResultSet:
        """Execute the grid into a :class:`ResultSet`.

        ``jobs``, ``cache``, ``executor`` and ``on_result`` left unset
        take the enclosing :func:`sweep_defaults` block's values;
        ``jobs`` set by neither is 1.

        Execution is delegated to a pluggable
        :class:`~repro.session.executor.SweepExecutor`.  ``executor``
        names a built-in backend (``"serial"``, ``"process"``,
        ``"shard"``, ``"remote"``) or passes an instance; left ``None``
        it is inferred — ``shard`` given selects ``shard``, ``jobs > 1``
        selects ``process`` (so ``run(jobs=4)`` keeps its historical
        meaning), else ``serial``.  Whatever the backend, results are
        gathered in grid order, so records (and any CSV or JSON
        export) are identical across backends.

        ``cache`` (a :class:`~repro.session.cache.ResultCache` or a
        directory path) memoises results by :func:`spec_key
        <repro.session.cache.spec_key>`: already-executed cells are
        loaded instead of re-rendered, misses are executed and stored.
        The serialisation round trip is exact, so a cached run stays
        byte-identical to an uncached one.

        ``shard`` (``"I/N"`` or an ``(index, count)`` pair) runs only
        the deterministic slice of the grid owned by shard ``I`` of
        ``N`` — the scatter half of a cross-machine sweep (see
        :mod:`repro.session.executor`).  The returned set then holds
        just the owned cells; merge the shards' caches
        (:meth:`ResultCache.merge
        <repro.session.cache.ResultCache.merge>`) or record sets
        (:meth:`ResultSet.merge <repro.session.result.ResultSet.merge>`)
        to reassemble the grid.

        ``on_result(spec, result, cached)`` fires once per completed
        cell, in grid order (``oovr sweep --progress`` prints one line
        per call).

        ``profile=True`` times every cell phase by phase (scene build,
        binding, pricing, execution, cache I/O) and attaches one
        :class:`~repro.profiling.PhaseProfile` per run to the returned
        set (:attr:`ResultSet.profiles
        <repro.session.result.ResultSet.profiles>`, plus
        ``profile_*_s`` record columns).  Profiling forces the serial
        backend — wall-clock timings from parallel workers would not
        be comparable — so it cannot be combined with ``jobs``,
        ``executor`` or ``shard`` (``executor="serial"`` is accepted).
        """
        block = _SWEEP_DEFAULTS.get()
        jobs = block.get("jobs", 1) if jobs is None else jobs
        cache = block.get("cache") if cache is None else cache
        executor = block.get("executor") if executor is None else executor
        on_result = block.get("on_result") if on_result is None else on_result
        if jobs < 1:
            raise SessionError("jobs must be at least 1")
        specs = self.specs()
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if profile:
            if jobs != 1 or shard is not None or (
                executor is not None and executor != "serial"
            ):
                raise SessionError(
                    "profile=True runs serially; drop jobs/executor/shard"
                )
            backend: SweepExecutor = ProfilingSerialExecutor()
        else:
            backend = make_executor(executor, jobs=jobs, shard=shard)
        results = backend.run(specs, cache=cache, on_result=on_result)
        if len(results) != len(specs):
            raise SessionError(
                f"executor {getattr(backend, 'name', backend)!r} returned "
                f"{len(results)} results for {len(specs)} specs"
            )
        kept = [
            (spec, result)
            for spec, result in zip(specs, results)
            if result is not None
        ]
        profiles = backend.profiles if profile else None
        return ResultSet(kept, profiles=profiles)
