"""Run specifications: the atomic unit of every experiment.

A :class:`RunSpec` names one cell of the paper's evaluation grid —
(framework, workload, system config, frames, seed, draw scale) — and
knows how to execute itself into a
:class:`~repro.stats.metrics.SceneResult`.  Specs are frozen and
picklable, so a sweep can ship them to worker processes unchanged.

:class:`ExperimentConfig` (with the :data:`FAST` / :data:`FULL`
presets) captures the scale knobs shared by a whole grid; it is the
canonical home of what :mod:`repro.experiments.runner` used to define.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.plan.store import stamp_plan_content_keys
from repro.profiling import add_counter, phase
from repro.scene.benchmarks import (
    WORKLOADS,
    make_benchmark_scene,
    parse_workload,
)
from repro.scene.scene import Scene
from repro.stats.metrics import SceneResult


class SpecError(ValueError):
    """Raised when a run specification is incomplete or inconsistent."""


#: Default scene length; AFR needs >= num_gpms frames to show pipelining.
DEFAULT_FRAMES = 3
#: Default scene-generation seed (the paper's publication year).
DEFAULT_SEED = 2019
#: Draw scale of the reduced preset used by tests and quick CLI passes.
FAST_SCALE = 0.15
#: Scene length of the reduced preset.
FAST_FRAMES = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by every run of an experiment grid.

    ``draw_scale`` shrinks workloads uniformly (the fast preset uses
    0.15); benchmarks run at 1.0.  ``num_frames`` is the scene length.
    """

    draw_scale: float = 1.0
    num_frames: int = DEFAULT_FRAMES
    seed: int = DEFAULT_SEED
    workloads: Sequence[str] = WORKLOADS

    def __post_init__(self) -> None:
        if self.draw_scale <= 0:
            raise ValueError("draw_scale must be positive")
        if self.num_frames < 1:
            raise ValueError("need at least one frame")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


#: The full-scale preset used by the benchmark harness.
FULL = ExperimentConfig()
#: The reduced preset for quick runs and the test suite.
FAST = ExperimentConfig(draw_scale=FAST_SCALE, num_frames=FAST_FRAMES)


@lru_cache(maxsize=128)
def cached_scene(
    workload: str, num_frames: int, seed: int, draw_scale: float
) -> Scene:
    """The per-process memoised scene for one workload point.

    The single scene-construction path shared by :meth:`RunSpec.scene`,
    :meth:`Session.scene <repro.session.session.Session.scene>` and the
    legacy ``runner.scene_for`` helper.  It builds the scene with the
    vectorized generator and reports the ``scene_build_s``,
    ``scene_objects_built`` and ``scene_frames_built`` counters to any
    active :func:`repro.profiling.capture`.

    This memo is also the identity source the reuse cache
    (:mod:`repro.reuse`) builds on: cells of a sweep that share a
    workload point get the *same* :class:`Scene` — hence the same
    :class:`~repro.scene.scene.Frame` objects — so frame-anchored
    artefacts (batch groupings, characterised counters) are reused
    across frameworks and engine variants within one process.  An
    ``lru_cache`` eviction replaces the scene wholesale; the reuse
    cache's identity anchors make the old frames' entries unreachable
    rather than stale.

    Each frame is stamped with its plan content key
    (:func:`repro.plan.store.stamp_plan_content_keys`), so the
    compiled-plan store can address frame-derived plans by content.
    Frames from trace replays or hand-built scenes never get the
    stamp, which leaves the plan store inert for them.
    """
    start = time.perf_counter()
    scene = make_benchmark_scene(
        workload, num_frames=num_frames, seed=seed, draw_scale=draw_scale
    )
    add_counter("scene_build_s", time.perf_counter() - start)
    add_counter(
        "scene_objects_built",
        sum(len(frame.objects) for frame in scene.frames),
    )
    add_counter("scene_frames_built", len(scene.frames))
    stamp_plan_content_keys(scene, workload, num_frames, seed, draw_scale)
    return scene


#: The identity columns every tidy result record carries, in column
#: order.  ``ResultSet.select`` validates its ``where`` keys against
#: this list so a typo cannot silently match nothing.
RECORD_FIELDS = (
    "framework",
    "workload",
    "config_label",
    "num_frames",
    "seed",
    "draw_scale",
)


@dataclass(frozen=True)
class RunSpec:
    """One (framework, workload, config) cell of the evaluation grid."""

    framework: str
    workload: str
    config: Optional[SystemConfig] = None
    num_frames: int = DEFAULT_FRAMES
    seed: int = DEFAULT_SEED
    draw_scale: float = 1.0
    #: Label identifying the config axis in records (e.g. "64GB/s").
    config_label: str = "base"
    #: Execution engine pricing the cell (see :mod:`repro.engine`).
    #: ``None`` (the default) defers to the framework's own selection
    #: (variant modifier or config engine, else ``"analytic"``); an
    #: explicit name — including ``"analytic"`` — overrides it.  Part
    #: of the spec's cache fingerprint when it names a non-analytic
    #: engine.
    engine: Optional[str] = None

    def validate(self) -> "RunSpec":
        """Check the spec against the registries; return it for chaining."""
        from repro.engine import EngineError, validate_engine_name
        from repro.frameworks.base import validate_framework_name

        try:
            # Accepts registered names and parameterised variants like
            # "oo-vr:no-dhc" or "baseline:topo=ring".
            validate_framework_name(self.framework)
        except KeyError as error:
            raise SpecError(error.args[0]) from error
        try:
            # Accepts the nine WORKLOADS points and bare abbreviations
            # like "DM3" (default resolution), matching scene builders.
            parse_workload(self.workload)
        except KeyError as error:
            raise SpecError(f"unknown workload: {error.args[0]}") from error
        if self.engine is not None:
            try:
                validate_engine_name(self.engine)
            except EngineError as error:
                raise SpecError(str(error)) from error
        if self.num_frames < 1:
            raise SpecError("need at least one frame")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")
        if self.draw_scale <= 0:
            raise SpecError("draw_scale must be positive")
        if self.config is not None:
            self.config.validate()
        return self

    def with_preset(self, experiment: ExperimentConfig) -> "RunSpec":
        """A copy with the preset's scale/frames/seed applied."""
        return replace(
            self,
            draw_scale=experiment.draw_scale,
            num_frames=experiment.num_frames,
            seed=experiment.seed,
        )

    def scene(self) -> Scene:
        """The (memoised) scene this spec renders.

        Scenes are deterministic per (workload, frames, seed, scale) and
        cached within a process, so sweeps that revisit the same
        workload under different hardware configurations (Figs. 4, 17,
        18) compare identical inputs.
        """
        return cached_scene(
            self.workload, self.num_frames, self.seed, self.draw_scale
        )

    @property
    def effective_engine(self) -> str:
        """The engine that actually prices this cell.

        The engine can be chosen three ways; precedence mirrors how
        :meth:`build` layers them: an explicit :attr:`engine` field
        (even ``"analytic"``) overrides everything, else the last
        ``engine=`` modifier in a variant framework name
        (``oo-vr:engine=event`` — applied after construction by the
        variant builder), else the config's ``engine``.  Result
        provenance (``ResultSet`` records and ``select(engine=...)``)
        keys on this, not the raw field.
        """
        from repro.frameworks.variants import engine_modifier

        if self.engine is not None:
            return self.engine
        chosen = engine_modifier(self.framework)
        if chosen is not None:
            return chosen
        if self.config is not None:
            return self.config.engine
        return "analytic"

    def build(self):
        """The framework instance this spec describes, engine applied.

        An explicit :attr:`engine` overrides the built framework's
        config engine *after* construction — so ``engine="analytic"``
        really does force the analytic model even on an
        ``:engine=event`` variant, while the ``None`` default leaves
        the framework's own selection alone (schemes that transform
        their config — e.g. ``1tbs-bw`` — keep doing so).  The single
        construction path shared by :meth:`execute` (worker processes)
        and :meth:`Session.run <repro.session.session.Session.run>`
        (which keeps the instance for introspection).
        """
        from repro.frameworks.base import build_framework

        framework = build_framework(self.framework, self.config)
        if self.engine is not None:
            framework.config = framework.config.with_engine(self.engine)
        return framework

    def execute(self) -> SceneResult:
        """Render this cell: fresh framework, memoised scene."""
        framework = self.build()
        with phase("scene"):
            scene = self.scene()
        with phase("execute"):
            return framework.render_scene(scene)

    def record_fields(self) -> dict:
        """The spec's identity columns of a tidy result record."""
        return {name: getattr(self, name) for name in RECORD_FIELDS}
