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

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.config import SystemConfig
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


#: A workload point, as :func:`cached_scene` keys its scene.
SceneKey = Tuple[str, int, int, float]

#: How many scenes :func:`cached_scene` keeps before it evicts the
#: least recently used one.
_SCENE_MEMO_SIZE = 128
#: The memoised scenes, least recently used first.
_SCENES: "OrderedDict[SceneKey, Scene]" = OrderedDict()
_SCENES_LOCK = threading.Lock()


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

    This memo is also what shares frame-derived artefacts: cells of a
    sweep that share a workload point get the *same* :class:`Scene` —
    hence the same :class:`~repro.scene.scene.Frame` objects — so the
    batch groupings and unit tables memoised on each frame
    (:meth:`Frame.derived <repro.scene.scene.Frame.derived>`) are
    reused across frameworks and engine variants within one process.
    A scene leaves the memo wholesale, and its frames' artefacts go
    with it: the serial executor releases each workload point's scene
    (:func:`release_scene`) when its sweep moves on to the next one,
    and otherwise the least recently used of 128 scenes is evicted,
    so the 128-scene bound is also the artefacts' bound.
    ``cached_scene.cache_clear()`` empties the memo, as
    ``functools.lru_cache`` spells it.
    """
    key = (workload, num_frames, seed, draw_scale)
    with _SCENES_LOCK:
        scene = _SCENES.get(key)
        if scene is not None:
            _SCENES.move_to_end(key)
            return scene
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
    with _SCENES_LOCK:
        # Two threads that built one point at once share the first.
        scene = _SCENES.setdefault(key, scene)
        _SCENES.move_to_end(key)
        if len(_SCENES) > _SCENE_MEMO_SIZE:
            _SCENES.popitem(last=False)
    return scene


def release_scene(key: SceneKey) -> None:
    """Drop one workload point's scene from :func:`cached_scene`'s memo.

    A point the memo does not hold is a no-op.  The scene, its frames
    and their artefacts are freed once no caller holds them.
    """
    with _SCENES_LOCK:
        _SCENES.pop(key, None)


def _clear_scenes() -> None:
    with _SCENES_LOCK:
        _SCENES.clear()


cached_scene.cache_clear = _clear_scenes  # type: ignore[attr-defined]


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
    #: Execution engine pricing the cell (see :mod:`repro.engine`):
    #: the one place a run's engine is chosen.  Part of the spec's
    #: cache fingerprint when it names a non-analytic engine.
    engine: str = "analytic"

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

    def scene(self) -> Scene:
        """The (memoised) scene this spec renders.

        Scenes are deterministic per (workload, frames, seed, scale) and
        cached within a process, so sweeps that revisit the same
        workload under different hardware configurations (Figs. 4, 17,
        18) compare identical inputs.
        """
        return cached_scene(*self.scene_key)

    @property
    def scene_key(self) -> SceneKey:
        """The workload point :func:`cached_scene` keys this spec's
        scene by."""
        return (self.workload, self.num_frames, self.seed, self.draw_scale)

    def build(self):
        """The framework instance this spec describes, every machine
        it builds priced by :attr:`engine`.

        The single construction path shared by :meth:`execute` (worker
        processes) and :meth:`Session.run
        <repro.session.session.Session.run>` (which keeps the instance
        for introspection).
        """
        from repro.frameworks.base import build_framework

        return build_framework(self.framework, self.config, self.engine)

    def execute(self) -> SceneResult:
        """Render this cell: fresh framework, memoised scene.

        The machine the cell built is released once its result exists
        (:meth:`RenderingFramework.release
        <repro.frameworks.base.RenderingFramework.release>`), so it is
        freed at once rather than by the cyclic collector.
        """
        framework = self.build()
        with phase("scene"):
            scene = self.scene()
        with phase("execute"):
            result = framework.render_scene(scene)
        framework.release()
        return result

    def record_fields(self) -> dict:
        """The spec's identity columns of a tidy result record."""
        return {name: getattr(self, name) for name in RECORD_FIELDS}
