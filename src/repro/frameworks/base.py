"""The framework interface shared by all parallel rendering schemes.

A framework turns a :class:`~repro.scene.scene.Scene` into a
:class:`~repro.stats.metrics.SceneResult` by deciding, per frame, how
draws become work units, which GPM runs each unit, where resources and
framebuffer pages live, and how the final frame is composed.  Everything
mechanical (NUMA resolution, timing, traffic accounting) is delegated to
:class:`~repro.gpu.system.MultiGPUSystem`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig, baseline_system
from repro.gpu.system import MultiGPUSystem
from repro.memory.placement import PlacementPolicy
from repro.pipeline.characterize import DrawCharacterizer
from repro.scene.scene import Frame, Scene
from repro.stats.metrics import FrameResult, SceneResult


class RenderingFramework(abc.ABC):
    """Base class for parallel rendering schemes."""

    #: Stable identifier used in results and experiment tables.
    name: str = "abstract"
    #: Page placement policy the framework's memory image starts from.
    placement_policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH
    #: Execution engine of every machine the framework builds (see
    #: :mod:`repro.engine`); :func:`build_framework` sets the run's.
    engine_name: str = "analytic"

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config or baseline_system()
        self.characterizer = DrawCharacterizer(self.config)
        #: The machine of the most recent :meth:`render_scene` /
        #: :meth:`render_frame` call (trace inspection, diagnostics).
        self.last_system: Optional[MultiGPUSystem] = None

    # -- system construction ------------------------------------------------

    def make_system(self) -> MultiGPUSystem:
        """A fresh machine with this framework's placement policy and
        engine."""
        return MultiGPUSystem(
            self.config, self.placement_policy, self.engine_name
        )

    # -- per-frame behaviour (framework-specific) -----------------------------

    @abc.abstractmethod
    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        """Render one frame on ``system`` (already ``begin_frame``-ed)."""

    # -- scene orchestration ---------------------------------------------------

    def frame_interval_cycles(
        self, frame_results: Sequence[FrameResult]
    ) -> float:
        """Steady-state cycles between frame completions.

        Default: frames render back to back on the whole machine, so the
        interval is the mean steady-state single-frame latency.  AFR
        overrides this with its pipelined schedule.
        """
        if not frame_results:
            raise ValueError("scene has no frames")
        steady = frame_results[1:] if len(frame_results) > 1 else frame_results
        return sum(f.cycles for f in steady) / len(steady)

    def render_scene(self, scene: Scene) -> SceneResult:
        """Render every frame of ``scene`` on one persistent machine.

        Page placement persists across frames (assets stay where the
        first frame placed them), matching steady-state hardware
        behaviour; caches and counters reset per frame.  An empty scene
        is rejected up front — there is nothing to render, and every
        downstream metric divides by the frame count.
        """
        if len(scene) == 0:
            raise ValueError("scene has no frames")
        system = self.make_system()
        self.last_system = system
        results: List[FrameResult] = []
        for frame in scene:
            system.begin_frame()
            results.append(self.render_frame_on(system, frame, scene.name))
        return SceneResult(
            framework=self.name,
            workload=scene.name,
            frames=results,
            frame_interval_cycles=self.frame_interval_cycles(results),
        )

    def release(self) -> None:
        """Let the last machine go (:meth:`MultiGPUSystem.release
        <repro.gpu.system.MultiGPUSystem.release>`), so it is freed when
        the framework is, not at the cyclic collector's next pass."""
        system = self.last_system
        if system is not None:
            self.last_system = None
            system.release()

    def render_frame(self, frame: Frame, workload: str = "adhoc") -> FrameResult:
        """Convenience: render a single frame on a fresh machine."""
        system = self.make_system()
        self.last_system = system
        system.begin_frame()
        return self.render_frame_on(system, frame, workload)


#: Registry of framework constructors, keyed by the names the paper uses.
_REGISTRY: Dict[str, Callable[[Optional[SystemConfig]], RenderingFramework]] = {}


def register_framework(
    name: str,
) -> Callable[[type], type]:
    """Class decorator adding a framework to the registry.

    Re-decorating the same class is an idempotent no-op (modules may be
    re-executed under some import schemes); registering a *different*
    class under a taken name is rejected.
    """

    def decorate(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"framework name {name!r} already registered by "
                f"{existing.__module__}.{existing.__qualname__}"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def _ensure_registered() -> None:
    """Import every framework implementation exactly once.

    The registry is populated by ``@register_framework`` decorators at
    import time; pulling the implementation modules in here makes the
    registry complete regardless of which module the caller imported
    first.
    """
    from repro.frameworks import afr, object_sfr, single, tile_sfr  # noqa: F401
    from repro.core import oovr  # noqa: F401
    from repro.extensions import migration  # noqa: F401


def build_framework(
    name: str, config: Optional[SystemConfig] = None, engine: str = "analytic"
) -> RenderingFramework:
    """Instantiate a registered framework by name, its machines priced
    by the execution engine ``engine`` (see :mod:`repro.engine`).

    Known names: ``baseline``, ``1tbs-bw``, ``afr``, ``tile-v``,
    ``tile-h``, ``object``, ``oo-app``, ``oo-vr``.  Names containing
    ``:`` resolve through the parameterised variant grammar
    (:mod:`repro.frameworks.variants`), e.g. ``oo-vr:no-dhc`` or
    ``baseline:topo=ring``.
    """
    _ensure_registered()
    if name in _REGISTRY:
        framework = _REGISTRY[name](config)
    else:
        from repro.frameworks import variants

        if not variants.is_variant_name(name):
            raise KeyError(
                f"unknown framework {name!r}; have {sorted(_REGISTRY)}"
            )
        framework = variants.build_variant(name, config)
    framework.engine_name = engine
    return framework


def validate_framework_name(name: str) -> None:
    """Raise :class:`KeyError` unless ``name`` would build.

    Accepts registered names and parameterised variants without
    constructing a framework — the cheap check
    :meth:`RunSpec.validate <repro.session.spec.RunSpec.validate>`
    runs per grid cell.
    """
    _ensure_registered()
    if name in _REGISTRY:
        return
    from repro.frameworks import variants

    if variants.is_variant_name(name):
        variants.validate_variant(name)
        return
    raise KeyError(f"unknown framework {name!r}; have {sorted(_REGISTRY)}")


def framework_names() -> List[str]:
    """All registered framework names (after importing implementations).

    Parameterised variants (``oo-vr:no-dhc``, ``baseline:topo=ring``,
    ...) are intentionally not enumerated here — the grammar is open.
    """
    _ensure_registered()
    return sorted(_REGISTRY)
