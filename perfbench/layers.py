"""The one table of traced layers: what to wrap, and what it should move.

Each :class:`Layer` names a per-layer metric prefix (``<name>.calls``
and ``<name>.s`` in the traced run) and the public functions it wraps,
by dotted name.  A dotted name is resolved at install time: the longest
importable module prefix, then attributes down to the function.  A name
that does not resolve at the commit under test is reported as
``absent`` and the run continues, so renaming a function (batched bind
will) never breaks the benchmark — it only shows up as a layer that
stopped being measured.

Patch where the function is *looked up*, not where it is defined:
``repro.engine.base.price_work_unit`` is the module global the engine
calls, so wrapping ``repro.pipeline.timing.price_work_unit`` would
record nothing.

``moves`` records which end-to-end metric the layer should move, on
which workloads; later issues cite layers by these names.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

GRIDS = ("grid-full-analytic", "grid-fast-event")
FULL = ("grid-full-analytic",)
EVENT = ("grid-fast-event",)
REPLAY = ("serve-replay",)


class Layer(NamedTuple):
    name: str
    targets: Tuple[str, ...]
    #: (end-to-end metric, workloads) this layer should move.
    moves: Tuple[str, Tuple[str, ...]]
    #: Where the layer runs on serve-replay: "client" (the replay
    #: process) or "daemon" (``oovr serve``).  Grid workloads run every
    #: layer in their one process.
    side: str = "client"
    #: "span" times the call; "framework" names the span after the
    #: framework instance (``framework.<name>``); "lookup" also counts
    #: non-None results as hits.
    kind: str = "span"


LAYERS: Tuple[Layer, ...] = (
    Layer("session.expand", ("repro.session.session.Sweep.specs",),
          ("setup_s", GRIDS + REPLAY)),
    Layer("scene.cached_scene", ("repro.session.spec.cached_scene",),
          ("grid_s", GRIDS)),
    Layer("pipeline.characterize_frame",
          ("repro.pipeline.characterize.DrawCharacterizer.characterize_frame",),
          ("grid_s", GRIDS)),
    Layer("core.build_batches",
          ("repro.core.middleware.OOMiddleware.build_batches",),
          ("grid_s", GRIDS)),
    Layer("engine.bind", ("repro.engine.base.ExecutionEngine.bind",),
          ("grid_s", FULL)),
    Layer("pipeline.price_work_unit", ("repro.engine.base.price_work_unit",),
          ("grid_s", FULL)),
    Layer("memory.owner_fractions",
          ("repro.memory.placement.PagePlacement.owner_fractions",),
          ("grid_s", FULL)),
    Layer("memory.remote_filter",
          ("repro.memory.remote_cache.RemoteCache.filter",),
          ("grid_s", FULL)),
    Layer("memory.link_transfer",
          ("repro.memory.link.LinkFabric.transfer",
           "repro.extensions.topology.RoutedLinkFabric.transfer"),
          ("grid_s", FULL)),
    Layer("engine.execute", ("repro.engine.base.ExecutionEngine.execute",),
          ("grid_s", GRIDS)),
    Layer("engine.finish_frame",
          ("repro.engine.analytic.AnalyticEngine.finish_frame",
           "repro.engine.event.EventEngine.finish_frame"),
          ("grid_s", EVENT)),
    Layer("engine.stage_flow", ("repro.engine.base.ExecutionEngine.stage_flow",),
          ("grid_s", EVENT)),
    Layer("engine.composition_phase",
          ("repro.engine.base.ExecutionEngine.composition_phase",),
          ("grid_s", EVENT)),
    Layer("session.cache.get", ("repro.session.cache.ResultCache.get",),
          ("grid_s", REPLAY), side="daemon", kind="lookup"),
    Layer("session.cache.put", ("repro.session.cache.ResultCache.put",),
          ("grid_s", EVENT)),
    Layer("service.submit", ("repro.service.client.ServiceClient.submit",),
          ("grid_s", REPLAY)),
    Layer("service.events", ("repro.service.client.ServiceClient.events",),
          ("grid_s", REPLAY)),
    Layer("service.fetch", ("repro.service.client.ServiceClient.fetch",),
          ("grid_s", REPLAY)),
    Layer("service.decode", ("repro.stats.metrics.SceneResult.from_dict",),
          ("grid_s", REPLAY)),
    Layer("session.to_csv", ("repro.session.result.ResultSet.to_csv",),
          ("grid_s", GRIDS + REPLAY)),
    # Spans are named framework.<name>; their self time (framework code
    # outside every other layer) sums into framework.dispatch, and their
    # inclusive time is the per-framework framework.<name>.s row.
    Layer("framework.dispatch",
          ("repro.frameworks.base.RenderingFramework.render_scene",),
          ("grid_s", GRIDS), kind="framework"),
)

#: The nine frameworks registered when the benchmark was defined,
#: pinned by name so a newly registered framework cannot change a grid.
FRAMEWORKS = (
    "1tbs-bw", "afr", "baseline", "baseline-mig", "object",
    "oo-app", "oo-vr", "tile-h", "tile-v",
)

#: Metrics the traced run derives rather than wraps, with what they move.
DERIVED = {
    "import.s": ("setup_s", GRIDS + REPLAY),
    "session.cache.hit_ratio": ("grid_s", REPLAY),
    "service.server.s": ("grid_s", REPLAY),
    "residual.s": ("grid_s", GRIDS + REPLAY),
    "trace.overhead.s": ("none: tracing cost, absent from untraced runs", ()),
    "trace.wall.s": ("none: the traced wall the self times sum to", ()),
    "trace.calls": ("none: wrapped calls recorded as spans", ()),
}


def per_layer_metrics():
    """Every per-layer metric the traced run prints: (name, unit, better)."""
    out = [("import.s", "s", "lower")]
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.s", "s", "lower"))
        if layer.kind == "lookup":
            out.append(("session.cache.hit_ratio", "ratio", "higher"))
    out.extend(
        (f"framework.{name}.s", "s", "lower") for name in FRAMEWORKS
    )
    out += [
        ("service.server.s", "s", "lower"),
        ("residual.s", "s", "lower"),
        ("trace.overhead.s", "s", "lower"),
        ("trace.wall.s", "s", "lower"),
        ("trace.calls", "count", "lower"),
    ]
    return out
