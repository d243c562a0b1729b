"""The slice pass: a statically scheduled frame, bound in one batch.

Four of the paper's software schemes fix every frame's assignment
before it runs: the baseline family splits each draw evenly over all
GPMs (Sec. 2.3), tile-level SFR renders each draw's share of every
strip it overlaps on that strip's GPM (Sec. 4.2), object-level SFR
deals whole draws out round robin (Sec. 4.3) and AFR renders a frame
on one GPM (Sec. 4.1).  Each hands :func:`execute_split` (behind
:meth:`ExecutionEngine.execute_split
<repro.engine.base.ExecutionEngine.execute_split>`) two sets of
columns: the frame's units as a
:class:`~repro.pipeline.workunit.UnitColumns` table — per-unit counts,
touches in CSR order, one resource per distinct resource — which it
reads, memoised on the frame, straight from the frame's counters
(:meth:`DrawCharacterizer.unit_columns
<repro.pipeline.characterize.DrawCharacterizer.unit_columns>`), and a
:class:`SliceSchedule` — slices in visit order, each one unit on one
GPM with its own shares, inflation, framebuffer target and command
source.  No ``WorkUnit``, ``Touch`` or per-touch ``Resource`` is
built.  Bound one slice at a time (``with_screen_share``,
``stage_unit``, ``bind``, ``execute``), every slice is re-split,
re-staged, re-priced and re-bound in scalar Python; the pass binds the
schedule in one go:

- every slice's shape and Eq. 3 price are derived as columns, gathered
  from the table by unit index
  (:func:`~repro.pipeline.timing.stage_cycles`, shared with
  ``price_work_unit``);
- the pass interns the resources it visits in first-visit order
  (:func:`~repro.columns.first_use`, which sorts no row), and every
  decision below is made once per resource or per (resource, GPM)
  pair, in the module that owns it, over whole columns;
- the optional staging prelude resolves every (touch, GPM) visit's
  copy shortfall in visit order as columns
  (:meth:`StagingManager.stage_visits
  <repro.gpu.staging.StagingManager.stage_visits>`, the rules of
  ``_stage_touch``), and each slice's copy lands before its render,
  as :meth:`~repro.engine.base.ExecutionEngine.stage_flow` lands it:
  fabric and DRAM bytes, ``staging`` phase bytes and the ``stage``
  stall on the GPM clock;
- owner maps are read once per visited resource
  (:meth:`PagePlacement.owner_maps
  <repro.memory.placement.PagePlacement.owner_maps>`, placing an
  unplaced resource at its first visit); behind a staging prelude
  every visited pair is already local, so the rows are the visits
  themselves;
- the frame's (touch, owner), framebuffer-target and command rows are
  laid out in visit order — slice, texture then vertex touches, page
  owners, targets, command — and the L2 miss model and the
  remote-cache crossing run as numpy column kernels over them
  (:func:`~repro.memory.cache.miss_bytes_columns`,
  :func:`~repro.memory.remote_cache.filter_columns`: the scalar
  formulas, elementwise, whose row-by-row forms are references in
  ``tests/oracles.py``);
- the migration observer, when one is attached, is handed all of a
  pass's crossing rows in one call;
- the GPM clocks and progress counters advance per GPM in visit order;
  the pass builds no trace interval, but hands its clock charges
  (``SplitSlices.ops``) to the engine's ``_note_split`` hook, where the
  analytic engine logs them as spans and the event engine records its
  jobs in their order.

Every side effect lands bit-identically to the per-slice path.  Floats
accumulate in visit order only — ``np.add.at``, ``np.add.accumulate``
or a plain loop, never ``np.sum``, whose pairwise summation rounds
differently — dict keys are inserted in first-use order, and each
slice's render-phase bytes are the builtin ``sum()`` over the same flow
sequence the scalar bind sums.  The prelude may place every visited
resource before the first bind reads it: a staged visit leaves its
resource fully local to the visiting GPM (placed there, homed there or
replicated there), and nothing later in the frame takes that away.
The per-slice ``bind``, ``execute``, ``stage_unit`` and
``owner_fractions`` stay the production path of the clock-driven
dispatchers (OO-VR, OO_APP) and are this pass's oracle.  The test
suite's oracle table (``tests/oracles.py``) binds a schedule through
them slice by slice, its per-slice frame bodies stand in for the
baseline family's ``bind_frame`` and the others' ``render_frame_on``,
characterising ``WorkUnit`` objects, and each column entry point (the
owner rows, the prelude, the observer's rows and the interning) has a
one-at-a-time reference there.  ``tests/test_engine.py::TestSplitBind``
hands the pass ``UnitColumns.from_units(units)`` and asserts every
counter, trace, recorded event-engine job and staged byte equal with
``==`` to both.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import columns
from repro.engine.base import KIND_TO_TRAFFIC
from repro.memory.address import Resource
from repro.memory.cache import miss_bytes_columns
from repro.memory.link import TRAFFIC_TYPES, TrafficType
from repro.memory.placement import PagePlacement
from repro.memory.remote_cache import filter_columns
from repro.pipeline.timing import stage_cycles
from repro.pipeline.workunit import UnitColumns
from repro.profiling import phase as profiled_phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.base import ExecutionEngine
    from repro.gpu.staging import StagingManager
    from repro.gpu.system import FramebufferTargets, MultiGPUSystem

__all__ = ["SliceSchedule", "SplitSlices", "execute_split", "slice_schedule"]

_CODE = {traffic: code for code, traffic in enumerate(TRAFFIC_TYPES)}
_KIND_CODE = {kind: _CODE[traffic] for kind, traffic in KIND_TO_TRAFFIC.items()}
#: Units bound per pass of :func:`execute_split`.  A whole full-scale
#: frame's (touch, owner) rows at once raised the full analytic grid's
#: peak RSS by about a fifth.  On a 2-vCPU host, 192-unit passes
#: measured alike in time with 256-unit ones and held both benchmark
#: grids' peak RSS about 1 MB lower; 128-unit passes made the baseline
#: family's full-scale cells about 10% slower.
_CHUNK_UNITS = 192
_DEPTH_THEN_WRITE = np.array(
    [_CODE[TrafficType.ZTEST], _CODE[TrafficType.FRAMEBUFFER]], np.int64
)


class SliceSchedule(NamedTuple):
    """A statically scheduled frame: its slices, in visit order.

    Slice ``s`` renders unit ``unit[s]`` of the frame's
    :class:`~repro.pipeline.workunit.UnitColumns`, shaped as that unit's
    ``WorkUnit.with_screen_share(pixel_share[s], geometry_share[s],
    unique_inflation[s], ..., stream_inflation[s])``, on GPM ``gpm[s]``
    under ``labels[s]``, its commands shipped from GPM
    ``command_source[s]``.  Every column has one entry per slice;
    :func:`slice_schedule` builds one.
    """

    unit: np.ndarray
    gpm: np.ndarray
    labels: Sequence[str]
    pixel_share: np.ndarray
    geometry_share: np.ndarray
    unique_inflation: np.ndarray
    stream_inflation: np.ndarray
    command_source: np.ndarray
    #: Each slice's ``factor_scale`` under a staging prelude.
    stage_scale: np.ndarray
    #: The owner -> fraction map every slice's framebuffer bytes go to,
    #: or ``None``: each slice writes its own GPM's region.
    fb_targets: Optional["FramebufferTargets"]

    def part(self, start: int, stop: int) -> "SliceSchedule":
        """Slices ``start:stop``."""
        return SliceSchedule(
            *(column[start:stop] for column in self[:-1]), self.fb_targets
        )


def slice_schedule(
    unit,
    gpm,
    labels: Sequence[str],
    *,
    pixel_share=1.0,
    geometry_share=1.0,
    unique_inflation=1.0,
    stream_inflation=1.0,
    command_source=0,
    stage_scale=1.0,
    fb_targets: Optional["FramebufferTargets"] = None,
) -> SliceSchedule:
    """A :class:`SliceSchedule`; a scalar applies to every slice."""
    unit = np.asarray(unit, np.int64)

    def column(values, dtype=np.float64):
        return np.broadcast_to(np.asarray(values, dtype), unit.shape)

    return SliceSchedule(
        unit=unit,
        gpm=column(gpm, np.int64),
        labels=labels,
        pixel_share=column(pixel_share),
        geometry_share=column(geometry_share),
        unique_inflation=column(unique_inflation),
        stream_inflation=column(stream_inflation),
        command_source=column(command_source, np.int64),
        stage_scale=column(stage_scale),
        fb_targets=fb_targets,
    )


def _ragged(lengths: np.ndarray):
    """``(row, offset)`` of every item when row ``i`` holds ``lengths[i]``."""
    row = np.repeat(np.arange(lengths.size), lengths)
    return row, np.arange(row.size) - (np.cumsum(lengths) - lengths)[row]


def _advance(targets: Sequence, attr: str, index, amounts) -> None:
    """``targets[index[j]].attr += amounts[j]`` for every ``j``, in order."""
    totals = np.array([getattr(target, attr) for target in targets], np.float64)
    np.add.at(totals, index, amounts)
    for target, total in zip(targets, totals.tolist()):
        setattr(target, attr, total)


def _running(start: float, amounts: np.ndarray) -> np.ndarray:
    """``start`` then every value of ``start += amount``, in order."""
    return np.add.accumulate(np.concatenate(([start], amounts)))


def _merge(order_key: np.ndarray, *columns: np.ndarray):
    """Columns reordered by a stable sort on ``order_key``."""
    order = np.argsort(order_key, kind="stable")
    return tuple(column[order] for column in columns)


def _copies_first(
    copy_slice: np.ndarray,
    copy_columns: Sequence[np.ndarray],
    row_slice: np.ndarray,
    columns: Sequence[np.ndarray],
):
    """Staging-copy rows merged into a slice-ordered row set, each
    slice's copies before its own rows."""
    if not copy_slice.size:
        return tuple(columns)
    return _merge(
        np.concatenate((copy_slice * 2, row_slice * 2 + 1)),
        *(np.concatenate(pair) for pair in zip(copy_columns, columns)),
    )


class _Visits(NamedTuple):
    """Every (touch, slice) visit of a pass, in visit order, with the
    slice's footprint of the touch."""

    slice: np.ndarray
    #: The visited resource, as an index into the pass's resources.
    resource: np.ndarray
    gpm: np.ndarray
    stream: np.ndarray
    unique: np.ndarray
    write: np.ndarray


def _visits(
    table: UnitColumns, schedule: SliceSchedule
) -> Tuple[List[Resource], _Visits]:
    """Each slice's visits to its unit's texture, then vertex touches,
    and the resources they visit, in first-visit order.

    Footprints are built as ``with_screen_share`` and ``Touch.scaled``
    build them (``Touch`` floors a stream at its unique footprint).
    """
    unit = schedule.unit
    bounds = table.touch_bounds
    slice_, offset = _ragged((bounds[1:] - bounds[:-1])[unit])
    visited = bounds[unit[slice_]] + offset
    pixel = schedule.pixel_share[slice_]
    geometry = schedule.geometry_share[slice_]
    on_texture = table.touch_texture[visited]
    unique = table.touch_unique[visited] * np.where(
        on_texture,
        np.minimum(1.0, pixel * schedule.unique_inflation[slice_]),
        geometry,
    )
    stream = np.maximum(
        table.touch_stream[visited]
        * np.where(
            on_texture,
            np.minimum(1.0, pixel * schedule.stream_inflation[slice_]),
            geometry,
        ),
        unique,
    )
    write = table.touch_write[visited] * np.where(on_texture, pixel, geometry)
    rows, _, resource = columns.first_use(
        table.touch_resource[visited], len(table.resources)
    )
    resources = list(map(table.resources.__getitem__, rows.tolist()))
    return resources, _Visits(
        slice=slice_,
        resource=resource,
        gpm=schedule.gpm[slice_],
        stream=stream,
        unique=unique,
        write=write,
    )


class _Copies(NamedTuple):
    """A pass's staging copies (the positive shortfalls), in visit order."""

    slice: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    traffic: np.ndarray


_NO_COPIES = _Copies(*(np.empty(0, dtype) for dtype in (int, int, int, float, int)))


def _stage(
    staging: "StagingManager",
    num_gpms: int,
    resources: Sequence[Resource],
    visits: _Visits,
    stage_scale: np.ndarray,
) -> _Copies:
    """The staging prelude: every visit's copy shortfall, resolved —
    placing and replicating resources — in visit order."""
    shortfall = staging.stage_visits(
        resources,
        visits.resource,
        visits.gpm,
        visits.unique,
        stage_scale[visits.slice],
    )
    copied = shortfall > 0
    dst = visits.gpm[copied]
    source = np.array([staging.source(gpm) for gpm in range(num_gpms)], np.int64)
    return _Copies(
        slice=visits.slice[copied],
        src=source[dst],
        dst=dst,
        nbytes=shortfall[copied],
        traffic=np.full(dst.size, _CODE[staging.traffic_type]),
    )


class _TouchRows(NamedTuple):
    """The pass's (touch, slice, page owner) rows, in visit order."""

    #: The visit each row belongs to, numbered in order.
    visit: np.ndarray
    slice: np.ndarray
    gpm: np.ndarray
    owner: np.ndarray
    stream: np.ndarray
    unique: np.ndarray
    write: np.ndarray
    traffic: np.ndarray
    #: The row's resource, as an index into the pass's resources.
    resource: np.ndarray


def _touch_rows(
    placement: "PagePlacement",
    resources: Sequence[Resource],
    visits: _Visits,
    staged: bool,
) -> _TouchRows:
    """Every visit split over the visited resource's page owners."""
    traffic = np.array(
        [_KIND_CODE[resource.kind] for resource in resources], np.int64
    )[visits.resource]
    if staged:
        # Behind a staging prelude every visited pair is local: the
        # prelude placed the resource there, found its home there or
        # replicated it there.  Each visit is one row, owned by its GPM.
        return _TouchRows(
            np.arange(visits.gpm.size), visits.slice, visits.gpm,
            visits.gpm, visits.stream, visits.unique, visits.write,
            traffic, visits.resource,
        )
    # Owner maps are read once per resource, which places an unplaced
    # resource at its first visit, so first-touch and interleaved
    # placement land exactly where the per-slice binds place them.
    maps = placement.owner_maps(resources, visits.resource, visits.gpm)
    bounds, owners, fractions = placement.owner_table()
    visit, offset = _ragged((bounds[1:] - bounds[:-1])[maps])
    slot = bounds[maps[visit]] + offset
    fraction = fractions[slot]
    return _TouchRows(
        visit=visit,
        slice=visits.slice[visit],
        gpm=visits.gpm[visit],
        owner=owners[slot],
        stream=visits.stream[visit] * fraction,
        unique=visits.unique[visit] * fraction,
        write=visits.write[visit] * fraction,
        traffic=traffic[visit],
        resource=visits.resource[visit],
    )


class _TargetRows(NamedTuple):
    """Every slice's framebuffer targets, in visit order."""

    slice: np.ndarray
    gpm: np.ndarray
    owner: np.ndarray
    z_stream: np.ndarray
    z_unique: np.ndarray
    color: np.ndarray
    z_write: np.ndarray


def _target_rows(
    table: UnitColumns, schedule: SliceSchedule, bytes_per_ztest: float
) -> _TargetRows:
    unit = schedule.unit
    slices = unit.size
    if schedule.fb_targets is None:
        slice_ = np.arange(slices)
        owner = schedule.gpm
        fraction = np.ones(slices)
    else:
        targets = schedule.fb_targets
        owners = np.fromiter(targets.keys(), np.int64, len(targets))
        shares = np.fromiter(targets.values(), np.float64, len(targets))
        slice_ = np.repeat(np.arange(slices), owners.size)
        owner = np.tile(owners, slices)
        fraction = np.tile(shares, slices)
    share = schedule.pixel_share

    def scaled(column: np.ndarray) -> np.ndarray:
        return (column[unit] * share)[slice_] * fraction

    pixels = table.pixels_out[unit] * share
    return _TargetRows(
        slice=slice_,
        gpm=schedule.gpm[slice_],
        owner=owner,
        z_stream=scaled(table.z_stream_bytes),
        z_unique=scaled(table.z_unique_bytes),
        color=scaled(table.fb_write_bytes),
        z_write=(pixels * bytes_per_ztest)[slice_] * fraction,
    )


class SplitSlices:
    """What a slice pass scheduled, in visit order.

    Handed to :meth:`ExecutionEngine._note_split
    <repro.engine.base.ExecutionEngine._note_split>`, so each engine
    logs the pass its own way without per-slice binds.  Slice ``s``
    renders on GPM ``gpm[s]``; ``compute`` and ``cycles`` are its Eq. 3
    compute cycles and scheduling-clock price; its link transfers, in
    ``ResolvedUnit.flows`` order, are rows
    ``flow_bounds[s]:flow_bounds[s + 1]`` of the ``flow_*`` columns, and
    :meth:`dram_rows` lists its ``ResolvedUnit.dram_demand``.  A staged
    slice's copy entered the schedule first: slice ``stages.slice[k]``
    copied ``stages.nbytes[k]`` from GPM ``stages.src[k]``, stalling its
    GPM ``stages.cycles[k]`` at ``stages.parallelism``.  That is the one
    chunk :meth:`~repro.engine.base.ExecutionEngine.stage_flow` would
    have handed ``_note_stage``: a slice's copies share a source and a
    destination, so the chunk is their sum in visit order.  ``ops``
    are the pass's clock charges in the order they landed: the analytic
    engine's spans, and the order the event engine records its jobs in.
    """

    def __init__(
        self,
        num_gpms: int,
        gpm: np.ndarray,
        compute: np.ndarray,
        cycles: np.ndarray,
        flows: "_Flows",
        demand: "_Demand",
        stages: "_Stages",
        ops: "_Ops",
    ) -> None:
        self.num_gpms = num_gpms
        self.gpm = gpm
        self.compute = compute
        self.cycles = cycles
        self.flow_bounds = np.searchsorted(
            flows.slice, np.arange(gpm.size + 1)
        )
        self.flow_src = flows.src
        self.flow_dst = flows.dst
        self.flow_bytes = flows.nbytes
        self.stages = stages
        self.ops = ops
        self._demand = demand

    def dram_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every slice's ``ResolvedUnit.dram_demand`` as ``(slice, gpm,
        bytes)`` rows, slice by slice: the same sums, each slice's keys in
        the same insertion order."""
        n = self.num_gpms
        demand = self._demand
        key = demand.slice * n + demand.gpm
        totals = np.zeros(self.gpm.size * n)
        np.add.at(totals, key, demand.nbytes)
        # The contributions arrive in slice order, so first-use order
        # is slice by slice.
        ordered, _, _ = columns.first_use(key, totals.size)
        slice_, gpm = np.divmod(ordered, n)
        return slice_, gpm, totals[ordered]


class _Flows(NamedTuple):
    """A pass's render transfers, merged into visit order."""

    slice: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    traffic: np.ndarray
    #: The DRAM that serves each transfer (-1: the command stream).
    served_by: np.ndarray


class _Stages(NamedTuple):
    """A pass's staging copies, one chunk per staged slice."""

    slice: np.ndarray
    src: np.ndarray
    nbytes: np.ndarray
    cycles: np.ndarray
    parallelism: float


_NO_STAGES = _Stages(
    np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0), 1.0
)


class _Demand(NamedTuple):
    """``dram_demand`` contributions, in the scalar bind's order."""

    slice: np.ndarray
    gpm: np.ndarray
    nbytes: np.ndarray


def _check(
    system: "MultiGPUSystem",
    table: UnitColumns,
    schedule: SliceSchedule,
    staging: Optional["StagingManager"],
) -> None:
    """Reject a malformed schedule before anything is bound."""
    size = schedule.unit.size
    if any(len(column) != size for column in schedule[:-1]):
        raise ValueError("every slice needs one entry in every column")
    if not size:
        return
    if schedule.unit.min() < 0 or schedule.unit.max() >= len(table):
        raise ValueError("slice unit index out of range")
    for name in ("pixel_share", "geometry_share"):
        share = getattr(schedule, name)
        if not np.all((share > 0.0) & (share <= 1.0)):
            raise ValueError(f"{name} must be in (0, 1]")
    for name in ("unique_inflation", "stream_inflation"):
        if not np.all(getattr(schedule, name) >= 1.0):
            raise ValueError(f"{name} is at least 1")
    for column in (schedule.gpm, schedule.command_source):
        bad = column[(column < 0) | (column >= system.num_gpms)]
        if bad.size:
            raise ValueError(f"GPM {bad[0]} out of range")
    if schedule.fb_targets is not None and not schedule.fb_targets:
        raise ValueError("fb_targets must name at least one owner GPM")
    if staging is not None and (staging.system is not system or staging.prefetched):
        raise ValueError(
            "the staging prelude takes this system's software staging "
            "manager; prefetched copies stage through stage_unit"
        )


def execute_split(
    engine: "ExecutionEngine",
    table: UnitColumns,
    schedule: SliceSchedule,
    staging: Optional["StagingManager"] = None,
) -> None:
    """See :meth:`ExecutionEngine.execute_split
    <repro.engine.base.ExecutionEngine.execute_split>`."""
    _check(engine.system, table, schedule, staging)
    # Passes over the slices of at most _CHUNK_UNITS units keep the
    # columns small; every counter simply continues in the next pass,
    # so the visit order holds.
    unit = schedule.unit
    runs = np.flatnonzero(unit[1:] != unit[:-1]) + 1
    starts = np.concatenate(([0], runs))[::_CHUNK_UNITS].tolist()
    for start, stop in zip(starts, starts[1:] + [unit.size]):
        if stop > start:
            _execute_chunk(engine, table, schedule.part(start, stop), staging)


def _execute_chunk(
    engine: "ExecutionEngine",
    table: UnitColumns,
    schedule: SliceSchedule,
    staging: Optional["StagingManager"],
) -> None:
    system = engine.system
    config = system.config
    with profiled_phase("bind"):
        unit = schedule.unit
        geometry = schedule.geometry_share
        share = schedule.pixel_share
        vertices = table.vertices[unit] * geometry
        setup = table.triangles_setup[unit] * geometry
        triangles = table.triangles_raster[unit] * geometry
        fragments = table.fragments[unit] * share
        texels = table.texel_requests[unit] * share
        pixels = table.pixels_out[unit] * share
        with profiled_phase("price"):
            stages = stage_cycles(
                vertices, setup, fragments, table.shader_complexity[unit],
                texels, pixels, table.draw_count[unit], config.gpm,
                config.cost,
            )
            # max() is exact in any order; only sums need visit order.
            compute = np.max(stages[:-1], axis=0) + stages[-1]
        local_bytes, link, linked, flows, demand, copies = _bind_memory(
            system, table, schedule, staging
        )
        with profiled_phase("price"):
            cycles = _roofline(
                system, schedule.gpm, compute, local_bytes, link, linked
            )
        staged, stall, stages = _land_copies(
            engine, staging, schedule, copies
        )
        ops = _schedule(
            engine, schedule, cycles, staged, stall, vertices, pixels,
            triangles,
        )
        split = SplitSlices(
            system.num_gpms, schedule.gpm, compute, cycles, flows, demand,
            stages, ops,
        )
        nbytes = flows.nbytes.tolist()
        bounds = split.flow_bounds.tolist()
        render = engine._phase_bytes["render"]
        for slice_ in range(unit.size):
            # The builtin sum() over the slice's flows, as the scalar
            # bind sums them: CPython >= 3.12 compensates float sum(),
            # so a running += would not be equivalent.
            render += sum(nbytes[bounds[slice_] : bounds[slice_ + 1]])
        engine._phase_bytes["render"] = render
        engine._note_split(split)


def _land_copies(
    engine: "ExecutionEngine",
    staging: Optional["StagingManager"],
    schedule: SliceSchedule,
    copies: _Copies,
):
    """Each slice's staging copy, as ``stage_flow`` sums, prices and
    records it (the fabric and DRAM bytes land in :func:`_bind_memory`).

    Advances the manager's ``staged_bytes`` and the ``staging`` phase
    bytes; returns which slices copied anything, their stall cycles
    and the copies as ``_note_stage`` would see them.
    """
    slices = schedule.unit.size
    copied = np.zeros(slices)
    np.add.at(copied, copies.slice, copies.nbytes)
    staged = copied > 0
    if staging is None:
        return staged, np.zeros(slices), _NO_STAGES
    parallelism = staging.parallelism
    stall = copied / (engine.system.config.link.bytes_per_cycle * parallelism)
    rows = np.flatnonzero(staged)
    source = map(staging.source, schedule.gpm[rows].tolist())
    stages = _Stages(
        rows,
        np.fromiter(source, np.int64, rows.size),
        copied[rows],
        stall[rows],
        parallelism,
    )
    staging.staged_bytes = _running(staging.staged_bytes, copied)[-1].item()
    phase = engine._phase_bytes
    crossed = copies.nbytes[copies.src != copies.dst]
    phase["staging"] = _running(phase["staging"], crossed)[-1].item()
    return staged, stall, stages


def _bind_memory(
    system: "MultiGPUSystem",
    table: UnitColumns,
    schedule: SliceSchedule,
    staging: Optional["StagingManager"],
):
    """Resolve every slice's memory image, with the machine's accounting.

    Returns per-slice local DRAM bytes, the per-(slice, peer) link-byte
    roll-up and which peers it holds, the merged transfers, the
    ``dram_demand`` contributions and the staging copies.  The staging
    prelude resolves every visit's copy before the first owner map is
    read, and a staged slice's copies land on the fabric and in DRAM
    before its render traffic.
    """
    n = system.num_gpms
    slices = schedule.unit.size
    gpm = schedule.gpm
    l2_bytes = float(system.config.gpm.l2_bytes)
    resources, visits = _visits(table, schedule)
    copies = _NO_COPIES
    if staging is not None:
        copies = _stage(staging, n, resources, visits, schedule.stage_scale)
    touches = _touch_rows(
        system.placement, resources, visits, staging is not None
    )
    targets = _target_rows(
        table, schedule, system.config.cost.bytes_per_ztest
    )

    # Local rows go through the memory-side L2; remote rows only through
    # the toucher's remote cache, whose calls from touches and depth
    # tests interleave per GPM in visit order.
    t_local = touches.owner == touches.gpm
    t_remote = ~t_local
    f_local = targets.owner == targets.gpm
    f_remote = ~f_local
    t_local_bytes = (
        miss_bytes_columns(
            touches.stream[t_local], touches.unique[t_local], l2_bytes
        )
        + touches.write[t_local]
    )
    f_local_bytes = (
        miss_bytes_columns(
            targets.z_stream[f_local], targets.z_unique[f_local], l2_bytes
        )
        + targets.color[f_local]
    ) + targets.z_write[f_local]
    calls = np.argsort(
        np.concatenate((touches.slice[t_remote], targets.slice[f_remote])),
        kind="stable",
    )
    filtered = np.empty(calls.size)
    filtered[calls] = filter_columns(
        system.remote_caches,
        np.concatenate((touches.gpm[t_remote], targets.gpm[f_remote]))[calls],
        np.concatenate((touches.stream[t_remote], targets.z_stream[f_remote]))[
            calls
        ],
        np.concatenate((touches.unique[t_remote], targets.z_unique[f_remote]))[
            calls
        ],
    )
    remote_rows = np.flatnonzero(t_remote)
    t_cross = filtered[: remote_rows.size] + touches.write[t_remote]
    z_cross = filtered[remote_rows.size :]
    f_writes = targets.color[f_remote] + targets.z_write[f_remote]

    # Transfers: touch crossings, then each remote target's depth read
    # and colour/depth write, then the command stream.
    crossed = remote_rows[t_cross > 0]
    x_bytes = t_cross[t_cross > 0]
    x_slice, x_owner, x_gpm = (
        touches.slice[crossed], touches.owner[crossed], touches.gpm[crossed]
    )
    r_slice, r_owner, r_gpm = (
        targets.slice[f_remote], targets.owner[f_remote], targets.gpm[f_remote]
    )
    pair_bytes = np.column_stack((z_cross, f_writes)).ravel()
    moved = pair_bytes > 0
    p_slice = np.repeat(r_slice, 2)[moved]
    p_owner = np.repeat(r_owner, 2)[moved]
    p_bytes = pair_bytes[moved]
    command = table.command_bytes[schedule.unit]
    c_slice = np.flatnonzero((command > 0) & (schedule.command_source != gpm))
    c_bytes = command[c_slice]
    c_source = schedule.command_source[c_slice]
    flows = _Flows(
        *_merge(
            np.concatenate((x_slice, p_slice, c_slice)),
            np.concatenate((x_slice, p_slice, c_slice)),
            np.concatenate(
                (x_owner, np.column_stack((r_owner, r_gpm)).ravel()[moved], c_source)
            ),
            np.concatenate(
                (x_gpm, np.column_stack((r_gpm, r_owner)).ravel()[moved], gpm[c_slice])
            ),
            np.concatenate((x_bytes, p_bytes, c_bytes)),
            np.concatenate(
                (
                    touches.traffic[crossed],
                    np.tile(_DEPTH_THEN_WRITE, r_slice.size)[moved],
                    np.full(c_slice.size, _CODE[TrafficType.COMMAND]),
                )
            ),
            np.concatenate((x_owner, p_owner, np.full(c_slice.size, -1))),
        )
    )

    # The machine's accounting, each counter in visit order.
    system.fabric.transfer_batch(
        *_copies_first(
            copies.slice,
            (copies.src, copies.dst, copies.nbytes, copies.traffic),
            flows.slice,
            (flows.src, flows.dst, flows.nbytes, flows.traffic),
        )
    )
    drams = system.drams
    served = flows.served_by >= 0
    _advance(
        drams, "remote_served_bytes", flows.served_by[served], flows.nbytes[served]
    )
    reads = t_local_bytes > 0
    _advance(
        drams, "local_read_bytes", touches.gpm[t_local][reads], t_local_bytes[reads]
    )
    writes = f_local_bytes > 0
    l_slice = targets.slice[f_local][writes]
    _advance(
        drams,
        "local_write_bytes",
        *_copies_first(
            copies.slice,
            (copies.dst, copies.nbytes),
            l_slice,
            (targets.gpm[f_local][writes], f_local_bytes[writes]),
        ),
    )
    if system.remote_observer is not None:
        system.remote_observer(
            resources, touches.resource[crossed], x_gpm, x_bytes
        )

    # Per-slice roll-ups: local bytes (touches, then the framebuffer)
    # and link bytes per peer (touches, framebuffer totals, command).
    local_bytes = np.zeros(slices)
    np.add.at(
        local_bytes,
        np.concatenate((touches.slice[t_local], targets.slice[f_local])),
        np.concatenate((t_local_bytes, f_local_bytes)),
    )
    f_total = z_cross + f_writes
    linked_target = f_total > 0
    peer = np.concatenate(
        (
            x_slice * n + x_owner,
            r_slice[linked_target] * n + r_owner[linked_target],
            c_slice * n + c_source,
        )
    )
    link = np.zeros(slices * n)
    np.add.at(link, peer, np.concatenate((x_bytes, f_total[linked_target], c_bytes)))
    linked = np.bincount(peer, minlength=slices * n) > 0

    # dram_demand contributions: per (touch, slice) visit its remote
    # owners, then its local part; per slice its targets' depth reads
    # and writes, then the framebuffer's local part.
    t_bytes = np.zeros(touches.gpm.size)
    t_bytes[t_remote] = t_cross
    t_bytes[t_local] = t_local_bytes
    rows = np.flatnonzero(t_bytes > 0)
    rows = rows[np.argsort(touches.visit[rows] * 2 + t_local[rows], kind="stable")]
    fb_slice, fb_gpm, fb_bytes = _merge(
        np.concatenate((p_slice * 2, l_slice * 2 + 1)),
        np.concatenate((p_slice, l_slice)),
        np.concatenate((p_owner, targets.gpm[f_local][writes])),
        np.concatenate((p_bytes, f_local_bytes[writes])),
    )
    demand = _Demand(
        *_merge(
            np.concatenate((touches.slice[rows], fb_slice)),
            np.concatenate((touches.slice[rows], fb_slice)),
            np.concatenate((touches.owner[rows], fb_gpm)),
            np.concatenate((t_bytes[rows], fb_bytes)),
        )
    )
    return local_bytes, link, linked, flows, demand, copies


def _roofline(
    system: "MultiGPUSystem",
    gpm: np.ndarray,
    compute: np.ndarray,
    local: np.ndarray,
    link: np.ndarray,
    linked: np.ndarray,
) -> np.ndarray:
    """:meth:`ExecutionEngine.price`'s cycles for every slice."""
    n = system.num_gpms
    config = system.config
    # hops[s, peer]: the hop count of a peer -> slice-GPM transfer.
    hops = np.array(
        [[system.fabric.hops(peer, g) for peer in range(n)] for g in range(n)],
        np.int64,
    )[gpm]
    per_peer = (
        link.reshape(-1, n) * hops / config.link.bytes_per_cycle
        + config.link.latency_cycles * hops
    )
    linked = linked.reshape(-1, n)
    slowest = np.where(linked, per_peer, -np.inf).max(axis=1)
    link_cycles = np.where(linked.any(axis=1), slowest, 0.0)
    dram_cycles = local / config.gpm.dram_bytes_per_cycle
    return np.maximum(np.maximum(compute, dram_cycles), link_cycles)


class _Ops(NamedTuple):
    """A pass's clock charges, in the order they landed: every slice's
    render, a staged slice's ``stage`` stall (``stall[k]``) just before
    it.  Charge ``k`` ran on GPM ``gpm[k]`` under ``labels[k]`` from
    ``start[k]`` to ``end[k]``."""

    gpm: np.ndarray
    labels: List[str]
    start: np.ndarray
    end: np.ndarray
    stall: np.ndarray


def _schedule(
    engine: "ExecutionEngine",
    schedule: SliceSchedule,
    cycles: np.ndarray,
    staged: np.ndarray,
    stall: np.ndarray,
    vertices: np.ndarray,
    pixels: np.ndarray,
    triangles: np.ndarray,
) -> _Ops:
    """Run every slice on its GPM, as :meth:`ExecutionEngine.execute`,
    a staged slice's ``stage`` stall (as ``stage_flow`` charges it)
    first; returns the charges."""
    ops = 1 + staged
    op_slice = np.repeat(np.arange(cycles.size), ops)
    is_stall = np.zeros(op_slice.size, bool)
    is_stall[(np.cumsum(ops) - ops)[staged]] = True
    op_cycles = np.where(is_stall, stall[op_slice], cycles[op_slice])
    op_gpm = schedule.gpm[op_slice]
    labels = list(map(schedule.labels.__getitem__, op_slice.tolist()))
    for op in np.flatnonzero(is_stall).tolist():
        labels[op] = "stage"
    starts = np.empty(op_slice.size)
    ends = np.empty(op_slice.size)
    for g, gpm in enumerate(engine.system.gpms):
        mine = np.flatnonzero(op_gpm == g)
        clock = _running(gpm.ready_at, op_cycles[mine])
        starts[mine] = clock[:-1]
        ends[mine] = clock[1:]
        gpm.ready_at = clock[-1].item()
        gpm.busy_cycles = _running(gpm.busy_cycles, op_cycles[mine])[-1].item()
        rendered = op_slice[mine[~is_stall[mine]]]
        gpm.transformed_vertices = _running(
            gpm.transformed_vertices, vertices[rendered]
        )[-1].item()
        gpm.rendered_pixels = _running(gpm.rendered_pixels, pixels[rendered])[
            -1
        ].item()
        gpm.rendered_triangles = _running(
            gpm.rendered_triangles, triangles[rendered]
        )[-1].item()
    return _Ops(op_gpm, labels, starts, ends, is_stall)
