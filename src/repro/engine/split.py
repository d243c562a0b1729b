"""The slice pass: a statically scheduled frame, bound in one batch.

Four of the paper's software schemes fix every frame's assignment
before it runs: the baseline family splits each draw evenly over all
GPMs (Sec. 2.3), tile-level SFR renders each draw's share of every
strip it overlaps on that strip's GPM (Sec. 4.2), object-level SFR
deals whole draws out round robin (Sec. 4.3) and AFR renders a frame
on one GPM (Sec. 4.1).  Each describes its frame as a
:class:`SliceSchedule` — slices in visit order, each one unit on one
GPM with its own shares, inflation, framebuffer target and command
source — and hands it to :func:`execute_split` (behind
:meth:`ExecutionEngine.execute_split
<repro.engine.base.ExecutionEngine.execute_split>`).  Bound one slice
at a time (``with_screen_share``, ``stage_unit``, ``bind``,
``execute``), every slice is re-split, re-staged, re-priced and
re-bound in scalar Python; the pass binds the schedule in one go:

- every slice's shape and Eq. 3 price are derived as columns
  (:func:`~repro.pipeline.timing.stage_cycles`, shared with
  ``price_work_unit``);
- the optional staging prelude applies
  :meth:`StagingManager._stage_touch
  <repro.gpu.staging.StagingManager._stage_touch>` to every (touch,
  GPM) visit in order, and each slice's copy lands before its render,
  as :meth:`~repro.engine.base.ExecutionEngine.stage_flow` lands it:
  fabric and DRAM bytes, ``staging`` phase bytes, the ``stage`` stall
  on the GPM clock and trace and the event engine's stall job;
- owner fractions are read once per visited (resource, GPM) pair, in
  first-visit order, from the placement map's per-resource cache;
- the frame's (touch, owner), framebuffer-target and command rows are
  laid out in visit order — slice, texture then vertex touches, page
  owners, targets, command — and the L2 miss model and the
  remote-cache crossing run as numpy column kernels over them
  (:func:`~repro.memory.cache.miss_bytes_columns`,
  :func:`~repro.memory.remote_cache.filter_columns`: the scalar
  formulas, elementwise).

Every side effect lands bit-identically to the per-slice path.  Floats
accumulate in visit order only — ``np.add.at``, ``np.add.accumulate``
or a plain loop, never ``np.sum``, whose pairwise summation rounds
differently — dict keys are inserted in first-use order, and each
slice's render-phase bytes are the builtin ``sum()`` over the same flow
sequence the scalar bind sums.  The prelude may place every visited
resource before the first bind reads it: a staged visit leaves its
resource fully local to the visiting GPM (placed there, homed there or
replicated there), and nothing later in the frame takes that away.
The per-slice ``bind``, ``execute`` and ``stage_unit`` stay the
production path of the clock-driven dispatchers (OO-VR, OO_APP) and
are this pass's oracle: ``tests/test_engine.py::TestSplitBind``
asserts every counter, trace, recorded event-engine job and staged
byte equal with ``==``, against each framework's per-slice frame too
(the baseline family's ``bind_frame``, the others'
``render_frame_on``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.base import KIND_TO_TRAFFIC
from repro.engine.trace import TraceInterval
from repro.memory.cache import miss_bytes_columns
from repro.memory.link import TRAFFIC_TYPES, TrafficType
from repro.memory.placement import PagePlacement
from repro.memory.remote_cache import filter_columns
from repro.pipeline.timing import stage_cycles
from repro.pipeline.workunit import WorkUnit
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

    Slice ``s`` renders ``units[unit[s]].with_screen_share(
    pixel_share[s], geometry_share[s], unique_inflation[s], ...,
    stream_inflation[s])`` on GPM ``gpm[s]`` under ``labels[s]``, its
    commands shipped from GPM ``command_source[s]``.  Every column has
    one entry per slice; :func:`slice_schedule` builds one.
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


def _column(items: Sequence, name: str) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), items), np.float64, len(items))


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
    touch: np.ndarray
    gpm: np.ndarray
    stream: np.ndarray
    unique: np.ndarray
    write: np.ndarray
    #: Each touch's own resource object (the remote observer's argument).
    resources: List


def _visits(
    units: Sequence[WorkUnit], local: np.ndarray, schedule: SliceSchedule
) -> _Visits:
    """Each slice's visits to its unit's texture, then vertex touches.

    ``units`` are the pass's distinct units and slice ``s`` renders
    ``units[local[s]]``.  Footprints are built as ``with_screen_share``
    and ``Touch.scaled`` build them (``Touch`` floors a stream at its
    unique footprint).
    """
    counts = np.array(
        [(len(u.texture_touches), len(u.vertex_touches)) for u in units],
        np.int64,
    ).reshape(-1, 2)
    touches = [
        touch
        for unit in units
        for group in (unit.texture_touches, unit.vertex_touches)
        for touch in group
    ]
    per_unit = counts[:, 0] + counts[:, 1]
    texture = np.repeat(np.tile([True, False], len(units)), counts.ravel())
    slice_, offset = _ragged(per_unit[local])
    visited = (np.cumsum(per_unit) - per_unit)[local[slice_]] + offset
    pixel = schedule.pixel_share[slice_]
    geometry = schedule.geometry_share[slice_]
    on_texture = texture[visited]
    unique = _column(touches, "unique_bytes")[visited] * np.where(
        on_texture,
        np.minimum(1.0, pixel * schedule.unique_inflation[slice_]),
        geometry,
    )
    stream = np.maximum(
        _column(touches, "stream_bytes")[visited]
        * np.where(
            on_texture,
            np.minimum(1.0, pixel * schedule.stream_inflation[slice_]),
            geometry,
        ),
        unique,
    )
    write = _column(touches, "write_bytes")[visited] * np.where(
        on_texture, pixel, geometry
    )
    return _Visits(
        slice=slice_,
        touch=visited,
        gpm=schedule.gpm[slice_],
        stream=stream,
        unique=unique,
        write=write,
        resources=[touch.resource for touch in touches],
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
    visits: _Visits,
    stage_scale: np.ndarray,
) -> _Copies:
    """The staging prelude: every visit's copy shortfall, resolved —
    placing and replicating resources — in visit order."""
    stage_touch = staging._stage_touch
    resources = visits.resources
    shortfall = np.array(
        [
            stage_touch(resources[touch], nbytes, gpm, scale)
            for touch, nbytes, gpm, scale in zip(
                visits.touch.tolist(),
                visits.unique.tolist(),
                visits.gpm.tolist(),
                stage_scale[visits.slice].tolist(),
            )
        ],
        np.float64,
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
    touch: np.ndarray
    slice: np.ndarray
    gpm: np.ndarray
    owner: np.ndarray
    stream: np.ndarray
    unique: np.ndarray
    write: np.ndarray
    traffic: np.ndarray
    resources: List


def _touch_rows(
    placement: "PagePlacement", num_gpms: int, visits: _Visits
) -> _TouchRows:
    """Every visit split over the visited resource's page owners."""
    n = num_gpms
    # Owner maps per visited (resource, GPM) pair, read in first-visit
    # order: a resource's first read places it when it is still
    # unplaced, so first-touch and interleaved placement land exactly
    # where the per-slice binds place them.
    index: Dict = {}
    first_resource: List = []
    traffic_of: List[int] = []
    resource_of: List[int] = []
    for resource in visits.resources:
        number = index.get(resource.resource_id)
        if number is None:
            number = index[resource.resource_id] = len(first_resource)
            first_resource.append(resource)
            traffic_of.append(_KIND_CODE[resource.kind])
        resource_of.append(number)
    resource_of_touch = np.array(resource_of, np.int64)
    pairs, first_visit, pair_of_visit = np.unique(
        resource_of_touch[visits.touch] * n + visits.gpm,
        return_index=True,
        return_inverse=True,
    )
    pair_list = pairs.tolist()
    pattern_of_pair = np.empty(pairs.size, np.int64)
    patterns: Dict[tuple, int] = {}
    starts: List[int] = []
    lengths: List[int] = []
    owners: List[int] = []
    fractions: List[float] = []
    for pair in np.argsort(first_visit, kind="stable").tolist():
        number, gpm = divmod(pair_list[pair], n)
        items = tuple(
            placement.owner_fractions(first_resource[number], gpm).items()
        )
        pattern = patterns.get(items)
        if pattern is None:
            pattern = patterns[items] = len(starts)
            starts.append(len(owners))
            lengths.append(len(items))
            owners.extend(owner for owner, _ in items)
            fractions.extend(fraction for _, fraction in items)
        pattern_of_pair[pair] = pattern
    pattern = pattern_of_pair[pair_of_visit]
    visit, offset = _ragged(np.array(lengths, np.int64)[pattern])
    slot = np.array(starts, np.int64)[pattern[visit]] + offset
    touch = visits.touch[visit]
    fraction = np.array(fractions, np.float64)[slot]
    return _TouchRows(
        visit=visit,
        touch=touch,
        slice=visits.slice[visit],
        gpm=visits.gpm[visit],
        owner=np.array(owners, np.int64)[slot],
        stream=visits.stream[visit] * fraction,
        unique=visits.unique[visit] * fraction,
        write=visits.write[visit] * fraction,
        traffic=np.array(traffic_of, np.int64)[resource_of_touch[touch]],
        resources=visits.resources,
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
    units: Sequence[WorkUnit],
    local: np.ndarray,
    schedule: SliceSchedule,
    bytes_per_ztest: float,
) -> _TargetRows:
    slices = local.size
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

    def scaled(name: str) -> np.ndarray:
        return (_column(units, name)[local] * share)[slice_] * fraction

    pixels = _column(units, "pixels_out")[local] * share
    return _TargetRows(
        slice=slice_,
        gpm=schedule.gpm[slice_],
        owner=owner,
        z_stream=scaled("z_stream_bytes"),
        z_unique=scaled("z_unique_bytes"),
        color=scaled("fb_write_bytes"),
        z_write=(pixels * bytes_per_ztest)[slice_] * fraction,
    )


class SplitSlices:
    """What a slice pass scheduled, in visit order.

    Handed to :meth:`ExecutionEngine._note_split
    <repro.engine.base.ExecutionEngine._note_split>` so engines that
    record the schedule can do so without per-slice binds.  Slice ``s``
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
    destination, so the chunk is their sum in visit order.
    """

    def __init__(
        self,
        num_gpms: int,
        labels: Sequence[str],
        gpm: np.ndarray,
        compute: np.ndarray,
        cycles: np.ndarray,
        flows: "_Flows",
        demand: "_Demand",
        stages: "_Stages",
    ) -> None:
        self.num_gpms = num_gpms
        self.labels = labels
        self.gpm = gpm
        self.compute = compute
        self.cycles = cycles
        self.flow_bounds = np.searchsorted(
            flows.slice, np.arange(len(labels) + 1)
        )
        self.flow_src = flows.src
        self.flow_dst = flows.dst
        self.flow_bytes = flows.nbytes
        self.stages = stages
        self._demand = demand

    def dram_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every slice's ``ResolvedUnit.dram_demand`` as ``(slice, gpm,
        bytes)`` rows, slice by slice: the same sums, each slice's keys in
        the same insertion order."""
        n = self.num_gpms
        demand = self._demand
        key = demand.slice * n + demand.gpm
        totals = np.zeros(len(self.labels) * n)
        np.add.at(totals, key, demand.nbytes)
        keys, first = np.unique(key, return_index=True)
        # The contributions arrive in slice order, so first-use order
        # is slice by slice.
        ordered = keys[np.argsort(first, kind="stable")]
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
    units: Sequence[WorkUnit],
    schedule: SliceSchedule,
    staging: Optional["StagingManager"],
) -> None:
    """Reject a malformed schedule before anything is bound."""
    size = schedule.unit.size
    if any(len(column) != size for column in schedule[:-1]):
        raise ValueError("every slice needs one entry in every column")
    if not size:
        return
    if schedule.unit.min() < 0 or schedule.unit.max() >= len(units):
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
    units: Sequence[WorkUnit],
    schedule: SliceSchedule,
    staging: Optional["StagingManager"] = None,
) -> None:
    """See :meth:`ExecutionEngine.execute_split
    <repro.engine.base.ExecutionEngine.execute_split>`."""
    _check(engine.system, units, schedule, staging)
    # Passes over the slices of at most _CHUNK_UNITS units keep the
    # columns small; every counter simply continues in the next pass,
    # so the visit order holds.
    unit = schedule.unit
    runs = np.flatnonzero(unit[1:] != unit[:-1]) + 1
    starts = np.concatenate(([0], runs))[::_CHUNK_UNITS].tolist()
    for start, stop in zip(starts, starts[1:] + [unit.size]):
        if stop > start:
            _execute_chunk(engine, units, schedule.part(start, stop), staging)


def _execute_chunk(
    engine: "ExecutionEngine",
    units: Sequence[WorkUnit],
    schedule: SliceSchedule,
    staging: Optional["StagingManager"],
) -> None:
    system = engine.system
    config = system.config
    with profiled_phase("bind"):
        ids, local = np.unique(schedule.unit, return_inverse=True)
        chunk = [units[index] for index in ids.tolist()]

        def per_slice(name: str, share=None) -> np.ndarray:
            column = _column(chunk, name)[local]
            return column if share is None else column * share

        vertices = per_slice("vertices", schedule.geometry_share)
        setup = per_slice("triangles_setup", schedule.geometry_share)
        triangles = per_slice("triangles_raster", schedule.geometry_share)
        fragments = per_slice("fragments", schedule.pixel_share)
        texels = per_slice("texel_requests", schedule.pixel_share)
        pixels = per_slice("pixels_out", schedule.pixel_share)
        with profiled_phase("price"):
            stages = stage_cycles(
                vertices, setup, fragments, per_slice("shader_complexity"),
                texels, pixels, per_slice("draw_count"), config.gpm,
                config.cost,
            )
            # max() is exact in any order; only sums need visit order.
            compute = np.max(stages[:-1], axis=0) + stages[-1]
        local_bytes, link, linked, flows, demand, copies = _bind_memory(
            system, chunk, local, schedule, staging
        )
        with profiled_phase("price"):
            cycles = _roofline(
                system, schedule.gpm, compute, local_bytes, link, linked
            )
        staged, stall, stages = _land_copies(
            engine, staging, schedule, copies
        )
        _schedule(
            engine, schedule, cycles, staged, stall, vertices, pixels,
            triangles,
        )
        split = SplitSlices(
            system.num_gpms, schedule.labels, schedule.gpm, compute, cycles,
            flows, demand, stages,
        )
        nbytes = flows.nbytes.tolist()
        bounds = split.flow_bounds.tolist()
        render = engine._phase_bytes["render"]
        for slice_ in range(local.size):
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
    units: Sequence[WorkUnit],
    local: np.ndarray,
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
    slices = local.size
    gpm = schedule.gpm
    l2_bytes = float(system.config.gpm.l2_bytes)
    visits = _visits(units, local, schedule)
    copies = _NO_COPIES
    if staging is not None:
        copies = _stage(staging, n, visits, schedule.stage_scale)
    touches = _touch_rows(system.placement, n, visits)
    targets = _target_rows(
        units, local, schedule, system.config.cost.bytes_per_ztest
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
    command = _column(units, "command_bytes")[local]
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
    observer = system.remote_observer
    if observer is not None:
        for touch, gpm_, nbytes in zip(
            touches.touch[crossed].tolist(), x_gpm.tolist(), x_bytes.tolist()
        ):
            observer(touches.resources[touch], gpm_, nbytes)

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


def _schedule(
    engine: "ExecutionEngine",
    schedule: SliceSchedule,
    cycles: np.ndarray,
    staged: np.ndarray,
    stall: np.ndarray,
    vertices: np.ndarray,
    pixels: np.ndarray,
    triangles: np.ndarray,
) -> None:
    """Run every slice on its GPM, as :meth:`ExecutionEngine.execute`,
    a staged slice's ``stage`` stall (as ``stage_flow`` charges it)
    first."""
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
        gpm.executed.extend(map(labels.__getitem__, mine.tolist()))
    engine._intervals.extend(
        map(
            TraceInterval,
            op_gpm.tolist(),
            labels,
            starts.tolist(),
            ends.tolist(),
            map(("render", "stall").__getitem__, is_stall.tolist()),
        )
    )
