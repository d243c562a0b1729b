"""The split bind: a whole frame of the baseline family's schedule at once.

The naive single-programming-model baseline (Sec. 2.3, Fig. 4) splits
every draw across all GPMs: for each unit in order and each GPM in id
order it binds and executes the slice ``unit.with_screen_share(share,
share, unique_inflation, f"gpm{gpm}", stream_inflation)`` with the same
framebuffer targets and command source.  Bound one slice at a time,
every unit is re-split, re-priced and re-bound once per GPM in scalar
Python.  :func:`execute_split` (behind
:meth:`ExecutionEngine.execute_split
<repro.engine.base.ExecutionEngine.execute_split>`) binds the frame in
one pass instead:

- each unit's slice shape and Eq. 3 price are derived once (the slices
  of one unit differ only in their label);
- owner fractions are read once per (resource, GPM) from the placement
  map's per-resource cache;
- the frame's (touch, owner), framebuffer-target and command rows are
  laid out in scalar visit order — unit, GPM, texture then vertex
  touches, page owners, targets, command — and the L2 miss model and
  the remote-cache crossing run as numpy column kernels over them
  (:func:`~repro.memory.cache.miss_bytes_columns`,
  :func:`~repro.memory.remote_cache.filter_columns`: the scalar
  formulas, elementwise).

Every side effect lands bit-identically to the per-slice binds.  Floats
accumulate in scalar visit order only — ``np.add.at``,
``np.add.accumulate`` or a plain loop, never ``np.sum``, whose pairwise
summation rounds differently — dict keys are inserted in first-use
order, and each slice's render-phase bytes are the builtin ``sum()``
over the same flow sequence the scalar bind sums.  The per-slice path
stays the production path of every other framework and is this one's
oracle: ``tests/test_engine.py::TestSplitBind`` asserts every counter,
trace and recorded event-engine job equal with ``==``.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence

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
    from repro.gpu.system import FramebufferTargets, MultiGPUSystem

__all__ = ["SplitSlices", "execute_split"]

_CODE = {traffic: code for code, traffic in enumerate(TRAFFIC_TYPES)}
_KIND_CODE = {kind: _CODE[traffic] for kind, traffic in KIND_TO_TRAFFIC.items()}
#: Units bound per pass of :func:`execute_split`.  A whole full-scale
#: frame's (touch, owner) rows at once raised the full analytic grid's
#: peak RSS by about a fifth; passes of 64 to 1024 units measured alike
#: in time and memory, within a few percent of the per-slice bind.
_CHUNK_UNITS = 256
_DEPTH_THEN_WRITE = np.array(
    [_CODE[TrafficType.ZTEST], _CODE[TrafficType.FRAMEBUFFER]], np.int64
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


class _TouchRows(NamedTuple):
    """The frame's (touch, GPM, page owner) rows, in scalar visit order."""

    #: The (touch, GPM) visit each row belongs to, numbered in order.
    visit: np.ndarray
    touch: np.ndarray
    slice: np.ndarray
    gpm: np.ndarray
    owner: np.ndarray
    stream: np.ndarray
    unique: np.ndarray
    write: np.ndarray
    traffic: np.ndarray
    #: Each touch's own resource object (the remote observer's argument).
    resources: List


def _touch_rows(
    placement: PagePlacement,
    units: Sequence[WorkUnit],
    n: int,
    share: float,
    unique_inflation: float,
    stream_inflation: float,
) -> _TouchRows:
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
    unit_of = np.repeat(np.arange(len(units)), per_unit)
    texture = np.repeat(np.tile([True, False], len(units)), counts.ravel())
    resources = [touch.resource for touch in touches]

    # Owner maps per (resource, GPM).  Resources are read in first-use
    # order and on GPM 0 first — every unit's first slice — so
    # first-touch and interleaved placement land exactly where the
    # per-slice binds would place them.
    index: Dict = {}
    patterns: Dict[tuple, int] = {}
    starts: List[int] = []
    lengths: List[int] = []
    owners: List[int] = []
    fractions: List[float] = []
    pattern_of: List[int] = []
    traffic_of: List[int] = []
    resource_of: List[int] = []
    for resource in resources:
        number = index.get(resource.resource_id)
        if number is None:
            number = index[resource.resource_id] = len(traffic_of)
            traffic_of.append(_KIND_CODE[resource.kind])
            for gpm in range(n):
                items = tuple(placement.owner_fractions(resource, gpm).items())
                pattern = patterns.get(items)
                if pattern is None:
                    pattern = patterns[items] = len(starts)
                    starts.append(len(owners))
                    lengths.append(len(items))
                    owners.extend(owner for owner, _ in items)
                    fractions.extend(fraction for _, fraction in items)
                pattern_of.append(pattern)
        resource_of.append(number)

    # A unit's visits run GPM by GPM, each over the unit's touches.
    touch_ids = np.arange(unit_of.size)
    first = (np.cumsum(per_unit) - per_unit)[unit_of]
    position = (first * n + touch_ids - first)[:, None] + np.arange(
        n
    ) * per_unit[unit_of][:, None]
    visit_touch = np.empty(unit_of.size * n, np.int64)
    visit_gpm = np.empty(unit_of.size * n, np.int64)
    visit_touch[position.ravel()] = np.repeat(touch_ids, n)
    visit_gpm[position.ravel()] = np.tile(np.arange(n), unit_of.size)
    resource_of_touch = np.array(resource_of, np.int64)
    pattern = np.array(pattern_of, np.int64)[
        resource_of_touch[visit_touch] * n + visit_gpm
    ]
    visit, offset = _ragged(np.array(lengths, np.int64)[pattern])
    slot = np.array(starts, np.int64)[pattern[visit]] + offset
    touch = visit_touch[visit]
    gpm = visit_gpm[visit]
    fraction = np.array(fractions, np.float64)[slot]

    # Slice footprints, as with_screen_share / Touch.scaled build them
    # (Touch floors a stream at its unique footprint).
    unique_share = min(1.0, share * unique_inflation)
    stream_share = min(1.0, share * stream_inflation)
    unique = _column(touches, "unique_bytes") * np.where(
        texture, unique_share, share
    )
    stream = np.maximum(
        _column(touches, "stream_bytes")
        * np.where(texture, stream_share, share),
        unique,
    )
    write = _column(touches, "write_bytes") * share
    return _TouchRows(
        visit=visit,
        touch=touch,
        slice=unit_of[touch] * n + gpm,
        gpm=gpm,
        owner=np.array(owners, np.int64)[slot],
        stream=stream[touch] * fraction,
        unique=unique[touch] * fraction,
        write=write[touch] * fraction,
        traffic=np.array(traffic_of, np.int64)[resource_of_touch[touch]],
        resources=resources,
    )


class _TargetRows(NamedTuple):
    """Every slice's framebuffer targets, in scalar visit order."""

    slice: np.ndarray
    gpm: np.ndarray
    owner: np.ndarray
    z_stream: np.ndarray
    z_unique: np.ndarray
    color: np.ndarray
    z_write: np.ndarray


def _target_rows(
    units: Sequence[WorkUnit],
    n: int,
    share: float,
    fb_targets: "FramebufferTargets",
    bytes_per_ztest: float,
) -> _TargetRows:
    slices = len(units) * n
    owners = np.fromiter(fb_targets.keys(), np.int64, len(fb_targets))
    shares = np.fromiter(fb_targets.values(), np.float64, len(fb_targets))
    slice_ = np.repeat(np.arange(slices), owners.size)
    owner = np.tile(owners, slices)
    fraction = np.tile(shares, slices)
    unit = slice_ // n
    pixels = _column(units, "pixels_out") * share
    return _TargetRows(
        slice=slice_,
        gpm=slice_ % n,
        owner=owner,
        z_stream=(_column(units, "z_stream_bytes") * share)[unit] * fraction,
        z_unique=(_column(units, "z_unique_bytes") * share)[unit] * fraction,
        color=(_column(units, "fb_write_bytes") * share)[unit] * fraction,
        z_write=(pixels * bytes_per_ztest)[unit] * fraction,
    )


class SplitSlices:
    """What a split frame scheduled: one slice per (unit, GPM), in order.

    Handed to :meth:`ExecutionEngine._note_split
    <repro.engine.base.ExecutionEngine._note_split>` so engines that
    record the schedule can do so without per-slice binds.  Slice ``s``
    is unit ``s // num_gpms`` on GPM ``s % num_gpms``; ``compute`` and
    ``cycles`` are its Eq. 3 compute cycles and scheduling-clock price;
    its link transfers, in ``ResolvedUnit.flows`` order, are rows
    ``flow_bounds[s]:flow_bounds[s + 1]`` of the ``flow_*`` columns.
    """

    def __init__(
        self,
        num_gpms: int,
        labels: List[str],
        compute: np.ndarray,
        cycles: np.ndarray,
        flows: "_Flows",
        demand: "_Demand",
    ) -> None:
        self.num_gpms = num_gpms
        self.labels = labels
        self.compute = compute
        self.cycles = cycles
        self.flow_bounds = np.searchsorted(
            flows.slice, np.arange(len(labels) + 1)
        )
        self.flow_src = flows.src
        self.flow_dst = flows.dst
        self.flow_bytes = flows.nbytes
        self._demand = demand

    def dram_demands(self) -> List[Dict[int, float]]:
        """Each slice's ``ResolvedUnit.dram_demand``: the same sums, with
        keys in the same insertion order."""
        n = self.num_gpms
        demand = self._demand
        key = demand.slice * n + demand.gpm
        totals = np.zeros(len(self.labels) * n)
        np.add.at(totals, key, demand.nbytes)
        keys, first = np.unique(key, return_index=True)
        ordered = keys[np.argsort(first, kind="stable")]
        demands: List[Dict[int, float]] = [{} for _ in self.labels]
        for key_, total in zip(ordered.tolist(), totals[ordered].tolist()):
            slice_, gpm = divmod(key_, n)
            demands[slice_][gpm] = total
        return demands


class _Flows(NamedTuple):
    """A split frame's link transfers, merged into scalar visit order."""

    slice: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    traffic: np.ndarray
    #: The DRAM that serves each transfer (-1: the command stream).
    served_by: np.ndarray


class _Demand(NamedTuple):
    """``dram_demand`` contributions, in the scalar bind's order."""

    slice: np.ndarray
    gpm: np.ndarray
    nbytes: np.ndarray


def _merge(order_key: np.ndarray, *columns: np.ndarray):
    """Columns reordered by a stable sort on ``order_key``."""
    order = np.argsort(order_key, kind="stable")
    return tuple(column[order] for column in columns)


def execute_split(
    engine: "ExecutionEngine",
    units: Sequence[WorkUnit],
    share: float,
    unique_inflation: float,
    stream_inflation: float,
    fb_targets: "FramebufferTargets",
    command_source: int,
) -> None:
    """See :meth:`ExecutionEngine.execute_split
    <repro.engine.base.ExecutionEngine.execute_split>`."""
    system = engine.system
    n = system.num_gpms
    if not 0.0 < share <= 1.0:
        raise ValueError("pixel_share must be in (0, 1]")
    if unique_inflation < 1.0:
        raise ValueError("unique_inflation is at least 1")
    if stream_inflation < 1.0:
        raise ValueError("stream_inflation is at least 1")
    if not 0 <= command_source < n:
        raise ValueError(f"GPM {command_source} out of range")
    if not fb_targets:
        raise ValueError("fb_targets must name at least one owner GPM")
    # Chunks of units keep the frame's columns small; every counter
    # simply continues in the next chunk, so the visit order holds.
    for start in range(0, len(units), _CHUNK_UNITS):
        _execute_chunk(
            engine, units[start : start + _CHUNK_UNITS], share,
            unique_inflation, stream_inflation, fb_targets, command_source,
        )


def _execute_chunk(
    engine: "ExecutionEngine",
    units: Sequence[WorkUnit],
    share: float,
    unique_inflation: float,
    stream_inflation: float,
    fb_targets: "FramebufferTargets",
    command_source: int,
) -> None:
    system = engine.system
    n = system.num_gpms
    config = system.config
    with profiled_phase("bind"):
        vertices = _column(units, "vertices") * share
        pixels = _column(units, "pixels_out") * share
        triangles = _column(units, "triangles_raster") * share
        setup = _column(units, "triangles_setup") * share
        fragments = _column(units, "fragments") * share
        texels = _column(units, "texel_requests") * share
        complexity = _column(units, "shader_complexity")
        draws = _column(units, "draw_count")
        with profiled_phase("price"):
            stages = stage_cycles(
                vertices, setup, fragments, complexity, texels, pixels,
                draws, config.gpm, config.cost,
            )
            # max() is exact in any order; only sums need visit order.
            compute = np.repeat(np.max(stages[:-1], axis=0) + stages[-1], n)
        local, link, linked, flows, demand = _bind_memory(
            system, units, share, unique_inflation, stream_inflation,
            fb_targets, command_source,
        )
        with profiled_phase("price"):
            cycles = _roofline(system, compute, local, link, linked)
        labels = [f"{unit.label}/gpm{gpm}" for unit in units for gpm in range(n)]
        _schedule(engine, labels, cycles, vertices, pixels, triangles)
        split = SplitSlices(n, labels, compute, cycles, flows, demand)
        nbytes = flows.nbytes.tolist()
        bounds = split.flow_bounds.tolist()
        render = engine._phase_bytes["render"]
        for slice_ in range(len(labels)):
            # The builtin sum() over the slice's flows, as the scalar
            # bind sums them: CPython >= 3.12 compensates float sum(),
            # so a running += would not be equivalent.
            render += sum(nbytes[bounds[slice_] : bounds[slice_ + 1]])
        engine._phase_bytes["render"] = render
        engine._note_split(split)


def _bind_memory(
    system: "MultiGPUSystem",
    units: Sequence[WorkUnit],
    share: float,
    unique_inflation: float,
    stream_inflation: float,
    fb_targets: "FramebufferTargets",
    command_source: int,
):
    """Resolve every slice's memory image, with the machine's accounting.

    Returns per-slice local DRAM bytes, the per-(slice, peer) link-byte
    roll-up and which peers it holds, the merged transfers and the
    ``dram_demand`` contributions.
    """
    n = system.num_gpms
    slices = len(units) * n
    l2_bytes = float(system.config.gpm.l2_bytes)
    touches = _touch_rows(
        system.placement, units, n, share, unique_inflation, stream_inflation
    )
    targets = _target_rows(
        units, n, share, fb_targets, system.config.cost.bytes_per_ztest
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
    command = _column(units, "command_bytes")
    every = np.arange(slices)
    c_slice = every[(np.repeat(command, n) > 0) & (every % n != command_source)]
    c_bytes = command[c_slice // n]
    c_source = np.full(c_slice.size, command_source)
    flows = _Flows(
        *_merge(
            np.concatenate((x_slice, p_slice, c_slice)),
            np.concatenate((x_slice, p_slice, c_slice)),
            np.concatenate(
                (x_owner, np.column_stack((r_owner, r_gpm)).ravel()[moved], c_source)
            ),
            np.concatenate(
                (x_gpm, np.column_stack((r_gpm, r_owner)).ravel()[moved], c_slice % n)
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
    system.fabric.transfer_batch(flows.src, flows.dst, flows.nbytes, flows.traffic)
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
    _advance(
        drams,
        "local_write_bytes",
        targets.gpm[f_local][writes],
        f_local_bytes[writes],
    )
    observer = system.remote_observer
    if observer is not None:
        for touch, gpm, nbytes in zip(
            touches.touch[crossed].tolist(), x_gpm.tolist(), x_bytes.tolist()
        ):
            observer(touches.resources[touch], gpm, nbytes)

    # Per-slice roll-ups: local bytes (touches, then the framebuffer)
    # and link bytes per peer (touches, framebuffer totals, command).
    local = np.zeros(slices)
    np.add.at(
        local,
        np.concatenate((touches.slice[t_local], targets.slice[f_local])),
        np.concatenate((t_local_bytes, f_local_bytes)),
    )
    f_total = z_cross + f_writes
    linked_target = f_total > 0
    peer = np.concatenate(
        (
            x_slice * n + x_owner,
            r_slice[linked_target] * n + r_owner[linked_target],
            c_slice * n + command_source,
        )
    )
    link = np.zeros(slices * n)
    np.add.at(link, peer, np.concatenate((x_bytes, f_total[linked_target], c_bytes)))
    linked = np.bincount(peer, minlength=slices * n) > 0

    # dram_demand contributions: per (touch, GPM) visit its remote
    # owners, then its local part; per slice its targets' depth reads
    # and writes, then the framebuffer's local part.
    t_bytes = np.zeros(touches.gpm.size)
    t_bytes[t_remote] = t_cross
    t_bytes[t_local] = t_local_bytes
    rows = np.flatnonzero(t_bytes > 0)
    rows = rows[np.argsort(touches.visit[rows] * 2 + t_local[rows], kind="stable")]
    l_slice = targets.slice[f_local][writes]
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
    return local, link, linked, flows, demand


def _roofline(
    system: "MultiGPUSystem",
    compute: np.ndarray,
    local: np.ndarray,
    link: np.ndarray,
    linked: np.ndarray,
) -> np.ndarray:
    """:meth:`ExecutionEngine.price`'s cycles for every slice."""
    n = system.num_gpms
    config = system.config
    gpm = np.arange(local.size) % n
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
    labels: List[str],
    cycles: np.ndarray,
    vertices: np.ndarray,
    pixels: np.ndarray,
    triangles: np.ndarray,
) -> None:
    """Run every slice on its GPM, as :meth:`ExecutionEngine.execute`."""
    gpms = engine.system.gpms
    n = len(gpms)
    per_gpm = cycles.reshape(-1, n)
    starts = np.empty_like(per_gpm)
    ends = np.empty_like(per_gpm)
    for g, gpm in enumerate(gpms):
        clock = _running(gpm.ready_at, per_gpm[:, g])
        starts[:, g] = clock[:-1]
        ends[:, g] = clock[1:]
        gpm.ready_at = clock[-1].item()
        gpm.busy_cycles = _running(gpm.busy_cycles, per_gpm[:, g])[-1].item()
        gpm.transformed_vertices = _running(
            gpm.transformed_vertices, vertices
        )[-1].item()
        gpm.rendered_pixels = _running(gpm.rendered_pixels, pixels)[-1].item()
        gpm.rendered_triangles = _running(
            gpm.rendered_triangles, triangles
        )[-1].item()
        gpm.executed.extend(labels[g::n])
    engine._intervals.extend(
        map(
            TraceInterval,
            list(range(n)) * (len(labels) // n),
            labels,
            starts.ravel().tolist(),
            ends.ravel().tolist(),
            repeat("render"),
        )
    )
