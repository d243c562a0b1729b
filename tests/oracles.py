"""The oracle table: every batched fast path beside its scalar reference.

Each fast path behind the paper's mechanisms (the Fig. 12 TSL grouping
and batch merge, Eq. 3 characterisation, the Table 3 workload
generator, the slice pass, the event window loop) keeps a scalar reference that production never
runs, and tests hold the two equal with ``==``.  :data:`ORACLES` is the
one list of them.  Each :class:`Oracle` names a production target by
dotted path (where production looks it up, so a patch takes effect),
the reference patched over it and what the reference covers.
:func:`all_oracles` applies the whole table at once, or the table
without the per-slice frame bodies, which replace the static schemes'
frames and so bypass the slice pass's column kernels; either way every
pinned grid must render byte for byte (``tests/test_oracles.py``, and
``python -m tests.oracles WORKLOAD`` for a whole ``perfbench`` grid).

The references live here, as functions taking what was ``self``, with
the helpers only they use.  So do the plain oracles that replace no
production call: :func:`per_slice` (the slice pass bound one slice at a
time), :class:`SetAssociativeCache` and :func:`working_set_hit_rate`
(the exact cache and the analytic curve, which ``tests/test_memory.py``
compares with each other by ordering, not with ``==``) and the scene
generator's :func:`make_scene_reference`.  Tests and
``benchmarks/bench_simulator_throughput.py`` import all of it from
here, always as ``tests.oracles``, so the module loads once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import math
import pathlib
import pkgutil
import sys
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from unittest import mock

import numpy as np

from repro.core.middleware import Batch, OOMiddleware
from repro.core.tsl import byte_shares, tsl_from_shares
from repro.engine.base import EngineError
from repro.engine.event import (
    _EPS,
    _MAX_ZERO_WINDOWS,
    _REL,
    EventEngine,
    Link,
    _Recording,
    _RunState,
    _SimResult,
    _spans,
)
from repro.config import CostModel
from repro.memory.address import Touch, texture_resource, vertex_resource
from repro.memory.cache import _hit_rate, miss_bytes
from repro.memory.remote_cache import RemoteCache
from repro.pipeline.batch import MIN_TOUCH_BYTES
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import UnitColumns, WorkUnit
from repro.render.math3d import transform_points
from repro.render.mesh3d import TriangleMesh
from repro.render.raster import (
    DrawStats,
    FragmentShader,
    Rasterizer,
    checker_shader,
)
from repro.scene.geometry import Mesh, Viewport
from repro.scene.objects import Eye, RenderObject, StereoDraw
from repro.scene.scene import Frame, Scene
from repro.scene.synthetic import SyntheticSceneGenerator
from repro.scene.texture import Texture
from repro.stats.metrics import SceneResult, TrafficBreakdown

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: The engines a grid cell can run.
ENGINES = ("analytic", "event")


# ---------------------------------------------------------------------------
# The event engine's window loop
# ---------------------------------------------------------------------------


class _JobArrays:
    """Struct-of-array demand state for one reference simulation pass.

    Built from a :class:`_Recording`'s columns after every
    ``_note_shed`` scale-down has been applied: the job compute column,
    every DRAM row above the dust threshold and every flow row, copied,
    so the loop drains them without touching the recording.  Each
    window's bandwidth shares, next-event horizon and depletion are then
    elementwise float64 expressions over these rows — the exact
    expressions the retired per-object loop evaluated, so completion
    times (and the goldens pinned on them) are bit-equal.  Routes are
    stored CSR-style over a first-seen link table so per-flow rates
    reduce with ``np.minimum.reduceat``.
    """

    def __init__(self, recording: _Recording) -> None:
        self.count = count = len(recording)
        self.compute = np.array(recording.compute, dtype=np.float64)
        jobs = np.arange(count, dtype=np.int64)
        dram_bounds = np.array(recording.dram_bounds, dtype=np.int64)
        dram_bytes = np.array(recording.dram_bytes, dtype=np.float64)
        # Mirrors the old _ActiveJob filter: float-dust DRAM demands
        # never participate.
        live = dram_bytes > _EPS
        self.dram_job = np.repeat(jobs, np.diff(dram_bounds))[live]
        self.dram_gpm = np.array(recording.dram_gpm, dtype=np.int64)[live]
        self.dram_rem = dram_bytes[live]
        self.job_f0 = np.array(recording.flow_bounds, dtype=np.int64)
        self.flow_job = np.repeat(jobs, np.diff(self.job_f0))
        self.flow_lat = np.array(recording.flow_latency, dtype=np.float64)
        self.flow_bytes = np.array(recording.flow_bytes, dtype=np.float64)
        self.flow_scale = np.array(recording.flow_scale, dtype=np.float64)
        # Contiguous per-job row ranges (jobs are recorded in order), so
        # activation/retirement toggles the row masks with one slice.
        self.job_d0 = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.dram_job, minlength=count), out=self.job_d0[1:]
        )
        # Link ids in first-seen order over the flows: only a route's
        # first use can bring links not seen before.  Row ``rid`` of
        # ``table`` holds route ``rid``'s link ids, padded.
        rids = np.array(recording.flow_route, dtype=np.int64)
        used, first = np.unique(rids, return_index=True)
        width = max(map(len, recording.routes), default=0)
        table = np.zeros((len(recording.routes), width), dtype=np.int64)
        link_ids: Dict[Link, int] = {}
        for rid in used[np.argsort(first)].tolist():
            for hop, link in enumerate(recording.routes[rid]):
                table[rid, hop] = link_ids.setdefault(link, len(link_ids))
        counts = np.array(
            [len(route) for route in recording.routes], dtype=np.int64
        )[rids]
        self.route_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        self.route_links = table[rids][np.arange(width) < counts[:, None]]
        #: Flow row of each route element (for masking/bincount).
        self.route_rep = np.repeat(
            np.arange(rids.size, dtype=np.int64), counts
        )
        self.route_len = counts.astype(np.float64)
        #: Link table in first-seen order; row i is link id i.
        self.links: List[Link] = list(link_ids)
        # Open memory/flow components per job (a flow is one component:
        # done only once latency *and* bytes drain).  The simulation
        # copy is decremented as rows cross the dust threshold, so the
        # retirement predicate is two scalar reads, and a job with no
        # live demand at all completes instantly on activation (the
        # same predicate the per-object loop evaluated).
        pending = np.bincount(self.dram_job, minlength=count)
        not_done = (self.flow_lat > _EPS) | (self.flow_bytes > _EPS)
        self.pending0 = pending + np.bincount(
            self.flow_job[not_done], minlength=count
        )
        self.zero_demand = (self.compute <= _EPS) & (self.pending0 == 0)


def simulate_reference(
    engine: EventEngine, recording: _Recording
) -> _SimResult:
    """The full-scan window loop :meth:`EventEngine._simulate` must
    equal on every :class:`_SimResult` field.

    Every window re-derives the live-row sets with ``nonzero``/
    ``bincount`` scans over *all* rows — O(total) per window — reading
    the recording through :class:`_JobArrays`.  It is also the
    reference side of the throughput bench's same-host loop A/B.
    """
    system = engine.system
    n = system.num_gpms
    dram_bw = system.config.gpm.dram_bytes_per_cycle
    link_bw = system.config.link.bytes_per_cycle

    arrays = _JobArrays(recording)
    labels = recording.labels
    gpm_of = recording.gpm.tolist()
    floor_of = recording.floor.tolist()
    flow_bounds = recording.flow_bounds.tolist()
    flow_route = recording.flow_route.tolist()
    recorded_bytes = recording.flow_bytes.tolist()
    compute_rem = arrays.compute
    dram_job, dram_gpm = arrays.dram_job, arrays.dram_gpm
    dram_rem = arrays.dram_rem
    flow_job, flow_lat = arrays.flow_job, arrays.flow_lat
    flow_bytes, flow_scale = arrays.flow_bytes, arrays.flow_scale
    route_offsets, route_links = arrays.route_offsets, arrays.route_links
    route_rep, route_len = arrays.route_rep, arrays.route_len
    job_d0, job_f0 = arrays.job_d0, arrays.job_f0
    num_links = len(arrays.links)
    have_dram = dram_job.size > 0
    have_flows = flow_job.size > 0
    run_mask = np.zeros(arrays.count, dtype=bool)
    #: Row-level running masks, toggled by slice on (de)activation.
    d_run = np.zeros(dram_job.size, dtype=bool)
    f_run = np.zeros(flow_job.size, dtype=bool)
    pending = arrays.pending0.copy()
    link_busy_acc = np.zeros(num_links, dtype=np.float64)

    queues: List[deque] = [deque() for _ in range(n)]
    background: List[int] = []
    for idx, lane in enumerate(recording.background):
        if lane:
            background.append(idx)
        else:
            queues[gpm_of[idx]].append(idx)
    bg_pending: List[int] = sorted(background, key=floor_of.__getitem__)
    bg_active: List[_RunState] = []

    active: Dict[int, _RunState] = {}
    t = 0.0
    busy = [0.0] * n
    end = [0.0] * n
    #: Retired jobs as ``(job, start, end)``, as _simulate logs them.
    retired: List[Tuple[int, float, float]] = []
    link_bytes: Dict[Link, float] = {}

    def account_bytes(idx: int) -> None:
        for row in range(flow_bounds[idx], flow_bounds[idx + 1]):
            nbytes = recorded_bytes[row]
            for link in recording.routes[flow_route[row]]:
                link_bytes[link] = link_bytes.get(link, 0.0) + nbytes

    # Every DRAM row counts, dust included.
    total_components = (
        arrays.count + len(recording.dram_bytes) + len(recorded_bytes)
    )
    max_steps = 1000 + 16 * (total_components + arrays.count)
    steps = 0
    zero_windows = 0
    windows = 0
    live_rows = 0

    while active or any(queues) or bg_active or bg_pending:
        steps += 1
        if steps > max_steps:
            raise EngineError(
                "event simulation failed to converge "
                f"({arrays.count - len(background)} jobs, {steps} steps)"
            )

        # Start any idle GPM's head job whose floor has passed;
        # zero-demand units complete instantly and hand the GPM to
        # the next queued job within the same window.
        next_start = float("inf")
        for gpm in range(n):
            while gpm not in active and queues[gpm]:
                floor = floor_of[queues[gpm][0]]
                if floor > t * (1 + _REL) + _EPS:
                    next_start = min(next_start, floor)
                    break
                idx = queues[gpm].popleft()
                start = max(t, floor)
                if arrays.zero_demand[idx]:  # instantaneous
                    retired.append((idx, start, start))
                    end[gpm] = max(end[gpm], start)
                    account_bytes(idx)
                    continue
                active[gpm] = _RunState(idx, start)
                run_mask[idx] = True
                d_run[job_d0[idx] : job_d0[idx + 1]] = True
                f_run[job_f0[idx] : job_f0[idx + 1]] = True
        # Background copies activate on their floor regardless of
        # what their GPM is doing — the copy engines, not the SMs,
        # move the bytes.
        while bg_pending:
            floor = floor_of[bg_pending[0]]
            if floor > t * (1 + _REL) + _EPS:
                next_start = min(next_start, floor)
                break
            idx = bg_pending.pop(0)
            start = max(t, floor)
            if arrays.zero_demand[idx]:
                retired.append((idx, start, start))
                account_bytes(idx)
                continue
            bg_active.append(_RunState(idx, start))
            run_mask[idx] = True
            d_run[job_d0[idx] : job_d0[idx + 1]] = True
            f_run[job_f0[idx] : job_f0[idx + 1]] = True

        if not active and not bg_active:
            if next_start == float("inf"):
                break
            t = next_start
            continue

        # Concurrent users per shared resource in this window, as
        # bincounts over the live demand rows.
        if have_dram:
            d_idx = np.nonzero(d_run & (dram_rem > _EPS))[0]
            if d_idx.size:
                d_gpm = dram_gpm[d_idx]
                dram_users = np.bincount(d_gpm, minlength=n)
                #: Per-row bandwidth share, same expression the
                #: per-object loop divided with.
                dram_share = dram_bw / dram_users[d_gpm]
        if have_flows:
            lat_open = flow_lat > _EPS
            lat_idx = np.nonzero(f_run & lat_open)[0]
            b_mask = f_run & ~lat_open & (flow_bytes > _EPS)
            b_idx = np.nonzero(b_mask)[0]
            link_users = np.bincount(
                route_links[b_mask[route_rep]], minlength=num_links
            )
            if b_idx.size:
                # Bandwidth share on the most contended link of
                # each route, serialised over the hop count —
                # uncontended this reproduces the analytic bytes x
                # hops wire-load charge exactly, so engine gaps
                # isolate contention.  (Links with no active flow
                # are floored to one user; their garbage rates are
                # masked out by b_idx.)
                per_hop = link_bw / np.maximum(link_users, 1)[route_links]
                b_rate = (
                    np.minimum.reduceat(per_hop, route_offsets[:-1])
                    * flow_scale
                )[b_idx] / route_len[b_idx]
                b_bytes = flow_bytes[b_idx]

        # Time to the next completion or rate change.
        dt = next_start - t if next_start != float("inf") else float("inf")
        c_idx = np.nonzero(run_mask & (compute_rem > _EPS))[0]
        if c_idx.size:
            dt = min(dt, float(compute_rem[c_idx].min()))
        if have_dram and d_idx.size:
            dt = min(dt, float((dram_rem[d_idx] / dram_share).min()))
        if have_flows:
            if lat_idx.size:
                dt = min(dt, float(flow_lat[lat_idx].min()))
            if b_idx.size:
                dt = min(dt, float((b_bytes / b_rate).min()))

        windows += 1
        live_rows += c_idx.size
        if have_dram:
            live_rows += d_idx.size
        if have_flows:
            live_rows += lat_idx.size + b_idx.size

        if dt == float("inf"):
            # Same bounded-streak diagnostic as the incremental
            # loop (both loops share retire semantics, so the
            # property tests compare like with like).
            zero_windows += 1
            if zero_windows >= _MAX_ZERO_WINDOWS:
                raise engine._stall_error(labels, active, bg_active)
            dt = 0.0
        else:
            zero_windows = 0
        dt = max(dt, 0.0)

        # Advance the window: deplete demands, accumulate occupancy
        # and retire the per-job open-component counts as rows
        # cross the dust threshold.
        if dt > 0.0:
            t += dt
            for gpm in active:
                busy[gpm] += dt
            if have_flows:
                link_busy_acc[link_users > 0] += dt
            if c_idx.size:
                compute_rem[c_idx] -= dt
            if have_dram and d_idx.size:
                new_d = dram_rem[d_idx] - dt * dram_share
                dram_rem[d_idx] = new_d
                closed = d_idx[new_d <= _EPS]
                if closed.size:
                    np.subtract.at(pending, dram_job[closed], 1)
            if have_flows:
                if lat_idx.size:
                    new_l = flow_lat[lat_idx] - dt
                    flow_lat[lat_idx] = new_l
                    expired = lat_idx[new_l <= _EPS]
                    if expired.size:
                        # A flow with nothing left to stream is
                        # done the moment its wire latency drains.
                        settled = expired[flow_bytes[expired] <= _EPS]
                        if settled.size:
                            np.subtract.at(
                                pending, flow_job[settled], 1
                            )
                if b_idx.size:
                    new_b = b_bytes - dt * b_rate
                    flow_bytes[b_idx] = new_b
                    drained = b_idx[new_b <= _EPS]
                    if drained.size:
                        np.subtract.at(pending, flow_job[drained], 1)

        # Retire completed jobs: compute drained and no DRAM or
        # flow component still above the dust threshold.
        for gpm in list(active):
            state = active[gpm]
            if not (
                compute_rem[state.idx] <= _EPS
                and pending[state.idx] == 0
            ):
                continue
            idx = state.idx
            retired.append((idx, state.start, t))
            end[gpm] = max(end[gpm], t)
            account_bytes(idx)
            del active[gpm]
            run_mask[idx] = False
            d_run[job_d0[idx] : job_d0[idx + 1]] = False
            f_run[job_f0[idx] : job_f0[idx + 1]] = False
        for state in list(bg_active):
            if not (
                compute_rem[state.idx] <= _EPS
                and pending[state.idx] == 0
            ):
                continue
            idx = state.idx
            retired.append((idx, state.start, t))
            account_bytes(idx)
            bg_active.remove(state)
            run_mask[idx] = False
            d_run[job_d0[idx] : job_d0[idx + 1]] = False
            f_run[job_f0[idx] : job_f0[idx + 1]] = False

    link_busy: Dict[Link, float] = {
        arrays.links[i]: float(link_busy_acc[i])
        for i in np.nonzero(link_busy_acc > 0.0)[0]
    }
    return _SimResult(
        busy=busy,
        end=end,
        spans=_spans(recording, retired),
        link_busy=link_busy,
        link_bytes=link_bytes,
        windows=windows,
        live_rows=live_rows,
    )


# ---------------------------------------------------------------------------
# The Fig. 12 grouping
# ---------------------------------------------------------------------------


def build_batches_reference(
    middleware: OOMiddleware, objects: Sequence[RenderObject]
) -> List[Batch]:
    """The Fig. 12 loop, one scalar Eq. 1 probe per candidate.

    The oracle :meth:`OOMiddleware.build_batches` must equal with ``==``.
    """
    queue: List[RenderObject] = list(objects)
    # A candidate's Eq. 1 share vector depends only on its own texture
    # bindings, so compute each one once up front instead of once per
    # (root, candidate) probe — the shares were the dominant cost of
    # the O(n^2) scan.  The root's vector only changes when a merge
    # grows its texture set, so it is recomputed on accept, not per
    # probe.  Both vectors keep the scalar path's key order, making
    # every TSL bit-identical.
    shares_of: Dict[int, dict] = {
        obj.object_id: byte_shares(obj.textures) for obj in objects
    }
    batches: List[Batch] = []
    while queue:
        root = queue.pop(0)
        members: List[RenderObject] = [root]
        member_ids: Set[int] = {root.object_id}
        root_textures: Dict[int, Texture] = {
            t.texture_id: t for t in root.textures
        }
        root_shares = byte_shares(tuple(root_textures.values()))
        triangles = root.mesh.num_triangles
        limit = middleware.triangle_limit
        index = 0
        while index < len(queue) and triangles < limit:
            candidate = queue[index]
            depends_on_batch = (
                candidate.depends_on is not None
                and candidate.depends_on in member_ids
            )
            if depends_on_batch:
                # Direct merge; raise the cap so the dependent draw
                # never splits away from its parent.
                limit += candidate.mesh.num_triangles
                accept = True
            else:
                tsl = tsl_from_shares(
                    root_shares, shares_of[candidate.object_id]
                )
                accept = tsl > middleware.tsl_threshold
            if not accept:
                index += 1
                continue
            queue.pop(index)
            members.append(candidate)
            member_ids.add(candidate.object_id)
            for texture in candidate.textures:
                root_textures.setdefault(texture.texture_id, texture)
            root_shares = byte_shares(tuple(root_textures.values()))
            triangles += candidate.mesh.num_triangles
        batches.append(Batch(batch_id=len(batches), objects=tuple(members)))
    return batches


# ---------------------------------------------------------------------------
# The OO batch merge
# ---------------------------------------------------------------------------


def merge_units(label: str, units: Tuple[WorkUnit, ...]) -> WorkUnit:
    """Concatenate several units into one batch-level unit.

    The OO middleware's merge over built units: the batch is scheduled
    as one quantum, its draw overheads amortised by the command
    processor submitting them back to back.
    """
    if not units:
        raise ValueError("cannot merge zero units")
    views = max(u.views for u in units)
    touches: dict = {}
    for unit in units:
        for touch in unit.texture_touches:
            prev = touches.get(touch.resource.resource_id)
            if prev is None:
                touches[touch.resource.resource_id] = Touch(
                    resource=touch.resource,
                    unique_bytes=touch.unique_bytes,
                    stream_bytes=touch.stream_bytes,
                    write_bytes=touch.write_bytes,
                )
            else:
                # Shared texture within the batch: streams add, but the
                # unique footprint is shared (this is the TSL payoff —
                # the second object re-reads cached data).
                touches[touch.resource.resource_id] = Touch(
                    resource=touch.resource,
                    unique_bytes=max(prev.unique_bytes, touch.unique_bytes),
                    stream_bytes=prev.stream_bytes + touch.stream_bytes,
                    write_bytes=prev.write_bytes + touch.write_bytes,
                )
    vertex_touches: list = []
    for unit in units:
        vertex_touches.extend(unit.vertex_touches)
    return WorkUnit(
        label=label,
        views=views,
        vertices=sum(u.vertices for u in units),
        triangles_setup=sum(u.triangles_setup for u in units),
        triangles_raster=sum(u.triangles_raster for u in units),
        fragments=sum(u.fragments for u in units),
        pixels_out=sum(u.pixels_out for u in units),
        texel_requests=sum(u.texel_requests for u in units),
        shader_complexity=(
            sum(u.shader_complexity * u.fragments for u in units)
            / max(1.0, sum(u.fragments for u in units))
        ),
        texture_touches=tuple(touches.values()),
        vertex_touches=tuple(vertex_touches),
        z_stream_bytes=sum(u.z_stream_bytes for u in units),
        z_unique_bytes=sum(u.z_unique_bytes for u in units),
        fb_write_bytes=sum(u.fb_write_bytes for u in units),
        command_bytes=sum(u.command_bytes for u in units),
        fraction=1.0,
        draw_count=sum(u.draw_count for u in units),
    )


def merge_rows_reference(
    table: UnitColumns, groups: Sequence[Tuple[str, Sequence[int]]]
) -> List[WorkUnit]:
    """Each ``(label, rows)`` group's units read out of the table
    (:meth:`UnitColumns.units`), then merged by :func:`merge_units`."""
    units = table.units()
    return [
        merge_units(label, tuple(units[row] for row in rows))
        for label, rows in groups
    ]


# ---------------------------------------------------------------------------
# The validation rasterizer
# ---------------------------------------------------------------------------


def draw_mesh_reference(
    raster: Rasterizer,
    mesh: TriangleMesh,
    mvp: np.ndarray,
    shader: Optional[FragmentShader] = None,
    cull_backfaces: bool = True,
) -> DrawStats:
    """The per-triangle walk :meth:`Rasterizer.draw_mesh` batches.

    Walks faces one at a time exactly as the pre-SoA pipeline did; it
    must produce the same :class:`DrawStats` and framebuffer contents
    as :meth:`~Rasterizer.draw_mesh` on any input.
    """
    if shader is None:
        shader = checker_shader()
    stats = DrawStats(triangles_in=mesh.num_triangles)
    if mesh.num_triangles == 0:
        return stats
    clip = transform_points(mvp, mesh.positions)
    stats.vertices_transformed = mesh.num_vertices
    screen, w = raster._to_screen(clip)

    for face in mesh.faces:
        tri_w = w[face]
        if np.any(tri_w <= 1e-9):
            stats.triangles_clipped += 1
            continue
        tri = screen[face]
        uv = mesh.uvs[face]
        stats_drawn = _raster_triangle(
            raster, tri, uv, tri_w, shader, cull_backfaces
        )
        if stats_drawn is None:
            stats.triangles_culled += 1
            continue
        shaded, written = stats_drawn
        stats.triangles_rasterised += 1
        stats.fragments_shaded += shaded
        stats.pixels_written += written
    raster.target.pixels_written += stats.pixels_written
    return stats


def _raster_triangle(
    raster: Rasterizer,
    tri: np.ndarray,
    uv: np.ndarray,
    tri_w: np.ndarray,
    shader: FragmentShader,
    cull_backfaces: bool,
) -> Optional[Tuple[int, int]]:
    """Rasterise one screen-space triangle.

    Returns ``(fragments_shaded, pixels_written)`` or ``None`` when the
    triangle is back-facing / degenerate / fully outside.
    """
    (x0, y0), (x1, y1), (x2, y2) = tri[:, 0:2]
    # Signed twice-area; raster y grows down so CCW-in-NDC becomes
    # negative here — front faces have area < 0.
    area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area == 0.0:
        return None
    if cull_backfaces and area > 0.0:
        return None
    return raster._raster_coverage(tri, uv, tri_w, area, shader)


# ---------------------------------------------------------------------------
# The Table 3 workload generator
# ---------------------------------------------------------------------------


def _pick_textures(generator: SyntheticSceneGenerator) -> Tuple[Texture, ...]:
    p = generator.profile
    lo, hi = p.textures_per_object
    count = int(generator._rng.integers(lo, hi + 1))
    count = min(count, len(generator._materials))
    indices = generator._rng.choice(
        len(generator._materials),
        size=count,
        replace=False,
        p=generator._material_popularity,
    )
    return tuple(generator._materials[i] for i in sorted(indices))


def _object_viewports(
    generator: SyntheticSceneGenerator,
) -> Tuple[Optional[Viewport], Optional[Viewport], float]:
    """Left/right eye rectangles plus the object's footprint area."""
    p = generator.profile
    rng = generator._rng
    eye_area = p.width * p.height
    area = eye_area * float(
        rng.lognormal(math.log(p.footprint_median), p.footprint_sigma)
    )
    area = min(area, 0.85 * eye_area)
    area = max(area, 64.0)
    aspect = float(rng.uniform(0.5, 2.0))
    w = min(math.sqrt(area * aspect), 0.95 * p.width)
    h = min(area / w, 0.95 * p.height)

    cx = float(rng.uniform(w / 2, p.width - w / 2))
    # Vertical skew: blend a uniform sample towards the lower half.
    u = float(rng.uniform(0.0, 1.0))
    skewed = u ** (1.0 / (1.0 + 2.5 * p.vertical_skew))
    cy = h / 2 + skewed * (p.height - h)
    cy = min(max(cy, h / 2), p.height - h / 2)

    left = Viewport(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    disparity = float(rng.uniform(-1.0, 1.0)) * p.max_disparity * p.width
    right = left.shifted(disparity)
    bounds = Viewport(0.0, 0.0, float(p.width), float(p.height))
    right_clamped = right.clamped(bounds)

    if rng.uniform() < p.mono_fraction:
        if rng.uniform() < 0.5:
            return left, None, area
        return None, right_clamped or left, area
    return left, right_clamped or left, area


def _make_object_reference(
    generator: SyntheticSceneGenerator, object_id: int, prev_id: Optional[int]
) -> RenderObject:
    """The original scalar object builder."""
    p = generator.profile
    rng = generator._rng
    triangles = int(
        max(8, rng.lognormal(math.log(p.triangles_median), p.triangles_sigma))
    )
    # Indexed meshes: ~0.6 vertices per triangle for typical reuse.
    vertices = max(3, int(triangles * float(rng.uniform(0.5, 0.75))))
    left, right, _area = _object_viewports(generator)
    depth = 1.0 + float(
        rng.gamma(shape=2.0, scale=(p.depth_complexity_mean - 1.0) / 2.0)
    )
    shader = float(max(0.25, rng.normal(p.shader_complexity_mean, 0.25)))
    coverage = float(rng.uniform(0.30, 0.75))
    depends: Optional[int] = None
    if prev_id is not None and rng.uniform() < p.dependency_fraction:
        depends = prev_id
    return RenderObject(
        object_id=object_id,
        name=f"{p.name}/obj{object_id:05d}",
        mesh=Mesh(vertices, triangles),
        textures=_pick_textures(generator),
        viewport_left=left,
        viewport_right=right,
        depth_complexity=depth,
        shader_complexity=shader,
        coverage=coverage,
        depends_on=depends,
    )


def make_frame_reference(
    generator: SyntheticSceneGenerator, frame_id: int = 0
) -> Frame:
    """One frame through the per-object scalar RNG walk.

    The oracle :meth:`SyntheticSceneGenerator.make_frame` must equal,
    object for object, leaving the generator's PCG64 stream at the same
    position.  The frame's object batch is flattened from its objects
    when first read.  Do not mix the two paths on one generator: the
    batched path shadows PCG64's 32-bit buffer in Python.
    """
    objects: List[RenderObject] = []
    prev_id: Optional[int] = None
    for index in range(generator.profile.num_objects):
        obj = _make_object_reference(generator, index, prev_id)
        objects.append(obj)
        prev_id = obj.object_id
    return Frame(
        objects=tuple(objects),
        width=generator.profile.width,
        height=generator.profile.height,
        frame_id=frame_id,
    )


def make_scene_reference(
    generator: SyntheticSceneGenerator, num_frames: int = 4
) -> Scene:
    """The reference path's
    :meth:`~SyntheticSceneGenerator.make_scene`."""
    frames = tuple(
        make_frame_reference(generator, i) for i in range(num_frames)
    )
    return Scene(name=generator.profile.name, frames=frames)


# ---------------------------------------------------------------------------
# Tile-SFR's strip shares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripShare:
    """One strip's share of a draw's work."""

    strip_index: int
    #: Fraction of the draw's fragments falling in this strip.
    pixel_share: float
    #: Fraction of the draw's triangles this strip must process.
    geometry_share: float


def strip_shares(
    viewports: Sequence[Viewport], strips: Sequence[Viewport]
) -> List[StripShare]:
    """How a draw spanning ``viewports`` splits across ``strips``.

    Pixel shares are exact area fractions.  The geometry share of an
    overlapped strip is the full mesh: a sort-first renderer cannot know
    which triangles land where without transforming them, so each
    overlapping strip transforms the whole object (this is the "object
    overlapping across the tiles" redundancy of Section 4.2).  Only
    strips the draw covers with positive area get a share: a strip the
    draw merely touches along an edge (a zero-area intersection, which
    :meth:`Viewport.intersection` reports as ``None``) gets none, so
    every listed share has ``pixel_share > 0``.
    """
    total_area = sum(v.area for v in viewports)
    shares: List[StripShare] = []
    for index, strip in enumerate(strips):
        overlap_area = 0.0
        overlaps = False
        for viewport in viewports:
            inter = viewport.intersection(strip)
            if inter is not None:
                overlap_area += inter.area
                overlaps = True
        if not overlaps:
            continue
        shares.append(
            StripShare(
                strip_index=index,
                pixel_share=overlap_area / total_area,
                geometry_share=1.0,
            )
        )
    return shares


def normalize_pixel_shares(shares: List[StripShare]) -> List[StripShare]:
    """Rescale pixel shares to sum to 1 (guard against clipped slivers)."""
    total = sum(s.pixel_share for s in shares)
    if total <= 0:
        if not shares:
            return shares
        equal = 1.0 / len(shares)
        return [
            StripShare(s.strip_index, equal, s.geometry_share) for s in shares
        ]
    return [
        StripShare(s.strip_index, s.pixel_share / total, s.geometry_share)
        for s in shares
    ]


def strip_share_columns_reference(
    draws: int,
    draw: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    strips: Sequence[Viewport],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.pipeline.raster.strip_share_columns` through
    :func:`strip_shares` and :func:`normalize_pixel_shares`, draw by
    draw, each draw's rectangles rebuilt as viewports."""
    viewports: List[List[Viewport]] = [[] for _ in range(draws)]
    for index, *edges in zip(
        draw.tolist(), x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist()
    ):
        viewports[index].append(Viewport(*edges))
    rows = [
        (index, share.strip_index, share.pixel_share)
        for index, rects in enumerate(viewports)
        for share in normalize_pixel_shares(strip_shares(rects, strips))
    ]
    shared, strip, pixel_share = np.array(rows, np.float64).reshape(-1, 3).T
    return shared.astype(np.int64), strip.astype(np.int64), pixel_share


# ---------------------------------------------------------------------------
# The scene result's traffic fold
# ---------------------------------------------------------------------------


def merged_with(
    traffic: TrafficBreakdown, other: TrafficBreakdown
) -> TrafficBreakdown:
    """Both breakdowns summed by type, ``traffic``'s keys first."""
    merged = dict(traffic.by_type)
    for key, value in other.by_type.items():
        merged[key] = merged.get(key, 0.0) + value
    return TrafficBreakdown(merged)


def scene_traffic_reference(result: SceneResult) -> TrafficBreakdown:
    """Every frame's traffic: :func:`merged_with` chained frame by frame
    from an empty breakdown, a dict copy per frame."""
    traffic = TrafficBreakdown({})
    for frame in result.frames:
        traffic = merged_with(traffic, frame.traffic)
    return traffic


# ---------------------------------------------------------------------------
# The frame memo and Eq. 3 characterisation
# ---------------------------------------------------------------------------


def derived_memo_free(
    frame: Frame, key: Hashable, build: Callable[[], Any]
) -> Any:
    """:meth:`Frame.derived` without the memo: every artefact built
    afresh."""
    return build()


@dataclass(frozen=True)
class GeometryWork:
    """Geometry-stage work for one scheduled draw."""

    vertices: float
    triangles_setup: float
    triangles_raster: float
    views: int


def geometry_work_reference(
    cost: CostModel, draw: StereoDraw, mode: SMPMode
) -> GeometryWork:
    """Vertex/triangle counts for ``draw`` under ``mode``.

    ``SEQUENTIAL`` mode on an ``Eye.BOTH`` draw prices *both* full
    passes (the caller chose not to split the draw); per-eye draws
    are unaffected by the mode.
    """
    mesh = draw.mesh
    views = draw.view_count
    survival = cost.cull_survival
    if views == 1:
        return GeometryWork(
            vertices=float(mesh.num_vertices),
            triangles_setup=float(mesh.num_triangles),
            triangles_raster=mesh.num_triangles * survival,
            views=1,
        )
    if mode is SMPMode.SEQUENTIAL:
        return GeometryWork(
            vertices=2.0 * mesh.num_vertices,
            triangles_setup=2.0 * mesh.num_triangles,
            triangles_raster=2.0 * mesh.num_triangles * survival,
            views=2,
        )
    # Simultaneous: shade once, duplicate projections.  The first
    # view pays full input assembly + setup; the duplicated view's
    # triangles arrive already transformed, so re-projection costs
    # half a setup pass plus the SMP engine overhead.  Both views
    # rasterise in full.
    setup = mesh.num_triangles * (1.5 + cost.smp_projection_overhead)
    return GeometryWork(
        vertices=float(mesh.num_vertices),
        triangles_setup=setup,
        triangles_raster=2.0 * mesh.num_triangles * survival,
        views=2,
    )


def texture_touches_reference(
    textures: Sequence[Texture],
    fragments: float,
    cost: CostModel,
    view_reuse: float = 1.0,
) -> Tuple[float, Tuple[Touch, ...]]:
    """Texel demand and per-texture touches for ``fragments``.

    ``view_reuse`` models SMP multi-view texture sharing: when the two
    eye views render back-to-back on the same GPM, the second view's
    samples hit the same texels (small disparity), so its *unique*
    contribution collapses.  ``view_reuse=1`` means no sharing (mono or
    sequential stereo); ``2`` means two views share one footprint.
    """
    if fragments < 0:
        raise ValueError("fragments cannot be negative")
    if view_reuse < 1.0:
        raise ValueError("view_reuse is at least 1")
    texel_requests = (
        fragments * cost.samples_per_fragment * cost.anisotropic_texels_per_sample
    )
    raw_bytes = texel_requests * cost.bytes_per_texel
    if not textures or raw_bytes == 0:
        return texel_requests, ()

    total_size = float(sum(t.size_bytes for t in textures))
    touches = []
    for texture in textures:
        weight = texture.size_bytes / total_size
        raw_share = raw_bytes * weight
        # Unique texels: one view's fragments touch ~1 texel each at the
        # matched mip level; capped by the texture itself.
        unique = min(
            float(texture.size_bytes),
            max(
                MIN_TOUCH_BYTES,
                fragments * weight * cost.bytes_per_texel / view_reuse,
            ),
        )
        stream = max(unique, raw_share * cost.l1_texture_leak / view_reuse)
        touches.append(
            Touch(
                resource=texture_resource(texture.texture_id, texture.size_bytes),
                unique_bytes=unique,
                stream_bytes=stream,
            )
        )
    return texel_requests, tuple(touches)


def depth_and_color_reference(
    fragments: float,
    pixels_out: float,
    cost: CostModel,
) -> Tuple[float, float, float]:
    """(z stream, z unique, colour write) bytes for the raster output.

    Every fragment is depth-tested (stream); the touched depth region
    is the covered pixels (unique); survivors write colour.
    """
    if fragments < 0 or pixels_out < 0:
        raise ValueError("counts cannot be negative")
    z_stream = fragments * cost.bytes_per_ztest
    z_unique = pixels_out * cost.bytes_per_ztest
    fb_write = pixels_out * cost.bytes_per_pixel_out
    return z_stream, z_unique, fb_write


def characterize_reference(
    cost: CostModel,
    draw: StereoDraw,
    mode: SMPMode = SMPMode.SIMULTANEOUS,
    label: Optional[str] = None,
) -> WorkUnit:
    """One draw priced into a work unit, the scalar Eq. 3 walk.

    ``mode`` selects SMP behaviour for ``Eye.BOTH`` draws; per-eye
    draws ignore it.  SMP multi-view draws share texture footprints
    across the two views (``view_reuse=2``), which is the texture
    half of the paper's "data locality between the left and right
    views of the same object".
    """
    geometry = geometry_work_reference(cost, draw, mode)
    fragments = draw.fragments
    pixels = draw.covered_pixels

    multi_view = draw.eye is Eye.BOTH and mode is SMPMode.SIMULTANEOUS
    view_reuse = 2.0 if multi_view else 1.0
    texel_requests, texture_touches = texture_touches_reference(
        draw.textures, fragments, cost, view_reuse=view_reuse
    )
    z_stream, z_unique, fb_write = depth_and_color_reference(
        fragments, pixels, cost
    )

    mesh = draw.mesh
    vertex_bytes = geometry.vertices * cost.bytes_per_vertex
    vertex_touch = Touch(
        resource=vertex_resource(
            draw.obj.object_id, max(1, mesh.vertex_buffer_bytes)
        ),
        unique_bytes=float(mesh.vertex_buffer_bytes),
        stream_bytes=max(float(mesh.vertex_buffer_bytes), vertex_bytes),
    )

    # Sequential stereo on a BOTH draw issues two passes: the second
    # pass re-reads the textures with no sharing (temporally distant),
    # so streams and uniques both double relative to one view.
    return WorkUnit(
        label=label or f"{draw.obj.name}:{draw.eye.value}",
        views=geometry.views,
        vertices=geometry.vertices,
        triangles_setup=geometry.triangles_setup,
        triangles_raster=geometry.triangles_raster,
        fragments=fragments,
        pixels_out=pixels,
        texel_requests=texel_requests,
        shader_complexity=draw.obj.shader_complexity,
        texture_touches=texture_touches,
        vertex_touches=(vertex_touch,),
        z_stream_bytes=z_stream,
        z_unique_bytes=z_unique,
        fb_write_bytes=fb_write,
        command_bytes=cost.command_bytes_per_draw,
    )


def characterize_frame_reference(
    characterizer: DrawCharacterizer,
    frame: Frame,
    mode: SMPMode = SMPMode.SIMULTANEOUS,
    expansion: str = "multiview",
) -> Tuple[WorkUnit, ...]:
    """The frame's work units, one :func:`characterize_reference` call
    per draw, with no memo."""
    draws = {"multiview": frame.multiview_draws, "stereo": frame.stereo_draws}
    return tuple(
        characterize_reference(characterizer.cost, draw, mode)
        for draw in draws[expansion]()
    )


def unit_columns_reference(
    characterizer: DrawCharacterizer,
    frame: Frame,
    mode: SMPMode = SMPMode.SIMULTANEOUS,
    expansion: str = "multiview",
) -> UnitColumns:
    """The frame's unit table: :func:`characterize_frame_reference`
    read in by :meth:`UnitColumns.from_units`."""
    return UnitColumns.from_units(
        characterize_frame_reference(characterizer, frame, mode, expansion)
    )


# ---------------------------------------------------------------------------
# The slice pass's cache kernels, and the exact cache
# ---------------------------------------------------------------------------


def miss_bytes_columns_reference(
    stream_bytes: np.ndarray, unique_bytes: np.ndarray, cache_bytes: float
) -> np.ndarray:
    """:func:`~repro.memory.cache.miss_bytes`, one row at a time."""
    return np.array(
        [
            miss_bytes(stream, unique, cache_bytes)
            for stream, unique in zip(
                stream_bytes.tolist(), unique_bytes.tolist()
            )
        ],
        np.float64,
    )


def filter_columns_reference(
    caches: Sequence[RemoteCache],
    gpm: np.ndarray,
    stream_bytes: np.ndarray,
    unique_bytes: np.ndarray,
) -> np.ndarray:
    """:meth:`RemoteCache.filter`, one call per row in row order."""
    return np.array(
        [
            caches[index].filter(stream, unique)
            for index, stream, unique in zip(
                gpm.tolist(), stream_bytes.tolist(), unique_bytes.tolist()
            )
        ],
        np.float64,
    )


class SetAssociativeCache:
    """An LRU set-associative cache simulated exactly.

    Addresses are plain integers (byte addresses).  The cache records
    hits/misses and evictions; it is deliberately simple and correct
    rather than fast.  ``tests/test_memory.py`` checks the analytic
    working-set curve the timing path uses against it.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be divisible by ways * line")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self._sets: List[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line

    def access(self, address: int) -> bool:
        """Access one byte address; returns ``True`` on a hit."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways[tag] = None
        if len(ways) > self.ways:
            ways.popitem(last=False)
            self.evictions += 1
        return False

    def access_range(self, start: int, length: int) -> int:
        """Access every line in ``[start, start+length)``; returns misses."""
        if length <= 0:
            return 0
        before = self.misses
        line = start - (start % self.line_bytes)
        while line < start + length:
            self.access(line)
            line += self.line_bytes
        return self.misses - before

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


def working_set_hit_rate(
    unique_bytes: float,
    cache_bytes: float,
    reuse_factor: float = 4.0,
) -> float:
    """Analytic hit rate of a request stream over a working set.

    A stream that touches ``unique_bytes`` of distinct data
    ``reuse_factor`` times each through a ``cache_bytes`` cache:

    - if the working set fits, only compulsory misses remain:
      ``hit = 1 - 1/reuse``;
    - if it does not fit, the resident fraction still hits, the rest
      thrashes: the hit rate decays with the capacity ratio.

    The curve the timing path evaluates inside
    :func:`~repro.memory.cache.cache_exit_bytes`, with its argument
    checks.
    """
    if unique_bytes <= 0:
        return 1.0
    if cache_bytes <= 0:
        return 0.0
    if reuse_factor < 1.0:
        raise ValueError("reuse_factor must be >= 1 (each byte touched once)")
    return _hit_rate(unique_bytes, cache_bytes, reuse_factor, min)


# ---------------------------------------------------------------------------
# The slice pass's column entry points, one visit, pair or row at a time
# ---------------------------------------------------------------------------


def touch_rows_reference(placement, resources, visits, staged):
    """The slice pass's owner rows through one
    :meth:`~repro.memory.placement.PagePlacement.owner_fractions` read
    per visited (resource, GPM) pair in first-visit order — also behind
    a staging prelude, where the pass takes every visit as local
    without reading."""
    from repro.engine.split import _KIND_CODE, _TouchRows, _ragged

    n = placement.num_gpms
    pairs, first_visit, pair_of_visit = np.unique(
        visits.resource * n + visits.gpm,
        return_index=True,
        return_inverse=True,
    )
    pair_of_visit = pair_of_visit.reshape(-1)
    pair_list = pairs.tolist()
    pattern_of_pair = np.empty(pairs.size, np.int64)
    traffic_of_pair = np.empty(pairs.size, np.int64)
    patterns: Dict[tuple, int] = {}
    starts: List[int] = []
    lengths: List[int] = []
    owners: List[int] = []
    fractions: List[float] = []
    for pair in np.argsort(first_visit, kind="stable").tolist():
        row, gpm = divmod(pair_list[pair], n)
        resource = resources[row]
        items = tuple(placement.owner_fractions(resource, gpm).items())
        pattern = patterns.get(items)
        if pattern is None:
            pattern = patterns[items] = len(starts)
            starts.append(len(owners))
            lengths.append(len(items))
            owners.extend(owner for owner, _ in items)
            fractions.extend(fraction for _, fraction in items)
        pattern_of_pair[pair] = pattern
        traffic_of_pair[pair] = _KIND_CODE[resource.kind]
    pattern = pattern_of_pair[pair_of_visit]
    visit, offset = _ragged(np.array(lengths, np.int64)[pattern])
    slot = np.array(starts, np.int64)[pattern[visit]] + offset
    fraction = np.array(fractions, np.float64)[slot]
    return _TouchRows(
        visit=visit,
        slice=visits.slice[visit],
        gpm=visits.gpm[visit],
        owner=np.array(owners, np.int64)[slot],
        stream=visits.stream[visit] * fraction,
        unique=visits.unique[visit] * fraction,
        write=visits.write[visit] * fraction,
        traffic=traffic_of_pair[pair_of_visit[visit]],
        resource=visits.resource[visit],
    )


def stage_visits_reference(
    self, resources, resource, gpm, unique_bytes, scale
) -> np.ndarray:
    """:meth:`StagingManager.stage_visits
    <repro.gpu.staging.StagingManager.stage_visits>` as one
    ``_stage_touch`` call per visit, in visit order."""
    return np.array(
        [
            self._stage_touch(resources[row], nbytes, g, factor)
            for row, nbytes, g, factor in zip(
                resource.tolist(), unique_bytes.tolist(), gpm.tolist(),
                scale.tolist(),
            )
        ],
        np.float64,
    )


def observe_rows_reference(self, resources, resource, toucher, nbytes):
    """:meth:`MigrationEngine.observe_rows
    <repro.extensions.migration.MigrationEngine.observe_rows>` one row
    at a time, each row's bytes added onto its (resource, GPM) total."""
    for row, gpm, pulled in zip(
        np.asarray(resource).tolist(),
        np.asarray(toucher).tolist(),
        np.asarray(nbytes, np.float64).tolist(),
    ):
        if pulled <= 0:
            continue
        item = resources[row]
        key = item.resource_id
        self._resources[key] = item
        per_gpm = self._touches.setdefault(key, {})
        per_gpm[gpm] = per_gpm.get(gpm, 0.0) + pulled


def first_use_reference(keys: np.ndarray, size: int):
    """:func:`repro.columns.first_use` through a sort: ``np.unique``'s
    keys, first rows and inverse, reordered by first use."""
    distinct, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, np.int64)
    rank[order] = np.arange(order.size)
    return distinct[order], first[order], rank[inverse.reshape(-1)]


# ---------------------------------------------------------------------------
# The slice pass, one slice at a time
# ---------------------------------------------------------------------------


def per_slice(system, units: Sequence[WorkUnit], schedule, staging=None):
    """The slice pass's oracle: every slice of ``schedule`` shaped,
    staged, bound and executed alone, through ``WorkUnit`` objects."""
    for s, index in enumerate(schedule.unit.tolist()):
        gpm = int(schedule.gpm[s])
        slice_unit = replace(
            units[index].with_screen_share(
                pixel_share=float(schedule.pixel_share[s]),
                geometry_share=float(schedule.geometry_share[s]),
                unique_inflation=float(schedule.unique_inflation[s]),
                label_suffix="",
                stream_inflation=float(schedule.stream_inflation[s]),
            ),
            label=schedule.labels[s],
        )
        if staging is not None:
            staging.stage_unit(
                slice_unit, gpm, factor_scale=float(schedule.stage_scale[s])
            )
        system.execute_unit(
            slice_unit, gpm, fb_targets=schedule.fb_targets,
            command_source=int(schedule.command_source[s]),
        )


def per_slice_bind_frame(self, system, frame) -> None:
    """``SingleKernelBaseline.bind_frame`` with one bind per slice."""
    from repro.frameworks.single import UPLOAD_GPM

    share = 1.0 / system.num_gpms
    cost = self.config.cost
    fb_targets = {gpm: share for gpm in range(system.num_gpms)}
    units = self.characterizer.characterize_frame(
        frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
    )
    # Uploads land on one GPM, in the order the units first touch them.
    for unit in units:
        for touch in unit.texture_touches + unit.vertex_touches:
            if not system.placement.is_placed(touch.resource):
                system.placement.place_fixed(touch.resource, UPLOAD_GPM)
    if system.num_gpms == 1:
        for unit in units:
            system.execute_unit(unit, 0, fb_targets=fb_targets)
    else:
        for unit in units:
            for gpm in range(system.num_gpms):
                slice_unit = unit.with_screen_share(
                    pixel_share=share,
                    geometry_share=share,
                    unique_inflation=cost.interleave_unique_inflation,
                    label_suffix=f"gpm{gpm}",
                    stream_inflation=cost.interleave_stream_inflation,
                )
                system.execute_unit(
                    slice_unit, gpm, fb_targets=fb_targets, command_source=0
                )


def per_slice_tile_render_frame_on(self, system, frame, workload):
    """``TileSplitFrameRendering.render_frame_on``, one draw and one
    strip slice at a time."""
    from repro.frameworks.tile_sfr import TileOrientation
    from repro.gpu.staging import StagingManager

    strips = self.strips(frame)
    cost = self.config.cost
    staging = StagingManager(
        system,
        factor=cost.tile_stage_factor,
        parallelism=cost.tile_stage_parallelism,
    )
    staging.begin_frame()
    if self.orientation is TileOrientation.VERTICAL:
        stream = [(d, SMPMode.SEQUENTIAL) for d in frame.stereo_draws()]
    else:
        stream = [(d, SMPMode.SIMULTANEOUS) for d in frame.multiview_draws()]
    for draw, mode in stream:
        unit = characterize_reference(cost, draw, mode)
        viewports = self.stereo_space_viewports(draw, frame.width)
        shares = normalize_pixel_shares(strip_shares(viewports, strips))
        for share in shares:
            slice_unit = unit.with_screen_share(
                pixel_share=min(1.0, share.pixel_share),
                geometry_share=share.geometry_share,
                unique_inflation=cost.tile_unique_inflation,
                label_suffix=f"strip{share.strip_index}",
            )
            gpm = share.strip_index
            staging.stage_unit(
                slice_unit, gpm,
                factor_scale=1.0 + 0.6 * (slice_unit.views - 1),
            )
            system.execute_unit(
                slice_unit, gpm, fb_targets={gpm: 1.0}, command_source=0
            )
    return system.frame_result(self.name, workload)


def per_slice_object_render_frame_on(self, system, frame, workload):
    """``ObjectLevelSFR.render_frame_on`` with one bind per draw."""
    from repro.gpu.composition import compose_master
    from repro.gpu.staging import StagingManager

    num_gpms = system.num_gpms
    rendered_pixels = [0.0] * num_gpms
    staging = StagingManager(
        system,
        factor=self.config.cost.object_stage_factor,
        parallelism=self.config.cost.stage_parallelism,
    )
    staging.begin_frame()
    next_gpm = 0
    assigned_gpm_of_object = {}
    units = self.characterizer.characterize_frame(
        frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
    )
    for draw, unit in zip(frame.stereo_draws(), units):
        parent = draw.obj.depends_on
        if parent is not None and parent in assigned_gpm_of_object:
            gpm = assigned_gpm_of_object[parent]
        else:
            gpm = next_gpm
            next_gpm = (next_gpm + 1) % num_gpms
        assigned_gpm_of_object[draw.obj.object_id] = gpm
        staging.stage_unit(unit, gpm)
        system.execute_unit(
            unit, gpm, fb_targets={gpm: 1.0}, command_source=self.root
        )
        rendered_pixels[gpm] += unit.pixels_out
    compose_master(system, rendered_pixels, root=self.root)
    return system.frame_result(self.name, workload)


def per_slice_afr_render_frame_on(self, system, frame, workload):
    """``AlternateFrameRendering.render_frame_on`` with one bind per
    draw, each draw's resources replicated just before it renders."""
    gpm = self._frame_gpm(frame)
    units = self.characterizer.characterize_frame(
        frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
    )
    for unit in units:
        for touch in unit.texture_touches + unit.vertex_touches:
            system.placement.replicate(touch.resource, [gpm])
        system.execute_unit(
            unit, gpm, fb_targets={gpm: 1.0}, command_source=gpm
        )
    return system.frame_result(self.name, workload)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class Oracle(NamedTuple):
    """One production target and the reference that replaces it."""

    #: Where production looks the target up: ``module.attribute`` or
    #: ``module.Class.attribute``.
    target: str
    reference: Callable[..., Any]
    covers: str
    #: A per-slice frame body: it replaces a static scheme's frame, so
    #: the slice pass and its column kernels do not run under it.
    per_slice: bool = False
    #: Reached only from the static schemes' frames, which the per-slice
    #: bodies replace.
    static_frames_only: bool = False
    #: The engines whose grid cells reach the target; none for a target
    #: no grid cell runs.
    engines: Tuple[str, ...] = ENGINES

    def resolve(self) -> Tuple[Any, str]:
        """The module or class holding the target, and its name there."""
        path, name = self.target.rsplit(".", 1)
        return pkgutil.resolve_name(path), name

    def patch(self, calls: Optional[Counter] = None):
        """A ``mock.patch`` putting the reference in place of the
        target (as a property when the target is one); each call adds
        one to ``calls[target]`` when a counter is given."""
        owner, name = self.resolve()
        reference = self.reference
        if calls is not None:
            reference = _counted(reference, calls, self.target)
        if isinstance(inspect.getattr_static(owner, name), property):
            reference = property(reference)
        return mock.patch.object(owner, name, reference)


def _counted(function, calls: Counter, key: str):
    @functools.wraps(function)
    def counted(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    return counted


WINDOW_LOOP = Oracle(
    "repro.engine.event.EventEngine._simulate",
    simulate_reference,
    "the event engine's incremental window loop: every window's shares, "
    "horizon and depletion re-derived by full scans of flows x windows "
    "arrays",
    engines=("event",),
)
GROUPING = Oracle(
    "repro.core.middleware.OOMiddleware.build_batches",
    build_batches_reference,
    "the Fig. 12 columnar grouping scan: the queue walked one scalar "
    "Eq. 1 probe per candidate",
)
BATCH_MERGE = Oracle(
    "repro.core.oovr.merge_rows",
    merge_rows_reference,
    "the OO batch merge straight from the frame's multi-view unit table: "
    "every member read out as a WorkUnit, then merge_units",
)
RASTERIZER = Oracle(
    "repro.render.raster.Rasterizer.draw_mesh",
    draw_mesh_reference,
    "the rasterizer's batched front end: near-plane rejection, culling "
    "and scissoring one triangle at a time",
    engines=(),
)
SCENE_GENERATOR = Oracle(
    "repro.scene.synthetic.SyntheticSceneGenerator.make_frame",
    make_frame_reference,
    "the vectorized Table 3 generator: the per-object scalar RNG walk, "
    "the frame's object batch flattened from its objects",
)
TRAFFIC_FOLD = Oracle(
    "repro.stats.metrics.SceneResult.traffic",
    scene_traffic_reference,
    "a scene result's one-pass traffic fold: breakdowns merged frame by "
    "frame",
)
MEMO_FREE = Oracle(
    "repro.scene.scene.Frame.derived",
    derived_memo_free,
    "the frame memo: every grouping and unit table built afresh",
)
UNIT_TABLE = Oracle(
    "repro.pipeline.characterize.DrawCharacterizer.unit_columns",
    unit_columns_reference,
    "Eq. 3 characterisation as columns from the frame's counters: "
    "per-draw characterize_reference, read into a table",
)
L2_MISSES = Oracle(
    "repro.engine.split.miss_bytes_columns",
    miss_bytes_columns_reference,
    "the slice pass's L2 miss kernel: the scalar miss_bytes per row",
    static_frames_only=True,
)
REMOTE_FILTER = Oracle(
    "repro.engine.split.filter_columns",
    filter_columns_reference,
    "the slice pass's remote-cache kernel: RemoteCache.filter per row, "
    "in call order",
    static_frames_only=True,
)
STRIP_SHARES = Oracle(
    "repro.frameworks.tile_sfr.strip_share_columns",
    strip_share_columns_reference,
    "tile-SFR's strip-share kernel: each draw's shares from its "
    "viewports, normalised",
    static_frames_only=True,
)
OWNER_ROWS = Oracle(
    "repro.engine.split._touch_rows",
    touch_rows_reference,
    "the slice pass's owner rows, read once per resource (and taken as "
    "local behind a staging prelude): one owner_fractions read per "
    "visited (resource, GPM) pair",
    static_frames_only=True,
)
STAGING_PRELUDE = Oracle(
    "repro.gpu.staging.StagingManager.stage_visits",
    stage_visits_reference,
    "the column staging prelude (placement, replicas, per-pair copies "
    "clamped at each visit's cap): one _stage_touch per visit",
    static_frames_only=True,
)
OBSERVER_ROWS = Oracle(
    "repro.extensions.migration.MigrationEngine.observe_rows",
    observe_rows_reference,
    "the migration observer's np.add.at over (resource, GPM) keys: one "
    "row at a time",
)
INTERNING = Oracle(
    "repro.columns.first_use",
    first_use_reference,
    "sort-free first-use interning of links, pairs, resources and demand "
    "slots: np.unique, reordered by first use",
    static_frames_only=True,
)
BASELINE_FRAME = Oracle(
    "repro.frameworks.single.SingleKernelBaseline.bind_frame",
    per_slice_bind_frame,
    "the slice pass of the baseline family's even split (baseline-mig "
    "calls the bind between attaching its observer and migrating): one "
    "bind per slice",
    per_slice=True,
)
TILE_FRAME = Oracle(
    "repro.frameworks.tile_sfr.TileSplitFrameRendering.render_frame_on",
    per_slice_tile_render_frame_on,
    "tile-SFR's strip shares, staging prelude and slice pass: one draw "
    "and one strip slice at a time",
    per_slice=True,
)
OBJECT_FRAME = Oracle(
    "repro.frameworks.object_sfr.ObjectLevelSFR.render_frame_on",
    per_slice_object_render_frame_on,
    "object-level SFR's staging prelude and slice pass: one bind per draw",
    per_slice=True,
)
AFR_FRAME = Oracle(
    "repro.frameworks.afr.AlternateFrameRendering.render_frame_on",
    per_slice_afr_render_frame_on,
    "AFR's up-front replicas and slice pass: one bind per draw, its "
    "resources replicated just before",
    per_slice=True,
)

ORACLES: Tuple[Oracle, ...] = (
    WINDOW_LOOP,
    GROUPING,
    BATCH_MERGE,
    RASTERIZER,
    SCENE_GENERATOR,
    TRAFFIC_FOLD,
    MEMO_FREE,
    UNIT_TABLE,
    L2_MISSES,
    REMOTE_FILTER,
    STRIP_SHARES,
    OWNER_ROWS,
    STAGING_PRELUDE,
    OBSERVER_ROWS,
    INTERNING,
    BASELINE_FRAME,
    TILE_FRAME,
    OBJECT_FRAME,
    AFR_FRAME,
)
#: The per-slice frame bodies, the oracles of the static schemes' frames.
PER_SLICE_FRAMES = tuple(oracle for oracle in ORACLES if oracle.per_slice)
#: The two compositions every pinned grid replays through.
COMPOSITIONS = {"every-oracle": True, "no-per-slice-frames": False}


def composition(per_slice: bool = True) -> Tuple[Oracle, ...]:
    """The table, or the table without the per-slice frame bodies."""
    return tuple(
        oracle for oracle in ORACLES if per_slice or not oracle.per_slice
    )


def reached(engine: str, per_slice: bool = True) -> Set[str]:
    """The targets of the composition a grid on ``engine`` runs."""
    return {
        oracle.target
        for oracle in composition(per_slice)
        if engine in oracle.engines
        and not (per_slice and oracle.static_frames_only)
    }


@contextlib.contextmanager
def all_oracles(per_slice: bool = True) -> Iterator[Counter]:
    """Patch the composition in; yields the calls made to each target.

    Clear :func:`~repro.session.spec.cached_scene` around a run, so its
    scenes are built, and its artefacts derived, under the references.
    """
    calls: Counter = Counter()
    with contextlib.ExitStack() as stack:
        for oracle in composition(per_slice):
            stack.enter_context(oracle.patch(calls))
        yield calls


# ---------------------------------------------------------------------------
# Replaying the pinned grids
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def perfbench() -> SimpleNamespace:
    """The benchmark's ``run``, ``layers`` and ``child`` modules.

    They import each other by bare name, so they load with
    ``perfbench/`` on ``sys.path``; their bare names leave
    ``sys.modules`` again, so no other module named ``run`` or
    ``layers`` resolves to them.
    """
    path = str(ROOT / "perfbench")
    loaded = set(sys.modules)
    sys.path.insert(0, path)
    try:
        return SimpleNamespace(
            **{
                name: importlib.import_module(name)
                for name in ("run", "layers", "child")
            }
        )
    finally:
        sys.path.remove(path)
        for name in set(sys.modules) - loaded:
            if "." not in name and str(
                getattr(sys.modules[name], "__file__", "")
            ).startswith(path):
                del sys.modules[name]


def replay(
    grid: str,
    per_slice: bool = True,
    workloads: Optional[Sequence[str]] = None,
) -> Tuple[str, Counter]:
    """``grid``'s CSV rendered under :func:`all_oracles`, and the calls
    each target took.

    The sweep is the one the benchmark's grid process builds
    (``perfbench/child.py``) from the grid's spec in
    ``perfbench/run.py``, at its pinned seed, run serially without a
    result cache; ``workloads`` picks some of the grid's workloads.
    """
    from repro.session.spec import cached_scene

    bench = perfbench()
    spec = bench.run.GRID_SPECS[grid]
    sweep = bench.child._sweep(
        argparse.Namespace(
            workloads=tuple(workloads or spec["workloads"]),
            preset=spec["preset"],
            seed=bench.run.PINNED_SEED,
            engine=spec["engine"],
        )
    )
    cached_scene.cache_clear()
    try:
        with all_oracles(per_slice) as calls:
            text = sweep.run().to_csv()
    finally:
        cached_scene.cache_clear()
    return text, calls


def main(argv: Sequence[str]) -> int:
    """Replay ``perfbench`` grids (default: all three) through both
    compositions; exit 1 unless every whole-CSV digest matches
    ``perfbench/expected.json`` and every reached target was called."""
    run = perfbench().run
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    failed = 0
    for grid in argv or run.WORKLOADS:
        engine = run.GRID_SPECS[grid]["engine"]
        for name, per_slice in COMPOSITIONS.items():
            start = time.perf_counter()
            text, calls = replay(grid, per_slice)
            seconds = time.perf_counter() - start
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            problems = [
                f"{target} never called"
                for target in sorted(reached(engine, per_slice) - set(calls))
            ]
            if digest != expected["workloads"][grid]["csv_sha256"]:
                problems.insert(0, f"CSV sha256 {digest} is not pinned")
            failed += bool(problems)
            print(
                f"{grid} under {name}: "
                f"{'; '.join(problems) or 'matches the pinned CSV'} "
                f"({seconds:.1f} s, {sum(calls.values())} reference calls)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
