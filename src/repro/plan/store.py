"""Persistent compiled work-plan artifact store.

Scene construction is cheap (the vectorized generator builds the
full-scale suite in a fraction of a second), so the dominant per-point
cost before rendering is the *work plan*: Eq. 3 frame characterisation
(:meth:`DrawCharacterizer.characterize_frame
<repro.pipeline.characterize.DrawCharacterizer.characterize_frame>`)
and the middleware's TSL batch grouping plus merges
(``_BatchBuilder.build`` in :mod:`repro.core.oovr`).  The per-process
reuse memo (:mod:`repro.reuse`) amortises both *within* one process,
but every worker of a ``--jobs N`` sweep and every ``oovr worker`` of a
service fleet re-characterises every (workload, cost config) point
cold.  This module makes the compiled plan a first-class on-disk
artifact, in the content-addressed idiom of :mod:`repro.session.cache`:

- **Key contract**: entries are addressed by a SHA-256 over the
  canonical JSON of ``(store_version, plan_version, kind, scene
  content key, cost fingerprint, plan knobs)``.  The *scene content
  key* is a SHA-256 over :data:`~repro.scene.synthetic.GENERATOR_VERSION`
  and the workload point ``(workload, num_frames, seed, draw_scale)``,
  plus the frame id.  :func:`~repro.session.spec.cached_scene` stamps
  it onto every frame through :func:`stamp_plan_content_keys` — this
  module is the only one that knows the key — so frames from trace
  replays or hand-built scenes (no stamp) simply bypass the store.
  The *cost fingerprint* is a SHA-256 over the canonical JSON of the
  frozen :class:`~repro.config.CostModel`, so frameworks sharing a
  cost model (the common case: variants differ in link/topology knobs,
  never in pipeline costs) share entries — the cross-framework dedup.
  ``PLAN_VERSION`` is the version of the *characterisation output*:
  any change to the pricing or grouping maths that moves numbers must
  bump it; old entries then stop matching their key and degrade to a
  rebuild-and-rewrite, never to silently stale numbers.  (A change to
  scene *generation* bumps ``GENERATOR_VERSION`` instead, which
  re-keys every plan entry.)
- **Format**: one ``.plan`` file per entry — an ``OOVRPLN1`` magic, a
  canonical JSON header (entry metadata and an array directory), then
  the plan's struct-of-array columns as raw little-endian buffers at
  64-byte-aligned offsets.  Serialisation is byte-deterministic, so
  concurrent writers racing on one key write identical bytes and the
  ``os.replace`` rename makes the last one win harmlessly.  Two entry
  kinds share the container: ``"frame"`` holds the
  :class:`~repro.pipeline.batch.FrameCounters` columns of one draw
  expansion; ``"group"`` holds a TSL batch grouping — CSR member rows
  plus the merged work units' scalar and touch columns.
- **Load path**: entries are ``mmap``-ed read-only and the counter
  columns are zero-copy ``np.frombuffer`` views.  A ``"frame"`` hit
  re-materialises work units through the *same*
  :func:`~repro.pipeline.batch.work_units_from_counters` walk the
  build path uses (float64 round-trips are exact, so units are
  field-for-field identical); a ``"group"`` hit rebuilds the
  ``(Batch, merged WorkUnit)`` pairs directly from the frame's live
  objects, skipping the Fig. 12 grouping scan, the characterisation
  and the merges outright.  Loading happens *inside* the reuse-memo
  hook sites, so a store hit populates the same identity-anchored memo
  the in-process build would have.  Corrupt, truncated or
  version/key-mismatched entries count as corrupt misses and degrade
  to rebuild-and-rewrite.

The *active* store is module state scoped exactly like
:mod:`repro.reuse`'s flags: :func:`plan_store_scope` for sessions and
sweeps, :func:`set_plan_store` for process-pool initialisers and
service workers, :func:`active_plan_store` for the hook sites.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.config import CostModel
from repro.core.middleware import Batch
from repro.memory.address import Touch, texture_resource, vertex_resource
from repro.pipeline.batch import EYE_BOTH, EYE_LEFT, EYE_RIGHT, FrameCounters
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import WorkUnit
from repro.scene.synthetic import GENERATOR_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scene.scene import Frame, Scene

__all__ = [
    "PLAN_VERSION",
    "PlanStore",
    "PlanStoreStats",
    "active_plan_store",
    "cost_fingerprint",
    "frame_plan_key",
    "group_plan_key",
    "plan_content_key",
    "plan_store_scope",
    "set_plan_store",
    "stamp_plan_content_keys",
]

#: File magic of a compiled-plan entry.
MAGIC = b"OOVRPLN1"
#: Version of the on-disk container layout (not of plan content).
STORE_VERSION = 1
#: Version of the characterisation/grouping *output*.  Bump whenever
#: the pricing maths (Eq. 3, fragment demand, touch weighting) or the
#: grouping/merge semantics change the numbers they produce.
PLAN_VERSION = 1
#: Data buffers start on this alignment, large enough for any dtype
#: and friendly to mmap page reuse.
ALIGNMENT = 64

#: The attribute :func:`stamp_plan_content_keys` sets on every frame
#: of a store-keyable scene.  Frames without it (trace replays,
#: hand-built scenes) make the plan store inert for them.
CONTENT_KEY_ATTR = "plan_content_key"

#: The :class:`FrameCounters` array columns persisted verbatim, in
#: directory order (``expansion``/``mode`` travel in the header).
_COUNTER_COLUMNS = (
    "obj_index",
    "eye_codes",
    "views",
    "vertices",
    "triangles_setup",
    "triangles_raster",
    "fragments",
    "pixels_out",
    "texel_requests",
    "z_stream_bytes",
    "z_unique_bytes",
    "fb_write_bytes",
    "vertex_stream_bytes",
    "touch_offsets",
    "touch_tex_ids",
    "touch_tex_sizes",
    "touch_unique_bytes",
    "touch_stream_bytes",
    "empty_touches",
)

#: Merged-unit scalar columns of a ``"group"`` entry, one value per
#: batch, float64 unless noted.
_UNIT_SCALAR_COLUMNS = (
    "unit_views",  # int64
    "unit_vertices",
    "unit_triangles_setup",
    "unit_triangles_raster",
    "unit_fragments",
    "unit_pixels_out",
    "unit_texel_requests",
    "unit_shader_complexity",
    "unit_z_stream_bytes",
    "unit_z_unique_bytes",
    "unit_fb_write_bytes",
    "unit_command_bytes",
    "unit_draw_count",
)


def stamp_plan_content_keys(
    scene: "Scene",
    workload: str,
    num_frames: int,
    seed: int,
    draw_scale: float,
) -> None:
    """Stamp every frame of a generated scene with its content key.

    The key is a SHA-256 over :data:`GENERATOR_VERSION` and the
    workload point, plus the frame id, so bumping the generator version
    re-keys every plan entry built from the old scenes.
    """
    content = _key_of(
        {
            "generator_version": GENERATOR_VERSION,
            "workload": workload,
            "num_frames": num_frames,
            "seed": seed,
            "draw_scale": draw_scale,
        }
    )
    for frame in scene.frames:
        frame.__dict__[CONTENT_KEY_ATTR] = f"{content}:{frame.frame_id}"


def plan_content_key(frame: "Frame") -> Optional[str]:
    """``frame``'s stamped scene-content key, or ``None`` when the
    frame did not come through :func:`~repro.session.spec.cached_scene`
    (the plan store is inert for such frames)."""
    return getattr(frame, CONTENT_KEY_ATTR, None)


@lru_cache(maxsize=256)
def cost_fingerprint(cost: CostModel) -> str:
    """The content address of a cost model's pricing maths inputs.

    SHA-256 over the canonical JSON of the frozen dataclass's fields.
    Frameworks whose configs share a cost model therefore share plan
    entries, whatever their link/topology/placement knobs — the
    cross-framework dedup of the store.
    """
    canonical = json.dumps(asdict(cost), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _key_of(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def frame_plan_key(
    content_key: str, cost_fp: str, mode: SMPMode, expansion: str
) -> str:
    """The content address of one frame's characterised draw expansion."""
    return _key_of(
        {
            "store_version": STORE_VERSION,
            "plan_version": PLAN_VERSION,
            "kind": "frame",
            "scene": content_key,
            "cost": cost_fp,
            "mode": mode.name,
            "expansion": expansion,
        }
    )


def group_plan_key(
    content_key: str, cost_fp: str, triangle_limit: int, tsl_threshold: float
) -> str:
    """The content address of one frame's TSL batch grouping.

    The grouping always characterises the SIMULTANEOUS/multiview
    expansion, so only the middleware knobs join the key.
    """
    return _key_of(
        {
            "store_version": STORE_VERSION,
            "plan_version": PLAN_VERSION,
            "kind": "group",
            "scene": content_key,
            "cost": cost_fp,
            "triangle_limit": int(triangle_limit),
            "tsl_threshold": float(tsl_threshold),
        }
    )


@dataclass
class PlanStoreStats:
    """Hit/miss accounting for one :class:`PlanStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


class PlanStore:
    """Content-addressed on-disk cache of compiled work plans.

    See the module docstring for the key contract and file format.
    The ``get_*`` methods never raise on a bad entry: unreadable,
    truncated, or version/key-mismatched files count as
    ``stats.corrupt`` misses and the hook sites rebuild and rewrite
    them.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = PlanStoreStats()

    # -- paths ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.plan"

    def entry_paths(self) -> List[Path]:
        return sorted(self.root.glob("*.plan"))

    # -- store ----------------------------------------------------------

    def _write_atomic(self, key: str, payload: bytes) -> Path:
        """Write ``payload`` under ``key`` via unique temp + replace.

        Byte-deterministic serialisation makes the race benign: two
        processes compiling the same plan write identical files, so the
        last rename wins harmlessly and a crash can at worst leave a
        ``.tmp`` file behind, never a partial entry.
        """
        path = self.path_for(key)
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            dir=self.root,
            prefix=f".{key[:16]}-",
            suffix=".tmp",
            delete=False,
        )
        try:
            handle.write(payload)
            handle.close()
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    def put_frame(
        self,
        content_key: str,
        cost_fp: str,
        mode: SMPMode,
        expansion: str,
        counters: FrameCounters,
    ) -> Path:
        """Persist one frame's characterised counter columns."""
        key = frame_plan_key(content_key, cost_fp, mode, expansion)
        meta = {
            "store_version": STORE_VERSION,
            "plan_version": PLAN_VERSION,
            "key": key,
            "kind": "frame",
            "scene": content_key,
            "cost": cost_fp,
            "mode": mode.name,
            "expansion": expansion,
            "num_draws": len(counters),
        }
        arrays = [
            (name, np.ascontiguousarray(getattr(counters, name)))
            for name in _COUNTER_COLUMNS
        ]
        return self._write_atomic(key, _serialise_entry(meta, arrays))

    def put_group(
        self,
        content_key: str,
        cost_fp: str,
        triangle_limit: int,
        tsl_threshold: float,
        frame: "Frame",
        pairs: Tuple[Tuple[Batch, WorkUnit], ...],
    ) -> Path:
        """Persist one frame's TSL grouping and merged units."""
        key = group_plan_key(content_key, cost_fp, triangle_limit, tsl_threshold)
        meta = {
            "store_version": STORE_VERSION,
            "plan_version": PLAN_VERSION,
            "key": key,
            "kind": "group",
            "scene": content_key,
            "cost": cost_fp,
            "triangle_limit": int(triangle_limit),
            "tsl_threshold": float(tsl_threshold),
            "num_batches": len(pairs),
        }
        arrays = _group_columns(frame, pairs)
        return self._write_atomic(key, _serialise_entry(meta, arrays))

    # -- load -----------------------------------------------------------

    def _load(self, key: str) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
        """The parsed entry for ``key``, or ``None`` (stats updated)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        try:
            return _parse_entry(buffer, expected_key=key)
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None

    def get_frame(
        self, content_key: str, cost_fp: str, mode: SMPMode, expansion: str
    ) -> Optional[FrameCounters]:
        """The stored counter columns for one expansion, or ``None``.

        Corrupt or stale entries (bad magic, truncation, version or key
        mismatch, inconsistent columns) count in ``stats.corrupt`` and
        read as a miss — the hook site rebuilds and overwrites.
        """
        key = frame_plan_key(content_key, cost_fp, mode, expansion)
        loaded = self._load(key)
        if loaded is None:
            return None
        header, arrays = loaded
        try:
            counters = _materialise_counters(header, arrays, mode, expansion)
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return counters

    def get_group(
        self,
        content_key: str,
        cost_fp: str,
        triangle_limit: int,
        tsl_threshold: float,
        frame: "Frame",
    ) -> Optional[Tuple[Tuple[Batch, WorkUnit], ...]]:
        """The stored ``(Batch, merged unit)`` pairs, or ``None``.

        The batches are rebuilt against ``frame``'s live objects, so a
        hit carries the same object identities (and viewport objects)
        the in-process build would have produced.
        """
        key = group_plan_key(content_key, cost_fp, triangle_limit, tsl_threshold)
        loaded = self._load(key)
        if loaded is None:
            return None
        header, arrays = loaded
        try:
            pairs = _materialise_group(header, arrays, frame)
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return pairs

    # -- maintenance -----------------------------------------------------

    def info(self) -> dict:
        """Inventory of the store, shaped for ``oovr plan info``."""
        plans = []
        total_bytes = 0
        corrupt = 0
        for path in self.entry_paths():
            size = path.stat().st_size
            total_bytes += size
            header = _read_header(path)
            if header is None:
                corrupt += 1
                plans.append({"file": path.name, "bytes": size, "corrupt": True})
                continue
            entry = {
                "key": header["key"],
                "kind": header["kind"],
                "scene": header["scene"],
                "cost": header["cost"],
                "plan_version": header["plan_version"],
                "bytes": size,
            }
            if header["kind"] == "frame":
                entry["mode"] = header["mode"]
                entry["expansion"] = header["expansion"]
                entry["num_draws"] = header["num_draws"]
            else:
                entry["triangle_limit"] = header["triangle_limit"]
                entry["tsl_threshold"] = header["tsl_threshold"]
                entry["num_batches"] = header["num_batches"]
            plans.append(entry)
        return {
            "root": str(self.root),
            "entries": len(plans),
            "corrupt": corrupt,
            "total_bytes": total_bytes,
            "plans": plans,
            "stats": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry (and stray temp file); return the count."""
        removed = 0
        for path in self.entry_paths():
            path.unlink()
            removed += 1
        for stray in self.root.glob(".*.tmp"):
            stray.unlink()
        return removed


# -- serialisation -------------------------------------------------------


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _serialise_entry(
    meta: dict, arrays: List[Tuple[str, np.ndarray]]
) -> bytes:
    """The byte-deterministic single-file container for one entry."""
    directory: List[dict] = []
    blobs: List[bytes] = []
    offset = 0
    for name, array in arrays:
        array = np.ascontiguousarray(array)
        blob = array.tobytes()
        offset = _align(offset)
        directory.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "count": int(array.size),
                "offset": offset,
            }
        )
        blobs.append(blob)
        offset += len(blob)

    header = dict(meta)
    header["arrays"] = directory
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    data_start = _align(len(MAGIC) + 8 + len(header_bytes))
    parts = [MAGIC, len(header_bytes).to_bytes(8, "little"), header_bytes]
    written = len(MAGIC) + 8 + len(header_bytes)
    for entry, blob in zip(directory, blobs):
        absolute = data_start + entry["offset"]
        parts.append(b"\x00" * (absolute - written))
        parts.append(blob)
        written = absolute + len(blob)
    return b"".join(parts)


def _read_header(path: Path) -> Optional[dict]:
    """The parsed + validated header of an entry, or ``None`` if bad."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                return None
            header_len = int.from_bytes(fh.read(8), "little")
            if not 0 < header_len <= 64 * 1024 * 1024:
                return None
            header = json.loads(fh.read(header_len).decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if header.get("store_version") != STORE_VERSION:
        return None
    return header


def _parse_entry(
    buffer: mmap.mmap, expected_key: str
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Header + zero-copy array views of an mmap-ed entry.

    Raises on any inconsistency; :meth:`PlanStore._load` maps that to a
    corrupt miss.
    """
    if buffer[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    header_len = int.from_bytes(buffer[len(MAGIC) : len(MAGIC) + 8], "little")
    header_start = len(MAGIC) + 8
    header = json.loads(
        buffer[header_start : header_start + header_len].decode("utf-8")
    )
    if header["store_version"] != STORE_VERSION:
        raise ValueError("store version mismatch")
    if header["plan_version"] != PLAN_VERSION:
        raise ValueError("plan version mismatch")
    if header["key"] != expected_key:
        raise ValueError("key mismatch")
    data_start = _align(header_start + header_len)

    arrays: Dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        start = data_start + entry["offset"]
        end = start + entry["count"] * dtype.itemsize
        if end > len(buffer):
            raise ValueError("truncated entry")
        arrays[entry["name"]] = np.frombuffer(
            buffer, dtype=dtype, count=entry["count"], offset=start
        )
    return header, arrays


def _materialise_counters(
    header: dict,
    arrays: Dict[str, np.ndarray],
    mode: SMPMode,
    expansion: str,
) -> FrameCounters:
    """Rebuild :class:`FrameCounters` from an entry's array views."""
    if header["kind"] != "frame":
        raise ValueError("not a frame entry")
    if header["mode"] != mode.name or header["expansion"] != expansion:
        raise ValueError("expansion mismatch")
    columns = {name: arrays[name] for name in _COUNTER_COLUMNS}
    num_draws = int(header["num_draws"])
    if len(columns["obj_index"]) != num_draws:
        raise ValueError("draw count mismatch")
    if len(columns["touch_offsets"]) != num_draws + 1:
        raise ValueError("touch CSR length mismatch")
    nnz = int(columns["touch_offsets"][-1]) if num_draws else 0
    for name in (
        "touch_tex_ids",
        "touch_tex_sizes",
        "touch_unique_bytes",
        "touch_stream_bytes",
    ):
        if len(columns[name]) != nnz:
            raise ValueError("touch column length mismatch")
    return FrameCounters(expansion=expansion, mode=mode, **columns)


def _group_columns(
    frame: "Frame", pairs: Tuple[Tuple[Batch, WorkUnit], ...]
) -> List[Tuple[str, np.ndarray]]:
    """Gather a grouping's persistable columns from built pairs."""
    row_of = {obj.object_id: i for i, obj in enumerate(frame.objects)}

    batch_offsets = [0]
    member_rows: List[int] = []
    member_eye_codes: List[int] = []
    vertex_unique: List[float] = []
    vertex_stream: List[float] = []
    tex_offsets = [0]
    tex_ids: List[int] = []
    tex_sizes: List[int] = []
    tex_unique: List[float] = []
    tex_stream: List[float] = []
    tex_write: List[float] = []
    scalars: Dict[str, List[float]] = {
        name: [] for name in _UNIT_SCALAR_COLUMNS
    }

    for batch, unit in pairs:
        for obj in batch.objects:
            member_rows.append(row_of[obj.object_id])
            if obj.viewport_left is not None and obj.viewport_right is not None:
                member_eye_codes.append(EYE_BOTH)
            elif obj.viewport_left is not None:
                member_eye_codes.append(EYE_LEFT)
            else:
                member_eye_codes.append(EYE_RIGHT)
        batch_offsets.append(len(member_rows))
        for touch in unit.vertex_touches:
            vertex_unique.append(touch.unique_bytes)
            vertex_stream.append(touch.stream_bytes)
        for touch in unit.texture_touches:
            tex_ids.append(touch.resource.resource_id[1])
            tex_sizes.append(touch.resource.size_bytes)
            tex_unique.append(touch.unique_bytes)
            tex_stream.append(touch.stream_bytes)
            tex_write.append(touch.write_bytes)
        tex_offsets.append(len(tex_ids))
        scalars["unit_views"].append(unit.views)
        scalars["unit_vertices"].append(unit.vertices)
        scalars["unit_triangles_setup"].append(unit.triangles_setup)
        scalars["unit_triangles_raster"].append(unit.triangles_raster)
        scalars["unit_fragments"].append(unit.fragments)
        scalars["unit_pixels_out"].append(unit.pixels_out)
        scalars["unit_texel_requests"].append(unit.texel_requests)
        scalars["unit_shader_complexity"].append(unit.shader_complexity)
        scalars["unit_z_stream_bytes"].append(unit.z_stream_bytes)
        scalars["unit_z_unique_bytes"].append(unit.z_unique_bytes)
        scalars["unit_fb_write_bytes"].append(unit.fb_write_bytes)
        scalars["unit_command_bytes"].append(unit.command_bytes)
        scalars["unit_draw_count"].append(unit.draw_count)

    arrays: List[Tuple[str, np.ndarray]] = [
        ("batch_offsets", np.asarray(batch_offsets, dtype=np.int64)),
        ("member_rows", np.asarray(member_rows, dtype=np.int64)),
        ("member_eye_codes", np.asarray(member_eye_codes, dtype=np.int64)),
        ("vertex_unique", np.asarray(vertex_unique, dtype=np.float64)),
        ("vertex_stream", np.asarray(vertex_stream, dtype=np.float64)),
        ("tex_offsets", np.asarray(tex_offsets, dtype=np.int64)),
        ("tex_ids", np.asarray(tex_ids, dtype=np.int64)),
        ("tex_sizes", np.asarray(tex_sizes, dtype=np.int64)),
        ("tex_unique", np.asarray(tex_unique, dtype=np.float64)),
        ("tex_stream", np.asarray(tex_stream, dtype=np.float64)),
        ("tex_write", np.asarray(tex_write, dtype=np.float64)),
    ]
    for name in _UNIT_SCALAR_COLUMNS:
        dtype = np.int64 if name == "unit_views" else np.float64
        arrays.append((name, np.asarray(scalars[name], dtype=dtype)))
    return arrays


def _materialise_group(
    header: dict, arrays: Dict[str, np.ndarray], frame: "Frame"
) -> Tuple[Tuple[Batch, WorkUnit], ...]:
    """Rebuild ``(Batch, merged unit)`` pairs against live frame objects.

    Raises on any inconsistency; :meth:`PlanStore.get_group` maps that
    to a corrupt miss.  Every float comes back from its stored float64
    verbatim, and batches/viewports are rebuilt from the frame's own
    objects, so the pairs are field-for-field identical to what
    ``_BatchBuilder._build`` produces in process.
    """
    if header["kind"] != "group":
        raise ValueError("not a group entry")
    objects = frame.objects
    num_batches = int(header["num_batches"])
    batch_offsets = arrays["batch_offsets"].tolist()
    member_rows = arrays["member_rows"].tolist()
    eye_codes = arrays["member_eye_codes"].tolist()
    v_unique = arrays["vertex_unique"].tolist()
    v_stream = arrays["vertex_stream"].tolist()
    tex_offsets = arrays["tex_offsets"].tolist()
    tex_ids = arrays["tex_ids"].tolist()
    tex_sizes = arrays["tex_sizes"].tolist()
    tex_unique = arrays["tex_unique"].tolist()
    tex_stream = arrays["tex_stream"].tolist()
    tex_write = arrays["tex_write"].tolist()
    scalars = {
        name: arrays[name].tolist() for name in _UNIT_SCALAR_COLUMNS
    }
    if len(batch_offsets) != num_batches + 1:
        raise ValueError("batch CSR length mismatch")
    if len(tex_offsets) != num_batches + 1:
        raise ValueError("touch CSR length mismatch")
    if batch_offsets[-1] != len(member_rows):
        raise ValueError("member row count mismatch")
    if any(len(scalars[name]) != num_batches for name in _UNIT_SCALAR_COLUMNS):
        raise ValueError("scalar column length mismatch")
    if any(row < 0 or row >= len(objects) for row in member_rows):
        raise ValueError("member row out of range")

    pairs: List[Tuple[Batch, WorkUnit]] = []
    for b in range(num_batches):
        lo, hi = batch_offsets[b], batch_offsets[b + 1]
        members = tuple(objects[row] for row in member_rows[lo:hi])
        batch = Batch(batch_id=b, objects=members)
        texture_touches = tuple(
            Touch(
                resource=texture_resource(tex_ids[k], tex_sizes[k]),
                unique_bytes=tex_unique[k],
                stream_bytes=tex_stream[k],
                write_bytes=tex_write[k],
            )
            for k in range(tex_offsets[b], tex_offsets[b + 1])
        )
        vertex_touches = []
        viewports: List = []
        for i in range(lo, hi):
            obj = objects[member_rows[i]]
            vertex_touches.append(
                Touch(
                    resource=vertex_resource(
                        obj.object_id, max(1, obj.mesh.vertex_buffer_bytes)
                    ),
                    unique_bytes=v_unique[i],
                    stream_bytes=v_stream[i],
                )
            )
            code = eye_codes[i]
            if code == EYE_BOTH:
                viewports.extend((obj.viewport_left, obj.viewport_right))
            elif code == EYE_LEFT:
                viewports.append(obj.viewport_left)
            else:
                viewports.append(obj.viewport_right)
        unit = WorkUnit(
            label=f"batch{b}",
            views=int(scalars["unit_views"][b]),
            vertices=scalars["unit_vertices"][b],
            triangles_setup=scalars["unit_triangles_setup"][b],
            triangles_raster=scalars["unit_triangles_raster"][b],
            fragments=scalars["unit_fragments"][b],
            pixels_out=scalars["unit_pixels_out"][b],
            texel_requests=scalars["unit_texel_requests"][b],
            shader_complexity=scalars["unit_shader_complexity"][b],
            texture_touches=texture_touches,
            vertex_touches=tuple(vertex_touches),
            z_stream_bytes=scalars["unit_z_stream_bytes"][b],
            z_unique_bytes=scalars["unit_z_unique_bytes"][b],
            fb_write_bytes=scalars["unit_fb_write_bytes"][b],
            command_bytes=scalars["unit_command_bytes"][b],
            viewports=tuple(viewports),
            draw_count=scalars["unit_draw_count"][b],
        )
        pairs.append((batch, unit))
    return tuple(pairs)


# -- the active store (scoped like repro.reuse's flags) ------------------

_active_store: Optional[PlanStore] = None

StoreLike = Union[PlanStore, str, Path, None]


def _coerce(store: StoreLike) -> Optional[PlanStore]:
    if store is None or isinstance(store, PlanStore):
        return store
    return PlanStore(store)


def active_plan_store() -> Optional[PlanStore]:
    """The store the hook sites consult, or ``None`` when disabled."""
    return _active_store


def set_plan_store(store: StoreLike) -> Optional[PlanStore]:
    """Set the process's active store (pass ``None`` to disable).

    Accepts a :class:`PlanStore` or a root path; used directly by
    process-pool initialisers and service workers, where a path string
    is what survives pickling.  Returns the active store.
    """
    global _active_store
    _active_store = _coerce(store)
    return _active_store


@contextmanager
def plan_store_scope(store: StoreLike) -> Iterator[Optional[PlanStore]]:
    """Scoped :func:`set_plan_store`, restoring the previous store.

    ``None`` (the default of every ``run(plan_store=...)``) leaves the
    ambient store untouched rather than disabling it, so a process-wide
    :func:`set_plan_store` keeps applying to runs that did not name
    one; use :func:`set_plan_store(None) <set_plan_store>` to disable
    explicitly.
    """
    global _active_store
    if store is None:
        yield _active_store
        return
    previous = _active_store
    _active_store = _coerce(store)
    try:
        yield _active_store
    finally:
        _active_store = previous
