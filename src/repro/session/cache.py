"""Content-addressed result cache keyed by the frozen :class:`RunSpec`.

A sweep cell is fully determined by its spec: the identity columns
(:data:`~repro.session.spec.RECORD_FIELDS`) plus the hardware
configuration it runs under.  :func:`spec_key` hashes that identity
into a stable hex digest — SHA-256 over canonical JSON, so the key is
identical across processes, machines and Python hash seeds — and
:class:`ResultCache` stores one JSON document per key, round-tripped
through :meth:`SceneResult.to_dict
<repro.stats.metrics.SceneResult.to_dict>` /
:meth:`~repro.stats.metrics.SceneResult.from_dict`.

``Sweep.run(cache=...)`` consults the cache per cell: hits skip
execution entirely, misses execute (serially or across workers) and
are stored.  Because the serialisation round trip is exact, a cached
sweep exports records, JSON and CSV byte-identical to an uncached one.

Corruption is tolerated, not trusted: an unreadable entry, a schema
mismatch, or a recorded identity (spec, config and engine) that does
not hash to the address the entry was looked up under all count as
misses, and the re-executed result overwrites the bad entry.

An entry is validated once per file: :meth:`ResultCache.get` remembers
the text of every entry it accepted together with the identity of the
file it read (inode, size and modification time in ns, from the same
handle).  While the file keeps that identity, :meth:`ResultCache.recall`
answers with the text after one :func:`os.stat` — no open, no JSON
parse, no check, no decode — which is how the sweep service answers a
resubmitted grid (:mod:`repro.service.server`).  Every write in this
package replaces the file (:func:`atomic_write`, a new inode), so a
re-store, a replacing merge, a clear or a deletion sends the next
lookup back to :meth:`~ResultCache.get`.  Writes never fill the memo,
so an uploaded entry is still validated on its first read.  One change
goes unseen: a file left with the same inode, size and mtime, which
takes a rewrite in place to the same size, or two replaces that hand
the first inode number back (ext4 does), inside one filesystem
timestamp tick.  Nothing here writes entries in place, and writes
through the cache drop the remembered text themselves.

Because keys are stable *content* addresses, caches compose across
machines: shards of one grid scattered over hosts (``oovr sweep
--shard I/N --cache DIR``, :mod:`repro.session.executor`) each fill a
directory that :meth:`ResultCache.merge` folds back together —
per-entry atomic copies with conflict detection, so two shards that
somehow executed the same cell must agree byte-for-byte (or the merge
raises :class:`CacheMergeError`).  ``oovr cache merge DST SRC...`` is
the CLI spelling; replaying the grid against the merged directory is
100 % hits and byte-identical to a serial run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.session.spec import RunSpec
from repro.stats.metrics import SceneResult

#: Bumped whenever the entry schema changes; mismatching entries are
#: treated as misses and rewritten.
CACHE_VERSION = 1

_ENTRY_SUFFIX = ".json"

_KEY_DIGITS = frozenset("0123456789abcdef")


class CacheMergeError(ValueError):
    """Two caches hold different results for the same spec key."""


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a unique temp file + replace.

    The temp file sits next to ``path`` (same directory, so the
    :func:`os.replace` is atomic) under a name no concurrent writer
    shares; readers see the old file or the whole new one, never a
    torn write, and a failed write leaves no temp file behind.
    """
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.stem[:16]}-",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


@dataclass
class MergeStats:
    """What one :meth:`ResultCache.merge` pass did."""

    #: Entries copied because the destination lacked the key.
    copied: int = 0
    #: Keys present in both with byte-identical payloads (no-ops).
    identical: int = 0
    #: Conflicting keys resolved by ``on_conflict="keep"``.
    kept: int = 0
    #: Conflicting keys resolved by ``on_conflict="replace"``.
    replaced: int = 0
    #: Shard manifests copied alongside the entries.
    manifests: int = 0

    @property
    def conflicts(self) -> int:
        return self.kept + self.replaced

    def summary(self) -> str:
        text = f"{self.copied} copied, {self.identical} identical"
        if self.conflicts:
            text += (
                f", {self.conflicts} conflict(s) "
                f"({self.kept} kept, {self.replaced} replaced)"
            )
        if self.manifests:
            text += f", {self.manifests} shard manifest(s)"
        return text


def config_fingerprint(spec: RunSpec) -> Optional[Dict[str, object]]:
    """The spec's hardware configuration as a plain JSON-able dict.

    ``config_label`` is cosmetic (two labels may name the same config,
    one label may name two), so the cache keys on the configuration's
    actual values instead; ``None`` means the Table 2 default.
    """
    if spec.config is None:
        return None
    return dataclasses.asdict(spec.config)


def is_entry_key(key: str) -> bool:
    """Whether ``key`` is a well-formed entry address (sha256 hex)."""
    return len(key) == 64 and set(key) <= _KEY_DIGITS


def _address(
    fields: Dict[str, object], config: Optional[Dict[str, object]], engine: str
) -> str:
    """The entry address of a cell's identity: SHA-256 over canonical
    JSON of the cache version, the spec's record ``fields`` minus the
    cosmetic ``config_label``, the ``config`` fingerprint, and the
    ``engine`` when it is not the default ``analytic``.

    :func:`spec_key` hashes a live spec through it, and
    :meth:`ResultCache.get` the identity an entry records, so an entry
    is valid exactly when it hashes to the address it is stored under.
    """
    identity = dict(fields)
    identity.pop("config_label", None)
    payload = {"version": CACHE_VERSION, "spec": identity, "config": config}
    if engine != "analytic":
        payload["engine"] = engine
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_key(spec: RunSpec) -> str:
    """Stable content hash of one evaluation cell.

    Covers every :meth:`RunSpec.record_fields
    <repro.session.spec.RunSpec.record_fields>` column except the
    cosmetic ``config_label``, plus the full config fingerprint, plus
    the execution engine when it is not the default — ``engine=`` is
    part of the spec fingerprint, so analytic and event results never
    collide, while caches written before the engine layer existed still
    hit for analytic runs.
    """
    return _address(
        spec.record_fields(), config_fingerprint(spec), spec.engine
    )


def encode_entry(spec: RunSpec, result: SceneResult) -> str:
    """The exact on-disk text of one cache entry.

    The single encoding shared by :meth:`ResultCache.put` and the sweep
    service's worker uploads (:mod:`repro.service`): because the text
    is a pure function of ``(spec, result)`` and the simulator is
    deterministic, two hosts that executed the same cell produce
    byte-identical entries — which is what lets
    :meth:`ResultCache.merge` / :meth:`ResultCache.merge_entry` treat
    any byte-level disagreement as a genuine model/schema skew.
    """
    entry = {
        "version": CACHE_VERSION,
        "key": spec_key(spec),
        "spec": spec.record_fields(),
        "config": config_fingerprint(spec),
        "result": result.to_dict(include_frames=True),
    }
    if spec.engine != "analytic":
        # Auditability only — the engine is already part of the key.
        entry["engine"] = spec.engine
    return json.dumps(entry, indent=1) + "\n"


@dataclass
class CacheStats:
    """Hit/miss accounting accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Misses caused by unreadable or mismatching entries.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        text = f"{self.hits} hits, {self.misses} misses"
        if self.corrupt:
            text += f" ({self.corrupt} corrupt entries discarded)"
        return text


def _identity(status: os.stat_result) -> Tuple[int, int, int]:
    """What a validated entry's file must still match to be recalled."""
    return (status.st_ino, status.st_size, status.st_mtime_ns)


class ResultCache:
    """On-disk (spec -> SceneResult) store under one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        #: Entry key -> (text, file identity) of every entry :meth:`get`
        #: validated; text only, kept for the cache's lifetime.
        self._validated: Dict[str, Tuple[str, Tuple[int, int, int]]] = {}

    # -- addressing ---------------------------------------------------------

    def key(self, spec: RunSpec) -> str:
        return spec_key(spec)

    def entry_path(self, key: str) -> Path:
        """Where the entry stored under ``key`` lives."""
        return self.root / f"{key}{_ENTRY_SUFFIX}"

    def _entries(self) -> Iterator[Path]:
        # Entry files are exactly "<sha256-hex>.json"; the filter keeps
        # shard manifests (and any stray JSON dropped in the directory)
        # out of entry counts, clears and merges.
        return (
            path
            for path in sorted(self.root.glob(f"*{_ENTRY_SUFFIX}"))
            if path.is_file() and is_entry_key(path.stem)
        )

    def keys(self) -> List[str]:
        """Every stored spec key, sorted."""
        return [path.stem for path in self._entries()]

    def __contains__(self, key: str) -> bool:
        return self.entry_path(key).is_file()

    # -- lookup and store ---------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[SceneResult]:
        """The cached result for ``spec``, or ``None`` on a miss.

        Anything wrong with the entry — unparsable JSON, a schema from
        another cache version, a recorded spec, config or engine that
        does not hash to the requested key (hash collision or
        hand-edited file) — degrades to a miss rather than an error.
        An accepted entry's text is remembered for :meth:`recall`;
        every call still reads, checks and decodes, and returns a fresh
        object.
        """
        key = self.key(spec)
        try:
            with open(self.entry_path(key), "r", encoding="utf-8") as handle:
                text = handle.read()
                identity = _identity(os.fstat(handle.fileno()))
            entry = json.loads(text)
            if entry["version"] != CACHE_VERSION:
                raise ValueError("cache entry from another schema version")
            # The identity the entry records must hash to the address
            # it was looked up under: spec (config_label aside, so a
            # relabelled lookup still hits), config and engine.
            recorded = _address(
                entry["spec"],
                entry.get("config"),
                entry.get("engine", "analytic"),
            )
            if recorded != key:
                raise ValueError("cache entry identity mismatch")
            result = SceneResult.from_dict(entry["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self._validated[key] = (text, identity)
        self.stats.hits += 1
        return result

    def recall(self, key: str) -> Optional[str]:
        """The text :meth:`get` validated for entry ``key``, if its file
        is unchanged since; ``None`` otherwise.

        One :func:`os.stat` and no accounting: ``None`` means this
        cache never accepted the entry, or its file was replaced,
        deleted or resized since, and the caller must go to the file
        (through :meth:`get` to re-validate it).
        """
        remembered = self._validated.get(key)
        if remembered is None:
            return None
        try:
            # A string join: building a Path costs more than the stat.
            identity = _identity(
                os.stat(os.path.join(self.root, key + _ENTRY_SUFFIX))
            )
        except OSError:
            identity = None
        if identity != remembered[1]:
            del self._validated[key]
            return None
        return remembered[0]

    def entry_text(self, spec: RunSpec, key: str) -> Optional[str]:
        """The validated text of ``spec``'s entry (whose
        :func:`spec_key` is ``key``), or ``None`` on a miss, counted as
        :meth:`get` counts it.

        An entry :meth:`recall` answers is a hit after one stat and no
        decode; any other lookup is :meth:`get`, whose accepted text is
        returned without another stat.  Either way the text is exactly
        what the lookup validated.
        """
        text = self.recall(key)
        if text is not None:
            self.stats.hits += 1
            return text
        if self.get(spec) is None:
            return None
        return self._validated[key][0]

    def put(self, spec: RunSpec, result: SceneResult) -> Path:
        """Store ``result`` under ``spec``'s key (atomic replace).

        Crash-safe under concurrent writers: each store streams into
        its own uniquely-named temp file (never a fixed ``.tmp`` name
        two shard processes sharing the directory could collide on)
        and lands with one :func:`os.replace`, so readers only ever
        see complete entries and the last writer wins whole-file.
        """
        key = self.key(spec)
        path = self.entry_path(key)
        atomic_write(path, encode_entry(spec, result))
        self._validated.pop(key, None)
        self.stats.stores += 1
        return path

    def merge_entry(
        self, key: str, payload: str, on_conflict: str = "error"
    ) -> str:
        """Fold one entry payload in by key; the unit of :meth:`merge`.

        The same semantics a directory merge applies per entry, exposed
        for callers that receive payload *text* rather than a sibling
        cache directory — the sweep service's upload path above all.
        Returns what happened: ``"copied"`` (destination lacked the
        key), ``"identical"`` (byte-identical payload, a no-op),
        ``"kept"`` or ``"replaced"`` (conflict resolved per
        ``on_conflict``).  ``on_conflict="error"`` raises
        :class:`CacheMergeError` on byte-level disagreement — two
        writers producing different bytes for one content address means
        model or schema skew between them.
        """
        if on_conflict not in ("error", "keep", "replace"):
            raise ValueError(
                f"on_conflict must be 'error', 'keep' or 'replace', "
                f"got {on_conflict!r}"
            )
        if not is_entry_key(key):
            raise ValueError(f"not a cache entry key: {key!r}")
        destination = self.entry_path(key)
        if not destination.is_file():
            atomic_write(destination, payload)
            self._validated.pop(key, None)
            return "copied"
        if destination.read_text(encoding="utf-8") == payload:
            return "identical"
        if on_conflict == "error":
            raise CacheMergeError(
                f"cache merge conflict on {key[:12]}…: two writers hold "
                "different results for the same spec key (model or "
                "schema skew); pass on_conflict='keep' or 'replace' to "
                "resolve"
            )
        if on_conflict == "replace":
            atomic_write(destination, payload)
            self._validated.pop(key, None)
            return "replaced"
        return "kept"

    def merge(
        self,
        other: Union["ResultCache", str, Path],
        on_conflict: str = "error",
    ) -> MergeStats:
        """Fold ``other``'s entries into this cache; the gather half of
        a sharded sweep.

        Every entry copies atomically (unique temp file + replace, the
        :meth:`put` discipline), so a reader of the destination never
        sees a torn entry even mid-merge.  A key present in both caches
        with byte-identical payloads is a no-op; *different* payloads
        are a conflict — two shards disagreeing about the same content
        address means a model or schema skew between hosts:

        - ``on_conflict="error"`` (default) raises
          :class:`CacheMergeError` naming the key;
        - ``"keep"`` keeps the destination's entry;
        - ``"replace"`` takes the source's.

        Shard manifests (``repro.session.executor.ShardManifest``
        files) ride along so the merged directory still knows which
        shard owned which keys — ``oovr cache manifest DIR`` audits
        coverage from them.
        """
        from repro.session.executor import shard_manifest_paths

        if on_conflict not in ("error", "keep", "replace"):
            raise ValueError(
                f"on_conflict must be 'error', 'keep' or 'replace', "
                f"got {on_conflict!r}"
            )
        if not isinstance(other, ResultCache):
            other = ResultCache(other)
        stats = MergeStats()
        for source in other._entries():
            payload = source.read_text(encoding="utf-8")
            try:
                outcome = self.merge_entry(
                    source.stem, payload, on_conflict=on_conflict
                )
            except CacheMergeError:
                raise CacheMergeError(
                    f"cache merge conflict on {source.stem[:12]}…: "
                    f"{other.root} and {self.root} hold different results "
                    "for the same spec key (model or schema skew between "
                    "writers); pass on_conflict='keep' or 'replace' to "
                    "resolve"
                ) from None
            # Outcome names match the MergeStats counter fields.
            setattr(stats, outcome, getattr(stats, outcome) + 1)
        for manifest in shard_manifest_paths(other.root):
            atomic_write(
                self.root / manifest.name, manifest.read_text(encoding="utf-8")
            )
            stats.manifests += 1
        return stats

    # -- maintenance --------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def info(self) -> Dict[str, object]:
        """Entry count and on-disk footprint (for ``oovr cache info``)."""
        entries: List[Tuple[str, int]] = [
            (path.stem, path.stat().st_size) for path in self._entries()
        ]
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(size for _, size in entries),
        }

    def status(self) -> Dict[str, object]:
        """Machine-readable cache status: :meth:`info` plus per-grid
        shard-manifest coverage.

        The one code path behind both ``oovr cache info --json`` and
        the sweep service's ``GET /cache`` endpoint, so humans and
        clients read the same numbers.  Each ``grids`` row aggregates
        every readable shard manifest of one scattered grid:
        ``cells`` (the whole grid), ``owned`` (cells some shard
        claimed), ``present`` (grid cells with entries on disk) and
        ``complete`` (every cell present).  Unreadable manifests are
        counted, not fatal.
        """
        from repro.session.executor import ShardManifest, shard_manifest_paths

        info = self.info()
        present = frozenset(path.stem for path in self._entries())
        grids: Dict[str, Dict[str, object]] = {}
        unreadable = 0
        for path in shard_manifest_paths(self.root):
            try:
                manifest = ShardManifest.load(path)
            except (OSError, ValueError, KeyError, TypeError):
                unreadable += 1
                continue
            row = grids.setdefault(
                manifest.grid_key,
                {
                    "grid": manifest.grid_key,
                    "shard_count": manifest.shard_count,
                    "shards": 0,
                    "cells": 0,
                    "owned": set(),
                    "all": set(),
                },
            )
            row["shards"] += 1  # type: ignore[operator]
            row["owned"].update(manifest.owned_keys)  # type: ignore[union-attr]
            row["all"].update(manifest.owned_keys)  # type: ignore[union-attr]
            row["all"].update(manifest.skipped_keys)  # type: ignore[union-attr]
        rows: List[Dict[str, object]] = []
        for grid in sorted(grids):
            row = grids[grid]
            cells = row.pop("all")
            owned = row.pop("owned")
            row["cells"] = len(cells)
            row["owned"] = len(owned)  # type: ignore[assignment]
            row["present"] = len(cells & present)  # type: ignore[operator]
            row["complete"] = row["present"] == row["cells"]
            rows.append(row)
        info["grids"] = rows
        info["unreadable_manifests"] = unreadable
        return info

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            path.unlink()
            removed += 1
        self._validated.clear()
        return removed

