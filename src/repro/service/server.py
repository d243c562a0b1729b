"""``oovr serve`` — the sweep service daemon.

A long-running coordinator that turns the human-driven scatter/merge
recipe (:mod:`repro.session.executor`) into a service:

- **one content-addressed cache** (:class:`~repro.session.cache.ResultCache`)
  is the shared result store.  A submitted grid first resolves against
  it — a repeated grid is answered 100 % from the cache without
  touching the simulator, which is the serving story: most traffic is
  a pure cache read.  Each entry is read, checked and decoded once;
  after that, submits and polls answer it from the text the cache
  validated (:meth:`ResultCache.recall
  <repro.session.cache.ResultCache.recall>`, one ``stat``) for as
  long as its file is unchanged, and any change to the file sends the
  next lookup back to disk to be validated again;
- **a persistent job queue**: ``POST /sweeps`` accepts a serialized
  spec list (the :class:`~repro.session.spec.RunSpec` vocabulary over
  the wire, :mod:`repro.service.protocol`) and replies with a job id
  and the completion events of the cells the cache answered, each
  carrying its entry payload — a grid the cache holds whole is
  answered in that one reply.  ``GET /sweeps/<id>`` reports a job, and
  ``GET /sweeps/<id>/events?since=N`` returns the events completed
  since a client's last poll, payloads included — the service-side
  spelling of the ``on_result(spec, result, cached)`` callback.  A
  payload is read for the reply that carries it and never kept with
  the job;
- **worker leases**: registered workers (:mod:`repro.service.worker`)
  lease pending cells, execute them, and upload cache-entry payloads
  that the server folds in with :meth:`ResultCache.merge_entry
  <repro.session.cache.ResultCache.merge_entry>` semantics — identical
  payloads are no-ops, byte-level disagreement marks the job errored
  (model/schema skew between hosts, the
  :class:`~repro.session.cache.CacheMergeError` contract).  Leases
  carry a deadline; an expired lease returns its cells to the pending
  set, so a worker dying mid-lease degrades to a re-dispatch instead
  of wedging the job.  Assignment prefers the cells
  :func:`~repro.session.executor.shard_of` maps to the worker's slot
  (the shard executor's content partition, so a stable worker fleet
  gets deterministic, disjoint slices) and falls back to stealing any
  pending cell once its own slice drains.

The HTTP layer is a stdlib ``ThreadingHTTPServer`` speaking JSON over
HTTP/1.1 — no dependencies beyond the standard library.  Connections
stay open across requests, with Nagle's algorithm off so that a reply
is not held back for the client's delayed ACK, and close after
:attr:`_Handler.timeout` idle seconds.  All coordination state lives
in :class:`SweepService`, which is usable (and tested) without a
socket.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_version,
    entry_documents,
    specs_from_wire,
    specs_to_wire,
)
from repro.session.cache import (
    CacheMergeError,
    ResultCache,
    decode_entry,
    spec_key,
)
from repro.session.executor import shard_of
from repro.session.spec import RunSpec, SceneKey, SpecError

#: Seconds a worker may sit on a lease before its cells re-dispatch.
DEFAULT_LEASE_TIMEOUT = 60.0
#: Cells handed out per lease unless the worker asks otherwise.
DEFAULT_LEASE_LIMIT = 1


class UnknownResource(KeyError):
    """An id (job, worker, lease, key) the service has never issued."""


@dataclass
class _Cell:
    """One grid cell of one job, tracked through its lifecycle."""

    spec: RunSpec
    key: str
    #: Position in the submitted grid (events/results keep grid order
    #: recoverable client-side).
    index: int
    #: Rank of the cell's workload point (``RunSpec.scene_key``) among
    #: the grid's, in order of first appearance.
    scene: int = 0
    state: str = "pending"  # pending -> leased -> done
    #: True when the submit-time cache already held the result.
    cached: bool = False
    lease: Optional[str] = None


@dataclass
class _Lease:
    lease_id: str
    worker_id: str
    job_id: str
    keys: List[str]
    deadline: float


@dataclass
class _Worker:
    worker_id: str
    name: str
    #: Registration slot, used for shard_of-preferred assignment.
    slot: int
    last_seen: float
    cells_done: int = 0


class _Job:
    """One submitted grid and its completion bookkeeping.

    ``done`` and ``hits`` count cells as :meth:`complete` finishes
    them, so a summary, and ``lease()``'s look at every job's
    ``state``, cost the same however many cells a job has.
    """

    def __init__(self, job_id: str, specs: List[RunSpec]) -> None:
        self.job_id = job_id
        self.cells: List[_Cell] = []
        self.by_key: Dict[str, _Cell] = {}
        scenes: Dict[SceneKey, int] = {}
        for index, spec in enumerate(specs):
            cell = _Cell(
                spec=spec,
                key=spec_key(spec),
                index=index,
                scene=scenes.setdefault(spec.scene_key, len(scenes)),
            )
            if cell.key in self.by_key:
                raise ProtocolError(
                    f"duplicate cell in grid: {cell.key[:12]}… "
                    f"({spec.framework} {spec.workload})"
                )
            self.cells.append(cell)
            self.by_key[cell.key] = cell
        #: Per-cell completion events, appended in completion order;
        #: each carries a monotonically increasing ``seq``.  Payloads
        #: are read per reply, never kept here.
        self.events: List[Dict[str, object]] = []
        self.error: Optional[str] = None
        #: Cells completed, and those of them the submit-time cache held.
        self.done = 0
        self.hits = 0
        #: Cells that executed on a worker (vs. submit-time hits).
        self.executed = 0

    @property
    def state(self) -> str:
        if self.error is not None:
            return "error"
        return "done" if self.done == len(self.cells) else "running"

    def complete(
        self, cell: _Cell, cached: bool, worker: Optional[str]
    ) -> Dict[str, object]:
        """Finish a cell that is not done yet; returns its event."""
        cell.state = "done"
        cell.cached = cached
        cell.lease = None
        self.done += 1
        if cached:
            self.hits += 1
        event: Dict[str, object] = {
            "seq": len(self.events),
            "key": cell.key,
            "index": cell.index,
            "cached": cached,
            "worker": worker,
        }
        self.events.append(event)
        return event

    def summary(self) -> Dict[str, object]:
        return {
            "job": self.job_id,
            "state": self.state,
            "cells": len(self.cells),
            "done": self.done,
            "hits": self.hits,
            "executed": self.executed,
            "error": self.error,
        }


class SweepService:
    """The lock-protected coordination state behind the HTTP surface."""

    def __init__(
        self,
        cache: Union[ResultCache, str, Path],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock=time.monotonic,
    ) -> None:
        # Check before opening the cache: opening makes its directory.
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.lease_timeout = float(lease_timeout)
        self.clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}
        self._workers: Dict[str, _Worker] = {}
        self._leases: Dict[str, _Lease] = {}
        #: Lease re-dispatches caused by expiry (a worker died or
        #: overran); visible in /stats so degradation is observable.
        self.expired_leases = 0
        self.uploads = 0

    # -- internals ----------------------------------------------------------

    def _job(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownResource(f"unknown job {job_id!r}") from None

    def _expire_leases(self) -> None:
        """Return timed-out leases' cells to the pending pool."""
        now = self.clock()
        for lease_id in [
            lease_id
            for lease_id, lease in self._leases.items()
            if lease.deadline <= now
        ]:
            lease = self._leases.pop(lease_id)
            self.expired_leases += 1
            job = self._jobs.get(lease.job_id)
            if job is None:
                continue
            for key in lease.keys:
                cell = job.by_key.get(key)
                if cell is not None and cell.lease == lease_id:
                    cell.state = "pending"
                    cell.lease = None

    # -- client surface -----------------------------------------------------

    def _payload(self, key: str) -> str:
        """A completed cell's entry text: what the cache validated while
        the file is unchanged, else the file as it is (a cell a worker
        completed is read byte for byte)."""
        text = self.cache.recall(key)
        if text is None:
            text = self.cache.entry_path(key).read_text(encoding="utf-8")
        return text

    def submit(self, documents: object) -> Dict[str, object]:
        """``POST /sweeps``: a serialized grid -> job summary plus the
        completion event, payload included, of every cell the cache
        already holds.

        Those cells complete at once, in grid order, so a fully-cached
        grid is done, and answered, in this one reply; no worker is
        ever consulted.  Each payload is the text the hit's own lookup
        validated (:meth:`ResultCache.entry_text
        <repro.session.cache.ResultCache.entry_text>`: one ``stat`` for
        an entry already validated whose file is unchanged).
        """
        specs = specs_from_wire(documents)
        job = _Job(uuid.uuid4().hex[:12], specs)
        events = []
        with self._lock:
            for cell in job.cells:
                text = self.cache.entry_text(cell.spec, cell.key)
                if text is not None:
                    event = job.complete(cell, cached=True, worker=None)
                    events.append(dict(event, payload=text))
            self._jobs[job.job_id] = job
            status = job.summary()
        status["events"] = events
        status["next"] = len(events)
        return status

    def job_status(self, job_id: str) -> Dict[str, object]:
        with self._lock:
            self._expire_leases()
            return self._job(job_id).summary()

    def job_events(self, job_id: str, since: int = 0) -> Dict[str, object]:
        """Completion events ``seq >= since``, each with its entry
        payload, plus the job summary; ``next`` is the ``since`` of the
        following poll."""
        if since < 0:
            raise ProtocolError("'since' must be non-negative")
        with self._lock:
            self._expire_leases()
            job = self._job(job_id)
            events = [
                dict(event, payload=self._payload(str(event["key"])))
                for event in job.events[since:]
            ]
            status = job.summary()
        status["events"] = events
        status["next"] = since + len(events)
        return status

    # -- worker surface -----------------------------------------------------

    def register_worker(self, name: object) -> Dict[str, object]:
        with self._lock:
            worker = _Worker(
                worker_id=uuid.uuid4().hex[:12],
                name=str(name or "worker"),
                slot=len(self._workers),
                last_seen=self.clock(),
            )
            self._workers[worker.worker_id] = worker
            return {
                "worker": worker.worker_id,
                "slot": worker.slot,
                "lease_timeout": self.lease_timeout,
            }

    def _worker(self, worker_id: str) -> _Worker:
        try:
            return self._workers[worker_id]
        except KeyError:
            raise UnknownResource(f"unknown worker {worker_id!r}") from None

    def lease(
        self, worker_id: str, limit: int = DEFAULT_LEASE_LIMIT
    ) -> Dict[str, object]:
        """Hand up to ``limit`` pending cells to a worker.

        Jobs drain in submission order.  Within a job, the worker is
        first offered the cells whose :func:`shard_of` slot (over the
        current fleet size) is its own — the shard executor's
        deterministic content partition, so a stable fleet splits a
        grid exactly like ``--shard I/N`` hosts would — and steals
        other slots' cells only when its own slice is empty (covering
        dead or slow peers).  Either way one workload point's cells go
        out together (points in order of first appearance, grid order
        within one), the order a serial executor runs them in, so a
        serial worker's lease reads as few scenes as it can and starts
        on the scene its last lease kept.
        """
        # A JSON integer: a bool, a float, null or a list is a 400,
        # never a silently rounded or failing conversion.
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise ProtocolError(
                f"lease limit must be an integer of at least 1, got {limit!r}"
            )
        with self._lock:
            self._expire_leases()
            worker = self._worker(worker_id)
            worker.last_seen = self.clock()
            fleet = max(len(self._workers), 1)
            slot = worker.slot % fleet
            for job in self._jobs.values():
                if job.state != "running":
                    continue
                pending = [
                    cell for cell in job.cells if cell.state == "pending"
                ]
                if not pending:
                    continue
                pending.sort(
                    key=lambda cell: (
                        shard_of(cell.spec, fleet) != slot,
                        cell.scene,
                        cell.index,
                    )
                )
                batch = pending[:limit]
                lease = _Lease(
                    lease_id=uuid.uuid4().hex[:12],
                    worker_id=worker_id,
                    job_id=job.job_id,
                    keys=[cell.key for cell in batch],
                    deadline=self.clock() + self.lease_timeout,
                )
                for cell in batch:
                    cell.state = "leased"
                    cell.lease = lease.lease_id
                self._leases[lease.lease_id] = lease
                return {
                    "lease": lease.lease_id,
                    "job": job.job_id,
                    "deadline_seconds": self.lease_timeout,
                    "specs": specs_to_wire([cell.spec for cell in batch]),
                }
            return {"lease": None, "specs": []}

    def upload(
        self,
        worker_id: str,
        job_id: str,
        entries: List[Dict[str, object]],
        lease_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Fold executed entries into the cache and complete their cells.

        Every entry is checked first, exactly as :meth:`ResultCache.get
        <repro.session.cache.ResultCache.get>` checks an entry it reads
        (:func:`~repro.session.cache.decode_entry`), and must name a
        cell of the job: one that fails either check fails the upload
        (a :class:`ProtocolError` or :class:`UnknownResource`) before
        any entry reaches the cache or completes a cell.

        Content-addressed merging makes uploads safe regardless of
        lease state: a late upload from an expired lease (the worker
        was slow, not dead) lands as a no-op if the re-dispatched copy
        already arrived with identical bytes.  *Different* bytes for
        one key are a :class:`CacheMergeError` — the job is marked
        errored, because two workers disagreeing about a content
        address means the fleet is running skewed models.
        """
        uploads = [
            (str(entry["key"]), str(entry["payload"])) for entry in entries
        ]
        for key, payload in uploads:
            try:
                decode_entry(key, payload)
            except ValueError as error:
                raise ProtocolError(
                    f"upload for cell {key[:12]}… is not a valid cache "
                    f"entry: {error}"
                ) from None
        with self._lock:
            self._expire_leases()
            worker = self._worker(worker_id)
            worker.last_seen = self.clock()
            job = self._job(job_id)
            for key, _ in uploads:
                if key not in job.by_key:
                    raise UnknownResource(
                        f"job {job_id} has no cell {key[:12]}…"
                    )
            merged = {"copied": 0, "identical": 0}
            for key, payload in uploads:
                cell = job.by_key[key]
                try:
                    outcome = self.merge_payload(key, payload)
                except CacheMergeError as error:
                    job.error = str(error)
                    raise
                merged[outcome] = merged.get(outcome, 0) + 1
                self.uploads += 1
                if cell.state != "done":
                    job.executed += 1
                    worker.cells_done += 1
                    job.complete(cell, cached=False, worker=worker.name)
            if lease_id is not None and lease_id in self._leases:
                lease = self._leases[lease_id]
                lease.keys = [
                    key
                    for key in lease.keys
                    if job.by_key[key].state != "done"
                ]
                if not lease.keys:
                    del self._leases[lease_id]
            status = job.summary()
            status.update(merged)
            return status

    def merge_payload(self, key: str, payload: str) -> str:
        """One uploaded entry -> the cache, ``merge_entry`` semantics."""
        return self.cache.merge_entry(key, payload, on_conflict="error")

    # -- shared status surfaces ---------------------------------------------

    def cache_status(self) -> Dict[str, object]:
        """``GET /cache`` — the same document ``oovr cache info --json``
        prints (one code path: :meth:`ResultCache.status`)."""
        with self._lock:
            return self.cache.status()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            self._expire_leases()
            return {
                "version": PROTOCOL_VERSION,
                "lease_timeout": self.lease_timeout,
                "jobs": [job.summary() for job in self._jobs.values()],
                "workers": [
                    {
                        "worker": worker.worker_id,
                        "name": worker.name,
                        "slot": worker.slot,
                        "cells_done": worker.cells_done,
                    }
                    for worker in self._workers.values()
                ],
                "active_leases": len(self._leases),
                "expired_leases": self.expired_leases,
                "uploads": self.uploads,
                "cells_executed": sum(
                    job.executed for job in self._jobs.values()
                ),
                "cells_cached": sum(
                    job.hits for job in self._jobs.values()
                ),
                "cache": self.cache.stats.summary(),
            }


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """One HTTP/1.1 connection, kept open across requests.

    Replies go out as soon as they are written (no Nagle delay: the
    headers and the body are two writes), a connection idle for
    :attr:`timeout` seconds is closed, and every request's declared
    body is read before it is routed, so no reply leaves body bytes
    behind on a connection that stays open.
    """

    protocol_version = "HTTP/1.1"
    server_version = "oovr-serve/1"
    disable_nagle_algorithm = True
    #: Seconds a kept-open connection may sit idle before it is closed.
    timeout = 30.0

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, code: int, document: Dict[str, object]) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The request's declared body; a body whose length is not
        declared cannot be skipped, so its connection closes after
        the reply."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            self.close_connection = True
            return b""
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _body(raw: bytes) -> Dict[str, object]:
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"request body is not JSON: {error}") from None
        if not isinstance(document, dict):
            raise ProtocolError("request body must be a JSON object")
        check_version(document, "request")
        return document

    def _dispatch(self, method: str) -> None:
        """Route one request; malformed input must never kill the
        server — every error maps to a JSON response."""
        raw = self._read_body()
        parts = urlsplit(self.path)
        segments = [piece for piece in parts.path.split("/") if piece]
        query = parse_qs(parts.query)
        try:
            self._route(method, segments, query, raw)
        except (ProtocolError, SpecError, ValueError) as error:
            if isinstance(error, CacheMergeError):
                self._reply(409, {"error": str(error), "conflict": True})
            else:
                self._reply(400, {"error": str(error)})
        except UnknownResource as error:
            self._reply(404, {"error": str(error.args[0])})
        except BrokenPipeError:  # pragma: no cover - client went away
            self.close_connection = True
        except Exception as error:  # pragma: no cover - belt and braces
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def _route(
        self,
        method: str,
        segments: List[str],
        query: Dict[str, List[str]],
        raw: bytes,
    ) -> None:
        service = self.service
        route = (method, *segments)
        if route == ("GET", "health"):
            self._reply(200, {"ok": True, "version": PROTOCOL_VERSION})
        elif route == ("GET", "cache"):
            self._reply(200, service.cache_status())
        elif route == ("GET", "stats"):
            self._reply(200, service.stats())
        elif route == ("POST", "sweeps"):
            body = self._body(raw)
            self._reply(200, service.submit(body.get("specs")))
        elif method == "GET" and len(segments) == 2 and segments[0] == "sweeps":
            self._reply(200, service.job_status(segments[1]))
        elif (
            method == "GET"
            and len(segments) == 3
            and segments[0] == "sweeps"
            and segments[2] == "events"
        ):
            since = int(query.get("since", ["0"])[0])
            self._reply(200, service.job_events(segments[1], since=since))
        elif route == ("POST", "workers"):
            body = self._body(raw)
            self._reply(200, service.register_worker(body.get("name")))
        elif route == ("POST", "lease"):
            body = self._body(raw)
            self._reply(
                200,
                service.lease(
                    str(body.get("worker")),
                    limit=body.get("limit", DEFAULT_LEASE_LIMIT),
                ),
            )
        elif route == ("POST", "upload"):
            body = self._body(raw)
            self._reply(
                200,
                service.upload(
                    str(body.get("worker")),
                    str(body.get("job")),
                    entry_documents(body),
                    lease_id=body.get("lease"),
                ),
            )
        else:
            raise UnknownResource(
                f"no such endpoint: {method} /{'/'.join(segments)}"
            )

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


#: How a connection fails when its peer resets or drops it.
_PEER_GONE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class SweepServer(ThreadingHTTPServer):
    """The daemon: a threaded HTTP server owning one :class:`SweepService`.

    ``daemon_threads`` keeps request threads from blocking shutdown;
    state consistency is the service's lock, not thread lifetimes.
    Each kept-open connection holds a request thread until it closes;
    :meth:`server_close` ends them all, so a closed server answers
    nothing more, not even on connections its clients keep.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        cache: Union[ResultCache, str, Path],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        verbose: bool = False,
    ) -> None:
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        # Bind first, so a port in use leaves no cache directory
        # behind; a rejected service must then close the socket.
        super().__init__(address, _Handler)
        try:
            self.service = SweepService(cache, lease_timeout=lease_timeout)
        except BaseException:
            self.server_close()
            raise
        self.verbose = verbose

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """A peer that resets or drops its connection is routine for a
        long-running daemon: the connection is closed without a
        traceback.  Every other error goes to ``socketserver``'s
        report."""
        if not isinstance(sys.exc_info()[1], _PEER_GONE):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            # Wakes the request thread waiting on it, which closes it.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already gone
                pass

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    cache: Union[ResultCache, str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    verbose: bool = False,
) -> SweepServer:
    """Build a :class:`SweepServer` bound to ``host:port`` (0 = any
    free port; read the chosen one back off ``server.url``).  The
    caller decides how to run it — ``serve_forever()`` in the CLI, a
    background thread in tests."""
    return SweepServer(
        (host, port), cache, lease_timeout=lease_timeout, verbose=verbose
    )
