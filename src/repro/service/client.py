"""Client side of the sweep service: HTTP wrapper + ``remote`` executor.

:class:`ServiceClient` is a thin JSON-over-HTTP wrapper (stdlib
:mod:`http.client`) around the daemon's endpoints; it keeps its
connections open between requests, so a client pays for one TCP
connection per thread, not one per request.  :class:`RemoteExecutor`
builds on it to implement the :class:`~repro.session.executor.SweepExecutor`
protocol: ``Sweep.run(executor="remote")`` /
``oovr sweep --executor remote --server URL`` submits the grid to a
daemon and reads per-cell completion events, each with its cell's
cache-entry payload, off the submit reply and then off each poll — a
grid the daemon's cache holds whole takes one request.  It returns
results **byte-identical** to the ``serial`` backend: the records
decode from the exact cache-entry payloads the service stores, through
the same
:meth:`SceneResult.from_dict <repro.stats.metrics.SceneResult.from_dict>`
path a local cache hit takes.

:func:`~repro.session.executor.make_executor` builds it for the name
``remote``, resolving the daemon URL from the ``OOVR_SERVER``
environment variable (``--server URL`` on the CLI constructs the
instance directly).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.service.protocol import PROTOCOL_VERSION, specs_to_wire
from repro.session.cache import CacheMergeError, ResultCache, spec_key
from repro.session.executor import ExecutorError, ResultCallback, _lookup
from repro.session.spec import RunSpec
from repro.stats.metrics import SceneResult

#: Environment variable naming the daemon for ``--executor remote``.
SERVER_ENV = "OOVR_SERVER"


class ServiceError(RuntimeError):
    """The daemon rejected a request or is unreachable."""


def _close_all(connections: Iterable[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


class ServiceClient:
    """JSON-over-HTTP client for one ``oovr serve`` daemon.

    Requests travel over HTTP/1.1 connections that stay open between
    requests, and across :meth:`RemoteExecutor.run` calls.  Threads
    sharing a client never share a connection: each request takes an
    idle one (or opens one) under a lock and puts it back when its
    reply has been read.  A kept connection the daemon has since
    closed (its idle timeout, a restart) fails before any byte of the
    reply arrives; such a request is sent once more on a fresh
    connection.  :meth:`close` closes the idle connections, as does
    collecting the client.
    """

    def __init__(self, server: str, timeout: float = 30.0) -> None:
        if not server.startswith(("http://", "https://")):
            raise ServiceError(
                f"server URL must start with http:// or https://, "
                f"got {server!r}"
            )
        self.server = server.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.server)
        if not parts.netloc:
            raise ServiceError(f"server URL names no host: {server!r}")
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._address = parts.netloc
        self._prefix = parts.path
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._lock:
            _close_all(self._idle)
            self._idle.clear()

    def _exchange(
        self, method: str, path: str, data: Optional[bytes], headers
    ) -> Tuple[int, bytes]:
        """One request on a kept connection: (status, body)."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = self._connection_class(
                self._address, timeout=self.timeout
            )
        # Only a connection that has carried a request can have been
        # closed by the daemon since.
        reused = connection.sock is not None
        target = self._prefix + path
        try:
            try:
                connection.request(method, target, data, headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # Nothing of the reply arrived, so the daemon never
                # took the request: resend it on a fresh connection.
                connection.close()
                connection.request(method, target, data, headers)
                response = connection.getresponse()
            body = response.read()
        except BaseException:
            connection.close()
            raise
        with self._lock:
            self._idle.append(connection)
        return response.status, body

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            payload = dict(body)
            payload.setdefault("version", PROTOCOL_VERSION)
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            status, raw = self._exchange(method, path, data, headers)
        except (OSError, http.client.HTTPException) as error:
            raise ServiceError(
                f"cannot reach sweep server at {self.server}: {error}"
            ) from None
        try:
            document = json.loads(raw.decode("utf-8"))
        except ValueError as error:
            if status < 400:
                raise ServiceError(
                    f"{method} {path}: unreadable reply from "
                    f"{self.server}: {error}"
                ) from None
            document = {}
        if status >= 400:
            message = document.get("error", f"HTTP {status}")
            if status == 409 or document.get("conflict"):
                raise CacheMergeError(message)
            raise ServiceError(f"{method} {path} -> {status}: {message}")
        return document

    # -- endpoints ----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/health")

    def cache_status(self) -> Dict[str, object]:
        return self._request("GET", "/cache")

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/stats")

    def submit(self, specs: Sequence[RunSpec]) -> Dict[str, object]:
        return self._request(
            "POST", "/sweeps", {"specs": specs_to_wire(specs)}
        )

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/sweeps/{job_id}")

    def events(self, job_id: str, since: int = 0) -> Dict[str, object]:
        return self._request(
            "GET", f"/sweeps/{job_id}/events?since={int(since)}"
        )

    def register_worker(self, name: str) -> Dict[str, object]:
        return self._request("POST", "/workers", {"name": name})

    def lease(self, worker_id: str, limit: int = 1) -> Dict[str, object]:
        return self._request(
            "POST", "/lease", {"worker": worker_id, "limit": int(limit)}
        )

    def upload(
        self,
        worker_id: str,
        job_id: str,
        entries: List[Dict[str, str]],
        lease_id: Optional[str] = None,
    ) -> Dict[str, object]:
        return self._request(
            "POST",
            "/upload",
            {
                "worker": worker_id,
                "job": job_id,
                "lease": lease_id,
                "entries": entries,
            },
        )


class RemoteExecutor:
    """Run a sweep's cells on an ``oovr serve`` daemon.

    The submit/poll counterpart of the in-process backends:
    local-cache hits resolve first (exactly like ``serial``), the
    misses are submitted as one job, completion events stream back
    with their entry payloads (the submit reply holds those of the
    cells the daemon's cache answered, so an all-cached grid is one
    request), and ``on_result`` fires in grid order over the *whole*
    grid — progressively, as the completed prefix grows — so callers
    cannot tell the backends apart except by where the work ran.
    Received payloads are folded into the local cache (when one is in
    play), so a remote sweep doubles as a cache warm.  The executor's
    client keeps its connections open from one :meth:`run` to the
    next.
    """

    name = "remote"

    def __init__(
        self,
        server: str,
        poll_interval: float = 0.2,
        timeout: Optional[float] = None,
        client: Optional[ServiceClient] = None,
    ) -> None:
        self.client = client or ServiceClient(server)
        if poll_interval <= 0:
            raise ExecutorError("poll_interval must be positive")
        self.poll_interval = float(poll_interval)
        #: Overall deadline for one grid (None = wait indefinitely).
        self.timeout = timeout

    @classmethod
    def from_env(cls) -> "RemoteExecutor":
        """The instance ``executor="remote"`` (by name) resolves to."""
        server = os.environ.get(SERVER_ENV)
        if not server:
            raise ExecutorError(
                "the remote executor needs a server: pass --server URL "
                f"(CLI), set ${SERVER_ENV}, or construct "
                "RemoteExecutor(server_url) directly"
            )
        return cls(server)

    def run(
        self,
        specs: Sequence[RunSpec],
        cache: Optional[ResultCache] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[SceneResult]]:
        specs = list(specs)
        results, hits = _lookup(specs, cache)
        fired = 0

        def fire_ready() -> None:
            """Advance the grid-order callback frontier."""
            nonlocal fired
            while fired < len(specs) and results[fired] is not None:
                if on_result is not None:
                    on_result(specs[fired], results[fired], hits[fired])
                fired += 1

        missing = [
            index for index, result in enumerate(results) if result is None
        ]
        if missing:
            # One key can cover several grid indices only if a caller
            # hands duplicate specs; the service stores one cell per
            # content address, so map key -> every index it fills.
            indices_by_key: Dict[str, List[int]] = {}
            for index in missing:
                indices_by_key.setdefault(
                    spec_key(specs[index]), []
                ).append(index)
            submitted = [
                specs[indices[0]] for indices in indices_by_key.values()
            ]
            # The submit reply already carries the cells the cache
            # held; each poll then carries the cells completed since.
            status = self.client.submit(submitted)
            job_id = str(status["job"])
            deadline = (
                None if self.timeout is None
                else time.monotonic() + self.timeout
            )
            while True:
                events = status["events"]  # type: ignore[assignment]
                for event in events:
                    key = str(event["key"])
                    payload = str(event["payload"])
                    entry = json.loads(payload)
                    result = SceneResult.from_dict(entry["result"])
                    if cache is not None:
                        # The authoritative bytes for this address
                        # just arrived; overwrite even a stale or
                        # corrupt local entry.
                        cache.merge_entry(
                            key, payload, on_conflict="replace"
                        )
                    for index in indices_by_key[key]:
                        results[index] = result
                        hits[index] = bool(event["cached"])
                fire_ready()
                state = status["state"]
                if state == "error":
                    message = str(status.get("error"))
                    if "merge conflict" in message:
                        raise CacheMergeError(message)
                    raise ServiceError(
                        f"job {job_id} failed on the server: {message}"
                    )
                if state == "done" and all(
                    results[index] is not None for index in missing
                ):
                    break
                if deadline is not None and time.monotonic() > deadline:
                    raise ServiceError(
                        f"job {job_id} did not complete within "
                        f"{self.timeout:.0f}s ({status.get('done')}/"
                        f"{status.get('cells')} cells done — are any "
                        "workers connected to the server?)"
                    )
                time.sleep(self.poll_interval)
                status = self.client.events(
                    job_id, since=int(status["next"])  # type: ignore[arg-type]
                )
        fire_ready()
        return results
