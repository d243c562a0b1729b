"""Client side of the sweep service: HTTP wrapper + ``remote`` executor.

:class:`ServiceClient` is a thin JSON-over-HTTP wrapper (stdlib
``urllib``) around the daemon's endpoints.  :class:`RemoteExecutor`
builds on it to implement the :class:`~repro.session.executor.SweepExecutor`
protocol: ``Sweep.run(executor="remote")`` /
``oovr sweep --executor remote --server URL`` submits the grid to a
daemon, polls per-cell completion events, and returns results
**byte-identical** to the ``serial`` backend — the records decode from
the exact cache-entry payloads the service stores, through the same
:meth:`SceneResult.from_dict <repro.stats.metrics.SceneResult.from_dict>`
path a local cache hit takes.

:func:`~repro.session.executor.make_executor` builds it for the name
``remote``, resolving the daemon URL from the ``OOVR_SERVER``
environment variable (``--server URL`` on the CLI constructs the
instance directly).
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence

from repro.service.protocol import PROTOCOL_VERSION, specs_to_wire
from repro.session.cache import CacheMergeError, ResultCache, spec_key
from repro.session.executor import ExecutorError, ResultCallback, _lookup
from repro.session.spec import RunSpec
from repro.stats.metrics import SceneResult

#: Environment variable naming the daemon for ``--executor remote``.
SERVER_ENV = "OOVR_SERVER"


class ServiceError(RuntimeError):
    """The daemon rejected a request or is unreachable."""


class ServiceClient:
    """JSON-over-HTTP client for one ``oovr serve`` daemon."""

    def __init__(self, server: str, timeout: float = 30.0) -> None:
        if not server.startswith(("http://", "https://")):
            raise ServiceError(
                f"server URL must start with http:// or https://, "
                f"got {server!r}"
            )
        self.server = server.rstrip("/")
        self.timeout = timeout

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
        request = urllib.request.Request(
            f"{self.server}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                document = json.loads(error.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                document = {}
            message = document.get("error", str(error))
            if error.code == 409 or document.get("conflict"):
                raise CacheMergeError(message) from None
            raise ServiceError(
                f"{method} {path} -> {error.code}: {message}"
            ) from None
        except (urllib.error.URLError, OSError, ValueError) as error:
            raise ServiceError(
                f"cannot reach sweep server at {self.server}: {error}"
            ) from None

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

    def fetch(
        self, job_id: str, keys: Sequence[str]
    ) -> Dict[str, str]:
        document = self._request(
            "POST", f"/sweeps/{job_id}/results", {"keys": list(keys)}
        )
        return dict(document["results"])  # type: ignore[arg-type]

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

    The submit/poll/fetch counterpart of the in-process backends:
    local-cache hits resolve first (exactly like ``serial``), the
    misses are submitted as one job, completion events stream back,
    and ``on_result`` fires in grid order over the *whole* grid —
    progressively, as the completed prefix grows — so callers cannot
    tell the backends apart except by where the work ran.  Fetched
    entry payloads are folded into the local cache (when one is in
    play), so a remote sweep doubles as a cache warm.
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
            job = self.client.submit(submitted)
            job_id = str(job["job"])
            deadline = (
                None if self.timeout is None
                else time.monotonic() + self.timeout
            )
            seq = 0
            while True:
                status = self.client.events(job_id, since=seq)
                seq = int(status["next"])  # type: ignore[arg-type]
                events = status["events"]  # type: ignore[assignment]
                if events:
                    payloads = self.client.fetch(
                        job_id, [str(event["key"]) for event in events]
                    )
                    for event in events:
                        key = str(event["key"])
                        payload = payloads[key]
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
        fire_ready()
        return results
