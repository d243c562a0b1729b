"""``oovr worker`` — a host agent executing leased sweep cells.

A worker registers with a daemon (:mod:`repro.service.server`), then
loops: lease pending cells, execute them through the **existing**
in-process executors (:class:`~repro.session.executor.SerialExecutor`,
or a :class:`~repro.session.executor.ProcessExecutor` when built with
``jobs > 1`` — the worker adds no execution semantics of its own),
encode each result with :func:`repro.session.cache.encode_entry`, and
upload the entry payloads for the server to merge.

Failure model: the worker is stateless between leases.  If it dies
mid-lease, the server re-dispatches the cells when the lease deadline
passes; if it is merely slow, its late upload lands as a byte-identical
no-op next to the re-dispatched copy.  The worker exits on its own
when the server becomes unreachable (the daemon went away) or when
``max_idle`` seconds pass without work — both make process lifecycle
manageable from shell scripts and CI without a supervisor.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Dict, Optional

from repro.service.client import ServiceClient, ServiceError
from repro.session.cache import CacheMergeError, encode_entry, spec_key
from repro.session.executor import ProcessExecutor, SerialExecutor
from repro.service.protocol import specs_from_wire

#: Unreachable-server retries before the worker gives up and exits.
DEFAULT_RETRIES = 3


class SweepWorker:
    """One work-pulling agent bound to one daemon."""

    def __init__(
        self,
        server: str,
        jobs: int = 1,
        name: Optional[str] = None,
        poll_interval: float = 0.5,
        lease_limit: Optional[int] = None,
        max_idle: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        client: Optional[ServiceClient] = None,
    ) -> None:
        self.client = client or ServiceClient(server)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.jobs = max(int(jobs), 1)
        # Lease in executor-sized batches so a process-pool worker has
        # enough cells in flight to keep its pool busy.
        self.lease_limit = (
            int(lease_limit) if lease_limit is not None else self.jobs
        )
        if self.lease_limit < 1:
            raise ValueError("lease_limit must be at least 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = float(poll_interval)
        self.max_idle = max_idle
        self.retries = max(int(retries), 1)
        self.executor = (
            ProcessExecutor(self.jobs) if self.jobs > 1 else SerialExecutor()
        )
        #: Cells executed and uploaded over this worker's lifetime.
        self.cells_done = 0
        self.leases_served = 0

    def serve_one_lease(self, worker_id: str) -> bool:
        """Lease, execute, upload once; False when no work was pending."""
        lease = self.client.lease(worker_id, limit=self.lease_limit)
        if not lease.get("lease"):
            return False
        specs = specs_from_wire(lease["specs"])
        # No cache here: the server's cache is the store of record and
        # already filtered hits out at submit time.
        results = self.executor.run(specs)
        entries = [
            {"key": spec_key(spec), "payload": encode_entry(spec, result)}
            for spec, result in zip(specs, results)
        ]
        self.client.upload(
            worker_id,
            str(lease["job"]),
            entries,
            lease_id=str(lease["lease"]),
        )
        self.cells_done += len(entries)
        self.leases_served += 1
        return True

    def run_forever(
        self, should_stop: Optional[Callable[[], bool]] = None
    ) -> Dict[str, object]:
        """Pull work until told to stop, idled out, or orphaned.

        ``should_stop`` is polled between leases (tests pass an
        ``Event.is_set``); a :class:`CacheMergeError` on upload is
        fatal for the *job*, not the worker — the worker logs on via
        the next lease.
        """
        registration = self.client.register_worker(self.name)
        worker_id = str(registration["worker"])
        idle_since: Optional[float] = None
        failures = 0
        while not (should_stop is not None and should_stop()):
            try:
                worked = self.serve_one_lease(worker_id)
                failures = 0
            except CacheMergeError:
                # The server already marked the job errored; nothing
                # useful to retry, but other jobs may still need us.
                worked = False
            except ServiceError:
                failures += 1
                if failures >= self.retries:
                    break  # server went away: exit instead of spinning
                time.sleep(self.poll_interval)
                continue
            if worked:
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if (
                self.max_idle is not None
                and now - idle_since >= self.max_idle
            ):
                break
            time.sleep(self.poll_interval)
        return {
            "worker": worker_id,
            "name": self.name,
            "cells_done": self.cells_done,
            "leases_served": self.leases_served,
        }
