"""The sweep service: wire protocol, daemon, workers, remote executor.

The acceptance bar mirrors the executor layer's: whatever transport a
grid travels over, the exported records must be byte-identical to the
``serial`` backend — and a repeated grid must be answered entirely
from the server's cache without touching the simulator.

Coordination-state tests drive :class:`SweepService` directly with a
fake clock (lease expiry is deterministic, no sleeping); transport
tests run a real :class:`SweepServer` on a loopback port with worker
threads.
"""

import gc
import http.client
import json
import re
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from contextlib import contextmanager

import pytest

from repro import cli
from repro.config import baseline_system
from repro.profiling import PhaseProfile, capture
from repro.service import (
    ProtocolError,
    RemoteExecutor,
    ServiceClient,
    ServiceError,
    SweepService,
    SweepWorker,
    serve,
    spec_from_wire,
    spec_to_wire,
    specs_from_wire,
    specs_to_wire,
)
from repro.service.protocol import check_version
from repro.service.server import UnknownResource, _Handler
from repro.session import (
    CacheMergeError,
    ExperimentConfig,
    ResultCache,
    RunSpec,
    SerialExecutor,
    Sweep,
    encode_entry,
    shard_of,
    spec_key,
)
from repro.session.spec import cached_scene

#: Two tiny workloads keep these tests quick.
TINY = ExperimentConfig(
    draw_scale=0.08, num_frames=2, workloads=("DM3-640", "WE")
)


def tiny_sweep() -> Sweep:
    return Sweep().preset(TINY).frameworks("baseline", "oo-vr")


def tiny_specs():
    return tiny_sweep().specs()


def executed_entries(specs):
    """(key, payload) uploads for ``specs``, run through ``serial``."""
    results = SerialExecutor().run(specs)
    return [
        {"key": spec_key(spec), "payload": encode_entry(spec, result)}
        for spec, result in zip(specs, results)
    ]


def skewed(payload):
    """``payload`` as a host running another model writes it: a valid
    entry for the same cell whose first frame took twice the cycles."""
    entry = json.loads(payload)
    entry["result"]["frames"][0]["cycles"] *= 2
    return json.dumps(entry, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestWireProtocol:
    """RunSpec <-> JSON must preserve the content address exactly."""

    SPECS = (
        RunSpec(framework="oo-vr", workload="HL2-1280"),
        RunSpec(framework="oo-vr:no-dhc", workload="WE", engine="event"),
        RunSpec(
            framework="baseline:topo=ring",
            workload="DM3-640",
            config=baseline_system(8).with_link_bandwidth(32.0),
            config_label="8gpm@32GB/s",
            num_frames=2,
            seed=7,
            draw_scale=0.1,
        ),
        RunSpec(framework="oo-vr:topo=ring", workload="WE", engine="event"),
    )

    @pytest.mark.parametrize(
        "spec", SPECS, ids=lambda spec: spec.framework
    )
    def test_round_trip_preserves_spec_key(self, spec):
        # Through actual JSON text, not just dict shape: the wire must
        # keep ints ints and floats floats or the fingerprint shifts.
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        back = spec_from_wire(wire)
        assert back == spec
        assert spec_key(back) == spec_key(spec)

    def test_grid_round_trip_keeps_order(self):
        specs = tiny_specs()
        assert specs_from_wire(specs_to_wire(specs)) == specs

    def test_non_list_grid_rejected(self):
        with pytest.raises(ProtocolError, match="list"):
            specs_from_wire({"framework": "oo-vr"})

    def test_empty_grid_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            specs_from_wire([])

    def test_invalid_spec_surfaces_spec_error(self):
        from repro.session import SpecError

        wire = spec_to_wire(RunSpec(framework="oo-vr", workload="WE"))
        wire["framework"] = "hologram"
        with pytest.raises(SpecError):
            spec_from_wire(wire)

    def test_negative_seed_surfaces_spec_error(self):
        from repro.session import SpecError

        wire = spec_to_wire(RunSpec(framework="oo-vr", workload="WE"))
        wire["seed"] = -1
        with pytest.raises(SpecError, match="seed must be non-negative"):
            spec_from_wire(wire)

    @pytest.mark.parametrize(
        "framework, message",
        [
            ("oo-vr:tsl=-1", "TSL threshold must be in [0, 1)"),
            ("oo-vr:tsl=1", "TSL threshold must be in [0, 1)"),
            ("oo-vr:tsl=nan", "TSL threshold must be in [0, 1)"),
            ("oo-vr:cap=0", "triangle limit must be positive"),
        ],
        ids=["tsl=-1", "tsl=1", "tsl=nan", "cap=0"],
    )
    def test_out_of_range_middleware_surfaces_spec_error(
        self, framework, message
    ):
        # The daemon refuses such a spec at submit, not once it runs.
        from repro.session import SpecError

        wire = spec_to_wire(RunSpec(framework="oo-vr", workload="WE"))
        wire["framework"] = framework
        with pytest.raises(SpecError, match=re.escape(message)):
            spec_from_wire(wire)

    def test_analytic_engine_is_not_sent(self):
        # The default engine stays off the wire, as it stays out of the
        # key; any other engine is sent.
        assert "engine" not in spec_to_wire(self.SPECS[0])
        assert spec_to_wire(self.SPECS[1])["engine"] == "event"

    def test_config_naming_an_engine_rejected(self):
        """A config document names hardware only (version 3): one that
        names an ``engine`` is refused, never run as an analytic cell."""
        wire = spec_to_wire(self.SPECS[2])
        wire["config"]["engine"] = "event"
        with pytest.raises(ProtocolError, match="engine"):
            spec_from_wire(wire)

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            check_version({"version": 99}, "request")

    def test_version_one_peer_refused_by_name(self):
        """Version 1 clients fetched payloads from a route version 2
        deleted; they are refused, not half-served."""
        with pytest.raises(
            ProtocolError, match="speaks protocol version 1; this side "
            "speaks 3"
        ):
            check_version({"version": 1}, "request")

    def test_version_two_peer_refused_by_name(self):
        """Version 2 config documents could name an engine; version 3
        ones cannot, so a version 2 peer is refused outright."""
        with pytest.raises(
            ProtocolError, match="speaks protocol version 2; this side "
            "speaks 3"
        ):
            check_version({"version": 2}, "request")


# ---------------------------------------------------------------------------
# Coordination state (no socket)
# ---------------------------------------------------------------------------


class FakeClock:
    """Deterministic stand-in for ``time.monotonic``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def service(tmp_path, clock):
    return SweepService(
        ResultCache(tmp_path / "cache"), lease_timeout=10.0, clock=clock
    )


def assert_counts(service):
    """Every job's counters equal a fresh walk over its cells."""
    for job in service._jobs.values():
        done = sum(cell.state == "done" for cell in job.cells)
        hits = sum(cell.cached for cell in job.cells)
        if job.error is not None:
            state = "error"
        else:
            state = "done" if done == len(job.cells) else "running"
        assert (job.done, job.hits, job.state) == (done, hits, state)


class TestSweepService:
    def submit(self, service, specs):
        status = service.submit(specs_to_wire(specs))
        assert_counts(service)
        return status

    def test_lease_execute_upload_completes_job(self, service):
        specs = tiny_specs()
        job = self.submit(service, specs)
        assert (job["state"], job["hits"]) == ("running", 0)
        worker = service.register_worker("w0")["worker"]
        lease = service.lease(worker, limit=len(specs))
        assert_counts(service)
        leased = specs_from_wire(lease["specs"])
        assert sorted(spec_key(s) for s in leased) == sorted(
            spec_key(s) for s in specs
        )
        status = service.upload(
            worker,
            job["job"],
            executed_entries(leased),
            lease_id=lease["lease"],
        )
        assert_counts(service)
        assert status["state"] == "done"
        assert status["executed"] == len(specs)
        assert status["copied"] == len(specs)
        assert service.stats()["active_leases"] == 0

    def test_cached_grid_completes_at_submit(self, service):
        specs = tiny_specs()
        for entry in executed_entries(specs):
            service.cache.merge_entry(entry["key"], entry["payload"])
        job = self.submit(service, specs)
        assert job["state"] == "done"
        assert job["hits"] == len(specs)
        assert job["executed"] == 0
        # The completion events ride on the submit reply, in grid
        # order, and a poll from the start repeats them.
        events = job["events"]
        assert [event["index"] for event in events] == list(
            range(len(specs))
        )
        assert all(event["cached"] for event in events)
        assert job["next"] == len(specs)
        assert service.job_events(job["job"])["events"] == events
        assert service.job_events(job["job"], since=job["next"])[
            "events"
        ] == []
        # No worker is ever consulted: a lease finds nothing pending.
        worker = service.register_worker("w0")["worker"]
        assert service.lease(worker, limit=8)["lease"] is None

    def test_dead_worker_lease_expires_and_redispatches(
        self, service, clock
    ):
        """The satellite bar: a worker dying mid-lease degrades to a
        re-dispatch, and the job still completes."""
        specs = tiny_specs()
        job = self.submit(service, specs)
        dead = service.register_worker("dies-mid-lease")["worker"]
        lease = service.lease(dead, limit=len(specs))
        assert_counts(service)
        assert len(lease["specs"]) == len(specs)
        # Before the deadline nothing is pending for anyone else.
        survivor = service.register_worker("survivor")["worker"]
        assert service.lease(survivor, limit=8)["lease"] is None
        # The worker dies; its lease times out.
        clock.advance(10.5)
        service.job_status(job["job"])  # expires the lease
        assert_counts(service)
        release = service.lease(survivor, limit=len(specs))
        assert_counts(service)
        assert sorted(
            spec_key(s) for s in specs_from_wire(release["specs"])
        ) == sorted(spec_key(s) for s in specs)
        status = service.upload(
            survivor,
            job["job"],
            executed_entries(specs),
            lease_id=release["lease"],
        )
        assert_counts(service)
        assert status["state"] == "done"
        assert service.stats()["expired_leases"] == 1

    def test_late_upload_from_expired_lease_is_a_noop(
        self, service, clock
    ):
        """A slow (not dead) worker's late upload lands as a
        byte-identical no-op next to the re-dispatched copy."""
        specs = tiny_specs()
        job = self.submit(service, specs)
        slow = service.register_worker("slow")["worker"]
        stale = service.lease(slow, limit=len(specs))
        clock.advance(10.5)
        fast = service.register_worker("fast")["worker"]
        release = service.lease(fast, limit=len(specs))
        entries = executed_entries(specs)
        service.upload(fast, job["job"], entries, lease_id=release["lease"])
        assert_counts(service)
        late = service.upload(
            slow, job["job"], entries, lease_id=stale["lease"]
        )
        assert_counts(service)
        assert late["state"] == "done"
        assert late["identical"] == len(specs)
        assert late["copied"] == 0
        # The late copy did not double-count executions.
        assert late["executed"] == len(specs)

    def test_conflicting_upload_errors_the_job(self, service):
        """Byte-level disagreement for one content address is model
        skew: the job surfaces CacheMergeError, state -> error."""
        specs = tiny_specs()
        job = self.submit(service, specs)
        rogue = service.register_worker("skewed-model")["worker"]
        honest = service.register_worker("honest")["worker"]
        entries = executed_entries(specs)
        tampered = dict(entries[0], payload=skewed(entries[0]["payload"]))
        assert tampered["payload"] != entries[0]["payload"]
        lease = service.lease(rogue, limit=1)
        service.upload(rogue, job["job"], [tampered], lease_id=lease["lease"])
        assert_counts(service)
        with pytest.raises(CacheMergeError, match="merge conflict"):
            service.upload(honest, job["job"], [entries[0]])
        assert_counts(service)
        status = service.job_status(job["job"])
        assert status["state"] == "error"
        assert "merge conflict" in status["error"]

    def test_duplicate_cells_in_grid_rejected(self, service):
        spec = tiny_specs()[0]
        with pytest.raises(ProtocolError, match="duplicate cell"):
            self.submit(service, [spec, spec])

    def test_two_workers_get_shard_disjoint_slices(self, service):
        """Assignment prefers shard_of(spec, fleet) == slot — a stable
        fleet splits a grid exactly like ``--shard I/N`` hosts."""
        specs = tiny_specs()
        self.submit(service, specs)
        workers = [
            service.register_worker(f"w{slot}")["worker"]
            for slot in range(2)
        ]
        owned = {
            slot: sorted(
                spec_key(s) for s in specs if shard_of(s, 2) == slot
            )
            for slot in range(2)
        }
        for slot, worker in enumerate(workers):
            lease = service.lease(worker, limit=len(owned[slot]))
            keys = sorted(
                spec_key(s) for s in specs_from_wire(lease["specs"])
            )
            assert keys == owned[slot]

    def test_a_serial_worker_reads_each_scene_once(self, service):
        """Leases hand out one workload point's cells together, in the
        serial executor's order, so a serial worker leasing two cells
        at a time builds each scene once although it lets a scene go
        when its lease moves on to the next."""
        specs = Sweep().preset(TINY).frameworks(
            "baseline", "oo-vr", "tile-h"
        ).specs()
        job = self.submit(service, specs)
        worker = service.register_worker("w0")["worker"]
        executor = SerialExecutor()
        leased = []
        cached_scene.cache_clear()
        with capture(PhaseProfile()) as profile:
            while True:
                lease = service.lease(worker, limit=2)
                if lease["lease"] is None:
                    break
                batch = specs_from_wire(lease["specs"])
                leased.append([spec.workload for spec in batch])
                entries = [
                    {"key": spec_key(spec), "payload": encode_entry(spec, result)}
                    for spec, result in zip(batch, executor.run(batch))
                ]
                service.upload(
                    worker, job["job"], entries, lease_id=lease["lease"]
                )
        assert leased == [["DM3-640"] * 2, ["DM3-640", "WE"], ["WE"] * 2]
        assert profile.counters["scene_frames_built"] == 2 * TINY.num_frames
        assert service.job_status(job["job"])["state"] == "done"

    def test_events_guards(self, service):
        specs = tiny_specs()
        job = self.submit(service, specs)
        # Nothing is complete yet: a poll returns no event.
        status = service.job_events(job["job"])
        assert (status["events"], status["next"]) == ([], 0)
        with pytest.raises(UnknownResource, match="unknown job"):
            service.job_events("nope")
        with pytest.raises(ProtocolError, match="non-negative"):
            service.job_events(job["job"], since=-1)
        with pytest.raises(UnknownResource, match="unknown job"):
            service.job_status("nope")
        with pytest.raises(UnknownResource, match="unknown worker"):
            service.lease("nope")

    def test_events_are_kept_without_payloads(self, service):
        """The daemon keeps a job's events for its whole life; each
        reply reads payloads afresh instead of storing them."""
        specs = tiny_specs()
        warm(service.cache, specs)
        job = self.submit(service, specs)
        service.job_events(job["job"])
        kept = service._jobs[job["job"]].events
        assert len(kept) == len(specs)
        assert all("payload" not in event for event in kept)

    def test_resubmitted_grid_is_answered_from_memory(
        self, service, entry_reads
    ):
        specs = tiny_specs()
        entries = executed_entries(specs)
        cold = self.submit(service, specs)  # a cold grid: four misses
        assert (cold["events"], cold["next"]) == ([], 0)
        for entry in entries:
            service.cache.merge_entry(entry["key"], entry["payload"])
        self.submit(service, specs)  # reads and validates each entry
        entry_reads.clear()
        job = self.submit(service, specs)
        assert (job["state"], job["hits"]) == ("done", len(specs))
        polled = service.job_events(job["job"])["events"]
        assert dict(entry_reads) == {}
        files = {
            entry["key"]: (service.cache.root / f"{entry['key']}.json")
            .read_bytes()
            .decode()
            for entry in entries
        }
        for events in (job["events"], polled):
            payloads = {event["key"]: event["payload"] for event in events}
            assert payloads == files
            assert payloads == {
                entry["key"]: entry["payload"] for entry in entries
            }
        # Memo hits are counted as the file reads they replace.
        assert service.stats()["cache"] == "8 hits, 4 misses"

    @pytest.mark.parametrize("limit", [None, [2], 2.7, True, "2", 0, -1])
    def test_lease_limit_is_a_json_integer_of_at_least_1(
        self, service, limit
    ):
        """A bool, float, null, list or string limit, or one below 1,
        is a protocol error that leases nothing."""
        self.submit(service, tiny_specs())
        worker = service.register_worker("w0")["worker"]
        with pytest.raises(ProtocolError, match="lease limit"):
            service.lease(worker, limit=limit)
        assert service.stats()["active_leases"] == 0
        assert len(service.lease(worker, limit=2)["specs"]) == 2

    def rejected_upload(self, service, bad, match):
        """Lease the grid, upload ``bad(entries)``: the upload raises
        ``match`` and leaves every cell leased and the cache empty."""
        specs = tiny_specs()
        job = self.submit(service, specs)
        worker = service.register_worker("w0")["worker"]
        lease = service.lease(worker, limit=len(specs))
        entries = executed_entries(specs_from_wire(lease["specs"]))
        with pytest.raises(ProtocolError, match=match):
            service.upload(
                worker, job["job"], bad(entries), lease_id=lease["lease"]
            )
        assert_counts(service)
        cells = service._jobs[job["job"]].cells
        assert {cell.state for cell in cells} == {"leased"}
        assert service.cache.keys() == []
        assert service.uploads == 0
        # The honest upload still lands afterwards.
        status = service.upload(
            worker, job["job"], entries, lease_id=lease["lease"]
        )
        assert (status["state"], status["copied"]) == ("done", len(specs))

    def test_upload_rekeyed_to_another_cell_is_rejected(self, service):
        """An entry uploaded under another cell's address does not hash
        to that address, so it never enters the cache."""

        def rekeyed(entries):
            return [dict(entries[1], key=entries[0]["key"])]

        self.rejected_upload(service, rekeyed, "identity mismatch")

    def test_truncated_upload_is_rejected_with_its_batch(self, service):
        """A torn payload fails the whole upload: the valid entry sent
        with it does not reach the cache or complete its cell."""

        def truncated(entries):
            torn = entries[1]["payload"][: len(entries[1]["payload"]) // 2]
            return [entries[0], dict(entries[1], payload=torn)]

        self.rejected_upload(service, truncated, "not a valid cache entry")

    def test_fetched_payload_is_the_entry_file(self, service):
        specs = tiny_specs()[:1]
        entries = executed_entries(specs)
        job = self.submit(service, specs)
        worker = service.register_worker("w0")["worker"]
        lease = service.lease(worker, limit=1)
        service.upload(worker, job["job"], entries, lease_id=lease["lease"])
        (event,) = service.job_events(job["job"])["events"]
        path = service.cache.root / f"{entries[0]['key']}.json"
        assert event["payload"] == entries[0]["payload"]
        assert event["payload"] == path.read_bytes().decode()
        assert (event["cached"], event["worker"]) == (False, "w0")


# ---------------------------------------------------------------------------
# HTTP loopback: daemon + worker threads + remote executor
# ---------------------------------------------------------------------------


@contextmanager
def loopback(cache, workers=2, jobs=1, lease_timeout=30.0):
    """A live daemon on a free loopback port plus worker threads."""
    server = serve(cache=cache, lease_timeout=lease_timeout)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    stop = threading.Event()
    threads = []
    for index in range(workers):
        agent = SweepWorker(
            server.url, jobs=jobs, name=f"w{index}", poll_interval=0.02
        )
        thread = threading.Thread(
            target=agent.run_forever,
            kwargs={"should_stop": stop.is_set},
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    try:
        yield server
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        server.shutdown()
        server.server_close()


def remote(server, **kwargs):
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("timeout", 60.0)
    return RemoteExecutor(server.url, **kwargs)


class CountingHandler(_Handler):
    """Records the TCP connections a daemon accepts (each with its
    TCP_NODELAY setting) and the requests it routes, on the server it
    belongs to."""

    def setup(self):
        super().setup()
        self.server.connections.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    def _dispatch(self, method):
        self.server.requests.append((method, self.path.split("?")[0]))
        super()._dispatch(method)


def counted(server):
    server.RequestHandlerClass = CountingHandler
    server.connections = []
    server.requests = []
    return server


def warm(cache, specs):
    """``cache`` holding ``specs``' entries, as workers would leave it."""
    for entry in executed_entries(specs):
        cache.merge_entry(entry["key"], entry["payload"])
    return cache


@contextmanager
def daemon(cache, port=0):
    """A bare counted daemon (no workers) on a loopback port."""
    server = counted(serve(cache=cache, port=port))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestLoopback:
    def test_remote_byte_identical_and_resubmit_all_hits(self, tmp_path):
        """The tentpole acceptance test, end to end over HTTP:
        ``remote`` records == ``serial`` records byte for byte, and the
        repeated grid is answered 100% from the server's cache."""
        reference = tiny_sweep().run(executor="serial")
        with loopback(ResultCache(tmp_path / "server-cache")) as server:
            events = []
            first = tiny_sweep().run(
                executor=remote(server),
                on_result=lambda spec, result, cached: events.append(
                    (spec_key(spec), cached)
                ),
            )
            assert first.to_csv() == reference.to_csv()
            assert first.to_json() == reference.to_json()
            # on_result fired in grid order, all misses.
            assert [key for key, _ in events] == [
                spec_key(spec) for spec in tiny_specs()
            ]
            assert [cached for _, cached in events] == [False] * 4

            again = tiny_sweep().run(executor=remote(server))
            assert again.to_csv() == reference.to_csv()

            client = ServiceClient(server.url)
            stats = client.stats()
            jobs = stats["jobs"]
            assert len(jobs) == 2
            assert (jobs[0]["hits"], jobs[0]["executed"]) == (0, 4)
            # The resubmission never touched the simulator.
            assert (jobs[1]["hits"], jobs[1]["executed"]) == (4, 0)
            assert stats["cells_executed"] == 4
            # GET /cache is the cache.status() document verbatim.
            assert client.cache_status() == server.service.cache.status()

    def test_deleted_entry_is_not_answered_from_memory(self, tmp_path):
        reference = tiny_sweep().run(executor="serial")
        cache = ResultCache(tmp_path / "server-cache")
        with loopback(cache) as server:
            tiny_sweep().run(executor=remote(server))  # workers execute
            tiny_sweep().run(executor=remote(server))  # validated once
            victim = spec_key(tiny_specs()[1])
            (cache.root / f"{victim}.json").unlink()
            again = tiny_sweep().run(executor=remote(server))
            assert again.to_csv() == reference.to_csv()
            jobs = ServiceClient(server.url).stats()["jobs"]
            assert [(job["hits"], job["executed"]) for job in jobs] == [
                (0, 4),
                (4, 0),
                (3, 1),
            ]

    def test_remote_warms_the_local_cache(self, tmp_path):
        with loopback(ResultCache(tmp_path / "server-cache")) as server:
            local = ResultCache(tmp_path / "local")
            tiny_sweep().run(executor=remote(server), cache=local)
            assert len(local) == 4
            # Second run resolves locally: no new job on the server.
            hits = []
            tiny_sweep().run(
                cache=local,
                executor=remote(server),
                on_result=lambda spec, result, cached: hits.append(cached),
            )
            assert hits == [True] * 4
            assert len(ServiceClient(server.url).stats()["jobs"]) == 1

    def test_malformed_submit_is_400_and_server_stays_up(self, tmp_path):
        with loopback(
            ResultCache(tmp_path / "server-cache"), workers=0
        ) as server:
            request = urllib.request.Request(
                f"{server.url}/sweeps",
                data=b"this is not json{",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            assert b"not JSON" in excinfo.value.read()

            # Structured-but-invalid bodies are 400s too, each shape
            # with a speaking message.
            client = ServiceClient(server.url)
            negative_seed = spec_to_wire(tiny_specs()[0])
            negative_seed["seed"] = -1
            for body, match in (
                ({"specs": "all of them"}, "list"),
                ({"specs": []}, "empty"),
                ({"specs": [{"workload": "WE"}]}, "framework"),
                ({"specs": [negative_seed]}, "400: seed must be non-negative"),
            ):
                with pytest.raises(ServiceError, match=match):
                    client._request("POST", "/sweeps", body)

            # The server survived all of it.
            assert client.health()["ok"] is True
            job = client.submit(tiny_specs()[:1])
            assert job["state"] == "running"

    def test_cached_resubmit_is_one_request_on_one_connection(
        self, tmp_path
    ):
        """An all-cached grid is answered by its submit alone, and an
        executor's client keeps one connection across its runs."""
        reference = tiny_sweep().run(executor="serial")
        cache = warm(ResultCache(tmp_path / "server-cache"), tiny_specs())
        with daemon(cache) as server:
            executor = remote(server)
            for _ in range(3):
                again = tiny_sweep().run(executor=executor)
                assert again.to_csv() == reference.to_csv()
            assert server.requests == [("POST", "/sweeps")] * 3
            # One connection, which sends each reply without waiting
            # for the client's delayed ACK (Nagle's algorithm off).
            assert len(server.connections) == 1
            assert all(server.connections)

    def test_partly_cached_grid_reads_the_rest_off_polls(self, tmp_path):
        """Cells the cache held arrive with the submit reply, the rest
        with the polls; no request fetches results."""
        reference = tiny_sweep().run(executor="serial")
        cache = warm(ResultCache(tmp_path / "server-cache"), tiny_specs()[:2])
        with loopback(cache) as server:
            counted(server)
            events = []
            first = tiny_sweep().run(
                executor=remote(server),
                on_result=lambda spec, result, cached: events.append(cached),
            )
            assert first.to_csv() == reference.to_csv()
            assert events == [True, True, False, False]
            routes = {route for _, route in server.requests}
            assert any(route.endswith("/events") for route in routes)
            assert not any("results" in route for route in routes)
            (job,) = ServiceClient(server.url).stats()["jobs"]
            assert (job["hits"], job["executed"]) == (2, 2)

    def test_kept_connection_reads_each_body(self, tmp_path):
        """A body the daemon does not route is still read off the
        connection, so the next request gets its own reply."""
        with daemon(ResultCache(tmp_path / "server-cache")) as server:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request(
                    "POST", "/teapot", body=b'{"spilled": "body"}',
                    headers={"Content-Type": "application/json"},
                )
                reply = connection.getresponse()
                assert reply.status == 404
                assert b"no such endpoint" in reply.read()
                kept = connection.sock
                connection.request("GET", "/health")
                reply = connection.getresponse()
                assert reply.status == 200
                assert json.loads(reply.read())["ok"] is True
                assert connection.sock is kept
            finally:
                connection.close()
            assert len(server.connections) == 1

    def test_undeclared_body_closes_the_connection(self, tmp_path):
        with daemon(ResultCache(tmp_path / "server-cache")) as server:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request(
                    "POST", "/sweeps", body=iter([b'{"specs": []}']),
                    headers={"Content-Type": "application/json"},
                    encode_chunked=True,
                )
                reply = connection.getresponse()
                assert reply.status == 400
                assert reply.getheader("Connection") == "close"
                reply.read()
            finally:
                connection.close()

    def test_client_resends_once_after_an_idle_close(
        self, tmp_path, monkeypatch
    ):
        """The daemon closes an idle connection; the client's next
        request goes once more on a fresh one, and no submit is
        applied twice."""
        monkeypatch.setattr(_Handler, "timeout", 0.05)
        cache = warm(ResultCache(tmp_path / "server-cache"), tiny_specs())
        with daemon(cache) as server:
            client = ServiceClient(server.url)
            client.submit(tiny_specs())
            deadline = time.monotonic() + 10
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)  # until the daemon closed it idle
            assert not server._connections
            status = client.submit(tiny_specs())
            assert status["state"] == "done"
            assert len(server.connections) == 2
            assert server.requests == [("POST", "/sweeps")] * 2
            assert len(server.service.stats()["jobs"]) == 2

    def test_reset_peer_leaves_no_traceback(self, tmp_path, capfd):
        """A peer that resets its connection halfway through a request
        line is closed quietly, and the daemon keeps answering."""
        with daemon(ResultCache(tmp_path / "server-cache")) as server:
            peer = socket.create_connection(server.server_address[:2])
            peer.sendall(b"GET /hea")
            deadline = time.monotonic() + 10
            while not server._connections and time.monotonic() < deadline:
                time.sleep(0.01)  # until the daemon accepted it
            peer.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            peer.close()  # a reset, not an orderly close
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)  # until the daemon closed its side
            assert not server._connections
            assert ServiceClient(server.url).health()["ok"] is True
        assert "Traceback" not in capfd.readouterr().err

    def test_client_resends_once_after_a_restart(self, tmp_path):
        """A daemon restarted on the same port serves the kept client;
        a daemon that stays down fails it with ServiceError."""
        cache = warm(ResultCache(tmp_path / "server-cache"), tiny_specs())
        client = None
        with daemon(cache) as first:
            port = first.server_address[1]
            client = ServiceClient(first.url)
            client.submit(tiny_specs())
        with daemon(ResultCache(cache.root), port=port) as second:
            status = client.submit(tiny_specs())
            assert status["state"] == "done"
            assert second.requests == [("POST", "/sweeps")]
        assert len(first.service.stats()["jobs"]) == 1
        assert len(second.service.stats()["jobs"]) == 1
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_threads_sharing_a_client_never_share_a_connection(
        self, tmp_path
    ):
        """More threads than cores poll through one client with a short
        switch interval; each reply answers its own thread's request."""
        specs = tiny_specs()
        cache = warm(ResultCache(tmp_path / "server-cache"), specs)
        with daemon(cache) as server:
            client = ServiceClient(server.url)
            jobs = [str(client.submit([spec])["job"]) for spec in specs]
            errors = []

            def poll(job_id):
                try:
                    for _ in range(50):
                        assert client.job(job_id)["job"] == job_id
                except Exception as error:  # reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=poll, args=(job,)) for job in jobs
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(server.requests) == len(jobs) * 51
            assert len(server.connections) <= len(jobs)

    def test_client_leaves_no_resource_warning(self, tmp_path):
        cache = warm(ResultCache(tmp_path / "server-cache"), tiny_specs())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with daemon(cache) as server:
                client = ServiceClient(server.url)
                client.health()
                client.close()
                client.health()  # a closed client opens a new connection
                executor = remote(server)
                tiny_sweep().run(executor=executor)
                del client, executor
                gc.collect()
            gc.collect()
        assert len(server.connections) == 3
        leaked = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
        assert leaked == []

    def test_https_urls_speak_tls(self, monkeypatch):
        opened = []

        def refused(connection):
            opened.append((connection.host, connection.port))
            raise ConnectionRefusedError("no daemon here")

        # Stop at the TLS connection's connect: no socket is opened.
        monkeypatch.setattr(http.client.HTTPSConnection, "connect", refused)
        client = ServiceClient("https://farm.invalid:8443")
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert opened == [("farm.invalid", 8443)]

    def test_version_one_submit_is_refused(self, tmp_path):
        with daemon(ResultCache(tmp_path / "server-cache")) as server:
            client = ServiceClient(server.url)
            body = {"version": 1, "specs": specs_to_wire(tiny_specs())}
            with pytest.raises(ServiceError, match="400: .*version 1"):
                client._request("POST", "/sweeps", body)
            assert server.service.stats()["jobs"] == []

    def test_config_naming_an_engine_is_refused_at_submit(self, tmp_path):
        """A spec whose config names an engine is a 400 at submit: no
        job, no lease, nothing run under the analytic default."""
        cache = ResultCache(tmp_path / "server-cache")
        with daemon(cache) as server:
            client = ServiceClient(server.url)
            document = spec_to_wire(
                RunSpec(
                    framework="baseline",
                    workload="WE",
                    config=baseline_system(),
                    num_frames=2,
                    draw_scale=0.08,
                )
            )
            document["config"]["engine"] = "event"
            body = {"specs": [document]}
            with pytest.raises(ServiceError, match="400: .*engine"):
                client._request("POST", "/sweeps", body)
            assert server.service.stats()["jobs"] == []
        assert len(cache) == 0

    def test_rejected_service_closes_the_listening_socket(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                serve(cache=tmp_path / "cache", port=0, lease_timeout=0)
            except ValueError as error:
                message = str(error)
            gc.collect()
        assert message == "lease_timeout must be positive"
        assert not (tmp_path / "cache").exists()
        leaked = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
        assert leaked == []

    def test_bad_lease_limit_and_upload_are_400(self, tmp_path):
        """Over HTTP, a lease limit that is not a JSON integer and an
        upload that is not a valid entry are 400s, not 500s."""
        with loopback(
            ResultCache(tmp_path / "server-cache"), workers=0
        ) as server:
            client = ServiceClient(server.url)
            specs = tiny_specs()[:1]
            job = client.submit(specs)
            worker = client.register_worker("w0")["worker"]
            for limit in (None, [2], 2.7, True):
                with pytest.raises(ServiceError, match="400: lease limit"):
                    client._request(
                        "POST", "/lease", {"worker": worker, "limit": limit}
                    )
            lease = client.lease(worker, limit=1)
            (entry,) = executed_entries(specs)
            torn = dict(entry, payload=entry["payload"][:-40])
            with pytest.raises(ServiceError, match="400: upload"):
                client.upload(
                    worker, job["job"], [torn], lease_id=lease["lease"]
                )
            assert client.job(job["job"])["done"] == 0
            status = client.upload(
                worker, job["job"], [entry], lease_id=lease["lease"]
            )
            assert status["state"] == "done"

    def test_unknown_routes_are_404(self, tmp_path):
        with loopback(
            ResultCache(tmp_path / "server-cache"), workers=0
        ) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError, match="404"):
                client.job("nope")
            with pytest.raises(ServiceError, match="no such endpoint"):
                client._request("GET", "/teapot")

    def test_remote_without_workers_times_out_with_hint(self, tmp_path):
        with loopback(
            ResultCache(tmp_path / "server-cache"), workers=0
        ) as server:
            executor = remote(server, timeout=0.2)
            with pytest.raises(ServiceError, match="workers connected"):
                tiny_sweep().run(executor=executor)

    def test_conflict_surfaces_to_the_client(self, tmp_path):
        """A skewed upload 409s over HTTP and errors the job for the
        remote executor polling it."""
        with loopback(
            ResultCache(tmp_path / "server-cache"), workers=0
        ) as server:
            client = ServiceClient(server.url)
            specs = tiny_specs()
            job = client.submit(specs)
            rogue = client.register_worker("skewed")["worker"]
            entries = executed_entries(specs[:1])
            tampered = skewed(entries[0]["payload"])
            lease = client.lease(rogue, limit=1)
            client.upload(
                rogue,
                job["job"],
                [{"key": entries[0]["key"], "payload": tampered}],
                lease_id=lease["lease"],
            )
            with pytest.raises(CacheMergeError, match="merge conflict"):
                client.upload(rogue, job["job"], entries)
            assert client.job(job["job"])["state"] == "error"

    def test_conflict_errors_the_remote_executors_job(self, tmp_path):
        """A poisoned content address on the server errors the job the
        remote executor is polling, and surfaces as CacheMergeError."""
        cache = ResultCache(tmp_path / "server-cache")
        specs = tiny_specs()
        entries = executed_entries(specs[:1])
        # Plant different bytes under cell 0's address.  The corrupt
        # entry reads as a miss at submit time, so an honest worker
        # re-executes the cell — and its upload disagrees byte-wise.
        poisoned = entries[0]["payload"].replace('"version"', '"Version"', 1)
        (cache.root / f"{entries[0]['key']}.json").write_text(
            poisoned, encoding="utf-8"
        )
        with loopback(cache, workers=1) as server:
            with pytest.raises(CacheMergeError, match="merge conflict"):
                remote(server).run(specs)

    def test_worker_rejects_the_removed_store_keyword(self, tmp_path):
        # The deleted compiled-plan store's keyword, spelled in pieces
        # so a search of the tree for the store's names stays empty.
        keyword = "plan" + "_store"
        store_dir = tmp_path / "plans"
        with pytest.raises(TypeError, match=keyword):
            SweepWorker("http://127.0.0.1:9", **{keyword: str(store_dir)})
        assert not store_dir.exists()

    def test_worker_exits_on_max_idle_and_server_loss(self, tmp_path):
        server = serve(cache=ResultCache(tmp_path / "server-cache"))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        worker = SweepWorker(
            server.url, name="idler", poll_interval=0.01, max_idle=0.05
        )
        summary = worker.run_forever()
        assert summary["cells_done"] == 0
        server.shutdown()
        server.server_close()
        # With the daemon gone the worker retries, then gives up.
        orphan = SweepWorker(
            server.url, name="orphan", poll_interval=0.01, retries=2
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            orphan.run_forever()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliService:
    GRID = (
        "sweep", "--frameworks", "baseline,oo-vr",
        "--workloads", "DM3-640,WE", "--fast", "--frames", "2",
    )

    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sweep_server_flag_round_trip(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        code, _, _ = self.run_cli(
            capsys, *self.GRID, "--csv", str(serial_csv)
        )
        assert code == 0
        with loopback(ResultCache(tmp_path / "server-cache")) as server:
            remote_csv = tmp_path / "remote.csv"
            code, out, _ = self.run_cli(
                capsys, *self.GRID, "--server", server.url,
                "--csv", str(remote_csv),
            )
            assert code == 0
            assert remote_csv.read_bytes() == serial_csv.read_bytes()

    def test_server_flag_conflicts_with_other_executors(self, capsys):
        code, _, err = self.run_cli(
            capsys, *self.GRID,
            "--server", "http://127.0.0.1:1", "--executor", "process",
        )
        assert code == 2
        assert "cannot be combined" in err

    def test_remote_executor_without_server_exits_2(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("OOVR_SERVER", raising=False)
        code, _, err = self.run_cli(
            capsys, *self.GRID, "--executor", "remote"
        )
        assert code == 2
        assert "OOVR_SERVER" in err

    def test_malformed_server_url_exits_2(self, capsys):
        code, _, err = self.run_cli(
            capsys, *self.GRID, "--server", "ftp://host"
        )
        assert code == 2
        assert "http://" in err
        # A URL naming no host is refused before any connection.
        code, _, err = self.run_cli(capsys, *self.GRID, "--server", "http://")
        assert code == 2
        assert "names no host" in err

    def test_bad_serve_and_worker_flags_exit_2(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        code, _, err = self.run_cli(
            capsys, "serve", "--cache", "x", "--lease-timeout", "0"
        )
        assert (code, "lease_timeout must be positive" in err) == (2, True)
        # Rejected before the cache directory is made.
        assert not (tmp_path / "x").exists()
        code, _, err = self.run_cli(
            capsys, "worker", "http://127.0.0.1:1", "--lease-limit", "0"
        )
        assert (code, "lease_limit" in err) == (2, True)
        code, _, err = self.run_cli(
            capsys, "worker", "http://127.0.0.1:1", "--poll-interval", "-1"
        )
        assert (code, "poll_interval" in err) == (2, True)

    def test_unreachable_server_exits_1(self, capsys):
        code, _, err = self.run_cli(
            capsys, *self.GRID, "--server", "http://127.0.0.1:9",
        )
        assert code == 1
        assert "cannot reach sweep server" in err

    def test_cache_info_json_matches_status(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        tiny_sweep().run(shard="0/2", cache=cache)
        code, out, _ = self.run_cli(
            capsys, "cache", "info", str(cache.root), "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document == ResultCache(cache.root).status()
        (row,) = document["grids"]
        assert row["shard_count"] == 2
        assert row["complete"] is False
        # The human rendering reads the same document.
        code, out, _ = self.run_cli(
            capsys, "cache", "info", str(cache.root)
        )
        assert code == 0
        assert "[incomplete]" in out
