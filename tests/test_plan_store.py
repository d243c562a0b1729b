"""The persistent compiled work-plan store (repro.plan.store).

Pins the store's three contracts.  First, round-trips are exact: a
``"frame"`` hit's :class:`FrameCounters` columns and a ``"group"``
hit's ``(Batch, merged WorkUnit)`` pairs compare ``==`` field-for-field
against the in-process oracle (``frame_counters`` /
``_BatchBuilder._build``), so results with the store on are
byte-identical to the store off.  Second, the on-disk format is
byte-deterministic and failure-safe: concurrent writers racing on one
key write identical bytes, and corrupt, truncated or stale entries
degrade to a rebuild-and-rewrite, never to wrong numbers.  Third, the
store is byte-transparent end to end — session results, sweep CSVs and
the reuse memo's identity anchoring are unchanged, with only the
``profile_plan_*`` counters showing the work it removed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading

import numpy as np
import pytest

from repro import cli
from repro.config import SystemConfig
from repro.frameworks.base import build_framework
from repro.pipeline.batch import frame_counters, work_units_from_counters
from repro.pipeline.smp import SMPMode
from repro.plan import store as plan_store
from repro.plan.store import (
    _COUNTER_COLUMNS,
    PLAN_VERSION,
    PlanStore,
    active_plan_store,
    cost_fingerprint,
    frame_plan_key,
    group_plan_key,
    plan_content_key,
    plan_store_scope,
    set_plan_store,
)
from repro.reuse import get_cache
from repro.scene.synthetic import GENERATOR_VERSION
from repro.session.session import Session, Sweep
from repro.session.spec import cached_scene


@pytest.fixture(autouse=True)
def _fresh_plan_state():
    """Isolate every test from the process-wide memo, scene cache and
    ambient plan store (the memo otherwise absorbs repeat runs before
    the store is ever consulted)."""
    cached_scene.cache_clear()
    get_cache().clear()
    set_plan_store(None)
    yield
    cached_scene.cache_clear()
    get_cache().clear()
    set_plan_store(None)


def stamped_frame(workload: str = "DM3-640"):
    """A frame that came through cached_scene, so it carries the
    scene-content stamp the store keys on."""
    return cached_scene(workload, 2, 2019, 0.15).frames[0]


def oracle_ingredients(workload: str = "DM3-640"):
    frame = stamped_frame(workload)
    cost = SystemConfig().cost
    return frame, cost, plan_content_key(frame), cost_fingerprint(cost)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def content_key(workload="DM3-640", num_frames=2, seed=2019, scale=0.15):
    """The plan content key cached_scene stamps on a point's frame 0."""
    scene = cached_scene(workload, num_frames, seed, scale)
    return plan_content_key(scene.frames[0])


class TestPlanKeys:
    def test_content_key_is_stamped_by_cached_scene(self):
        # SHA-256 over the generator version and the workload point,
        # plus the frame id — nothing else joins the address.
        point = {
            "generator_version": GENERATOR_VERSION,
            "workload": "DM3-640",
            "num_frames": 2,
            "seed": 2019,
            "draw_scale": 0.15,
        }
        canonical = json.dumps(point, sort_keys=True, separators=(",", ":"))
        base = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        scene = cached_scene("DM3-640", 2, 2019, 0.15)
        for frame in scene.frames:
            assert plan_content_key(frame) == f"{base}:{frame.frame_id}"

    @pytest.mark.parametrize(
        "point",
        [
            ("WE", 2, 2019, 0.15),
            ("DM3-640", 3, 2019, 0.15),
            ("DM3-640", 2, 7, 0.15),
            ("DM3-640", 2, 2019, 0.1),
        ],
        ids=["workload", "frames", "seed", "scale"],
    )
    def test_content_key_tracks_the_workload_point(self, point):
        assert content_key(*point) != content_key()

    def test_generator_version_re_keys_every_plan(self, monkeypatch):
        before = content_key()
        cached_scene.cache_clear()
        monkeypatch.setattr(
            plan_store, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        # Bumping the version orphans (never corrupts) every entry
        # built from the old scenes.
        assert content_key() != before
        assert GENERATOR_VERSION == 1

    def test_unstamped_frame_makes_store_inert(self, tmp_path):
        frame = stamped_frame()
        bare = dataclasses.replace(frame)  # fresh instance, no stamp
        assert plan_content_key(bare) is None
        # The hook sites bypass the store for such frames: rendering a
        # hand-built frame writes nothing.
        store = PlanStore(tmp_path)
        with plan_store_scope(store):
            build_framework("oo-vr")._builder.build(bare)
        assert store.entry_paths() == []
        assert store.stats.as_dict() == {
            "hits": 0, "misses": 0, "stores": 0, "corrupt": 0,
        }

    def test_cost_fingerprint_tracks_pricing_fields_only(self):
        cost = SystemConfig().cost
        assert cost_fingerprint(cost) == cost_fingerprint(cost)
        bumped = dataclasses.replace(
            cost, bytes_per_vertex=cost.bytes_per_vertex + 1.0
        )
        assert cost_fingerprint(bumped) != cost_fingerprint(cost)

    def test_keys_are_stable_and_knob_sensitive(self):
        key = frame_plan_key("scene:0", "fp", SMPMode.SIMULTANEOUS, "multiview")
        assert len(key) == 64
        assert key == frame_plan_key(
            "scene:0", "fp", SMPMode.SIMULTANEOUS, "multiview"
        )
        assert key != frame_plan_key(
            "scene:0", "fp", SMPMode.SEQUENTIAL, "multiview"
        )
        assert key != frame_plan_key(
            "scene:0", "fp", SMPMode.SIMULTANEOUS, "stereo"
        )
        assert key != frame_plan_key(
            "scene:1", "fp", SMPMode.SIMULTANEOUS, "multiview"
        )
        assert key != frame_plan_key(
            "scene:0", "fp2", SMPMode.SIMULTANEOUS, "multiview"
        )
        group = group_plan_key("scene:0", "fp", 4096, 0.5)
        assert group != key
        assert group != group_plan_key("scene:0", "fp", 2048, 0.5)
        assert group != group_plan_key("scene:0", "fp", 4096, 0.25)
        # The output version is part of the address, so bumping it
        # orphans (never corrupts) every existing entry.
        assert PLAN_VERSION == 1


# ---------------------------------------------------------------------------
# Round trips against the in-process oracle
# ---------------------------------------------------------------------------


class TestFrameRoundTrip:
    @pytest.mark.parametrize(
        "mode, expansion",
        [
            (SMPMode.SIMULTANEOUS, "multiview"),
            (SMPMode.SEQUENTIAL, "stereo"),
        ],
    )
    def test_counters_round_trip_exact(self, tmp_path, mode, expansion):
        frame, cost, content, fp = oracle_ingredients()
        built = frame_counters(
            frame.object_batch, cost, mode=mode, expansion=expansion
        )
        store = PlanStore(tmp_path)
        store.put_frame(content, fp, mode, expansion, built)
        assert store.stats.stores == 1
        loaded = store.get_frame(content, fp, mode, expansion)
        assert loaded is not None
        assert store.stats.hits == 1
        assert loaded.mode is mode and loaded.expansion == expansion
        for name in _COUNTER_COLUMNS:
            want = getattr(built, name)
            got = getattr(loaded, name)
            assert np.array_equal(want, got), name
            assert np.asarray(want).dtype == np.asarray(got).dtype, name
        # The materialised units walk the same code path, so they are
        # field-for-field identical (touches and viewports included).
        assert work_units_from_counters(
            frame.object_batch, loaded, cost
        ) == work_units_from_counters(frame.object_batch, built, cost)

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        frame, cost, content, fp = oracle_ingredients()
        store = PlanStore(tmp_path)
        assert (
            store.get_frame(content, fp, SMPMode.SEQUENTIAL, "stereo") is None
        )
        assert store.stats.misses == 1 and store.stats.corrupt == 0


class TestGroupRoundTrip:
    def test_pairs_round_trip_exact(self, tmp_path):
        frame, cost, content, fp = oracle_ingredients()
        framework = build_framework("oo-vr")
        builder = framework._builder
        middleware = builder._middleware
        oracle = tuple(builder._build(frame))
        store = PlanStore(tmp_path)
        store.put_group(
            content, fp, middleware.triangle_limit,
            middleware.tsl_threshold, frame, oracle,
        )
        loaded = store.get_group(
            content, fp, middleware.triangle_limit,
            middleware.tsl_threshold, frame,
        )
        assert loaded is not None
        assert store.stats.hits == 1
        assert loaded == oracle  # frozen dataclasses: field-for-field
        # Batches carry the live frame's very object instances, so the
        # identity-anchored reuse machinery downstream keeps working.
        for (got_batch, _), (want_batch, _) in zip(loaded, oracle):
            for got_obj, want_obj in zip(
                got_batch.objects, want_batch.objects
            ):
                assert got_obj is want_obj

    def test_group_hit_skips_characterisation(self, tmp_path):
        """A warm group entry answers without ever pricing the frame."""
        frame, cost, content, fp = oracle_ingredients()
        framework = build_framework("oo-vr")
        framework.warm_plan(frame)  # memo only: no store yet
        store = PlanStore(tmp_path)
        with plan_store_scope(store):
            get_cache().clear()
            build_framework("oo-vr")._builder.build(frame)  # cold: writes
            written = store.stats.stores
            assert written >= 2  # the group and its nested frame entry
            get_cache().clear()
            fresh = build_framework("oo-vr")
            fresh.characterizer.characterize_frame = None  # would raise
            pairs = fresh._builder.build(frame)
        assert store.stats.hits == 1  # one group hit, no frame consult
        assert tuple(pairs) == tuple(
            build_framework("oo-vr")._builder._build(frame)
        )


# ---------------------------------------------------------------------------
# On-disk format: determinism and failure safety
# ---------------------------------------------------------------------------


class TestPlanStoreFormat:
    def test_store_is_byte_deterministic(self, tmp_path):
        frame, cost, content, fp = oracle_ingredients()
        builder = build_framework("oo-vr")._builder
        pairs = tuple(builder._build(frame))
        counters = frame_counters(
            frame.object_batch, cost,
            mode=SMPMode.SEQUENTIAL, expansion="stereo",
        )
        a = PlanStore(tmp_path / "a")
        b = PlanStore(tmp_path / "b")
        for store in (a, b):
            store.put_frame(content, fp, SMPMode.SEQUENTIAL, "stereo", counters)
            store.put_group(content, fp, 4096, 0.5, frame, pairs)
        for path_a, path_b in zip(a.entry_paths(), b.entry_paths()):
            assert path_a.name == path_b.name
            assert path_a.read_bytes() == path_b.read_bytes()
        # Re-persisting a *loaded* plan reproduces the bytes, so a warm
        # host re-storing never flips a shared directory.
        loaded = b.get_group(content, fp, 4096, 0.5, frame)
        b.put_group(content, fp, 4096, 0.5, frame, loaded)
        for path_a, path_b in zip(a.entry_paths(), b.entry_paths()):
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_corrupt_entry_degrades_to_rebuild_and_rewrite(self, tmp_path):
        frame, cost, content, fp = oracle_ingredients()
        counters = frame_counters(
            frame.object_batch, cost,
            mode=SMPMode.SEQUENTIAL, expansion="stereo",
        )
        store = PlanStore(tmp_path)
        store.put_frame(content, fp, SMPMode.SEQUENTIAL, "stereo", counters)
        (entry,) = store.entry_paths()
        good = entry.read_bytes()
        entry.write_bytes(good[: len(good) // 2])
        assert store.get_frame(content, fp, SMPMode.SEQUENTIAL, "stereo") is None
        assert store.stats.corrupt == 1
        # The hook site's rebuild-and-rewrite restores the exact bytes.
        store.put_frame(content, fp, SMPMode.SEQUENTIAL, "stereo", counters)
        assert entry.read_bytes() == good

    def test_stale_entry_under_wrong_key_is_rejected(self, tmp_path):
        """An entry whose content belongs to another key (a file copied
        into the wrong address) is rejected, not trusted."""
        frame, cost, content, fp = oracle_ingredients()
        counters = frame_counters(
            frame.object_batch, cost,
            mode=SMPMode.SEQUENTIAL, expansion="stereo",
        )
        store = PlanStore(tmp_path)
        store.put_frame(content, fp, SMPMode.SEQUENTIAL, "stereo", counters)
        (entry,) = store.entry_paths()
        other = store.path_for(
            frame_plan_key(content, fp, SMPMode.SIMULTANEOUS, "multiview")
        )
        other.write_bytes(entry.read_bytes())
        assert (
            store.get_frame(content, fp, SMPMode.SIMULTANEOUS, "multiview")
            is None
        )
        assert store.stats.corrupt == 1

    def test_kind_mismatch_is_rejected(self, tmp_path):
        """A group entry's bytes under a frame key read as corrupt."""
        frame, cost, content, fp = oracle_ingredients()
        pairs = tuple(build_framework("oo-vr")._builder._build(frame))
        store = PlanStore(tmp_path)
        group_path = store.put_group(content, fp, 4096, 0.5, frame, pairs)
        frame_key = frame_plan_key(
            content, fp, SMPMode.SEQUENTIAL, "stereo"
        )
        store.path_for(frame_key).write_bytes(group_path.read_bytes())
        assert (
            store.get_frame(content, fp, SMPMode.SEQUENTIAL, "stereo") is None
        )
        assert store.stats.corrupt == 1

    def test_concurrent_writers_are_crash_safe(self, tmp_path):
        frame, cost, content, fp = oracle_ingredients()
        pairs = tuple(build_framework("oo-vr")._builder._build(frame))
        reference = PlanStore(tmp_path / "ref")
        reference.put_group(content, fp, 4096, 0.5, frame, pairs)
        (ref_entry,) = reference.entry_paths()

        store = PlanStore(tmp_path / "shared")
        barrier = threading.Barrier(4)
        errors = []

        def writer():
            try:
                barrier.wait()
                store.put_group(content, fp, 4096, 0.5, frame, pairs)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # No torn entries, no stray temp files, and the racing writers
        # all produced the byte-identical entry.
        key = group_plan_key(content, fp, 4096, 0.5)
        assert [p.name for p in store.entry_paths()] == [f"{key}.plan"]
        assert not list(store.root.glob("*.tmp"))
        (entry,) = store.entry_paths()
        assert entry.read_bytes() == ref_entry.read_bytes()
        assert store.get_group(content, fp, 4096, 0.5, frame) == pairs

    def test_info_and_clear(self, tmp_path):
        frame, cost, content, fp = oracle_ingredients()
        counters = frame_counters(
            frame.object_batch, cost,
            mode=SMPMode.SEQUENTIAL, expansion="stereo",
        )
        pairs = tuple(build_framework("oo-vr")._builder._build(frame))
        store = PlanStore(tmp_path)
        store.put_frame(content, fp, SMPMode.SEQUENTIAL, "stereo", counters)
        store.put_group(content, fp, 4096, 0.5, frame, pairs)
        info = store.info()
        assert info["entries"] == 2
        assert info["corrupt"] == 0
        kinds = sorted(plan["kind"] for plan in info["plans"])
        assert kinds == ["frame", "group"]
        for plan in info["plans"]:
            assert plan["scene"] == content
            assert plan["cost"] == fp
            assert plan["plan_version"] == PLAN_VERSION
        assert store.clear() == 2
        assert store.info()["entries"] == 0


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------


class TestStoreScoping:
    def test_scope_activates_and_restores(self, tmp_path):
        assert active_plan_store() is None
        with plan_store_scope(tmp_path) as store:
            assert isinstance(store, PlanStore)
            assert active_plan_store() is store
        assert active_plan_store() is None

    def test_none_scope_preserves_ambient_store(self, tmp_path):
        ambient = set_plan_store(tmp_path)
        with plan_store_scope(None):
            assert active_plan_store() is ambient

    def test_set_accepts_paths_and_none(self, tmp_path):
        store = set_plan_store(str(tmp_path))
        assert isinstance(store, PlanStore)
        assert set_plan_store(None) is None


# ---------------------------------------------------------------------------
# End-to-end transparency
# ---------------------------------------------------------------------------


def fresh_memo():
    cached_scene.cache_clear()
    get_cache().clear()


class TestStoreResults:
    def test_store_hit_results_byte_identical(self, tmp_path):
        cell = lambda: (
            Session().framework("oo-vr").workload("DM3-640").fast()
        )
        plain = cell().run()
        fresh_memo()
        cold = cell().run(plan_store=tmp_path)
        fresh_memo()
        warm = cell().run(plan_store=tmp_path)
        want = json.dumps(plain.to_dict(), sort_keys=True)
        assert json.dumps(cold.to_dict(), sort_keys=True) == want
        assert json.dumps(warm.to_dict(), sort_keys=True) == want
        assert len(PlanStore(tmp_path).entry_paths()) > 0

    def test_store_hit_populates_the_reuse_memo(self, tmp_path):
        """The hit lands inside the memo's build path, so repeats are
        answered by the memo (identity-anchored), not by re-loading."""
        frame, cost, content, fp = oracle_ingredients()
        store = PlanStore(tmp_path)
        with plan_store_scope(store):
            framework = build_framework("oo-vr")
            framework.warm_plan(frame)  # cold: builds + persists
            get_cache().clear()
            first = framework._builder.build(frame)
            hits_after_first = store.stats.hits
            assert hits_after_first >= 1
            second = framework._builder.build(frame)
        assert store.stats.hits == hits_after_first  # memo answered
        assert first == second
        assert first is not second  # fresh list per call, same contents
        assert all(a is b for a, b in zip(first, second))

    def test_sweep_profile_exports_plan_counters(self, tmp_path):
        grid = lambda: (
            Sweep().frameworks("oo-vr").workloads("DM3-640").fast()
        )
        cold = grid().run(profile=True, plan_store=tmp_path).to_records()[0]
        assert cold["profile_plan_store_miss"] >= 1
        assert cold["profile_plan_build_s"] > 0
        assert "profile_plan_store_hit" not in cold
        fresh_memo()
        warm = grid().run(profile=True, plan_store=tmp_path).to_records()[0]
        assert warm["profile_plan_store_hit"] >= 1
        assert warm["profile_plan_load_s"] > 0
        assert "profile_plan_store_miss" not in warm
        assert "profile_plan_build_s" not in warm

    def test_generator_bump_misses_once_then_hits(self, tmp_path, monkeypatch):
        """Entries keyed under an older GENERATOR_VERSION are orphaned,
        never served: the first pass after a bump misses and rebuilds
        beside them, the next one hits, and the numbers never move."""
        grid = lambda: (
            Sweep().frameworks("oo-vr").workloads("DM3-640").fast()
        )
        point = lambda record: {
            k: v for k, v in record.items() if not k.startswith("profile_")
        }
        cold = grid().run(profile=True, plan_store=tmp_path).to_records()[0]
        old_entries = {p.name for p in PlanStore(tmp_path).entry_paths()}
        assert old_entries
        monkeypatch.setattr(
            plan_store, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        fresh_memo()
        bumped = grid().run(profile=True, plan_store=tmp_path).to_records()[0]
        assert "profile_plan_store_hit" not in bumped
        assert bumped["profile_plan_store_miss"] >= 1
        assert point(bumped) == point(cold)
        entries = {p.name for p in PlanStore(tmp_path).entry_paths()}
        assert old_entries < entries
        assert len(entries) == 2 * len(old_entries)
        fresh_memo()
        warm = grid().run(profile=True, plan_store=tmp_path).to_records()[0]
        assert warm["profile_plan_store_hit"] >= 1
        assert "profile_plan_store_miss" not in warm
        assert point(warm) == point(cold)

    def test_jobs4_sweep_characterizes_each_point_once(self, tmp_path):
        """A --jobs 4 cold sweep leaves every (workload, cost) point
        compiled exactly once fleet-wide: the store holds one entry set
        for the shared cost fingerprint, a follow-up profiled pass is
        all hits, and the CSV never moves."""
        grid = lambda: (
            Sweep()
            .frameworks("oo-vr", "baseline")
            .workloads("DM3-640")
            .fast()
        )
        serial_csv = grid().run().to_csv()
        fresh_memo()
        cold = grid().run(jobs=4, plan_store=tmp_path)
        assert cold.to_csv() == serial_csv
        # 2 frames x (stereo frame + group + nested multiview frame),
        # shared across both frameworks via the cost fingerprint.
        assert len(PlanStore(tmp_path).entry_paths()) == 6
        fresh_memo()
        for record in (
            grid().run(profile=True, plan_store=tmp_path).to_records()
        ):
            assert record["profile_plan_store_hit"] >= 1
            assert "profile_plan_store_miss" not in record


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestPlanCLI:
    def test_plan_warm_info_clear(self, capsys, tmp_path):
        store_dir = str(tmp_path / "plans")
        assert (
            cli.main(
                ["plan", "warm", store_dir, "--fast",
                 "--workloads", "DM3-640",
                 "--frameworks", "oo-vr,baseline"]
            )
            == 0
        )
        assert "compiled" in capsys.readouterr().out
        fresh_memo()
        assert (
            cli.main(
                ["plan", "warm", store_dir, "--fast",
                 "--workloads", "DM3-640",
                 "--frameworks", "oo-vr,baseline"]
            )
            == 0
        )
        assert "already present" in capsys.readouterr().out
        assert cli.main(["plan", "info", store_dir]) == 0
        out = capsys.readouterr().out
        assert "group" in out and "frame" in out
        assert cli.main(["plan", "info", store_dir, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 6
        assert info["corrupt"] == 0
        assert cli.main(["plan", "clear", store_dir]) == 0
        assert "cleared 6" in capsys.readouterr().out

    def test_plan_warm_unknown_names_exit_2(self, capsys, tmp_path):
        store_dir = str(tmp_path / "plans")
        assert (
            cli.main(
                ["plan", "warm", store_dir, "--fast",
                 "--workloads", "DM3-640", "--frameworks", "nope"]
            )
            == 2
        )
        assert "unknown framework" in capsys.readouterr().err
        assert (
            cli.main(
                ["plan", "warm", store_dir, "--fast", "--workloads", "nope"]
            )
            == 2
        )
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--frames", "0"], "need at least one frame"),
            (["--seed", "-1"], "seed must be non-negative"),
            (["--workloads", ","], "names no workloads"),
            (["--frameworks", ","], "names no frameworks"),
            (["--frameworks", "oo-vr,oo-vr"], "listed twice"),
            (["--workloads", "WE,WE"], "listed twice"),
        ],
        ids=[
            "frames", "seed", "workloads", "frameworks",
            "duplicate-frameworks", "duplicate-workloads",
        ],
    )
    def test_plan_warm_rejects_bad_input_exit_2(
        self, capsys, tmp_path, argv, message
    ):
        store_dir = tmp_path / "plans"
        assert cli.main(["plan", "warm", str(store_dir), "--fast"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not store_dir.exists()  # nothing was compiled

    def test_plan_info_missing_directory(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        assert cli.main(["plan", "info", missing]) == 2
        assert "no plan store" in capsys.readouterr().err

    def test_plan_info_env_default(self, capsys, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "env-plans")
        assert (
            cli.main(
                ["plan", "warm", store_dir, "--fast",
                 "--workloads", "DM3-640", "--frameworks", "oo-vr"]
            )
            == 0
        )
        capsys.readouterr()
        monkeypatch.setenv("OOVR_PLAN_STORE", store_dir)
        assert cli.main(["plan", "info"]) == 0
        assert store_dir in capsys.readouterr().out

    def test_plan_info_no_dir_no_env(self, capsys, monkeypatch):
        monkeypatch.delenv("OOVR_PLAN_STORE", raising=False)
        assert cli.main(["plan", "info"]) == 2
        err = capsys.readouterr().err
        assert "no plan store directory given" in err
        assert "OOVR_PLAN_STORE" in err

    def test_run_plan_store_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OOVR_PLAN_STORE", str(tmp_path / "env-plans"))
        assert cli.main(["run", "oo-vr", "DM3-640", "--fast"]) == 0
        capsys.readouterr()
        assert len(PlanStore(tmp_path / "env-plans").entry_paths()) > 0

    def test_sweep_plan_store_csv_identical(self, capsys, tmp_path):
        store_dir = str(tmp_path / "plans")
        common = [
            "sweep", "--frameworks", "baseline,oo-vr",
            "--workloads", "DM3-640", "--fast",
        ]
        plain_csv = str(tmp_path / "plain.csv")
        cold_csv = str(tmp_path / "cold.csv")
        warm_csv = str(tmp_path / "warm.csv")
        assert cli.main(common + ["--csv", plain_csv]) == 0
        fresh_memo()
        assert (
            cli.main(common + ["--plan-store", store_dir, "--csv", cold_csv])
            == 0
        )
        assert "plan store: 0 hits" in capsys.readouterr().out
        fresh_memo()
        assert (
            cli.main(common + ["--plan-store", store_dir, "--csv", warm_csv])
            == 0
        )
        out = capsys.readouterr().out
        assert ", 0 misses" in out and "plan store: 0 hits" not in out
        with open(plain_csv, "rb") as fh:
            want = fh.read()
        with open(cold_csv, "rb") as fh:
            assert fh.read() == want
        with open(warm_csv, "rb") as fh:
            assert fh.read() == want
