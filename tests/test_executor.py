"""The pluggable sweep-executor layer: backends, sharding, merge, CLI.

The equivalence bar is strict: whatever backend runs a grid —
serial, process pool, or a scatter of shard slices merged back
together — the exported records must be byte-identical.
"""

import json
import os
import threading

import pytest

from repro import cli
from repro.session import (
    EXECUTOR_NAMES,
    CacheMergeError,
    ExecutorError,
    ExperimentConfig,
    ProcessExecutor,
    ResultCache,
    ResultSet,
    SerialExecutor,
    SessionError,
    ShardExecutor,
    Sweep,
    load_shard_manifests,
    make_executor,
    parse_shard,
    shard_of,
    spec_key,
    sweep_defaults,
)

#: Two tiny workloads keep these tests quick.
TINY = ExperimentConfig(
    draw_scale=0.08, num_frames=2, workloads=("DM3-640", "WE")
)


def tiny_sweep() -> Sweep:
    return Sweep().preset(TINY).frameworks("baseline", "oo-vr")


class TestShardPartition:
    """The deterministic, content-addressed grid partition."""

    @pytest.mark.parametrize("shard_count", (1, 2, 3, 5))
    def test_every_spec_in_exactly_one_shard(self, shard_count):
        specs = tiny_sweep().specs()
        memberships = [
            [
                index
                for index in range(shard_count)
                if shard_of(spec, shard_count) == index
            ]
            for spec in specs
        ]
        assert all(len(owned) == 1 for owned in memberships)

    def test_single_shard_owns_everything(self):
        specs = tiny_sweep().specs()
        assert all(shard_of(spec, 1) == 0 for spec in specs)

    def test_membership_stable_under_spec_order(self):
        """Shards are keyed by content, not by position in the grid."""
        specs = tiny_sweep().specs()
        by_key = {spec_key(spec): shard_of(spec, 3) for spec in specs}
        for spec in reversed(specs):
            assert shard_of(spec, 3) == by_key[spec_key(spec)]

    def test_shards_cover_the_grid_disjointly(self):
        specs = tiny_sweep().specs()
        seen = []
        for executor in (ShardExecutor(index, 2) for index in range(2)):
            seen.extend(
                spec_key(spec)
                for spec in specs
                if shard_of(spec, 2) == executor.shard_index
            )
        assert sorted(seen) == sorted(spec_key(spec) for spec in specs)

    def test_bad_shard_counts_rejected(self):
        spec = tiny_sweep().specs()[0]
        with pytest.raises(ExecutorError, match="at least 1"):
            shard_of(spec, 0)
        with pytest.raises(ExecutorError, match="at least 1"):
            ShardExecutor(0, 0)


class TestExecutorSelection:
    def test_builtin_names_registered(self):
        assert EXECUTOR_NAMES == ("serial", "process", "shard", "remote")

    def test_inferred_backends(self):
        assert isinstance(make_executor(jobs=1), SerialExecutor)
        assert isinstance(make_executor(jobs=4), ProcessExecutor)
        assert isinstance(make_executor(shard="0/2"), ShardExecutor)

    def test_named_backends(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        process = make_executor("process", jobs=3)
        assert isinstance(process, ProcessExecutor)
        assert process.jobs == 3
        sharded = make_executor("shard", jobs=2, shard="1/2")
        assert isinstance(sharded, ShardExecutor)
        assert (sharded.shard_index, sharded.shard_count) == (1, 2)
        assert isinstance(sharded.inner, ProcessExecutor)

    def test_profiled_sweep_accepts_only_the_serial_name(self):
        profiled = tiny_sweep().run(profile=True, executor="serial")
        assert len(profiled.profiles) == len(tiny_sweep().specs())
        with pytest.raises(SessionError, match="runs serially"):
            tiny_sweep().run(profile=True, executor="profile")

    def test_instance_passes_through(self):
        backend = SerialExecutor()
        assert make_executor(backend) is backend

    def test_unknown_name_rejected(self):
        """A typo'd name is answered with the full registered menu —
        the same grammar the ``--engine`` error uses."""
        expected = (
            "unknown executor 'gpu'; "
            "have ['process', 'remote', 'serial', 'shard']"
        )
        with pytest.raises(ExecutorError) as excinfo:
            make_executor("gpu")
        assert str(excinfo.value) == expected

    def test_remote_name_without_server_rejected(self, monkeypatch):
        """Selecting ``remote`` by name needs $OOVR_SERVER."""
        monkeypatch.delenv("OOVR_SERVER", raising=False)
        with pytest.raises(ExecutorError, match="OOVR_SERVER"):
            make_executor("remote")

    def test_remote_name_resolves_from_env(self, monkeypatch):
        from repro.service import RemoteExecutor

        monkeypatch.setenv("OOVR_SERVER", "http://127.0.0.1:1")
        executor = make_executor("remote")
        assert isinstance(executor, RemoteExecutor)
        assert executor.client.server == "http://127.0.0.1:1"

    def test_remote_name_plus_shard_rejected(self, monkeypatch):
        monkeypatch.setenv("OOVR_SERVER", "http://127.0.0.1:1")
        with pytest.raises(ExecutorError, match="does not shard"):
            make_executor("remote", shard="0/2")

    def test_shard_name_without_slice_rejected(self):
        with pytest.raises(ExecutorError, match="needs a slice"):
            make_executor("shard")

    def test_instance_plus_shard_rejected(self):
        with pytest.raises(ExecutorError, match="cannot combine"):
            make_executor(SerialExecutor(), shard="0/2")

    def test_non_shard_name_plus_shard_rejected(self):
        with pytest.raises(ExecutorError, match="does not shard"):
            make_executor("serial", shard="0/2")
        with pytest.raises(ExecutorError, match="does not shard"):
            make_executor("process", jobs=2, shard="0/2")

    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard((2, 3)) == (2, 3)
        with pytest.raises(ExecutorError, match="expected INDEX/COUNT"):
            parse_shard("1of2")
        with pytest.raises(ExecutorError, match="expected INDEX/COUNT"):
            parse_shard("a/b")
        with pytest.raises(ExecutorError, match="out of range"):
            parse_shard("2/2")
        with pytest.raises(ExecutorError, match="out of range"):
            parse_shard("-1/2")
        with pytest.raises(ExecutorError, match="at least 1"):
            parse_shard("0/0")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ExecutorError, match="at least 1"):
            ProcessExecutor(0)
        with pytest.raises(ExecutorError, match="at least 1"):
            make_executor(jobs=0)

    def test_custom_backend_selectable_by_name(self):
        """A custom backend is passed as an instance, to the call or
        through a ``sweep_defaults`` block; no name is registered."""
        calls = []

        class Recording(SerialExecutor):
            name = "recording"

            def run(self, specs, cache=None, on_result=None):
                calls.append(len(specs))
                return super().run(specs, cache=cache, on_result=on_result)

        results = tiny_sweep().run(executor=Recording())
        assert calls == [4]
        assert len(results) == 4
        with sweep_defaults(executor=Recording()):
            results = tiny_sweep().run()
        assert calls == [4, 4]
        assert len(results) == 4
        with pytest.raises(ExecutorError, match="'recording'"):
            make_executor("recording")

    def test_registry_is_not_exported(self):
        import repro.session
        import repro.session.executor

        for name in ("register_executor", "executor_names"):
            assert not hasattr(repro.session, name)
            assert not hasattr(repro.session.executor, name)
            assert name not in repro.session.__all__


class TestExecutorEquivalence:
    def test_named_backends_byte_identical(self):
        reference = tiny_sweep().run().to_csv()
        assert tiny_sweep().run(executor="serial").to_csv() == reference
        assert (
            tiny_sweep().run(executor="process", jobs=2).to_csv()
            == reference
        )
        assert tiny_sweep().run(jobs=2).to_csv() == reference

    def test_misbehaving_executor_length_checked(self):
        class Truncating(SerialExecutor):
            name = "truncating"

            def run(self, specs, cache=None, on_result=None):
                return super().run(
                    specs, cache=cache, on_result=on_result
                )[:-1]

        with pytest.raises(SessionError, match="3 results for 4 specs"):
            tiny_sweep().run(executor=Truncating())


class TestProgressCallback:
    def test_serial_callback_in_grid_order_with_hit_flags(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = []
        tiny_sweep().run(
            cache=cache,
            on_result=lambda spec, result, cached: first.append(
                (spec.framework, spec.workload, cached)
            ),
        )
        expected_cells = [
            (spec.framework, spec.workload)
            for spec in tiny_sweep().specs()
        ]
        assert [(f, w) for f, w, _ in first] == expected_cells
        assert [cached for _, _, cached in first] == [False] * 4
        second = []
        tiny_sweep().run(
            cache=cache,
            on_result=lambda spec, result, cached: second.append(cached),
        )
        assert second == [True] * 4

    def test_process_callback_in_grid_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        # Warm exactly one cell so the pool path sees a hit/miss mix.
        warm = tiny_sweep().specs()[1]
        cache.put(warm, warm.execute())
        events = []
        results = tiny_sweep().run(
            jobs=2,
            cache=cache,
            on_result=lambda spec, result, cached: events.append(
                (spec_key(spec), cached)
            ),
        )
        assert [key for key, _ in events] == [
            spec_key(spec) for spec in tiny_sweep().specs()
        ]
        assert [cached for _, cached in events] == [
            False, True, False, False,
        ]
        assert len(results) == 4

    def test_callback_results_match_returned_records(self):
        seen = []
        results = tiny_sweep().run(
            on_result=lambda spec, result, cached: seen.append(result)
        )
        assert seen == results.results


class TestShardScatterMerge:
    """The acceptance bar: scattered-then-merged == serial, byte for byte."""

    def test_scatter_merge_replay_byte_identical(self, tmp_path):
        reference = tiny_sweep().run(executor="serial")
        reference_csv = reference.to_csv()
        reference_json = reference.to_json()

        shard_caches = []
        shard_sets = []
        for index in range(2):
            cache = ResultCache(tmp_path / f"shard{index}")
            shard_caches.append(cache)
            shard_sets.append(
                tiny_sweep().run(shard=(index, 2), cache=cache)
            )
        owned = [len(results) for results in shard_sets]
        assert sum(owned) == 4

        merged = ResultCache(tmp_path / "merged")
        for cache in shard_caches:
            merged.merge(cache)
        assert len(merged) == 4

        replay = tiny_sweep().run(cache=merged)
        assert merged.stats.hits == 4 and merged.stats.misses == 0
        assert replay.to_csv() == reference_csv
        assert replay.to_json() == reference_json

    def test_shard_result_sets_merge_to_the_full_grid(self, tmp_path):
        shards = [
            tiny_sweep().run(shard=(index, 2)) for index in range(2)
        ]
        combined = shards[0].merge(shards[1])
        keys = sorted(spec_key(spec) for spec in combined.specs)
        assert keys == sorted(
            spec_key(spec) for spec in tiny_sweep().specs()
        )

    def test_resultset_merge_rejects_duplicate_cells(self):
        results = tiny_sweep().run()
        with pytest.raises(ValueError, match="duplicate cell"):
            results.merge(results)
        shard = tiny_sweep().run(shard=(0, 2))
        with pytest.raises(ValueError, match="must be disjoint"):
            results.merge(shard)

    def test_shard_runs_only_its_slice(self, tmp_path):
        cache = ResultCache(tmp_path)
        results = tiny_sweep().run(shard="0/2", cache=cache)
        specs = tiny_sweep().specs()
        owned = [spec for spec in specs if shard_of(spec, 2) == 0]
        assert [spec_key(s) for s in results.specs] == [
            spec_key(s) for s in owned
        ]
        # Only the owned cells were executed and stored.
        assert cache.stats.stores == len(owned)
        assert sorted(cache.keys()) == sorted(spec_key(s) for s in owned)

    def test_shard_manifest_records_owned_and_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        tiny_sweep().run(shard="1/2", cache=cache)
        manifests = load_shard_manifests(tmp_path)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert (manifest.shard_index, manifest.shard_count) == (1, 2)
        specs = tiny_sweep().specs()
        owned = [
            spec_key(s) for s in specs if shard_of(s, 2) == 1
        ]
        skipped = [
            spec_key(s) for s in specs if shard_of(s, 2) != 1
        ]
        assert manifest.owned_keys == owned
        assert manifest.skipped_keys == skipped
        # The manifest file must not pollute the entry namespace.
        assert len(cache) == len(owned)
        entry = next(iter(manifest.owned))
        assert set(entry) == {"key", "framework", "workload", "config_label"}

    def test_two_grids_sharing_a_cache_keep_two_manifests(self, tmp_path):
        """Manifest filenames embed the grid fingerprint, so grids
        scattered into one directory never clobber each other."""
        cache = ResultCache(tmp_path)
        tiny_sweep().run(shard="0/2", cache=cache)
        Sweep().preset(TINY).frameworks("baseline").workloads("WE").run(
            shard="0/2", cache=cache
        )
        manifests = load_shard_manifests(tmp_path)
        assert len(manifests) == 2
        assert len({manifest.grid_key for manifest in manifests}) == 2
        # Re-running the same grid overwrites its own manifest only.
        tiny_sweep().run(shard="0/2", cache=cache)
        assert len(load_shard_manifests(tmp_path)) == 2

    def test_failed_manifest_write_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        """A manifest write that fails at the replace leaves neither a
        manifest nor a temp file, as a failed entry write does."""
        manifest = ShardExecutor(0, 2).manifest_for(tiny_sweep().specs())

        def fail(source, destination):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            manifest.write(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_one_way_shard_equals_unsharded(self, tmp_path):
        reference = tiny_sweep().run().to_csv()
        sharded = tiny_sweep().run(
            shard="0/1", cache=ResultCache(tmp_path)
        )
        assert sharded.to_csv() == reference


class TestCliExecutor:
    GRID = (
        "sweep", "--frameworks", "baseline,oo-vr",
        "--workloads", "DM3-640,WE", "--fast", "--frames", "2",
    )

    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sweep_shard_merge_manifest_replay(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        code, _, _ = self.run_cli(
            capsys, *self.GRID, "--csv", str(serial_csv)
        )
        assert code == 0

        for index in range(2):
            code, _, err = self.run_cli(
                capsys, *self.GRID, "--shard", f"{index}/2",
                "--cache", str(tmp_path / f"shard{index}"), "--progress",
            )
            assert code == 0
            assert all(
                " hit " in line or " miss " in line
                for line in err.splitlines()
                if line.startswith("[")
            )

        code, out, _ = self.run_cli(
            capsys, "cache", "merge", str(tmp_path / "merged"),
            str(tmp_path / "shard0"), str(tmp_path / "shard1"),
        )
        assert code == 0
        assert "merged" in out

        code, out, _ = self.run_cli(
            capsys, "cache", "manifest", str(tmp_path / "merged")
        )
        assert code == 0
        assert "coverage: 4/4" in out

        replay_csv = tmp_path / "replay.csv"
        code, out, _ = self.run_cli(
            capsys, *self.GRID, "--cache", str(tmp_path / "merged"),
            "--csv", str(replay_csv),
        )
        assert code == 0
        assert "4 hits, 0 misses" in out
        assert replay_csv.read_bytes() == serial_csv.read_bytes()

    def test_sweep_progress_lines(self, capsys):
        code, _, err = self.run_cli(capsys, *self.GRID, "--progress")
        assert code == 0
        lines = [line for line in err.splitlines() if line.startswith("[")]
        assert len(lines) == 4
        assert lines[0].split()[1] == "miss"
        assert "baseline" in lines[0] and "DM3-640" in lines[0]

    def test_sweep_executor_flag(self, capsys, tmp_path):
        out_csv = tmp_path / "proc.csv"
        code, _, _ = self.run_cli(
            capsys, *self.GRID, "--executor", "process", "--jobs", "2",
            "--csv", str(out_csv),
        )
        assert code == 0
        assert out_csv.is_file()

    def test_sweep_unknown_executor_exits_2(self, capsys):
        code, _, err = self.run_cli(capsys, *self.GRID, "--executor", "gpu")
        assert code == 2
        assert "unknown executor" in err

    def test_profile_is_not_an_executor_name(self, capsys, tmp_path):
        """``--profile`` profiles a sweep; a ``profile`` backend name
        would time every cell and then drop the timings."""
        out_csv = tmp_path / "out.csv"
        code, _, err = self.run_cli(
            capsys, *self.GRID, "--executor", "profile",
            "--csv", str(out_csv),
        )
        assert code == 2
        assert err.startswith("error: unknown executor 'profile'; have [")
        assert not out_csv.exists()

    def test_sweep_profile_accepts_only_serial(self, capsys):
        """``--profile`` follows ``Sweep.run``'s rule: the serial
        backend, named or inferred, is profiled; a pool is refused."""
        code, out, _ = self.run_cli(
            capsys, *self.GRID, "--profile", "--executor", "serial"
        )
        assert code == 0
        assert "baseline DM3-640 (base) (" in out
        assert "ms total):" in out
        code, _, err = self.run_cli(
            capsys, *self.GRID, "--profile", "--jobs", "2"
        )
        assert code == 2
        assert "runs serially" in err

    def test_sweep_bad_shard_exits_2(self, capsys):
        code, _, err = self.run_cli(capsys, *self.GRID, "--shard", "2/2")
        assert code == 2
        assert "out of range" in err

    def test_cache_merge_missing_source_exits_2(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            capsys, "cache", "merge", str(tmp_path / "dst"),
            str(tmp_path / "nope"),
        )
        assert code == 2
        assert "no cache directory" in err

    def test_cache_manifest_without_manifests(self, tmp_path, capsys):
        cache_dir = tmp_path / "plain"
        cache_dir.mkdir()
        code, out, _ = self.run_cli(
            capsys, "cache", "manifest", str(cache_dir)
        )
        assert code == 0
        assert "no shard manifests" in out

    def test_cache_manifest_incomplete_exits_1(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "shard0")
        tiny_sweep().run(shard="0/2", cache=cache)
        # Drop one owned entry: the manifest audit must notice.
        removed = cache.keys()[0]
        (cache.root / f"{removed}.json").unlink()
        code, out, _ = self.run_cli(
            capsys, "cache", "manifest", str(cache.root)
        )
        assert code == 1
        assert "missing" in out

    def test_cache_manifest_tolerates_torn_manifest(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "shard0")
        tiny_sweep().run(shard="0/2", cache=cache)
        torn = cache.root / "shard-1of2-0000dead0000.manifest.json"
        torn.write_text('{"version": 1, "shard_i', encoding="utf-8")
        code, out, _ = self.run_cli(
            capsys, "cache", "manifest", str(cache.root)
        )
        assert code == 1
        assert "unreadable shard manifest" in out
        # The intact manifest is still reported.
        assert "coverage:" in out
