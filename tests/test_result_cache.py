"""The RunSpec-keyed result cache: keys, round trips, sweep memoisation."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.config import baseline_system
from repro.session import cache as cache_module
from repro.session import (
    CacheMergeError,
    ExperimentConfig,
    ResultCache,
    RunSpec,
    Sweep,
    encode_entry,
    spec_key,
)
from repro.stats.metrics import SceneResult

#: Two tiny workloads keep these tests quick.
TINY = ExperimentConfig(
    draw_scale=0.08, num_frames=2, workloads=("DM3-640", "WE")
)


def tiny_sweep() -> Sweep:
    return Sweep().preset(TINY).frameworks("baseline", "oo-vr")


def tiny_spec(**overrides) -> RunSpec:
    fields = dict(
        framework="oo-vr",
        workload="WE",
        num_frames=2,
        seed=2019,
        draw_scale=0.08,
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestSpecKey:
    def test_key_is_deterministic(self):
        assert spec_key(tiny_spec()) == spec_key(tiny_spec())

    def test_key_differs_per_identity_field(self):
        base = spec_key(tiny_spec())
        assert spec_key(tiny_spec(framework="baseline")) != base
        assert spec_key(tiny_spec(workload="DM3-640")) != base
        assert spec_key(tiny_spec(seed=7)) != base
        assert spec_key(tiny_spec(draw_scale=0.5)) != base

    def test_key_covers_config_values_not_label(self):
        base = spec_key(tiny_spec())
        relabelled = tiny_spec(config_label="renamed")
        assert spec_key(relabelled) == base
        configured = tiny_spec(config=baseline_system(num_gpms=2))
        assert spec_key(configured) != base

    def test_key_stable_across_processes(self):
        """SHA-256 over canonical JSON, not Python's seeded hash()."""
        script = (
            "from repro.session import RunSpec, spec_key\n"
            "from repro.config import baseline_system\n"
            "spec = RunSpec(framework='oo-vr', workload='WE', num_frames=2,\n"
            "               seed=2019, draw_scale=0.08,\n"
            "               config=baseline_system(num_gpms=2))\n"
            "print(spec_key(spec))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        local = spec_key(tiny_spec(config=baseline_system(num_gpms=2)))
        assert child.stdout.strip() == local


class TestResultCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        result = spec.execute()
        cache.put(spec, result)
        cached = cache.get(spec)
        assert isinstance(cached, SceneResult)
        assert cached.to_dict() == result.to_dict()

    def test_hit_miss_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        assert cache.get(spec) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.put(spec, spec.execute())
        assert cache.get(spec) is not None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5
        assert "1 hits, 1 misses" in cache.stats.summary()

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        result = spec.execute()
        cache.put(spec, result)
        path = cache.entry_path(cache.key(spec))
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1
        # A sweep through the same cache re-executes and heals the entry.
        results = Sweep().preset(TINY).workloads("WE").frameworks(
            "oo-vr"
        ).run(cache=cache)
        assert len(results) == 1
        healed = cache.get(spec)
        assert healed is not None
        assert healed.to_dict() == result.to_dict()

    def test_schema_version_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        cache.put(spec, spec.execute())
        path = cache.entry_path(cache.key(spec))
        entry = json.loads(path.read_text())
        entry["version"] = -1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1

    def test_relabelled_config_still_hits(self, tmp_path):
        """config_label is cosmetic: the same config under another
        label must hit the same entry, not read as corrupt."""
        cache = ResultCache(tmp_path)
        config = baseline_system(num_gpms=2)
        labelled_a = tiny_spec(config=config, config_label="A").validate()
        labelled_b = tiny_spec(config=config, config_label="B").validate()
        cache.put(labelled_a, labelled_a.execute())
        assert cache.get(labelled_b) is not None
        assert cache.stats.corrupt == 0
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_stored_spec_mismatch_is_miss(self, tmp_path):
        """A hand-edited (or colliding) entry must not impersonate."""
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        cache.put(spec, spec.execute())
        path = cache.entry_path(cache.key(spec))
        entry = json.loads(path.read_text())
        entry["spec"]["seed"] = 7
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(spec) is None

    def test_edited_engine_is_corrupt_and_re_executes(self, tmp_path):
        """The recorded engine is part of the identity an entry must
        hash to: an analytic entry edited to say ``event`` is
        discarded, and a sweep through the cache re-executes the cell
        and heals the entry."""
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        result = spec.execute()
        cache.put(spec, result)
        path = cache.entry_path(cache.key(spec))
        entry = json.loads(path.read_text())
        entry["engine"] = "event"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1
        Sweep().preset(TINY).workloads("WE").frameworks("oo-vr").run(
            cache=cache
        )
        assert cache.stats.stores == 2
        assert "engine" not in json.loads(path.read_text())
        healed = cache.get(spec)
        assert healed is not None
        assert healed.to_dict() == result.to_dict()

    def test_info_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for workload in TINY.workloads:
            spec = tiny_spec(workload=workload).validate()
            cache.put(spec, spec.execute())
        info = cache.info()
        assert info["entries"] == len(cache) == 2
        assert info["total_bytes"] > 0
        assert cache.clear() == 2
        assert len(cache) == 0


def _doubled_interval(text: str) -> str:
    """A valid entry text for the same spec holding another result."""
    entry = json.loads(text)
    entry["result"]["frame_interval_cycles"] *= 2
    return json.dumps(entry, indent=1) + "\n"


#: Changes to a validated entry's file, each made after one get().
_CHANGES = {
    "put": lambda cache, spec, path: cache.put(spec, cache.get(spec)),
    "merge-replace": lambda cache, spec, path: cache.merge_entry(
        path.stem,
        _doubled_interval(path.read_text(encoding="utf-8")),
        on_conflict="replace",
    ),
    "put-by-another-cache": lambda cache, spec, path: ResultCache(
        cache.root
    ).put(spec, cache.get(spec)),
    "clear": lambda cache, spec, path: cache.clear(),
    "delete": lambda cache, spec, path: path.unlink(),
    "truncate": lambda cache, spec, path: path.write_text(
        path.read_text(encoding="utf-8")[:100], encoding="utf-8"
    ),
    "corrupt": lambda cache, spec, path: path.write_text(
        "{ not json", encoding="utf-8"
    ),
}


class TestValidatedMemo:
    """An entry get() accepted is answered from memory while its file
    keeps the identity it had when it was read."""

    @pytest.fixture
    def stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec().validate()
        cache.put(spec, spec.execute())
        return cache, spec

    def test_recall_after_get_reads_nothing(self, stored, entry_reads):
        cache, spec = stored
        key = spec_key(spec)
        assert cache.get(spec) is not None
        entry_reads.clear()
        text = cache.recall(key)
        assert cache.entry_text(spec, key) == text
        assert dict(entry_reads) == {}
        assert text == cache.entry_path(key).read_bytes().decode("utf-8")
        # A memo hit is counted as the hit get() would have counted.
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)

    def test_validated_get_parses_once(self, stored, entry_reads):
        """Checking an entry hashes the identity it records: the entry
        text is the only JSON one validated get() parses."""
        cache, spec = stored
        entry_reads.clear()
        assert cache.get(spec) is not None
        assert dict(entry_reads) == {"open": 1, "loads": 1, "decode": 1}

    def test_written_entries_are_not_remembered(self, stored, entry_reads):
        cache, spec = stored
        key = spec_key(spec)
        assert cache.recall(key) is None
        other = tiny_spec(workload="DM3-640").validate()
        cache.merge_entry(
            spec_key(other), encode_entry(other, other.execute())
        )
        assert cache.recall(spec_key(other)) is None
        entry_reads.clear()
        text = cache.entry_text(spec, key)
        assert (entry_reads["open"], entry_reads["decode"]) == (1, 1)
        # The text the lookup validated, without a second stat.
        assert text == cache.entry_path(key).read_text(encoding="utf-8")

    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_changed_file_goes_back_to_disk(
        self, stored, entry_reads, change
    ):
        cache, spec = stored
        path = cache.entry_path(cache.key(spec))
        assert cache.get(spec) is not None
        _CHANGES[change](cache, spec, path)
        # What a cache that never saw the entry makes of the file now.
        fresh = ResultCache(cache.root)
        expected = fresh.get(spec)
        entry_reads.clear()
        before = dataclasses.replace(cache.stats)
        text = cache.entry_text(spec, spec_key(spec))
        held = text is not None
        assert entry_reads["open"] == 1
        assert held is (expected is not None)
        assert (
            cache.stats.hits - before.hits,
            cache.stats.misses - before.misses,
            cache.stats.corrupt - before.corrupt,
        ) == (
            fresh.stats.hits,
            fresh.stats.misses,
            fresh.stats.corrupt,
        )
        if held:
            # Re-validated, so remembered again: the new bytes.
            assert text == path.read_text(encoding="utf-8")
            assert cache.recall(spec_key(spec)) == text
        else:
            assert cache.recall(spec_key(spec)) is None

    @pytest.mark.parametrize("change", ["put", "merge-replace"])
    def test_writes_through_the_cache_forget_the_text(
        self, stored, monkeypatch, change
    ):
        """Even when the replaced file repeats the old identity (an
        inode number handed back within one timestamp tick)."""
        cache, spec = stored
        monkeypatch.setattr(
            cache_module, "_identity", lambda status: (1, 2, 3)
        )
        assert cache.get(spec) is not None
        assert cache.recall(spec_key(spec)) is not None
        _CHANGES[change](cache, spec, cache.entry_path(cache.key(spec)))
        assert cache.recall(spec_key(spec)) is None

    def test_get_returns_a_fresh_object_each_call(self, stored):
        cache, spec = stored
        first, second = cache.get(spec), cache.get(spec)
        assert first == second
        assert first is not second
        assert first.frames is not second.frames


class TestSweepCaching:
    def test_repeated_sweep_all_hits(self, tmp_path):
        first = ResultCache(tmp_path)
        tiny_sweep().run(cache=first)
        assert (first.stats.hits, first.stats.misses) == (0, 4)
        second = ResultCache(tmp_path)
        tiny_sweep().run(cache=second)
        assert (second.stats.hits, second.stats.misses) == (4, 0)
        assert second.stats.hit_rate == 1.0

    def test_cached_sweep_byte_identical_to_uncached(self, tmp_path):
        uncached = tiny_sweep().run()
        cache = ResultCache(tmp_path)
        warmup = tiny_sweep().run(cache=cache)
        cached = tiny_sweep().run(cache=cache)
        assert cache.stats.hits == 4
        assert cached.to_csv() == uncached.to_csv() == warmup.to_csv()
        assert cached.to_json() == uncached.to_json()
        assert cached.to_records() == uncached.to_records()

    def test_partial_hits_fill_the_gaps(self, tmp_path):
        cache = ResultCache(tmp_path)
        Sweep().preset(TINY).frameworks("baseline").run(cache=cache)
        results = tiny_sweep().run(cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (2, 2 + 2)
        assert len(results) == 4
        assert results.to_csv() == tiny_sweep().run().to_csv()

    def test_cache_accepts_directory_path(self, tmp_path):
        path = tmp_path / "store"
        first = tiny_sweep().run(cache=str(path))
        second = tiny_sweep().run(cache=str(path))
        assert first.to_csv() == second.to_csv()
        assert len(ResultCache(path)) == 4

    def test_parallel_cached_sweep_matches_serial(self, tmp_path):
        cache = ResultCache(tmp_path)
        parallel = tiny_sweep().run(jobs=2, cache=cache)
        assert cache.stats.misses == 4
        serial = tiny_sweep().run()
        assert parallel.to_csv() == serial.to_csv()
        replay = tiny_sweep().run(jobs=2, cache=cache)
        assert cache.stats.hits == 4
        assert replay.to_csv() == serial.to_csv()

    def test_variant_frameworks_cache_cleanly(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = lambda: (
            Sweep()
            .preset(TINY)
            .workloads("WE")
            .frameworks("oo-vr:no-dhc", "baseline:topo=ring")
        )
        first = sweep().run(cache=cache)
        second = sweep().run(cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)
        assert first.to_csv() == second.to_csv() == sweep().run().to_csv()


class TestConcurrentWriters:
    """Two shard processes sharing one directory must not corrupt it."""

    def test_interleaved_writers_same_key(self, tmp_path):
        """Many interleaved puts of the same key always leave a
        complete, parseable entry and no stray temp files — each
        writer stages into its own uniquely-named temp file before
        the atomic replace, so writers cannot truncate each other."""
        import threading

        spec = tiny_spec().validate()
        result = spec.execute()
        writers = [ResultCache(tmp_path), ResultCache(tmp_path)]
        start = threading.Barrier(len(writers))
        errors = []

        def hammer(cache):
            try:
                start.wait()
                for _ in range(25):
                    cache.put(spec, result)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(cache,))
            for cache in writers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        survivor = ResultCache(tmp_path)
        assert len(survivor) == 1
        cached = survivor.get(spec)
        assert cached is not None
        assert cached.to_dict() == result.to_dict()
        assert not list(tmp_path.glob("*.tmp"))

    def test_two_caches_sharing_a_directory(self, tmp_path):
        """The shard scenario: distinct cells landing from two cache
        instances interleave without losing either entry."""
        spec_a = tiny_spec().validate()
        spec_b = tiny_spec(workload="DM3-640").validate()
        cache_a, cache_b = ResultCache(tmp_path), ResultCache(tmp_path)
        cache_a.put(spec_a, spec_a.execute())
        cache_b.put(spec_b, spec_b.execute())
        shared = ResultCache(tmp_path)
        assert shared.get(spec_a) is not None
        assert shared.get(spec_b) is not None
        assert len(shared) == 2


class TestCacheMerge:
    def seeded(self, tmp_path, name, workloads=("WE",)):
        cache = ResultCache(tmp_path / name)
        for workload in workloads:
            spec = tiny_spec(workload=workload).validate()
            cache.put(spec, spec.execute())
        return cache

    def test_merge_copies_missing_entries(self, tmp_path):
        source = self.seeded(tmp_path, "src", TINY.workloads)
        destination = ResultCache(tmp_path / "dst")
        stats = destination.merge(source)
        assert (stats.copied, stats.identical, stats.conflicts) == (2, 0, 0)
        assert sorted(destination.keys()) == sorted(source.keys())
        spec = tiny_spec(workload="WE").validate()
        assert destination.get(spec) is not None

    def test_merge_accepts_directory_path(self, tmp_path):
        source = self.seeded(tmp_path, "src")
        destination = ResultCache(tmp_path / "dst")
        stats = destination.merge(source.root)
        assert stats.copied == 1

    def test_same_key_same_payload_is_noop(self, tmp_path):
        source = self.seeded(tmp_path, "src")
        destination = ResultCache(tmp_path / "dst")
        destination.merge(source)
        again = destination.merge(source)
        assert (again.copied, again.identical) == (0, 1)
        assert "1 identical" in again.summary()

    def test_same_key_different_payload_raises(self, tmp_path):
        source = self.seeded(tmp_path, "src")
        destination = self.seeded(tmp_path, "dst")
        key = source.keys()[0]
        path = source.root / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["result"]["single_frame_cycles"] += 1.0
        path.write_text(json.dumps(entry), encoding="utf-8")
        with pytest.raises(CacheMergeError, match="merge conflict"):
            destination.merge(source)

    def test_conflict_keep_and_replace_policies(self, tmp_path):
        source = self.seeded(tmp_path, "src")
        destination = self.seeded(tmp_path, "dst")
        key = source.keys()[0]
        path = source.root / f"{key}.json"
        original = (destination.root / f"{key}.json").read_text()
        doctored = original.replace("\n", "\n ", 1)
        path.write_text(doctored, encoding="utf-8")
        kept = destination.merge(source, on_conflict="keep")
        assert (kept.kept, kept.replaced) == (1, 0)
        assert (destination.root / f"{key}.json").read_text() == original
        replaced = destination.merge(source, on_conflict="replace")
        assert (replaced.kept, replaced.replaced) == (0, 1)
        assert (destination.root / f"{key}.json").read_text() == doctored

    def test_bad_on_conflict_rejected(self, tmp_path):
        destination = ResultCache(tmp_path / "dst")
        with pytest.raises(ValueError, match="on_conflict"):
            destination.merge(tmp_path / "dst", on_conflict="panic")

    def test_merge_ignores_non_entry_json(self, tmp_path):
        source = self.seeded(tmp_path, "src")
        (source.root / "notes.json").write_text("{}", encoding="utf-8")
        destination = ResultCache(tmp_path / "dst")
        stats = destination.merge(source)
        assert stats.copied == 1
        assert not (destination.root / "notes.json").exists()

    def test_entry_count_ignores_manifests_and_stray_json(self, tmp_path):
        cache = self.seeded(tmp_path, "src")
        (cache.root / "shard-0of2.manifest.json").write_text(
            "{}", encoding="utf-8"
        )
        (cache.root / "notes.json").write_text("{}", encoding="utf-8")
        assert len(cache) == 1
        assert cache.info()["entries"] == 1
        assert cache.clear() == 1
        assert (cache.root / "shard-0of2.manifest.json").exists()
