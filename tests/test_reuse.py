"""The per-process reuse cache (repro.reuse).

Covers the memo table's identity-anchored contract, the scoped
enable/disable plumbing, byte-transparency of reuse across the serial
and process executors, and per-process isolation (worker caches never
leak into the parent).
"""

from __future__ import annotations

import pytest

from repro import reuse
from repro.frameworks.base import build_framework
from repro.pipeline.batch import frame_counters, work_units_from_counters
from repro.pipeline.smp import SMPMode
from repro.session import Session, Sweep
from repro.session.spec import cached_scene


def shared_grid() -> Sweep:
    """Frameworks sharing one workload: the reuse-friendly shape."""
    return (
        Sweep().fast().frameworks("oo-vr", "oo-app").workloads("HL2-640")
    )


# ---------------------------------------------------------------------------
# The memo table itself
# ---------------------------------------------------------------------------


class TestReuseCache:
    def test_memoize_builds_once_per_anchor_and_key(self):
        cache = reuse.ReuseCache()
        anchor = object()
        calls = []

        def build():
            calls.append(1)
            return ("artefact",)

        first = cache.memoize("section", anchor, ("cost",), build)
        second = cache.memoize("section", anchor, ("cost",), build)
        assert first is second  # the very same object, not a copy
        assert calls == [1]
        assert cache.stats.snapshot() == (1, 1)

    def test_anchor_identity_not_equality(self):
        """Equal-but-distinct anchors never alias each other's entries."""
        cache = reuse.ReuseCache()
        calls = []

        def build():
            calls.append(1)
            return len(calls)

        first_anchor = tuple([1, 2])  # built at runtime: not interned
        second_anchor = tuple([1, 2])
        assert first_anchor == second_anchor
        assert first_anchor is not second_anchor
        assert cache.memoize("s", first_anchor, "k", build) == 1
        # An equal but distinct tuple is a different anchor.
        assert cache.memoize("s", second_anchor, "k", build) == 2

    def test_key_and_section_separate_entries(self):
        cache = reuse.ReuseCache()
        anchor = object()
        assert cache.memoize("a", anchor, "k1", lambda: 1) == 1
        assert cache.memoize("a", anchor, "k2", lambda: 2) == 2
        assert cache.memoize("b", anchor, "k1", lambda: 3) == 3
        assert len(cache) == 3

    def test_disabled_scope_builds_every_time_and_records_nothing(self):
        cache = reuse.ReuseCache()
        anchor = object()
        calls = []

        def build():
            calls.append(1)
            return len(calls)

        with reuse.reuse_scope(False):
            assert cache.memoize("s", anchor, "k", build) == 1
            assert cache.memoize("s", anchor, "k", build) == 2
        assert len(cache) == 0
        assert cache.stats.snapshot() == (0, 0)

    def test_scope_restores_previous_state(self):
        assert reuse.reuse_enabled()  # the default
        with reuse.reuse_scope(False):
            assert not reuse.reuse_enabled()
            with reuse.reuse_scope(True):
                assert reuse.reuse_enabled()
            assert not reuse.reuse_enabled()
        assert reuse.reuse_enabled()

    def test_set_reuse_flips_the_flag(self):
        try:
            reuse.set_reuse(False)
            assert not reuse.reuse_enabled()
        finally:
            reuse.set_reuse(True)
        assert reuse.reuse_enabled()

    def test_eviction_drops_oldest_first(self):
        cache = reuse.ReuseCache(max_entries=2)
        anchors = [object() for _ in range(3)]
        for index, anchor in enumerate(anchors):
            cache.memoize("s", anchor, index, lambda index=index: index)
        assert len(cache) == 2
        calls = []
        # The oldest entry (anchor 0) was evicted: a re-lookup rebuilds.
        cache.memoize("s", anchors[0], 0, lambda: calls.append(1))
        assert calls == [1]

    def test_clear_resets_entries_and_stats(self):
        cache = reuse.ReuseCache()
        cache.memoize("s", object(), "k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.snapshot() == (0, 0)


# ---------------------------------------------------------------------------
# Byte-transparency across executors
# ---------------------------------------------------------------------------


class TestReuseTransparency:
    def test_serial_sweep_byte_identical_reuse_on_vs_off(self):
        with_reuse = shared_grid().run().to_csv()
        without = shared_grid().run(reuse=False).to_csv()
        assert with_reuse == without

    def test_process_sweep_byte_identical_reuse_on_vs_off(self):
        serial = shared_grid().run(reuse=False).to_csv()
        assert shared_grid().run(jobs=2).to_csv() == serial
        assert shared_grid().run(jobs=2, reuse=False).to_csv() == serial

    def test_session_run_reuse_off_matches_default(self):
        session = Session().framework("oo-vr").workload("HL2-640").fast()
        assert (
            session.run().to_dict()
            == session.run(reuse=False).to_dict()
        )

    def test_eviction_never_changes_results(self, monkeypatch):
        """A pathologically tiny memo evicts constantly, yet the sweep's
        CSV is byte-identical — eviction only costs rebuild time."""
        baseline = shared_grid().run(reuse=False).to_csv()
        monkeypatch.setattr(reuse, "_cache", reuse.ReuseCache(max_entries=1))
        evicting = shared_grid().run().to_csv()
        cache = reuse.get_cache()
        assert len(cache) <= 1  # the cap held
        hits, misses = cache.stats.snapshot()
        assert misses > 2  # evictions forced rebuilds of live keys
        assert evicting == baseline

    def test_shared_workload_grid_actually_hits(self):
        """Cells sharing a workload reuse its frame-derived artefacts."""
        reuse.get_cache().clear()
        shared_grid().run()
        hits, misses = reuse.get_cache().stats.snapshot()
        assert misses > 0  # first framework's cells built the entries
        assert hits > 0  # the second framework reused them


class TestFrameAnchoredMemo:
    def test_batch_builder_returns_fresh_lists_of_the_same_pairs(self):
        """A repeat build is a memo hit: a fresh list (no consumer can
        alias another cell's container) holding the very same frozen
        ``(batch, merged unit)`` pairs."""
        cache = reuse.get_cache()
        cache.clear()
        frame = cached_scene("DM3-640", 2, 2019, 0.15).frames[0]
        builder = build_framework("oo-vr")._builder
        first = builder.build(frame)
        hits, misses = cache.stats.snapshot()
        second = builder.build(frame)
        assert cache.stats.snapshot() == (hits + 1, misses)
        assert first == second
        assert first is not second
        assert all(a is b for a, b in zip(first, second))

    def test_memo_builds_run_inside_bind_and_price(self):
        """The grouping and merges are charged to ``bind``, the Eq. 3
        characterisation they read to ``price``; a memo hit enters no
        phase and nothing else is counted."""
        from repro.profiling import PhaseProfile, capture

        reuse.get_cache().clear()
        frame = cached_scene("HL2-640", 2, 2019, 0.15).frames[0]
        builder = build_framework("oo-app")._builder
        with capture(PhaseProfile()) as profile:
            builder.build(frame)
            builder.build(frame)
        assert profile.calls == {"bind": 1, "price": 1}
        assert profile.counters == {}

    @pytest.mark.parametrize(
        "mode, expansion",
        [
            (SMPMode.SIMULTANEOUS, "multiview"),
            (SMPMode.SEQUENTIAL, "stereo"),
        ],
    )
    def test_characterize_frame_hit_is_the_built_tuple(self, mode, expansion):
        """A repeat characterisation answers the very tuple the miss
        built, field-for-field equal to materialising the frame's
        counters afresh; the other plan of the frame is its own entry."""
        cache = reuse.get_cache()
        cache.clear()
        frame = cached_scene("DM3-640", 2, 2019, 0.15).frames[0]
        characterizer = build_framework("baseline").characterizer
        built = characterizer.characterize_frame(
            frame, mode=mode, expansion=expansion
        )
        hits, misses = cache.stats.snapshot()
        again = characterizer.characterize_frame(
            frame, mode=mode, expansion=expansion
        )
        assert again is built
        assert cache.stats.snapshot() == (hits + 1, misses)
        cost = characterizer.cost
        counters = frame_counters(
            frame.object_batch, cost, mode=mode, expansion=expansion
        )
        assert tuple(built) == tuple(
            work_units_from_counters(frame.object_batch, counters, cost)
        )
        other = {
            SMPMode.SIMULTANEOUS: (SMPMode.SEQUENTIAL, "stereo"),
            SMPMode.SEQUENTIAL: (SMPMode.SIMULTANEOUS, "multiview"),
        }[mode]
        characterizer.characterize_frame(
            frame, mode=other[0], expansion=other[1]
        )
        assert cache.stats.snapshot() == (hits + 1, misses + 1)

    def test_batches_hold_the_live_frames_objects(self):
        """Every object of the frame lands in exactly one batch as the
        very instance the frame holds, so artefacts anchored on objects
        downstream keep working; batches number from 0 in order and
        each merged unit is named after its batch."""
        reuse.get_cache().clear()
        frame = cached_scene("WE", 2, 2019, 0.15).frames[0]
        pairs = build_framework("oo-vr")._builder.build(frame)
        members = [obj for batch, _ in pairs for obj in batch.objects]
        assert len(members) == len(frame.objects)
        assert {id(obj) for obj in members} == {
            id(obj) for obj in frame.objects
        }
        assert len(pairs) < len(frame.objects)  # some batches merged
        for index, (batch, unit) in enumerate(pairs):
            assert batch.batch_id == index
            assert unit.label == f"batch{index}"

    def test_oo_app_reuses_the_pairs_oo_vr_built(self):
        """OO-APP and OO-VR share one grouping per frame: once either
        built it, the other neither groups nor prices the frame again."""
        reuse.get_cache().clear()
        frame = cached_scene("HL2-640", 2, 2019, 0.15).frames[0]
        built = build_framework("oo-vr")._builder.build(frame)
        oo_app = build_framework("oo-app")
        oo_app.characterizer.characterize_frame = None  # would raise
        oo_app._builder._middleware.build_batches = None  # would raise
        reused = oo_app._builder.build(frame)
        assert reused == built
        assert all(a is b for a, b in zip(reused, built))

    @pytest.mark.parametrize(
        "tile, partner", [("tile-h", "oo-vr"), ("tile-v", "baseline")]
    )
    def test_tile_sfr_reads_the_units_its_partner_priced(
        self, tile, partner
    ):
        """Tile-h prices the multi-view draws OO-VR groups, tile-v the
        sequential stereo draws the baseline splits: after the partner's
        cell, the tile cell's characterisation of every frame of the
        same workload point is a memo hit."""
        cache = reuse.get_cache()
        cache.clear()
        session = Session().framework(partner).workload("HL2-640").fast()
        session.run()
        framework = build_framework(tile)
        mode, expansion = framework._frame_plan()
        hits, misses = cache.stats.snapshot()
        frames = session.scene().frames
        for frame in frames:
            framework.characterizer.characterize_frame(
                frame, mode=mode, expansion=expansion
            )
        assert cache.stats.snapshot() == (hits + len(frames), misses)


# ---------------------------------------------------------------------------
# Per-process isolation
# ---------------------------------------------------------------------------


class TestPerProcessIsolation:
    def test_worker_caches_never_leak_into_the_parent(self):
        """jobs > 1 executes in the pool: the parent memo stays empty."""
        cache = reuse.get_cache()
        cache.clear()
        results = shared_grid().run(jobs=2)
        assert len(results) == 2
        assert len(cache) == 0
        assert cache.stats.snapshot() == (0, 0)

    def test_sweep_scope_is_active_during_and_restored_after(self):
        states = []
        shared_grid().run(
            on_result=lambda *args: states.append(reuse.reuse_enabled()),
            reuse=False,
        )
        assert states and not any(states)
        assert reuse.reuse_enabled()  # restored after the run
