"""Memory substrate: pages, placement, caches, DRAM, links, remote cache."""

import pytest

from repro.memory.address import (
    Resource,
    ResourceKind,
    Touch,
    texture_resource,
)
from repro.memory.cache import miss_bytes
from repro.memory.dram import DramTracker, make_trackers
from repro.memory.link import LinkFabric, TrafficType
from repro.memory.placement import PagePlacement, PlacementPolicy
from repro.memory.remote_cache import RemoteCache
from tests.oracles import (
    SetAssociativeCache,
    filter_columns_reference,
    first_use_reference,
    miss_bytes_columns_reference,
    working_set_hit_rate,
)

KB = 1024
MB = 1024 * KB
PAGE = 64 * KB


class TestResourcesAndTouches:
    def test_num_pages_rounds_up(self):
        r = texture_resource(0, PAGE + 1)
        assert r.num_pages(PAGE) == 2

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Resource(("tex", 0), ResourceKind.TEXTURE, 0)

    def test_touch_stream_floored_at_unique(self):
        touch = Touch(texture_resource(0, MB), unique_bytes=100.0, stream_bytes=10.0)
        assert touch.stream_bytes == 100.0

    def test_touch_scaling(self):
        touch = Touch(texture_resource(0, MB), unique_bytes=100.0, stream_bytes=400.0)
        half = touch.scaled(0.5)
        assert half.unique_bytes == 50.0
        assert half.stream_bytes == 200.0

    def test_negative_touch_rejected(self):
        with pytest.raises(ValueError):
            Touch(texture_resource(0, MB), unique_bytes=-1.0)


class TestPlacement:
    def test_first_touch_places_on_toucher(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.FIRST_TOUCH)
        r = texture_resource(0, 4 * PAGE)
        fractions = placement.owner_fractions(r, toucher=2)
        assert fractions == {2: 1.0}

    def test_first_touch_sticky(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.owner_fractions(r, toucher=2)
        assert placement.owner_fractions(r, toucher=3) == {2: 1.0}

    def test_interleaved_spreads_pages(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.INTERLEAVED)
        r = texture_resource(0, 8 * PAGE)
        fractions = placement.owner_fractions(r, toucher=0)
        assert fractions == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_place_fixed(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 2 * PAGE)
        placement.place_fixed(r, 1)
        assert placement.local_fraction(r, 1) == 1.0
        assert placement.local_fraction(r, 0) == 0.0

    def test_double_place_rejected(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, PAGE)
        placement.place_fixed(r, 0)
        with pytest.raises(ValueError):
            placement.place_fixed(r, 1)

    def test_striped_placement(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 8 * PAGE)
        placement.place_striped(r, [0, 1, 2, 3])
        fractions = placement.owner_fractions(r, toucher=0)
        assert fractions == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_replica_makes_local(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        placement.replicate(r, [3])
        assert placement.local_fraction(r, 3) == 1.0
        # Original owner still local too.
        assert placement.local_fraction(r, 0) == 1.0

    def test_replication_counts_resident_bytes(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        before = placement.total_resident_bytes
        placement.replicate(r, [1, 2])
        assert placement.total_resident_bytes == before + 2 * r.size_bytes

    def test_replicating_an_unplaced_resource_counts_it_once(self):
        """The first GPM becomes its home, holding every page: no replica
        there, so its bytes are resident once, and repeats add nothing."""
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 3 * PAGE + 17)
        placement.replicate(r, [2])
        assert placement.resident_bytes == [0.0, 0.0, r.size_bytes, 0.0]
        assert placement.layout() == [(r.resource_id, [2, 2, 2, 2], [])]
        placement.replicate(r, [2])
        placement.replicate(r, [2, 2])
        assert placement.total_resident_bytes == r.size_bytes
        assert placement.is_home(r, 2)
        placement.replicate(r, [1, 2])
        assert placement.resident_bytes == [
            0.0, r.size_bytes, r.size_bytes, 0.0
        ]
        assert placement.layout() == [(r.resource_id, [2, 2, 2, 2], [1])]

    @pytest.mark.parametrize("gpm", [-1, 4])
    def test_gpms_out_of_range_are_rejected(self, gpm):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, PAGE)
        placement.replicate(r, [3])
        for call in (
            lambda: placement.owner_fractions(r, gpm),
            lambda: placement.replicate(r, [gpm]),
            lambda: placement.migrate(r, gpm),
        ):
            with pytest.raises(ValueError, match="out of range"):
                call()
        assert not placement.is_home(r, gpm)
        assert placement.layout() == [(r.resource_id, [3], [])]

    def test_afr_counts_each_resource_once(self):
        """AFR replicates every resource of its first frame onto that
        frame's GPM: each is resident once."""
        from repro.pipeline.smp import SMPMode
        from repro.session.spec import FAST, RunSpec

        spec = RunSpec(
            framework="afr", workload="HL2-640",
            num_frames=1, draw_scale=FAST.draw_scale,
        )
        framework = spec.build()
        result = framework.render_scene(spec.scene())
        resources = framework.characterizer.unit_columns(
            spec.scene().frames[0], mode=SMPMode.SEQUENTIAL, expansion="stereo"
        ).resources
        assert result.frames[0].resident_bytes == float(
            sum(resource.size_bytes for resource in resources)
        )

    def test_is_home_true_only_for_owner(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 2 * PAGE)
        placement.place_fixed(r, 1)
        placement.replicate(r, [2])
        assert placement.is_home(r, 1)
        assert not placement.is_home(r, 2)
        assert not placement.is_home(r, 0)

    def test_reset_forgets(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, PAGE)
        placement.place_fixed(r, 0)
        placement.reset()
        assert not placement.is_placed(r)
        assert placement.total_resident_bytes == 0.0


class TestOwnerFractionCache:
    def test_map_is_cached_and_read_only(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.INTERLEAVED)
        r = texture_resource(0, 6 * PAGE)
        fractions = placement.owner_fractions(r, toucher=0)
        assert fractions == {0: 2 / 6, 1: 2 / 6, 2: 1 / 6, 3: 1 / 6}
        assert placement.owner_fractions(r, toucher=3) is fractions
        with pytest.raises(TypeError):
            fractions[0] = 1.0  # type: ignore[index]

    def test_migrate_rebuilds_fractions(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.INTERLEAVED)
        r = texture_resource(0, 8 * PAGE)
        before = placement.owner_fractions(r, toucher=0)
        assert not placement.is_home(r, 2)
        placement.migrate(r, 2)
        assert placement.owner_fractions(r, toucher=0) == {2: 1.0}
        assert placement.is_home(r, 2)
        # The map handed out earlier still describes the old layout.
        assert before == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_replica_takes_precedence(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        assert placement.owner_fractions(r, toucher=3) == {0: 1.0}
        placement.replicate(r, [3])
        local = placement.owner_fractions(r, toucher=3)
        assert local == {3: 1.0}
        with pytest.raises(TypeError):
            local[0] = 1.0  # type: ignore[index]
        assert placement.owner_fractions(r, toucher=1) == {0: 1.0}
        assert placement.is_home(r, 0) and not placement.is_home(r, 3)
        placement.migrate(r, 1)  # drops the replicas
        assert placement.owner_fractions(r, toucher=3) == {1: 1.0}

    def test_reset_forgets_cached_fractions(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        assert placement.owner_fractions(r, toucher=2) == {2: 1.0}
        placement.reset()
        assert not placement.is_home(r, 2)
        assert placement.owner_fractions(r, toucher=1) == {1: 1.0}
        assert placement.is_home(r, 1)


class TestColumnKernels:
    """The batched memory kernels equal their scalar calls, bit for bit."""

    @staticmethod
    def _streams(seed, rows):
        import numpy as np

        rng = np.random.default_rng(seed)
        unique = rng.uniform(0.0, 4.0 * MB, rows)
        stream = unique * rng.uniform(0.3, 8.0, rows)
        unique[rng.random(rows) < 0.1] = 0.0
        stream[rng.random(rows) < 0.1] = 0.0
        return stream, unique

    @pytest.mark.parametrize(
        "rows, size", [(0, 4), (1, 1), (50, 7), (500, 2000)]
    )
    def test_first_use_interning(self, rows, size):
        """Keys in first-use order, first rows and every row's index,
        as ``np.unique`` gives them reordered, with no sort."""
        import numpy as np

        from repro.columns import first_use

        keys = np.random.default_rng(rows).integers(0, size, rows)
        got = [column.tolist() for column in first_use(keys, size)]
        assert got == [
            column.tolist() for column in first_use_reference(keys, size)
        ]
        distinct, first, index = got
        assert [distinct[i] for i in index] == keys.tolist()
        assert [keys.tolist().index(key) for key in distinct] == first

    def test_miss_bytes_columns(self):
        from repro.memory.cache import miss_bytes_columns

        stream, unique = self._streams(1, 400)
        for cache_bytes in (64 * KB, 1.0 * MB, 0.0):
            assert miss_bytes_columns(stream, unique, cache_bytes).tolist() == (
                miss_bytes_columns_reference(
                    stream, unique, cache_bytes
                ).tolist()
            )

    def test_filter_columns(self):
        import numpy as np

        from repro.memory.remote_cache import filter_columns

        def caches():
            return [
                RemoteCache(512.0 * KB),
                RemoteCache(0.0),
                RemoteCache(64.0 * KB, effectiveness=0.5),
            ]

        stream, unique = self._streams(2, 400)
        gpm = np.random.default_rng(3).integers(0, 3, stream.size)
        scalar = caches()
        expected = filter_columns_reference(scalar, gpm, stream, unique).tolist()
        batched = caches()
        assert filter_columns(batched, gpm, stream, unique).tolist() == expected
        assert [(c.hits_bytes, c.miss_bytes) for c in batched] == [
            (c.hits_bytes, c.miss_bytes) for c in scalar
        ]

    @pytest.mark.parametrize("topology", [None, "ring", "switch"])
    def test_transfer_batch(self, topology):
        import numpy as np

        from repro.extensions.topology import RoutedLinkFabric, Topology
        from repro.memory.link import TRAFFIC_TYPES

        def fabric():
            if topology is None:
                return LinkFabric(4, 32.0)
            return RoutedLinkFabric(4, 32.0, topology=Topology(topology))

        rng = np.random.default_rng(4)
        src = rng.integers(0, 4, 300)
        dst = rng.integers(0, 4, 300)  # some rows stay within one GPM
        nbytes = rng.uniform(0.0, 1e5, 300)
        nbytes[rng.random(300) < 0.1] = 0.0
        traffic = rng.integers(0, len(TRAFFIC_TYPES), 300)
        scalar = fabric()
        for row in range(300):
            scalar.transfer(
                int(src[row]), int(dst[row]), float(nbytes[row]),
                TRAFFIC_TYPES[traffic[row]],
            )
        batched = fabric()
        batched.transfer_batch(src, dst, nbytes, traffic)

        def state(links):
            return (
                [
                    (key, s.bytes_total, list(s.by_type.items()))
                    for key, s in links._links.items()
                ],
                list(links.bytes_by_type().items()),
                links.total_bytes,
            )

        assert state(batched) == state(scalar)
        with pytest.raises(ValueError):
            batched.transfer_batch(src, dst + 4, nbytes, traffic)


class TestSetAssociativeCache:
    def test_first_access_misses_then_hits(self):
        cache = SetAssociativeCache(1024, 2, 64)
        assert not cache.access(0)
        assert cache.access(0)

    def test_same_line_hits(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        assert cache.access(63)

    def test_lru_eviction(self):
        # 2 ways, 1 set: third distinct line evicts the least recent.
        cache = SetAssociativeCache(128, 2, 64)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # evicts line 0
        assert not cache.access(0)

    def test_lru_order_updated_on_hit(self):
        cache = SetAssociativeCache(128, 2, 64)
        cache.access(0)
        cache.access(64)
        cache.access(0)  # 0 becomes MRU
        cache.access(128)  # evicts 64, not 0
        assert cache.access(0)

    def test_access_range_counts_lines(self):
        cache = SetAssociativeCache(8 * KB, 4, 64)
        misses = cache.access_range(0, 640)
        assert misses == 10

    def test_working_set_fits_no_capacity_misses(self):
        cache = SetAssociativeCache(8 * KB, 8, 64)
        cache.access_range(0, 4 * KB)
        cache.reset_stats()
        cache.access_range(0, 4 * KB)
        assert cache.misses == 0

    def test_thrash_when_oversized(self):
        cache = SetAssociativeCache(1 * KB, 4, 64)
        for _ in range(3):
            cache.access_range(0, 8 * KB)
        assert cache.hit_rate < 0.2

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 3, 64)

    def test_flush(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        cache.flush()
        assert cache.resident_lines == 0


class TestAnalyticCacheModel:
    def test_fits_means_compulsory_only(self):
        # Working set fits: hit rate = 1 - 1/reuse.
        assert working_set_hit_rate(1000, 10_000, reuse_factor=4) == pytest.approx(
            0.75
        )

    def test_oversized_decays(self):
        fits = working_set_hit_rate(1000, 10_000, 4)
        thrash = working_set_hit_rate(100_000, 10_000, 4)
        assert thrash < fits

    def test_zero_cache_never_hits(self):
        assert working_set_hit_rate(1000, 0, 4) == 0.0

    def test_empty_stream_hits(self):
        assert working_set_hit_rate(0, 1024, 4) == 1.0

    def test_miss_bytes_bounded(self):
        stream, unique, cache = 10_000.0, 2_000.0, 4_000.0
        out = miss_bytes(stream, unique, cache)
        assert unique <= out <= stream

    def test_miss_bytes_equals_unique_when_fits(self):
        assert miss_bytes(8_000.0, 2_000.0, 1e9) == pytest.approx(2_000.0)

    def test_analytic_matches_exact_direction(self):
        """The analytic curve agrees with the exact simulator's ordering."""
        small = SetAssociativeCache(2 * KB, 4, 64)
        large = SetAssociativeCache(64 * KB, 4, 64)
        for cache in (small, large):
            for _ in range(4):
                cache.access_range(0, 16 * KB)
        assert large.hit_rate > small.hit_rate
        analytic_small = working_set_hit_rate(16 * KB, 2 * KB, 4)
        analytic_large = working_set_hit_rate(16 * KB, 64 * KB, 4)
        assert analytic_large > analytic_small


class TestDram:
    def test_read_time(self):
        dram = DramTracker(bytes_per_cycle=1000.0)
        assert dram.read(5000.0) == pytest.approx(5.0)

    def test_totals(self):
        dram = DramTracker(1000.0)
        dram.read(100.0)
        dram.write(200.0)
        dram.serve_remote(300.0)
        assert dram.total_bytes == 600.0
        assert dram.busy_cycles() == pytest.approx(0.6)

    def test_reset(self):
        dram = DramTracker(1000.0)
        dram.read(100.0)
        dram.reset()
        assert dram.total_bytes == 0.0

    def test_make_trackers(self):
        assert len(make_trackers(4, 1000.0)) == 4


class TestLinkFabric:
    def test_transfer_time_includes_latency(self):
        fabric = LinkFabric(4, 64.0, latency_cycles=120)
        cycles = fabric.transfer(0, 1, 6400.0, TrafficType.TEXTURE)
        assert cycles == pytest.approx(100.0 + 120.0)

    def test_self_transfer_free(self):
        fabric = LinkFabric(4, 64.0)
        assert fabric.transfer(1, 1, 1e6, TrafficType.TEXTURE) == 0.0
        assert fabric.total_bytes == 0.0

    def test_traffic_taxonomy(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 100.0, TrafficType.TEXTURE)
        fabric.transfer(0, 1, 50.0, TrafficType.COMPOSITION)
        by_type = fabric.bytes_by_type()
        assert by_type[TrafficType.TEXTURE] == 100.0
        assert by_type[TrafficType.COMPOSITION] == 50.0

    def test_directional_accounting(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 100.0, TrafficType.TEXTURE)
        assert fabric.bytes_between(0, 1) == 100.0
        assert fabric.bytes_between(1, 0) == 0.0

    def test_out_of_range_gpm_rejected(self):
        fabric = LinkFabric(2, 64.0)
        with pytest.raises(ValueError):
            fabric.transfer(0, 5, 10.0, TrafficType.TEXTURE)


class TestRemoteCache:
    def test_compulsory_bytes_always_cross(self):
        cache = RemoteCache(512 * KB)
        crossing = cache.filter(stream_bytes=1000.0, unique_bytes=1000.0)
        assert crossing == pytest.approx(1000.0)

    def test_zero_capacity_passthrough(self):
        cache = RemoteCache(0.0)
        assert cache.filter(5000.0, 100.0) == 5000.0

    def test_reuse_filtered_when_fits(self):
        cache = RemoteCache(512 * KB, effectiveness=1.0)
        crossing = cache.filter(stream_bytes=64 * KB, unique_bytes=8 * KB)
        assert crossing < 64 * KB

    def test_large_working_set_not_filtered(self):
        cache = RemoteCache(512 * KB, effectiveness=0.06)
        stream = 64.0 * MB
        crossing = cache.filter(stream, 16.0 * MB)
        assert crossing > 0.9 * stream

    def test_hit_rate_tracking(self):
        cache = RemoteCache(512 * KB, effectiveness=1.0)
        cache.filter(64 * KB, 8 * KB)
        assert 0.0 < cache.hit_rate < 1.0
        cache.reset()
        assert cache.hit_rate == 0.0
