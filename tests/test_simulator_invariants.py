"""Cross-cutting simulator invariants (hypothesis-driven).

These are the conservation laws the figures silently rely on: byte
counters never go negative, placement accounting balances, frame time
dominates every GPM's busy time, and identical inputs give identical
outputs (the simulator is deterministic).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_system
from repro.extensions.topology import RoutedLinkFabric, Topology
from repro.frameworks.base import build_framework
from repro.memory.address import texture_resource
from repro.memory.link import LinkFabric, TrafficType
from repro.memory.placement import PagePlacement, PlacementPolicy
from repro.scene.benchmarks import make_benchmark_scene

PAGE = 64 * 1024


class TestPlacementMigration:
    def make_placement(self, gpms=4):
        return PagePlacement(gpms, PAGE, PlacementPolicy.FIRST_TOUCH)

    def test_migrate_rehomes_all_pages(self):
        placement = self.make_placement()
        resource = texture_resource(0, 10 * PAGE)
        placement.place_fixed(resource, 0)
        moved = placement.migrate(resource, 3)
        assert moved == 10 * PAGE
        assert placement.local_fraction(resource, 3) == 1.0
        assert placement.local_fraction(resource, 0) == 0.0

    def test_migrate_to_current_owner_is_free(self):
        placement = self.make_placement()
        resource = texture_resource(1, 4 * PAGE)
        placement.place_fixed(resource, 2)
        assert placement.migrate(resource, 2) == 0.0

    def test_migrate_unplaced_places_for_free(self):
        placement = self.make_placement()
        resource = texture_resource(2, 4 * PAGE)
        assert placement.migrate(resource, 1) == 0.0
        assert placement.local_fraction(resource, 1) == 1.0

    def test_migrate_is_idempotent(self):
        placement = self.make_placement()
        resource = texture_resource(3, 6 * PAGE)
        placement.place_fixed(resource, 0)
        placement.migrate(resource, 1)
        assert placement.migrate(resource, 1) == 0.0

    def test_migrate_drops_replicas(self):
        placement = self.make_placement()
        resource = texture_resource(4, 4 * PAGE)
        placement.place_fixed(resource, 0)
        placement.replicate(resource, [2])
        placement.migrate(resource, 3)
        # After migration only GPM 3 holds the resource.
        assert placement.local_fraction(resource, 2) == 1.0 or (
            placement.owner_fractions(resource, 2) == {3: 1.0}
        )

    def test_migrate_validates_gpm(self):
        placement = self.make_placement()
        resource = texture_resource(5, PAGE)
        with pytest.raises(ValueError):
            placement.migrate(resource, 9)

    @settings(max_examples=25, deadline=None)
    @given(
        pages=st.integers(1, 40),
        src=st.integers(0, 3),
        dst=st.integers(0, 3),
    )
    def test_property_resident_bytes_conserved(self, pages, src, dst):
        placement = self.make_placement()
        resource = texture_resource(7, pages * PAGE)
        placement.place_fixed(resource, src)
        before = placement.total_resident_bytes
        placement.migrate(resource, dst)
        assert placement.total_resident_bytes == pytest.approx(before)


class TestFabricInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        transfers=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.floats(1.0, 1e6),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_total_bytes_is_sum_of_cross_gpm_transfers(self, transfers):
        fabric = LinkFabric(4, 64.0)
        expected = 0.0
        for src, dst, nbytes in transfers:
            fabric.transfer(src, dst, nbytes, TrafficType.TEXTURE)
            if src != dst:
                expected += nbytes
        assert fabric.total_bytes == pytest.approx(expected)
        assert sum(fabric.bytes_by_type().values()) == pytest.approx(expected)

    @settings(max_examples=25, deadline=None)
    @given(
        topology=st.sampled_from(list(Topology)),
        transfers=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.floats(1.0, 1e6)
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_property_routed_logical_equals_base_accounting(
        self, topology, transfers
    ):
        """Routed fabrics agree with the flat fabric on *logical* bytes."""
        routed = RoutedLinkFabric(4, 64.0, 0, topology)
        flat = LinkFabric(4, 64.0)
        for src, dst, nbytes in transfers:
            routed.transfer(src, dst, nbytes, TrafficType.TEXTURE)
            flat.transfer(src, dst, nbytes, TrafficType.TEXTURE)
        assert routed.total_bytes == pytest.approx(flat.total_bytes)
        # Wire load covers the logical bytes (>= up to FP summation
        # order: the two counters accumulate the same floats in
        # different orders, so compare with relative slack).
        assert routed.wire_bytes >= routed.total_bytes * (1.0 - 1e-12)

    def test_directional_bytes_partition_total(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 100.0, TrafficType.TEXTURE)
        fabric.transfer(2, 1, 50.0, TrafficType.VERTEX)
        fabric.transfer(1, 3, 25.0, TrafficType.COMMAND)
        into_1 = sum(fabric.bytes_between(src, 1) for src in range(4))
        assert into_1 == 150.0
        assert sum(fabric.bytes_between(1, dst) for dst in range(4)) == 25.0
        pairs = sum(
            fabric.bytes_between(src, dst)
            for src in range(4)
            for dst in range(4)
        )
        assert pairs == pytest.approx(fabric.total_bytes)


class TestSystemInvariants:
    SCENE = make_benchmark_scene("HL2-640", num_frames=2, draw_scale=0.08)

    @pytest.mark.parametrize(
        "scheme", ["baseline", "afr", "tile-v", "tile-h", "object", "oo-app", "oo-vr"]
    )
    def test_frame_time_dominates_busy_time(self, scheme):
        result = build_framework(scheme).render_scene(self.SCENE)
        for frame in result.frames:
            # Composition may add to the critical path, so the frame is
            # at least as long as the busiest GPM's render phase.
            assert frame.cycles >= max(frame.gpm_busy_cycles) - 1e-6

    @pytest.mark.parametrize("scheme", ["baseline", "object", "oo-vr"])
    def test_determinism(self, scheme):
        a = build_framework(scheme).render_scene(self.SCENE)
        b = build_framework(scheme).render_scene(self.SCENE)
        assert a.single_frame_cycles == b.single_frame_cycles
        assert a.mean_inter_gpm_bytes_per_frame == pytest.approx(
            b.mean_inter_gpm_bytes_per_frame
        )

    @pytest.mark.parametrize("scheme", ["baseline", "object", "oo-vr"])
    def test_traffic_and_dram_counters_non_negative(self, scheme):
        result = build_framework(scheme).render_scene(self.SCENE)
        for frame in result.frames:
            assert frame.inter_gpm_bytes >= 0.0
            assert all(b >= 0.0 for b in frame.dram_bytes)
            assert all(c >= 0.0 for c in frame.gpm_busy_cycles)

    def test_single_gpm_system_has_no_link_traffic(self):
        config = baseline_system(num_gpms=1)
        result = build_framework("oo-vr", config).render_scene(self.SCENE)
        for frame in result.frames:
            assert frame.inter_gpm_bytes == 0.0

    def test_more_gpms_never_slower_for_oovr(self):
        small = build_framework(
            "oo-vr", baseline_system(num_gpms=2)
        ).render_scene(self.SCENE)
        large = build_framework(
            "oo-vr", baseline_system(num_gpms=8)
        ).render_scene(self.SCENE)
        assert large.single_frame_cycles <= small.single_frame_cycles * 1.05

    def test_disabling_numa_optimizations_never_helps(self):
        from dataclasses import replace

        on = baseline_system()
        off = replace(on, numa_optimizations=False)
        fast = build_framework("baseline", on).render_scene(self.SCENE)
        slow = build_framework("baseline", off).render_scene(self.SCENE)
        assert slow.single_frame_cycles >= fast.single_frame_cycles * 0.999
