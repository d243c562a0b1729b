"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.middleware import OOMiddleware
from repro.core.tsl import texture_sharing_level
from repro.memory.cache import miss_bytes
from repro.memory.link import LinkFabric, TrafficType
from repro.memory.placement import PagePlacement, PlacementPolicy
from repro.memory.address import texture_resource
from repro.scene.geometry import Mesh, Viewport, full_screen, vertical_strips
from repro.scene.objects import RenderObject
from repro.scene.texture import Texture
from repro.stats.metrics import geomean
from tests.oracles import (
    SetAssociativeCache,
    build_batches_reference,
    normalize_pixel_shares,
    strip_shares,
    working_set_hit_rate,
)

KB = 1024


# -- strategies -------------------------------------------------------------

texture_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(1, 64)),
    min_size=1,
    max_size=6,
    unique_by=lambda t: t[0],
).map(
    lambda pairs: tuple(Texture(tid, f"t{tid}", size * KB) for tid, size in pairs)
)

viewports = st.tuples(
    st.floats(0, 500), st.floats(0, 500),
    st.floats(1, 500), st.floats(1, 500),
).map(lambda t: Viewport(t[0], t[1], t[0] + t[2], t[1] + t[3]))


# -- TSL (Eq. 1) --------------------------------------------------------------


class TestTSLProperties:
    @given(texture_lists, texture_lists)
    def test_bounded_zero_one(self, a, b):
        tsl = texture_sharing_level(a, b)
        assert 0.0 <= tsl <= 1.0

    @given(texture_lists)
    def test_disjoint_is_zero(self, a):
        other = tuple(
            Texture(t.texture_id + 100, t.name + "x", t.size_bytes) for t in a
        )
        assert texture_sharing_level(a, other) == 0.0

    @given(texture_lists, texture_lists)
    def test_permutation_invariant(self, a, b):
        assert math.isclose(
            texture_sharing_level(a, b),
            texture_sharing_level(tuple(reversed(a)), tuple(reversed(b))),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )

    @given(texture_lists)
    def test_single_dominant_texture_full(self, a):
        dominant = (a[0],)
        assert texture_sharing_level(dominant, dominant) == 1.0


# -- middleware batching -------------------------------------------------------


def _objects_from(data) -> list:
    objects = []
    for index, (tris, tex_ids) in enumerate(data):
        textures = tuple(Texture(t, f"t{t}", KB * (t + 1)) for t in tex_ids)
        vp = Viewport(0, 0, 64, 64)
        objects.append(
            RenderObject(
                object_id=index,
                name=f"o{index}",
                mesh=Mesh(max(3, tris // 2), tris),
                textures=textures,
                viewport_left=vp,
                viewport_right=vp.shifted(4),
            )
        )
    return objects


object_specs = st.lists(
    st.tuples(
        st.integers(10, 5000),
        st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
    ),
    min_size=1,
    max_size=30,
)


class TestMiddlewareProperties:
    @given(object_specs)
    @settings(max_examples=50, deadline=None)
    def test_partition_exact_cover(self, specs):
        objects = _objects_from(specs)
        batches = OOMiddleware().build_batches(objects)
        ids = sorted(oid for b in batches for oid in b.object_ids)
        assert ids == sorted(o.object_id for o in objects)

    @given(object_specs)
    @settings(max_examples=50, deadline=None)
    def test_triangles_conserved(self, specs):
        objects = _objects_from(specs)
        batches = OOMiddleware().build_batches(objects)
        assert sum(b.total_triangles for b in batches) == sum(
            o.mesh.num_triangles for o in objects
        )

    @given(object_specs)
    @settings(max_examples=50, deadline=None)
    def test_batch_ids_sequential(self, specs):
        batches = OOMiddleware().build_batches(_objects_from(specs))
        assert [b.batch_id for b in batches] == list(range(len(batches)))


#: Few sizes, so equal-size textures make Eq. 1 land exactly on the
#: thresholds (root (a, b) vs candidate (a, c) is exactly 0.5).
_SOUP_SIZES = (KB, KB, KB, 2 * KB, 3 * KB)


_soup_objects = st.lists(
    st.tuples(
        st.sampled_from((0, 1, 3, 60, 600, 2000, 5000)),  # triangles
        st.lists(st.integers(0, 5), max_size=4),  # bindings, may repeat
        st.none() | st.integers(0, 39),  # depends_on
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def grouping_soups(draw):
    """Objects with duplicate bindings, dependency chains, zero-triangle
    meshes and texture-less draws, plus a cap and a threshold."""
    sizes = draw(st.lists(st.sampled_from(_SOUP_SIZES), min_size=6, max_size=6))
    textures = [Texture(tid, f"t{tid}", size) for tid, size in enumerate(sizes)]
    vp = Viewport(0, 0, 64, 64)
    objects = [
        RenderObject(
            object_id=index,
            name=f"o{index}",
            mesh=Mesh(tris and max(3, tris // 2), tris),
            textures=tuple(textures[t] for t in bound),
            viewport_left=vp,
            viewport_right=vp.shifted(4),
            depends_on=None if parent == index else parent,
        )
        for index, (tris, bound, parent) in enumerate(draw(_soup_objects))
    ]
    cap = draw(st.sampled_from((1, 2, 60, 1000, 4096)) | st.integers(1, 9000))
    threshold = draw(
        st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 0.9)) | st.floats(0.0, 0.9)
    )
    return objects, cap, threshold


class TestColumnarGroupingProperties:
    @given(grouping_soups())
    @settings(max_examples=300, deadline=None)
    def test_columnar_equals_reference(self, soup):
        objects, cap, threshold = soup
        middleware = OOMiddleware(triangle_limit=cap, tsl_threshold=threshold)
        columnar = middleware.build_batches(objects)
        reference = build_batches_reference(middleware, objects)
        assert columnar == reference
        assert [b.object_ids for b in columnar] == [
            b.object_ids for b in reference
        ]


# -- cache models ---------------------------------------------------------------


class TestCacheProperties:
    @given(
        st.floats(1.0, 1e9),
        st.floats(1.0, 1e9),
        st.floats(1.0, 64.0),
    )
    def test_hit_rate_bounded(self, unique, cache, reuse):
        hit = working_set_hit_rate(unique, cache, reuse)
        assert 0.0 <= hit <= 1.0

    @given(st.floats(1.0, 1e8), st.floats(1.0, 1e8))
    def test_miss_bytes_bounded_by_stream_and_unique(self, stream, unique):
        assume(unique <= stream)
        out = miss_bytes(stream, unique, 1e6)
        assert unique - 1e-6 <= out <= stream + 1e-6

    @given(st.floats(1e3, 1e8), st.floats(1e3, 1e8))
    def test_bigger_cache_never_more_misses(self, stream, unique):
        assume(unique <= stream)
        small = miss_bytes(stream, unique, 64 * KB)
        large = miss_bytes(stream, unique, 1024 * KB)
        assert large <= small + 1e-6

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_exact_cache_hits_plus_misses(self, addresses):
        cache = SetAssociativeCache(4 * KB, 4, 64)
        for address in addresses:
            cache.access(address)
        assert cache.hits + cache.misses == len(addresses)

    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_exact_cache_resident_bounded(self, addresses):
        cache = SetAssociativeCache(2 * KB, 2, 64)
        for address in addresses:
            cache.access(address)
        assert cache.resident_lines <= cache.num_sets * cache.ways


# -- placement -------------------------------------------------------------------


class TestPlacementProperties:
    @given(
        st.integers(1, 8),
        st.integers(1, 40),
        st.integers(0, 7),
    )
    def test_owner_fractions_sum_to_one(self, num_gpms, pages, toucher):
        assume(toucher < num_gpms)
        placement = PagePlacement(num_gpms, 64 * KB, PlacementPolicy.INTERLEAVED)
        resource = texture_resource(0, pages * 64 * KB)
        fractions = placement.owner_fractions(resource, toucher)
        assert math.isclose(sum(fractions.values()), 1.0)

    @given(st.integers(2, 8), st.integers(1, 40))
    def test_replicate_then_local(self, num_gpms, pages):
        placement = PagePlacement(num_gpms, 64 * KB)
        resource = texture_resource(0, pages * 64 * KB)
        placement.place_fixed(resource, 0)
        placement.replicate(resource, [1])
        assert placement.local_fraction(resource, 1) == 1.0

    @given(st.integers(2, 6), st.lists(st.integers(1, 30), min_size=1, max_size=10))
    def test_resident_bytes_monotone(self, num_gpms, sizes):
        placement = PagePlacement(num_gpms, 64 * KB)
        last = 0.0
        for index, pages in enumerate(sizes):
            placement.place_fixed(
                texture_resource(index, pages * 64 * KB), index % num_gpms
            )
            assert placement.total_resident_bytes >= last
            last = placement.total_resident_bytes


# -- link fabric -------------------------------------------------------------------


class TestFabricProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.floats(0.0, 1e6)
            ),
            max_size=50,
        )
    )
    def test_total_equals_sum_of_pairs(self, transfers):
        fabric = LinkFabric(4, 64.0)
        expected = 0.0
        for src, dst, nbytes in transfers:
            fabric.transfer(src, dst, nbytes, TrafficType.TEXTURE)
            if src != dst and nbytes > 0:
                expected += nbytes
        assert math.isclose(fabric.total_bytes, expected, abs_tol=1e-6)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0.0, 1e6)),
            max_size=50,
        )
    )
    def test_by_type_partition(self, transfers):
        fabric = LinkFabric(4, 64.0)
        for index, (src, dst, nbytes) in enumerate(transfers):
            traffic = list(TrafficType)[index % len(TrafficType)]
            fabric.transfer(src, dst, nbytes, traffic)
        assert math.isclose(
            sum(fabric.bytes_by_type().values()), fabric.total_bytes, abs_tol=1e-6
        )


# -- geometry ----------------------------------------------------------------------


class TestGeometryProperties:
    @given(viewports, st.integers(1, 8))
    def test_strip_pixel_shares_normalised(self, viewport, count):
        screen = full_screen(1000, 1000)
        clipped = viewport.clamped(screen)
        assume(clipped is not None and clipped.area > 0)
        strips = vertical_strips(screen, count)
        shares = normalize_pixel_shares(strip_shares([clipped], strips))
        assert math.isclose(sum(s.pixel_share for s in shares), 1.0)

    @given(viewports, st.floats(-100, 100), st.floats(-100, 100))
    def test_shift_preserves_area(self, viewport, dx, dy):
        assert math.isclose(viewport.shifted(dx, dy).area, viewport.area)


# -- stats ------------------------------------------------------------------------


class TestStatsProperties:
    @given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=20))
    def test_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=10))
    def test_geomean_scale_invariant(self, values):
        scaled = [v * 7.0 for v in values]
        assert math.isclose(geomean(scaled), geomean(values) * 7.0, rel_tol=1e-9)
