"""Unit tests for repro.render.math3d and repro.render.mesh3d."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.math3d import (
    identity,
    look_at,
    normalize,
    perspective,
    rotate_y,
    transform_points,
    translate,
)
from repro.render.mesh3d import (
    TriangleMesh,
    make_box,
    make_checker_ground,
    make_cylinder,
    make_icosphere,
    make_quad,
)


class TestMath3D:
    def test_identity_leaves_points_alone(self):
        points = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 9.0]])
        out = transform_points(identity(), points)
        np.testing.assert_allclose(out[:, :3], points)
        np.testing.assert_allclose(out[:, 3], 1.0)

    def test_translate_moves_points(self):
        out = transform_points(translate(1, -2, 3), np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out[0, :3], [1, -2, 3])

    def test_normalize_unit_length(self):
        v = normalize([3.0, 4.0, 0.0])
        assert math.isclose(float(np.linalg.norm(v)), 1.0)

    def test_normalize_zero_vector_raises(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])

    def test_rotation_is_orthonormal(self):
        m = rotate_y(0.7)[:3, :3]
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert math.isclose(float(np.linalg.det(m)), 1.0)

    def test_rotate_y_quarter_turn(self):
        out = transform_points(rotate_y(math.pi / 2), np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out[0, :3], [0, 0, -1], atol=1e-12)

    def test_look_at_centers_target_on_axis(self):
        view = look_at((0, 0, 5), (0, 0, 0))
        out = transform_points(view, np.array([[0.0, 0.0, 0.0]]))
        # Target lands on the -z axis at distance 5.
        np.testing.assert_allclose(out[0, :3], [0, 0, -5], atol=1e-12)

    def test_look_at_keeps_eye_at_origin(self):
        view = look_at((3, 2, 5), (0, 1, 0))
        out = transform_points(view, np.array([[3.0, 2.0, 5.0]]))
        np.testing.assert_allclose(out[0, :3], [0, 0, 0], atol=1e-12)

    def test_perspective_maps_near_far_to_ndc_bounds(self):
        proj = perspective(90.0, 1.0, 1.0, 10.0)
        near = transform_points(proj, np.array([[0.0, 0.0, -1.0]]))
        far = transform_points(proj, np.array([[0.0, 0.0, -10.0]]))
        assert math.isclose(near[0, 2] / near[0, 3], -1.0)
        assert math.isclose(far[0, 2] / far[0, 3], 1.0)

    def test_perspective_rejects_bad_planes(self):
        with pytest.raises(ValueError):
            perspective(90.0, 1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            perspective(90.0, 1.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            perspective(0.0, 1.0, 0.1, 10.0)
        with pytest.raises(ValueError):
            perspective(90.0, -1.0, 0.1, 10.0)

    def test_transform_points_shape_validation(self):
        with pytest.raises(ValueError):
            transform_points(identity(), np.zeros((3,)))
        with pytest.raises(ValueError):
            transform_points(identity(), np.zeros((2, 5)))

    @settings(max_examples=25, deadline=None)
    @given(
        angle=st.floats(-math.pi, math.pi),
        x=st.floats(-10, 10),
        y=st.floats(-10, 10),
        z=st.floats(-10, 10),
    )
    def test_rotation_preserves_length(self, angle, x, y, z):
        point = np.array([[x, y, z]])
        out = transform_points(rotate_y(angle), point)
        assert math.isclose(
            float(np.linalg.norm(out[0, :3])),
            float(np.linalg.norm(point[0])),
            abs_tol=1e-9,
        )


class TestMeshes:
    def test_quad_has_two_triangles(self):
        quad = make_quad()
        assert quad.num_triangles == 2
        assert quad.num_vertices == 4

    def test_quad_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_quad(0.0, 1.0)

    def test_box_has_twelve_triangles(self):
        box = make_box()
        assert box.num_triangles == 12
        assert box.num_vertices == 24  # four per face, faces unshared

    def test_box_extents(self):
        box = make_box(2.0, 4.0, 6.0)
        spans = box.positions.max(axis=0) - box.positions.min(axis=0)
        np.testing.assert_allclose(spans, [2.0, 4.0, 6.0])

    def test_cylinder_triangle_count(self):
        cyl = make_cylinder(segments=16)
        assert cyl.num_triangles == 32

    def test_cylinder_needs_three_segments(self):
        with pytest.raises(ValueError):
            make_cylinder(segments=2)

    def test_ground_tiling(self):
        ground = make_checker_ground(extent=5.0, tiles=4)
        assert ground.num_triangles == 2 * 4 * 4
        assert np.allclose(ground.positions[:, 1], 0.0)

    def test_icosphere_subdivision_quadruples_faces(self):
        base = make_icosphere(subdivisions=0)
        sub = make_icosphere(subdivisions=1)
        assert base.num_triangles == 20
        assert sub.num_triangles == 80

    def test_icosphere_vertices_on_sphere(self):
        sphere = make_icosphere(radius=2.0, subdivisions=1)
        radii = np.linalg.norm(sphere.positions, axis=1)
        np.testing.assert_allclose(radii, 2.0, rtol=1e-9)

    def test_icosphere_rejects_deep_subdivision(self):
        with pytest.raises(ValueError):
            make_icosphere(subdivisions=9)

    def test_transformed_applies_matrix(self):
        quad = make_quad()
        moved = quad.transformed(translate(5, 0, 0))
        np.testing.assert_allclose(
            moved.positions[:, 0], quad.positions[:, 0] + 5.0
        )

    def test_merged_with_rebases_indices(self):
        a, b = make_quad(), make_quad()
        merged = a.merged_with(b)
        assert merged.num_vertices == 8
        assert merged.num_triangles == 4
        assert merged.faces[2:].min() >= 4

    def test_stats_mesh_matches_counts(self):
        cyl = make_cylinder(segments=8)
        stats = cyl.stats_mesh()
        assert stats.num_vertices == cyl.num_vertices
        assert stats.num_triangles == cyl.num_triangles

    def test_mesh_validates_shapes(self):
        with pytest.raises(ValueError):
            TriangleMesh(
                np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((1, 3), dtype=np.int32)
            )
        with pytest.raises(ValueError):
            TriangleMesh(
                np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((1, 3), dtype=np.int32)
            )

    def test_mesh_validates_face_indices(self):
        with pytest.raises(ValueError):
            TriangleMesh(
                np.zeros((3, 3)),
                np.zeros((3, 2)),
                np.array([[0, 1, 5]], dtype=np.int32),
            )
