"""Seeded synthetic scene generation.

The paper drives ATTILA-sim with OpenGL/Direct3D traces of five
commercial games (Table 3).  Those traces are not redistributable, so the
reproduction generates *statistically similar* scenes: the knobs that the
paper's mechanisms care about are

- the number of draws per frame (Table 3's ``#Draw`` column),
- the heavy-tailed distribution of triangles per draw (load imbalance,
  Fig. 10),
- the material pool size and reuse pattern (texture sharing level — the
  entire premise of OO-VR batching),
- per-eye screen footprints with small stereo disparity (left/right view
  redundancy exploited by SMP),
- the vertical skew of content (grounds/walls are denser than skies),
  which is what breaks tile-level SFR (H),
- overdraw and shader cost (fragment-stage load).

Everything is generated from a seeded :class:`numpy.random.Generator`, so
scenes are reproducible bit-for-bit across runs and platforms.

Construction paths
------------------

There are two construction paths with one contract:

- the **reference path** (:meth:`SyntheticSceneGenerator.make_frame_reference`
  / ``_make_object_reference``) is the original per-object scalar loop.
  It is the oracle: simple, obviously faithful to the distributions
  documented above, and kept unoptimised on purpose;
- the **batched path** (:meth:`SyntheticSceneGenerator.make_frame`) walks
  the *same* RNG stream in the same order but coalesces adjacent uniform
  draws into one ``Generator.random(k)`` call, replicates
  ``Generator.integers`` / ``Generator.choice(replace=False, p=...)``
  bit-exactly from raw draws (see ``_draw_frame_plan``), evaluates the
  derived per-object arithmetic vectorized over the whole frame, and
  materialises the dataclasses without re-running their validated
  ``__post_init__`` checks.  It also builds the frame's
  :class:`~repro.scene.batch.ObjectBatch` directly from the already
  vectorized columns, so the SoA view costs nothing extra.

The two paths produce bit-identical frames *and* leave the generator's
PCG64 position identical, which is what keeps every golden pinned before
the batched path landed valid after it.  ``tests/test_scene_batched.py``
pins that equivalence property-style over randomised profiles.  Mixing
the two paths on one generator instance is not stream-compatible (the
batched path shadows PCG64's internal 32-bit buffer used by
``integers``); use one path per generator, as ``make_scene`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.scene.batch import ObjectBatch
from repro.scene.geometry import Mesh, Viewport
from repro.scene.objects import RenderObject
from repro.scene.scene import Frame, Scene
from repro.scene.texture import Texture, TexturePool

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class SceneProfile:
    """Statistical shape of one application's frames.

    Parameters are per-frame unless stated otherwise.  Defaults are a
    generic mid-2000s PC game; the Table 3 suite overrides them per
    title (see :mod:`repro.scene.benchmarks`).
    """

    name: str
    num_objects: int
    width: int
    height: int
    #: Median triangles per draw; draws are log-normal around this.
    triangles_median: float = 800.0
    #: Log-normal sigma of triangles per draw (tail heaviness).
    triangles_sigma: float = 1.1
    #: Number of distinct materials (textures) in the pool.
    num_materials: int = 120
    #: Zipf exponent for material popularity: higher = more sharing.
    material_zipf: float = 1.1
    #: Textures bound per draw (diffuse + normal + specular ...).
    textures_per_object: Tuple[int, int] = (1, 4)
    #: Median texture size in bytes.
    texture_bytes_median: float = 1.0 * MB
    #: Log-normal sigma of texture sizes.
    texture_bytes_sigma: float = 0.8
    #: Mean depth complexity (overdraw) across draws.
    depth_complexity_mean: float = 1.35
    #: Mean fragment-shader complexity multiplier.
    shader_complexity_mean: float = 1.0
    #: Median object footprint as a fraction of the eye viewport area.
    footprint_median: float = 0.012
    #: Log-normal sigma of footprint areas.
    footprint_sigma: float = 1.0
    #: Vertical content skew in [0, 1): 0 = uniform, higher pushes
    #: object centres towards the lower half of the screen.
    vertical_skew: float = 0.25
    #: Maximum stereo disparity as a fraction of eye width.
    max_disparity: float = 0.035
    #: Fraction of objects visible in only one eye (HUD, near-edge).
    mono_fraction: float = 0.05
    #: Fraction of draws that depend on the previous draw (blending).
    dependency_fraction: float = 0.06

    def validate(self) -> None:
        if self.num_objects <= 0:
            raise ValueError("profile needs at least one object")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("resolution must be positive")
        if self.num_materials <= 0:
            raise ValueError("profile needs at least one material")
        if not 0 <= self.mono_fraction < 1:
            raise ValueError("mono_fraction must be in [0, 1)")
        if not 0 <= self.vertical_skew < 1:
            raise ValueError("vertical_skew must be in [0, 1)")
        lo, hi = self.textures_per_object
        if lo < 1 or hi < lo:
            raise ValueError("textures_per_object must be a valid range")


class SyntheticSceneGenerator:
    """Generates :class:`~repro.scene.scene.Scene` objects from a profile.

    One generator owns one texture pool, so all frames of the scene share
    materials exactly as a real game reuses its assets across frames.
    """

    def __init__(self, profile: SceneProfile, seed: int = 2019) -> None:
        profile.validate()
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        self._pool = TexturePool()
        self._materials: List[Texture] = []
        self._material_popularity: Optional[np.ndarray] = None
        #: Normalised popularity CDF, precomputed the way
        #: ``Generator.choice`` derives it per call (cumsum then divide
        #: by the last element) so the batched replica matches bit-wise.
        self._choice_cdf: Optional[np.ndarray] = None
        # Shadow of PCG64's internal next_uint32 buffer.  Scalar
        # ``Generator.integers`` draws 32-bit halves of each raw 64-bit
        # output and buffers the unused half across calls; the batched
        # path replicates that bookkeeping here (see _draw_frame_plan).
        self._has_uint32 = False
        self._uint32_buf = 0
        self._object_name_cache: List[str] = []
        self._build_materials()

    # -- materials -------------------------------------------------------

    def _build_materials(self) -> None:
        """Create the texture pool with a Zipf popularity distribution.

        A few materials ("stone", lightmap atlases) are used by many
        objects; most are used by one or two.  This produces exactly the
        sharing structure that Eq. 1's TSL detects.
        """
        p = self.profile
        sizes = self._rng.lognormal(
            mean=math.log(p.texture_bytes_median),
            sigma=p.texture_bytes_sigma,
            size=p.num_materials,
        )
        for index, size in enumerate(sizes):
            size_bytes = int(max(64 * KB, min(size, 16 * MB)))
            self._materials.append(
                self._pool.get_or_create(f"{p.name}/mat{index:04d}", size_bytes)
            )
        ranks = np.arange(1, p.num_materials + 1, dtype=float)
        weights = ranks ** (-p.material_zipf)
        self._material_popularity = weights / weights.sum()
        cdf = np.cumsum(self._material_popularity)
        self._choice_cdf = cdf / cdf[-1]
        self._material_ids = np.array(
            [texture.texture_id for texture in self._materials], dtype=np.int64
        )
        self._material_sizes = np.array(
            [texture.size_bytes for texture in self._materials], dtype=np.int64
        )

    @property
    def texture_pool(self) -> TexturePool:
        return self._pool

    def _pick_textures(self) -> Tuple[Texture, ...]:
        p = self.profile
        lo, hi = p.textures_per_object
        count = int(self._rng.integers(lo, hi + 1))
        count = min(count, len(self._materials))
        indices = self._rng.choice(
            len(self._materials),
            size=count,
            replace=False,
            p=self._material_popularity,
        )
        return tuple(self._materials[i] for i in sorted(indices))

    # -- placement --------------------------------------------------------

    def _object_viewports(
        self,
    ) -> Tuple[Optional[Viewport], Optional[Viewport], float]:
        """Left/right eye rectangles plus the object's footprint area."""
        p = self.profile
        eye_area = p.width * p.height
        area = eye_area * float(
            self._rng.lognormal(math.log(p.footprint_median), p.footprint_sigma)
        )
        area = min(area, 0.85 * eye_area)
        area = max(area, 64.0)
        aspect = float(self._rng.uniform(0.5, 2.0))
        w = min(math.sqrt(area * aspect), 0.95 * p.width)
        h = min(area / w, 0.95 * p.height)

        cx = float(self._rng.uniform(w / 2, p.width - w / 2))
        # Vertical skew: blend a uniform sample towards the lower half.
        u = float(self._rng.uniform(0.0, 1.0))
        skewed = u ** (1.0 / (1.0 + 2.5 * p.vertical_skew))
        cy = h / 2 + skewed * (p.height - h)
        cy = min(max(cy, h / 2), p.height - h / 2)

        left = Viewport(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        disparity = float(self._rng.uniform(-1.0, 1.0)) * p.max_disparity * p.width
        right = left.shifted(disparity)
        bounds = Viewport(0.0, 0.0, float(p.width), float(p.height))
        right_clamped = right.clamped(bounds)

        if self._rng.uniform() < p.mono_fraction:
            if self._rng.uniform() < 0.5:
                return left, None, area
            return None, right_clamped or left, area
        return left, right_clamped or left, area

    # -- objects: reference (oracle) path ---------------------------------

    def _make_object_reference(
        self, object_id: int, prev_id: Optional[int]
    ) -> RenderObject:
        """The original scalar object builder — the batched path's oracle."""
        p = self.profile
        triangles = int(
            max(
                8,
                self._rng.lognormal(math.log(p.triangles_median), p.triangles_sigma),
            )
        )
        # Indexed meshes: ~0.6 vertices per triangle for typical reuse.
        vertices = max(3, int(triangles * float(self._rng.uniform(0.5, 0.75))))
        left, right, _area = self._object_viewports()
        depth = 1.0 + float(
            self._rng.gamma(shape=2.0, scale=(p.depth_complexity_mean - 1.0) / 2.0)
        )
        shader = float(
            max(0.25, self._rng.normal(p.shader_complexity_mean, 0.25))
        )
        coverage = float(self._rng.uniform(0.30, 0.75))
        depends: Optional[int] = None
        if prev_id is not None and self._rng.uniform() < p.dependency_fraction:
            depends = prev_id
        return RenderObject(
            object_id=object_id,
            name=f"{p.name}/obj{object_id:05d}",
            mesh=Mesh(vertices, triangles),
            textures=self._pick_textures(),
            viewport_left=left,
            viewport_right=right,
            depth_complexity=depth,
            shader_complexity=shader,
            coverage=coverage,
            depends_on=depends,
        )

    def make_frame_reference(self, frame_id: int = 0) -> Frame:
        """Generate one frame through the scalar reference path."""
        objects: List[RenderObject] = []
        prev_id: Optional[int] = None
        for index in range(self.profile.num_objects):
            obj = self._make_object_reference(index, prev_id)
            objects.append(obj)
            prev_id = obj.object_id
        return Frame(
            objects=tuple(objects),
            width=self.profile.width,
            height=self.profile.height,
            frame_id=frame_id,
        )

    def make_scene_reference(self, num_frames: int = 4) -> Scene:
        """Reference-path counterpart of :meth:`make_scene`."""
        frames = tuple(self.make_frame_reference(i) for i in range(num_frames))
        return Scene(name=self.profile.name, frames=frames)

    # -- objects: batched path ---------------------------------------------

    def _choice_tail(self, found: List[int], size: int) -> List[int]:
        """Finish a collided without-replacement draw numpy-faithfully.

        Mirrors ``Generator.choice``'s rejection loop after the first
        iteration left fewer than ``size`` unique indices: zero out the
        found entries of the popularity vector, renormalise its CDF and
        draw again, consuming the exact doubles numpy would.
        """
        pop = self._material_popularity
        rnd = self._rng.random
        while len(found) < size:
            draws = rnd(size - len(found))
            masked = pop.copy()
            masked[found] = 0
            cdf = np.cumsum(masked)
            cdf /= cdf[-1]
            seen = set(found)
            for index in cdf.searchsorted(draws, side="right").tolist():
                if index not in seen:
                    seen.add(index)
                    found.append(index)
        return found

    def _draw_frame_plan(self, n: int):
        """Walk the RNG stream for ``n`` objects, recording raw draws.

        This is the stream-order-preserving core of the batched path:
        per object it performs the *same generator calls in the same
        order* as ``_make_object_reference``, except that

        - adjacent scalar ``uniform(a, b)`` draws become one
          ``random(k)`` call (identical consumption; ``uniform`` is
          ``low + (high - low) * next_double``),
        - ``lognormal``/``normal`` become ``standard_normal`` plus the
          exact affine/exp epilogue numpy applies in C,
        - ``integers(lo, hi + 1)`` is replicated from raw 64-bit draws:
          numpy serves scalar bounded integers from 32-bit halves
          (Lemire rejection on the low half first, high half buffered
          in PCG64's ``has_uint32``/``uinteger`` state) — the shadow
          buffer on ``self`` mirrors that bookkeeping,
        - ``choice(n, size, replace=False, p=...)`` is replicated from
          its documented algorithm: CDF ``searchsorted`` over a batch
          of doubles with first-occurrence dedup and a rejection tail.

        ``gamma`` and ``standard_normal`` stay scalar calls: their
        ziggurat/rejection sampling consumes a data-dependent number of
        raws, so batching them would move the stream (and the goldens).
        """
        p = self.profile
        rng = self._rng
        std = rng.standard_normal
        rnd = rng.random
        gam = rng.gamma
        raw = rng.bit_generator.random_raw
        exp = math.exp
        cdf = self._choice_cdf
        searchsorted = cdf.searchsorted
        dedup = dict.fromkeys

        ln_tri = math.log(p.triangles_median)
        s_tri = p.triangles_sigma
        ln_fp = math.log(p.footprint_median)
        s_fp = p.footprint_sigma
        mono_f = p.mono_fraction
        gamma_scale = (p.depth_complexity_mean - 1.0) / 2.0
        lo, hi = p.textures_per_object
        span = hi - lo
        rng_excl = span + 1
        # Lemire rejection threshold; 0 for power-of-two ranges.
        lemire_thr = (0x100000000 - rng_excl) % rng_excl if span else 0
        num_materials = len(self._materials)

        tri: List[float] = []
        vfrac: List[float] = []
        footprint: List[float] = []
        uni5: List[float] = []
        side: List[float] = []
        gamma_draws: List[float] = []
        shader_z: List[float] = []
        cov: List[float] = []
        dep: List[float] = []
        textures: List[List[int]] = []
        tri_a = tri.append
        vfrac_a = vfrac.append
        footprint_a = footprint.append
        uni5_e = uni5.extend
        side_a = side.append
        gamma_a = gamma_draws.append
        shader_a = shader_z.append
        cov_a = cov.append
        dep_a = dep.append
        textures_a = textures.append

        has32 = self._has_uint32
        buf32 = self._uint32_buf
        for i in range(n):
            tri_a(exp(ln_tri + s_tri * std()))
            vfrac_a(rnd())
            footprint_a(exp(ln_fp + s_fp * std()))
            u5 = rnd(5).tolist()
            uni5_e(u5)
            side_a(rnd() if u5[4] < mono_f else -1.0)
            gamma_a(gam(2.0, gamma_scale))
            shader_a(std())
            if i:
                c2 = rnd(2).tolist()
                cov_a(c2[0])
                dep_a(c2[1])
            else:
                cov_a(rnd())
                dep_a(2.0)  # sentinel: no dependency draw for object 0
            if span:
                while True:
                    if has32:
                        has32 = False
                        m = buf32 * rng_excl
                    else:
                        r = int(raw())
                        buf32 = r >> 32
                        has32 = True
                        m = (r & 0xFFFFFFFF) * rng_excl
                    if (m & 0xFFFFFFFF) >= lemire_thr:
                        break
                count = lo + (m >> 32)
            else:
                count = lo
            if count > num_materials:
                count = num_materials
            picked = searchsorted(rnd(count), side="right").tolist()
            if count > 1:
                unique = list(dedup(picked))
                if len(unique) != count:
                    unique = self._choice_tail(unique, count)
                picked = unique
            picked.sort()
            textures_a(picked)
        self._has_uint32 = has32
        self._uint32_buf = buf32
        return (
            tri, vfrac, footprint, uni5, side,
            gamma_draws, shader_z, cov, dep, textures,
        )

    def _object_names(self, n: int) -> List[str]:
        """Names for object ids 0..n-1, cached across frames."""
        names = self._object_name_cache
        if len(names) < n:
            prefix = f"{self.profile.name}/obj"
            names.extend(f"{prefix}{i:05d}" for i in range(len(names), n))
        return names

    def make_frame(self, frame_id: int = 0) -> Frame:
        """Generate one frame with ``profile.num_objects`` draws.

        Batched equivalent of :meth:`make_frame_reference`: identical
        output bit-for-bit (and identical generator advancement), with
        the per-object arithmetic evaluated as numpy arrays and the
        frame's :class:`~repro.scene.batch.ObjectBatch` built directly
        from those arrays (planted into the frame's ``cached_property``
        slot, so the SoA flattening pass never runs).
        """
        p = self.profile
        n = p.num_objects
        (
            tri, vfrac, footprint, uni5, side,
            gamma_draws, shader_z, cov, dep, textures,
        ) = self._draw_frame_plan(n)

        # -- vectorized derived arithmetic (expressions mirror the
        # reference path elementwise; IEEE-identical) -------------------
        tri_f = np.maximum(np.array(tri), 8.0)
        triangles = tri_f.astype(np.int64)
        vertex_frac = 0.5 + (0.75 - 0.5) * np.array(vfrac)
        vertices = np.maximum(
            (triangles.astype(np.float64) * vertex_frac).astype(np.int64), 3
        )

        u5 = np.array(uni5).reshape(n, 5)
        eye_area = p.width * p.height
        area = eye_area * np.array(footprint)
        area = np.minimum(area, 0.85 * eye_area)
        area = np.maximum(area, 64.0)
        aspect = 0.5 + (2.0 - 0.5) * u5[:, 0]
        w = np.minimum(np.sqrt(area * aspect), 0.95 * p.width)
        h = np.minimum(area / w, 0.95 * p.height)
        half_w = w / 2
        half_h = h / 2
        cx = half_w + ((p.width - half_w) - half_w) * u5[:, 1]
        # Scalar ** per object: numpy's SIMD pow is not bit-identical
        # to CPython's float ** the reference path uses.
        skew_exponent = 1.0 / (1.0 + 2.5 * p.vertical_skew)
        skewed = np.array([u ** skew_exponent for u in u5[:, 2].tolist()])
        cy = half_h + skewed * (p.height - h)
        cy = np.minimum(np.maximum(cy, half_h), p.height - half_h)

        left_x0 = cx - half_w
        left_y0 = cy - half_h
        left_x1 = cx + half_w
        left_y1 = cy + half_h
        disparity = (-1.0 + (1.0 - (-1.0)) * u5[:, 3]) * p.max_disparity * p.width
        # right = left.shifted(disparity), clamped to the screen bounds.
        clamp_x0 = np.maximum(left_x0 + disparity, 0.0)
        clamp_y0 = np.maximum(left_y0, 0.0)
        clamp_x1 = np.minimum(left_x1 + disparity, float(p.width))
        clamp_y1 = np.minimum(left_y1, float(p.height))
        right_on_screen = ~((clamp_x1 <= clamp_x0) | (clamp_y1 <= clamp_y0))
        # Mono objects keep one eye; off-screen right falls back to the
        # left rectangle exactly like `right_clamped or left`.
        side_arr = np.array(side)
        mono = u5[:, 4] < p.mono_fraction
        left_present = ~(mono & (side_arr >= 0.5))
        right_present = ~(mono & (side_arr < 0.5))
        right_x0 = np.where(right_on_screen, clamp_x0, left_x0)
        right_y0 = np.where(right_on_screen, clamp_y0, left_y0)
        right_x1 = np.where(right_on_screen, clamp_x1, left_x1)
        right_y1 = np.where(right_on_screen, clamp_y1, left_y1)

        depth = 1.0 + np.array(gamma_draws)
        shader = np.maximum(
            0.25, p.shader_complexity_mean + 0.25 * np.array(shader_z)
        )
        coverage = 0.30 + (0.75 - 0.30) * np.array(cov)
        depends = np.array(dep) < p.dependency_fraction
        if n:
            depends[0] = False

        # -- materialise the API dataclasses ----------------------------
        # Field values equal the reference path's validated output, so
        # __init__/__post_init__ re-checks are skipped (object.__new__).
        objects = self._materialise_objects(
            n, vertices, triangles, textures,
            left_x0, left_y0, left_x1, left_y1,
            right_x0, right_y0, right_x1, right_y1,
            left_present, right_present, right_on_screen,
            depth, shader, coverage, depends,
        )
        frame = Frame(
            objects=objects,
            width=p.width,
            height=p.height,
            frame_id=frame_id,
        )

        # -- the SoA batch, from the columns we already hold ------------
        counts = np.fromiter(
            (len(t) for t in textures), dtype=np.int64, count=n
        )
        tex_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=tex_offsets[1:])
        flat = [index for picked in textures for index in picked]
        flat_idx = np.array(flat, dtype=np.int64)
        left_area = np.where(
            left_present, (left_x1 - left_x0) * (left_y1 - left_y0), 0.0
        )
        right_area = np.where(
            right_present, (right_x1 - right_x0) * (right_y1 - right_y0), 0.0
        )
        vertex_bytes = np.full(n, 32, dtype=np.int64)
        batch = ObjectBatch(
            objects=objects,
            object_ids=np.arange(n, dtype=np.int64),
            num_vertices=vertices,
            num_triangles=triangles,
            vertex_bytes=vertex_bytes,
            vertex_buffer_bytes=vertices * vertex_bytes,
            depth_complexity=depth,
            shader_complexity=shader,
            coverage=coverage,
            left_area=left_area,
            right_area=right_area,
            has_left=left_present,
            has_right=right_present,
            tex_offsets=tex_offsets,
            tex_ids=self._material_ids[flat_idx],
            tex_sizes=self._material_sizes[flat_idx],
        )
        frame.__dict__["object_batch"] = batch
        return frame

    def _materialise_objects(
        self, n, vertices, triangles, textures,
        left_x0, left_y0, left_x1, left_y1,
        right_x0, right_y0, right_x1, right_y1,
        left_present, right_present, right_on_screen,
        depth, shader, coverage, depends,
    ) -> Tuple[RenderObject, ...]:
        """Fast dataclass construction from the vectorized columns."""
        materials = self._materials
        names = self._object_names(n)
        new = object.__new__
        verts_l = vertices.tolist()
        tris_l = triangles.tolist()
        lx0 = left_x0.tolist()
        ly0 = left_y0.tolist()
        lx1 = left_x1.tolist()
        ly1 = left_y1.tolist()
        rx0 = right_x0.tolist()
        ry0 = right_y0.tolist()
        rx1 = right_x1.tolist()
        ry1 = right_y1.tolist()
        lp = left_present.tolist()
        rp = right_present.tolist()
        rok = right_on_screen.tolist()
        depth_l = depth.tolist()
        shader_l = shader.tolist()
        cov_l = coverage.tolist()
        dep_l = depends.tolist()
        objects: List[RenderObject] = []
        append = objects.append
        for i in range(n):
            mesh = new(Mesh)
            md = mesh.__dict__
            md["num_vertices"] = verts_l[i]
            md["num_triangles"] = tris_l[i]
            md["vertex_bytes"] = 32
            left_vp = None
            if lp[i]:
                left_vp = new(Viewport)
                vd = left_vp.__dict__
                vd["x0"] = lx0[i]
                vd["y0"] = ly0[i]
                vd["x1"] = lx1[i]
                vd["y1"] = ly1[i]
            right_vp = None
            if rp[i]:
                if rok[i]:
                    right_vp = new(Viewport)
                    vd = right_vp.__dict__
                    vd["x0"] = rx0[i]
                    vd["y0"] = ry0[i]
                    vd["x1"] = rx1[i]
                    vd["y1"] = ry1[i]
                elif left_vp is not None:
                    right_vp = left_vp
                else:
                    right_vp = new(Viewport)
                    vd = right_vp.__dict__
                    vd["x0"] = lx0[i]
                    vd["y0"] = ly0[i]
                    vd["x1"] = lx1[i]
                    vd["y1"] = ly1[i]
            obj = new(RenderObject)
            od = obj.__dict__
            od["object_id"] = i
            od["name"] = names[i]
            od["mesh"] = mesh
            od["textures"] = tuple(map(materials.__getitem__, textures[i]))
            od["viewport_left"] = left_vp
            od["viewport_right"] = right_vp
            od["depth_complexity"] = depth_l[i]
            od["shader_complexity"] = shader_l[i]
            od["coverage"] = cov_l[i]
            od["depends_on"] = i - 1 if dep_l[i] else None
            append(obj)
        return tuple(objects)

    # -- frames and scenes --------------------------------------------------

    def make_scene(self, num_frames: int = 4) -> Scene:
        """Generate a scene of ``num_frames`` frames sharing one pool."""
        frames = tuple(self.make_frame(i) for i in range(num_frames))
        return Scene(name=self.profile.name, frames=frames)
