"""Scene and workload substrate.

This subpackage models everything the rendering frameworks consume:

- :mod:`repro.scene.texture` — texture resources and the shared pool;
- :mod:`repro.scene.geometry` — meshes and screen-space viewports;
- :mod:`repro.scene.objects` — render objects (draw calls) with stereo
  views, texture bindings and draw-order dependencies;
- :mod:`repro.scene.batch` — struct-of-array views (:class:`ObjectBatch`,
  :class:`TriangleBatch`) feeding the vectorized hot path;
- :mod:`repro.scene.scene` — frames and multi-frame scenes, including
  expansion of stereo draws for SMP-less pipelines;
- :mod:`repro.scene.synthetic` — seeded generators producing game-like
  object distributions (vectorized, with a scalar reference oracle);
- :mod:`repro.scene.benchmarks` — the Table 3 suite (DM3, HL2, NFS,
  UT3, WE) at the paper's resolutions;
- :mod:`repro.scene.vr` — Table 1 VR-vs-PC display requirement constants.
"""

from repro.scene.texture import Texture, TexturePool
from repro.scene.geometry import Mesh, Viewport
from repro.scene.batch import ObjectBatch, TriangleBatch
from repro.scene.objects import Eye, RenderObject, StereoDraw
from repro.scene.scene import Frame, Scene
from repro.scene.synthetic import SceneProfile, SyntheticSceneGenerator
from repro.scene.benchmarks import (
    BENCHMARKS,
    WORKLOADS,
    BenchmarkSpec,
    benchmark_names,
    make_benchmark_scene,
    workload_scene,
)

__all__ = [
    "Texture",
    "TexturePool",
    "Mesh",
    "Viewport",
    "Eye",
    "ObjectBatch",
    "RenderObject",
    "StereoDraw",
    "TriangleBatch",
    "Frame",
    "Scene",
    "SceneProfile",
    "SyntheticSceneGenerator",
    "BENCHMARKS",
    "WORKLOADS",
    "BenchmarkSpec",
    "benchmark_names",
    "make_benchmark_scene",
    "workload_scene",
]
