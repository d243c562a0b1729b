"""The Table 3 benchmark suite.

Five games, matching the paper's draw counts and resolutions:

=====  ====================  ========  =============  ======
Abbr.  Name                  Library   Resolution(s)  #Draw
=====  ====================  ========  =============  ======
DM3    Doom 3                OpenGL    1600x1200,     191
                                       1280x1024,
                                       640x480
HL2    Half-Life 2           DirectX   1600x1200,     328
                                       1280x1024,
                                       640x480
NFS    Need For Speed        DirectX   1280x1024      1267
UT3    Unreal Tournament 3   DirectX   1280x1024      876
WE     Wolfenstein           DirectX   640x480        1697
=====  ====================  ========  =============  ======

Per-title profile parameters (triangle size distribution, material reuse,
overdraw, shader cost) are set to reflect the engines' published frame
characteristics: Doom 3's stencil-shadowed indoor scenes have few, large,
heavily-lit draws; Source-engine HL2 mixes indoor/outdoor with broad
material reuse; NFS streams many small draws with extreme road/car
texture reuse; UT3 is shader-heavy; Wolfenstein (RtCW-era) issues very
many small draws at low resolution.  The absolute values are synthetic;
experiments report normalised results exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.scene.scene import Scene
from repro.scene.synthetic import MB, SceneProfile, SyntheticSceneGenerator


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table 3, plus the synthetic profile parameters."""

    abbr: str
    title: str
    library: str
    resolutions: Tuple[Tuple[int, int], ...]
    num_draws: int
    profile: SceneProfile

    @property
    def default_resolution(self) -> Tuple[int, int]:
        """The resolution used when a workload name has no suffix."""
        return self.resolutions[0]


def _profile(name: str, draws: int, width: int, height: int, **overrides) -> SceneProfile:
    base = SceneProfile(name=name, num_objects=draws, width=width, height=height)
    return replace(base, **overrides) if overrides else base


_DM3 = BenchmarkSpec(
    abbr="DM3",
    title="Doom 3",
    library="OpenGL",
    resolutions=((1280, 1024), (1600, 1200), (640, 480)),
    num_draws=191,
    profile=_profile(
        "DM3",
        191,
        1280,
        1024,
        triangles_median=1500.0,
        triangles_sigma=1.35,
        num_materials=70,
        material_zipf=1.0,
        texture_bytes_median=1.5 * MB,
        depth_complexity_mean=1.9,  # stencil shadow overdraw
        shader_complexity_mean=1.4,  # per-pixel lighting everywhere
        footprint_median=0.03,
        vertical_skew=0.20,
    ),
)

_HL2 = BenchmarkSpec(
    abbr="HL2",
    title="Half-Life 2",
    library="DirectX",
    resolutions=((1280, 1024), (1600, 1200), (640, 480)),
    num_draws=328,
    profile=_profile(
        "HL2",
        328,
        1280,
        1024,
        triangles_median=900.0,
        triangles_sigma=1.2,
        num_materials=140,
        material_zipf=1.15,
        texture_bytes_median=1.0 * MB,
        depth_complexity_mean=1.5,
        shader_complexity_mean=1.0,
        footprint_median=0.02,
        vertical_skew=0.26,
    ),
)

_NFS = BenchmarkSpec(
    abbr="NFS",
    title="Need For Speed",
    library="DirectX",
    resolutions=((1280, 1024),),
    num_draws=1267,
    profile=_profile(
        "NFS",
        1267,
        1280,
        1024,
        triangles_median=350.0,
        triangles_sigma=1.0,
        num_materials=160,
        material_zipf=1.35,  # road/car materials repeated heavily
        texture_bytes_median=0.75 * MB,
        depth_complexity_mean=1.25,
        shader_complexity_mean=0.9,
        footprint_median=0.006,
        vertical_skew=0.32,  # road dominates the lower half
    ),
)

_UT3 = BenchmarkSpec(
    abbr="UT3",
    title="Unreal Tournament 3",
    library="DirectX",
    resolutions=((1280, 1024),),
    num_draws=876,
    profile=_profile(
        "UT3",
        876,
        1280,
        1024,
        triangles_median=550.0,
        triangles_sigma=1.15,
        num_materials=180,
        material_zipf=1.1,
        texture_bytes_median=1.25 * MB,
        depth_complexity_mean=1.45,
        shader_complexity_mean=1.5,  # UE3 material graphs
        footprint_median=0.009,
        vertical_skew=0.24,
    ),
)

_WE = BenchmarkSpec(
    abbr="WE",
    title="Wolfenstein",
    library="DirectX",
    resolutions=((640, 480),),
    num_draws=1697,
    profile=_profile(
        "WE",
        1697,
        640,
        480,
        triangles_median=180.0,
        triangles_sigma=0.95,
        num_materials=110,
        material_zipf=1.2,
        texture_bytes_median=0.5 * MB,
        depth_complexity_mean=1.3,
        shader_complexity_mean=0.8,
        footprint_median=0.004,
        vertical_skew=0.24,
    ),
)

#: The Table 3 suite, keyed by abbreviation.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.abbr: spec for spec in (_DM3, _HL2, _NFS, _UT3, _WE)
}

#: The nine workload points evaluated throughout the paper's figures:
#: DM3 and HL2 at three resolutions each, the rest at their native one.
WORKLOADS: Tuple[str, ...] = (
    "DM3-640",
    "DM3-1280",
    "DM3-1600",
    "HL2-640",
    "HL2-1280",
    "HL2-1600",
    "NFS",
    "UT3",
    "WE",
)

_RESOLUTION_SUFFIXES: Dict[str, Tuple[int, int]] = {
    "640": (640, 480),
    "1280": (1280, 1024),
    "1600": (1600, 1200),
}


def parse_workload(name: str) -> Tuple[BenchmarkSpec, int, int]:
    """Split a workload name like ``"DM3-1280"`` into (spec, w, h)."""
    abbr, _, suffix = name.partition("-")
    if abbr not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {abbr!r}; have {sorted(BENCHMARKS)}")
    spec = BENCHMARKS[abbr]
    if not suffix:
        width, height = spec.default_resolution
        return spec, width, height
    if suffix not in _RESOLUTION_SUFFIXES:
        raise KeyError(f"unknown resolution suffix {suffix!r} in {name!r}")
    width, height = _RESOLUTION_SUFFIXES[suffix]
    if (width, height) not in spec.resolutions:
        raise KeyError(f"{abbr} was not evaluated at {width}x{height}")
    return spec, width, height


def make_benchmark_scene(
    name: str,
    num_frames: int = 2,
    seed: int = 2019,
    draw_scale: float = 1.0,
) -> Scene:
    """Build the synthetic scene for a workload point.

    Parameters
    ----------
    name:
        A workload name from :data:`WORKLOADS` (e.g. ``"HL2-1280"``) or a
        bare abbreviation (default resolution).
    num_frames:
        Frames to generate; AFR experiments want >= number of GPMs.
    seed:
        RNG seed; scenes are deterministic per (name, seed).
    draw_scale:
        Optional scale on the draw count, used by the fast test suite to
        shrink workloads without changing their statistics.
    """
    spec, width, height = parse_workload(name)
    draws = max(8, int(round(spec.num_draws * draw_scale)))
    profile = replace(
        spec.profile, num_objects=draws, width=width, height=height, name=name
    )
    generator = SyntheticSceneGenerator(profile, seed=seed)
    return generator.make_scene(num_frames=num_frames)


def workload_scene(name: str, **kwargs) -> Scene:
    """Alias of :func:`make_benchmark_scene` for the public API."""
    return make_benchmark_scene(name, **kwargs)
