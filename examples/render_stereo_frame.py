#!/usr/bin/env python3
"""Render a real stereo VR frame with the software rasterizer (Fig. 5).

Builds a small temple scene (checker ground, stone pillars, an orb and a
crate), renders it through the three stereo paths — sequential stereo,
SMP, and viewport reprojection — and writes the images next to this
script under ``out/``:

- ``stereo_smp.ppm``      the packed left|right HMD frame (Fig. 5 right)
- ``left.ppm`` / ``right.ppm``  the individual eye images
- ``depth_left.pgm``      the left eye's depth buffer

It then prints the per-mode pipeline counters: SMP renders the identical
image while halving vertex-shading work, which is the property the
paper's SMP engine exploits (and validates on real GPUs in Section 3).

Run:  python examples/render_stereo_frame.py
"""

import pathlib

from repro.render import (
    Camera,
    SceneObject3D,
    StereoCamera,
    StereoRenderer,
    StereoRenderMode,
    make_box,
    make_checker_ground,
    make_cylinder,
    make_icosphere,
    rotate_y,
    translate,
    validate_scene,
)
from repro.render.raster import checker_shader

OUT = pathlib.Path(__file__).parent / "out"
EYE_W, EYE_H = 320, 320


def build_scene():
    """The temple props; pillars share the 'stone' texture (Fig. 12)."""
    stone = checker_shader((205, 185, 150), (130, 110, 80), tiles=5)
    return [
        SceneObject3D(
            "ground",
            make_checker_ground(12.0, 8),
            translate(0, 0, 0),
            checker_shader((95, 115, 95), (45, 65, 45), tiles=1),
            "grass",
        ),
        SceneObject3D(
            "pillar1", make_cylinder(0.32, 2.4, 20), translate(-1.4, 0, -0.4),
            stone, "stone",
        ),
        SceneObject3D(
            "pillar2", make_cylinder(0.32, 2.4, 20), translate(1.4, 0, -0.4),
            stone, "stone",
        ),
        SceneObject3D(
            "orb",
            make_icosphere(0.45, 2),
            translate(0.0, 1.35, -0.8),
            checker_shader((225, 70, 70), (150, 25, 25), tiles=7),
            "orb",
        ),
        SceneObject3D(
            "crate",
            make_box(0.9, 0.9, 0.9),
            translate(0.3, 0.45, 1.1) @ rotate_y(0.6),
            checker_shader((165, 120, 70), (100, 65, 35), tiles=2),
            "wood",
        ),
    ]


def main():
    camera = StereoCamera(
        Camera(position=(0.0, 1.6, 4.2), target=(0.0, 1.0, 0.0), aspect=1.0),
        ipd=0.12,  # exaggerated for a visible stereo disparity
    )
    objects = build_scene()
    renderer = StereoRenderer(camera, EYE_W, EYE_H)

    print(f"rendering {len(objects)} objects at {EYE_W}x{EYE_H} per eye\n")
    stats_by_mode = {}
    for mode in StereoRenderMode:
        packed, stats = renderer.render(objects, mode)
        stats_by_mode[mode] = stats
        print(" ", stats.summary())
        packed.write_ppm(OUT / f"stereo_{mode.value}.ppm")
        packed.write_png(OUT / f"stereo_{mode.value}.png")

    left, right, _ = renderer.render_eye_buffers(objects, StereoRenderMode.SMP)
    left.write_ppm(OUT / "left.ppm")
    right.write_ppm(OUT / "right.ppm")
    left.write_depth_pgm(OUT / "depth_left.pgm")

    seq = stats_by_mode[StereoRenderMode.SEQUENTIAL].total
    smp = stats_by_mode[StereoRenderMode.SMP].total
    saved = 1.0 - smp.vertices_transformed / seq.vertices_transformed
    print(
        f"\nSMP saves {100 * saved:.0f}% of vertex transforms "
        f"({seq.vertices_transformed} -> {smp.vertices_transformed}) "
        "with a pixel-identical image."
    )

    report = validate_scene(objects, camera, EYE_W, EYE_H)
    print("\nmeasured vs modelled workload statistics:")
    print(report.table())
    print(f"\nimages written to {OUT}/")


if __name__ == "__main__":
    main()
