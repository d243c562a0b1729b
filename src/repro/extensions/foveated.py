"""Foveated rendering: eccentricity-based shading-rate reduction.

The human visual system resolves full detail only in the fovea (the
central few degrees); VR headsets with eye tracking exploit this by
shading peripheral pixels at reduced rate.  The paper's Table 1 makes
the motivating point — stereo VR needs 116 Mpixel within 5 ms — and
foveation is the standard lever for cutting that pixel cost, orthogonal
to OO-VR's locality optimisation.

The model is a *scene transform*: each object's screen footprint is
split over three eccentricity rings around the per-eye gaze point, and
its fragment-stage cost (``shader_complexity``) is scaled by the mean
shading rate over its footprint.  Geometry work is untouched (foveation
does not reduce triangles), so the transform exposes exactly the
pixel-bound savings real foveated pipelines see.  Transformed frames
run through any framework unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.scene.geometry import Viewport
from repro.scene.objects import RenderObject
from repro.scene.scene import Frame, Scene

__all__ = [
    "FoveationConfig",
    "foveate_frame",
    "foveate_scene",
    "foveation_study",
]


@dataclass(frozen=True)
class FoveationConfig:
    """Three-ring foveation profile.

    Radii are fractions of the eye-viewport width; rates are shading
    rates (1.0 = every pixel shaded, 0.25 = one in four).  Defaults
    follow the common inner/mid/outer split shipped by eye-tracked
    headsets.
    """

    fovea_radius: float = 0.15
    mid_radius: float = 0.35
    fovea_rate: float = 1.0
    mid_rate: float = 0.5
    periphery_rate: float = 0.25
    #: Gaze point as a fraction of the eye viewport (centre by default).
    gaze_x: float = 0.5
    gaze_y: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fovea_radius < self.mid_radius:
            raise ValueError("need 0 < fovea_radius < mid_radius")
        for name in ("fovea_rate", "mid_rate", "periphery_rate"):
            rate = getattr(self, name)
            if not 0.0 < rate <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not (self.periphery_rate <= self.mid_rate <= self.fovea_rate):
            raise ValueError("rates must not increase with eccentricity")
        if not (0.0 <= self.gaze_x <= 1.0 and 0.0 <= self.gaze_y <= 1.0):
            raise ValueError("gaze point must be inside the viewport")

    def rate_at(self, eccentricity: float) -> float:
        """Shading rate at a given eccentricity (viewport-width units)."""
        if eccentricity <= self.fovea_radius:
            return self.fovea_rate
        if eccentricity <= self.mid_radius:
            return self.mid_rate
        return self.periphery_rate


def _mean_rate_over(
    viewport: Optional[Viewport],
    eye: Viewport,
    config: FoveationConfig,
    samples: int = 4,
) -> float:
    """Mean shading rate over an object's footprint in one eye.

    Sampled on a ``samples x samples`` grid over the object's rectangle
    — cheap and accurate enough for rectangles a few rings wide.
    """
    if viewport is None or eye.width <= 0:
        return 1.0
    gaze_x = eye.x0 + config.gaze_x * eye.width
    gaze_y = eye.y0 + config.gaze_y * eye.height
    total = 0.0
    for i in range(samples):
        for j in range(samples):
            x = viewport.x0 + (i + 0.5) / samples * viewport.width
            y = viewport.y0 + (j + 0.5) / samples * viewport.height
            ecc = ((x - gaze_x) ** 2 + (y - gaze_y) ** 2) ** 0.5 / eye.width
            total += config.rate_at(ecc)
    return total / (samples * samples)


def foveate_object(
    obj: RenderObject, eye_viewport: Viewport, config: FoveationConfig
) -> RenderObject:
    """The object with its fragment cost scaled by its mean shading rate."""
    rates = []
    if obj.viewport_left is not None:
        rates.append(_mean_rate_over(obj.viewport_left, eye_viewport, config))
    if obj.viewport_right is not None:
        rates.append(_mean_rate_over(obj.viewport_right, eye_viewport, config))
    mean_rate = sum(rates) / len(rates)
    return replace(obj, shader_complexity=obj.shader_complexity * mean_rate)


def foveate_frame(frame: Frame, config: FoveationConfig | None = None) -> Frame:
    """``frame`` with every object's shading cost foveated."""
    config = config or FoveationConfig()
    eye = frame.eye_viewport
    return Frame(
        objects=tuple(
            foveate_object(obj, eye, config) for obj in frame.objects
        ),
        width=frame.width,
        height=frame.height,
        frame_id=frame.frame_id,
    )


def foveate_scene(scene: Scene, config: FoveationConfig | None = None) -> Scene:
    """``scene`` with every frame foveated (same name, new objects)."""
    config = config or FoveationConfig()
    return Scene(
        name=scene.name,
        frames=tuple(foveate_frame(frame, config) for frame in scene),
    )


def foveation_study(
    workloads=("DM3-1600", "HL2-1600", "NFS"),
    experiment=None,
):
    """Foveation stacked on OO-VR: speedup over baseline per workload.

    One declarative :class:`~repro.session.Sweep` over three design
    points — ``baseline``, ``oo-vr``, and the ``oo-vr:fov`` variant
    (OO-VR fed foveated scenes, default three-ring profile; see
    :mod:`repro.frameworks.variants`) — on the pixel-heavy workloads
    where foveation has the most to save.

    Returns ``{workload: {"oo-vr": speedup, "oo-vr+fov": speedup}}``.
    """
    from repro.session import FULL, Sweep

    experiment = experiment or FULL
    results = (
        Sweep()
        .preset(experiment)
        .workloads(*workloads)
        .frameworks("baseline", "oo-vr", "oo-vr:fov")
        .run()
    )
    table = {}
    for workload in workloads:
        base = results.get(framework="baseline", workload=workload)
        oovr = results.get(framework="oo-vr", workload=workload)
        stacked = results.get(framework="oo-vr:fov", workload=workload)
        table[workload] = {
            "oo-vr": base.single_frame_cycles / oovr.single_frame_cycles,
            "oo-vr+fov": base.single_frame_cycles
            / stacked.single_frame_cycles,
        }
    return table
