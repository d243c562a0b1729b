"""Table 1 constants: PC gaming vs. stereo VR display requirements.

=================  ===================  ============================
                   Gaming PC            Stereo VR
=================  ===================  ============================
Display            2D LCD panel         Stereo HMD
Field of view      24-30" diagonal      120 deg. H x 135 deg. V
Number of pixels   2-4 Mpixels          58.32 x 2 Mpixels
Frame latency      16-33 ms             5-10 ms
=================  ===================  ============================

These constants feed the frame-deadline checks in the stats package:
an experiment can ask whether a simulated frame would meet the VR
deadline at the modelled clock.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DisplayRequirements:
    """Display requirements of one platform class (a Table 1 column)."""

    name: str
    display: str
    fov_horizontal_deg: float
    fov_vertical_deg: float
    megapixels: float
    frame_latency_ms_min: float
    frame_latency_ms_max: float

    @property
    def pixels(self) -> int:
        return int(self.megapixels * 1e6)

    def meets_deadline(self, frame_cycles: float, clock_hz: float = 1e9) -> bool:
        """Whether ``frame_cycles`` at ``clock_hz`` fits the strict deadline."""
        latency_ms = frame_cycles / clock_hz * 1e3
        return latency_ms <= self.frame_latency_ms_min


#: A typical gaming PC per Table 1.
PC_GAMING = DisplayRequirements(
    name="Gaming PC",
    display="2D LCD panel",
    fov_horizontal_deg=48.0,
    fov_vertical_deg=27.0,
    megapixels=4.0,
    frame_latency_ms_min=16.0,
    frame_latency_ms_max=33.0,
)

#: Stereo VR per Table 1: 58.32 Mpixels *per eye*, 5-10 ms budget.
STEREO_VR = DisplayRequirements(
    name="Stereo VR",
    display="Stereo HMD",
    fov_horizontal_deg=120.0,
    fov_vertical_deg=135.0,
    megapixels=58.32 * 2,
    frame_latency_ms_min=5.0,
    frame_latency_ms_max=10.0,
)


def requirements_table() -> list[tuple[str, str, str]]:
    """Rows of Table 1 as (attribute, PC value, VR value) strings."""
    return [
        ("Display", PC_GAMING.display, STEREO_VR.display),
        (
            "Field of View (FoV)",
            "24-30\" diagonal",
            f"{STEREO_VR.fov_horizontal_deg:.0f} deg horizontally / "
            f"{STEREO_VR.fov_vertical_deg:.0f} deg vertically",
        ),
        (
            "Number of Pixel",
            f"{PC_GAMING.megapixels / 2:.0f}-{PC_GAMING.megapixels:.0f} Mpixels",
            f"{STEREO_VR.megapixels / 2:.2f}x2 Mpixels",
        ),
        (
            "Frame latency",
            f"{PC_GAMING.frame_latency_ms_min:.0f}-"
            f"{PC_GAMING.frame_latency_ms_max:.0f} ms",
            f"{STEREO_VR.frame_latency_ms_min:.0f}-"
            f"{STEREO_VR.frame_latency_ms_max:.0f} ms",
        ),
    ]
