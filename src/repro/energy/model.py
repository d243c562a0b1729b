"""The per-frame energy model.

Constants come from the sources the paper itself cites or quotes:

- inter-GPM link: 10 pJ/bit for on-board (organic substrate) links and
  250 pJ/bit across nodes (Section 6.2, quoting the MCM-GPU paper);
- DRAM access: ~7 pJ/bit class HBM-era access energy, expressed as
  56 pJ/byte (HBM is the local-memory technology the paper assumes for
  its 1 TB/s local bandwidth);
- SM compute: a flat energy-per-busy-cycle per GPM derived from the
  paper's GTX 1080 reference point (180 W TDP, 1.6 GHz boost, the bulk
  spent in SMs) scaled to one GPM's share;
- distribution engine: the 0.3 W / 960 bits overhead of Section 5.4,
  charged for the whole frame duration when the engine is active.

Absolute joules are *estimates*; what the experiments read off the
model is the **relative** energy of schemes on identical frames, which
depends only on the counters (bytes moved, cycles busy) that the
simulator measures directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.stats.metrics import FrameResult

__all__ = [
    "EnergyConstants",
    "EnergyModel",
    "FrameEnergy",
    "IntegrationPoint",
]


class IntegrationPoint(enum.Enum):
    """How the GPMs are integrated — sets the link energy per bit."""

    ON_BOARD = "board"
    CROSS_NODE = "nodes"

    @property
    def picojoules_per_bit(self) -> float:
        return 10.0 if self is IntegrationPoint.ON_BOARD else 250.0


@dataclass(frozen=True)
class EnergyConstants:
    """Tunable energy coefficients (defaults per the module docstring)."""

    link_pj_per_bit: float = 10.0
    dram_pj_per_byte: float = 56.0
    sm_pj_per_busy_cycle: float = 28_000.0
    rop_pj_per_pixel: float = 150.0
    engine_static_watts: float = 0.3

    def __post_init__(self) -> None:
        for name in (
            "link_pj_per_bit",
            "dram_pj_per_byte",
            "sm_pj_per_busy_cycle",
            "rop_pj_per_pixel",
            "engine_static_watts",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    @classmethod
    def for_integration(cls, point: IntegrationPoint) -> "EnergyConstants":
        """Defaults with the link cost of ``point``."""
        return cls(link_pj_per_bit=point.picojoules_per_bit)


@dataclass(frozen=True)
class FrameEnergy:
    """Energy breakdown for one frame, in joules."""

    link_joules: float
    dram_joules: float
    compute_joules: float
    engine_joules: float

    @property
    def total_joules(self) -> float:
        return (
            self.link_joules
            + self.dram_joules
            + self.compute_joules
            + self.engine_joules
        )

    @property
    def millijoules(self) -> float:
        return self.total_joules * 1e3


class EnergyModel:
    """Folds a :class:`~repro.stats.metrics.FrameResult` into joules.

    Parameters
    ----------
    constants:
        Energy coefficients; defaults to on-board integration.
    clock_hz:
        GPM clock, used to convert the frame's cycle count into the
        seconds the engine's static power integrates over.
    """

    def __init__(
        self,
        constants: EnergyConstants | None = None,
        clock_hz: float = 1e9,
    ) -> None:
        if clock_hz <= 0:
            raise ValueError("clock must be positive")
        self.constants = constants or EnergyConstants()
        self.clock_hz = clock_hz

    def frame_energy(
        self,
        frame: FrameResult,
        engine_active: bool = False,
    ) -> FrameEnergy:
        """Energy of one frame; ``engine_active`` charges the 0.3 W
        distribution engine for the frame's duration (OO-VR only)."""
        c = self.constants
        link = frame.inter_gpm_bytes * 8.0 * c.link_pj_per_bit * 1e-12
        dram = sum(frame.dram_bytes) * c.dram_pj_per_byte * 1e-12
        compute = (
            sum(frame.gpm_busy_cycles) * c.sm_pj_per_busy_cycle * 1e-12
        )
        engine = 0.0
        if engine_active:
            engine = c.engine_static_watts * frame.cycles / self.clock_hz
        return FrameEnergy(
            link_joules=link,
            dram_joules=dram,
            compute_joules=compute,
            engine_joules=engine,
        )
