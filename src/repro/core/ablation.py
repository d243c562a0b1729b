"""Ablations of OO-VR's design components.

The paper credits OO-VR's gain over OO_APP to three hardware mechanisms
(Section 5): the predictive distribution engine, the PA-unit
pre-allocation, and the distributed hardware composition; plus the
fine-grained straggler splitting.  :class:`AblatedOOVR` re-renders with
any subset disabled, so the contribution of each can be measured — the
per-component breakdown the paper's evaluation only gives in aggregate.

Disabled components fall back to their OO_APP-level equivalents:

===================  ==========================================
``prediction``       off -> greedy ready-time dispatch (software
                     master-slave, no Eq. 3)
``preallocation``    off -> staging stalls the GPM (no PA overlap)
``distributed_comp`` off -> master-node composition
``stealing``         off -> stragglers run to completion
===================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.core.distribution import DistributionEngine
from repro.core.oovr import _BatchBuilder
from repro.core.predictor import RenderingTimePredictor
from repro.frameworks.base import RenderingFramework
from repro.gpu.composition import compose_distributed, compose_master
from repro.gpu.staging import StagingManager
from repro.gpu.system import MultiGPUSystem
from repro.memory.link import TrafficType
from repro.memory.placement import PlacementPolicy
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


@dataclass(frozen=True)
class OOVRFeatures:
    """Which OO-VR hardware mechanisms are active."""

    prediction: bool = True
    preallocation: bool = True
    distributed_composition: bool = True
    stealing: bool = True

    def label(self) -> str:
        """Short identifier like ``oo-vr[-pred]`` for reports."""
        off = []
        if not self.prediction:
            off.append("pred")
        if not self.preallocation:
            off.append("pa")
        if not self.distributed_composition:
            off.append("dhc")
        if not self.stealing:
            off.append("steal")
        if not off:
            return "oo-vr"
        return "oo-vr[-" + ",-".join(off) + "]"


class _AblatedEngine(DistributionEngine):
    """Distribution engine with selectable mechanisms."""

    def __init__(
        self,
        system: MultiGPUSystem,
        features: OOVRFeatures,
    ) -> None:
        super().__init__(system, RenderingTimePredictor())
        self.features = features
        if not features.preallocation:
            # Staging still happens (the data must arrive), but the copy
            # stalls the renderer like the software schemes.
            self._staging = StagingManager(
                system,
                factor=system.config.cost.batch_stage_factor,
                parallelism=system.config.cost.stage_parallelism,
                prefetched=False,
                traffic_type=TrafficType.PREALLOC,
            )
            self._staging.begin_frame()

    def _select_gpm(self, batch_index: int):
        if self.features.prediction:
            return super()._select_gpm(batch_index)
        # Greedy software dispatch on actual ready times (OO_APP level).
        return self.system.engine.next_idle(), False

    def _split_stragglers(self, rendered_pixels: List[float]) -> None:
        if self.features.stealing:
            super()._split_stragglers(rendered_pixels)


class AblatedOOVR(RenderingFramework):
    """OO-VR with a chosen subset of hardware mechanisms enabled."""

    name = "oo-vr-ablated"
    placement_policy = PlacementPolicy.FIRST_TOUCH
    root: int = 0

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        features: OOVRFeatures = OOVRFeatures(),
    ) -> None:
        super().__init__(config)
        self.features = features
        self.name = features.label()
        self._builder = _BatchBuilder(self)

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        engine = _AblatedEngine(system, self.features)
        rendered_pixels = engine.dispatch(self._builder.build(frame))
        if self.features.distributed_composition:
            compose_distributed(system, rendered_pixels)
        else:
            compose_master(system, rendered_pixels, root=self.root)
        return system.frame_result(self.name, workload)


#: The named ablation points, keyed the way the variant grammar spells
#: them (``oo-vr:no-dhc`` etc. — see :mod:`repro.frameworks.variants`).
ABLATION_VARIANTS: Dict[str, OOVRFeatures] = {
    "full": OOVRFeatures(),
    "no-prediction": OOVRFeatures(prediction=False),
    "no-preallocation": OOVRFeatures(preallocation=False),
    "no-dhc": OOVRFeatures(distributed_composition=False),
    "no-stealing": OOVRFeatures(stealing=False),
    "software-only": OOVRFeatures(
        prediction=False,
        preallocation=False,
        distributed_composition=False,
        stealing=False,
    ),
}


def ablation_suite(config: Optional[SystemConfig] = None) -> Dict[str, AblatedOOVR]:
    """Full OO-VR plus one framework per disabled component."""
    return {
        key: AblatedOOVR(config, features)
        for key, features in ABLATION_VARIANTS.items()
    }
