"""Ablations of OO-VR's design components.

The paper credits OO-VR's gain over OO_APP to three hardware mechanisms
(Section 5): the predictive distribution engine, the PA-unit
pre-allocation, and the distributed hardware composition; plus the
fine-grained straggler splitting.  :class:`OOVRFeatures` switches any
subset off inside the one OO-VR framework
(:class:`~repro.core.oovr.OOVRFramework` and its
:class:`~repro.core.distribution.DistributionEngine`), so the
contribution of each can be measured — the per-component breakdown the
paper's evaluation only gives in aggregate.

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
from typing import Dict


@dataclass(frozen=True)
class OOVRFeatures:
    """Which OO-VR hardware mechanisms are active."""

    prediction: bool = True
    preallocation: bool = True
    distributed_composition: bool = True
    stealing: bool = True


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
