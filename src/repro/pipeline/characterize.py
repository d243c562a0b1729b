"""Draw characterisation: a frame's draws -> its unit table.

The :class:`DrawCharacterizer` is the front half of the pipeline model:
it runs the geometry/SMP stage maths and the fragment-stage demand model
(Eq. 3's inputs) over a whole frame and hands the GPM layer work it can
execute.  It is deliberately free of any NUMA knowledge — the same
unit can be bound to any GPM, split across strips, or merged into
batches.

A frame is characterised in one vectorized pass
(:mod:`repro.pipeline.batch`) into the frame's unit table
(:meth:`~DrawCharacterizer.unit_columns`), memoised on the frame
(:meth:`Frame.derived <repro.scene.scene.Frame.derived>`) and keyed by
the cost model, SMP mode and draw expansion.  The table is the one
reader of the frame's counters and the one characterisation path:
the statically scheduled frameworks (and the Section 3 SMP check) hand
it to the slice pass, and the clock-driven dispatchers (OO-VR, OO_APP)
merge each Fig. 12 batch straight from its rows
(:func:`~repro.pipeline.workunit.merge_rows`);
:meth:`~DrawCharacterizer.characterize_frame` reads its units out one
per draw.  So tile-level SFR (H) renders the very multi-view table
OO-VR's batches came from.  The per-draw walk it replaced is the
oracle table's reference (``tests/oracles.py``, entry
``UNIT_TABLE``), never run here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.config import SystemConfig
from repro.pipeline.batch import frame_counters, unit_columns
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import UnitColumns, WorkUnit
from repro.profiling import phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scene.scene import Frame


class DrawCharacterizer:
    """Builds a frame's unit table and work units under a cost model."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.cost = config.cost

    def characterize_frame(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> Tuple[WorkUnit, ...]:
        """Every draw of ``frame`` as a work unit, in draw order.

        ``expansion="multiview"`` aligns with
        :meth:`Frame.multiview_draws`, ``"stereo"`` with
        :meth:`Frame.stereo_draws`: one unit per draw, labelled
        ``"<object name>:<eye>"``.

        The units are read out of the memoised :meth:`unit_columns`
        (:meth:`UnitColumns.units
        <repro.pipeline.workunit.UnitColumns.units>`) afresh per call,
        in the caller's profiling phase; only the table is memoised.
        """
        return self.unit_columns(frame, mode, expansion).units()

    def unit_columns(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> UnitColumns:
        """The unit table of ``frame``
        (:func:`~repro.pipeline.batch.unit_columns`), read from the
        frame's counters without a single ``WorkUnit``.

        The table depends only on the frame's object batch and the
        (frozen, hashable) cost model, so it is memoised on the frame
        (:meth:`Frame.derived <repro.scene.scene.Frame.derived>`):
        grid cells that share a workload share scene-memoised frames,
        and therefore skip re-running Eq. 3 pricing entirely.  No
        reader mutates the table, so sharing it across cells is safe.
        The build runs inside the ``price`` profiling phase; the
        counters it reads are not kept.
        """
        return frame.derived(
            ("unit_columns", self.cost, mode, expansion),
            lambda: self._unit_columns(frame, mode, expansion),
        )

    def _unit_columns(
        self, frame: "Frame", mode: SMPMode, expansion: str
    ) -> UnitColumns:
        with phase("price"):
            batch = frame.object_batch
            return unit_columns(
                batch,
                frame_counters(batch, self.cost, mode=mode, expansion=expansion),
                self.cost,
            )
