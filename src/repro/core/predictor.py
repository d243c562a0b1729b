"""The rendering-time predictor — Equation 3 (Section 5.2).

The distribution engine needs to know which GPM becomes idle first.  A
full analytic model (Eq. 2, after Wimmer & Wonka) would need geometry,
texture, hardware and stage state; the paper instead uses a simple
linear *memorisation* model::

    t(X) = c0 * #triangle_X = c1 * #tv_X + c2 * #pixel_X

- **total** rendering time of a batch is predicted from its triangle
  count (known before rendering, straight from the OO_Application);
- **elapsed** time is tracked by incrementing a counter by ``c1`` per
  transformed vertex and ``c2`` per rendered pixel, read from the GPM's
  runtime counters;
- the first 8 batches run round-robin to *calibrate* ``c0, c1, c2``
  from observed totals (least squares for the two-term form, ratio
  averaging for ``c0``).

The engine compares, per GPM, predicted total minus predicted elapsed
to find the earliest-available module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Batches used to initialise the model before prediction switches on.
CALIBRATION_BATCHES = 8


@dataclass(frozen=True)
class BatchObservation:
    """One completed batch's measured workload and time."""

    triangles: float
    transformed_vertices: float
    rendered_pixels: float
    cycles: float

    def __post_init__(self) -> None:
        if min(self.triangles, self.transformed_vertices, self.rendered_pixels) < 0:
            raise ValueError("negative workload counts")
        if self.cycles <= 0:
            raise ValueError("observed time must be positive")


class RenderingTimePredictor:
    """Linear memorisation model with online calibration."""

    def __init__(self, calibration_batches: int = CALIBRATION_BATCHES) -> None:
        if calibration_batches < 1:
            raise ValueError("need at least one calibration batch")
        self.calibration_batches = calibration_batches
        self._observations: List[BatchObservation] = []
        # Column buffers (triangles, tv, pixels, cycles) grown by
        # doubling: refits slice these views instead of rebuilding
        # arrays from the observation list on every observe() call.
        self._columns = np.zeros((4, 16), dtype=np.float64)
        self._count = 0
        self.c0: Optional[float] = None
        self.c1: Optional[float] = None
        self.c2: Optional[float] = None

    # -- calibration ------------------------------------------------------

    @property
    def is_calibrated(self) -> bool:
        return self.c0 is not None

    def observe(self, observation: BatchObservation) -> None:
        """Record a completed batch; fits the model once enough arrive."""
        self._observations.append(observation)
        if self._count == self._columns.shape[1]:
            grown = np.zeros(
                (4, self._columns.shape[1] * 2), dtype=np.float64
            )
            grown[:, : self._count] = self._columns
            self._columns = grown
        self._columns[0, self._count] = observation.triangles
        self._columns[1, self._count] = observation.transformed_vertices
        self._columns[2, self._count] = observation.rendered_pixels
        self._columns[3, self._count] = observation.cycles
        self._count += 1
        if self._count >= self.calibration_batches or self.is_calibrated:
            self._fit()

    def _fit(self) -> None:
        """Fit c0 (triangle rate) and (c1, c2) by least squares."""
        count = self._count
        triangles = self._columns[0, :count]
        cycles = self._columns[3, :count]
        valid = triangles > 0
        if valid.any():
            self.c0 = float(np.mean(cycles[valid] / triangles[valid]))
        else:
            self.c0 = float(np.mean(cycles))
        features = np.column_stack(
            [self._columns[1, :count], self._columns[2, :count]]
        )
        # Non-negative-ish least squares: plain lstsq, floored at zero —
        # the hardware's c1/c2 are rates and cannot be negative.
        solution, *_ = np.linalg.lstsq(features, cycles, rcond=None)
        self.c1 = float(max(solution[0], 0.0))
        self.c2 = float(max(solution[1], 0.0))
        if self.c1 == 0.0 and self.c2 == 0.0:
            # Degenerate fit (e.g. colinear calibration set): fall back
            # to attributing everything to pixels.
            total_pixels = float(np.sum(features[:, 1]))
            self.c2 = float(np.sum(cycles) / total_pixels) if total_pixels else 0.0

    # -- prediction ---------------------------------------------------------

    def predict_total(self, triangles: float) -> float:
        """Predicted batch time from its triangle count (c0 form)."""
        if not self.is_calibrated:
            raise RuntimeError("predictor not calibrated yet")
        return max(0.0, self.c0 * triangles)

    def predict_elapsed(
        self, transformed_vertices: float, rendered_pixels: float
    ) -> float:
        """Predicted progress from the GPM's runtime counters (c1/c2)."""
        if not self.is_calibrated:
            raise RuntimeError("predictor not calibrated yet")
        return self.c1 * transformed_vertices + self.c2 * rendered_pixels

    def remaining(
        self,
        predicted_total: float,
        transformed_vertices: float,
        rendered_pixels: float,
    ) -> float:
        """Distance between the total and elapsed counters (Section 5.2)."""
        elapsed = self.predict_elapsed(transformed_vertices, rendered_pixels)
        return max(0.0, predicted_total - elapsed)

    # -- introspection -------------------------------------------------------

    def mean_absolute_error(self) -> float:
        """Model error over everything observed so far (for reports)."""
        if not self.is_calibrated or not self._observations:
            return float("nan")
        errors = [
            abs(self.predict_total(o.triangles) - o.cycles) / o.cycles
            for o in self._observations
            if o.cycles > 0
        ]
        return sum(errors) / len(errors)
