"""Structured results of a sweep: tidy records plus paper-style math.

A :class:`ResultSet` pairs every executed :class:`~repro.session.spec.RunSpec`
with its :class:`~repro.stats.metrics.SceneResult` and offers the
operations the paper's figures are made of: pivoting a metric into
(row, column) series, normalising one column against a baseline
(speedups, traffic ratios), geometric means per group, and export to
tidy records / JSON / CSV.  Exports share the
:meth:`SceneResult.to_dict` serialisation path used by ``oovr run
--json``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.memory.link import TrafficType
from repro.profiling import PhaseProfile
from repro.session.spec import RECORD_FIELDS, RunSpec
from repro.stats.metrics import SceneResult, geomean

GroupKey = Union[str, Tuple[str, ...]]

#: ``(column, traffic name)`` per :class:`TrafficType`, in enum order.
_TRAFFIC_COLUMNS: Tuple[Tuple[str, str], ...] = tuple(
    (f"traffic_{traffic.value}", traffic.value) for traffic in TrafficType
)


class ResultSet:
    """Ordered (spec, result) pairs from one sweep.

    ``profiles`` (from ``Sweep.run(profile=True)``) attaches one
    :class:`~repro.profiling.PhaseProfile` per run, aligned by index;
    derived sets (``select``, ``merge``) drop them — phase timings
    describe one particular execution, not the cell's identity.
    """

    def __init__(
        self,
        runs: Sequence[Tuple[RunSpec, SceneResult]],
        profiles: Optional[Sequence[PhaseProfile]] = None,
    ) -> None:
        self._runs: List[Tuple[RunSpec, SceneResult]] = list(runs)
        if profiles is not None and len(profiles) != len(self._runs):
            raise ValueError(
                f"got {len(profiles)} profiles for {len(self._runs)} runs"
            )
        #: Per-run phase profiles, or ``None`` when not profiled.
        self.profiles: Optional[List[PhaseProfile]] = (
            list(profiles) if profiles is not None else None
        )

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[Tuple[RunSpec, SceneResult]]:
        return iter(self._runs)

    @property
    def specs(self) -> List[RunSpec]:
        return [spec for spec, _ in self._runs]

    @property
    def results(self) -> List[SceneResult]:
        return [result for _, result in self._runs]

    # -- composition --------------------------------------------------------

    def merge(self, other: "ResultSet") -> "ResultSet":
        """This set and ``other`` as one set; duplicate cells rejected.

        The in-process gather half of a sharded sweep: each shard's
        owned slice concatenates in argument order.  Two runs of the
        *same* cell (equal :func:`spec_key
        <repro.session.cache.spec_key>` content addresses — e.g. two
        shards misconfigured with the same index) raise instead of
        silently double-counting a cell in geomeans and pivots.
        """
        from repro.session.cache import spec_key

        seen = {spec_key(spec) for spec, _ in self._runs}
        for spec, _ in other:
            key = spec_key(spec)
            if key in seen:
                raise ValueError(
                    f"duplicate cell in ResultSet.merge: framework="
                    f"{spec.framework!r} workload={spec.workload!r} "
                    f"config_label={spec.config_label!r} (spec_key "
                    f"{key[:12]}…) is already present; shards of one "
                    "grid must be disjoint"
                )
            seen.add(key)
        return ResultSet([*self._runs, *other._runs])

    # -- selection ----------------------------------------------------------

    def select(self, **where: object) -> "ResultSet":
        """The subset whose record fields equal every ``where`` item.

        ``where`` keys must be real spec identity columns (plus
        ``engine``) — a typo like ``framwork="oo-vr"`` raises instead
        of silently matching nothing.
        """
        valid = (*RECORD_FIELDS, "engine")
        unknown = sorted(key for key in where if key not in valid)
        if unknown:
            raise KeyError(
                f"unknown record field(s) {unknown}; "
                f"valid fields: {list(valid)}"
            )
        kept = [
            (spec, result)
            for spec, result in self._runs
            if all(getattr(spec, key) == value for key, value in where.items())
        ]
        return ResultSet(kept)

    def get(self, **where: object) -> SceneResult:
        """The single result matching ``where`` (error if not exactly one)."""
        subset = self.select(**where)
        if len(subset) != 1:
            raise KeyError(
                f"expected exactly one result for {where}, got {len(subset)}"
            )
        return subset.results[0]

    def by_workload(self, **where: object) -> Dict[str, SceneResult]:
        """Workload -> result mapping (the legacy suite-run shape).

        The mapping is only well-defined when each workload appears
        once in the subset; spanning several frameworks or config
        labels raises instead of silently keeping the last run.
        """
        subset = self.select(**where) if where else self
        out: Dict[str, SceneResult] = {}
        for spec, result in subset:
            if spec.workload in out:
                frameworks = sorted({s.framework for s in subset.specs})
                configs = sorted({s.config_label for s in subset.specs})
                raise ValueError(
                    f"by_workload({where or ''}) is ambiguous: workload "
                    f"{spec.workload!r} appears more than once (frameworks "
                    f"{frameworks}, configs {configs}); narrow the subset "
                    "with select() keys"
                )
            out[spec.workload] = result
        return out

    # -- tidy records -------------------------------------------------------

    def to_records(self) -> List[Dict[str, object]]:
        """One flat dict per run: spec identity + scene summary metrics.

        Traffic is flattened into one ``traffic_<type>`` column per
        :class:`TrafficType` so every record has identical keys.  An
        ``engine`` column is added as soon as *any* run in the set was
        priced by a non-default engine, so mixed-engine sweeps keep
        their provenance while default sweeps export byte-identically
        to the pre-engine layout.  Likewise ``profile_<phase>_s``
        wall-time columns — and ``profile_<counter>`` quantity columns
        such as the event engine's window-loop statistics — appear only
        on profiled sets, so unprofiled exports never change shape.
        """
        include_engine = any(
            spec.engine != "analytic" for spec, _ in self._runs
        )
        # Counter columns must be uniform across the set (CSV export
        # takes its header from the first record), so emit the union of
        # every profile's counters on all records, defaulting to 0.0.
        counter_names: List[str] = []
        if self.profiles is not None:
            counter_names = sorted(
                {
                    name
                    for profile in self.profiles
                    for name in profile.counters
                }
            )
        records: List[Dict[str, object]] = []
        for index, (spec, result) in enumerate(self._runs):
            summary = result.to_dict(include_frames=False)
            traffic = summary.pop("traffic")
            record = spec.record_fields()
            if include_engine:
                record["engine"] = spec.engine
            for key, value in summary.items():
                if key not in record:  # spec identity wins on overlap
                    record[key] = value
            for column, name in _TRAFFIC_COLUMNS:
                record[column] = traffic.get(name, 0.0)
            if self.profiles is not None:
                for name, seconds in self.profiles[index].to_dict().items():
                    record[f"profile_{name}_s"] = seconds
                # Non-time counters (the event engine's window-loop
                # statistics) ride along without the ``_s`` suffix —
                # they are quantities, not wall seconds.
                for name in counter_names:
                    record[f"profile_{name}"] = (
                        self.profiles[index].counters.get(name, 0.0)
                    )
            records.append(record)
        return records

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """The records as a JSON array; optionally written to ``path``."""
        text = json.dumps(self.to_records(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def to_csv(self, path: Optional[str] = None) -> str:
        """The records as CSV with a deterministic column order."""
        records = self.to_records()
        if not records:
            return ""
        columns = list(records[0])
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text

    # -- figure math --------------------------------------------------------

    def _group_key(self, record: Dict[str, object], by: GroupKey):
        if isinstance(by, tuple):
            return tuple(record[field] for field in by)
        return record[by]

    def pivot(
        self,
        metric: str,
        rows: str = "workload",
        cols: str = "framework",
    ) -> Dict[object, Dict[object, float]]:
        """``{col: {row: metric}}`` series, in run order."""
        out: Dict[object, Dict[object, float]] = {}
        for record in self.to_records():
            col = record[cols]
            out.setdefault(col, {})[record[rows]] = float(record[metric])
        return out

    def geomean_by(
        self, metric: str, by: GroupKey = "framework"
    ) -> Dict[object, float]:
        """Geometric mean of ``metric`` per group (``by`` field or tuple).

        An all-zero group (e.g. a ``traffic_*`` column for workloads
        that move no inter-GPM bytes) yields 0.0; mixed-sign or
        negative groups still raise from :func:`geomean
        <repro.stats.metrics.geomean>`.
        """
        groups: Dict[object, List[float]] = {}
        for record in self.to_records():
            key = self._group_key(record, by)
            groups.setdefault(key, []).append(float(record[metric]))
        return {
            key: 0.0 if all(v == 0.0 for v in values) else geomean(values)
            for key, values in groups.items()
        }

    def normalize_to(
        self,
        baseline: object,
        metric: str,
        rows: str = "workload",
        cols: str = "framework",
        invert: bool = False,
    ) -> Dict[object, Dict[object, float]]:
        """Each column's ``metric`` relative to the ``baseline`` column.

        With ``invert=False`` cells are ``mine / base`` (paper-style
        traffic ratios); with ``invert=True`` they are ``base / mine``
        (speedups).  A zero denominator yields 0.0, matching the
        traffic-ratio convention for workloads without baseline bytes.
        """
        table = self.pivot(metric, rows=rows, cols=cols)
        if baseline not in table:
            raise KeyError(
                f"baseline {baseline!r} missing from {sorted(map(str, table))}"
            )
        base_row = table[baseline]
        out: Dict[object, Dict[object, float]] = {}
        for col, values in table.items():
            normalised: Dict[object, float] = {}
            for row, value in values.items():
                base = base_row[row]
                num, den = (base, value) if invert else (value, base)
                normalised[row] = num / den if den > 0 else 0.0
            out[col] = normalised
        return out
