"""The oracle table (``tests/oracles.py``) and the pinned grids replayed
through it.

Every entry must name a definition production holds where production
looks it up, or its patch would change nothing.  Two pinned grids then
render under both compositions, the whole table and the table without
the per-slice frame bodies, and must reproduce ``perfbench``'s pinned
digests while calling every reference their cells reach: the fast
analytic 81-cell grid (``serve-replay``'s) whole, and the HL2-640
column of ``grid-fast-event`` row by row.  CI replays the two paper
grids whole (``python -m tests.oracles``).
"""

import hashlib
import inspect
import json

import pytest

from tests.oracles import (
    COMPOSITIONS,
    ORACLES,
    PER_SLICE_FRAMES,
    composition,
    perfbench,
    reached,
    replay,
)

#: The event grid's column the tier-1 replay renders.
EVENT_COLUMN = ("HL2-640",)


@pytest.fixture(scope="module")
def pinned():
    bench = perfbench()
    document = json.loads(bench.run.EXPECTED.read_text(encoding="utf-8"))
    return bench.run, bench.layers, document["workloads"]


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda oracle: oracle.target)
def test_target_is_a_production_definition(oracle):
    owner, name = oracle.resolve()
    if inspect.ismodule(owner):
        assert owner.__name__.startswith("repro.")
        assert hasattr(owner, name)
    else:
        assert owner.__module__.startswith("repro.")
        # Defined on the class itself, so the patch replaces it there.
        assert name in vars(owner)
    assert callable(oracle.reference)


def test_table_is_one_entry_per_target():
    targets = [oracle.target for oracle in ORACLES]
    assert len(set(targets)) == len(targets)


def test_compositions_differ_by_the_per_slice_frame_bodies():
    assert composition(True) == ORACLES
    assert set(composition(True)) - set(composition(False)) == set(
        PER_SLICE_FRAMES
    )


@pytest.mark.parametrize(
    "per_slice", list(COMPOSITIONS.values()), ids=list(COMPOSITIONS)
)
def test_pinned_grids_replay_through_the_composition(pinned, per_slice):
    run, layers, workloads = pinned
    text, calls = replay("serve-replay", per_slice)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == workloads["serve-replay"]["csv_sha256"]

    event, event_calls = replay("grid-fast-event", per_slice, EVENT_COLUMN)
    order = [
        workload
        for _ in layers.FRAMEWORKS
        for workload in run.GRID_SPECS["grid-fast-event"]["workloads"]
    ]
    rows = workloads["grid-fast-event"]["row_sha256"]
    assert run.row_digests(event) == [
        row for row, workload in zip(rows, order) if workload in EVENT_COLUMN
    ]

    missing = (reached("analytic", per_slice) - set(calls)) | (
        reached("event", per_slice) - set(event_calls)
    )
    assert not missing, f"references never called: {sorted(missing)}"
