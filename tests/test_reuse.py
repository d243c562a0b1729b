"""Frame-derived artefacts memoised on the frame (``Frame.derived``).

Covers the memo's contract (one build per key, a distinct frame builds
again), byte-transparency against a memo-free reference on the serial
and process executors and through ``Session.run``, which frameworks
read which artefacts, that artefacts die with their frame, and that
the removed on/off knob stays removed.  The memo-free reference is
the oracle table's ``MEMO_FREE`` entry, which patches ``Frame.derived``
to call ``build()`` every time.
"""

from __future__ import annotations

import gc
import importlib
import weakref
from dataclasses import replace

import pytest

from repro import cli
from repro.core.oovr import _BatchBuilder
from repro.frameworks.base import build_framework
from repro.pipeline.batch import frame_counters, unit_columns
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.smp import SMPMode
from repro.scene.scene import Frame
from repro.session import Session, Sweep
from repro.session.spec import cached_scene
from tests.oracles import MEMO_FREE


def shared_grid() -> Sweep:
    """Frameworks sharing one workload: the reuse-friendly shape."""
    return (
        Sweep().fast().frameworks("oo-vr", "oo-app").workloads("HL2-640")
    )


def fresh_frame(workload: str = "DM3-640") -> Frame:
    """A fast frame equal to the memoised one, with an empty memo."""
    return replace(cached_scene(workload, 2, 2019, 0.15).frames[0])


class BuildSpy:
    """Counts the real builds behind both memoised sections: groupings
    and unit tables."""

    def __init__(self, monkeypatch) -> None:
        self.batches = 0
        self.tables = 0
        build = _BatchBuilder._build
        build_table = DrawCharacterizer._unit_columns

        def counted_build(builder, frame):
            self.batches += 1
            return build(builder, frame)

        def counted_table(characterizer, frame, mode, expansion):
            self.tables += 1
            return build_table(characterizer, frame, mode, expansion)

        monkeypatch.setattr(_BatchBuilder, "_build", counted_build)
        monkeypatch.setattr(DrawCharacterizer, "_unit_columns", counted_table)

    @property
    def counts(self):
        return (self.batches, self.tables)


@pytest.fixture
def spy(monkeypatch) -> BuildSpy:
    return BuildSpy(monkeypatch)


# ---------------------------------------------------------------------------
# The memo itself
# ---------------------------------------------------------------------------


class TestFrameMemo:
    def test_derived_builds_once_per_key(self):
        frame = fresh_frame()
        calls = []

        def build():
            calls.append(1)
            return ("artefact", len(calls))

        first = frame.derived(("section", "cost"), build)
        second = frame.derived(("section", "cost"), build)
        assert first is second  # the very same object, not a copy
        assert calls == [1]
        # Another key (section or config slice) is its own entry.
        assert frame.derived(("section", "other"), build) == ("artefact", 2)
        assert frame.derived(("other", "cost"), build) == ("artefact", 3)
        assert frame.derived(("section", "cost"), build) is first

    def test_equal_but_distinct_frame_builds_again(self):
        """The memo lives on the object: an equal frame derived with
        ``replace`` starts empty and never sees the other's entries."""
        frame = fresh_frame()
        twin = replace(frame)
        assert twin == frame and twin is not frame
        calls = []

        def build():
            calls.append(1)
            return len(calls)

        assert frame.derived("key", build) == 1
        assert twin.derived("key", build) == 2
        assert frame.derived("key", build) == 1

    def test_memoised_frame_is_collectable(self):
        """Artefacts hold no reference to their frame, and nothing
        outside the frame holds the artefacts: once the last reference
        to a frame goes, the frame and its memo are freed."""
        frame = fresh_frame("HL2-640")
        pairs = build_framework("oo-vr")._builder.build(frame)
        assert pairs
        anchor = weakref.ref(frame)
        del frame
        gc.collect()
        assert anchor() is None

    def test_foveated_cells_leave_no_frames_behind(self):
        """``oo-vr:fov`` renders frames derived per cell; repeated cells
        do not grow the live frame count."""
        session = Session().framework("oo-vr:fov").workload("HL2-640").fast()

        def live_frames() -> int:
            gc.collect()
            return sum(isinstance(obj, Frame) for obj in gc.get_objects())

        session.run()
        before = live_frames()
        for _ in range(2):
            session.run()
        assert live_frames() == before


# ---------------------------------------------------------------------------
# Byte-transparency against the memo-free reference
# ---------------------------------------------------------------------------


class TestReuseTransparency:
    def test_serial_sweep_byte_identical_reuse_on_vs_off(self):
        with_reuse = shared_grid().run().to_csv()
        with MEMO_FREE.patch():
            assert shared_grid().run().to_csv() == with_reuse

    def test_process_sweep_byte_identical_reuse_on_vs_off(self):
        with MEMO_FREE.patch():
            serial = shared_grid().run().to_csv()
        assert shared_grid().run(jobs=2).to_csv() == serial

    def test_session_run_reuse_off_matches_default(self):
        session = Session().framework("oo-vr").workload("HL2-640").fast()
        default = session.run().to_dict()
        with MEMO_FREE.patch():
            assert session.run().to_dict() == default

    def test_fast_grid_csv_equal_with_and_without_memo(self):
        """Every registered scheme on every workload, plus two batching
        variants that group one memoised unit table a second way: the
        grid whose cells share the most artefacts reads exactly what
        it would have built."""
        grid = Sweep().fast().frameworks(
            "1tbs-bw", "afr", "baseline", "baseline-mig", "object",
            "oo-app", "oo-vr", "oo-vr:tsl=0.3", "oo-vr:cap=8192",
            "tile-h", "tile-v",
        )
        with_memo = grid.run().to_csv()
        with MEMO_FREE.patch():
            assert grid.run().to_csv() == with_memo

    def test_shared_workload_grid_actually_hits(self, spy):
        """Cells sharing a workload build each frame's artefacts once."""
        cached_scene.cache_clear()
        shared_grid().run()
        frames = len(shared_grid().specs()[0].scene().frames)
        # One grouping and one multi-view unit table per frame, though
        # two frameworks rendered every frame.
        assert spy.counts == (frames, frames)


class TestFrameAnchoredMemo:
    def test_batch_builder_returns_fresh_lists_of_the_same_pairs(self, spy):
        """A repeat build is a memo hit: a fresh list (no consumer can
        alias another cell's container) holding the very same frozen
        ``(batch, merged unit)`` pairs."""
        frame = fresh_frame()
        builder = build_framework("oo-vr")._builder
        first = builder.build(frame)
        second = builder.build(frame)
        assert spy.counts == (1, 1)
        assert first == second
        assert first is not second
        assert all(a is b for a, b in zip(first, second))

    def test_memo_builds_run_inside_bind_and_price(self):
        """The grouping and the merges out of the unit table are
        charged to ``bind``, the table's Eq. 3 build to ``price``; a
        memo hit enters no phase and nothing else is counted."""
        from repro.profiling import PhaseProfile, capture

        frame = fresh_frame("HL2-640")
        builder = build_framework("oo-app")._builder
        with capture(PhaseProfile()) as profile:
            builder.build(frame)
            builder.build(frame)
        assert profile.calls == {"bind": 1, "price": 1}
        assert profile.counters == {}

    @pytest.mark.parametrize(
        "mode, expansion",
        [
            (SMPMode.SIMULTANEOUS, "multiview"),
            (SMPMode.SEQUENTIAL, "stereo"),
        ],
    )
    def test_characterize_frame_hit_is_the_built_tuple(
        self, mode, expansion, spy
    ):
        """A repeat characterisation builds no second unit table: it
        reads the memoised one again, into a tuple equal to the first
        and field-for-field equal to reading a table built afresh from
        the frame's counters; the other plan of the frame is its own
        table."""
        frame = fresh_frame()
        characterizer = build_framework("baseline").characterizer
        built = characterizer.characterize_frame(
            frame, mode=mode, expansion=expansion
        )
        again = characterizer.characterize_frame(
            frame, mode=mode, expansion=expansion
        )
        assert again == built
        assert spy.tables == 1
        cost = characterizer.cost
        counters = frame_counters(
            frame.object_batch, cost, mode=mode, expansion=expansion
        )
        assert built == unit_columns(frame.object_batch, counters, cost).units()
        other = {
            SMPMode.SIMULTANEOUS: (SMPMode.SEQUENTIAL, "stereo"),
            SMPMode.SEQUENTIAL: (SMPMode.SIMULTANEOUS, "multiview"),
        }[mode]
        characterizer.characterize_frame(
            frame, mode=other[0], expansion=other[1]
        )
        assert spy.tables == 2

    def test_batches_hold_the_live_frames_objects(self):
        """Every object of the frame lands in exactly one batch as the
        very instance the frame holds, so artefacts anchored on objects
        downstream keep working; batches number from 0 in order and
        each merged unit is named after its batch."""
        frame = fresh_frame("WE")
        pairs = build_framework("oo-vr")._builder.build(frame)
        members = [obj for batch, _ in pairs for obj in batch.objects]
        assert len(members) == len(frame.objects)
        assert {id(obj) for obj in members} == {
            id(obj) for obj in frame.objects
        }
        assert len(pairs) < len(frame.objects)  # some batches merged
        for index, (batch, unit) in enumerate(pairs):
            assert batch.batch_id == index
            assert unit.label == f"batch{index}"

    def test_oo_app_reuses_the_pairs_oo_vr_built(self):
        """OO-APP and OO-VR share one grouping per frame: once either
        built it, the other neither groups nor prices the frame again."""
        frame = fresh_frame("HL2-640")
        built = build_framework("oo-vr")._builder.build(frame)
        oo_app = build_framework("oo-app")
        oo_app.characterizer.unit_columns = None  # would raise
        oo_app._builder._middleware.build_batches = None  # would raise
        reused = oo_app._builder.build(frame)
        assert reused == built
        assert all(a is b for a, b in zip(reused, built))

    @pytest.mark.parametrize(
        "tile, partner",
        [("tile-v", "baseline"), ("tile-h", "oo-vr")],
        ids=["tile-v-after-baseline", "tile-h-after-oo-vr"],
    )
    def test_tile_sfr_reads_what_its_partner_built(
        self, tile, partner, monkeypatch
    ):
        """Tile-v renders the sequential stereo draws the baseline
        splits, and tile-h the multi-view draws OO-VR groups, whose
        batches OO-VR merged from the frame's multi-view unit table.  So
        after the partner's cell, each tile scheme's table of every
        frame of the same workload point is a memo hit: it builds
        neither a table nor counters."""
        from repro.pipeline import characterize

        cached_scene.cache_clear()
        session = Session().framework(partner).workload("HL2-640").fast()
        session.run()
        frames = session.scene().frames
        built = {"tables": 0, "counters": 0}
        build_table = DrawCharacterizer._unit_columns
        build_counters = characterize.frame_counters

        def counted_table(characterizer, frame, mode, expansion):
            built["tables"] += 1
            return build_table(characterizer, frame, mode, expansion)

        def counted_counters(*args, **kwargs):
            built["counters"] += 1
            return build_counters(*args, **kwargs)

        monkeypatch.setattr(DrawCharacterizer, "_unit_columns", counted_table)
        monkeypatch.setattr(characterize, "frame_counters", counted_counters)
        framework = build_framework(tile)
        mode, expansion = framework._frame_plan()
        for frame in frames:
            framework.characterizer.unit_columns(
                frame, mode=mode, expansion=expansion
            )
        assert built == {"tables": 0, "counters": 0}

    def test_frame_memo_holds_groupings_and_unit_tables(self, monkeypatch):
        """An ``oo-vr`` cell, then a ``tile-h`` cell, ask the frame memo
        for two sections only: the Fig. 12 grouping and the unit table
        (OO-VR's batches merge its rows; no unit is memoised).
        The scenes start cold, so every section is built, not hit."""
        cached_scene.cache_clear()
        sections = set()
        derived = Frame.derived

        def spied(frame, key, build):
            sections.add(key[0])
            return derived(frame, key, build)

        monkeypatch.setattr(Frame, "derived", spied)
        for framework in ("oo-vr", "tile-h"):
            Session().framework(framework).workload("HL2-640").fast().run()
        assert sections == {"batch_builder", "unit_columns"}


# ---------------------------------------------------------------------------
# Per-process isolation
# ---------------------------------------------------------------------------


class TestPerProcessIsolation:
    def test_worker_caches_never_leak_into_the_parent(self, spy):
        """jobs > 1 executes in the pool: the parent builds nothing."""
        cached_scene.cache_clear()
        results = shared_grid().run(jobs=2)
        assert len(results) == 2
        assert spy.counts == (0, 0)


# ---------------------------------------------------------------------------
# The removed on/off knob
# ---------------------------------------------------------------------------


class TestRemovedKnob:
    def test_reuse_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.reuse")

    def test_session_run_rejects_reuse(self):
        session = Session().framework("oo-vr").workload("HL2-640").fast()
        with pytest.raises(TypeError):
            session.run(reuse=False)

    def test_sweep_run_rejects_reuse(self):
        with pytest.raises(TypeError):
            shared_grid().run(reuse=False)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "oo-vr", "HL2-640", "--fast"],
            ["sweep", "--frameworks", "oo-vr", "--workloads", "HL2-640",
             "--fast"],
        ],
        ids=["run", "sweep"],
    )
    def test_cli_rejects_no_reuse(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--no-reuse"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-reuse" in capsys.readouterr().err
