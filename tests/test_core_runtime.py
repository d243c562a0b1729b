"""The OO-VR hardware layer: predictor, distribution engine, overhead."""

import pytest

from repro.config import baseline_system
from repro.core.ablation import OOVRFeatures
from repro.core.distribution import DistributionEngine
from repro.core.overhead import OverheadModel
from repro.core.oovr import _BatchBuilder, OOVRFramework
from repro.core.predictor import (
    CALIBRATION_BATCHES,
    BatchObservation,
    RenderingTimePredictor,
)
from repro.gpu.system import MultiGPUSystem
from repro.memory.link import TrafficType
from tests.conftest import MB, make_object


def observation(triangles, cycles, tv=None, pixels=None):
    return BatchObservation(
        triangles=triangles,
        transformed_vertices=tv if tv is not None else triangles * 0.6,
        rendered_pixels=pixels if pixels is not None else triangles * 20.0,
        cycles=cycles,
    )


class TestPredictor:
    def test_not_calibrated_initially(self):
        predictor = RenderingTimePredictor()
        assert not predictor.is_calibrated
        with pytest.raises(RuntimeError):
            predictor.predict_total(100.0)

    def test_calibrates_after_eight_batches(self):
        predictor = RenderingTimePredictor()
        for i in range(CALIBRATION_BATCHES):
            predictor.observe(observation(1000.0 + i, 5000.0 + 5 * i))
        assert predictor.is_calibrated

    def test_c0_recovers_linear_rate(self):
        predictor = RenderingTimePredictor()
        for i in range(8):
            tris = 500.0 * (i + 1)
            predictor.observe(observation(tris, cycles=tris * 3.0))
        assert predictor.c0 == pytest.approx(3.0, rel=0.01)

    def test_total_prediction_linear_in_triangles(self):
        predictor = RenderingTimePredictor()
        for i in range(8):
            tris = 500.0 * (i + 1)
            predictor.observe(observation(tris, cycles=tris * 2.0))
        assert predictor.predict_total(1000.0) == pytest.approx(2000.0, rel=0.05)

    def test_elapsed_from_counters(self):
        predictor = RenderingTimePredictor()
        # cycles = 1.0 * tv + 0.05 * pixels exactly.
        for i in range(1, 9):
            tv, px = 600.0 * i, 10_000.0 * i
            predictor.observe(
                BatchObservation(
                    triangles=1000.0 * i,
                    transformed_vertices=tv,
                    rendered_pixels=px,
                    cycles=1.0 * tv + 0.05 * px,
                )
            )
        assert predictor.predict_elapsed(600.0, 10_000.0) == pytest.approx(
            1100.0, rel=0.15
        )

    def test_remaining_non_negative(self):
        predictor = RenderingTimePredictor()
        for i in range(1, 9):
            predictor.observe(observation(1000.0 * i, 3000.0 * i))
        remaining = predictor.remaining(
            predicted_total=100.0,
            transformed_vertices=1e9,
            rendered_pixels=1e9,
        )
        assert remaining == 0.0

    def test_rates_never_negative(self):
        predictor = RenderingTimePredictor()
        for i in range(1, 9):
            predictor.observe(
                BatchObservation(
                    triangles=100.0 * i,
                    transformed_vertices=60.0 * i,
                    rendered_pixels=2000.0 * i,
                    cycles=500.0 * i,
                )
            )
        assert predictor.c1 >= 0.0
        assert predictor.c2 >= 0.0

    def test_calibrated_totals_track_observations(self):
        predictor = RenderingTimePredictor()
        for i in range(1, 9):
            predictor.observe(observation(1000.0 * i, 3000.0 * i))
        for i in range(1, 9):
            predicted = predictor.predict_total(1000.0 * i)
            assert abs(predicted - 3000.0 * i) / (3000.0 * i) < 0.05

    def test_invalid_observation_rejected(self):
        with pytest.raises(ValueError):
            BatchObservation(
                triangles=-1.0,
                transformed_vertices=0.0,
                rendered_pixels=0.0,
                cycles=1.0,
            )


def build_batches(pool, count=16, triangles=800, materials=5):
    objects = [
        make_object(
            i,
            pool,
            textures=((f"mat{i % materials}", MB),),
            triangles=triangles,
            x=40.0 * (i % 20) + 10,
            y=30.0 * (i % 15) + 10,
            w=140.0,
            h=120.0,
        )
        for i in range(count)
    ]
    from repro.scene.scene import Frame

    return Frame(objects=tuple(objects), width=1280, height=1024)


class TestDistributionEngine:
    def _dispatch(self, pool, config=None, count=60, materials=20):
        cfg = config or baseline_system()
        system = MultiGPUSystem(cfg)
        system.begin_frame()
        framework = OOVRFramework(cfg)
        frame = build_batches(pool, count=count, materials=materials)
        engine = DistributionEngine(system)
        pairs = _BatchBuilder(framework).build(frame)
        pixels = engine.dispatch(pairs)
        return system, engine, pixels

    def test_first_batches_round_robin(self, pool):
        _system, engine, _pixels = self._dispatch(pool)
        calibration = [r for r in engine.records if r.calibration]
        assert len(calibration) >= 1
        gpms = [r.gpm for r in calibration]
        assert gpms == [i % 4 for i in range(len(gpms))]

    def test_prediction_enabled_after_calibration(self, pool):
        _system, engine, _pixels = self._dispatch(pool)
        predicted = [r for r in engine.records if not r.calibration]
        assert predicted, "prediction phase never engaged"
        assert all(r.predicted_cycles is not None for r in predicted)

    def test_all_gpms_participate(self, pool):
        _system, engine, _pixels = self._dispatch(pool)
        assert {r.gpm for r in engine.records} == {0, 1, 2, 3}

    def test_balances_better_than_round_robin(self, pool):
        cfg = baseline_system()
        frame = build_batches(pool, count=40)
        framework = OOVRFramework(cfg)
        pairs = _BatchBuilder(framework).build(frame)

        # Round-robin reference.
        system_rr = MultiGPUSystem(cfg)
        system_rr.begin_frame()
        for index, (_batch, unit) in enumerate(pairs):
            system_rr.execute_unit(unit, index % 4, fb_targets={index % 4: 1.0})
        rr = system_rr.frame_result("rr", "w").load_balance_ratio

        system_engine = MultiGPUSystem(cfg)
        system_engine.begin_frame()
        engine = DistributionEngine(system_engine)
        engine.dispatch(pairs)
        engine_ratio = system_engine.frame_result("eng", "w").load_balance_ratio
        assert engine_ratio <= rr * 1.05

    def test_single_gpm_no_stealing(self, pool):
        cfg = baseline_system(num_gpms=1)
        system, engine, pixels = self._dispatch(pool, config=cfg)
        assert len(pixels) == 1
        assert pixels[0] > 0

    def test_pixels_conserved(self, pool):
        cfg = baseline_system()
        frame = build_batches(pool, count=24)
        framework = OOVRFramework(cfg)
        pairs = _BatchBuilder(framework).build(frame)
        expected = sum(unit.pixels_out for _b, unit in pairs)
        system = MultiGPUSystem(cfg)
        system.begin_frame()
        engine = DistributionEngine(system)
        pixels = engine.dispatch(pairs)
        assert sum(pixels) == pytest.approx(expected, rel=1e-6)


def spy_on(monkeypatch, obj, name):
    """Record ``(args, kwargs, result)`` of every call to ``obj.name``."""
    calls = []
    original = getattr(obj, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(obj, name, spy)
    return calls


class TestFeatureSwitches:
    """Each ablation switch turns one mechanism off in the one engine."""

    def _dispatch(self, pool, monkeypatch, features, method):
        """Dispatch a 60-object frame, spying on ``method`` of the engine."""
        cfg = baseline_system()
        system = MultiGPUSystem(cfg)
        system.begin_frame()
        pairs = _BatchBuilder(OOVRFramework(cfg)).build(
            build_batches(pool, count=60, materials=20)
        )
        engine = DistributionEngine(system, features=features)
        calls = spy_on(monkeypatch, system.engine, method)
        engine.dispatch(pairs)
        return system, engine, calls

    def test_without_prediction_batches_go_to_the_idle_first_gpm(
        self, pool, monkeypatch
    ):
        _system, engine, calls = self._dispatch(
            pool, monkeypatch, OOVRFeatures(prediction=False), "next_idle"
        )
        assert [r.gpm for r in engine.records] == [
            result for _args, _kwargs, result in calls
        ]
        assert not any(r.calibration for r in engine.records)

    def test_prediction_dispatch_never_asks_for_the_idle_gpm(
        self, pool, monkeypatch
    ):
        _system, engine, calls = self._dispatch(
            pool, monkeypatch, OOVRFeatures(), "next_idle"
        )
        assert engine.records and calls == []

    def test_prediction_ranks_gpms_by_predicted_remaining_work(self):
        system = MultiGPUSystem(baseline_system())
        system.begin_frame()
        engine = DistributionEngine(system)
        for i in range(1, CALIBRATION_BATCHES + 1):
            engine.predictor.observe(observation(1000.0 * i, 3000.0 * i))
        busy = (9000.0, 4000.0, 6000.0, 8000.0)
        for state, predicted_busy in zip(engine._states, busy):
            state.predicted_busy = predicted_busy
        assert engine._select_gpm(CALIBRATION_BATCHES) == (1, False)
        # GPM 3's counters say 2000 triangles' worth (~6000 cycles) of
        # its queued work is done, so it now has the least remaining.
        system.gpms[3].transformed_vertices = 0.6 * 2000.0
        system.gpms[3].rendered_pixels = 20.0 * 2000.0
        assert engine.predictor.remaining(
            busy[3], 0.6 * 2000.0, 20.0 * 2000.0
        ) < busy[1]
        assert engine._select_gpm(CALIBRATION_BATCHES) == (3, False)

    @pytest.mark.parametrize("stealing", [True, False])
    def test_stealing_switch_gates_straggler_splitting(
        self, pool, monkeypatch, stealing
    ):
        system, _engine, calls = self._dispatch(
            pool, monkeypatch, OOVRFeatures(stealing=stealing), "steal_into"
        )
        stolen = system.frame_result("t", "w").traffic.bytes_of(
            TrafficType.STEAL
        )
        assert bool(calls) is stealing
        assert (stolen > 0) is stealing

    @pytest.mark.parametrize("preallocation", [True, False])
    def test_preallocation_switch_gates_the_prefetch(
        self, pool, monkeypatch, preallocation
    ):
        _system, engine, calls = self._dispatch(
            pool,
            monkeypatch,
            OOVRFeatures(preallocation=preallocation),
            "stage_flow",
        )
        # One PA copy per batch, prefetched only with the PA units on;
        # either way the bytes travel as PREALLOC traffic.
        assert len(calls) == len(engine.records)
        assert all(
            kwargs["prefetched"] is preallocation
            for _args, kwargs, _result in calls
        )
        copies = [copy for args, _kwargs, _result in calls for copy in args[1]]
        assert copies
        assert all(copy.traffic is TrafficType.PREALLOC for copy in copies)

    @pytest.mark.parametrize("dhc", [True, False])
    def test_dhc_switch_picks_the_composition(self, pool, monkeypatch, dhc):
        framework = OOVRFramework(
            baseline_system(),
            features=OOVRFeatures(distributed_composition=dhc),
        )
        system = framework.make_system()
        system.begin_frame()
        calls = spy_on(monkeypatch, system.engine, "composition_phase")
        framework.render_frame_on(system, build_batches(pool, count=24), "w")
        [((schedule,), _kwargs, _result)] = calls
        if dhc:
            assert schedule.label == "compose-dhc"
            assert set(schedule.rop_cycles) == {0, 1, 2, 3}
        else:
            assert schedule.label == "compose-master"
            assert set(schedule.rop_cycles) == {0}
            assert schedule.transfers
            assert all(t.dst == 0 for t in schedule.transfers)


class TestOverheadModel:
    def test_paper_storage_bits(self):
        model = OverheadModel()
        # 4 GPMs x 2 counters x 64b + 4-entry queue x (16b + 64b)
        # + 12 x 32b registers = 512 + 320 + 384 = 1216 bits; the paper
        # rounds its accounting to 960 — we stay within 30%.
        assert model.counter_storage_bits == 512
        assert model.tracking_bits == 384
        assert 900 <= model.total_storage_bits <= 1300

    def test_area_scales_with_bits(self):
        small = OverheadModel(num_gpms=4)
        large = OverheadModel(num_gpms=8)
        assert large.area_mm2 > small.area_mm2

    def test_area_fraction_below_half_percent(self):
        assert OverheadModel().area_fraction_of_gtx1080 < 0.005

    def test_power_fraction_below_half_percent(self):
        assert OverheadModel().power_fraction_of_gtx1080_tdp < 0.005

    def test_report_mentions_bits(self):
        report = OverheadModel().report()
        assert "bits" in report
        assert "mm^2" in report

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            OverheadModel(num_gpms=0)
