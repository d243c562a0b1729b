"""Extension: ATW frame pacing (Section 2.2 / 4.1's motion-anomaly case).

Paces each scheme's single-frame latencies through a 90 Hz HMD
compositor.  The Table 3 games render a few Mpixel per frame; Table 1's
stereo-VR panel needs 116.64 Mpixel (58.32 per eye x 2), so each
measured latency is first scaled by the panel-to-workload pixel ratio —
"this workload's engine, at VR panel resolution".  At that scale the
schemes separate: the baseline misses nearly every vsync, OO-VR meets
several times more of them, and AFR's high throughput cannot rescue its
single-frame latency (the paper's judder argument, measured).

The study is one declarative (scheme x workload) Sweep
(:func:`repro.extensions.atw.atw_study`) memoised through the shared
bench cache.
"""

from benchmarks.conftest import BENCH, record_output
from repro.extensions.atw import ATWConfig, atw_study
from repro.stats.metrics import geomean

SCHEMES = ("baseline", "object", "afr", "oo-vr")
#: Table 1: 58.32 Mpixel per eye, two eyes.
VR_PANEL_PIXELS = 58.32e6 * 2
ATW = ATWConfig(refresh_hz=90.0, eye_width=1280, eye_height=1024)


def run_atw():
    reports_by_scheme = atw_study(
        SCHEMES,
        BENCH,
        atw=ATW,
        panel_pixels=VR_PANEL_PIXELS,
    )
    rows = []
    fresh_rates = {}
    for scheme, reports in reports_by_scheme.items():
        fresh = geomean([max(r.fresh_rate, 1e-6) for r in reports])
        worst = max(r.worst_lag_vsyncs for r in reports)
        latency = geomean([r.mean_latency_ms for r in reports])
        fresh_rates[scheme] = fresh
        rows.append(
            f"{scheme:<10}{latency:>14.1f}{100 * fresh:>10.1f}%"
            f"{100 * (1 - fresh):>10.1f}%{worst:>12d}"
        )
    header = (
        f"{'scheme':<10}{'VR latency ms':>14}{'fresh':>11}{'judder':>11}"
        f"{'worst lag':>12}"
    )
    text = "\n".join(
        [
            "Extension E2: ATW frame pacing at 90 Hz, latencies scaled to",
            f"Table 1's {VR_PANEL_PIXELS / 1e6:.1f} Mpixel stereo panel "
            "(geomean over workloads)",
            header,
            *rows,
        ]
    )
    return text, fresh_rates


def test_ext_atw(bench_once):
    text, fresh = bench_once(run_atw)
    record_output("ext_atw", text)
    # OO-VR must deliver more fresh frames than object-level SFR, which
    # beats the baseline; AFR's throughput cannot rescue its latency.
    assert fresh["oo-vr"] > fresh["baseline"]
    assert fresh["oo-vr"] >= fresh["object"]
    assert fresh["oo-vr"] > fresh["afr"]
