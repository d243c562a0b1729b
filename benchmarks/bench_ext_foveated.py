"""Extension: foveated rendering stacked on top of OO-VR.

Foveation cuts fragment-shading work by eccentricity; OO-VR cuts
inter-GPM traffic by locality.  The two are orthogonal, so their
speedups should (approximately) compose — this bench measures the
stack on the pixel-heavy workloads where foveation has the most to
save.

The study is one declarative Sweep over three design points —
``baseline``, ``oo-vr``, and the ``oo-vr:fov`` framework variant
(:func:`repro.extensions.foveated.foveation_study`) — memoised through
the shared bench cache.
"""

from benchmarks.conftest import BENCH, record_output
from repro.extensions.foveated import FoveationConfig, foveation_study
from repro.stats.metrics import geomean

WORKLOADS = ("DM3-1600", "HL2-1600", "NFS")


def run_foveated():
    table = foveation_study(WORKLOADS, BENCH)
    # The "oo-vr:fov" variant renders with the default three-ring
    # profile; report exactly those parameters.
    profile = FoveationConfig()
    rows = []
    stacked_gains = []
    for workload, speedups in table.items():
        s_oovr = speedups["oo-vr"]
        s_stack = speedups["oo-vr+fov"]
        stacked_gains.append(s_stack / s_oovr)
        rows.append(
            f"{workload:<10}{s_oovr:>12.2f}{s_stack:>14.2f}"
            f"{s_stack / s_oovr:>14.2f}"
        )
    gain = geomean(stacked_gains)
    text = "\n".join(
        [
            "Extension E5: foveated rendering stacked on OO-VR "
            "(speedup over baseline)",
            f"profile: fovea r={profile.fovea_radius} rate={profile.fovea_rate}, "
            f"mid r={profile.mid_radius} rate={profile.mid_rate}, "
            f"periphery rate={profile.periphery_rate}",
            f"{'workload':<10}{'oo-vr':>12}{'oo-vr+fov':>14}{'fov gain':>14}",
            *rows,
            f"geomean foveation gain on top of OO-VR: {gain:.2f}x",
        ]
    )
    return text, gain


def test_ext_foveated(bench_once):
    text, gain = bench_once(run_foveated)
    record_output("ext_foveated", text)
    assert gain > 1.0
