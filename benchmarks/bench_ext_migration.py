"""Extension: reactive page migration vs proactive pre-allocation.

The NUMA-GPU works the paper builds on use reactive mechanisms
(first-touch, remote caches, migration); OO-VR's distribution engine is
proactive (PA units copy a batch's data before rendering).  This bench
runs the baseline with a hot-page migration engine attached and
compares latency *and* traffic against plain baseline and OO-VR: the
measured argument is that migration recovers some latency but pays for
it in copy traffic, while OO-VR improves both at once.

The study is one declarative (scheme x workload) Sweep
(:func:`repro.extensions.migration.migration_study`) memoised through
the shared bench cache.
"""

from benchmarks.conftest import BENCH, record_output
from repro.extensions.migration import migration_study

SCHEMES = ("baseline", "baseline-mig", "oo-vr")


def run_migration():
    summary = migration_study(SCHEMES, BENCH)
    lines = [
        "Extension E6: reactive migration vs proactive pre-allocation",
        f"{'scheme':<14}{'speedup':>10}{'traffic vs baseline':>22}",
    ]
    for scheme, (speedup, traffic) in summary.items():
        lines.append(f"{scheme:<14}{speedup:>10.2f}{traffic:>22.2f}")
    return "\n".join(lines), summary


def test_ext_migration(bench_once):
    text, summary = bench_once(run_migration)
    record_output("ext_migration", text)
    mig_speedup, mig_traffic = summary["baseline-mig"]
    oovr_speedup, oovr_traffic = summary["oo-vr"]
    # Migration helps latency a little but cannot cut traffic the way
    # proactive batching does.
    assert mig_speedup >= 0.99
    assert oovr_speedup > mig_speedup
    assert oovr_traffic < mig_traffic
