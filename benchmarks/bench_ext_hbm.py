"""Extension: bandwidth-asymmetry (HBM generation) scaling, Section 6.3.

The paper's conclusion claims OO-VR "can potentially benefit the future
larger multi-GPU scenario with ever increasing asymmetric bandwidth
between local and remote memory".  This bench holds the 64 GB/s link
fixed and sweeps local DRAM bandwidth from link-parity (64 GB/s — a
flat machine with no NUMA asymmetry) up to HBM3e-class 4 TB/s: OO-VR's
advantage over the baseline should grow with the asymmetry and
saturate once compute binds.
"""

from benchmarks.conftest import BENCH, record_output
from repro.extensions.hbm import local_bandwidth_sweep

SCHEMES = ("baseline", "object", "oo-vr")
WORKLOADS = ("DM3-1280", "HL2-1280", "WE")


def run_hbm():
    table = local_bandwidth_sweep(
        schemes=SCHEMES,
        workloads=WORKLOADS,
        draw_scale=BENCH.draw_scale,
        num_frames=BENCH.num_frames,
    )
    lines = [
        "Extension E4: speedup vs (baseline, 1 TB/s local DRAM) by "
        "local:link bandwidth asymmetry",
        "link bandwidth fixed at 64 GB/s throughout",
        f"{'local DRAM':<18}" + "".join(f"{s:>12}" for s in SCHEMES),
    ]
    for generation, row in table.items():
        lines.append(
            f"{generation:<18}" + "".join(f"{row[s]:>12.2f}" for s in SCHEMES)
        )
    return "\n".join(lines), table


def test_ext_hbm(bench_once):
    text, table = bench_once(run_hbm)
    record_output("ext_hbm", text)
    # The advantage of OO-VR over the baseline grows with the
    # local:link asymmetry (flat machine -> paper's HBM machine).
    flat = table["64 GB/s (=link)"]
    paper = table["1 TB/s (paper)"]
    assert paper["oo-vr"] / paper["baseline"] > flat["oo-vr"] / flat["baseline"]
    # And saturates rather than regresses beyond the paper's point.
    future = table["4 TB/s"]
    assert future["oo-vr"] >= paper["oo-vr"] * 0.99
