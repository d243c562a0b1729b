"""Extension: link topology study (beyond the paper's dedicated links).

The paper assumes a fully connected fabric ("each GPM has 6 ports ...
intercommunication between two GPMs will not be interfered").  Rings
and central switches are what larger systems actually ship; this bench
measures each scheme on all three fabrics.  The expected shape: the
baseline degrades steeply on cheaper fabrics (every remote byte crosses
more contended wire), while OO-VR is nearly topology-insensitive —
locality is worth more when the fabric is worse.
"""

from benchmarks.conftest import BENCH, record_output
from repro.extensions.topology import Topology, topology_sweep

SCHEMES = ("baseline", "object", "oo-vr")
WORKLOADS = ("DM3-1280", "HL2-1280", "WE")


def run_topology():
    table = topology_sweep(
        schemes=SCHEMES,
        workloads=WORKLOADS,
        draw_scale=BENCH.draw_scale,
        num_frames=BENCH.num_frames,
    )
    lines = [
        "Extension E3: speedup vs (baseline, fully-connected) by topology",
        f"workloads: {', '.join(WORKLOADS)} (geomean)",
        f"{'topology':<18}" + "".join(f"{s:>12}" for s in SCHEMES),
    ]
    for topology, row in table.items():
        lines.append(
            f"{topology:<18}" + "".join(f"{row[s]:>12.2f}" for s in SCHEMES)
        )
    return "\n".join(lines), table


def test_ext_topology(bench_once):
    text, table = bench_once(run_topology)
    record_output("ext_topology", text)
    ring = table[Topology.RING.value]
    full = table[Topology.FULLY_CONNECTED.value]
    # OO-VR keeps more of its fully-connected performance on a ring
    # than the baseline keeps of its own.
    assert ring["oo-vr"] / full["oo-vr"] >= ring["baseline"] / full["baseline"]
    # And on every topology OO-VR stays the fastest scheme.
    for row in table.values():
        assert row["oo-vr"] >= row["object"] >= row["baseline"] * 0.99
