"""Inter-GPM link topologies with multi-hop routing.

The paper assumes "each GPM has 6 ports and each pair of ports is used
to connect two GPMs, indicating that the intercommunication between two
GPMs will not be interfered by other GPMs" — a fully connected fabric.
That assumption stops scaling cheaply past a handful of GPMs (an
N-GPM clique needs N-1 ports per GPM), so larger systems will ship
rings or switches instead.  :class:`RoutedLinkFabric` generalises the
base :class:`~repro.memory.link.LinkFabric` with a routing function so
the same experiments run over:

- ``FULLY_CONNECTED`` — the paper's fabric (one hop, no interference);
- ``RING`` — each GPM links to its two neighbours; remote traffic
  takes the shortest way around and consumes bandwidth on every hop;
- ``SWITCH`` — every GPM has one up/down link pair to a central
  crossbar; all of a GPM's remote traffic shares its two ports.

:func:`topology_sweep` compares schemes across topologies: OO-VR's
traffic reduction matters *more* on the cheaper fabrics, because every
byte it removes would have crossed several contended hops.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Sequence, Tuple

from repro.config import SystemConfig
from repro.memory.link import TRAFFIC_TYPES, LinkFabric, TrafficType

__all__ = [
    "RoutedLinkFabric",
    "Topology",
    "install_topology",
    "topology_sweep",
]


class Topology(enum.Enum):
    """How GPMs are wired together."""

    FULLY_CONNECTED = "fully-connected"
    RING = "ring"
    SWITCH = "switch"

    def ports_required(self, num_gpms: int) -> int:
        """Ports per GPM this topology needs at ``num_gpms`` modules."""
        if self is Topology.FULLY_CONNECTED:
            return max(1, num_gpms - 1)
        if self is Topology.RING:
            return 2 if num_gpms > 2 else 1
        return 1  # SWITCH: one bidirectional port pair to the crossbar


class RoutedLinkFabric(LinkFabric):
    """A link fabric that routes transfers over physical hops.

    The base class records one (src, dst) entry per *logical* transfer;
    this subclass expands each transfer into its physical hop sequence,
    so ``bytes_between`` and the busiest-link statistics reflect real
    wire load.  Hop latency stacks per hop.  For the ``SWITCH``
    topology the crossbar is modelled as a virtual node with id
    ``num_gpms`` (it appears in hop statistics but owns no DRAM).

    Logical per-type totals (``bytes_by_type``) count each transfer
    once regardless of hop count, so traffic *figures* stay comparable
    across topologies while *time* reflects the extra wire crossings.
    """

    def __init__(
        self,
        num_gpms: int,
        bytes_per_cycle: float,
        latency_cycles: int = 0,
        topology: Topology = Topology.FULLY_CONNECTED,
    ) -> None:
        super().__init__(num_gpms, bytes_per_cycle, latency_cycles)
        self.topology = topology
        self._logical_by_type: Dict[TrafficType, float] = {}
        self._logical_total = 0.0

    # -- routing --------------------------------------------------------------

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """The physical hop list for a logical ``src -> dst`` transfer."""
        if src == dst:
            return []
        if self.topology is Topology.FULLY_CONNECTED:
            return [(src, dst)]
        if self.topology is Topology.SWITCH:
            switch = self.num_gpms
            return [(src, switch), (switch, dst)]
        # RING: walk the shorter direction.
        n = self.num_gpms
        forward = (dst - src) % n
        backward = (src - dst) % n
        hops: List[Tuple[int, int]] = []
        node = src
        if forward <= backward:
            for _ in range(forward):
                nxt = (node + 1) % n
                hops.append((node, nxt))
                node = nxt
        else:
            for _ in range(backward):
                nxt = (node - 1) % n
                hops.append((node, nxt))
                node = nxt
        return hops

    def _check(self, gpm: int) -> None:
        # Allow the virtual switch node (id == num_gpms) in hop records.
        limit = self.num_gpms + (1 if self.topology is Topology.SWITCH else 0)
        if not 0 <= gpm < limit:
            raise ValueError(f"GPM {gpm} out of range 0..{limit - 1}")

    def transfer(
        self, src: int, dst: int, nbytes: float, traffic: TrafficType
    ) -> float:
        if not 0 <= src < self.num_gpms or not 0 <= dst < self.num_gpms:
            raise ValueError("transfer endpoints must be real GPMs")
        if src == dst or nbytes <= 0:
            return 0.0
        self._logical_total += nbytes
        self._logical_by_type[traffic] = (
            self._logical_by_type.get(traffic, 0.0) + nbytes
        )
        cycles = 0.0
        for hop_src, hop_dst in self.route(src, dst):
            cycles += super().transfer(hop_src, hop_dst, nbytes, traffic)
        return cycles

    def transfer_batch(self, src, dst, nbytes, traffic) -> None:
        """:meth:`transfer` row by row, so the logical totals and every
        hop land in call order (the base class's batched bookkeeping
        knows no routes)."""
        for s, d, b, t in zip(
            src.tolist(), dst.tolist(), nbytes.tolist(), traffic.tolist()
        ):
            self.transfer(s, d, b, TRAFFIC_TYPES[t])

    # ``hops`` comes from the base class's precomputed matrix, which is
    # built from this subclass's ``route`` on first use.

    # -- logical queries (figure-comparable) -----------------------------------

    @property
    def total_bytes(self) -> float:
        """Logical inter-GPM bytes (each transfer counted once)."""
        return self._logical_total

    def bytes_by_type(self) -> Dict[TrafficType, float]:
        return dict(self._logical_by_type)

    @property
    def wire_bytes(self) -> float:
        """Physical bytes over all hops (>= logical total)."""
        return sum(s.bytes_total for s in self._links.values())

    @property
    def hop_inflation(self) -> float:
        """Wire bytes per logical byte (1.0 for fully connected)."""
        if self._logical_total == 0:
            return 1.0
        return self.wire_bytes / self._logical_total

    def reset(self) -> None:
        super().reset()
        self._logical_by_type = {}
        self._logical_total = 0.0


def install_topology(system, topology: Topology) -> None:
    """Swap ``system``'s fabric for a routed one (fresh counters).

    Call right after constructing the
    :class:`~repro.gpu.system.MultiGPUSystem` and before rendering.
    """
    old = system.fabric
    system.fabric = RoutedLinkFabric(
        old.num_gpms, old.bytes_per_cycle, old.latency_cycles, topology
    )


def topology_sweep(
    schemes: Sequence[str] = ("baseline", "object", "oo-vr"),
    topologies: Sequence[Topology] = tuple(Topology),
    workloads: Sequence[str] = ("DM3-1280", "HL2-1280", "WE"),
    draw_scale: float = 1.0,
    num_frames: int = 2,
    config: SystemConfig | None = None,
) -> Dict[str, Dict[str, float]]:
    """Single-frame speedup over (baseline, fully-connected) per cell.

    Returns ``{topology.value: {scheme: speedup}}`` (geomean over
    workloads).  The study is one declarative
    :class:`~repro.session.Sweep`: each (scheme, topology) cell is the
    framework variant ``"<scheme>:topo=<topology>"`` (see
    :mod:`repro.frameworks.variants`), so the grid runs on any executor
    and result cache like any figure sweep.
    """
    from repro.session import Sweep
    from repro.stats.metrics import geomean

    reference_name = f"baseline:topo={Topology.FULLY_CONNECTED.value}"
    names = [
        f"{scheme}:topo={topology.value}"
        for topology in topologies
        for scheme in schemes
    ]
    if reference_name not in names:
        names.append(reference_name)
    sweep = (
        Sweep()
        .workloads(*workloads)
        .frames(num_frames)
        .scale(draw_scale)
        .frameworks(*names)
    )
    if config is not None:
        sweep.config(config)
    results = sweep.run()

    def cycles(name: str) -> Dict[str, float]:
        return {
            workload: results.get(
                framework=name, workload=workload
            ).single_frame_cycles
            for workload in workloads
        }

    reference = cycles(reference_name)
    table: Dict[str, Dict[str, float]] = {}
    for topology in topologies:
        row: Dict[str, float] = {}
        for scheme in schemes:
            mine = cycles(f"{scheme}:topo={topology.value}")
            row[scheme] = geomean(
                [reference[w] / mine[w] for w in workloads]
            )
        table[topology.value] = row
    return table
