"""Page placement: who owns which page of which resource.

Implements the placement policies the paper evaluates:

- **first touch** (the MCM-GPU baseline the paper adopts): a page is
  placed in the DRAM of the first GPM that touches it;
- **interleaved**: pages round-robin across GPMs (the framebuffer of the
  naive single-programming-model baseline);
- **fixed**: all pages on one GPM (master-node framebuffer of classic
  object-level SFR);
- **replicated**: a copy on several GPMs (AFR's duplicated working set);
- **pre-allocation**: the OO-VR PA unit moves a resource's pages to a
  target GPM *before* rendering touches them, turning would-be remote
  reads into local ones at the price of one copy over the links.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.memory.address import Resource


class PlacementPolicy(enum.Enum):
    """Default policy applied when a page is first touched."""

    FIRST_TOUCH = "first-touch"
    INTERLEAVED = "interleaved"


@dataclass
class _Entry:
    """Placement record of one resource."""

    resource: Resource
    #: Owner GPM per page; parallel list over page indices.
    owners: List[int]
    #: GPMs holding a full replica (local reads everywhere in the set).
    replicas: Set[int] = field(default_factory=set)
    #: Read-only ``{gpm: page fraction}`` view of :attr:`owners`, built
    #: on first use; whoever rewrites ``owners`` resets it to ``None``.
    fractions: Optional[Mapping[int, float]] = None

    def owner_fractions(self) -> Mapping[int, float]:
        if self.fractions is None:
            counts: Dict[int, float] = {}
            for owner in self.owners:
                counts[owner] = counts.get(owner, 0.0) + 1.0
            total = len(self.owners)
            self.fractions = MappingProxyType(
                {gpm: count / total for gpm, count in counts.items()}
            )
        return self.fractions


class PagePlacement:
    """Tracks page ownership for every resource in the system."""

    def __init__(
        self,
        num_gpms: int,
        page_bytes: int,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
    ) -> None:
        if num_gpms <= 0:
            raise ValueError("need at least one GPM")
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        self.num_gpms = num_gpms
        self.page_bytes = page_bytes
        self.policy = policy
        self._entries: Dict[Tuple[str, int], _Entry] = {}
        self._interleave_cursor = 0
        #: Bytes resident per GPM (replicas counted once per holder).
        self.resident_bytes: List[float] = [0.0] * num_gpms

    # -- internal -----------------------------------------------------------

    def _place_new(self, resource: Resource, toucher: int) -> _Entry:
        pages = resource.num_pages(self.page_bytes)
        if self.policy is PlacementPolicy.FIRST_TOUCH:
            owners = [toucher] * pages
            self.resident_bytes[toucher] += resource.size_bytes
        else:
            owners = []
            for _ in range(pages):
                owner = self._interleave_cursor % self.num_gpms
                self._interleave_cursor += 1
                owners.append(owner)
                self.resident_bytes[owner] += self.page_bytes
        entry = _Entry(resource=resource, owners=owners)
        self._entries[resource.resource_id] = entry
        return entry

    def _entry(self, resource: Resource, toucher: int) -> _Entry:
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            entry = self._place_new(resource, toucher)
        return entry

    # -- queries ---------------------------------------------------------

    def is_placed(self, resource: Resource) -> bool:
        return resource.resource_id in self._entries

    def owner_fractions(
        self, resource: Resource, toucher: int
    ) -> Mapping[int, float]:
        """Fraction of the resource's pages owned by each GPM.

        Touching an unplaced resource places it first (first touch).  If
        ``toucher`` holds a replica, the resource is fully local to it.
        The map is read-only and cached per resource — rebuilt only when
        the resource's page owners change (placement, :meth:`migrate`)
        — so a touch costs a lookup, not a walk over every page.
        """
        entry = self._entry(resource, toucher)
        if toucher in entry.replicas:
            return MappingProxyType({toucher: 1.0})
        return entry.owner_fractions()

    def local_fraction(self, resource: Resource, gpm: int) -> float:
        """Fraction of the resource local to ``gpm`` (places if needed)."""
        return self.owner_fractions(resource, gpm).get(gpm, 0.0)

    def is_home(self, resource: Resource, gpm: int) -> bool:
        """Whether every page of ``resource`` *originally* lives on ``gpm``.

        Distinguishes the home DRAM from replicas: staging managers skip
        copies for resources homed on the renderer but re-stage replicas
        each frame (segmented memories are refilled per frame).
        """
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            return False
        fractions = entry.owner_fractions()
        return len(fractions) == 1 and gpm in fractions

    # -- explicit placement ------------------------------------------------

    def place_fixed(self, resource: Resource, gpm: int) -> None:
        """Place every page of ``resource`` on ``gpm`` (master node)."""
        self._require_unplaced(resource)
        pages = resource.num_pages(self.page_bytes)
        self._entries[resource.resource_id] = _Entry(resource, [gpm] * pages)
        self.resident_bytes[gpm] += resource.size_bytes

    def place_interleaved(self, resource: Resource) -> None:
        """Round-robin ``resource``'s pages across all GPMs."""
        self._require_unplaced(resource)
        pages = resource.num_pages(self.page_bytes)
        owners = [(self._interleave_cursor + i) % self.num_gpms for i in range(pages)]
        self._interleave_cursor += pages
        for owner in owners:
            self.resident_bytes[owner] += self.page_bytes
        self._entries[resource.resource_id] = _Entry(resource, owners)

    def place_striped(self, resource: Resource, stripes: Sequence[int]) -> None:
        """Partition pages contiguously across ``stripes`` (DHC layout).

        Page ``i`` goes to ``stripes[i * len(stripes) // pages]`` — i.e.
        equal contiguous spans, matching the vertical framebuffer split
        of the distributed hardware composition unit (Fig. 14).
        """
        self._require_unplaced(resource)
        if not stripes:
            raise ValueError("need at least one stripe owner")
        pages = resource.num_pages(self.page_bytes)
        owners = [stripes[min(i * len(stripes) // pages, len(stripes) - 1)]
                  for i in range(pages)]
        for owner in owners:
            self.resident_bytes[owner] += self.page_bytes
        self._entries[resource.resource_id] = _Entry(resource, owners)

    def replicate(self, resource: Resource, gpms: Iterable[int]) -> None:
        """Add full replicas of ``resource`` on ``gpms`` (AFR duplication)."""
        gpm_list = list(gpms)
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            if not gpm_list:
                raise ValueError("replicate needs at least one GPM")
            entry = _Entry(
                resource,
                [gpm_list[0]] * resource.num_pages(self.page_bytes),
            )
            self._entries[resource.resource_id] = entry
            self.resident_bytes[gpm_list[0]] += resource.size_bytes
        for gpm in gpm_list:
            if gpm not in entry.replicas:
                entry.replicas.add(gpm)
                self.resident_bytes[gpm] += resource.size_bytes

    def preallocate(self, resource: Resource, gpm: int) -> float:
        """PA-unit copy: make ``resource`` local to ``gpm``.

        Returns the bytes that must be copied over the links.  Never-
        touched resources are simply placed on ``gpm`` (first touch by
        the PA unit itself — free).  Already-placed resources gain a
        *replica*: render assets are read-only, so the PA duplicates
        pages instead of migrating them, and a resource shared by
        batches on several GPMs ends up resident on each — subsequent
        frames pay nothing.  The caller accounts the copy on the
        fabric; the distribution engine overlaps it with rendering of
        the previous batch.
        """
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            # Never touched: first touch will land it locally for free.
            self._place_new(resource, gpm)
            return 0.0
        if gpm in entry.replicas:
            return 0.0
        local_pages = sum(1 for owner in entry.owners if owner == gpm)
        if local_pages == len(entry.owners):
            return 0.0
        missing_bytes = float(
            (len(entry.owners) - local_pages) * self.page_bytes
        )
        entry.replicas.add(gpm)
        self.resident_bytes[gpm] += missing_bytes
        return missing_bytes

    def migrate(self, resource: Resource, gpm: int) -> float:
        """Re-home every page of ``resource`` onto ``gpm``.

        Unlike :meth:`preallocate` (which replicates read-only assets),
        migration *moves* ownership — the policy studied by the NUMA-GPU
        line of work the paper builds on.  Returns the bytes that cross
        the links for the move; unplaced resources place directly on
        ``gpm`` for free.  Existing replicas are dropped (they would be
        stale under a writable-page model).
        """
        if not 0 <= gpm < self.num_gpms:
            raise ValueError(f"GPM {gpm} out of range")
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            self._place_new(resource, gpm)
            return 0.0
        moved_pages = 0
        for index, owner in enumerate(entry.owners):
            if owner != gpm:
                self.resident_bytes[owner] -= self.page_bytes
                self.resident_bytes[gpm] += self.page_bytes
                entry.owners[index] = gpm
                moved_pages += 1
        entry.fractions = None
        for replica in entry.replicas:
            if replica != gpm:
                self.resident_bytes[replica] -= resource.size_bytes
        entry.replicas.clear()
        return float(moved_pages * self.page_bytes)

    # -- maintenance -----------------------------------------------------

    def _require_unplaced(self, resource: Resource) -> None:
        if resource.resource_id in self._entries:
            raise ValueError(f"resource {resource.resource_id} already placed")

    def reset(self) -> None:
        """Forget all placements (new frame in a fresh memory image)."""
        self._entries.clear()
        self._interleave_cursor = 0
        self.resident_bytes = [0.0] * self.num_gpms

    @property
    def total_resident_bytes(self) -> float:
        """Memory footprint across all GPMs, replicas included."""
        return sum(self.resident_bytes)
