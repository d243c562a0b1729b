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

The map keeps its per-resource state in columns, one slot per placed
resource in placement order: each slot's owner map (an id into a table
of read-only ``{gpm: page fraction}`` maps, interned once per distinct
layout) and its replica flags (a slot x GPM matrix).  The clock-driven
dispatchers ask one touch at a time (:meth:`PagePlacement.owner_fractions`);
the slice pass asks for a whole pass at once and gathers the answers
from the columns: :meth:`PagePlacement.owner_maps` reads every visit's
map, and :meth:`PagePlacement.localize` makes every staged visit local,
each placing, replicating and adding resident bytes in visit order as
the one-touch calls would.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro import columns
from repro.memory.address import Resource


class PlacementPolicy(enum.Enum):
    """Default policy applied when a page is first touched."""

    FIRST_TOUCH = "first-touch"
    INTERLEAVED = "interleaved"


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
        # The owner-map table.  Map ``g < num_gpms`` is ``{g: 1.0}``: an
        # id below ``num_gpms`` names the one GPM holding every page.
        self._maps: List[Mapping[int, float]] = []
        self._map_ids: Dict[Tuple[Tuple[int, float], ...], int] = {}
        for gpm in range(num_gpms):
            self._intern(((gpm, 1.0),))
        self.reset()

    # -- internal -----------------------------------------------------------

    def _intern(self, items: Tuple[Tuple[int, float], ...]) -> int:
        """The id of the owner map with ``items``, made on first use."""
        map_id = self._map_ids.get(items)
        if map_id is None:
            map_id = self._map_ids[items] = len(self._maps)
            self._maps.append(MappingProxyType(dict(items)))
            self._table = None
        return map_id

    def _map_of(self, owners: List[int]) -> int:
        """The owner map of a page-owner list: each owner's page fraction,
        owners in order of their first page."""
        counts: Dict[int, float] = {}
        for owner in owners:
            counts[owner] = counts.get(owner, 0.0) + 1.0
        total = len(owners)
        return self._intern(
            tuple((gpm, count / total) for gpm, count in counts.items())
        )

    def _add(self, resource: Resource, owners: List[int], map_id: int) -> int:
        """A new slot for ``resource``; returns it."""
        slot = len(self._resources)
        if slot == self._map.size:
            self._map = np.concatenate((self._map, np.zeros_like(self._map)))
            self._replica = np.concatenate(
                (self._replica, np.zeros_like(self._replica))
            )
        self._slots[resource.resource_id] = slot
        self._resources.append(resource)
        self._owners.append(owners)
        self._map[slot] = map_id
        return slot

    def _add_fixed(self, resource: Resource, gpm: int) -> int:
        """Every page of ``resource`` on ``gpm``; the caller adds the
        resident bytes."""
        pages = resource.num_pages(self.page_bytes)
        return self._add(resource, [gpm] * pages, gpm)

    def _add_owned(self, resource: Resource, owners: List[int]) -> int:
        """``resource`` with page owners ``owners``, one page each."""
        for owner in owners:
            self.resident_bytes[owner] += self.page_bytes
        return self._add(resource, owners, self._map_of(owners))

    def _add_interleaved(self, resource: Resource) -> int:
        """``resource``'s pages round-robin from the interleave cursor."""
        pages = resource.num_pages(self.page_bytes)
        start = self._interleave_cursor
        self._interleave_cursor += pages
        return self._add_owned(
            resource, [(start + i) % self.num_gpms for i in range(pages)]
        )

    def _place_new(self, resource: Resource, toucher: int) -> int:
        if self.policy is PlacementPolicy.FIRST_TOUCH:
            self.resident_bytes[toucher] += resource.size_bytes
            return self._add_fixed(resource, toucher)
        return self._add_interleaved(resource)

    def _slots_of(self, resources: Sequence[Resource]) -> List[int]:
        """Each resource's slot, ``-1`` while unplaced."""
        get = self._slots.get
        return [get(resource.resource_id, -1) for resource in resources]

    def _add_resident(self, gpm: np.ndarray, nbytes: np.ndarray) -> None:
        """``resident_bytes[gpm[i]] += nbytes[i]`` for every ``i``, in order."""
        totals = np.array(self.resident_bytes, np.float64)
        np.add.at(totals, gpm, nbytes)
        self.resident_bytes = totals.tolist()

    # -- queries ---------------------------------------------------------

    def is_placed(self, resource: Resource) -> bool:
        return resource.resource_id in self._slots

    def owner_fractions(
        self, resource: Resource, toucher: int
    ) -> Mapping[int, float]:
        """Fraction of the resource's pages owned by each GPM.

        Touching an unplaced resource places it first (first touch).  If
        ``toucher`` holds a replica, the resource is fully local to it.
        The map is read-only and shared by every resource with the same
        layout, so a touch costs a lookup, not a walk over every page.
        """
        self._check(toucher)
        slot = self._slots.get(resource.resource_id)
        if slot is None:
            slot = self._place_new(resource, toucher)
        if self._replica[slot, toucher]:
            return self._maps[toucher]
        return self._maps[self._map[slot]]

    def owner_maps(
        self,
        resources: Sequence[Resource],
        resource: np.ndarray,
        gpm: np.ndarray,
    ) -> np.ndarray:
        """Every visit's owner map, as an id into :meth:`owner_table`.

        Visit ``i`` touches ``resources[resource[i]]`` from GPM
        ``gpm[i]``; ``resources`` are distinct and listed in first-visit
        order.  The answers are :meth:`owner_fractions`' for each visit,
        read once per resource: an unplaced resource is placed at its
        first visit, in first-visit order, under either policy, and a
        visit whose GPM holds a replica reads ``{gpm: 1.0}``.
        """
        slots = self._slots_of(resources)
        if -1 in slots:
            _, first, _ = columns.first_use(resource, len(resources))
            for index, visit in enumerate(first.tolist()):
                if slots[index] < 0:
                    slots[index] = self._place_new(
                        resources[index], int(gpm[visit])
                    )
        slot = np.array(slots, np.int64)[resource]
        return np.where(self._replica[slot, gpm], gpm, self._map[slot])

    def owner_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every owner map as ``(bounds, owner, fraction)`` columns: map
        ``m`` gives ``fraction[k]`` of the pages to GPM ``owner[k]`` for
        ``k`` in ``bounds[m]:bounds[m + 1]``, in the map's key order."""
        if self._table is None:
            lengths = [len(owner_map) for owner_map in self._maps]
            items = [item for owner_map in self._maps for item in owner_map.items()]
            self._table = (
                np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
                np.array([gpm for gpm, _ in items], np.int64),
                np.array([fraction for _, fraction in items], np.float64),
            )
        return self._table

    def local_fraction(self, resource: Resource, gpm: int) -> float:
        """Fraction of the resource local to ``gpm`` (places if needed)."""
        return self.owner_fractions(resource, gpm).get(gpm, 0.0)

    def is_home(self, resource: Resource, gpm: int) -> bool:
        """Whether every page of ``resource`` *originally* lives on ``gpm``.

        Distinguishes the home DRAM from replicas: staging managers skip
        copies for resources homed on the renderer but re-stage replicas
        each frame (segmented memories are refilled per frame).
        """
        slot = self._slots.get(resource.resource_id)
        return (
            slot is not None
            and 0 <= gpm < self.num_gpms
            and bool(self._map[slot] == gpm)
        )

    def layout(self) -> List[Tuple[Tuple[str, int], List[int], List[int]]]:
        """Every placed resource in placement order: its id, its page
        owners and the GPMs holding a replica, ascending."""
        return [
            (
                resource.resource_id,
                list(owners),
                np.flatnonzero(replicas).tolist(),
            )
            for resource, owners, replicas in zip(
                self._resources, self._owners, self._replica
            )
        ]

    # -- explicit placement ------------------------------------------------

    def place_fixed(self, resource: Resource, gpm: int) -> None:
        """Place every page of ``resource`` on ``gpm`` (master node)."""
        self._require_unplaced(resource)
        self._add_fixed(resource, gpm)
        self.resident_bytes[gpm] += resource.size_bytes

    def place_interleaved(self, resource: Resource) -> None:
        """Round-robin ``resource``'s pages across all GPMs."""
        self._require_unplaced(resource)
        self._add_interleaved(resource)

    def place_striped(self, resource: Resource, stripes: Sequence[int]) -> None:
        """Partition pages contiguously across ``stripes``.

        Page ``i`` goes to ``stripes[i * len(stripes) // pages]``: equal
        contiguous spans, one per owner, so one resource has several
        homes.  No framework places a resource this way (the DHC
        composition, Fig. 14, models its framebuffer stripes without
        page placement); it builds multi-owner layouts for tests.
        """
        self._require_unplaced(resource)
        if not stripes:
            raise ValueError("need at least one stripe owner")
        pages = resource.num_pages(self.page_bytes)
        owners = [stripes[min(i * len(stripes) // pages, len(stripes) - 1)]
                  for i in range(pages)]
        self._add_owned(resource, owners)

    def replicate(self, resource: Resource, gpms: Iterable[int]) -> None:
        """Add full replicas of ``resource`` on ``gpms`` (AFR duplication).

        An unplaced resource is homed on the first GPM.  A GPM that
        already holds every page gets no replica, so its bytes are
        resident once.
        """
        gpm_list = list(gpms)
        for gpm in gpm_list:
            self._check(gpm)
        slot = self._slots.get(resource.resource_id)
        if slot is None:
            if not gpm_list:
                raise ValueError("replicate needs at least one GPM")
            slot = self._add_fixed(resource, gpm_list[0])
            self.resident_bytes[gpm_list[0]] += resource.size_bytes
        for gpm in gpm_list:
            if self._map[slot] != gpm and not self._replica[slot, gpm]:
                self._replica[slot, gpm] = True
                self.resident_bytes[gpm] += resource.size_bytes

    def localize(
        self,
        resources: Sequence[Resource],
        resource: np.ndarray,
        gpm: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Make every visit's resource local to its GPM, in visit order,
        as a staging copy makes it; returns, per visit, whether the
        visit placed its resource and whether its GPM is the resource's
        home.

        Visits are given as in :meth:`owner_maps`.  An unplaced resource
        is placed whole on its first visitor (:meth:`place_fixed`), in
        first-visit order; every other (resource, GPM) pair whose GPM is
        not the resource's home gets a replica at its first visit
        (:meth:`replicate`).  Both add the resource's bytes to the
        GPM's ``resident_bytes`` in visit order.
        """
        slots = self._slots_of(resources)
        placed = np.zeros(resource.size, bool)
        if -1 in slots:
            _, first, _ = columns.first_use(resource, len(resources))
            for index, visit in enumerate(first.tolist()):
                if slots[index] < 0:
                    slots[index] = self._add_fixed(
                        resources[index], int(gpm[visit])
                    )
                    placed[visit] = True
        slot = np.array(slots, np.int64)[resource]
        home = self._map[slot] == gpm
        away = np.flatnonzero(~home)
        n = self.num_gpms
        _, first, _ = columns.first_use(
            resource[away] * n + gpm[away], len(resources) * n
        )
        pairs = away[first]
        fresh = pairs[~self._replica[slot[pairs], gpm[pairs]]]
        self._replica[slot[fresh], gpm[fresh]] = True
        grows = placed.copy()
        grows[fresh] = True
        rows = np.flatnonzero(grows)
        sizes = np.array([item.size_bytes for item in resources], np.float64)
        self._add_resident(gpm[rows], sizes[resource[rows]])
        return placed, home

    def migrate(self, resource: Resource, gpm: int) -> float:
        """Re-home every page of ``resource`` onto ``gpm``.

        Unlike :meth:`replicate` (which copies read-only assets, as the
        staging copies do), migration *moves* ownership — the policy
        studied by the NUMA-GPU line of work the paper builds on.  Returns the bytes that cross
        the links for the move; unplaced resources place directly on
        ``gpm`` for free.  Existing replicas are dropped (they would be
        stale under a writable-page model).
        """
        self._check(gpm)
        slot = self._slots.get(resource.resource_id)
        if slot is None:
            self._place_new(resource, gpm)
            return 0.0
        owners = self._owners[slot]
        moved_pages = 0
        for index, owner in enumerate(owners):
            if owner != gpm:
                self.resident_bytes[owner] -= self.page_bytes
                self.resident_bytes[gpm] += self.page_bytes
                owners[index] = gpm
                moved_pages += 1
        self._map[slot] = gpm
        for replica in np.flatnonzero(self._replica[slot]).tolist():
            if replica != gpm:
                self.resident_bytes[replica] -= resource.size_bytes
        self._replica[slot] = False
        return float(moved_pages * self.page_bytes)

    # -- maintenance -----------------------------------------------------

    def _check(self, gpm: int) -> None:
        if not 0 <= gpm < self.num_gpms:
            raise ValueError(f"GPM {gpm} out of range")

    def _require_unplaced(self, resource: Resource) -> None:
        if resource.resource_id in self._slots:
            raise ValueError(f"resource {resource.resource_id} already placed")

    def reset(self) -> None:
        """Forget all placements (new frame in a fresh memory image)."""
        #: Resource id -> slot, in placement order.
        self._slots: Dict[Tuple[str, int], int] = {}
        #: Per slot: the resource and its page owners.
        self._resources: List[Resource] = []
        self._owners: List[List[int]] = []
        #: Per slot: its owner map's id; per slot and GPM: a full
        #: replica.  Both grow by doubling; rows past the last slot
        #: are unused.
        self._map = np.zeros(64, np.int64)
        self._replica = np.zeros((64, self.num_gpms), bool)
        self._interleave_cursor = 0
        #: Bytes resident per GPM (replicas counted once per holder).
        self.resident_bytes: List[float] = [0.0] * self.num_gpms

    @property
    def total_resident_bytes(self) -> float:
        """Memory footprint across all GPMs, replicas included."""
        return sum(self.resident_bytes)
