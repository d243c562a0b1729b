"""``OO_Middleware``: TSL-driven batching (Section 5.1, Fig. 12).

The middleware runs at application initialisation and converts the
ordered object stream into *batches* — the smallest scheduling units the
multi-GPU system sees.  The algorithm, straight from the paper:

1. pop the head of the object queue as the batch **root**;
2. scan forward for the next *independent* object and compute its TSL
   against the root's accumulated texture set (Eq. 1);
3. if ``TSL > 0.5``, merge it — the batch becomes the new root, its
   texture set the union — and remove it from the queue;
4. stop growing when the batch exceeds **4096 triangles** (guard
   against inflated batches) or the queue is exhausted; then repeat
   from 1 until the queue is empty.

Objects that *depend* on something already in the batch are merged
directly regardless of TSL, and the triangle cap is raised for them, so
the programmer-defined order is preserved ("for the objects that have
dependency on any of the objects in a batch, we directly merge them to
the batch and increase the triangle limitation").

:meth:`OOMiddleware.build_batches` runs this loop as a columnar scan.
The scalar loop, one Eq. 1 probe per candidate, is the oracle it must
equal; it lives in the test suite's oracle table (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.tsl import byte_shares, tsl_from_shares
from repro.scene.objects import RenderObject
from repro.scene.texture import Texture

#: The paper's batch growth cap in triangles.
DEFAULT_TRIANGLE_LIMIT = 4096
#: The paper's grouping threshold on Eq. 1.
DEFAULT_TSL_THRESHOLD = 0.5
#: A columnar TSL this close to the threshold is re-decided by the
#: scalar Eq. 1 (:func:`~repro.core.tsl.tsl_from_shares`).
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Batch:
    """One scheduling unit: TSL-grouped objects in draw order."""

    batch_id: int
    objects: Tuple[RenderObject, ...]

    def __post_init__(self) -> None:
        if not self.objects:
            raise ValueError("batch cannot be empty")

    @property
    def total_triangles(self) -> int:
        return sum(obj.mesh.num_triangles for obj in self.objects)

    @property
    def total_vertices(self) -> int:
        return sum(obj.mesh.num_vertices for obj in self.objects)

    @property
    def textures(self) -> Tuple[Texture, ...]:
        seen: Dict[int, Texture] = {}
        for obj in self.objects:
            for texture in obj.textures:
                seen.setdefault(texture.texture_id, texture)
        return tuple(seen.values())

    @property
    def object_ids(self) -> Tuple[int, ...]:
        return tuple(obj.object_id for obj in self.objects)


class OOMiddleware:
    """Groups a frame's objects into batches by texture sharing."""

    def __init__(
        self,
        triangle_limit: int = DEFAULT_TRIANGLE_LIMIT,
        tsl_threshold: float = DEFAULT_TSL_THRESHOLD,
    ) -> None:
        if triangle_limit <= 0:
            raise ValueError("triangle limit must be positive")
        if not 0.0 <= tsl_threshold < 1.0:
            raise ValueError("TSL threshold must be in [0, 1)")
        self.triangle_limit = triangle_limit
        self.tsl_threshold = tsl_threshold

    def build_batches(self, objects: Sequence[RenderObject]) -> List[Batch]:
        """Run the Fig. 12 grouping loop over ``objects`` in order.

        The columnar form of the scalar loop (its reference in
        ``tests/oracles.py``), making every one of its decisions.  The
        queue is draw order with an alive mask over it; each object's
        Eq. 1 byte shares (exactly :func:`byte_shares`) sit in a
        texture-major matrix.  For each root state, matrix-vector
        products over the root's textures give every candidate's Eq. 1
        numerator and denominator, and the first alive candidate after
        the scan position that depends on a member or clears the
        threshold is merged; the scan then resumes after it, and the
        root's shares are recomputed only then.  A TSL within
        :data:`TIE_TOLERANCE` of the threshold is re-decided by
        :func:`tsl_from_shares`, so summation order cannot flip a
        decision.  Object ids must be unique, as a
        :class:`~repro.scene.scene.Frame` enforces.
        """
        objects = list(objects)
        count = len(objects)
        shares_of: Dict[int, dict] = {
            obj.object_id: byte_shares(obj.textures) for obj in objects
        }
        row_of: Dict[int, int] = {}
        rows: List[int] = []
        cols: List[int] = []
        values: List[float] = []
        for col, obj in enumerate(objects):
            for tid, share in shares_of[obj.object_id].items():
                rows.append(row_of.setdefault(tid, len(row_of)))
                cols.append(col)
                values.append(share)
        # Texture-major, so a root's rows gather whole.  Textures have
        # positive sizes, so a share is nonzero exactly where it binds.
        shares = np.zeros((len(row_of), count))
        shares[rows, cols] = values
        # Object ids -> member flags; a ``depends_on`` outside the frame
        # points at the trailing slot, which is never set.
        slot_of: Dict[int, int] = {}
        for obj in objects:
            slot_of.setdefault(obj.object_id, len(slot_of))
        outside = len(slot_of)
        parent_slot = np.array(
            [slot_of.get(obj.depends_on, outside) for obj in objects],
            dtype=np.intp,
        )
        member = np.zeros(outside + 1, dtype=bool)
        alive = np.ones(count, dtype=bool)
        threshold = self.tsl_threshold
        floor = threshold - TIE_TOLERANCE
        ceiling = threshold + TIE_TOLERANCE

        def next_merge(root_shares: dict, start: int) -> Tuple[int, bool]:
            """First candidate at or after ``start`` the loop merges."""
            weights = np.array(list(root_shares.values()))
            block = shares[[row_of[t] for t in root_shares], start:]
            numerator = weights @ block
            denominator = weights @ (block > 0)
            dependent = member[parent_slot[start:]]
            # From the tie window up; an unshared candidate's numerator
            # and denominator are both zero, so it never passes.
            hits = alive[start:] & (dependent | (numerator > floor * denominator))
            while True:
                offset = hits.argmax()
                if not hits[offset]:
                    return -1, False
                index = start + offset
                if dependent[offset]:
                    return index, True
                if numerator[offset] / denominator[offset] > ceiling:
                    return index, False
                exact = tsl_from_shares(
                    root_shares, shares_of[objects[index].object_id]
                )
                if exact > threshold:
                    return index, False
                hits[offset] = False

        batches: List[Batch] = []
        for head in range(count):
            if not alive[head]:
                continue
            root = objects[head]
            alive[head] = False
            members: List[RenderObject] = [root]
            member[slot_of[root.object_id]] = True
            root_textures: Dict[int, Texture] = {
                t.texture_id: t for t in root.textures
            }
            root_shares = byte_shares(tuple(root_textures.values()))
            triangles = root.mesh.num_triangles
            limit = self.triangle_limit
            start = head + 1
            while start < count and triangles < limit:
                index, depends = next_merge(root_shares, start)
                if index < 0:
                    break
                candidate = objects[index]
                alive[index] = False
                if depends:
                    # Direct merge; raise the cap so the dependent draw
                    # never splits away from its parent.
                    limit += candidate.mesh.num_triangles
                members.append(candidate)
                member[slot_of[candidate.object_id]] = True
                for texture in candidate.textures:
                    root_textures.setdefault(texture.texture_id, texture)
                root_shares = byte_shares(tuple(root_textures.values()))
                triangles += candidate.mesh.num_triangles
                start = index + 1
            for obj in members:
                member[slot_of[obj.object_id]] = False
            batches.append(Batch(batch_id=len(batches), objects=tuple(members)))
        return batches
