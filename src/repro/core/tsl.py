"""Texture Sharing Level — Equation 1 of the paper.

Given a *root* (an object or a growing batch) and a *target* object,
the TSL measures how much texture data the two would share if grouped::

    TSL = sum_{t in shared} Pr(t) * Pn(t)  /  sum_{t in shared} Pr(t)

where ``t`` ranges over the textures bound by both sides, ``Pr(t)`` is
texture ``t``'s share (by bytes) of the root's total texture footprint,
and ``Pn(t)`` its share of the target's.  The middleware groups the
target into the root's batch when ``TSL > 0.5``.

Properties (verified by the property tests):

- ``0 <= TSL <= 1``;
- identical texture sets give ``TSL = 1``;
- disjoint sets give ``TSL = 0``;
- symmetric under swapping root and target iff both sides' shares
  mirror — in general the measure is asymmetric, exactly as Eq. 1 is.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.scene.texture import Texture


def byte_shares(textures: Sequence[Texture]) -> dict[int, float]:
    """Per-texture byte share of one side's footprint (duplicates once).

    Public so the middleware can precompute each side's share vector
    once and reuse it across the O(n^2) grouping scan — the shares only
    depend on one side's texture set, not on the pairing.  Key order is
    first-seen binding order, which :func:`tsl_from_shares` relies on
    for bit-exact summation order.
    """
    unique: dict[int, int] = {}
    for texture in textures:
        unique[texture.texture_id] = texture.size_bytes
    total = float(sum(unique.values()))
    if total <= 0:
        return {}
    return {tid: size / total for tid, size in unique.items()}


def tsl_from_shares(
    root_shares: dict[int, float],
    target_shares: dict[int, float],
) -> float:
    """Eq. 1 evaluated on precomputed share vectors.

    Exactly :func:`texture_sharing_level` minus the share computation:
    same set intersection, same summation order, so memoised callers
    get bit-identical TSL values.
    """
    shared = set(root_shares) & set(target_shares)
    if not shared:
        return 0.0
    numerator = sum(root_shares[t] * target_shares[t] for t in shared)
    denominator = sum(root_shares[t] for t in shared)
    if denominator <= 0:
        return 0.0
    return numerator / denominator


def texture_sharing_level(
    root_textures: Sequence[Texture],
    target_textures: Sequence[Texture],
) -> float:
    """Eq. 1: the TSL between a root texture set and a target object."""
    return tsl_from_shares(byte_shares(root_textures), byte_shares(target_textures))


def should_group(
    root_textures: Sequence[Texture],
    target_textures: Sequence[Texture],
    threshold: float = 0.5,
) -> bool:
    """The middleware's grouping predicate (``TSL > threshold``)."""
    return texture_sharing_level(root_textures, target_textures) > threshold
