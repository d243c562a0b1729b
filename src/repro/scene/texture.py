"""Texture resources.

Textures are the dominant memory consumers in rasterisation rendering and
the whole point of OO-VR's batching: two objects that *share* texture data
should render on the same GPM so the shared pages stay local.  A
:class:`Texture` is an immutable resource with a size; a
:class:`TexturePool` interns textures by name so that sharing is explicit
object identity, exactly how the middleware's TSL computation sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class Texture:
    """An immutable texture resource.

    Parameters
    ----------
    texture_id:
        Globally unique id (assigned by the owning :class:`TexturePool`).
    name:
        Human-readable material name, e.g. ``"stone"`` (the paper's
        pillar example in Fig. 12 shares a ``stone`` texture).
    size_bytes:
        Total footprint of the mip chain in memory.
    """

    texture_id: int
    name: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"texture {self.name!r} must have positive size")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Texture({self.texture_id}, {self.name!r}, {self.size_bytes}B)"


class TexturePool:
    """Interning factory for :class:`Texture` objects.

    Asking twice for the same name returns the *same* texture object, so
    texture sharing between render objects is plain identity and the
    pool's total footprint counts shared data once.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, Texture] = {}
        self._next_id = 0

    def get_or_create(self, name: str, size_bytes: int) -> Texture:
        """Return the texture called ``name``, creating it on first use.

        The size is fixed at creation; asking again with a different size
        is almost certainly a bug in the workload generator and raises.
        """
        existing = self._by_name.get(name)
        if existing is not None:
            if existing.size_bytes != size_bytes:
                raise ValueError(
                    f"texture {name!r} already exists with size "
                    f"{existing.size_bytes}, requested {size_bytes}"
                )
            return existing
        texture = Texture(self._next_id, name, size_bytes)
        self._next_id += 1
        self._by_name[name] = texture
        return texture

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[Texture]:
        return iter(self._by_name.values())

    @property
    def total_bytes(self) -> int:
        """Unique texture footprint of the pool (shared data counted once)."""
        return sum(t.size_bytes for t in self._by_name.values())


def unique_texture_bytes(textures: Iterable[Texture]) -> int:
    """Total bytes across ``textures`` with duplicates counted once."""
    seen: Dict[int, int] = {}
    for texture in textures:
        seen[texture.texture_id] = texture.size_bytes
    return sum(seen.values())
