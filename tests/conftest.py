"""Shared fixtures: small deterministic scenes and systems."""

from __future__ import annotations

import builtins
import collections
import io
import json

import pytest

from repro.config import SystemConfig, baseline_system
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import WorkUnit
from repro.scene.geometry import Mesh, Viewport
from repro.scene.objects import RenderObject
from repro.scene.scene import Frame, Scene
from repro.scene.synthetic import SceneProfile, SyntheticSceneGenerator
from repro.scene.texture import TexturePool
from repro.stats.metrics import SceneResult

KB = 1024
MB = 1024 * KB


@pytest.fixture
def entry_reads(monkeypatch) -> collections.Counter:
    """Counts ``.json`` file opens, JSON parses and result decodes.

    Keys ``open`` (``builtins.open`` and ``io.open``, which
    ``Path.read_text`` calls), ``loads`` (``json.loads``, which
    ``json.load`` calls too) and ``decode`` (``SceneResult.from_dict``).
    Counting starts at set-up: ``clear()`` the counter right before the
    operation under test.
    """
    counts: collections.Counter = collections.Counter()

    def counted(name, function, only=None):
        def wrapper(*args, **kwargs):
            if only is None or only(*args):
                counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def is_json(file, *_):
        return str(file).endswith(".json")

    for module in (builtins, io):
        monkeypatch.setattr(
            module, "open", counted("open", module.open, is_json)
        )
    monkeypatch.setattr(json, "loads", counted("loads", json.loads))
    monkeypatch.setattr(
        SceneResult,
        "from_dict",
        staticmethod(counted("decode", SceneResult.from_dict)),
    )
    return counts


@pytest.fixture
def config() -> SystemConfig:
    """The Table 2 baseline configuration."""
    return baseline_system()


@pytest.fixture
def pool() -> TexturePool:
    return TexturePool()


@pytest.fixture
def characterizer(config: SystemConfig) -> DrawCharacterizer:
    return DrawCharacterizer(config)


def make_object(
    object_id: int,
    pool: TexturePool,
    name: str | None = None,
    textures: tuple[tuple[str, int], ...] = (("stone", MB),),
    triangles: int = 600,
    x: float = 100.0,
    y: float = 100.0,
    w: float = 200.0,
    h: float = 150.0,
    depends_on: int | None = None,
    mono: bool = False,
) -> RenderObject:
    """A hand-built render object for unit tests."""
    left = Viewport(x, y, x + w, y + h)
    right = left.shifted(12.0)
    return RenderObject(
        object_id=object_id,
        name=name or f"obj{object_id}",
        mesh=Mesh(num_vertices=max(3, triangles // 2), num_triangles=triangles),
        textures=tuple(pool.get_or_create(n, s) for n, s in textures),
        viewport_left=left,
        viewport_right=None if mono else right,
        depends_on=depends_on,
    )


def object_units(
    characterizer: DrawCharacterizer,
    obj: RenderObject,
    mode: SMPMode = SMPMode.SIMULTANEOUS,
    expansion: str = "multiview",
) -> tuple[WorkUnit, ...]:
    """``obj``'s work units as production builds them: the unit table
    of a frame holding ``obj`` alone, read out as units."""
    frame = Frame(objects=(obj,), width=1280, height=1024)
    return characterizer.characterize_frame(frame, mode, expansion)


def unit_for(
    characterizer: DrawCharacterizer,
    pool: TexturePool,
    object_id: int = 0,
    **kwargs,
) -> WorkUnit:
    """The SMP multi-view unit of one :func:`make_object` object."""
    (unit,) = object_units(characterizer, make_object(object_id, pool, **kwargs))
    return unit


@pytest.fixture
def small_frame(pool: TexturePool) -> Frame:
    """Six objects, two materials shared pairwise, one dependency."""
    objects = (
        make_object(0, pool, "pillar1", (("stone", MB),)),
        make_object(1, pool, "flag", (("cloth", MB // 2),), x=400.0),
        make_object(2, pool, "pillar2", (("stone", MB),), x=700.0),
        make_object(3, pool, "floor", (("stone", MB), ("dirt", MB)), y=600.0),
        make_object(4, pool, "window", (("glass", MB // 4),), depends_on=3),
        make_object(5, pool, "hud", (("ui", MB // 8),), mono=True, x=20.0, y=20.0),
    )
    return Frame(objects=objects, width=1280, height=1024)


@pytest.fixture
def small_scene(small_frame: Frame) -> Scene:
    return Scene(name="unit-test", frames=(small_frame,))


@pytest.fixture
def tiny_profile() -> SceneProfile:
    return SceneProfile(
        name="tiny", num_objects=24, width=640, height=480, num_materials=12
    )


@pytest.fixture
def tiny_scene(tiny_profile: SceneProfile) -> Scene:
    return SyntheticSceneGenerator(tiny_profile, seed=7).make_scene(num_frames=2)
