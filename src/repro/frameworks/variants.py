"""Parameterised framework variants: ``"<base>:<modifier>[:...]"``.

The registry (:mod:`repro.frameworks.base`) holds the paper's concrete
design points.  The extension studies need *parameterised* points —
OO-VR with one mechanism ablated, a middleware knob moved off the
paper's setting, a scheme on a cheaper link fabric, a scheme fed
foveated scenes.  Spelling those as structured names keeps every study
a declarative :class:`~repro.session.Sweep` grid: a
:class:`~repro.session.spec.RunSpec` stays a frozen picklable string
tuple, workers rebuild the variant from the name, and the result cache
keys it like any other framework.

Grammar — a base name followed by ``:``-separated modifiers:

=====================  ====================================================
``oo-vr:no-dhc``       OO-VR with one mechanism disabled (any key of
                       :data:`~repro.core.ablation.ABLATION_VARIANTS`)
``oo-vr:tsl=0.3``      middleware TSL threshold moved off the paper's 0.5
``oo-vr:cap=8192``     middleware triangle cap moved off the paper's 4096
``<base>:topo=ring``   run on a routed fabric (``fully-connected`` /
                       ``ring`` / ``switch``), any registered base
``<base>:fov``         render foveated scenes (default three-ring profile),
                       any registered base
=====================  ====================================================

Constructor modifiers (ablation / ``tsl`` / ``cap``) build the OO-VR
instance and may not be combined with an ablation key; wrapper
modifiers (``topo`` / ``fov``) stack on any base, including one already
shaped by a constructor modifier.  The execution engine is not a
modifier: it is the run's (:attr:`RunSpec.engine
<repro.session.spec.RunSpec.engine>`), handed to
:func:`~repro.frameworks.base.build_framework`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig

#: Modifier spellings handled by :func:`_classify`.
_TSL_PREFIX = "tsl="
_CAP_PREFIX = "cap="
_TOPO_PREFIX = "topo="
_FOV = "fov"


def is_variant_name(name: str) -> bool:
    """Whether ``name`` uses the variant grammar at all."""
    return ":" in name


def _split(name: str) -> Tuple[str, List[str]]:
    base, *modifiers = name.split(":")
    return base, modifiers


def _topology(value: str):
    from repro.extensions.topology import Topology

    try:
        return Topology(value)
    except ValueError:
        raise KeyError(
            f"unknown topology {value!r}; have "
            f"{[t.value for t in Topology]}"
        ) from None


def _parse(name: str) -> Dict[str, object]:
    """Validate the grammar and return the parsed modifier plan.

    Raises :class:`KeyError` with an actionable message on any problem,
    an out-of-range ``tsl=`` or ``cap=`` value included: the plan holds
    the :class:`~repro.core.middleware.OOMiddleware` the framework will
    receive, so its range checks run here.  Constructs no framework
    (cheap enough for spec validation).
    """
    from repro.core.ablation import ABLATION_VARIANTS
    from repro.frameworks.base import framework_names

    base, modifiers = _split(name)
    if not modifiers or not all(modifiers):
        raise KeyError(f"malformed framework variant {name!r}")
    middleware: Dict[str, object] = {}
    plan: Dict[str, object] = {
        "base": base,
        "features": None,
        "middleware": None,
        "topology": None,
        "foveate": False,
    }
    for modifier in modifiers:
        if modifier in ABLATION_VARIANTS:
            if base != "oo-vr":
                raise KeyError(
                    f"ablation variant {modifier!r} applies to 'oo-vr', "
                    f"not {base!r}"
                )
            if plan["features"] is not None or middleware:
                raise KeyError(
                    f"variant {name!r} combines incompatible constructor "
                    "modifiers"
                )
            plan["features"] = ABLATION_VARIANTS[modifier]
        elif modifier.startswith((_TSL_PREFIX, _CAP_PREFIX)):
            if base != "oo-vr":
                raise KeyError(
                    f"middleware modifier {modifier!r} applies to 'oo-vr', "
                    f"not {base!r}"
                )
            if plan["features"] is not None:
                raise KeyError(
                    f"variant {name!r} combines incompatible constructor "
                    "modifiers"
                )
            key, _, raw = modifier.partition("=")
            try:
                if key == "tsl":
                    middleware["tsl_threshold"] = float(raw)
                else:
                    middleware["triangle_limit"] = int(raw)
            except ValueError:
                raise KeyError(
                    f"malformed {key} value {raw!r} in variant {name!r}"
                ) from None
        elif modifier.startswith(_TOPO_PREFIX):
            plan["topology"] = _topology(modifier[len(_TOPO_PREFIX):])
        elif modifier == _FOV:
            plan["foveate"] = True
        else:
            raise KeyError(
                f"unknown framework variant modifier {modifier!r} in "
                f"{name!r}"
            )
    known = framework_names()
    if base not in known:
        raise KeyError(f"unknown framework {base!r}; have {known}")
    if middleware:
        from repro.core.middleware import OOMiddleware

        try:
            plan["middleware"] = OOMiddleware(**middleware)
        except ValueError as error:
            raise KeyError(f"variant {name!r}: {error}") from None
    return plan


def validate_variant(name: str) -> None:
    """Raise :class:`KeyError` unless ``name`` is a buildable variant."""
    _parse(name)


def build_variant(name: str, config: Optional[SystemConfig] = None):
    """Instantiate the variant ``name`` describes.

    The returned framework's ``name`` is the full variant string, so
    :class:`~repro.stats.metrics.SceneResult` rows and tidy records
    agree with the spec that produced them.
    """
    from repro.frameworks.base import build_framework

    plan = _parse(name)
    if plan["features"] is not None or plan["middleware"] is not None:
        from repro.core.ablation import OOVRFeatures
        from repro.core.oovr import OOVRFramework

        framework = OOVRFramework(
            config,
            features=plan["features"] or OOVRFeatures(),
            middleware=plan["middleware"],
        )
    else:
        framework = build_framework(plan["base"], config)

    if plan["topology"] is not None:
        from repro.extensions.topology import install_topology

        topology = plan["topology"]
        original_make = framework.make_system

        def make_system():
            system = original_make()
            install_topology(system, topology)
            return system

        framework.make_system = make_system  # type: ignore[method-assign]
    if plan["foveate"]:
        from repro.extensions.foveated import foveate_scene

        original_render = framework.render_scene
        framework.render_scene = (  # type: ignore[method-assign]
            lambda scene: original_render(foveate_scene(scene))
        )
    framework.name = name
    return framework
