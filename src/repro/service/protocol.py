"""Wire protocol of the sweep service: specs and results over JSON.

The service moves exactly two payload shapes between processes:

- a **spec document** — :func:`spec_to_wire` /
  :func:`spec_from_wire` round-trip a frozen
  :class:`~repro.session.spec.RunSpec` (including a full nested
  :class:`~repro.config.SystemConfig`) through plain JSON such that the
  reconstructed spec hashes to the *same* :func:`spec_key
  <repro.session.cache.spec_key>`.  That invariant is what makes the
  whole service content-addressed: a worker on another host stores its
  results under byte-for-byte the same cache keys the submitting client
  computed;

- a **cache entry payload** — the exact on-disk text
  :func:`repro.session.cache.encode_entry` produces, shipped verbatim.
  Workers upload entry text, the server merges it with
  :meth:`ResultCache.merge_entry
  <repro.session.cache.ResultCache.merge_entry>` semantics (identical
  payloads are no-ops, byte-level disagreement is a
  :class:`~repro.session.cache.CacheMergeError`), and clients decode
  records out of it with the same
  :meth:`SceneResult.from_dict
  <repro.stats.metrics.SceneResult.from_dict>` path a local cache hit
  takes — which is why a ``remote`` sweep exports records
  byte-identical to a ``serial`` one.

Since version 2 every completion event a client reads carries its
cell's payload (``{"seq", "key", "index", "cached", "worker",
"payload"}``): the ``POST /sweeps`` reply lists the cells the cache
answered at submit, and each ``GET /sweeps/<id>/events`` reply the
cells completed since the client's last poll.  An all-cached grid is
therefore one request; there is no separate result fetch.

Nothing here opens a socket; :mod:`repro.service.server`,
:mod:`repro.service.worker` and :mod:`repro.service.client` share this
module as their single source of message truth.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Sequence

from repro.config import (
    CostModel,
    GPMConfig,
    LinkConfig,
    SMConfig,
    SystemConfig,
)
from repro.session.spec import RunSpec, SpecError

#: Bumped whenever a message shape changes; the server rejects clients
#: and workers speaking another version instead of mis-parsing them.
#: Version 2: completion events carry their entry payloads.  Version 3:
#: config documents carry no ``engine`` (the engine is the spec's).
PROTOCOL_VERSION = 3


class ProtocolError(ValueError):
    """A message that does not parse as this protocol version."""


# ---------------------------------------------------------------------------
# SystemConfig: nested frozen dataclasses <-> plain JSON dicts
# ---------------------------------------------------------------------------


def config_to_wire(config: SystemConfig) -> Dict[str, object]:
    """``SystemConfig`` as the plain dict :func:`dataclasses.asdict`
    spells it — the same shape :func:`repro.session.cache.config_fingerprint`
    hashes, so wire and cache key agree on every field."""
    return dataclasses.asdict(config)


def config_from_wire(data: Mapping[str, object]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its :func:`config_to_wire`
    dict.

    Values are taken exactly as they arrive (JSON keeps ints ints and
    floats floats), so ``dataclasses.asdict`` of the result reproduces
    the input dict — the property :func:`spec_to_wire` round-tripping
    relies on.
    """
    try:
        fields = dict(data)
        gpm = dict(fields.pop("gpm"))  # type: ignore[arg-type]
        sm = SMConfig(**gpm.pop("sm"))  # type: ignore[arg-type]
        return SystemConfig(
            gpm=GPMConfig(sm=sm, **gpm),
            link=LinkConfig(**fields.pop("link")),  # type: ignore[arg-type]
            cost=CostModel(**fields.pop("cost")),  # type: ignore[arg-type]
            **fields,  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, AttributeError) as error:
        raise ProtocolError(f"bad config document: {error}") from None


# ---------------------------------------------------------------------------
# RunSpec <-> wire documents
# ---------------------------------------------------------------------------


def spec_to_wire(spec: RunSpec) -> Dict[str, object]:
    """One :class:`RunSpec` as a JSON-able document."""
    data: Dict[str, object] = {
        "framework": spec.framework,
        "workload": spec.workload,
        "num_frames": spec.num_frames,
        "seed": spec.seed,
        "draw_scale": spec.draw_scale,
        "config_label": spec.config_label,
    }
    if spec.engine != "analytic":
        data["engine"] = spec.engine
    if spec.config is not None:
        data["config"] = config_to_wire(spec.config)
    return data


def spec_from_wire(data: Mapping[str, object]) -> RunSpec:
    """Rebuild and validate a :class:`RunSpec` from its wire document.

    Raises :class:`ProtocolError` for structurally bad documents and
    lets :class:`~repro.session.spec.SpecError` through for documents
    that parse but name unknown frameworks/workloads/engines — the
    server maps both to a 400 response.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(f"spec document must be an object, got {data!r}")
    config = data.get("config")
    try:
        spec = RunSpec(
            framework=str(data["framework"]),
            workload=str(data["workload"]),
            config=None if config is None else config_from_wire(config),
            num_frames=int(data["num_frames"]),
            seed=int(data["seed"]),
            draw_scale=float(data["draw_scale"]),
            config_label=str(data.get("config_label", "base")),
            engine=str(data.get("engine", "analytic")),
        )
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, (SpecError, ProtocolError)):
            raise
        raise ProtocolError(f"bad spec document: {error}") from None
    return spec.validate()


def specs_to_wire(specs: Sequence[RunSpec]) -> List[Dict[str, object]]:
    return [spec_to_wire(spec) for spec in specs]


def specs_from_wire(
    documents: object,
) -> List[RunSpec]:
    if not isinstance(documents, (list, tuple)) or not documents:
        raise ProtocolError(
            "'specs' must be a non-empty list of spec documents"
        )
    return [spec_from_wire(document) for document in documents]


def check_version(data: Mapping[str, object], what: str) -> None:
    """Reject messages from another protocol version outright."""
    version = data.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what} speaks protocol version {version!r}; "
            f"this side speaks {PROTOCOL_VERSION}"
        )


def entry_documents(data: Mapping[str, object]) -> List[Dict[str, object]]:
    """Validate an upload's ``entries`` list: ``{"key", "payload"}``."""
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ProtocolError("'entries' must be a non-empty list")
    for entry in entries:
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("key"), str)
            or not isinstance(entry.get("payload"), str)
        ):
            raise ProtocolError(
                "each entry must be {'key': hex, 'payload': text}"
            )
    return entries  # type: ignore[return-value]


#: The default TCP port ``oovr serve`` listens on (0 = OS-assigned).
DEFAULT_PORT = 8765
