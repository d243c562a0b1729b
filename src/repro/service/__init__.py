"""Sweep service: ``oovr serve`` daemon, worker agents, remote executor.

The server/client split of *what* renders from *where* it renders, at
the sweep layer: a long-running daemon (:mod:`repro.service.server`)
owns a content-addressed :class:`~repro.session.cache.ResultCache` and
a job queue; worker agents (:mod:`repro.service.worker`) lease
spec-addressed cells and upload cache-entry payloads; clients
(:mod:`repro.service.client`) submit grids and poll per-cell progress.
:class:`RemoteExecutor` is the standard executor named ``remote``,
so ``Sweep.run(executor="remote")`` — and every figure/study built on
``Sweep``, run inside ``sweep_defaults(executor="remote")`` — can run
against a farm without code changes, producing records byte-identical
to the ``serial`` backend.

Wire format and invariants live in :mod:`repro.service.protocol`.
"""

from repro.lazy import lazy_exports

# Each name is imported from its module when first read, so a client
# or the daemon loads only the modules it uses.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.client": (
            "SERVER_ENV",
            "RemoteExecutor",
            "ServiceClient",
            "ServiceError",
        ),
        "repro.service.protocol": (
            "PROTOCOL_VERSION",
            "ProtocolError",
            "config_from_wire",
            "config_to_wire",
            "spec_from_wire",
            "spec_to_wire",
            "specs_from_wire",
            "specs_to_wire",
        ),
        "repro.service.server": (
            "DEFAULT_LEASE_TIMEOUT",
            "SweepServer",
            "SweepService",
            "serve",
        ),
        "repro.service.worker": ("SweepWorker",),
    },
)

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteExecutor",
    "SERVER_ENV",
    "ServiceClient",
    "ServiceError",
    "SweepServer",
    "SweepService",
    "SweepWorker",
    "config_from_wire",
    "config_to_wire",
    "serve",
    "spec_from_wire",
    "spec_to_wire",
    "specs_from_wire",
    "specs_to_wire",
]
