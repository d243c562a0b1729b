"""Wall-clock phase profiling of the simulator hot path.

``oovr run --profile`` and :meth:`Sweep.run(profile=True)
<repro.session.session.Sweep.run>` time one cell's five cost centres —
scene build, work-unit binding, Eq. 3 stage/memory pricing, schedule
execution and result-cache I/O — and report them as a small table
(and, for sweeps, as ``profile_*`` record columns).

The machinery is deliberately passive: instrumentation sites call
:func:`phase`, which is a no-op unless a :class:`PhaseProfile` has
been activated with :func:`capture` for the current cell, so figure
runs and golden-file sweeps pay (almost) nothing and stay
byte-identical.  Timings use *self time*: a phase entered inside
another phase (stage pricing inside binding, say) is charged to the
inner phase only, so the table's rows add up instead of
double-counting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PHASES",
    "PhaseProfile",
    "add_counter",
    "capture",
    "current_profile",
    "phase",
]

#: The hot-path cost centres, in reporting order.  ``scene`` is scene
#: construction (memoised per process, so repeat cells show ~0);
#: ``bind`` covers middleware batch grouping and merging (the
#: ``_BatchBuilder`` front end) plus the engine's memory-image
#: resolution; ``price`` covers Eq. 3 frame characterisation plus the
#: engine's stage/memory pricing; ``execute`` everything else inside
#: the render (dispatch, SMP, event simulation); ``cache``
#: result-cache I/O.
PHASES = ("scene", "bind", "price", "execute", "cache")


class PhaseProfile:
    """Accumulated wall seconds (self time) per hot-path phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Free-form accumulated quantities (:func:`add_counter`) —
        #: e.g. the event engine's window-loop statistics.  Unlike
        #: :attr:`seconds` these are not wall times and never enter
        #: :attr:`total_seconds`.
        self.counters: Dict[str, float] = {}
        #: (phase name, entry time, accumulated child elapsed).
        self._stack: List[Tuple[str, float, float]] = []

    def _enter(self, name: str) -> None:
        self._stack.append((name, time.perf_counter(), 0.0))

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            parent, parent_start, parent_child = self._stack[-1]
            self._stack[-1] = (parent, parent_start, parent_child + elapsed)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def to_dict(self) -> Dict[str, float]:
        """``{phase: seconds}`` over the canonical phases (0.0 when
        never entered), plus any ad-hoc phases that were timed."""
        out = {name: self.seconds.get(name, 0.0) for name in PHASES}
        for name, seconds in self.seconds.items():
            if name not in out:
                out[name] = seconds
        return out

    def merged_with(self, other: "PhaseProfile") -> "PhaseProfile":
        """A new profile with both sides' times and counts summed."""
        merged = PhaseProfile()
        for source in (self, other):
            for name, seconds in source.seconds.items():
                merged.seconds[name] = merged.seconds.get(name, 0.0) + seconds
            for name, calls in source.calls.items():
                merged.calls[name] = merged.calls.get(name, 0) + calls
            for name, value in source.counters.items():
                merged.counters[name] = merged.counters.get(name, 0.0) + value
        return merged

    def table(self, title: str = "phase breakdown") -> str:
        """The profile as a small aligned text table."""
        total = self.total_seconds
        lines = [f"{title} ({total * 1e3:.1f} ms total):"]
        for name, seconds in self.to_dict().items():
            share = (seconds / total * 100.0) if total > 0 else 0.0
            calls = self.calls.get(name, 0)
            lines.append(
                f"  {name:<8} {seconds * 1e3:>9.2f} ms  {share:>5.1f} %"
                f"  ({calls} call(s))"
            )
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<22} {self.counters[name]:g}")
            windows = self.counters.get("event_windows", 0.0)
            if windows > 0:
                rows = self.counters.get("event_live_rows", 0.0)
                loop_s = self.counters.get("event_loop_s", 0.0)
                lines.append(
                    f"  window loop: {windows:.0f} windows, "
                    f"{rows / windows:.1f} mean live rows/window, "
                    f"{loop_s * 1e3:.2f} ms loop wall"
                )
        return "\n".join(lines)


#: The profile instrumentation currently feeds, if any.
_active: Optional[PhaseProfile] = None


def current_profile() -> Optional[PhaseProfile]:
    """The :class:`PhaseProfile` being captured, or ``None``."""
    return _active


def add_counter(name: str, value: float) -> None:
    """Accumulate ``value`` onto counter ``name`` of the active profile.

    A no-op when no :func:`capture` is active, so instrumented hot
    paths (the event engine's window loop above all) stay free on
    unprofiled runs.
    """
    if _active is not None:
        counters = _active.counters
        counters[name] = counters.get(name, 0.0) + value


class capture:
    """Context manager routing :func:`phase` timings into a profile.

    Not reentrant: profiling an already-profiled region raises, since
    silently swapping collectors would misattribute the outer cell's
    remaining phases.
    """

    def __init__(self, profile: PhaseProfile) -> None:
        self.profile = profile

    def __enter__(self) -> PhaseProfile:
        global _active
        if _active is not None:
            raise RuntimeError("a PhaseProfile capture is already active")
        _active = self.profile
        return self.profile

    def __exit__(self, *exc) -> None:
        global _active
        _active = None


class _PhaseTimer:
    """A reusable, stateless timer for one phase name.

    All state lives on the active profile's stack, so module-level
    singletons are shared safely across call sites; when no capture is
    active both methods fall through immediately, keeping the
    golden-path overhead to a couple of attribute loads.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        if _active is not None:
            _active._enter(self.name)

    def __exit__(self, *exc) -> None:
        if _active is not None:
            _active._exit()


#: Timers for the canonical phases (reused; creating one per call
#: would double the inactive-path cost for nothing).
_TIMERS = {name: _PhaseTimer(name) for name in PHASES}


def phase(name: str) -> _PhaseTimer:
    """The (shared) timer context manager for ``name``."""
    timer = _TIMERS.get(name)
    if timer is None:
        timer = _TIMERS[name] = _PhaseTimer(name)
    return timer
