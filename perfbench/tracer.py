"""Span recorder that wraps public functions from outside the program.

:meth:`Tracer.install` replaces each target of :data:`layers.LAYERS`
with a wrapper that records one span per call: (name, start, end,
parent).  Spans live in compact per-thread arrays and are only reduced
— and optionally written — once, by :meth:`Tracer.summary`, when the
traced process is done.  A layer's self time is its span durations
minus the parts covered by child spans, so the self times of every
span plus the unspanned residual add up to the traced wall.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence


class _Spans:
    """One thread's spans as parallel columns plus its open-span stack."""

    __slots__ = ("name", "parent", "start", "end", "stack", "hits")

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.hits = 0


def resolve(dotted: str):
    """``(owner, attribute)`` that ``dotted`` names, or ``None``.

    The longest importable prefix is the module; the rest walks
    attributes.  A class attribute must be defined on that class
    itself, so an inherited method is never wrapped twice.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
        except AttributeError:
            return None
        attr = parts[-1]
        if isinstance(owner, type):
            return (owner, attr) if attr in vars(owner) else None
        return (owner, attr) if hasattr(owner, attr) else None
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._threads: List[_Spans] = []
        self._lock = threading.Lock()
        #: Dotted targets that did not resolve at this commit.
        self.absent: List[str] = []

    def intern(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            with self._lock:
                found = self._ids.get(name)
                if found is None:
                    found = self._ids[name] = len(self.names)
                    self.names.append(name)
        return found

    def _spans(self) -> _Spans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _Spans()
            with self._lock:
                self._threads.append(spans)
            return spans

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (import, install, ...)."""
        spans = self._spans()
        index = len(spans.start)
        spans.name.append(self.intern(name))
        spans.parent.append(spans.stack[-1] if spans.stack else -1)
        spans.end.append(0.0)
        spans.stack.append(index)
        spans.start.append(time.perf_counter())
        try:
            yield
        finally:
            spans.end[index] = time.perf_counter()
            spans.stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, func, name: str, kind: str):
        local = self._local
        new_spans = self._spans
        clock = time.perf_counter
        by_framework = kind == "framework"
        fixed = None if by_framework else self.intern(name)
        intern = self.intern
        count_hits = kind == "lookup"

        # The body inlines span(): a context manager per call would
        # double the tracing cost on the millions of bind-path calls.
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = new_spans()
            stack = spans.stack
            index = len(spans.start)
            spans.name.append(
                intern("framework." + args[0].name) if by_framework else fixed
            )
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0.0)
            stack.append(index)
            spans.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                stack.pop()
            if count_hits and result is not None:
                spans.hits += 1
            return result

        return wrapper

    def install(self, layers: Sequence) -> List[str]:
        """Wrap every resolvable target; returns the absent ones."""
        for layer in layers:
            for dotted in layer.targets:
                found = resolve(dotted)
                if found is None:
                    self.absent.append(dotted)
                    continue
                owner, attr = found
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, layer.name, layer.kind))
                else:
                    new = self._wrap(raw, layer.name, layer.kind)
                setattr(owner, attr, new)
        return list(self.absent)

    # -- reduction ----------------------------------------------------------

    def summary(self, spans_path: Optional[str] = None) -> Dict[str, object]:
        """Per-name calls, self and inclusive seconds, plus the self
        time of every layer split by the framework whose
        ``render_scene`` it ran under.  Spans still open (a request
        thread cut off at shutdown) are dropped.
        """
        import numpy as np

        names = list(self.names)
        columns = {"name": [], "parent": [], "start": [], "end": []}
        offset = 0
        hits = 0
        for spans in list(self._threads):
            # Every thread is done by now; min() guards a torn append.
            n = min(len(spans.name), len(spans.parent), len(spans.start),
                    len(spans.end))
            parent = np.frombuffer(spans.parent, dtype=np.int32)[:n].astype(np.int64)
            columns["name"].append(np.frombuffer(spans.name, dtype=np.uint16)[:n])
            columns["parent"].append(np.where(parent >= 0, parent + offset, -1))
            columns["start"].append(np.frombuffer(spans.start, dtype=np.float64)[:n])
            columns["end"].append(np.frombuffer(spans.end, dtype=np.float64)[:n])
            offset += n
            hits += spans.hits
        if offset:
            name, parent, start, end = (
                np.concatenate(columns[key])
                for key in ("name", "parent", "start", "end")
            )
        else:
            name = np.zeros(0, np.uint16)
            parent = np.zeros(0, np.int64)
            start = end = np.zeros(0)
        done = end > 0
        duration = np.where(done, end - start, 0.0)
        nested = (parent >= 0) & done
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(name)
        )
        self_time = duration - covered
        count = len(names)
        calls = np.bincount(name[done], minlength=count)
        self_by_name = np.bincount(name, weights=self_time, minlength=count)
        incl_by_name = np.bincount(name, weights=duration, minlength=count)

        # The framework each span ran under: the nearest render_scene
        # ancestor (itself included).  Render_scene spans own themselves
        # from the start, so an ancestor without an owner yet is not
        # one and can be jumped over.
        framework_ids = [
            i for i, label in enumerate(names) if label.startswith("framework.")
        ]
        owner = np.where(np.isin(name, framework_ids), name.astype(np.int64), -1)
        ancestor = parent.copy()
        todo = np.nonzero((owner < 0) & (ancestor >= 0))[0]
        while todo.size:
            owner[todo] = owner[ancestor[todo]]
            todo = todo[owner[todo] < 0]
            ancestor[todo] = ancestor[ancestor[todo]]
            todo = todo[ancestor[todo] >= 0]
        by_framework: Dict[str, Dict[str, float]] = {}
        for fid in framework_ids:
            mine = owner == fid
            split = np.bincount(name[mine], weights=self_time[mine], minlength=count)
            by_framework[names[fid][len("framework."):]] = {
                names[i]: float(split[i]) for i in np.nonzero(split)[0]
            }

        if spans_path is not None:
            np.savez(
                spans_path,
                names=np.array(names),
                name=name,
                parent=parent.astype(np.int32),
                start=start,
                end=end,
            )
        return {
            "spans": int(done.sum()),
            "hits": hits,
            "absent": list(self.absent),
            "layers": {
                names[i]: {
                    "calls": int(calls[i]),
                    "self_s": float(self_by_name[i]),
                    "incl_s": float(incl_by_name[i]),
                }
                for i in range(count)
            },
            "self_total_s": float(self_time.sum()),
            "by_framework": by_framework,
        }
