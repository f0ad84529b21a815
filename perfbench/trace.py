"""In-memory spans around the public calls of a shiftnet run.

The benchmark wraps, from its own files, the `forward`/`backward` methods of
every layer object of a network, the network's own `forward`/`backward` and
the dataset's `batch`. Wrappers are instance attributes, so removing them
restores the class methods and leaves the program untouched.

A span is (name, label, start, end, parent, step, nbytes): `name` is the
metric stem it feeds (`ops.bn.fwd`, `shift.bwd`, `blocks.fwd`, ...), `label`
the layer path that `Network.cost_entries` uses for the same layer, `parent`
the index of the enclosing span (-1 at the root), `step` the closed-loop step
it belongs to and `nbytes` the size of the first array argument. Spans stay
in lists until the run ends; `columns` hands them out for writing.

A span's self time is its duration minus the durations of its children.
Children never overlap (one thread, nested calls), so the self times of all
spans of a step add up to the step's duration exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict

_now = time.perf_counter_ns
_MISSING = object()


class Patches:
    """Instance-attribute wrappers around methods, removable as one set."""

    def __init__(self):
        self._saved: dict[tuple[int, str], tuple[object, str, object]] = {}

    def wrap(self, obj, method: str, make):
        """Replace obj.method with make(current bound method)."""
        key = (id(obj), method)
        if key not in self._saved:
            self._saved[key] = (obj, method, obj.__dict__.get(method, _MISSING))
        setattr(obj, method, make(getattr(obj, method)))

    def restore(self):
        for obj, method, orig in self._saved.values():
            if orig is _MISSING:
                obj.__dict__.pop(method, None)
            else:
                setattr(obj, method, orig)
        self._saved.clear()


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.labels: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.steps: list[int] = []
        self.nbytes: list[int] = []
        self.step = -1
        self._stack: list[int] = []

    def open(self, name: str, label: str = "", nbytes: int = 0) -> int:
        i = len(self.names)
        self.names.append(name)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step)
        self.nbytes.append(nbytes)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(_now())
        return i

    def close(self, i: int):
        self.ends[i] = _now()
        top = self._stack.pop()
        if top != i:
            raise RuntimeError(f"span {self.names[i]!r} closed inside "
                               f"{self.names[top]!r}")

    def spanning(self, name: str, label: str = ""):
        """Factory for Patches.wrap: time each call of the wrapped method."""
        def make(inner):
            def traced(x, *args, **kwargs):
                i = self.open(name, label, getattr(x, "nbytes", 0))
                try:
                    return inner(x, *args, **kwargs)
                finally:
                    self.close(i)
            return traced
        return make

    def columns(self) -> dict:
        return {"name": self.names, "label": self.labels,
                "start_ns": self.starts, "end_ns": self.ends,
                "parent": self.parents, "step": self.steps,
                "nbytes": self.nbytes}


def around(first, then=None):
    """Factory for Patches.wrap: call first() before each call, then() after."""
    def make(inner):
        def hooked(*args, **kwargs):
            first()
            out = inner(*args, **kwargs)
            if then is not None:
                then()
            return out
        return hooked
    return make


class Phases:
    """Cuts a closed loop into steps of data, forward, backward and update.

    The loop's own calls mark the boundaries: a dataset `batch` call opens a
    step and its data phase, `Network.forward` opens the forward phase (which
    also holds the loss), `Network.backward` the backward phase, and its
    return the update phase, which lasts until the next step's batch call.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._step = None
        self._phase = None

    def enter(self, phase: str):
        t = self.tracer
        if self._phase is not None:
            t.close(self._phase)
        if phase == "pipeline.data":
            if self._step is not None:
                t.close(self._step)
            t.step += 1
            self._step = t.open("step")
        self._phase = t.open(phase)

    def finish(self):
        """Close the open phase and step at the end of a loop."""
        if self._phase is not None:
            self.tracer.close(self._phase)
        if self._step is not None:
            self.tracer.close(self._step)
        self._step = self._phase = None


def self_times(tracer: Tracer) -> list[int]:
    """Per-span duration minus the durations of its direct children (ns)."""
    dur = durations(tracer)
    own = list(dur)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            own[p] -= dur[i]
    return own


def by_step(tracer: Tracer, values: list[int]) -> dict[int, dict[str, int]]:
    """Sum `values` (one per span) by step and span name, for steps >= 0."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, step, v in zip(tracer.names, tracer.steps, values):
        if step >= 0:
            out[step][name] += v
    return out


def durations(tracer: Tracer) -> list[int]:
    return [e - s for s, e in zip(tracer.starts, tracer.ends)]
