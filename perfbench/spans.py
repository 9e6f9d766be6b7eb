"""Span tracing from outside the program: wrap public calls, fold self time.

The benchmark never edits ``src/``.  A :class:`Tracer` replaces a public
function or method with a wrapper at every place it is looked up: the
defining class (and every subclass that overrides it), or every loaded
``repro`` module whose namespace binds the same function object (so
``from ..crypto.mac import tag`` call sites are covered, not only
``repro.crypto.mac.tag``).

Two kinds of wrapper:

* a *span* records name, layer, start, end, parent and request id.  The
  parent is the innermost open span of the same thread; the request id is
  the id of the thread's outermost open span.  Spans are kept in memory,
  per thread, and folded at the end.
* a *leaf* (hot calls such as ``Prg.read``) only adds to a per-name call
  count, byte count and time, and charges its time to the innermost open
  span, so thousands of calls per run cost a counter, not a span each.

A layer's self time is the sum, over its spans, of the span's duration
minus the part covered by its child spans and minus its leaf time; a
leaf layer's self time is its outermost leaf calls' time.  Spans of the
``wait`` layer (blocking reads, long polls) are subtracted from their
parent but count toward no layer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

WAIT_LAYER = "wait"


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: Optional[int]
    req: int
    thread: int
    end: float = 0.0
    leaf_s: float = 0.0


@dataclass
class _ThreadState:
    ident: int
    stack: List[Span] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    # name -> [calls, seconds, bytes]
    leaves: Dict[str, List[float]] = field(default_factory=dict)
    # seconds of outermost leaf calls, per leaf layer
    leaf_top: Dict[str, float] = field(default_factory=dict)
    leaf_depth: int = 0
    calls: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One public call to wrap.

    ``where`` is ``"module.path:attr"`` or ``"module.path:Class.attr"``.
    ``on_return(tracer, args, kwargs, result, span)`` may add counters or
    replace the result (its return value, unless ``None``, is returned
    to the caller).  ``size(args, kwargs)`` gives a leaf's byte count.
    ``required_on`` names the workloads on which the wrapper must fire.
    """

    name: str
    layer: str
    where: str
    leaf: bool = False
    on_return: Optional[Callable] = None
    size: Optional[Callable] = None
    required_on: Tuple[str, ...] = ()


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._ids = itertools.count(1)
        self._tls = threading.local()
        #: Guards the shared collections below; hooks may take it too.
        self.lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.counters: Dict[str, float] = {}
        self.targets: List[Target] = []
        #: ``RunStats`` of every outermost batch, and service submit times
        #: by job key — filled by the layer table's hooks.
        self.run_stats: List[object] = []
        self.submitted: Dict[str, float] = {}

    # -- per-thread state -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._tls.state = state
            with self.lock:
                self._states.append(state)
        return state

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open_spans(self) -> List[Span]:
        """This thread's open spans, outermost first."""
        return list(self._state().stack)

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, fn: Callable, target: Target) -> Callable:
        name, layer, on_return = target.name, target.layer, target.on_return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            state.calls[name] = state.calls.get(name, 0) + 1
            stack = state.stack
            if stack and stack[-1].name == name:
                # Re-entry (``run_one`` → ``run``, recursive merges):
                # one span covers the outermost call.
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            span = Span(
                sid, name, layer, 0.0,
                parent.sid if parent else None,
                parent.req if parent else sid,
                state.ident,
            )
            stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                state.spans.append(span)
            if on_return is not None:
                replaced = on_return(self, args, kwargs, result, span)
                if replaced is not None:
                    return replaced
            return result

        return wrapper

    def leaf_wrapper(self, fn: Callable, target: Target) -> Callable:
        name, layer, size = target.name, target.layer, target.size
        clock, tls, state_of = self.clock, self._tls, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Hot path: locals only, no lock, no span.
            state = getattr(tls, "state", None) or state_of()
            state.leaf_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                state.leaf_depth -= 1
                entry = state.leaves.get(name)
                if entry is None:
                    entry = state.leaves[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += dt
                if size is not None:
                    entry[2] += size(args, kwargs)
                if state.leaf_depth == 0 and state.stack:
                    # Leaf time outside every span belongs to no layer.
                    state.leaf_top[layer] = state.leaf_top.get(layer, 0.0) + dt
                    state.stack[-1].leaf_s += dt

        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self, targets: List[Target]) -> None:
        """Wrap every target wherever it is looked up."""
        for target in targets:
            owner, attr = _resolve(target.where)
            original = owner.__dict__[attr]
            make = self.leaf_wrapper if target.leaf else self.span_wrapper
            if isinstance(owner, type):
                for cls in [owner] + _subclasses(owner):
                    if attr in cls.__dict__ and not _is_ours(cls.__dict__[attr]):
                        self._patch(cls, attr, make(cls.__dict__[attr], target))
            else:
                wrapper = make(original, target)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            self.targets.append(target)

    def _patch(self, owner, attr: str, wrapper) -> None:
        wrapper.__perfbench_wrapper__ = True
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def spans(self) -> List[Span]:
        with self.lock:
            states = list(self._states)
        return [span for state in states for span in state.spans]

    def calls(self) -> Dict[str, int]:
        """Calls per target name, spans and leaves together."""
        out: Dict[str, int] = {}
        with self.lock:
            states = list(self._states)
        for state in states:
            for name, n in state.calls.items():
                out[name] = out.get(name, 0) + n
            for name, entry in state.leaves.items():
                out[name] = out.get(name, 0) + int(entry[0])
        return out

    def leaves(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        with self.lock:
            states = list(self._states)
        for state in states:
            for name, (n, s, b) in state.leaves.items():
                total = out.setdefault(name, [0, 0.0, 0])
                total[0] += n
                total[1] += s
                total[2] += b
        return out

    def leaf_layer_s(self) -> Dict[int, Dict[str, float]]:
        """Outermost leaf time per thread, per leaf layer."""
        with self.lock:
            return {s.ident: dict(s.leaf_top) for s in self._states}

    def dump(self, path) -> None:
        """Write every span, one JSON object per line, then one line with
        the leaf totals and counters."""
        import json
        from dataclasses import asdict

        with open(path, "w") as out:
            for span in sorted(self.spans(), key=lambda sp: sp.start):
                out.write(json.dumps(asdict(span)) + "\n")
            out.write(json.dumps({
                "leaves": {
                    name: {"calls": n, "seconds": secs, "bytes": size}
                    for name, (n, secs, size) in self.leaves().items()
                },
                "counters": dict(self.counters),
            }) + "\n")

    def never_fired(self, workload: str) -> List[str]:
        calls = self.calls()
        return sorted(
            t.name for t in self.targets
            if workload in t.required_on and calls.get(t.name, 0) == 0
        )


def _resolve(where: str):
    import importlib

    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out


def _is_ours(fn) -> bool:
    return getattr(fn, "__perfbench_wrapper__", False)


# -- folding -------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus its children's cover and its leaf time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: max(
            0.0,
            (span.end - span.start)
            - _covered(span.start, span.end, children.get(span.sid, []))
            - span.leaf_s,
        )
        for span in spans
    }


def layer_self_times(
    spans: List[Span], leaf_layers: Dict[int, Dict[str, float]]
) -> Dict[str, float]:
    """Self time per layer (the ``wait`` layer left out)."""
    out: Dict[str, float] = {}
    selfs = self_times(spans)
    for span in spans:
        if span.layer != WAIT_LAYER:
            out[span.layer] = out.get(span.layer, 0.0) + selfs[span.sid]
    for per_layer in leaf_layers.values():
        for layer, seconds in per_layer.items():
            out[layer] = out.get(layer, 0.0) + seconds
    return out


def name_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span name."""
    out: Dict[str, float] = {}
    selfs = self_times(spans)
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + selfs[span.sid]
    return out


def name_totals(spans: List[Span]) -> Dict[str, float]:
    """Total (inclusive) time per span name."""
    out: Dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
    return out


def thread_budget_ok(
    spans: List[Span], leaf_layers: Dict[int, Dict[str, float]],
    slack: float = 1e-6,
) -> bool:
    """On every thread, layer self times sum to no more than the time its
    root spans cover — the fold never counts one interval twice."""
    selfs = self_times(spans)
    used: Dict[int, float] = {}
    roots: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.layer != WAIT_LAYER:
            used[span.thread] = used.get(span.thread, 0.0) + selfs[span.sid]
        if span.parent is None:
            roots.setdefault(span.thread, []).append((span.start, span.end))
    for thread, per_layer in leaf_layers.items():
        used[thread] = used.get(thread, 0.0) + sum(per_layer.values())
    for thread, total in used.items():
        cover = roots.get(thread, [])
        span_len = _covered(
            min((s for s, _ in cover), default=0.0),
            max((e for _, e in cover), default=0.0),
            cover,
        )
        if total > span_len + slack:
            return False
    return True
