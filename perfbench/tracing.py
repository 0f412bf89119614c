"""Spans recorded around the package's public functions, from outside.

Each public function of a traced module is replaced by a wrapper on the
module object.  Every cross-module call in the package goes through a
module attribute (``lv.build_liouvillian``, ``spectrum_mod.correlation_modes``)
and calls within a module look the name up in the module's globals, which
are the same dictionary, so one attribute patch sees every call.

Spans stay in memory as lists until the run ends.  A span opened on a
thread with no open span of its own (a sweep's pool worker) takes the
current request's root span as its parent, so the root's self time is
its duration minus the union of its children's intervals even when those
children overlap in time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

# Modules whose public functions are wrapped.  Of ``cli`` only ``main`` is
# wrapped: its other public names run inside it, and its self time is meant
# to cover parsing, formatting and writing.
TRACED_MODULES = ("model", "liouvillian", "rates", "spectrum", "fit", "oracle")
CLI_ENTRY = "main"

# Span fields.
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Collects spans; one instance per traced phase of a run.

    A span is a list [name, start, end, parent span or None, request id,
    info]; ``info`` holds what a probe returned, or the name of the
    exception the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self.request = -1
        self._root = None
        self._patched: list[tuple[object, str, object]] = []

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self._root = None

    def wrap(self, name: str, func, probe=None):
        """Wrapper that records a span; ``probe(args, kwargs, result)`` may
        return a value kept with the span."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            span = [name, clock(), 0.0, parent, self.request, None]
            spans.append(span)
            if parent is None:
                self._root = span
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = {"raised": type(exc).__name__}
                raise
            else:
                if probe is not None:
                    span[INFO] = probe(args, kwargs, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self, package: str, probes: dict | None = None) -> None:
        """Patch the public functions of the traced modules of ``package``."""
        probes = probes or {}
        for short in TRACED_MODULES + ("cli",):
            module = importlib.import_module(f"{package}.{short}")
            if short == "cli":
                names = [CLI_ENTRY]
            else:
                names = [
                    key
                    for key, value in vars(module).items()
                    if inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not key.startswith("_")
                ]
            for key in names:
                original = getattr(module, key)
                qualified = f"{short}.{key}"
                setattr(module, key, self.wrap(qualified, original, probes.get(qualified)))
                self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON line per span, its parent given by line number."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = None if span[PARENT] is None else index[id(span[PARENT])]
                handle.write(json.dumps(span[:PARENT] + [parent] + span[PARENT + 1:]) + "\n")


def union_length(intervals, low: float, high: float) -> float:
    """Length of the union of intervals, clipped to [low, high]."""
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals if b > low and a < high
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - union_length(children.get(id(span), ()), span[START], span[END])
        for span in spans
    ]
