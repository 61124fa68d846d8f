"""Outside-in span tracing of avnsim's public functions.

The tracer replaces a function with a timing wrapper in every loaded
``avnsim`` namespace that binds it, so calls made by name from inside the
package (``cli`` imports ``build_psi`` by name, ``reference`` imports
``fit_noise``) are recorded as well as calls through the module.  Code
that wants its calls traced must look functions up through their module
at call time (``source.build_psi(...)``), never bind them by name before
``install``.

Spans live in flat arrays in memory: name, start, end, parent span and
request id.  A span's parent is the innermost span open when it started,
so self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_request = 0
        # per-function observations made by the layer hooks
        self.keys: dict[str, set[str]] = defaultdict(set)
        self.sums: dict[str, float] = defaultdict(float)
        self.last: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    # ---------------------------------------------------------- wrappers

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records one span per call of ``fn``.

        ``observe(tracer, name, args, kwargs, result)`` runs after a
        successful call, outside the span, to record counts or keys.
        """
        nid = self._name_id(name)
        tracer = self

        # open() and close() are inlined: this runs on every traced call
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.name[stack[-1]] == nid:
                return fn(*args, **kwargs)  # a recursive call is part of the outer span
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.request.append(tracer.current_request)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = _clock()
                stack.pop()
            if observe is not None:
                observe(tracer, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers) -> None:
        """Wrap each ``(module, function, observe)`` of ``layers`` in place.

        Every loaded ``avnsim`` module attribute that is the original
        function object is replaced, so by-name imports are traced too.
        """
        modules = [m for key, m in sorted(sys.modules.items()) if key == "avnsim" or key.startswith("avnsim.")]
        for module_name, func_name, observe in layers:
            original = getattr(sys.modules[f"avnsim.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------- export and merge

    def dump(self) -> dict:
        """Columns of every span plus the hook observations, as JSON data."""
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "keys": {k: sorted(v) for k, v in self.keys.items()},
            "sums": dict(self.sums),
            "last": dict(self.last),
        }

    def merge(self, doc: dict, request: int) -> None:
        """Append spans dumped by another process under one request id;
        its root spans become children of the innermost open span."""
        offset = len(self.start)
        root = self._stack[-1] if self._stack else -1
        remap = [self._name_id(n) for n in doc["names"]]
        self.name.extend(remap[i] for i in doc["name"])
        self.parent.extend(p + offset if p >= 0 else root for p in doc["parent"])
        self.request.extend(request for _ in doc["name"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        for k, v in doc["keys"].items():
            self.keys[k].update(v)
        for k, v in doc["sums"].items():
            self.sums[k] += v
        self.last.update(doc["last"])

    # ---------------------------------------------------------- summary

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s for every span name."""
        n = len(self.start)
        child = [0.0] * n
        duration = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += duration[i] - child[i]
        return out

    def count_beneath(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        target = self._name_ids.get(name)
        above = self._name_ids.get(ancestor)
        if target is None or above is None:
            return 0
        under = bytearray(len(self.start))
        count = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and (under[p] or self.name[p] == above):
                under[i] = 1
                if self.name[i] == target:
                    count += 1
        return count


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False
