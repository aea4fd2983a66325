"""In-memory spans recorded from outside the library.

Spans come from wrappers: the benchmark's own regions and calls into public
entry points, plus functions that one module of the library calls in another,
rebound by name in the importing module for the duration of a traced phase.
Basis-column evaluations are counted, not timed: they are too small and too
many to span.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, index of the layer argument or None)
REBINDS = (
    ("fourier_kv.dimselect", "rank_dimensions", "dimselect.rank_dimensions", None),
    ("fourier_kv.dimselect", "apply_schema", "dimselect.apply_schema", None),
    ("fourier_kv.dimselect", "temporal_std", "dimselect.temporal_std", None),
    ("fourier_kv.cache", "prefill", "cache.prefill", 3),
    ("fourier_kv.cache", "compress_batch", "spectral.compress_batch", None),
    ("fourier_kv.cache", "append_token", "cache.append_token", None),
    ("fourier_kv.cache", "fold_token", "spectral.fold_token", None),
    ("fourier_kv.attention", "reconstruct", "spectral.reconstruct", None),
)

# (module, class, method, span name, index of the layer argument or None);
# a span name of None counts basis positions instead of recording a span
CLASS_PATCHES = (
    ("fourier_kv.cache", "CompressedCache", "append", "cache.append", 1),
    ("fourier_kv.spectral", "FourierBasis", "column", None, None),
    ("fourier_kv.spectral", "FourierBasis", "columns", None, None),
)


class _NullRegion:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_REGION = _NullRegion()


class NullTracer:
    """Tracing off: regions cost one ``with`` on a shared no-op object."""

    enabled = False

    def region(self, name, layer=None):
        return _NULL_REGION

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _Region:
    __slots__ = ("tracer", "name", "layer", "idx", "t0")

    def __init__(self, tracer, name, layer):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.idx, self.t0 = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.name, self.t0, self.layer)
        return False


class Tracer:
    """Records spans ``(name, start, end, parent, layer)`` in call order.

    A span's parent is the span open when it started (``-1`` for none). The
    list index of a span is fixed when it opens, so a parent always precedes
    its children. Single-threaded by design.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.positions = []  # (innermost open span, positions evaluated)
        self.absent = []
        self._stack = [-1]
        self._undo = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, perf_counter()

    def _close(self, idx, name, t0, layer):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self._stack[-1], layer)

    def region(self, name, layer=None):
        return _Region(self, name, layer)

    def wrap(self, name, fn, layer_arg=None):
        """``fn`` recording one span per call; the layer is read from an argument."""

        def traced(*args, **kwargs):
            idx, t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                layer = args[layer_arg] if layer_arg is not None and len(args) > layer_arg else None
                self._close(idx, name, t0, layer)

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.positions.append((self._stack[-1], args[1]))
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Rebind the library names; a name that no longer exists is recorded as absent."""
        for module_name, attr, name, layer_arg in REBINDS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, layer_arg))
            self._undo.append((module, attr, fn))
        for module_name, cls_name, attr, name, layer_arg in CLASS_PATCHES:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
                continue
            wrapped = self._counting(fn) if name is None else self.wrap(name, fn, layer_arg)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, fn))

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path) -> None:
        """One JSON array per span: index, name, start and end in us, parent, layer."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, layer) in enumerate(self.spans):
                row = [i, name, round((t0 - origin) * 1e6, 3), round((t1 - origin) * 1e6, 3),
                       parent, layer]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


class SpanTable:
    """Durations, self times, phases and layers derived from a tracer's spans.

    A span's phase is its outermost ``bench.*`` ancestor; its layer is its own
    layer tag or the nearest ancestor's.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        n = len(spans)
        self.names = [s[0] for s in spans]
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.duration = np.array([s[2] - s[1] for s in spans])
        child_time = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time
        self.root = np.empty(n, dtype=np.int64)
        self.layer = [None] * n
        for i, (_, _, _, parent, layer) in enumerate(spans):
            self.root[i] = i if parent < 0 else self.root[parent]
            self.layer[i] = layer if layer is not None or parent < 0 else self.layer[parent]
        self._index = defaultdict(list)
        for i, name in enumerate(self.names):
            self._index[name].append(i)
        self.position_counts = defaultdict(int)
        self.position_sets = defaultdict(list)
        for span_idx, pos in tracer.positions:
            root = int(self.root[span_idx]) if span_idx >= 0 else -1
            arr = np.atleast_1d(np.asarray(pos, dtype=np.int64))
            self.position_counts[root] += arr.size
            self.position_sets[root].append(arr)

    def select(self, name, phase):
        """Indices of spans called ``name`` under a root region called ``phase``."""
        return [i for i in self._index.get(name, ()) if self.names[self.root[i]] == phase]

    def library_self(self, phase) -> float:
        """Self time of every library span under ``phase`` roots, bench regions excluded."""
        keep = [
            i for i, name in enumerate(self.names)
            if not name.startswith("bench.") and self.names[self.root[i]] == phase
        ]
        return float(self.self_time[keep].sum()) if keep else 0.0

    def roots(self, phase):
        return [i for i in self._index.get(phase, ()) if self.parent[i] < 0]

    def total(self, name, phase, self_only=False) -> float:
        times = self.self_time if self_only else self.duration
        return float(sum(times[i] for i in self.select(name, phase)))

    def mean(self, name, phase, self_only=False) -> float:
        idx = self.select(name, phase)
        if not idx:
            return 0.0
        return self.total(name, phase, self_only) / len(idx)

    def count(self, name, phase) -> int:
        return len(self.select(name, phase))

    def by_layer(self, name, phase, self_only=False) -> dict:
        times = self.self_time if self_only else self.duration
        out = defaultdict(float)
        for i in self.select(name, phase):
            out[self.layer[i]] += float(times[i])
        return dict(out)
