"""In-memory span tracer that wraps sparsepg's public functions from outside.

Each wrapped call records one span: name, start, end, parent span (the
innermost open span of the same thread, or -1) and thread.  Spans live in
per-thread array buffers, so recording takes no lock, and are summarised or
written out after the traced region ends.  Per-call quantities (mask sizes,
iteration counts, ...) are added to per-thread counters by an optional
``measure`` callback that sees the call's arguments and result.

Wrappers are installed wherever a name is bound: the module attribute looked
up at call time (``problem.grad_shard``) and every ``from ... import`` copy of
it (``engine.draw_mask``), found by scanning the package's loaded modules.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._installed: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn, measure=None):
        """Traced version of ``fn``; ``measure(counts, args, kwargs, result)``
        runs after a successful call, outside the span."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            idx = len(buf.names)
            buf.names.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0.0)
            buf.stack.append(idx)
            buf.starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                buf.ends[idx] = _clock()
                buf.stack.pop()
                buf.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            buf.ends[idx] = _clock()
            buf.stack.pop()
            if measure is not None:
                measure(buf.counts, args, kwargs, result)
            return result

        return traced

    def install(self, name: str, module, attr: str, measure=None) -> None:
        """Trace ``module.attr`` under ``name`` at every binding of that
        function in the modules of the same package."""
        fn = getattr(module, attr)
        package = module.__name__.split(".")[0]
        traced = self.wrap(name, fn, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for binding, value in list(vars(mod).items()):
                if value is fn:
                    self._installed.append((mod, binding, fn))
                    setattr(mod, binding, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat numpy arrays; parent indices are global."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            if buf.stack:
                raise RuntimeError("analysing spans while a traced call is still open")
            n = len(buf.names)
            par = _copy(buf.parents, np.int64)
            par[par >= 0] += offset
            names.append(_copy(buf.names, np.int32))
            parents.append(par)
            starts.append(_copy(buf.starts, np.float64))
            ends.append(_copy(buf.ends, np.float64))
            threads.append(np.full(n, buf.thread, dtype=np.uint64))
            offset += n
        return {
            "name": np.concatenate(names + [np.zeros(0, np.int32)]),
            "parent": np.concatenate(parents + [np.zeros(0, np.int64)]),
            "start": np.concatenate(starts + [np.zeros(0)]),
            "end": np.concatenate(ends + [np.zeros(0)]),
            "thread": np.concatenate(threads + [np.zeros(0, np.uint64)]),
        }

    def counts(self) -> Counter:
        total = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total

    def peak(self, key: str) -> int:
        """Largest per-thread value of a counter that measures a maximum."""
        return max((buf.counts[key] for buf in self._buffers), default=0)


class SpanSummary:
    """Per-name totals over a set of spans, with self times and ancestry."""

    def __init__(self, names: list[str], spans: dict):
        self.spans = spans
        self.dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                                 minlength=self.dur.size)
        self.self_time = self.dur - child_time
        self._ids = {n: i for i, n in enumerate(names)}

    def _mask(self, name: str) -> np.ndarray:
        return self.spans["name"] == self._ids[name]

    def under(self, ancestors) -> np.ndarray:
        """Spans with an ancestor (in the same thread) named in ``ancestors``."""
        ids = np.array([self._ids[a] for a in ancestors])
        parent = self.spans["parent"]
        is_anc = np.isin(self.spans["name"], ids)
        inside = np.zeros(self.dur.size, dtype=bool)
        hop = parent.copy()
        while True:
            valid = hop >= 0
            if not valid.any():
                return inside
            idx = np.flatnonzero(valid)
            inside[idx] |= is_anc[hop[idx]]
            hop[idx] = parent[hop[idx]]

    def calls(self, name: str, where=None) -> int:
        m = self._mask(name)
        if where is not None:
            m &= where
        return int(m.sum())

    def seconds(self, name: str, where=None) -> float:
        m = self._mask(name)
        if where is not None:
            m &= where
        return float(self.dur[m].sum())

    def self_seconds(self, names) -> float:
        m = np.isin(self.spans["name"], [self._ids[n] for n in names])
        return float(self.self_time[m].sum())

    def uncovered_seconds(self, name: str, children) -> float:
        """Time of ``name`` spans not covered by any ``children`` span in any
        thread; used where children run on pool threads."""
        total = 0.0
        child = np.isin(self.spans["name"], [self._ids[c] for c in children])
        cs, ce = self.spans["start"][child], self.spans["end"][child]
        for i in np.flatnonzero(self._mask(name)):
            s, e = self.spans["start"][i], self.spans["end"][i]
            keep = (ce > s) & (cs < e)
            covered = _union_length(np.clip(cs[keep], s, e), np.clip(ce[keep], s, e))
            total += (e - s) - covered
        return total


def _copy(arr: array, dtype) -> np.ndarray:
    return np.frombuffer(arr, dtype=dtype).copy() if len(arr) else np.zeros(0, dtype)


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts)
    length = 0.0
    cur_s, cur_e = starts[order[0]], ends[order[0]]
    for s, e in zip(starts[order[1:]], ends[order[1:]]):
        if s > cur_e:
            length += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return float(length + cur_e - cur_s)
