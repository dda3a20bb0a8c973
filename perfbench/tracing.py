"""Timing of one round: per-sample times, and spans when traced.

A round of a workload runs against a ``Recorder``. The untraced
``Recorder`` times samples and keeps counts; ``Tracer`` also keeps a span
for every call into a squarepack module that the workload routes through
``wrap``, and for the benchmark's own phases. A span has a name, start, end, parent
span and the id of the sample it belongs to; spans live in memory and are
written out once the round ends. Names are "<layer>.<operation>"; the
layer "bench" is the benchmark's own code.
"""

from __future__ import annotations

from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict

import numpy as np


class Recorder:
    """Untraced: sample durations and counts, no spans."""

    traced = False

    def __init__(self):
        self.sample_s = array("d")
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def open(self, name: str) -> int:
        return -1

    def close(self, span: int) -> None:
        pass

    def begin_sample(self) -> float:
        return perf_counter()

    def end_sample(self, t0: float) -> None:
        self.sample_s.append(perf_counter() - t0)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value


class Tracer(Recorder):
    """Also records spans in memory."""

    traced = True

    def __init__(self):
        super().__init__()
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sample = array("i")
        self._stack: list = []
        self._sample_id = -1
        self._samples = 0

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.sample.append(self._sample_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]} closed out of order")

    def open(self, name: str) -> int:
        return self._open(self._name(name))

    def close(self, span: int) -> None:
        self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def begin_sample(self) -> float:
        self._sample_id = self._samples
        self._samples += 1
        self._sample_span = self._open(self._name("bench.sample"))
        return self.start[self._sample_span]

    def end_sample(self, t0: float) -> None:
        self._close(self._sample_span)
        self.sample_s.append(self.end[self._sample_span] - t0)
        self._sample_id = -1

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur - child

    def summary(self, root: int) -> dict:
        """Calls and self seconds per span name under one root span."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        inside = np.zeros(parent.size, dtype=bool)
        inside[root] = True
        for i in range(root + 1, parent.size):
            p = parent[i]
            if p >= 0 and inside[p]:
                inside[i] = True
        selfs = self.self_times()
        names = np.frombuffer(self.name_id, dtype=np.int32)
        out: Dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            mask = inside & (names == nid)
            calls = int(mask.sum())
            if calls:
                out[name] = {"calls": calls, "self_s": float(selfs[mask].sum())}
        return out

    def write(self, path: Path) -> None:
        """Write every span of the round as columns of an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            sample=np.frombuffer(self.sample, dtype=np.int32),
        )
