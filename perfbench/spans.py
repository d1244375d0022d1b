"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's side only: a public function of a
layer is wrapped where its caller looks it up (a module global such as
``repfit.cli.compute_statistics``, or a class attribute such as
``LanguageModel.sample``) for the duration of a traced pass, and put back
afterwards.  Untraced passes therefore run the program unmodified.

A span's layer is the part of its name before the first dot.  A layer's
self time is the time its spans cover minus the time their child spans
cover, so the self times of all layers in a pass sum to the pass's root
span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
import tracemalloc
from array import array
from collections import defaultdict

ROOT = "bench.pass"
LAYERS = ("bench", "cli", "corpus", "urn", "figures", "scoring", "simlab")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans (name, start, end, parent, pass) and per-pass counts, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.counts: list[dict[str, float]] = []
        self.measure_memory = False
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(len(self.counts) - 1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[-1][key] = self.counts[-1].get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[-1][key] = max(self.counts[-1].get(key, 0), value)

    @contextlib.contextmanager
    def traced_pass(self, patches):
        """Record one pass under a root span with ``patches`` installed."""
        self.counts.append({})
        with _installed(self, patches):
            index = self._open(ROOT)
            try:
                yield
            finally:
                self._close(index)

    def pass_summaries(self) -> list[dict]:
        """Per traced pass: total time, and inclusive and self time per span
        name, with the pass's counts."""
        n_passes = len(self.counts)
        total = [0.0] * n_passes
        inclusive = [defaultdict(float) for _ in range(n_passes)]
        self_time = [defaultdict(float) for _ in range(n_passes)]
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            p = self.pass_id[i]
            name = self.names[self.name_id[i]]
            inclusive[p][name] += duration
            self_time[p][name] += duration
            if self.parent[i] < 0:
                total[p] += duration
            else:
                self_time[p][self.names[self.name_id[self.parent[i]]]] -= duration
        return [
            {"pass_s": total[p], "inclusive_s": dict(inclusive[p]),
             "self_s": dict(self_time[p]), "counts": self.counts[p]}
            for p in range(n_passes)
        ]

    def write(self, path: str, passes: range) -> None:
        """Write the spans of the given passes to a gzip file, one JSON line
        each: name, start, end, parent, pass."""
        with gzip.open(path, "wt") as handle:
            for i in range(len(self.start)):
                if self.pass_id[i] not in passes:
                    continue
                handle.write(json.dumps({
                    "span": i, "name": self.names[self.name_id[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "pass": self.pass_id[i],
                }) + "\n")


class Patch:
    """Wrap ``owner.attr`` in a span named ``name``.

    ``counter(recorder, args, result)`` records counts after each call;
    ``memory=True`` also records the tracemalloc peak of the call when the
    recorder asks for it (that pass's timings are then not representative).
    """

    def __init__(self, owner, attr: str, name: str, counter=None, memory: bool = False):
        self.owner, self.attr, self.name = owner, attr, name
        self.counter, self.memory = counter, memory

    def wrap(self, recorder: Recorder, fn):
        name, counter, memory = self.name, self.counter, self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            watch = memory and recorder.measure_memory
            if watch:
                tracemalloc.start()
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
                if watch:
                    recorder.peak(name + ".peak_bytes", tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                counter(recorder, args, result)
            return result

        return traced


@contextlib.contextmanager
def _installed(recorder: Recorder, patches):
    saved = []
    try:
        for patch in patches:
            original = patch.owner.__dict__[patch.attr]
            saved.append((patch, original))
            setattr(patch.owner, patch.attr, patch.wrap(recorder, original))
        yield
    finally:
        for patch, original in reversed(saved):
            setattr(patch.owner, patch.attr, original)
