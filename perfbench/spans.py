"""In-memory spans recorded around calls into the program.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span open when it started, and the run id shared by every span of one
run.  Spans are written out as JSON lines once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, "run": self.run_id}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        return functools.wraps(fn)(lambda *args, **kwargs: self.call(name, fn, *args, **kwargs))

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def last(self, name: str) -> dict:
        return next(s for s in reversed(self.spans) if s["name"] == name)

    def self_time(self, record: dict) -> float:
        """The span's duration minus the time its direct children cover."""
        children = sum(self.duration(s) for s in self.spans if s["parent"] == record["id"])
        return self.duration(record) - children

    def self_time_by_layer(self) -> dict:
        """Summed self time per layer, the part of a span name before the first dot."""
        totals: dict = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self.self_time(s)
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def patched(module, names, tracer: Tracer):
    """Wrap the listed attributes of ``module`` in spans named
    ``<defining module>.<name>``; names the module no longer has are skipped.
    The originals come back on exit."""
    saved = {}
    for name in names:
        fn = getattr(module, name, None)
        if fn is None:
            continue
        saved[name] = fn
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(module, name, tracer.wrap(f"{layer}.{name}", fn))
    try:
        yield sorted(saved)
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
