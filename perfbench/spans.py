"""In-memory spans recorded around the benchmark's calls into arithlab.

A span is (id, parent id, job id, name, start, end).  Names are
"<layer>.<operation>[.<detail>]", with the layer one of arithlab's modules;
each job is itself a span named "job.<kind>" that parents the layer calls
made for it.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import json
import time


def untraced(name, fn, *args, **kwargs):
    """The call hook of an untraced run: no clock, no record."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._job: int | None = None
        self._next = 0

    def call(self, name, fn, *args, **kwargs):
        """Call fn, recording a span under the open job (the hook signature)."""
        sid = self._next
        self._next += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((sid, parent, self._job, name, start, end))

    def job(self, job_id: int, kind: str, fn, *args):
        self._job = job_id
        try:
            return self.call(f"job.{kind}", fn, *args)
        finally:
            self._job = None

    def write(self, path: str) -> None:
        keys = ("id", "parent", "job", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


class Summary:
    """Busy time, self time and call counts per span-name prefix, per round.

    A prefix p covers spans named p or p.<anything>.  Busy time is the sum
    of covered durations (one thread, so covered spans never overlap);
    self time subtracts the time their child spans cover.  Spans inside
    jobs are divided by the number of rounds; set-up spans, outside any
    job, happen once and count whole.
    """

    def __init__(self, spans: list[tuple], rounds: int) -> None:
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        self._rows = [
            (name, end - start, end - start - child_time.get(sid, 0.0),
             1 / rounds if job is not None else 1.0)
            for sid, _, job, name, start, end in spans
        ]

    def _covered(self, prefix: str):
        dotted = prefix + "."
        return [r for r in self._rows if r[0] == prefix or r[0].startswith(dotted)]

    def busy_ms(self, prefix: str) -> float:
        return 1e3 * sum(r[1] * r[3] for r in self._covered(prefix))

    def self_ms(self, prefix: str) -> float:
        return 1e3 * sum(r[2] * r[3] for r in self._covered(prefix))

    def calls(self, prefix: str) -> float:
        return sum(r[3] for r in self._covered(prefix))
