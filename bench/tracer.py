"""In-process span tracer for the traced benchmark run.

It wraps cavlab's public functions by replacing the module attributes that
callers look up (for example `qlearn.apply_action`, which `qlearn`'s episode
loop calls, and `world.apply_action`, which `cli`'s rollouts call), so the
program's source is not touched. Each wrapped call is a span (id, name,
start, end, parent); a span's self time is its duration minus the time its
traced children took. Counts and times are aggregated for every call; the
spans themselves are kept in memory up to a cap and written out at the end.

A function that a later version of cavlab deletes or renames is skipped with
a note instead of failing the run; its metrics then drop out of the report.
"""

from __future__ import annotations

import time

MAX_SPANS = 100_000  # spans kept in memory; aggregates cover every call


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s, work]
        self.samples: dict[str, list] = {}    # name -> per-call self times, for sampled names
        self.spans: list[tuple] = []          # (id, name, start, end, parent id or -1)
        self.notes: list[str] = []
        self.t0 = time.perf_counter()
        self._stack: list[list] = []          # open spans: [id, child time]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, name: str, places, sample: bool = False, work=None) -> None:
        """Trace calls made through each (owner, attribute) in `places` as `name`.

        `work(args, kwargs)` optionally returns an amount of work for the call
        (for example computed flops), summed into the name's stats.
        """
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        samples = self.samples.setdefault(name, []) if sample else None
        wrapped = {}
        for owner, attr in places:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.notes.append(f"{name}: {getattr(owner, '__name__', owner)}.{attr} not found, not traced")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrapper(name, fn, st, samples, work)
            setattr(owner, attr, wrapped[id(fn)])
            self._undo.append((owner, attr, fn))
        if not wrapped:
            del self.stats[name]
            self.samples.pop(name, None)

    def _wrapper(self, name, fn, st, samples, work):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += own
                if work is not None:
                    st[3] += work(args, kwargs)
                if samples is not None:
                    samples.append(own)
                if span_id < MAX_SPANS:
                    spans.append((span_id, name, start, end, parent))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def report(self) -> dict:
        """Aggregates per name, the share of calls kept as spans, and notes."""
        if self._next_id > MAX_SPANS:
            self.notes.append(f"kept the first {MAX_SPANS} of {self._next_id} spans; aggregates cover all")
        return {
            "layers": {
                name: {"calls": c, "total_s": tot, "self_s": own, "work": w}
                for name, (c, tot, own, w) in self.stats.items()
            },
            "samples": {name: s for name, s in self.samples.items() if s},
            "span_count": self._next_id,
            "notes": self.notes,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(f"{span_id},{name},{start - self.t0:.9f},{end - self.t0:.9f},{parent}\n")
