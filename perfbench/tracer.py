"""Spans recorded from outside the program.

`Tracer.install` replaces functions on the `seqfilt.*` module attributes
where callers look them up (e.g. `seqfilt.train.model_forward`, which
`fit` calls by that global name), so the program itself is unchanged.
Spans are kept in memory as tuples and written out once, at the end.

A span is (id, parent id, name, phase, start, end, count).  `count` is
an exact amount of work read from the arguments (rows, elements), or 0.
A layer's self time is its span minus the time its wrapped child spans
cover; calls within one thread nest, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.phase = "setup"
        self._stack = []
        self._next_id = 0

    def _open(self, name, count, phase):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((span_id, parent, name, phase, count))
        return _clock()

    def _close(self, start):
        end = _clock()
        span_id, parent, name, phase, count = self._stack.pop()
        self.spans.append((span_id, parent, name, phase, start, end, count))

    def wrap(self, fn, name, count=None, phase=None):
        """Wrap `fn` so each call is a span.  `count(*args, **kwargs)`
        gives the span's work count; `phase` maps the current phase to
        the one the call's own spans carry."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.phase
            if phase is not None:
                self.phase = phase.get(outer, outer)
            amount = count(*args, **kwargs) if count is not None else 0
            start = self._open(name, amount, self.phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(start)
                self.phase = outer

        return traced

    def wrap_generator(self, fn, name):
        """Wrap a generator function so that each `next` is a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = self._open(name, 0, self.phase)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(start)
                yield item

        return traced

    def install(self, targets):
        """Wrap each (module, attribute, span name, options) target in place.
        An attribute the module no longer has is recorded as missing."""
        for module, attr, name, options in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            if options.get("generator"):
                setattr(module, attr, self.wrap_generator(fn, name))
            else:
                setattr(
                    module,
                    attr,
                    self.wrap(fn, name, options.get("count"), options.get("phase")),
                )

    def totals(self):
        """{(name, phase): [calls, inclusive s, self s, count]}."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for span_id, _, name, phase, start, end, count in self.spans:
            row = out[(name, phase)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[span_id]
            row[3] += count
        return dict(out)

    def write(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
