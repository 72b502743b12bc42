"""In-memory spans recorded around calls into the public `modunits` API."""

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records one span per call: (id, parent id, name, item id, start, end).

    Spans stay in memory; the caller writes them out when the run ends.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, item: str | None = None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, item, start, end))


class NullTracer:
    """Stand-in for untraced passes: spans cost one no-op context."""

    spans: tuple = ()

    def span(self, name: str, item: str | None = None):
        return nullcontext()
