"""In-memory span recording around calls into the system's layers.

The system has no tracing of its own yet, so the benchmark wraps the
entry points of each layer from outside: ``Tracer.patch`` replaces an
attribute (of an instance, a class or a module) with a wrapper that
records one span per call, and ``Tracer.unpatch`` puts every original
back. Spans stay in memory until the run ends.

A span is the list ``[name, start, end, parent, op, folded, tid]``
(field indices in :mod:`stats`): ``parent`` is the enclosing span's
record, ``op`` the benchmark op all of one op's spans share. Calls
patched with ``fold=True`` are the per-warp hot paths (a pass makes
tens of thousands): when such a call has no children it is added to
its parent's ``folded`` totals (name -> [count, seconds]) instead of
being recorded, which keeps a traced pass within a few percent of an
untraced one and the trace file readable."""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

from stats import END, FOLDED, NAME, OP, PARENT, START, TID


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: Open spans other threads may adopt as parent, by key (the
        #: serve workload: a client's request span, keyed by tenant,
        #: parents what the server's handler thread does for it).
        self._published: Dict[object, list] = {}

    # -- the op a thread is working on ----------------------------------

    def set_op(self, op: object) -> None:
        """Root spans this thread records from now on belong to ``op``."""
        self._local.op = op

    def current_op(self) -> object:
        """The op of the innermost open span on this thread, else the
        op :meth:`set_op` named."""
        stack = self._stack()
        return stack[-1][OP] if stack else getattr(self._local, "op", None)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.tid = threading.get_ident()
            return self._local.stack

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        function: Callable,
        name: str,
        fold: bool = False,
        publish: Optional[object] = None,
        adopt: Optional[object] = None,
    ) -> Callable:
        """``function`` with a span around every call. ``publish``
        offers the open span to other threads under that key;
        ``adopt`` parents a call that has no enclosing span on its own
        thread to the span published under that key."""
        spans = self.spans
        local = self._local
        stack_of = self._stack
        published = self._published

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
                op = parent[OP]
            else:
                parent = published.get(adopt) if adopt is not None else None
                op = (
                    parent[OP] if parent is not None
                    else getattr(local, "op", None)
                )
            span = [name, 0.0, 0.0, parent, op, None, local.tid]
            stack.append(span)
            if publish is not None:
                published[publish] = span
            span[START] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if publish is not None:
                    published.pop(publish, None)
                if fold and parent is not None and span[FOLDED] is None:
                    folded = parent[FOLDED]
                    if folded is None:
                        folded = parent[FOLDED] = {}
                    entry = folded.get(name)
                    if entry is None:
                        folded[name] = [1, span[END] - span[START]]
                    else:
                        entry[0] += 1
                        entry[1] += span[END] - span[START]
                else:
                    if parent is not None and parent[FOLDED] is None:
                        # A span with recorded children is never
                        # folded itself: mark it by giving it totals.
                        parent[FOLDED] = {}
                    spans.append(span)

        traced.__wrapped__ = function
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attribute: str, name: str, **options):
        """Replace ``owner.attribute`` with its traced wrapper."""
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, had_own))
        setattr(owner, attribute, self.wrap(original, name, **options))
        return original

    def replace(self, owner: object, attribute: str, replacement) -> None:
        """Replace ``owner.attribute`` with ``replacement`` (a wrapper
        the caller built), restored by :meth:`unpatch` like a patch."""
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, had_own))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        for owner, attribute, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches = []

    # -- export ------------------------------------------------------------

    def chrome_trace(self, process_name: str) -> dict:
        """The spans as Chrome-trace JSON (``chrome://tracing``,
        Perfetto): complete events in microseconds since the first
        span; ``args`` carry the op and the folded-call totals."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[START] for span in self.spans)
        identifiers = {id(span): index for index, span in enumerate(self.spans)}
        events = [{
            "ph": "M", "name": "process_name", "pid": 1,
            "args": {"name": process_name},
        }]
        for index, span in enumerate(self.spans):
            arguments = {"id": index, "op": span[OP]}
            if span[PARENT] is not None:
                arguments["parent"] = identifiers.get(id(span[PARENT]))
            if span[FOLDED]:
                arguments["folded"] = {
                    name: {"calls": count, "ms": round(1e3 * seconds, 4)}
                    for name, (count, seconds) in span[FOLDED].items()
                }
            events.append({
                "ph": "X", "pid": 1, "tid": span[TID], "name": span[NAME],
                "ts": round(1e6 * (span[START] - origin), 1),
                "dur": round(1e6 * (span[END] - span[START]), 1),
                "args": arguments,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
