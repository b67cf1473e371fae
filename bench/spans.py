"""Span tracing of the package's layers, applied from outside the package.

``Tracer.patch`` replaces a function at the name through which its callers
look it up (a module global such as ``fcshmc.integrators.thomas_solve``, or
a method on a class) with a wrapper that records one span per call: its
name, start, end, parent span and the ordinal of the chain it ran in.
Spans are kept in one flat integer array and reduced once the run ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

_FIELDS = 5  # span id, name index, parent span id, start ns, end ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.chain_of: list[int] = []  # per span id: chain ordinal, -1 outside chains
        self.chain = -1
        self._stack = [-1]
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        clock, spans, stack, chain_of = time.perf_counter_ns, self.spans, self._stack, self.chain_of

        def traced(*args, **kwargs):
            sid = len(chain_of)
            chain_of.append(self.chain)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, index, parent, start, end))

        return traced

    def patch(self, owner, attr, name):
        """Trace calls of ``owner.attr``; ``restore`` undoes every patch."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = staticmethod(self.wrap(name, getattr(owner, attr)))
        else:
            new = self.wrap(name, raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def layers(self) -> dict:
        """Per span name: calls, total and self time (ns), and the set of
        chain ordinals it ran in.  Self time is the span's duration minus
        the durations of its direct children."""
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        sid, parent = rec[:, 0], rec[:, 2]
        dur = rec[:, 4] - rec[:, 3]
        child = np.zeros(len(self.chain_of), dtype=np.int64)  # indexed by span id
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        own = dur - child[sid]
        chain = np.asarray(self.chain_of, dtype=np.int64)[sid]
        out = {}
        for index, name in enumerate(self.names):
            mask = rec[:, 1] == index
            if not mask.any():
                continue
            out[name] = {
                "calls": int(mask.sum()),
                "total_ns": int(dur[mask].sum()),
                "self_ns": int(own[mask].sum()),
                "chains": set(np.unique(chain[mask]).tolist()) - {-1},
            }
        return out

