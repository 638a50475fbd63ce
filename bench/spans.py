"""Spans recorded by the benchmark around each op and each call it makes
into a ``tropab`` layer.

A span is (name, start, end, parent, op id, error, attrs); start and
end are read from ``clock``.  Spans stay
in memory and are written out when the run ends.  Spans inside the
package itself are not recorded; a layer's time is the time of the
benchmark's direct calls into it.
"""

import json
import resource
import time


def clock():
    """CPU seconds used so far by this process and by the children it
    has waited for.  Op latencies and spans are read from this clock,
    not from the wall clock: on a shared virtual machine the wall clock
    also runs while the hypervisor gives the vCPU to another guest
    (steal time), which the CPU clocks leave out."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Untraced:
    """Calls straight through; the end-to-end runs use this."""

    def op(self, op_id, fn, *args):
        return fn(*args)

    def call(self, name, fn, *args, attrs=None):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None

    def op(self, op_id, fn, *args):
        self._op = op_id
        return self._span("op", fn, args, None)

    def call(self, name, fn, *args, attrs=None):
        return self._span(name, fn, args, attrs)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, name, fn, args, attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        err = None
        start = clock()
        try:
            return fn(*args)
        except BaseException as e:     # an op timeout too
            err = type(e).__name__
            raise
        finally:
            end = clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op, err,
                               attrs)

    def self_times(self):
        """Per span: its duration minus the time its children cover.
        Children of one span never overlap (calls are sequential)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def by_name(self):
        """name -> list of (self_time, error, attrs)."""
        out = {}
        for s, st in zip(self.spans, self.self_times()):
            out.setdefault(s[0], []).append((st, s[5], s[6]))
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, err, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op_id, "error": err,
                                     "attrs": attrs}) + "\n")
