"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a function by a recording wrapper in the module that
calls it: wrapping ``lipsam.pnp.stft`` times the STFTs the solver runs,
while ``lipsam.trainer.stft`` stays untouched unless it is wrapped too.
Wrappers go in with ``install`` and come out with ``remove``, so traced and
untraced ops can alternate in one process.  Nothing is written while ops
run; ``dump`` writes the spans once the run has ended.
"""

import collections
import functools
import json
import time


class Tracer:
    """Spans and call counts around chosen module attributes.

    ``names`` maps every span and count name, in the order they were
    registered, to whether it is timed.  A span is ``[name, start, end,
    parent, op]``: ``parent`` is the index of the enclosing span in
    ``spans`` (-1 at the top of an op) and ``op`` is the number passed to
    ``install`` for the op that was running.  A span's self time is its
    duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.names = {}
        self.missing = []
        self.op = -1
        self._stack = []
        self._patches = []

    def span(self, owner, attribute, name):
        """Record a span named ``name`` around every call of ``owner.attribute``."""
        self._patch(owner, attribute, name, timed=True)

    def count(self, owner, attribute, name):
        """Count the calls of ``owner.attribute`` under ``name`` without timing them."""
        self._patch(owner, attribute, name, timed=False)

    def _patch(self, owner, attribute, name, timed):
        self.names[name] = timed
        original = getattr(owner, attribute, None)
        if original is None:
            # a later version of the program may no longer call this name;
            # its span then reads zero and the trace file lists it
            self.missing.append(f"{owner.__name__}.{attribute}")
            return
        make = self._timed if timed else self._counted
        wrapper = functools.wraps(original)(make(original, name))
        self._patches.append((owner, attribute, original, wrapper))

    def _timed(self, original, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counted(self, original, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.op, name] += 1
            return original(*args, **kwargs)

        return wrapper

    def install(self, op):
        self.op = op
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def remove(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
        self.op = -1

    def per_op(self):
        """``{op: {"calls": Counter, "self_s": Counter, "top_s": float}}``.

        ``top_s`` is the summed duration of the op's outermost spans, the
        part of the op that some span covers.
        """
        child_s = collections.Counter()
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        ops = collections.defaultdict(
            lambda: {"calls": collections.Counter(), "self_s": collections.Counter(), "top_s": 0.0}
        )
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            entry = ops[op]
            entry["calls"][name] += 1
            entry["self_s"][name] += (end - start) - child_s[index]
            if parent < 0:
                entry["top_s"] += end - start
        for (op, name), calls in self.counts.items():
            ops[op]["calls"][name] += calls
        return dict(ops)

    def dump(self, path, header):
        """Write ``header`` and every span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = dict(header)
        document["unwrapped"] = self.missing
        document["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        document["spans"] = [
            [name, round(start - origin, 9), round(end - origin, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
