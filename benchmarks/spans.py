"""In-memory spans recorded around the public functions of cayleycodes.

The wrappers are installed from outside the package: each target is
replaced at its module attribute (and at every other cayleycodes module
that imported it by name) or at its class attribute, and the wrapper
calls the original unchanged.  Nothing under src/ is edited.

A span records its name, start, end, parent span, the process's peak
RSS before and after, and optional counts taken from the call's
arguments and result.  Spans stay in memory and are dumped as JSON when
the traced command ends.
"""

from __future__ import annotations

import functools
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent, rss0, rss1, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrapper(self, name, func, counts=None):
        """A function that records one span per call of func."""
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, peak_rss_mb(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                rec[5] = peak_rss_mb()
            if counts is not None:
                rec[6] = counts(result, *args, **kwargs)
            return result

        return traced

    def wrap_function(self, module, attr, name, counts=None):
        """Replace module.attr, and every cayleycodes module attribute
        bound to the same object, by a tracing wrapper."""
        original = getattr(module, attr)
        traced = self.wrapper(name, original, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("cayleycodes"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr, name, counts=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            traced = classmethod(self.wrapper(name, original.__func__, counts))
        else:
            traced = self.wrapper(name, original, counts)
        setattr(cls, attr, traced)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "rss0": r0, "rss1": r1, "counts": c}
                for n, s, e, p, r0, r1, c in self.spans]


# ---------------------------------------------------------------------------
# Analysis of a dumped span list
# ---------------------------------------------------------------------------

def child_time(spans: list[dict]) -> list[float]:
    """Per span, the summed duration of its direct children.  The
    wrappers run synchronously in one thread, so a span's children are
    sequential and lie inside it."""
    out = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            out[sp["parent"]] += sp["end"] - sp["start"]
    return out


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its direct children take."""
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child_time(spans))]


def coverage(spans: list[dict], root: int) -> float:
    """Share of span `root`'s duration spent in its direct children."""
    dur = spans[root]["end"] - spans[root]["start"]
    return child_time(spans)[root] / dur if dur > 0 else 1.0
