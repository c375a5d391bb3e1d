"""In-memory spans around calls into the package's modules.

A :class:`Tracer` replaces module attributes (``lexsel.selectors.
sample_importance``, ``lexsel.evolve.umad_mutate``, methods such as
``RandomSource.generator``) with wrappers that record one span per call:
a name, a start, an end and the index of the enclosing span.  The
package itself is not edited; only callers that look the attribute up at
call time, which is how the package's modules call each other, are seen.

A span's self time is its duration minus the time its direct children
cover.  Spans never overlap their siblings, because the program runs on
one thread, so that cover is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import time

NAME, START, END, PARENT = range(4)


class Tracer:
    """Records nested spans; ``install`` wraps attributes, ``restore``
    puts the originals back."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block as one span; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, targets):
        """Wrap ``getattr(owner, attr)`` for each ``(owner, attr, name)``.

        The same function reached through several owners (a module and
        the modules that import it by name) shares one span name.  A
        target the owner no longer has is skipped and listed in
        ``missing``; its spans then read as zero.
        """
        for owner, attr, name in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span, in the spans' clock units."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def descendants(spans, root):
    """Indices of the spans nested under ``root`` (spans are recorded in
    start order, so they follow it contiguously)."""
    out = []
    inside = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx][PARENT] not in inside:
            break
        inside.add(idx)
        out.append(idx)
    return out
