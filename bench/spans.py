"""In-memory spans and counters recorded around the package's public calls.

The tracer patches a function where callers look it up (a module attribute,
or a method on a class) and restores the original afterwards. Each call
records a span (name, start, end, parent) and bumps a call counter. A
layer's self time is the duration of its spans minus the time their direct
child spans cover; since calls nest, self times of a tree add up to the
root's duration.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def patch(self, owner, attr: str, make) -> bool:
        """Replace owner.attr by make(original); False if owner lacks attr."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def wrap(self, owner, attr: str, layer: str, span: bool = True) -> None:
        """Count every call of owner.attr under `layer`, and time it as a span
        unless span=False. A missing attribute is recorded as absent."""
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[layer] += 1
                if not span:
                    return fn(*args, **kwargs)
                with self.span(layer):
                    return fn(*args, **kwargs)
            return counted
        if not self.patch(owner, attr, make):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - children[i]
        return dict(totals)

    def total_time(self, name: str) -> float:
        """Summed duration of the outermost spans with this name."""
        total = 0.0
        for name_i, start, end, parent in self.spans:
            if name_i == name and not self._has_ancestor(parent, name):
                total += end - start
        return total

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
