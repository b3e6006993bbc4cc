"""In-memory span tracer that wraps names at layer boundaries.

``Tracer.wrap(owner, attr, name)`` rebinds ``owner.attr`` (a module
attribute or a class attribute) to a wrapper that records one span per
call: name, start, end and the index of the enclosing span.  Spans stay
in memory until ``write`` dumps them.  A wrapped name that does not
exist raises at once, so a renamed or deleted entry point cannot make a
layer read as zero work.  ``restore`` puts every original back.

The tracer keeps one span stack and so assumes a single thread.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable

# hook(args, kwargs, result) -> dict of numbers recorded on the span, or None
Hook = Callable[[tuple, dict, object], "dict | None"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1]
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, hook: Hook | None, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        stack = self._stack
        idx = len(self.spans)
        span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
        self.spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if hook is not None:
            # hooks may call program code; keep it out of the trace
            self._paused = True
            try:
                extra = hook(args, kwargs, result)
            finally:
                self._paused = False
            if extra:
                self.attrs[idx] = extra
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        return self.call(self._name_id(name), fn, None, args, kwargs)

    # -- installation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook: Hook | None = None) -> None:
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"traced name {owner.__qualname__}.{attr} does not exist")
            raw = vars(owner)[attr]
        else:
            if not hasattr(owner, attr):
                raise AttributeError(f"traced name {owner.__name__}.{attr} does not exist")
            raw = getattr(owner, attr)
        if isinstance(raw, staticmethod):
            fn, rewrap = raw.__func__, staticmethod
        else:
            fn, rewrap = raw, None
        if not callable(fn):
            raise TypeError(f"traced name {attr} is not callable")
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(nid, fn, hook, args, kwargs)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path, **extra) -> None:
        payload = dict(
            extra,
            names=self.names,
            spans=self.spans,
            attrs={str(k): v for k, v in self.attrs.items()},
        )
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
