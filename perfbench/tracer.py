"""Spans recorded from outside the program, around each layer's entry points.

:class:`Tracer` replaces a public function or method with a wrapper
*where its caller resolves it* (a module global, a class attribute or an
instance attribute), records one span per call — name, start, end,
parent span and run id — in compact in-memory arrays, and puts every
original back on :meth:`Tracer.uninstall`.  A layer's self time is its
spans' duration minus the part their child spans cover.

Only calls made on the installing thread become spans or counts, so the
nesting stays a single stack and counts repeat from run to run; calls
from other threads (lease heartbeats) are left out unless a counter asks
for them, and forked worker processes record into their own copy.
"""

from __future__ import annotations

import array
import inspect
import threading
import time
import types
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Measure = Callable[[tuple, Any], float]


class Tracer:
    def __init__(
        self, run_id: int = 0, clock: Callable[[], float] = time.perf_counter
    ):
        self.run_id = run_id
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("q")
        #: counts kept beside the spans (bytes moved, coalesced inserts)
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._thread = threading.get_ident()
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        counter: Optional[str] = None,
        measure: Optional[Measure] = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``measure(args, result)``
        is added to ``counts[counter]`` after each call."""
        nid = self._name_id(name)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        stack, counts, thread = self._stack, self.counts, self._thread
        clock, ident = self._clock, threading.get_ident

        def traced(*args, **kwargs):
            if ident() != thread:
                return fn(*args, **kwargs)
            index = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if measure is not None:
                counts[counter] += measure(args, result)
            return result

        return traced

    def counted(
        self,
        counter: str,
        fn: Callable,
        *,
        measure: Optional[Measure] = None,
        any_thread: bool = False,
    ) -> Callable:
        """``fn`` adding ``measure(args, result)`` (default 1) to
        ``counts[counter]`` per call, without spans.

        Only calls on the installing thread count, unless ``any_thread``.
        """
        counts, thread, ident = self.counts, self._thread, threading.get_ident

        def count(*args, **kwargs):
            result = fn(*args, **kwargs)
            if any_thread or ident() == thread:
                counts[counter] += (
                    1 if measure is None else measure(args, result)
                )
            return result

        return count

    # -- installing ------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, **wrap_args) -> None:
        """Record spans named ``name`` for ``owner.attr``."""
        self.replace(
            owner, attr, lambda fn: self.wrap(name, fn, **wrap_args)
        )

    def patch_count(
        self, owner: Any, attr: str, counter: str, **count_args
    ) -> None:
        """Count calls of ``owner.attr`` (see :meth:`counted`), no spans."""
        self.replace(
            owner, attr, lambda fn: self.counted(counter, fn, **count_args)
        )

    def replace(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Set ``owner.attr`` to ``make(current)`` until :meth:`uninstall`."""
        is_type = isinstance(owner, (type, types.ModuleType))
        own = vars(owner)
        had = attr in own
        original = own[attr] if had else None
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            replacement: Any = type(static)(make(static.__func__))
        else:
            replacement = make(getattr(owner, attr))
        if is_type:
            setattr(owner, attr, replacement)
        else:  # an instance, possibly of a frozen dataclass
            own[attr] = replacement
        self._undo.append((owner, attr, had, original))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if isinstance(owner, (type, types.ModuleType)):
                if had:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            elif had:
                vars(owner)[attr] = original
            else:
                del vars(owner)[attr]

    # -- reading ---------------------------------------------------------
    def layer_times(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        count = len(self.start)
        if not count:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64, count=count)
        end = np.frombuffer(self.end, dtype=np.float64, count=count)
        names = np.frombuffer(self.name, dtype=np.int32, count=count)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=count)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=count
        )
        own = duration - covered
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        seconds = np.bincount(names, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(seconds[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span as columns of one ``.npz`` file."""
        count = len(self.start)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32, count=count),
            start=np.frombuffer(self.start, dtype=np.float64, count=count),
            end=np.frombuffer(self.end, dtype=np.float64, count=count),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=count),
            run=np.full(count, self.run_id, dtype=np.int32),
        )
