"""In-memory span tracer that times library functions from the outside.

The tracer swaps a timing wrapper in for each named function wherever the
library binds it (module globals and class attributes), so no file under
`src/` changes. Spans live in flat arrays while the run goes on: name id,
parent span, start and end. `restore()` puts every original object back, so
an untraced call never meets a wrapper.
"""

from __future__ import annotations

import array
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

# (calls, self seconds, inclusive seconds) of one span name.
LayerTotals = Tuple[int, float, float]
Observer = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Observer] = None) -> Callable:
        """A stand-in for `fn` that records one span per call."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, clock = self._stack, self._clock

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Iterable[Tuple[str, Callable, Iterable[object]]],
                observers: Optional[Dict[str, Observer]] = None) -> None:
        """Patch each `(span name, original, owners)`: every attribute of an
        owner (module or class) that is the original object gets the wrapper."""
        observers = observers or {}
        for name, original, owners in targets:
            wrapper = self.wrap(original, name, observers.get(name))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back; raise if one did not take."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> Dict[str, LayerTotals]:
        """Per span name: calls, self time and inclusive time.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        n_names = len(self.names)
        if not self.starts:
            return {name: (0, 0.0, 0.0) for name in self.names}
        nid = np.frombuffer(self.name_ids, dtype=np.int32)
        parent = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - \
            np.frombuffer(self.starts, dtype=np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=own, minlength=n_names)
        incl_s = np.bincount(nid, weights=dur, minlength=n_names)
        return {name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write every span to an `.npz` file (called once, at exit)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_ids, dtype=np.int32),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 start=np.frombuffer(self.starts, dtype=np.float64),
                 end=np.frombuffer(self.ends, dtype=np.float64))
