"""Tracing of snlab from outside the package.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper, at every module attribute that names it (so
``snlab.theorems.nullity`` and ``snlab.cli.gap_scan`` are traced as well as
``snlab.linalg.nullity``).  Each call is a span; spans are aggregated per
function name in memory, because a sweep makes millions of calls:

    calls    number of calls
    self_s   span time minus the time covered by nested spans
    total_s  span time including nested spans
    yields   items produced (generator functions only)
    cells    sum of n*n over calls (``linalg.rank_exact`` only)

For a generator function each ``next()`` is a span, so its self time is
the work done inside the generator, not the consumer's.

Worker processes forked by ``gap_scan`` inherit the wrappers.  After a
fork the child starts with empty aggregates, and the pool's task entry
point is wrapped so that a worker writes its cumulative aggregates to
``<worker_dir>/worker-<pid>.json`` after every chunk.  ``collect_workers``
adds them to the parent's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("generation", "balance", "linalg", "matching", "graphs", "theorems",
          "formats", "cli")

FIELDS = ("calls", "self_s", "total_s", "yields", "cells")
CALLS, SELF, TOTAL, YIELDS, CELLS = range(len(FIELDS))

# extra per-call counters derived from the arguments
ARG_COUNTERS: dict[str, Callable] = {
    "linalg.rank_exact": lambda args, kwargs: len(args[0]) ** 2,
}

# the pool's task entry point; wrapped only to ship worker aggregates home
WORKER_TASK = ("theorems", "_scan_chunk")


class Tracer:
    """Span aggregation with self-time accounting.

    ``stack`` holds, for every open span, the time covered so far by its
    finished child spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 worker_dir: Optional[Path] = None):
        self.clock = clock
        self.worker_dir = worker_dir
        self.stats: dict[str, list] = {}
        self.stack: list[float] = []
        self.pid = os.getpid()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def _close(self, stat: list, t0: float) -> None:
        dt = self.clock() - t0
        stat[SELF] += dt - self.stack.pop()
        stat[TOTAL] += dt
        if self.stack:
            self.stack[-1] += dt

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A traced stand-in for ``fn``, aggregated under ``name``."""
        stat = self._stat(name)
        counter = ARG_COUNTERS.get(name)
        clock, stack, close = self.clock, self.stack, self._close

        if inspect.isgeneratorfunction(fn):
            def span_next(it):
                try:
                    while True:
                        stack.append(0.0)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(stat, t0)
                        stat[YIELDS] += 1
                        yield item
                finally:
                    it.close()

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat[CALLS] += 1
                return span_next(fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[CALLS] += 1
            if counter is not None:
                stat[CELLS] += counter(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, t0)
        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layer modules of ``package``
        at every module attribute bound to it."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        self._hook_worker_task(getattr(package, WORKER_TASK[0]))
        os.register_at_fork(after_in_child=self._after_fork)

    def _hook_worker_task(self, mod) -> None:
        task = getattr(mod, WORKER_TASK[1], None)
        if task is None or self.worker_dir is None:
            return

        @functools.wraps(task)
        def flushing_task(*args, **kwargs):
            try:
                return task(*args, **kwargs)
            finally:
                if os.getpid() != self.pid:
                    self.write(self.worker_dir / f"worker-{os.getpid()}.json")
        setattr(mod, WORKER_TASK[1], flushing_task)

    def _after_fork(self) -> None:
        # the child must not report the parent's spans a second time
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0, 0]
        self.stack.clear()

    def write(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stats))
        os.replace(tmp, path)

    def collect_workers(self) -> int:
        """Add every worker's aggregates; returns the number of workers."""
        files = sorted(self.worker_dir.glob("worker-*.json")) if self.worker_dir else []
        for f in files:
            self.merge(json.loads(f.read_text()))
        return len(files)

    def merge(self, stats: dict[str, list]) -> None:
        for name, row in stats.items():
            mine = self._stat(name)
            for i, v in enumerate(row):
                mine[i] += v

    def totals(self) -> dict[str, dict[str, float]]:
        return {name: dict(zip(FIELDS, row)) for name, row in self.stats.items()}
