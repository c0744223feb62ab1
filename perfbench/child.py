"""One fresh process: set up a workload, optionally run its timed operation.

    python3 perfbench/child.py WORKLOAD WORKDIR RESULT_JSON {setup|op|traced}

``setup`` times importing snlab plus loading the inputs and stops there.
``op`` also runs the timed operation once.  ``traced`` does the same as
``op`` with every public snlab function wrapped from the start of input
loading, and adds the span aggregates to the result.  The result is
written as JSON to RESULT_JSON.  Every operation gets its own process, so
no cache of an earlier operation (such as the catalog's) is ever warm.
"""

import resource
import sys
import time

t0 = time.perf_counter()
import snlab  # noqa: E402
import snlab.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main(name: str, workdir: str, result_path: str, mode: str) -> None:
    wl = WORKLOADS[name]
    workdir = Path(workdir)
    tracer = None
    if mode == "traced":
        trace_dir = workdir / "trace"
        trace_dir.mkdir(exist_ok=True)
        tracer = Tracer(worker_dir=trace_dir)
        tracer.install(snlab)
    t1 = time.perf_counter()
    state = wl.setup(snlab, workdir)
    result = {"setup_s": import_s + time.perf_counter() - t1}
    if mode != "setup":
        cpu0 = _children_cpu_s()
        wl.run(snlab, state, workdir, result)
        result["children_cpu_s"] = _children_cpu_s() - cpu0
        result["maxrss_kb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        result["trace_workers"] = tracer.collect_workers()
        result["trace"] = tracer.totals()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
