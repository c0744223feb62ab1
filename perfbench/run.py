"""snlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; snlab is imported from ``src``.
Workloads are batch jobs with one closed-loop caller; see README.md.

``--trace 0`` runs the timed operation, each time in a fresh process,
while the next one is expected to end within ``--seconds`` (at least
once), times set-up in fresh processes before and after, and reports the
end-to-end metrics.  The host's speed varies in bursts, and a burst only
ever adds time, so a timing is taken from the fastest repetition of each
timed unit: the whole operation for a batch workload, one record for
``records48``.  ``wall_s`` sums the units' fastest times.  Timings are
then scaled to the host's full speed (see ``REFERENCE_S``).

``--trace 1`` runs the operation untraced and traced in turn, five times
each, and reports the per-layer metrics of the fastest traced operation
and the tracing overhead.

Every operation's output is checked.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata.  The exit code
is 0 when every check passed, 1 when one failed and 2 when the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome  # noqa: E402

SETUP_RUNS = 12
# The host's speed varies by up to 85 % for minutes at a time, longer than
# a run, so the end-to-end timings are scaled to its full speed.  Before
# every operation the benchmark times a fixed pure-Python loop, repeated so
# that one sample lasts about as long as one timed unit of the workload
# (``Workload.reference``), and scales by the loop's time at full speed
# over its fastest sample of the run.  REFERENCE_S is the time of one
# ``reference_loop`` at full speed: about its fastest on the 2-core Xeon the
# benchmark was defined on.
REFERENCE_S = 1.1e-3
# untraced/traced operation pairs of a traced run
TRACE_PAIRS = 5
# a run must end within 180 s; children get what is left of this
RUN_LIMIT_S = 170
STARTED = time.monotonic()


class ChildFailed(Exception):
    pass


def run_child(name: str, workdir: Path, mode: str, tag: str) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result."""
    result_path = workdir / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # own session, so a timeout can stop the pool workers too
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), name, str(workdir),
         str(result_path), mode],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    except BaseException:  # timeout or termination: stop the whole session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def run_op(wl, workdir: Path, mode: str, tag: str) -> tuple[dict, Outcome]:
    """One timed operation in a fresh process, with its output checked."""
    try:
        result = run_child(wl.name, workdir, mode, tag)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        outcome = wl.check(workdir, {"rc": None})
        outcome.fail(outcome.attempted, str(exc))
        wl.cleanup(workdir)
        return {"wall_s": None}, outcome
    outcome = wl.check(workdir, result)
    outcome.bytes_written = _output_bytes(wl, workdir)
    wl.cleanup(workdir)
    return result, outcome


def _output_bytes(wl, workdir: Path) -> int:
    out = wl.output(workdir)
    return out.stat().st_size if out is not None and out.exists() else 0


def reference_loop() -> int:
    """Fixed pure-Python work whose time tracks the host's speed."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def sample_host(samples: list[float], reps: int, count: int) -> None:
    for _ in range(count):
        t = time.perf_counter()
        for _ in range(reps):
            reference_loop()
        samples.append(time.perf_counter() - t)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (exclusive method); a lone sample is its own."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


# ---------------------------------------------------------------------------
# end-to-end metrics

def measure(wl, workdir: Path, seconds: float) -> tuple[dict, list[Outcome], dict]:
    refs: list[float] = []

    def sample_setups(first: int) -> list[float]:
        return [run_child(wl.name, workdir, "setup", f"setup{i}")["setup_s"]
                for i in range(first, first + SETUP_RUNS // 2)]

    # half the set-up samples before the operations and half after, so that
    # they span the run as the operations do
    setups = sample_setups(0)
    ops: list[tuple[dict, Outcome]] = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        sample_host(refs, *wl.reference)
        ops.append(run_op(wl, workdir, "op", f"op{len(ops)}"))
        last = time.perf_counter() - t
        if ops[-1][1].failed or time.perf_counter() - started + last > seconds:
            break
    setups += sample_setups(SETUP_RUNS // 2)
    timed = [(r, o) for r, o in ops if r["wall_s"]]
    if not timed:
        return {}, [o for _, o in ops], {"setup_samples": len(setups)}
    # every operation process sets up too
    setups += [r["setup_s"] for r, _ in timed]
    walls = [r["wall_s"] for r, _ in timed]
    if "latencies_ms" in timed[0][0]:
        # the same records in every operation: each record's fastest latency
        latencies = [min(x) for x in zip(*(r["latencies_ms"] for r, _ in timed))]
    else:
        # a batch returns every result at once, when the operation ends
        latencies = [min(walls) * 1e3]
    # to the host's full speed
    scale = wl.reference[0] * REFERENCE_S / min(refs)
    latencies = [x * scale for x in latencies]
    wall = sum(latencies) / 1e3
    out = timed[0][1]
    med = statistics.median
    metrics = {
        "setup_s": (med(setups) * scale, "s"),
        "wall_s": (wall, "s"),
        "classes_per_s": (out.classes / wall, "1/s"),
        "graphs_per_s": (out.graphs / wall, "1/s"),
        "records_per_s": (out.attempted / wall, "1/s"),
        "record_p50_ms": (percentile(latencies, 50), "ms"),
        "record_p99_ms": (percentile(latencies, 99), "ms"),
        "peak_rss_mb": (med(r["maxrss_kb"] / 1024 for r, _ in timed), "MB"),
    }
    info = {"setup_samples": len(setups), "operations": len(ops),
            "latency_samples": len(latencies), "op_wall_s": walls,
            "setup_s_samples": setups, "reference_min_s": min(refs),
            "scale": scale}
    return metrics, [o for _, o in ops], info


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(trace: dict, result: dict, outcome: Outcome, workers: int,
                  untraced_wall: float) -> dict:
    def get(name: str, field: str) -> float:
        return trace.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    classes = (get("generation.enumerate_signatures", "yields")
               + get("theorems.invariant_record", "calls"))
    scan_wall = get("theorems.gap_scan", "total_s")
    worker_cpu = result["children_cpu_s"] if workers > 1 else 0.0
    cli_wall = get("cli.main", "total_s")
    m = {}
    for name, field, unit in (
            ("generation.canonical_form", "calls", "count"),
            ("generation.canonical_permutation", "self_s", "s"),
            ("generation.enumerate_signatures", "self_s", "s"),
            ("generation.enumerate_signatures", "yields", "count"),
            ("balance.is_balanced", "calls", "count"),
            ("balance.is_balanced", "self_s", "s"),
            ("balance.switch", "self_s", "s"),
            ("balance.cycle_sign", "calls", "count"),
            ("balance.cycle_sign", "self_s", "s"),
            ("linalg.rank_exact", "calls", "count"),
            ("linalg.rank_exact", "self_s", "s"),
            ("linalg.rank_exact", "cells", "count"),
            ("linalg.signed_adjacency", "self_s", "s"),
            ("matching.matching_number", "calls", "count"),
            ("matching.matching_number", "self_s", "s"),
            ("graphs.cycles_pairwise_vertex_disjoint", "self_s", "s"),
            ("graphs.contract_cycles", "self_s", "s"),
            ("graphs.cycle_space_dim", "calls", "count"),
            ("theorems.gap_scan", "self_s", "s"),
            ("theorems.invariant_record", "self_s", "s"),
            ("theorems.attains_upper", "self_s", "s"),
            ("theorems.classify_unicyclic", "self_s", "s"),
            ("formats.graph6_encode", "calls", "count"),
            ("formats.graph6_encode", "self_s", "s"),
            ("formats.read_graph6", "self_s", "s"),
            ("formats.sgl_loads", "self_s", "s")):
        m[f"{name}.{field}"] = (get(name, field), unit)
    m["generation.catalog.useful_ratio"] = (ratio(
        get("generation.enumerate_connected", "yields"),
        get("generation.canonical_form", "calls")), "ratio")
    m["balance.spanning_forest.calls_per_class"] = (ratio(
        get("balance.spanning_forest", "calls"), classes), "count")
    m["theorems.gap_scan.worker_cpu_s"] = (worker_cpu, "s")
    m["theorems.gap_scan.worker_util"] = (ratio(worker_cpu, workers * scan_wall), "ratio")
    m["cli.serialize_s"] = (cli_wall - scan_wall if cli_wall else 0.0, "s")
    m["cli.bytes_written"] = (outcome.bytes_written, "count")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (sum(
            row["self_s"] for name, row in trace.items()
            if name.startswith(layer + ".")), "s")
    m["trace.calls"] = (sum(row["calls"] for row in trace.values()), "count")
    m["trace.wall_s"] = (result["wall_s"], "s")
    m["trace.overhead_s"] = (result["wall_s"] - untraced_wall, "s")
    return m


def measure_traced(wl, workdir: Path) -> tuple[dict, list[Outcome], dict]:
    # alternate untraced and traced operations and keep the fastest of each,
    # so that a slow spell of the host does not pass for tracing overhead
    plain, traced, outcomes = [], [], []
    for i in range(TRACE_PAIRS):
        p, p_out = run_op(wl, workdir, "op", f"untraced{i}")
        t, t_out = run_op(wl, workdir, "traced", f"traced{i}")
        outcomes += [p_out, t_out]
        if p_out.digest != t_out.digest:
            t_out.fail(t_out.attempted, "traced output differs from untraced")
        if p["wall_s"] is None or t["wall_s"] is None:
            return {}, outcomes, {}
        plain.append(p["wall_s"])
        traced.append((t, t_out))
    best, best_out = min(traced, key=lambda to: to[0]["wall_s"])
    metrics = layer_metrics(best["trace"], best, best_out, wl.workers, min(plain))
    info = {"untraced_wall_s": plain, "traced_wall_s": [t["wall_s"] for t, _ in traced],
            "trace_workers": best["trace_workers"],
            "output_sha256": best_out.digest}
    return metrics, outcomes, info


# ---------------------------------------------------------------------------
# run metadata

def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        ram = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "ram_mb": ram // 2**20 if ram else None,
            "python": platform.python_version(), "platform": platform.platform()}


def source_info() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "snlab" / "__init__.py").is_file():
        print(f"error: no snlab sources under {SRC}", file=sys.stderr)
        return 2
    # so that the work directory and the children are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl.prepare(workdir, args.seed)
        # untimed: compiles bytecode and warms the file cache
        run_child(wl.name, workdir, "setup", "warmup")
        if args.trace:
            metrics, outcomes, info = measure_traced(wl, workdir)
        else:
            metrics, outcomes, info = measure(wl, workdir, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    correct = failed == 0 and bool(metrics)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": wl.workers,
            **machine_info(), **source_info(), **info}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
