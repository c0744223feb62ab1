"""The three workloads: their inputs, the timed operation, and its checks.

Each workload has three halves that run in different processes:

- ``prepare`` (benchmark process) writes the inputs into a work directory;
- ``setup`` and ``run`` (a fresh child process per operation) load the
  inputs through snlab's own readers and perform the timed operation,
  writing what it produced into the work directory;
- ``check`` (benchmark process) compares that output with what the seed
  commit produced and with the laws themselves, and counts failed
  operations.  An operation is a signature class (sweeps) or a record
  (records48).

Each timed operation is short (0.3-2 s), so that one run repeats it many
times; see ``run.py`` for how the repetitions are summarized.

Only ``records48`` depends on the seed; the other inputs are fixed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
CATALOG6_G6 = HERE / "data" / "catalog6.g6"

# ``verify --n-max 6``: every connected graph on n <= 6 vertices and every
# switching class of each.
SWEEP_GRAPHS = 143
SWEEP_CLASSES = 4532
# Digests of the outputs at the seed commit (6ea3823).  The emit-all digest
# is the same for 1 and 2 workers.
SWEEP_REPORT_SHA256 = "3a0b7bc3a166d660c2193fb983dac9bcb2abc2c1547895ea8785ff2b8a31f66e"
SWEEP_JSONL_SHA256 = "1547b9d4b171f07c7484df770c16c74eaf3a9917f37aa8e60ef2a39b7d91a2f4"

RECORDS_N = (12, 48)
RECORDS_C = (0, 6)
# each of the 37 x 7 (n, c) pairs four times
RECORDS_COUNT = 4 * 37 * 7
DEFAULT_SEED = 1


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Outcome:
    """What one operation's output check found."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # units of work the operation did, for the throughput metrics
    classes: int = 0
    graphs: int = 0
    digest: str = ""
    bytes_written: int = 0

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.problems) < 20:
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# records48 input generator

def make_records(seed: int, count: int = RECORDS_COUNT
                 ) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
    """``count`` random connected signed graphs as ``(n, c, signed edges)``.

    The sizes are fixed: the ``(n, c)`` pairs of the ranges in turn, so each
    occurs equally often when ``count`` is a multiple of their number.  The
    seed shuffles their order and draws the graphs.  A random labelled tree
    on n vertices plus c distinct extra edges gives a connected graph with
    cycle-space dimension exactly c; every edge gets an independent random
    sign.  Same seed, same graphs.
    """
    rng = random.Random(seed)
    sizes = [(n, c) for n in range(RECORDS_N[0], RECORDS_N[1] + 1)
             for c in range(RECORDS_C[0], RECORDS_C[1] + 1)]
    sizes = (sizes * (count // len(sizes) + 1))[:count]
    rng.shuffle(sizes)
    out = []
    for n, c in sizes:
        label = list(range(n))
        rng.shuffle(label)
        edges = set()
        for i in range(1, n):
            u, v = label[i], label[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        while len(edges) < n - 1 + c:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        out.append((n, c, [(u, v, rng.choice((1, -1))) for u, v in sorted(edges)]))
    return out


def sgl_text(records) -> str:
    """The .sgl serialization of ``make_records`` output."""
    blocks = []
    for n, _, edges in records:
        lines = [str(n)] + [f"{u} {v} {'+' if s == 1 else '-'}" for u, v, s in edges]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    workers = 1
    # host-speed reference before each operation (see run.py): loops per
    # sample, about one timed unit long, and samples
    reference = (300, 1)

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the inputs (benchmark process, untimed)."""

    def setup(self, snlab, workdir: Path):
        """Load the inputs through snlab's readers (child, timed as set-up)."""
        return None

    def run(self, snlab, state, workdir: Path, result: dict) -> None:
        """The timed operation (child).  Fills ``result["wall_s"]``."""
        raise NotImplementedError

    def check(self, workdir: Path, result: dict) -> Outcome:
        """Check the operation's output (benchmark process)."""
        raise NotImplementedError

    def output(self, workdir: Path) -> Optional[Path]:
        """The file the program itself writes, if any."""
        return None

    def cleanup(self, workdir: Path) -> None:
        """Remove one operation's output before the next."""


class Sweep(Workload):
    """``snlab verify --n-max 6`` in report mode over the internal catalog."""

    name = "sweep6"
    expected_sha256 = SWEEP_REPORT_SHA256

    def argv(self, workdir: Path) -> list[str]:
        return ["verify", "--n-max", "6", "--out", str(workdir / "report.json")]

    def run(self, snlab, state, workdir, result):
        t0 = time.perf_counter()
        result["rc"] = snlab.cli.main(self.argv(workdir))
        result["wall_s"] = time.perf_counter() - t0

    def output(self, workdir: Path) -> Path:
        return workdir / "report.json"

    def check(self, workdir, result):
        out = Outcome(attempted=SWEEP_CLASSES)
        path = self.output(workdir)
        if result.get("rc") != 0 or not path.exists():
            out.fail(out.attempted, f"verify exited {result.get('rc')}")
            return out
        out.digest = sha256_file(path)
        report = json.loads(path.read_text())
        totals = report["totals"]
        out.classes, out.graphs = totals["signatures"], totals["graphs"]
        bad = report["violations"] + report["upper_check"]["disagreements"]
        if bad:
            out.fail(len(bad), f"{len(bad)} violations or disagreements")
        if (out.graphs, out.classes) != (SWEEP_GRAPHS, SWEEP_CLASSES):
            out.fail(out.attempted, f"totals {out.graphs}/{out.classes}")
        if out.digest != self.expected_sha256:
            out.fail(out.attempted, f"report sha256 {out.digest}")
        return out

    def cleanup(self, workdir):
        self.output(workdir).unlink(missing_ok=True)


class SweepEmitW2(Sweep):
    """The same campaign from a graph6 file, 2 workers, one line per class."""

    name = "sweep6_emit_w2"
    workers = 2
    expected_sha256 = SWEEP_JSONL_SHA256

    def prepare(self, workdir, seed):
        shutil.copyfile(CATALOG6_G6, workdir / "catalog6.g6")

    def setup(self, snlab, workdir):
        return list(snlab.read_graph6(str(workdir / "catalog6.g6")))

    def argv(self, workdir):
        return ["verify", "--n-max", "6",
                "--source", f"graph6:{workdir / 'catalog6.g6'}",
                "--workers", str(self.workers), "--emit-all",
                "--out", str(self.output(workdir))]

    def output(self, workdir):
        return workdir / "records.jsonl"

    def check(self, workdir, result):
        out = Outcome(attempted=SWEEP_CLASSES)
        path = self.output(workdir)
        if result.get("rc") != 0 or not path.exists():
            out.fail(out.attempted, f"verify exited {result.get('rc')}")
            return out
        out.digest = sha256_file(path)
        graphs = set()
        with open(path, encoding="ascii") as fh:
            for line in fh:
                rec = json.loads(line)
                out.classes += 1
                graphs.add(rec["graph6"])
                lower, eta, upper, s = rec["lower"], rec["eta"], rec["upper"], rec["s"]
                if not (lower <= eta <= upper and s == upper - eta and s != 1):
                    out.fail(1, f"law fails on {rec['graph6']} {rec['negatives']}")
        out.graphs = len(graphs)
        if out.classes != SWEEP_CLASSES:
            out.fail(out.attempted, f"{out.classes} lines")
        if out.digest != self.expected_sha256:
            out.fail(out.attempted, f"jsonl sha256 {out.digest}")
        return out


class Records48(Workload):
    """Per-record queries on seeded random connected signed graphs."""

    name = "records48"
    reference = (2, 20)

    def prepare(self, workdir, seed):
        records = make_records(seed)
        (workdir / "records.sgl").write_text(sgl_text(records), encoding="ascii")
        (workdir / "expected.json").write_text(
            json.dumps([[n, c] for n, c, _ in records]))

    def setup(self, snlab, workdir):
        return snlab.read_sgl(str(workdir / "records.sgl"))

    def run(self, snlab, state, workdir, result):
        clock = time.perf_counter
        latencies = []
        answers = []
        t0 = clock()
        for sg in state:
            t = clock()
            try:
                rec = snlab.invariant_record(sg)
                answer = {"rec": rec.to_json_dict(), "upper": snlab.attains_upper(sg)}
                if rec.c == 1 and not rec.balanced:
                    answer["offset"] = snlab.classify_unicyclic(sg)
            except Exception as exc:  # every record is one operation; count it failed
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append((clock() - t) * 1e3)
            answers.append(answer)
        result["wall_s"] = clock() - t0
        result["latencies_ms"] = latencies
        (workdir / "answers.json").write_text(json.dumps(answers, sort_keys=True))

    def check(self, workdir, result):
        expected = json.loads((workdir / "expected.json").read_text())
        out = Outcome(attempted=len(expected))
        path = workdir / "answers.json"
        if not path.exists():
            out.fail(out.attempted, "no answers written")
            return out
        out.digest = sha256_file(path)
        answers = json.loads(path.read_text())
        out.classes = out.graphs = len(answers)
        if len(answers) != len(expected):
            out.fail(out.attempted, f"{len(answers)} answers for {len(expected)} records")
            return out
        for i, ((n, c), ans) in enumerate(zip(expected, answers)):
            problem = _record_problem(n, c, ans)
            if problem:
                out.fail(1, f"record {i}: {problem}")
        return out

    def cleanup(self, workdir):
        (workdir / "answers.json").unlink(missing_ok=True)


def _record_problem(n: int, c: int, ans: dict) -> Optional[str]:
    if "error" in ans:
        return ans["error"]
    rec = ans["rec"]
    if (rec["n"], rec["c"]) != (n, c):
        return f"n, c = {rec['n']}, {rec['c']}; generated {n}, {c}"
    if not rec["lower"] <= rec["eta"] <= rec["upper"] or rec["s"] == 1:
        return f"bounds or gap fail: {rec}"
    if ans["upper"] != (rec["eta"] == rec["upper"]):
        return f"attains_upper says {ans['upper']}: {rec}"
    if c == 1 and not rec["balanced"]:
        if "offset" not in ans:
            return "unicyclic record not classified"
        if n - 2 * rec["m"] + ans["offset"] != rec["eta"]:
            return f"unicyclic offset {ans['offset']} mispredicts: {rec}"
    return None


WORKLOADS = {w.name: w for w in (Sweep(), SweepEmitW2(), Records48())}
