"""Benchmark for the oscount CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside an oscount checkout; the checkout root is the parent
of this directory.  Every operation is `python -m oscount.cli ... --json`
with PYTHONPATH=src, in a fresh interpreter: the module-global
`matroid._minor_cache` made a second `find_good_primes` on q8d8 take 0.000 s
instead of 4.2 s, and `MatrixGroup.enumerate_elements` memoizes on the
instance, so repeating an operation in one process measures another program.
One child runs at a time.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1` its
per-layer metrics, taken by `traced.py` from outside the program.  Every
output is checked against the references in `workloads.py`.  The last line
of stdout is the result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import SETUP_OP, WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 9
RUN_BUDGET_S = 170  # the run must end within 180 s
CLI = [sys.executable, "-m", "oscount.cli"]
MICRO = [sys.executable, str(BENCH / "traced.py"), "--micro"]
MICRO_METRICS = ("fields.mul_per_s", "linalg.reduce_row_per_s")
LAYER_METRICS = (
    "arrangement.lattice_s",
    "arrangement.flats",
    "arrangement.invariants_s",
    "counting.count_s",
    "counting.self_s",
    "matroid.good_primes_s",
    "matroid.primes_tried",
    "matroid.nbc_s",
    "matroid.nbc_sets",
    "matroid.ff_count_s",
    "matroid.ff_points",
    "groups.enumerate_s",
    "groups.reflections_s",
    "groups.parabolics_s",
    "groups.zeta_s",
    "groups.order",
    "fileio.parse_s",
    "fileio.bytes",
    "cli.import_s",
    "cli.self_s",
)


def _untimed(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "timing_seconds"}


@dataclass
class OpResult:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    doc: dict | None = None
    errors: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Runs children one at a time, checks their output and counts failures."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0

    def child(self, cmd: list[str]) -> tuple[float, float, float, int | None, str, str]:
        """(wall s, cpu s, max RSS MB, exit code or None on timeout, stdout, stderr)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)

            def kill():
                timed_out.set()
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(max(1.0, self.deadline - start), kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if timed_out.is_set() else proc.returncode
        return (
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,  # KiB on Linux
            code,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def run_op(self, op: Op, traced: bool = False, same_as: dict | None = None) -> OpResult:
        """Run one operation and check its output.  With `same_as`, the output
        must also equal that document in every field except timing."""
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        prefix = [sys.executable, str(BENCH / "traced.py"), str(spans_path), "--"] if traced else CLI
        wall, cpu, rss, code, out, err = self.child(prefix + list(op.argv))
        result = OpResult(op, wall, cpu, rss)
        if code is None:
            result.errors.append("timed out")
        elif code != 0:
            result.errors.append(f"exit code {code}: {err.strip()[-300:]}")
        else:
            try:
                result.doc = json.loads(out)
            except json.JSONDecodeError:
                result.errors.append("output is not JSON")
            else:
                result.errors.extend(op.check(result.doc))
                if same_as is not None and _untimed(result.doc) != _untimed(same_as):
                    result.errors.append("traced JSON differs from the untraced JSON")
        if traced and code == 0:
            result.spans = self._load_spans(spans_path, result)
        self.record(result)
        return result

    def _load_spans(self, path: Path, result: OpResult) -> list[dict]:
        data = json.loads(path.read_text(encoding="utf-8"))
        for name in data["missing"]:
            print(f"warning: no oscount module binds {name}; its layer reads 0", file=sys.stderr)
        spans = data["spans"]
        for s in spans:
            if "facts_error" in s:
                print(f"warning: {s['name']}: {s['facts_error']}", file=sys.stderr)
            parent = spans[s["parent"]] if s["parent"] is not None else None
            if parent and not (parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
                result.errors.append(f"span {s['name']} is not inside its parent")
        if sum(s["end"] - s["start"] for s in spans if s["parent"] is None) > result.wall:
            result.errors.append("layer spans exceed the operation's wall time")
        return spans

    def record(self, result: OpResult):
        self.attempted += 1
        if result.errors:
            self.failed += 1
            print(f"FAIL {result.op.name}: {'; '.join(result.errors)}", file=sys.stderr)

    def run_pass(self, ops: list[Op]) -> list[OpResult]:
        return [self.run_op(op) for op in ops]

    def repeat(self, one_round, seconds: float) -> list:
        """Run `one_round` while the next round is predicted to end within
        `seconds` (at least once) and before the run's deadline."""
        rounds = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            rounds.append(one_round())
            now = time.perf_counter()
            last = now - t
            if now - start + last > seconds or now + last > self.deadline:
                return rounds


def pass_wall(results: list[OpResult]) -> float:
    return sum(r.wall for r in results)


def end_to_end(runner: Runner, ops: list[Op], seconds: float) -> dict:
    runner.run_op(SETUP_OP)  # a fresh checkout byte-compiles src/ here
    setup = [runner.run_op(SETUP_OP).wall for _ in range(SETUP_REPS)]
    passes = runner.repeat(lambda: runner.run_pass(ops), seconds)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "ok_ratio": 1 - runner.failed / runner.attempted,
    }


def _primes_upto(n: int) -> int:
    return sum(all(q % d for d in range(2, int(q**0.5) + 1)) for q in range(2, n + 1))


def layer_metrics(traced_pass: list[OpResult]) -> dict:
    """Per-layer self times and counts of one traced pass.

    Self time is a span's duration minus the time its child spans cover;
    `cli.self_s` is each operation's wall time minus its top-level spans,
    so the self times of an operation plus `cli.self_s` add up to its wall
    time.
    """
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    primes_good = 0
    for r in traced_pass:
        spans = r.spans
        children = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        top = 0.0
        group_order = 0
        for s, child_time in zip(spans, children):
            name, duration = s["name"], s["end"] - s["start"]
            if name == "counting.count":
                m["counting.count_s"] += duration
                m["counting.self_s"] += duration - child_time
            else:
                m[name + "_s"] += duration - child_time
            if s["parent"] is None:
                top += duration
            facts = s.get("facts", {})
            m["arrangement.flats"] += facts.get("flats", 0)
            m["matroid.nbc_sets"] += facts.get("nbc_sets", 0)
            m["matroid.ff_points"] += facts.get("points", 0)
            m["fileio.bytes"] += facts.get("bytes", 0)
            if facts.get("good_primes"):
                primes_good += len(facts["good_primes"])
                # the search tries the primes in increasing order
                m["matroid.primes_tried"] += _primes_upto(max(facts["good_primes"]))
            # enumerate_elements memoizes, so a group may report its order twice
            group_order = max(group_order, facts.get("order", 0))
        m["groups.order"] += group_order
        m["cli.self_s"] += r.wall - top
    # a layer the workload does not use reads 0
    lattice_s, tried = m["arrangement.lattice_s"], m["matroid.primes_tried"]
    m["arrangement.flats_per_s"] = m["arrangement.flats"] / lattice_s if lattice_s else 0.0
    m["matroid.good_prime_ratio"] = primes_good / tried if tried else 0.0
    return m


def micro_rates(runner: Runner, micro_input: Path) -> dict:
    """Rates of the `fields` and `linalg` kernels.  They are not program
    output, so a kernel that a later version renames reads 0 with a warning
    instead of failing the run."""
    _, _, _, code, out, err = runner.child(MICRO + [str(micro_input)])
    if code == 0:
        return json.loads(out)
    print(f"warning: kernel rates unavailable, they read 0: {err.strip()[-300:]}", file=sys.stderr)
    return dict.fromkeys(MICRO_METRICS, 0.0)


def per_layer(runner: Runner, ops: list[Op], micro_input: Path, seconds: float) -> dict:
    runner.run_op(SETUP_OP)  # a fresh checkout byte-compiles src/ here

    def pair():
        plain = runner.run_pass(ops)
        traced = [runner.run_op(op, traced=True, same_as=p.doc) for op, p in zip(ops, plain)]
        return plain, traced

    pairs = runner.repeat(pair, seconds)
    layers = [layer_metrics(traced) for _, traced in pairs]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    plain_wall = statistics.median(pass_wall(p) for p, _ in pairs)
    metrics["trace.overhead_s"] = statistics.median(pass_wall(t) for _, t in pairs) - plain_wall
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / plain_wall
    metrics.update(micro_rates(runner, micro_input))
    return metrics


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories); "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oscount" / "__init__.py").is_file():
        print(f"error: no oscount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = environment(args.seed)
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        workload = WORKLOADS[args.workload]
        workload.write_inputs(ROOT, work, random.Random(args.seed))
        ops = workload.ops(work.relative_to(ROOT))
        runner = Runner(work, deadline)
        if args.trace:
            micro_input = work.relative_to(ROOT) / workload.micro_input
            values = per_layer(runner, ops, micro_input, args.seconds)
        else:
            values = end_to_end(runner, ops, args.seconds)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 2
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"env": env}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
