"""Benchmark of the ``plethysm`` CLI, one cold command at a time.

    python3 perfbench/run.py --workload query|table|verify --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory, as source, with nothing installed.  One client runs the
workload's commands in order (a closed loop), each in a fresh interpreter,
because that is what a CLI user pays per query: a full import and cold
caches.  Whole passes over the command list repeat until ``--seconds`` have
passed; the pass in progress is finished.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose commands run under ``trace_cli.py``, and
reports per-layer metrics (per pass) plus the tracing overhead.  Every
answer is checked (see ``workloads.Checker``).  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from trace_cli import COUNTED, SPANS
from workloads import HERE, SETUP_COMMAND, Checker, commands_for

ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = "import sys; from plethysm.cli import main; sys.exit(main())"
# setup_s is the median of this many cold starts before each pass: spread over
# the run, they see the same machine state as the passes do
SETUP_PER_PASS = 4
WARMUP_S = 1.0  # untimed cold starts before measuring
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

# per-layer metrics: self time and calls of every span, calls of the counted
# helpers, and the counters fed by span results or by failing verify checks
LAYER_SPANS = ["cli.main"] + [name for name, _ in SPANS]
RESULT_COUNTERS = [count[0] for _, count in SPANS if count] + ["verify.checks_failed"]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLETHYSM_")}
    env["PYTHONPATH"] = str(SRC)
    # The package does no BLAS work, but numpy starts OpenBLAS's thread pool at
    # import; with one thread per CPU, cold-start time depended on whether the
    # other CPU was free, and swung by a third between runs on a 2-CPU VM.
    env["OPENBLAS_NUM_THREADS"] = "1"
    # let the children cache bytecode (under src/, ignored by git), as an
    # installed package would have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Outcome:
    argv: tuple[str, ...]
    seconds: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    trace: dict | None = None


class Runner:
    """Runs CLI commands in child interpreters and checks every answer."""

    def __init__(self, checker: Checker, deadline: float):
        self.checker = checker
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: tuple[str, ...], traced: bool = False) -> Outcome:
        if traced:
            full = [sys.executable, str(HERE / "trace_cli.py"), *argv]
        else:
            full = [sys.executable, "-c", ENTRY, *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        start = time.perf_counter()
        proc = subprocess.Popen(full, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        # kill by pid: the child stays a zombie, so its pid is not reused, until wait4
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        killer.cancel()
        # this child's own rusage; RUSAGE_CHILDREN would keep the maximum so far
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        outcome = Outcome(argv, seconds, usage.ru_maxrss / 1024, proc.returncode,
                          out.decode(), err[0].decode(errors="replace"))
        if traced and outcome.exit_code == 0:
            try:
                outcome.trace = json.loads(outcome.stdout)
            except ValueError:
                pass  # left as is: the check reports stdout that is not JSON
            else:
                outcome.exit_code = outcome.trace["exit"]
                outcome.stdout = outcome.trace["stdout"]
        return outcome

    def check(self, outcome: Outcome) -> None:
        self.attempted += 1
        problem = self.checker.problem(outcome.argv, outcome.exit_code, outcome.stdout)
        if problem is not None:
            detail = outcome.stderr.strip().splitlines()[-1:] if outcome.exit_code else []
            self.failures.append(f"{' '.join(outcome.argv)}: {problem} {detail}")

    def run_pass(self, commands, traced: bool = False) -> tuple[float, list[Outcome]]:
        """One timed pass over the commands, checked after the clock stops."""
        start = time.perf_counter()
        outcomes = [self.spawn(argv, traced) for argv in commands]
        wall = time.perf_counter() - start
        for outcome in outcomes:
            self.check(outcome)
        return wall, outcomes


def end_to_end(runner: Runner, commands, seconds: float) -> dict[str, tuple[float, str]]:
    setup, walls, outcomes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        setup += runner.run_pass([SETUP_COMMAND] * SETUP_PER_PASS)[1]
        wall, done = runner.run_pass(commands)
        walls.append(wall)
        outcomes += done
    latencies = [o.seconds for o in outcomes]
    print(f"setup: {len(setup)} cold starts of '{' '.join(SETUP_COMMAND)}'")
    print(f"passes: {len(walls)} x {len(commands)} commands, walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    line = f"commands: {len(latencies)}, p50 {statistics.median(latencies):.4f} s"
    tail = int(100 * (1 - 10 / len(latencies)))  # highest percentile with 10 samples beyond
    if tail > 50:
        line += f", p{tail} {statistics.quantiles(latencies, n=100)[tail - 1]:.4f} s"
    print(line)
    return {
        "setup_s": (statistics.median(o.seconds for o in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in setup + outcomes), "MB"),
    }


def per_layer(runner: Runner, commands, seconds: float, checks: list[str]):
    """Alternate untraced and traced passes; layer metrics are means per traced pass."""
    untraced, traced_walls, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(untraced) == len(traced):
            untraced.append(runner.run_pass(commands)[0])
        else:
            wall, outcomes = runner.run_pass(commands, traced=True)
            traced_walls.append(wall)
            traced.append(outcomes)
    n = len(traced)
    traces = [o.trace for outcomes in traced for o in outcomes if o.trace is not None]
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for trace in traces:
        for name, row in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[field] / n

    import_s = statistics.median(t["import_s"] for t in traces) if traces else 0.0
    metrics = {"cli.import_s": (import_s, "s")}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = (span(name, 2), "s")
        metrics[f"{name}.calls"] = (span(name, 0), "count")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (counters.get(name, 0) / n, "count")
    for name in RESULT_COUNTERS:
        metrics[name] = (counters.get(name, 0) / n, "count")
    for check in checks:
        metrics[f"verify.{check}.s"] = (span(f"verify.{check}", 1), "s")
    overhead = statistics.median(traced_walls) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"passes: {n} traced, walls " + ", ".join(f"{w:.3f}" for w in traced_walls)
          + " s; untraced " + ", ".join(f"{w:.3f}" for w in untraced) + " s")
    print(f"tracing overhead: {overhead:.3f} s per pass "
          f"({overhead / statistics.median(untraced):.1%} of the untraced pass)")
    print("first traced pass, largest self times per command:")
    for outcome in traced[0]:
        if outcome.trace is None:
            continue
        top = sorted(outcome.trace["spans"].items(), key=lambda kv: -kv[1][2])[:3]
        print(f"  {' '.join(outcome.argv[:-2]):<36} {outcome.seconds:7.3f} s: "
              + ", ".join(f"{name} {row[2]:.3f} s" for name, row in top))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "table", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    schema = SRC / "plethysm" / "schema.json"
    if not (SRC / "plethysm" / "cli.py").is_file() or not schema.is_file():
        print(f"error: no plethysm sources under {SRC}", file=sys.stderr)
        return 2
    try:
        checker = Checker(schema)
    except ImportError as exc:
        print(f"error: answer checks need jsonschema: {exc}", file=sys.stderr)
        return 2

    commands = commands_for(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(commands)} commands, "
          f"trace {args.trace}")
    runner = Runner(checker, deadline)
    warmup_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warmup_end:  # the first one writes the bytecode cache
        runner.run_pass([SETUP_COMMAND])
    if args.trace:
        metrics = per_layer(runner, commands, args.seconds, checker.expected["verify"]["full"])
    else:
        metrics = end_to_end(runner, commands, args.seconds)
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio: {failed / runner.attempted:.4f} ({failed} of {runner.attempted} commands)")
    if not args.trace:
        metrics["ok_ratio"] = (1 - failed / runner.attempted, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name:<12} {value:12.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
