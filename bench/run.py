#!/usr/bin/env python3
"""End-to-end benchmark of the ``reordermon`` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload array-pipeline --seed 0 --seconds 30 --trace 0

Workloads are defined in ``bench/workloads.py``.  One run:

1. set-up: ``generate`` writes the trace and its sidecar (trace workloads),
   or one cold CLI start (``lemma``); the trace is then cut to a fixed
   number of rows;
2. one untimed warm-up round of the workload's commands, which also fills
   the ``.pyc`` files and the page cache;
3. ``--trace 0``: timed rounds until ``--seconds`` have passed, one
   ``python -m reordermon.cli`` child at a time, each round followed by one
   more timed set-up.  ``--trace 1``: one child running ``bench/tracer.py``,
   which alternates untraced and traced rounds in-process for ``--seconds``
   and reports per-layer metrics.

Every command's output is checked: exit code, structure, byte identity with
the warm-up round, and, where ``bench/reference_digests.json`` holds the
seed, byte identity with the outputs recorded there.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run details, including spans of a traced run,
go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference_digests.json"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_info() -> dict[str, object]:
    try:
        revision = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_revision": revision,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def trimmed_mean(values: list[float]) -> float:
    """Mean without the fastest and the slowest value, given five or more.

    On a shared machine whose speed switches between a fast and a slow
    phase, round times are bimodal: their median jumps between the modes
    from run to run, while this mean moves with the share of slow rounds.
    """
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


@dataclass
class Outcome:
    code: int
    seconds: float
    rss_mib: float


def run_cli(argv: list[str], log: Path, env: dict[str, str]) -> Outcome:
    """One ``python -m reordermon.cli`` child, waited for; its peak RSS
    comes from the child's own resource usage."""
    with open(log, "ab") as out:
        out.write(("$ reordermon " + " ".join(argv) + "\n").encode())
        out.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "reordermon.cli", *argv],
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, seconds, usage.ru_maxrss / 1024)


@dataclass
class Ledger:
    """Operations attempted (one command plus its output check) and the
    reasons any of them failed."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


class Bench:
    def __init__(self, workload: wl.Workload, size_name: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.size = workload.sizes[size_name]
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.ledger = Ledger()
        self.trace = work / "setup" / "trace.csv"
        self.log = work / "commands.log"
        references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = references.get(f"{workload.name}/{size_name}/{seed}")
        self.expected: dict[str, str] = {}  # output name -> digest of its first run

    def set_up(self) -> float:
        """One timed, checked run of the set-up command; returns seconds."""
        gen = self.work / "setup" / "gen"
        gen.mkdir(parents=True, exist_ok=True)
        outcome = run_cli(wl.setup_argv(self.workload, self.size, self.seed, gen), self.log, self.env)
        errors = [] if outcome.code == 0 else [f"setup exited {outcome.code}"]
        if self.workload.has_trace and not errors:
            errors = self.compare("setup", wl.dir_digest(gen))
        self.ledger.record(errors)
        if errors:
            raise RuntimeError("; ".join(errors))
        if not self.trace.is_file() and self.workload.has_trace:
            wl.truncate_trace(gen / "trace_full.csv", self.trace, self.size.rows)
        return outcome.seconds

    def compare(self, name: str, digest: str) -> list[str]:
        """Byte identity: the first output of ``name`` against the recorded
        reference, every later one against the first."""
        if name not in self.expected:
            self.expected[name] = digest
            if self.reference is not None and self.reference.get(name, digest) != digest:
                return [f"{name}: output differs from the recorded reference"]
            return []
        if self.expected[name] != digest:
            return [f"{name}: output differs from its first run in this benchmark"]
        return []

    def argv(self, command: wl.Command, round_dir: Path) -> list[str]:
        return wl.command_argv(command, self.trace, round_dir / command.name, self.seed, self.size)

    def run_round(self, round_dir: Path) -> tuple[float, list[Outcome]]:
        round_dir.mkdir(parents=True)
        outcomes = []
        start = time.perf_counter()
        for command in self.workload.commands:
            outcomes.append(run_cli(self.argv(command, round_dir), self.log, self.env))
        wall = time.perf_counter() - start
        for command, outcome in zip(self.workload.commands, outcomes):
            errors = [] if outcome.code == 0 else [f"{command.name} exited {outcome.code}"]
            self.ledger.record(errors + self.check(command, round_dir))
        return wall, outcomes

    def check(self, command: wl.Command, round_dir: Path) -> list[str]:
        out = round_dir / command.name
        if not out.is_dir():
            return [f"{command.name}: no output directory"]
        try:
            errors = wl.check_output(command, out, self.size)
        except (KeyError, ValueError, OSError) as exc:
            errors = [f"{command.name}: unreadable output ({exc!r})"]
        return errors + self.compare(command.name, wl.dir_digest(out))

    def items(self, warm: Path) -> int:
        """Work per round: trace packets times commands that read the
        trace, or Monte Carlo trials times presets."""
        if self.workload.has_trace:
            return self.size.rows * len(self.workload.commands)
        presets = sum(
            len(wl.read_rows(warm / c.name / "check_guarantee.csv")) for c in self.workload.commands
        )
        return presets * self.size.trials

    def measure(self, seconds: float, setup_s: float) -> dict[str, object]:
        """Timed rounds until ``seconds`` have passed.  The set-up is
        repeated after every round, outside the round's wall time, so its
        samples span the same stretch of machine time as the rounds."""
        rounds = []
        setup_times = [setup_s]
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            round_dir = self.work / f"r{len(rounds)}"
            rounds.append(self.run_round(round_dir))
            shutil.rmtree(round_dir)
            setup_times.append(self.set_up())
        walls = [wall for wall, _ in rounds]
        return {
            "rounds": len(rounds),
            "walls": walls,
            "wall_s": trimmed_mean(walls),
            "setup_times": setup_times,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(max(o.rss_mib for o in out) for _, out in rounds),
            "command_s": {
                c.name: statistics.median(out[i].seconds for _, out in rounds)
                for i, c in enumerate(self.workload.commands)
            },
        }

    def traced(self, seconds: float) -> dict[str, float]:
        commands = []
        if self.workload.has_trace:
            gen = Path("{round}") / "gen"
            commands.append(wl.setup_argv(self.workload, self.size, self.seed, gen))
        commands += [self.argv(c, Path("{round}")) for c in self.workload.commands]
        plan = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": seconds,
            "rounds_dir": str(self.work / "traced"),
            "commands": commands,
            "trace_rows": self.size.rows,
            "spans": str(self.work / "spans.jsonl"),
            "metrics": str(self.work / "tracer.json"),
        }
        plan_path = self.work / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1))
        with open(self.log, "ab") as out:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "tracer.py"), str(plan_path)],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
        if proc.returncode != 0:
            raise RuntimeError(f"tracer exited {proc.returncode}; see {self.log}")
        report = json.loads(Path(plan["metrics"]).read_text())
        steps = ([None] if self.workload.has_trace else []) + list(self.workload.commands)
        for round_ in report["rounds"]:
            round_dir = self.work / "traced" / round_["dir"]
            for command, code in zip(steps, round_["codes"]):
                name = "setup" if command is None else command.name
                errors = [] if code == 0 else [f"traced {name} returned {code}"]
                if command is None:
                    errors += self.compare("setup", wl.dir_digest(round_dir / "gen"))
                else:
                    errors += self.check(command, round_dir)
                self.ledger.record(errors)
        return report["metrics"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "reordermon" / "cli.py").is_file():
        print(f"error: no reordermon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))

    bench = Bench(workload, args.size, args.seed, work)
    try:
        setup_s = bench.set_up()
        warm = work / "warm"
        bench.run_round(warm)
        if args.trace:
            metrics = {
                name: {"value": value, "unit": tracer.METRICS[name][0]}
                for name, value in bench.traced(args.seconds).items()
            }
            detail: dict[str, object] = {}
        else:
            detail = bench.measure(args.seconds, setup_s)
            items = bench.items(warm)
            metrics = {
                "wall_s": {"value": detail["wall_s"], "unit": "s"},
                "setup_s": {"value": detail["setup_s"], "unit": "s"},
                "items_per_s": {"value": items / detail["wall_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": detail["peak_rss_mb"], "unit": "MiB"},
            }
            detail.update(items=items, quality=wl.quality(warm, workload))
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ledger = bench.ledger
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps({"machine": info, "args": vars(args), "errors": ledger.errors,
                    "reference_checked": bench.reference is not None, "detail": detail,
                    **result}, indent=1)
    )
    # keep the small reports, drop the traces and round outputs
    for bulky in ("setup", "warm", "traced"):
        shutil.rmtree(work / bulky, ignore_errors=True)
    for error in ledger.errors:
        print(f"check failed: {error}")
    print(f"error_rate = {ledger.failed / ledger.attempted!r} fraction "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for name, value in detail.get("quality", {}).items():
        print(f"{name} = {value!r} (mean over results.csv rows)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
