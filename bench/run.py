"""Benchmark of the a2a60 toolkit: whole processes timed end to end, and a
traced run that times each layer. See bench/README.md.

    python3 bench/run.py --workload raw-campaign|cli-tables|dense-grid \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ../src. One harness process
runs one child process at a time in a closed loop: a cycle runs each of the
workload's commands once, and the next command starts only after the
previous one has been reaped and its output checked. Each untraced cycle
starts with one timed import of the entry module (for setup_s), and every
untraced process is timed right after the reference process, which only
imports numpy; times are taken as multiples of that reference. Cycles
repeat until the next one would overrun --seconds (at least MIN_CYCLES).
Human-readable tables go first; the last line of stdout is one JSON object
with the metrics named in BENCHMARK.json. The exit code is nonzero if any
output was wrong.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import campaign

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"
FIXTURE = SRC / "a2a60" / "data" / "fig2_measurements.csv"
GOLDENS = BENCH / "goldens.json"
# Timed right before every untraced process; see Runner.timed.
REFERENCE = [sys.executable, "-c", "import numpy"]
REFERENCE_S = 0.15  # its typical wall time on the 2-vCPU Xeon the bounds come from

SETUP_SAMPLES = 7
MIN_CYCLES = 3
TOLERANCE = 1e-9
RAW_ROWS = 162_000  # 27 points x 400 beam pairs x 15 trials

FORMATS = ("csv", "json", "markdown-table")
CLI_TABLES = (
    ("fit-ci", ["fit", "--model", "ci"]),
    ("fit-fi-json", ["fit", "--model", "fi", "--format", "json"]),
    ("fit-ci-h12-markdown", ["fit", "--model", "ci", "--height", "12", "--format", "markdown-table"]),
    *((f"report-{which}-{fmt}", ["report", "--which", which, "--format", fmt])
      for which in ("table1", "table2", "table3", "conclusion") for fmt in FORMATS),
    ("compare", ["compare"]),
    ("sample-1000", ["sample", "--distance", "20", "--n", "1000"]),
)
DENSE_GRID = (
    ("compare-dense", ["compare", "--distances", "1:150:0.01"]),
    ("sample-dense", ["sample", "--distance", "20", "--n", "1000000", "--seed", "7"]),
)


@dataclass
class Proc:
    """One reaped child process."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout_sha256: str
    stdout_bytes: int
    stdout: bytes
    stderr: bytes


@dataclass
class Command:
    name: str
    args: list[str]     # interpreter arguments of the untraced run
    traced: list[str]   # child.py arguments of the traced run
    check: Callable[[Proc], str | None]
    cli: bool = True
    keep_stdout: bool = False


@dataclass
class Op:
    command: Command
    proc: Proc
    error: str | None
    rel: float | None = None  # wall time / the reference's, untraced only
    spans: list = field(default_factory=list)


def child_env() -> dict:
    """The caller's environment without A2A_DATA_DIR and PYTHON* settings, so
    that results do not depend on the caller's shell: PYTHONUNBUFFERED, for
    one, turns every line `sample` prints into a write of its own."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "A2A_DATA_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """The small process (spawn.py) that runs every timed child for us."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)

    def run(self, argv: list[str], keep_stdout: bool = False) -> Proc:
        self.proc.stdin.write(json.dumps({"argv": argv, "keep_stdout": keep_stdout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the process spawner exited")
        result = json.loads(line)
        for key in ("stdout", "stderr"):
            result[key] = result[key].encode("latin-1")
        return Proc(**result)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def exit_and_stderr(p: Proc) -> str | None:
    if p.code != 0:
        return f"exit code {p.code}"
    if p.stderr:
        return f"stderr not empty: {p.stderr[:200]!r}"
    return None


def golden_check(name: str, goldens: dict) -> Callable[[Proc], str | None]:
    expected = goldens[name]["sha256"]

    def check(p: Proc) -> str | None:
        problem = exit_and_stderr(p)
        if problem is None and p.stdout_sha256 != expected:
            problem = f"stdout sha256 {p.stdout_sha256} differs from the golden {expected}"
        return problem
    return check


def fit_input_check(c: campaign.Campaign) -> Callable[[Proc], str | None]:
    expected = campaign.fi_fit(c.distance_m, c.rank_points(2))

    def check(p: Proc) -> str | None:
        problem = exit_and_stderr(p)
        if problem:
            return problem
        rows = list(csv.DictReader(io.StringIO(p.stdout.decode())))
        if len(rows) != 1 or rows[0]["model"] != "fi" or int(rows[0]["points"]) != expected["points"]:
            return f"unexpected fit output {p.stdout[:200]!r}"
        for key in ("intercept_db", "ple", "sigma_db", "mse_db2"):
            if abs(float(rows[0][key]) - expected[key]) > TOLERANCE:
                return f"{key} {rows[0][key]} differs from the reference {expected[key]!r}"
        return None
    return check


def pipeline_check(c: campaign.Campaign) -> Callable[[Proc], str | None]:
    """Compare the pipeline's trial means, rank order, rank-1 exponent and
    saved aggregated points with the reference."""
    points = {pt: i for i, pt in enumerate(zip(c.distance_m.tolist(), c.height_m.tolist()))}
    pairs = c.means_db.shape[1]

    def point_index(coords) -> np.ndarray:
        return np.array([points.get(tuple(pt), -1) for pt in coords.tolist()])

    def check(p: Proc) -> str | None:
        problem = exit_and_stderr(p)
        if problem:
            return problem
        with np.load(WORK / "pipeline.npz") as res:
            scan_point = point_index(res["scan_point"])
            flat = scan_point * pairs + res["scan_pair"] @ np.array([campaign.WINDOW, 1])
            if (scan_point < 0).any() or np.unique(flat).size != c.means_db.size or flat.size != c.means_db.size:
                return f"{flat.size} beam-pair groups, expected {c.means_db.size} distinct"
            if not (res["scan_count"] == campaign.TRIALS).all():
                return f"trial_count differs from {campaign.TRIALS}"
            if np.abs(res["scan_mean"] - c.means_db.ravel()[flat]).max() > TOLERANCE:
                return "per-pair trial means differ from the reference"
            rank_point = point_index(res["rank_point"])
            order = res["rank_pairs"] @ np.array([campaign.WINDOW, 1])
            if (rank_point < 0).any() or not np.array_equal(order, c.order[rank_point]):
                return "per-point rank order differs from the reference"
            if abs(float(res["rank1_ple"]) - c.rank1_ple) > TOLERANCE:
                return f"rank-1 PLE {float(res['rank1_ple'])!r} differs from {c.rank1_ple!r}"
        with open(WORK / "aggregated.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != len(points) * campaign.MAX_RANK:
            return f"{len(rows)} aggregated rows, expected {len(points) * campaign.MAX_RANK}"
        for row in rows:
            i = points.get((float(row["distance_m"]), float(row["height_m"])), -1)
            rank = int(row["rank"] or 1)
            if i < 0 or abs(float(row["path_loss_db"]) - c.rank_points(rank)[i]) > TOLERANCE:
                return f"aggregated row {row} differs from the reference"
        return None

    def check_once(p: Proc) -> str | None:
        try:
            return check(p)
        finally:  # a later operation must not pass on these files
            for name in ("pipeline.npz", "aggregated.csv"):
                (WORK / name).unlink(missing_ok=True)
    return check_once


def file_provenance(path: Path) -> dict:
    data = path.read_bytes()
    return {"path": str(path.relative_to(ROOT)), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def prepare(workload: str, seed: int) -> tuple[str, list[Command], dict | None]:
    """Make the workload's inputs from the seed; returns the entry module whose
    import time is setup_s, one cycle of commands, and the generated input."""
    goldens = json.loads(GOLDENS.read_text())

    def cli(name, args, check=None, keep_stdout=False):
        return Command(name, ["-m", "a2a60.cli", *args], ["cli", *args],
                       check or golden_check(name, goldens), keep_stdout=keep_stdout)

    if workload == "raw-campaign":
        c = campaign.generate(seed, FIXTURE)
        raw = WORK / "raw-campaign.csv"
        campaign.write_raw_csv(c, raw)
        step = ["pipeline", str(raw), str(WORK)]
        return "a2a60", [Command("pipeline", [str(CHILD), *step], step, pipeline_check(c),
                                 cli=False, keep_stdout=True)], file_provenance(raw)
    if workload == "cli-tables":
        c = campaign.generate(seed, FIXTURE)
        aggregated = WORK / "aggregated-input.csv"
        campaign.write_aggregated_csv(c, aggregated)
        commands = [cli(name, args) for name, args in CLI_TABLES]
        commands.append(cli("fit-fi-rank2-input",
                            ["fit", "--model", "fi", "--rank", "2", "--input", str(aggregated)],
                            fit_input_check(c), keep_stdout=True))
        return "a2a60.cli", commands, file_provenance(aggregated)
    return "a2a60.cli", [cli(name, args) for name, args in DENSE_GRID], None


class Runner:
    """Runs commands in a closed loop and keeps every result in memory."""

    def __init__(self, spawner: Spawner, import_argv: list[str]):
        self.spawner = spawner
        self.import_argv = import_argv
        self.ops: list[Op] = []
        self.setup: list[tuple[float, float]] = []  # entry import: (wall s, / reference)

    def timed(self, argv: list[str], keep_stdout: bool = False) -> tuple[Proc, float]:
        """Run the reference process, then `argv`; return the latter and its
        wall time as a multiple of the reference's. Other tenants of a shared
        machine slow every process for seconds to minutes at a time, and two
        processes run back to back see nearly the same slowdown, so the
        ratio holds steady where seconds do not."""
        reference = self.spawner.run(REFERENCE)
        if exit_and_stderr(reference):
            raise RuntimeError(f"the reference process failed: {exit_and_stderr(reference)}")
        proc = self.spawner.run(argv, keep_stdout)
        return proc, proc.wall_s / reference.wall_s

    def time_setup(self) -> None:
        proc, rel = self.timed(self.import_argv)
        if exit_and_stderr(proc):
            raise RuntimeError(f"{self.import_argv} failed: {exit_and_stderr(proc)}")
        self.setup.append((proc.wall_s, rel))

    def run(self, command: Command, traced: bool) -> Op:
        spans_path = WORK / "spans.json"
        rel = None
        if traced:
            argv = [sys.executable, str(CHILD), "--trace", str(spans_path),
                    "--op", str(len(self.ops)), *command.traced]
            proc = self.spawner.run(argv, command.keep_stdout)
        else:
            proc, rel = self.timed([sys.executable, *command.args], command.keep_stdout)
        op = Op(command, proc, command.check(proc), rel)
        if traced and spans_path.exists():
            op.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        self.ops.append(op)
        return op

    def cycles(self, commands: list[Command], seconds: float, traced: bool) -> list:
        """Whole cycles until the next one would overrun `seconds`. With
        `traced`, each entry is an (untraced, traced) pair of cycles."""
        start, result = time.perf_counter(), []
        while True:
            begun = time.perf_counter()
            self.time_setup()
            untraced = [self.run(cmd, False) for cmd in commands]
            result.append((untraced, [self.run(cmd, True) for cmd in commands]) if traced else untraced)
            now = time.perf_counter()
            if len(result) >= MIN_CYCLES and (now - start) + (now - begun) > seconds:
                return result


def by_command(cycles: list[list[Op]]) -> dict[str, list[Op]]:
    groups: dict[str, list[Op]] = defaultdict(list)
    for cycle in cycles:
        for op in cycle:
            groups[op.command.name].append(op)
    return groups


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def cycle_s(cycles: list[list[Op]]) -> float:
    """Sum of each command's fastest wall time; printed, and behind trace.overhead_s."""
    return sum(min(op.proc.wall_s for op in ops) for ops in by_command(cycles).values())


def end_to_end(cycles: list[list[Op]]) -> dict[str, float]:
    """command_rel is the geometric mean, over the workload's commands, of
    each command's median time relative to the reference, so that every
    command weighs the same however long it runs. peak_rss_mb is the largest
    per-command median ru_maxrss."""
    groups = by_command(cycles).values()
    return {
        "command_rel": geomean([statistics.median(op.rel for op in ops) for ops in groups]),
        "peak_rss_mb": max(statistics.median(op.proc.rss_mib for op in ops) for ops in groups),
    }


def cycle_samples(cycles: list[list[Op]]) -> dict[str, list[float]]:
    """The same per cycle, for the printed spread."""
    return {
        "command_rel": [geomean([op.rel for op in cycle]) for cycle in cycles],
        "peak_rss_mb": [max(op.proc.rss_mib for op in cycle) for cycle in cycles],
    }


def layer_totals(cycle: list[Op]) -> dict[str, float]:
    """Sum the spans of one cycle. `<span>.s` is self time (duration minus
    direct child spans), except `cli.main.s`, which is inclusive and whose
    self time is `cli.self.s`; `<span>.calls`, `<span>.<count>` and their
    layer-wide sums `<layer>.calls`, `<layer>.<count>` are exact counts."""
    totals: dict[str, float] = defaultdict(float)
    for op in cycle:
        if op.command.cli:
            totals["cli.stdout_bytes"] += op.proc.stdout_bytes
        child = [0.0] * len(op.spans)
        for name, start, end, parent, _, _, _ in op.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _, counts, raised) in enumerate(op.spans):
            layer = name.split(".")[0]
            if name == "cli.main":
                totals["cli.main.s"] += end - start
                totals["cli.self.s"] += end - start - child[i]
            else:
                totals[name + ".s"] += end - start - child[i]
            for key, value in {"calls": 1, **(counts or {})}.items():
                totals[f"{name}.{key}"] += value
                totals[f"{layer}.{key}"] += value
            totals[layer + ".errors"] += raised
    return totals


def provenance(workload: str, seed: int, generated: dict | None) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "input": generated,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "a2a60").glob("*.py"))),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(title: str, rows: list[tuple[str, str, float, list[float]]]) -> None:
    print(title)
    print(f"  {'name':<36} {'unit':<6} {'value':>12} {'n':>4} "
          f"{'min':>10} {'q1':>10} {'median':>10} {'q3':>10}")
    for name, unit, value, samples in rows:
        q1, median, q3 = quartiles(samples)
        print(f"  {name:<36} {unit:<6} {value:>12.6g} {len(samples):>4} "
              f"{min(samples):>10.4g} {q1:>10.4g} {median:>10.4g} {q3:>10.4g}")


def workload_metrics(workload: str, groups: dict[str, list[Op]], error_rate: float) -> list:
    """Metrics that exist on one workload only, plus error_rate; printed, not gated."""
    rows = [("error_rate", "1", error_rate, [error_rate])]

    def median_row(name, unit, samples):
        if samples:
            rows.append((name, unit, statistics.median(samples), samples))

    if workload == "raw-campaign":
        median_row("raw_trials_per_s", "rows/s",
                   [RAW_ROWS / json.loads(op.proc.stdout)["pass_s"]
                    for op in groups["pipeline"] if not op.error])
    elif workload == "cli-tables":
        walls = [op.proc.wall_s for ops in groups.values() for op in ops]
        median_row("cli_p50_s", "s", walls)
        if len(walls) >= 100:  # p90 needs at least 10 samples beyond it
            rows.append(("cli_p90_s", "s", statistics.quantiles(walls, n=10)[8], walls))
    else:
        median_row("compare_s", "s", [op.proc.wall_s for op in groups["compare-dense"]])
        median_row("sample_s", "s", [op.proc.wall_s for op in groups["sample-dense"]])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("raw-campaign", "cli-tables", "dense-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "a2a60" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program to benchmark: {SRC / 'a2a60'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    WORK.mkdir(exist_ok=True)

    entry, commands, generated = prepare(args.workload, args.seed)
    import_argv = [sys.executable, "-c", f"import {entry}"]
    with Spawner() as spawner:
        for argv in (REFERENCE, import_argv):  # fill the bytecode cache before timing
            spawner.run(argv)
        runner = Runner(spawner, import_argv)
        for _ in range(SETUP_SAMPLES):
            runner.time_setup()
        cycles = runner.cycles(commands, args.seconds, traced=bool(args.trace))
    setup = runner.setup
    untraced = [c[0] for c in cycles] if args.trace else cycles
    failed = [op for op in runner.ops if op.error]

    print(f"a2a60 benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, generated)))
    groups = by_command(untraced)
    print("per command, untraced: wall time in s (n, min, q1, median, q3), median relative "
          "to the reference, min cpu s, median rss MiB, stdout bytes")
    rows = [(name, [op.proc.wall_s for op in ops], [op.rel for op in ops],
             min(op.proc.cpu_s for op in ops), statistics.median(op.proc.rss_mib for op in ops),
             ops[0].proc.stdout_bytes) for name, ops in groups.items()]
    rows.append((f"(import {entry})", [w for w, _ in setup], [r for _, r in setup], None, None, None))
    for name, walls, rels, cpu, rss, size in rows:
        q1, median, q3 = quartiles(walls)
        tail = "" if cpu is None else f" {cpu:>10.4g} {rss:>8.2f} {size:>9}"
        print(f"  {name:<34} {len(walls):>4} {min(walls):>10.4g} {q1:>10.4g} {median:>10.4g} "
              f"{q3:>10.4g} {statistics.median(rels):>8.4g}{tail}")
    print_table("workload metrics", workload_metrics(args.workload, groups,
                                                     len(failed) / len(runner.ops)))
    for op in failed:
        print(f"FAILED {op.command.name}: {op.error}")

    setup_rel = [REFERENCE_S * r for _, r in setup]
    values = {"setup_s": statistics.median(setup_rel), **end_to_end(untraced)}
    samples = {"setup_s": setup_rel, **cycle_samples(untraced)}
    values["cycle_s"] = cycle_s(untraced)
    samples["cycle_s"] = [sum(op.proc.wall_s for op in cycle) for cycle in untraced]
    print_table("end-to-end metrics (samples: per import for setup_s, per cycle otherwise)",
                [(m["name"], m["unit"], values[m["name"]], samples[m["name"]])
                 for m in spec["end_to_end"] + [{"name": "cycle_s", "unit": "s"}]])
    metrics_spec = spec["end_to_end"]
    if args.trace:
        traced = [c[1] for c in cycles]
        layers = [layer_totals(cycle) for cycle in traced]
        samples = {m["name"]: [t.get(m["name"], 0.0) for t in layers] for m in spec["per_layer"]}
        # Times and exact counts: the fastest cycle. Errors: the worst cycle,
        # so that a call which raises in only some cycles still shows.
        values = {name: (max if name.endswith(".errors") else min)(v)
                  for name, v in samples.items()}
        overhead = cycle_s(traced) - cycle_s(untraced)
        values["trace.overhead_s"], samples["trace.overhead_s"] = overhead, [overhead]
        metrics_spec = spec["per_layer"]
        print_table("per-layer metrics (value: min over traced cycles; max for .errors)",
                    [(m["name"], m["unit"], values[m["name"]], samples[m["name"]])
                     for m in metrics_spec])

    print(json.dumps({
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
