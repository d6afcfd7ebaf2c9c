"""Benchmark of `hdbprep run` and `hdbprep identify` on synthetic surveys.

From the repository root:

    python3 bench/run.py --workload columns_letters --seed 1 --seconds 20 --trace 0

One invocation generates a workload from the seed with ``hdbprep.synth``,
runs the real CLI (``python -m hdbprep.cli``) in child processes for about
``--seconds`` seconds, checks every output against the generator's ground
truth, prints each metric by name and unit, and ends with one JSON line.
``--workload all`` (the default) runs every workload in turn. With
``--trace 1`` every other child runs under ``layertrace.py`` and the
per-layer metrics are reported instead of the end-to-end ones. README.md
next to this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# The benchmark measures the checkout it sits in, never an installed copy.
if not (SRC / "hdbprep" / "__init__.py").is_file():
    raise SystemExit(f"error: no hdbprep sources under {SRC}")
sys.path.insert(0, str(SRC))

from hdbprep.model import IncomeMode  # noqa: E402
from hdbprep.synth import (  # noqa: E402
    LETTER_INCOME_FILE,
    NUMERIC_INCOME_FILE,
    SynthParams,
    generate,
    write_column_files,
    write_table,
)

SETUP_REPEATS = 7
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
# A tail percentile is reported only when at least this many runs lie beyond it.
TAIL_RUNS = 10
# The host's speed drifts by up to 1.75x, for seconds to minutes (README.md).
# A fixed pure-Python loop is timed around every measured child, and the
# child's throughput is scaled to the speed at which that loop takes
# PROBE_REF_S seconds.
PROBE_LOOPS = 300_000
PROBE_REF_S = 0.025

#: The survey frame of the ROADMAP baseline; only the size varies.
FRAME = dict(n_regions=20, max_milieux=10, max_clusters=50,
             max_households_per_cluster=200)

HOUSEHOLD_COLUMNS = ["key", "size", "n_adults", "n_children", "scale_oxford",
                     "scale_faofam", "scale_dmp", "total_income", "scaled_income",
                     "label_area", "label_chief_gender"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # CLI subcommand
    households: int
    max_household_size: int
    income_mode: IncomeMode
    table: bool             # one shuffled persons.csv, run with --sort

    def params(self, seed: int) -> SynthParams:
        return SynthParams(n_households=self.households, seed=seed,
                           max_household_size=self.max_household_size,
                           income_mode=self.income_mode, **FRAME)


WORKLOADS = {
    w.name: w for w in (
        Workload("columns_letters",
                 "native column files with letter incomes: every layer, recode included, "
                 "does real work",
                 "run", households=3_000, max_household_size=9,
                 income_mode=IncomeMode.LETTERS, table=False),
        Workload("table_numeric_sorted",
                 "one person-shuffled table, numeric incomes, larger households, --sort: "
                 "the table reader and the one path that must buffer; no recode",
                 "run", households=1_500, max_household_size=20,
                 income_mode=IncomeMode.NUMERIC, table=True),
        Workload("identify_keys",
                 "identify on the columns_letters files: ingest, keys, row building "
                 "and the key file only; aggregation and household writes stay idle",
                 "identify", households=3_000, max_household_size=9,
                 income_mode=IncomeMode.LETTERS, table=False),
    )
}

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "persons_per_s": ("persons/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: Per-layer metrics: name -> (unit, better, trace name, field). The field
#: reads a counter ("calls", "seconds"), the spans of that name ("busy",
#: "self", or a span attribute), or the child's wall time ("startup").
PER_LAYER = {
    "ingest.read_s": ("s", "lower", "ingest.read", "busy"),
    "ingest.persons": ("count", "higher", "ingest.read", "persons"),
    "ingest.bytes_in": ("B", "higher", "ingest.read", "bytes_in"),
    "ingest.rss_mb": ("MB", "lower", "ingest.read", "rss_mb"),
    "identity.key_s": ("s", "lower", "identity.key", "seconds"),
    "identity.key_calls": ("count", "lower", "identity.key", "calls"),
    "recode.letter_s": ("s", "lower", "recode.letter", "seconds"),
    "recode.letter_calls": ("count", "lower", "recode.letter", "calls"),
    "aggregate.fold_s": ("s", "lower", "aggregate.fold", "busy"),
    "aggregate.households": ("count", "higher", "aggregate.fold", "items"),
    "aggregate.parse_age_calls": ("count", "lower", "aggregate.parse_age", "calls"),
    "aggregate.parse_age_s": ("s", "lower", "aggregate.parse_age", "seconds"),
    "aggregate.parse_gender_calls": ("count", "lower", "aggregate.parse_gender", "calls"),
    "scales.weight_calls": ("count", "lower", "scales.weight", "calls"),
    "pipeline.format_s": ("s", "lower", "pipeline.format", "seconds"),
    "pipeline.format_calls": ("count", "lower", "pipeline.format", "calls"),
    "pipeline.table_write_s": ("s", "lower", "pipeline.table_write", "busy"),
    "pipeline.self_s": ("s", "lower", "pipeline.run", "self"),
    "cli.startup_s": ("s", "lower", "pipeline.run", "startup"),
    "trace.overhead_s": ("s", "lower", None, None),
}


@dataclass
class Inputs:
    """One generated workload: its size, the ground truth and the CLI
    arguments that run it."""

    persons: int
    truth: tuple
    cli_args: list


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    error: str | None       # None when the child exited 0 with correct outputs
    trace: dict | None = None
    probe_s: float | None = None   # mean probe time around an untraced child


def probe() -> float:
    """Seconds the host takes, right now, for PROBE_LOOPS of a fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


# --- set-up -----------------------------------------------------------------

def _write_config(path: Path, params: SynthParams, table: bool) -> None:
    if table:
        source = "mode = table\ntable = persons.csv\n"
    else:
        income_file = (LETTER_INCOME_FILE if params.income_mode is IncomeMode.LETTERS
                       else NUMERIC_INCOME_FILE)
        source = f"mode = columns\nincome = {income_file}\n"
    path.write_text(
        f"[input]\ndir = .\n{source}"
        f"[identify]\nscheme = {''.join(params.scheme_letters)}\n"
        "[variables]\nage_encoding = years\ngender_encoding = male1_female2\n"
        f"[income]\nmode = {params.income_mode.value}\n"
        "[scales]\noxford = true\nfaofam = true\ndmp = true\n"
        f"dmp_c = {params.dmp_c!r}\ndmp_s = {params.dmp_s!r}\n"
        f"scaled_by = {params.scaled_by.value}\n",
        encoding="utf-8",
    )


def shuffle_seed(seed: int) -> int:
    return seed + 1_000_000


def prepare(workload: Workload, seed: int, data_dir: Path) -> Inputs:
    """Generate the workload's inputs and ground truth and write the inputs."""
    params = workload.params(seed)
    result = generate(params)
    data_dir.mkdir(parents=True, exist_ok=True)
    if workload.table:
        persons = list(result.persons)
        random.Random(shuffle_seed(seed)).shuffle(persons)
        write_table(dataclasses.replace(result, persons=tuple(persons)),
                    data_dir / "persons.csv")
    else:
        write_column_files(result, data_dir)
    config = data_dir / "config.ini"
    _write_config(config, params, workload.table)
    cli_args = [workload.command, "--config", str(config)]
    if workload.table:
        cli_args.append("--sort")
    return Inputs(len(result.persons), result.ground_truth, cli_args)


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe_inputs(workload: Workload, seed: int, data_dir: Path) -> dict:
    """What a parent and a change run must share to be compared."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(data_dir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    params = {field.name: getattr(workload.params(seed), field.name)
              for field in dataclasses.fields(SynthParams)}
    return {
        "workload": workload.name,
        "seed": seed,
        "synth_params": {k: v.name if isinstance(v, Enum) else v
                         for k, v in params.items()},
        "shuffle_seed": shuffle_seed(seed) if workload.table else None,
        "input_bytes": size,
        "input_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


# --- output checks ----------------------------------------------------------

def render_number(value: float) -> str:
    """The number format households.csv promises: integers without a
    fraction, else the shortest decimal of at most 12 significant digits
    that reads back to the same double, else 12 digits. Restated here so
    that the check does not run the code it checks."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    for digits in range(1, 13):
        text = f"{value:.{digits}g}"
        if float(text) == value:
            return text
    return f"{value:.12g}"


def _cell_matches(cell: str, want, rel_tol: float) -> bool:
    if want is None:
        return cell == ""
    if isinstance(want, (str, int)):
        return cell == str(want)
    if rel_tol == 0:
        return cell == render_number(want)
    try:
        got = float(cell)
    except ValueError:
        return False
    return math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)


def check_households(path: Path, truth, *, key_order: bool, rel_tol: float) -> str | None:
    """Compare households.csv with the ground truth row by row; returns the
    first mismatch, or None."""
    expected = sorted(truth, key=lambda t: t.key.canonical) if key_order else truth
    try:
        with path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        return f"cannot read {path.name}: {exc}"
    if not rows or rows[0] != HOUSEHOLD_COLUMNS:
        return f"{path.name}: unexpected header"
    if len(rows) - 1 != len(expected):
        return f"{path.name}: {len(rows) - 1} rows, want {len(expected)}"
    for number, (row, t) in enumerate(zip(rows[1:], expected), 2):
        want = [t.key.canonical, t.size, t.n_adults, t.n_children, t.scale_oxford,
                t.scale_faofam, t.scale_dmp, t.total_income, t.scaled_income,
                t.label_area, t.label_chief_gender]
        if len(row) != len(want):
            return f"{path.name} line {number}: {len(row)} cells"
        for column, cell, value in zip(HOUSEHOLD_COLUMNS, row, want):
            if not _cell_matches(cell, value, rel_tol):
                return f"{path.name} line {number} {column}: got {cell!r}, want {value!r}"
    return None


def check_keys(path: Path, truth) -> str | None:
    """Every line of identhousehold.txt is its person's canonical key."""
    expected = [t.key.canonical for t in truth for _ in range(t.size)]
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        return f"cannot read {path.name}: {exc}"
    if lines[-1] == "":
        lines.pop()
    if len(lines) != len(expected):
        return f"{path.name}: {len(lines)} lines, want {len(expected)}"
    for number, (line, want) in enumerate(zip(lines, expected), 1):
        if line != want:
            return f"{path.name} line {number}: got {line!r}, want {want!r}"
    return None


def check_outputs(workload: Workload, truth, out_dir: Path) -> str | None:
    if workload.command == "identify":
        return check_keys(out_dir / "identhousehold.txt", truth)
    # --sort regroups shuffled members, so sums run in another order
    return check_households(out_dir / "households.csv", truth,
                            key_order=workload.table,
                            rel_tol=1e-9 if workload.table else 0.0)


# --- child runs -------------------------------------------------------------

def run_child(argv: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run one child to completion; returns (wall seconds, peak RSS in MB,
    exit code). A child still running after CHILD_TIMEOUT_S is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def run_once(workload: Workload, inputs: Inputs, work: Path, traced: bool) -> Sample:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_path = work / "trace.json"
    trace_path.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "layertrace.py"), str(trace_path)]
    else:
        argv = [sys.executable, "-m", "hdbprep.cli"]
    argv += inputs.cli_args + ["--out-dir", str(out_dir)]
    log_path = work / "child.log"
    wall, rss, code = run_child(argv, log_path)
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").strip()[-500:]
        return Sample(wall, rss, f"exit code {code}: {tail}")
    error = check_outputs(workload, inputs.truth, out_dir)
    trace = json.loads(trace_path.read_text(encoding="utf-8")) if traced else None
    return Sample(wall, rss, error, trace)


def run_for(workload: Workload, inputs: Inputs, work: Path, seconds: float,
            traced: bool, between) -> tuple[list[Sample], list[Sample]]:
    """Run children back to back for `seconds`, and at least MIN_RUNS,
    calling `between` after each. With `traced`, every untraced child is
    followed by a traced one, so that both see the same phases of the host.
    Returns the untraced and the traced samples."""
    plain, with_trace = [], []
    start = time.perf_counter()
    while len(plain) < MIN_RUNS or time.perf_counter() - start < seconds:
        before = probe()
        plain.append(run_once(workload, inputs, work, traced=False))
        plain[-1].probe_s = (before + probe()) / 2
        if traced:
            with_trace.append(run_once(workload, inputs, work, traced=True))
        between()
    return plain, with_trace


class SetUp:
    """Times `prepare` SETUP_REPEATS times, spread evenly over a run so that
    the repeats do not all fall into one phase of the host's speed. Each
    time is scaled to the reference host speed, like persons_per_s."""

    def __init__(self, workload: Workload, seed: int, data_dir: Path, seconds: float):
        self.args = (workload, seed, data_dir)
        self.interval = seconds / SETUP_REPEATS
        self.times: list[float] = []      # scaled
        self.unscaled: list[float] = []
        self.due = 0.0

    def __call__(self, force: bool = False) -> Inputs | None:
        """Set up again when due (or when forced); returns the inputs."""
        if len(self.times) >= SETUP_REPEATS or not force and time.perf_counter() < self.due:
            return None
        before = probe()
        start = time.perf_counter()
        inputs = prepare(*self.args)
        seconds = time.perf_counter() - start
        self.times.append(seconds * PROBE_REF_S / ((before + probe()) / 2))
        self.unscaled.append(seconds)
        self.due = start + self.interval
        return inputs


# --- metrics ----------------------------------------------------------------

def layer_metrics(trace: dict, wall_s: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced child; None where a wrapped function
    was missing."""
    missing_names = {entry["name"] for entry in trace["missing"]}
    spans = trace["spans"]
    metrics: dict[str, float | None] = {}
    for metric, (_, _, name, field) in PER_LAYER.items():
        if name is None:
            continue
        if name in missing_names:
            metrics[metric] = None
            continue
        mine = [s for s in spans if s["name"] == name]
        if field in ("calls", "seconds"):
            calls, seconds = trace["counters"].get(name, (0, 0.0))
            metrics[metric] = calls if field == "calls" else seconds
        elif field == "busy":
            metrics[metric] = sum((s["busy_s"] for s in mine), 0.0)
        elif field == "self":
            metrics[metric] = sum(s["busy_s"] - s["child_s"] for s in mine)
        elif field == "startup":
            metrics[metric] = wall_s - sum(s["busy_s"] for s in mine) if mine else None
        elif field == "rss_mb":
            metrics[metric] = max((s["attrs"][field] for s in mine), default=0.0)
        else:
            values = [s["attrs"].get(field) for s in mine]
            metrics[metric] = None if None in values else sum(values)
    return metrics


def tail(values: list[float], better: str) -> tuple[int, float] | None:
    """The worst-side percentile with at least TAIL_RUNS values beyond it,
    as (percentile, value); None when there are too few values for one
    beyond the median."""
    n = len(values)
    if n < 2 * TAIL_RUNS + 1:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    index = n - 1 - TAIL_RUNS
    return round(100 * index / (n - 1)), ordered[index]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench_workload(workload: Workload, seed: int, seconds: float,
                   traced: bool) -> tuple[dict, int, int]:
    """Set up, run and check one workload; prints its metrics and returns
    (metrics, attempted, failed)."""
    work = WORK / f"{workload.name}-{os.getpid()}"
    data_dir = work / "data"
    try:
        set_up = SetUp(workload, seed, data_dir, seconds)
        inputs = set_up(force=True)
        print("inputs: " + json.dumps(describe_inputs(workload, seed, data_dir),
                                      sort_keys=True), flush=True)

        warmup = run_once(workload, inputs, work, traced=False)
        plain, with_trace = run_for(workload, inputs, work, seconds, traced, set_up)
        while set_up(force=True):
            pass

        if traced:
            metrics = _per_layer(workload, plain, with_trace)
        else:
            metrics = _end_to_end(workload, inputs, plain, set_up)
        samples = [warmup] + plain + with_trace
        failed = [s for s in samples if s.error is not None]
        for sample in failed[:3]:
            print(f"{workload.name} failed run: {sample.error}")
        print(f"{workload.name} failed_share: {len(failed) / len(samples):.4g} "
              f"({len(failed)} of {len(samples)} runs, warm-up included)", flush=True)
        return metrics, len(samples), len(failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(workload: Workload, inputs: Inputs, plain: list[Sample],
                set_up: SetUp) -> dict:
    """Medians over the run. persons_per_s and setup_s are scaled to the
    reference host speed; unscaled figures are printed beside them."""
    values = {
        "persons_per_s": [inputs.persons / s.wall_s * s.probe_s / PROBE_REF_S
                          for s in plain],
        "peak_rss_mb": [s.rss_mb for s in plain],
        "setup_s": set_up.times,
    }
    walls = [s.wall_s for s in plain]
    print(f"{workload.name} unscaled: persons/s median "
          f"{inputs.persons / statistics.median(walls):.6g}, best "
          f"{inputs.persons / min(walls):.6g}; setup_s median "
          f"{statistics.median(set_up.unscaled):.4g}; probe median "
          f"{statistics.median(s.probe_s for s in plain):.4g} s")
    metrics = {}
    for name, series in values.items():
        unit, better = END_TO_END[name]
        value = statistics.median(series)
        line = f"{workload.name} {name}: median {value:.6g} {unit} over {len(series)} runs"
        worst = tail(series, better)
        line += (f", p{worst[0]} {worst[1]:.6g}" if worst else
                 f", no tail percentile below {2 * TAIL_RUNS + 1} runs")
        print(line)
        metrics[name] = _metric(value, unit)
    return metrics


def _per_layer(workload: Workload, plain: list[Sample],
               with_trace: list[Sample]) -> dict:
    """Median per-layer metrics over the traced runs. Counts must repeat
    exactly between traced runs; one that does not fails the first traced
    run."""
    rows = [layer_metrics(s.trace, s.wall_s) for s in with_trace if s.trace is not None]
    metrics = {}
    for name, (unit, *_) in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(t.wall_s - p.wall_s
                                      for p, t in zip(plain, with_trace))
        else:
            values = [row[name] for row in rows]
            if not values or None in values:
                value = None
            elif unit in ("count", "B"):
                if len(set(values)) > 1:
                    with_trace[0].error = f"{name} differs between traced runs: {values}"
                value = values[0]
            else:
                value = statistics.median(values)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"{workload.name} {name}: {shown}")
        metrics[name] = _metric(value, unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long to run children per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result, tried, bad = bench_workload(WORKLOADS[name], args.seed, args.seconds,
                                            bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in result.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
