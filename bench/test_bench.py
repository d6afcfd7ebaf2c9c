"""Tests of the benchmark itself, on workloads shrunk to a few households.

Run from the repository root:  python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run as bench  # noqa: E402


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], households=40)


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_run_of_each_workload(name, capsys):
    metrics, attempted, failed = bench.bench_workload(tiny(name), seed=5, seconds=0,
                                                      traced=False)
    assert (attempted, failed) == (1 + bench.MIN_RUNS, 0)
    assert set(metrics) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert '"input_sha256"' in capsys.readouterr().out


def test_traced_run_reports_every_layer_metric():
    metrics, _, failed = bench.bench_workload(tiny("columns_letters"), seed=5,
                                              seconds=0, traced=True)
    assert failed == 0
    assert set(metrics) == set(bench.PER_LAYER)
    assert all(m["value"] is not None for m in metrics.values())
    persons = metrics["ingest.persons"]["value"]
    assert metrics["aggregate.parse_age_calls"]["value"] == 4 * persons
    assert metrics["identity.key_calls"]["value"] == persons
    assert metrics["aggregate.households"]["value"] == 40


def test_corrupted_cell_counts_as_failed_run(monkeypatch):
    real_run_child = bench.run_child
    calls = []

    def run_child_then_corrupt(argv, log_path):
        result = real_run_child(argv, log_path)
        calls.append(argv)
        if len(calls) == 2:
            table = Path(argv[argv.index("--out-dir") + 1]) / "households.csv"
            lines = table.read_text(encoding="utf-8").split("\n")
            cells = lines[1].split(",")
            cells[4] = cells[4] + "1"  # scale_oxford of the first household
            lines[1] = ",".join(cells)
            table.write_text("\n".join(lines), encoding="utf-8")
        return result

    monkeypatch.setattr(bench, "run_child", run_child_then_corrupt)
    _, attempted, failed = bench.bench_workload(tiny("columns_letters"), seed=5,
                                                seconds=0, traced=False)
    assert attempted == len(calls) and failed == 1


def test_renamed_layer_function_yields_missing_metric(tmp_path, monkeypatch):
    inputs = bench.prepare(tiny("columns_letters"), 5, tmp_path / "data")
    for module_name, attr, *_ in layertrace.WRAPS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
    wraps = [(m, "parse_age_v2" if a == "parse_age" else a, *rest)
             for m, a, *rest in layertrace.WRAPS]
    tracer = layertrace.Tracer()
    tracer.install(wraps)
    from hdbprep.cli import main

    assert main(inputs.cli_args + ["--out-dir", str(tmp_path / "out")]) == 0
    metrics = bench.layer_metrics(json.loads(json.dumps(tracer.as_dict())), wall_s=60.0)
    assert metrics["aggregate.parse_age_calls"] is None
    assert metrics["aggregate.parse_age_s"] is None
    assert metrics["identity.key_calls"] == inputs.persons
    assert metrics["aggregate.parse_gender_calls"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "columns_letters", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, *_) in bench.PER_LAYER.items()}
