"""The benchmark's per-layer tracer still finds every layer it measures.

`bench/layertrace.py` wraps functions of `hdbprep.cli`, `hdbprep.pipeline`
and `hdbprep.aggregate` by name and reads some of their results, for
example the person count as the `len()` of the reader's result. A
refactor that renames such a function or changes such a result turns a
benchmark metric into null without failing anything else. These tests run
the CLI in process under that tracer on small synthetic databases and
check that no metric of `bench/run.py`'s `layer_metrics` is None, and
that the persons, input bytes and households it counts are those of the
run. They skip when the tracer is gone.
"""

import dataclasses
import importlib
import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest

from hdbprep.cli import main
from hdbprep.model import IncomeMode
from hdbprep.synth import SynthParams, generate, write_column_files, write_table

BENCH = Path(__file__).resolve().parents[1] / "bench"

pytestmark = pytest.mark.skipif(not (BENCH / "layertrace.py").is_file(),
                                reason="the benchmark has no layer tracer")


def _module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """(layertrace, run): the tracer module and the benchmark's runner."""
    return _module("layertrace"), _module("run")


def traced(layertrace, argv):
    """The trace of one in-process CLI run and its wall time; every module
    attribute the tracer wraps is restored afterwards."""
    originals = []
    for module_name, attr, *_ in layertrace.WRAPS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            originals.append((module, attr, getattr(module, attr)))
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        start = time.perf_counter()
        assert main(argv) == 0
        wall = time.perf_counter() - start
    finally:
        for module, attr, value in originals:
            setattr(module, attr, value)
    return tracer.as_dict(), wall


STRATA_FILES = ("region.txt", "milieu.txt", "cluster.txt", "household.txt")


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    """(persons, households, config) of a letter-income database written as
    column files and of a numeric one written as a person-shuffled table."""
    data = tmp_path_factory.mktemp("trace")
    letters = generate(SynthParams(n_households=40, seed=5))
    write_column_files(letters, data / "columns")
    numeric = generate(SynthParams(n_households=40, seed=5, income_mode=IncomeMode.NUMERIC))
    persons = list(numeric.persons)
    random.Random(6).shuffle(persons)
    write_table(dataclasses.replace(numeric, persons=tuple(persons)),
                data / "table" / "persons.csv")
    columns = data / "columns" / "config.ini"
    columns.write_text("[income]\nmode = letters\n", encoding="utf-8")
    table = data / "table" / "config.ini"
    table.write_text("[input]\nmode = table\ntable = persons.csv\n[income]\nmode = numeric\n",
                     encoding="utf-8")
    return {"columns": (len(letters.persons), len(letters.ground_truth), columns),
            "table": (len(numeric.persons), len(numeric.ground_truth), table)}


@pytest.mark.parametrize("command, reads", [
    (["run"], STRATA_FILES + ("age.txt", "gender.txt", "poswrchief.txt", "monthlyincomeNT.txt")),
    (["identify"], STRATA_FILES),
    (["run", "--sort"], ("persons.csv",)),
], ids=["run-columns", "identify", "run-sorted-table"])
def test_every_layer_metric_is_a_number(command, reads, bench, databases, tmp_path):
    layertrace, run = bench
    persons, households, config = databases["table" if "--sort" in command else "columns"]
    trace, wall = traced(layertrace, [command[0], "--config", str(config),
                                      "--out-dir", str(tmp_path), *command[1:]])
    assert trace["missing"] == []
    metrics = run.layer_metrics(trace, wall)
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["ingest.persons"] == persons
    # a count that reads 0 where work was done is as wrong as a missing one
    assert metrics["ingest.bytes_in"] == sum((config.parent / name).stat().st_size
                                             for name in reads)
    assert metrics["aggregate.households"] == (households if command[0] == "run" else 0)
