"""Mutation checks that can be run again: each mutant is one exact edit of
the tree that named tests must fail.

    python tools/mutants.py

For each mutant in MUTANTS the tree (`src`, `tests`, `demos`, `tools`, the
README and `pyproject.toml`) is copied to a temporary directory, and the
mutant's old text, which must occur exactly once in its file, is replaced
by its new text. Then `python -m pytest -x` runs the mutant's test node
ids in the copy, against the copy's `src`. The mutant is killed when the
tests fail, and survived when they pass. An edit that cannot be applied,
or a pytest run that neither passes nor fails (a node id that matches no
test, a run past TIMEOUT), is an error. First every mutant's tests
run on an unedited copy, where they must pass, or no kill would mean
anything. It prints one line per mutant with its time, and exits 1 when
any mutant survived or is an error.

A refactor that moves mutated code updates its mutant here in the same
change: `tests/test_mutants.py` checks that each old text still occurs
exactly once. A correctness change adds a mutant for each new check.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: What is copied for each mutant: what the tests read.
TREE = ("src", "tests", "demos", "tools", "README.md", "pyproject.toml")

#: Seconds one pytest run may take before its mutant is an error.
TIMEOUT = 600.0


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


AGGREGATE = "src/hdbprep/aggregate.py"
PIPELINE = "src/hdbprep/pipeline.py"
INGEST = "src/hdbprep/ingest.py"
SYNTH = "src/hdbprep/synth.py"

MUTANTS = (
    # the member-token rules and the weights
    Mutant("chief-token-2", AGGREGATE, 'is_chief = chief_token == "1"',
           'is_chief = chief_token == "2"', ("tests/test_aggregate.py::TestLabels",)),
    Mutant("adult-female-weight", "src/hdbprep/scales.py", "WEIGHT_ADULT_FEMALE = 0.8",
           "WEIGHT_ADULT_FEMALE = 0.85", ("tests/test_scales.py::TestFaofamWeight",)),
    Mutant("dmp-c-on-adults", "src/hdbprep/scales.py",
           "float(n_adults + c * n_children) ** s", "float(c * n_adults + n_children) ** s",
           ("tests/test_scales.py::TestDmpScale",)),
    Mutant("token-table-ignores-cap", AGGREGATE, "if len(self) < TOKEN_TABLE_SIZE:",
           "if True:", ("tests/test_cli.py::TestTokenTableCap",)),
    # a table block's first lines (read_table's ranges)
    Mutant("column-block-lines-shifted", INGEST,
           "runs = [range(before + 1, reader.line_num + 1)]",
           "runs = [range(before + 2, reader.line_num + 2)]",
           ("tests/test_cli.py::TestTableBlockSize",
            "tests/test_ingest.py::TestReadTableBlocks")),
    Mutant("row-block-mid-run-widened", INGEST, "runs.append(range(start, first - breaks))",
           "runs.append(range(start, first - breaks + 1))",
           ("tests/test_cli.py::TestTableBlockSize",
            "tests/test_ingest.py::TestReadTableBlocks")),
    Mutant("row-block-last-run-shifted", INGEST, "runs.append(range(start, first))",
           "runs.append(range(start + 1, first + 1))",
           ("tests/test_ingest.py::TestReadTable::"
            "test_starts_hold_the_rows_after_multi_line_rows",
            "tests/test_ingest.py::TestReadTableBlocks")),
    # the read-token rule
    Mutant("bom-inside-a-token-taken", INGEST, ' and "\\ufeff" not in text:', ":",
           ("tests/test_cli.py::TestByteOrderMarkInsideAFile",)),
    Mutant("blank-line-before-other-refused-lines", INGEST,
           "index = next(i for i, token in enumerate(tokens) if token in bad)",
           'index = tokens.index("") if "" in bad else next(i for i, token in '
           "enumerate(tokens) if token in bad)",
           ("tests/test_ingest.py::TestFirstRefusedLine",)),
    Mutant("column-file-bom-kept", INGEST, 'text = path.read_bytes().decode("utf-8-sig")',
           'text = path.read_bytes().decode("utf-8")',
           ("tests/test_laws.py::test_crlf_a_bom_and_padding_change_nothing",)),
    # warnings
    Mutant("twenty-one-warnings-kept", PIPELINE, "WARNINGS_KEPT = 20", "WARNINGS_KEPT = 21",
           ("tests/test_cli.py::TestWarningsAreBounded",)),
    Mutant("warnings-past-the-cap-built", AGGREGATE, 'if missing and wants("AGE_MISSING"):',
           "if missing and warnings is not None:",
           ("tests/test_cli.py::TestWarningsAreBounded::"
            "test_warnings_past_the_cap_are_never_built",)),
    # the laws
    Mutant("chief-label-carried-over", AGGREGATE,
           "state = [key, line, 0, 0, 0, 0.0, 0.0, 0.0, NO_CHIEF_LABEL]",
           "state = [key, line, 0, 0, 0, 0.0, 0.0, 0.0, chief_label if seen else NO_CHIEF_LABEL]",
           ("tests/test_laws.py::test_concatenated_corpora_give_concatenated_outputs",)),
    Mutant("member-error-at-first-line", AGGREGATE, "raise exc.at(source=source, line=line)",
           "raise exc.at(source=source, line=first_line)",
           ("tests/test_laws.py::test_a_clean_corpus_before_a_fault_shifts_its_line",)),
    Mutant("size-file-holds-adults", PIPELINE, '"size": ("sizehousehold.txt", "size"),',
           '"size": ("sizehousehold.txt", "n_adults"),',
           ("tests/test_laws.py::test_a_selected_output_is_the_one_run_writes",)),
    Mutant("household-file-reads-next-column", PIPELINE,
           "HouseholdAggregate._fields.index(field))",
           "HouseholdAggregate._fields.index(field) + 1)",
           ("tests/test_laws.py::test_a_selected_output_is_the_one_run_writes",)),
    Mutant("sorted-households-unsorted", AGGREGATE, "for canonical in sorted(opened):",
           "for canonical in list(opened):",
           ("tests/test_laws.py::test_shuffled_persons_give_the_same_household_files",)),
    # exact oracle cells
    Mutant("income-amount-changed", "src/hdbprep/recode.py", '"A": 14500.0,',
           '"A": 14500.0000001,', ("tests/test_oracle.py::test_run_matches_file_oracle",)),
    Mutant("eleven-digits", PIPELINE, 'return f"{value:.12g}"', 'return f"{value:.11g}"',
           ("tests/test_oracle.py::test_run_matches_file_oracle",)),
    # all-or-nothing writes
    Mutant("directory-target-not-refused", PIPELINE, "if target.is_dir():", "if False:",
           ("tests/test_cli.py::TestAllOrNothingWrites::"
            "test_a_directory_in_place_of_an_output_changes_no_file",)),
    Mutant("synth-staged-file-by-file", "src/hdbprep/cli.py",
           "paths = _write_staged(Path(args.out_dir), writes)",
           "paths = [path for write in writes for path in _write_staged(Path(args.out_dir), "
           "[write])]",
           ("tests/test_cli.py::TestAllOrNothingWrites::test_a_failed_synth_changes_no_file",)),
    # the config file
    Mutant("config-bom-kept", PIPELINE, 'data.decode("utf-8-sig")', 'data.decode("utf-8")',
           ("tests/test_cli.py::TestConfigByteOrderMark::test_a_bom_changes_nothing",)),
    # the key and the generator
    Mutant("key-letters-reordered", "src/hdbprep/identity.py",
           'f"{r}{region}{m}{milieu}{c}{cluster}{h}{household}"',
           'f"{m}{milieu}{r}{region}{c}{cluster}{h}{household}"',
           ("tests/test_identity.py::TestMakeHouseholdKey::test_canonical_form",)),
    Mutant("below-bound-widened", SYNTH, "while r >= n:", "while r > n:",
           ("tests/test_synth.py::TestBytes::test_below_draws_what_randrange_draws",)),
    Mutant("table-writer-ignores-delimiter", SYNTH,
           "csv.writer(handle, delimiter=delimiter, ", "csv.writer(handle, ",
           ("tests/test_laws.py::test_columns_and_a_table_give_the_same_outputs",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Edit the mutant's file under ``root``; ValueError unless its old
    text occurs exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: old text occurs {count} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def check(mutant: Mutant | None) -> str:
    """"killed", "survived" or "error: ..." for one mutant; for None,
    "survived" when every mutant's tests pass on the unedited tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        copy = Path(work)
        for name in TREE:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, copy / name)
        try:
            if mutant is not None:
                apply(mutant, copy)
        except ValueError as exc:
            return f"error: {exc}"
        tests = mutant.tests if mutant is not None else dict.fromkeys(
            node for each in MUTANTS for node in each.tests)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *tests], cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"error: tests still running after {TIMEOUT:g} s"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    last = done.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"error: pytest exit {done.returncode}: {last[0]}"


def main() -> int:
    start = time.perf_counter()
    baseline = check(None)
    print(f"unedited tree: {'passes' if baseline == 'survived' else baseline} "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    if baseline != "survived":
        return 1
    failed = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        outcome = check(mutant)
        failed += outcome != "killed"
        print(f"{outcome:<10} {mutant.name} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{failed} not killed; {time.perf_counter() - start:.1f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
