"""Byte-identity grid: run the same CLI cases on two source trees and
compare everything each case leaves behind.

    python tools/output_grid.py PARENT_SRC CHANGE_SRC [--jobs N] [--case ID ...]

PARENT_SRC and CHANGE_SRC are directories holding the `hdbprep` package,
for example the `src` of a clean checkout of the parent commit and this
checkout's `src`. Each corpus is generated twice, once by each tree's
`hdbprep synth`, and each tree's cases run on the corpus its own synth
made:

* 48 clean corpora: synth seeds 3 and 11, 400 households, `--regions 6
  --max-clusters 8 --max-per-cluster 12 --max-size 12`, with letter,
  numeric or no incomes, ages in years or in classes, with and without
  `--anomalies` and `--renumber`;
* 12 table corpora: the seed-3 corpora without `--renumber`, read from
  one `persons.csv` in table mode;
* 12 shuffled-table corpora: the same tables with their data rows in a
  fixed random order (seed SHUFFLE_SEED), so that a household's members
  lie apart; every case on them adds `--sort`;
* 18 corpora with injected faults (FAULTS below), and 11 shuffled
  tables with injected faults (TABLE_FAULTS below), so that every error
  code the CLI can reach is reached, two faults meet in line order (a
  fold error before a key or income error; a household's error against
  one on the next household's first line), and --sort's key order meets
  line order in fold errors and warnings;
* 8 corpora with one config edit each (CONFIGS below): the DMP scale
  off, so that a DMP flag turning it on is compared; the DMP scale off
  with a `dmp_c` that is not a number; a misspelt input mode; income
  scaled by the DMP scale while it is off; an `[income_map]` code of two
  letters; an infinite `[income_map]` amount; an `[income_map]` that
  holds only a default; and every letter recoded to 1e308, so that
  household incomes overflow;
* 1 corpus, the seed-3 letters/years one with every third adult age
  respelt, in turn, as `3.4e1` for 34, which reads as the same age but
  whose leading numeric prefix is a child's, and as `3_4`, which is no
  age: BAD_AGE_TOKEN at its line, or under `--paper-sentinel` a child by
  its prefix 3.

That is 110 corpora, each built once per tree, and 3,300 cases.

Every corpus runs `run`, `aggregate`, `aggregate --only income size`,
`identify` and `recode-income`, each with no flag, `--paper-sentinel`,
`--sort`, `--scale faofam`, `--scale dmp --dmp-c 0.3` and the remaining
override flags together (`overrides` in FLAGS). A case's
output directory starts with a stale `households.csv` in it. The grid
compares the name and bytes of every file of the two builds of each
corpus, faults and config edits included, and of each case the exit
code, stdout and stderr (output, corpus and source directories masked)
and the name and bytes of every file in the output directory. It prints
each corpus and each case that differs with what differs, and exits 1
when any differs.
"""

from __future__ import annotations

import argparse
import csv
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (3, 11)
FRAME = ["--households", "400", "--regions", "6", "--max-clusters", "8",
         "--max-per-cluster", "12", "--max-size", "12"]

COMMANDS = {
    "run": ["run"],
    "aggregate": ["aggregate"],
    "aggregate-only": ["aggregate", "--only", "income", "size"],
    "identify": ["identify"],
    "recode-income": ["recode-income"],
}
FLAGS = {
    "plain": [],
    "sentinel": ["--paper-sentinel"],
    "sort": ["--sort"],
    "faofam": ["--scale", "faofam"],
    "dmp": ["--scale", "dmp", "--dmp-c", "0.3"],
    "overrides": ["--skip-header", "0", "--scheme", "DMCH", "--paper-literal",
                  "--dmp-s", "0.9", "--scale", "none"],
}
CHILD_TIMEOUT_S = 120
SHUFFLE_SEED = 20171229


def _replace_line(path: Path, line: int, token: str) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line - 1] = token
    path.write_text("\n".join(lines), encoding="utf-8")


def _first_adult_line(data: Path) -> int:
    ages = (data / "age.txt").read_text(encoding="utf-8").split("\n")
    return next(i for i, age in enumerate(ages, 1) if float(age) >= 15)


def _move_household(data: Path, line: int | None = None) -> None:
    """Give the person on ``line`` (by default the last) the strata of the
    first household."""
    for name in ("region.txt", "milieu.txt", "cluster.txt", "household.txt"):
        lines = (data / name).read_text(encoding="utf-8").split("\n")
        _replace_line(data / name, line or len(lines) - 1, lines[0])


def _household_lines(data: Path, index: int) -> range:
    """The lines of the household at ``index`` (0 for the first) in
    line order."""
    columns = [(data / name).read_text(encoding="utf-8").split("\n")
               for name in ("region.txt", "milieu.txt", "cluster.txt", "household.txt")]
    strata = list(zip(*columns))
    starts = [line for line in range(1, len(strata))
              if line == 1 or strata[line - 1] != strata[line - 2]]
    return range(starts[index], starts[index + 1])


def _children_household(data: Path, index: int = 0) -> None:
    """Make every member of the household at ``index`` a child, aged 5."""
    for line in _household_lines(data, index):
        _replace_line(data / "age.txt", line, "5")


def _drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join(lines[:-2] + [""]), encoding="utf-8")


def _config_line(data: Path, old: str, new: str) -> None:
    config = data / "config.ini"
    config.write_text(config.read_text(encoding="utf-8").replace(old, new),
                      encoding="utf-8")


def _add_income_map(data: Path, entries: str) -> None:
    with (data / "config.ini").open("a", encoding="utf-8") as config:
        config.write(f"[income_map]\n{entries}")


def _not_utf8(path: Path, line: int) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xe9" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


#: One fault each, injected into the seed-3 letters/years corpus.
FAULTS = {
    "bad-age": lambda d: _replace_line(d / "age.txt", 5, "x"),
    "unknown-letter": lambda d: _replace_line(d / "monthlyincomeNT.txt", 7, "Z"),
    "unknown-letter-after-bad-age": lambda d: (
        _replace_line(d / "age.txt", 3, "x"),
        _replace_line(d / "monthlyincomeNT.txt", 9, "Z")),
    "adult-gender-9": lambda d: _replace_line(d / "gender.txt", _first_adult_line(d), "9"),
    "prefix-letter-in-region": lambda d: _replace_line(d / "region.txt", 4, "1R"),
    "non-consecutive-household": _move_household,
    "short-column-file": lambda d: _drop_last_line(d / "gender.txt"),
    "dmp-out-of-range": lambda d: _config_line(d, "dmp_c = 0.5", "dmp_c = 1.5"),
    "not-utf8-region": lambda d: _not_utf8(d / "region.txt", 6),
    "blank-line-age": lambda d: _replace_line(d / "age.txt", 5, ""),
    "empty-gender-file": lambda d: (d / "gender.txt").write_text("", encoding="utf-8"),
    "missing-milieu-file": lambda d: (d / "milieu.txt").unlink(),
    "age-encoding-3": lambda d: _config_line(d, "age_encoding = years", "age_encoding = 3"),
    "lone-cr-in-cluster": lambda d: _replace_line(d / "cluster.txt", 5, "1\r2"),
    "non-consecutive-then-prefix-letter": lambda d: (
        _move_household(d, 50),
        _replace_line(d / "region.txt", 100, "1R")),
    "zero-scale-then-unknown-letter": lambda d: (
        _children_household(d),
        _config_line(d, "dmp_c = 0.5", "dmp_c = 0"),
        _config_line(d, "scaled_by = oxford", "scaled_by = dmp"),
        _replace_line(d / "monthlyincomeNT.txt", 100, "Z")),
    "zero-scale-then-returning-household": lambda d: (
        _children_household(d, 1),
        _config_line(d, "dmp_c = 0.5", "dmp_c = 0"),
        _config_line(d, "scaled_by = oxford", "scaled_by = dmp"),
        _move_household(d, _household_lines(d, 2)[0])),
    "zero-scale-then-next-household-letter": lambda d: (
        _children_household(d),
        _config_line(d, "dmp_c = 0.5", "dmp_c = 0"),
        _config_line(d, "scaled_by = oxford", "scaled_by = dmp"),
        _replace_line(d / "monthlyincomeNT.txt", _household_lines(d, 1)[0], "Z")),
}


def _shuffle_table(data: Path) -> None:
    """Put the data rows of persons.csv in a fixed random order."""
    header, *rows = (data / "persons.csv").read_text(encoding="utf-8").splitlines()
    random.Random(SHUFFLE_SEED).shuffle(rows)
    (data / "persons.csv").write_text("".join(f"{row}\n" for row in [header, *rows]),
                                      encoding="utf-8")


def _edit_table(data: Path, edit) -> None:
    """Rewrite persons.csv after ``edit`` changed its list of rows, each a
    list of cells, the header row first."""
    path = data / "persons.csv"
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _collide_household(rows: list[list[str]], row: int = 7) -> None:
    """Append the prefix letter H to the household token of every member
    of the household on the given data row."""
    strata = rows[row][:4]
    for cells in rows[1:]:
        if cells[:4] == strata:
            cells[3] += "H"


def _add_note(rows: list[list[str]], row: int, text: str) -> None:
    """Add a note column, empty but for ``text`` on the given data row."""
    for cells in rows:
        cells.append("")
    rows[0][-1] = "note"
    rows[row][-1] = text


def _note_then_bad_age(rows: list[list[str]]) -> None:
    """Add a note column, a line break in the note of data row 2 and a bad
    age on data row 6."""
    _add_note(rows, 2, "multi\nline note")
    rows[6][4] = "x"


def _note_then_prefix_letter(rows: list[list[str]]) -> None:
    """Add a note column, a line break in the note of data row 2 and the
    prefix letter H in the household of data row 6."""
    _add_note(rows, 2, "multi\nline note")
    _collide_household(rows, 6)


def _canonical(cells: list[str]) -> str:
    """The canonical household key of a row under the default scheme."""
    return "R{}M{}C{}H{}".format(*cells[:4])


def _unknown_ages(rows: list[list[str]]) -> None:
    """Age 99 on five data rows, and the chief flag on three more, so that
    households meet AGE_MISSING and MULTIPLE_CHIEFS in key order, not in
    line order."""
    for row in (2, 5, 9, 14, 20):
        rows[row][4] = "99"
    for row in (3, 4, 8):
        rows[row][6] = "1"


def _bad_ages_against_key_order(rows: list[list[str]]) -> None:
    """Bad ages on data row 1 and on the first later row whose household
    comes before row 1's in key order."""
    later = next(cells for cells in rows[2:] if _canonical(cells) < _canonical(rows[1]))
    rows[1][4], later[4] = "x", "y"


def _children_first_then_bad_age(rows: list[list[str]]) -> None:
    """Make every member of the first household in key order a child, and
    put a bad age on data row 1, which belongs to a later household and
    lies before that household's first row."""
    first = min(rows[1:], key=_canonical)[:4]
    assert rows[1][:4] != first
    for cells in rows[1:]:
        if cells[:4] == first:
            cells[4] = "5"
    rows[1][4] = "x"


def _set_cell(row: int, column: int, text: str):
    """An edit that sets one cell; row 0 is the header."""
    def edit(rows: list[list[str]]) -> None:
        rows[row][column] = text
    return edit


#: One fault each, injected into the shuffled seed-3 letters/years table.
TABLE_FAULTS = {
    "prefix-letter-in-household": lambda d: _edit_table(d, _collide_household),
    "missing-gender-column": lambda d: _edit_table(d, _set_cell(0, 5, "sex")),
    "short-row": lambda d: _edit_table(d, lambda rows: rows[9].pop()),
    "empty-age-cell": lambda d: _edit_table(d, _set_cell(11, 4, "")),
    "line-break-in-cluster": lambda d: _edit_table(d, _set_cell(13, 2, "1\n2")),
    "multi-line-note-then-bad-age": lambda d: _edit_table(d, _note_then_bad_age),
    "multi-line-note-then-prefix-letter": lambda d: _edit_table(d, _note_then_prefix_letter),
    # over the csv module's default field size limit of 131,072 characters
    "oversized-note": lambda d: _edit_table(d, lambda rows: _add_note(rows, 2, "x" * 140_000)),
    "strict-unknown-ages": lambda d: (
        _config_line(d, "gender_encoding = male1_female2",
                     "gender_encoding = male1_female2\nmissing_age_policy = strict"),
        _edit_table(d, _unknown_ages)),
    "bad-ages-against-key-order": lambda d: _edit_table(d, _bad_ages_against_key_order),
    "zero-scale-then-earlier-bad-age": lambda d: (
        _config_line(d, "dmp_c = 0.5", "dmp_c = 0"),
        _config_line(d, "scaled_by = oxford", "scaled_by = dmp"),
        _edit_table(d, _children_first_then_bad_age)),
}

#: One config edit each, made to the seed-3 letters/years corpus.
CONFIGS = {
    "dmp-disabled": lambda d: _config_line(d, "dmp = true", "dmp = false"),
    "dmp-disabled-dmp-c-not-a-number": lambda d: (
        _config_line(d, "dmp = true", "dmp = false"),
        _config_line(d, "dmp_c = 0.5", "dmp_c = half")),
    "input-mode-typo": lambda d: _config_line(d, "mode = columns", "mode = colums"),
    "scaled-by-disabled-scale": lambda d: (
        _config_line(d, "dmp = true", "dmp = false"),
        _config_line(d, "scaled_by = oxford", "scaled_by = dmp")),
    "income-map-two-letter-code": lambda d: _add_income_map(d, "AB = 5\n"),
    "income-map-infinite-amount": lambda d: _add_income_map(d, "A = inf\ndefault = 0\n"),
    "income-map-only-default": lambda d: _add_income_map(d, "default = 5\n"),
    "income-overflow": lambda d: _add_income_map(d, "Z = 0\ndefault = 1e308\n"),
}


def _respell_adult_ages(data: Path) -> None:
    """Respell every third adult age, in turn as an exponent and with an
    underscore: 34 as `3.4e1`, then the next as `3_4`."""
    path = data / "age.txt"
    ages = path.read_text(encoding="utf-8").split("\n")
    adults = [i for i, age in enumerate(ages) if age and float(age) >= 15][::3]
    for n, i in enumerate(adults):
        tens, units = ages[i][:-1], ages[i][-1]
        ages[i] = f"{tens}.{units}e1" if n % 2 == 0 else f"{tens}_{units}"
    path.write_text("\n".join(ages), encoding="utf-8")


def corpora() -> dict[str, tuple[list[str], str, object]]:
    """Corpus name -> (synth flags, layout, fault or None); the layout is
    "columns", "table" or "shuffled" (a shuffled table, run with --sort)."""
    specs = {}
    for seed in SEEDS:
        for income in ("letters", "numeric", "none"):
            for encoding in ("years", "classes"):
                for anomalies in (False, True):
                    for renumber in (False, True):
                        flags = ["--seed", str(seed), "--income", income,
                                 "--age-encoding", encoding]
                        flags += ["--anomalies"] if anomalies else []
                        flags += ["--renumber"] if renumber else []
                        name = (f"s{seed}-{income}-{encoding}"
                                f"-{'anomalies' if anomalies else 'clean'}"
                                f"-{'renumber' if renumber else 'continuous'}")
                        specs[name] = (flags, "columns", None)
                        if seed == SEEDS[0] and not renumber:
                            specs[f"table-{name}"] = (flags, "table", None)
                            specs[f"shuffled-{name}"] = (flags, "shuffled", None)
    base = ["--seed", str(SEEDS[0]), "--income", "letters", "--age-encoding", "years"]
    for fault, inject in FAULTS.items():
        specs[f"fault-{fault}"] = (base, "columns", inject)
    for fault, inject in TABLE_FAULTS.items():
        specs[f"fault-shuffled-{fault}"] = (base, "shuffled", inject)
    for name, edit in CONFIGS.items():
        specs[f"config-{name}"] = (base, "columns", edit)
    specs["respelt-adult-ages"] = (base, "columns", _respell_adult_ages)
    return specs


def cases() -> list[str]:
    """Every case id, `corpus/command/flags`."""
    return [f"{corpus}/{command}/{flag}"
            for corpus in corpora() for command in COMMANDS for flag in FLAGS]


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def build_corpus(src: Path, name: str, directory: Path) -> Path:
    flags, layout, inject = corpora()[name]
    table = layout != "columns"
    subprocess.run(
        [sys.executable, "-m", "hdbprep.cli", "synth", *flags, *FRAME,
         "--out-dir", str(directory)] + (["--table"] if table else []),
        env=_env(src), check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if table:
        _config_line(directory, "mode = columns", "mode = table\ntable = persons.csv")
    if layout == "shuffled":
        _shuffle_table(directory)
    if inject is not None:
        inject(directory)
    return directory


def run_case(src: Path, corpus: Path, command: str, flag: str, out_dir: Path,
             sort: bool = False) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one case;
    ``sort`` adds --sort to its flags."""
    out_dir.mkdir(parents=True)
    (out_dir / "households.csv").write_text("stale\n", encoding="utf-8")
    flags = FLAGS[flag] + (["--sort"] if sort and "--sort" not in FLAGS[flag] else [])
    argv = [sys.executable, "-m", "hdbprep.cli", COMMANDS[command][0],
            "--config", str(corpus / "config.ini"), "--out-dir", str(out_dir),
            *COMMANDS[command][1:], *flags]
    done = subprocess.run(argv, env=_env(src), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)

    def mask(text: bytes) -> bytes:
        return (text.replace(str(out_dir).encode(), b"<OUT>")
                .replace(str(corpus).encode(), b"<DATA>")
                .replace(str(src).encode(), b"<SRC>"))

    files = _files(out_dir)
    shutil.rmtree(out_dir)
    return done.returncode, mask(done.stdout), mask(done.stderr), files


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _differing_files(files_a: dict[str, bytes], files_b: dict[str, bytes]) -> list[str]:
    return [f"file {name}" for name in sorted(set(files_a) | set(files_b))
            if files_a.get(name) != files_b.get(name)]


def differences(parent: tuple, change: tuple) -> list[str]:
    """What differs between the results of one case on the two trees."""
    found = [what for what, a, b in zip(("exit code", "stdout", "stderr"), parent, change)
             if a != b]
    return found + _differing_files(parent[3], change[3])


SIDES = ("parent", "change")


def compare(parent_src: Path, change_src: Path, selected: list[str], work: Path,
            jobs: int = 2) -> tuple[list[tuple[str, list[str]]],
                                    list[tuple[str, list[str], tuple, tuple]]]:
    """Build the corpora of the selected cases and run the cases, each on
    both trees; returns the corpora that differ as (corpus, what differs)
    and the cases that differ as (case id, what differs, parent result,
    change result)."""
    trees = dict(zip(SIDES, (parent_src.resolve(), change_src.resolve())))
    names = sorted({case.split("/")[0] for case in selected})
    paths = {(name, side): build_corpus(src, name, work / "corpora" / side / name)
             for name in names for side, src in trees.items()}
    corpus_diffs = [(name, what) for name in names
                    if (what := _differing_files(*(_files(paths[name, side])
                                                   for side in SIDES)))]

    def one(index_case):
        index, case = index_case
        corpus, command, flag = case.split("/")
        sort = corpora()[corpus][1] == "shuffled"
        results = [run_case(src, paths[corpus, side], command, flag,
                            work / "out" / f"{index}-{side}", sort)
                   for side, src in trees.items()]
        return case, differences(*results), *results

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return corpus_diffs, [row for row in pool.map(one, enumerate(selected)) if row[1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--jobs", type=int, default=2, help="cases run at once")
    parser.add_argument("--case", action="append", metavar="ID",
                        help="run only this case (corpus/command/flags); repeatable")
    args = parser.parse_args(argv)
    known = cases()
    selected = args.case or known
    unknown = [case for case in selected if case not in known]
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}")
    with tempfile.TemporaryDirectory(prefix="output_grid_") as work:
        differing_corpora, differing = compare(args.parent_src, args.change_src, selected,
                                               Path(work), jobs=args.jobs)
    for corpus, what in differing_corpora:
        print(f"DIFF corpus {corpus}: {', '.join(what)}")
    for case, what, parent, change in differing:
        print(f"DIFF {case}: {', '.join(what)} (exit {parent[0]} -> {change[0]})")
        for label, result in (("parent", parent), ("change", change)):
            if result[2]:
                print(f"  {label} stderr: {result[2].decode(errors='replace').strip()}")
    n_corpora = len({case.split("/")[0] for case in selected})
    print(f"{n_corpora} corpora, {len(differing_corpora)} differ; "
          f"{len(selected)} cases, {len(differing)} differ")
    return 1 if differing_corpora or differing else 0


if __name__ == "__main__":
    # a stopped grid leaves through its `with` blocks, which remove its work
    # directory; installed here, so that a caller of main keeps its own handler
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
