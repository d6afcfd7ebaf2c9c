import csv
import dataclasses
import gc
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hdbprep
from hdbprep.cli import _configure, build_parser, main
from hdbprep.identity import make_household_key
from hdbprep.model import _SPELLINGS, IncomeMode, MissingAgePolicy
from hdbprep.errors import HdbError
from hdbprep.pipeline import _CONFIG_KEYS, RunReport, WarningLog, load_config
from hdbprep.synth import SynthParams, generate, write_column_files, write_table


@pytest.fixture()
def synth_dir(tmp_path):
    data = tmp_path / "data"
    code = main(["synth", "--seed", "7", "--households", "12",
                 "--out-dir", str(data)])
    assert code == 0
    return data


class TestSynthCommand:
    def test_writes_columns_and_config(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "7", "--households", "12",
                     "--out-dir", str(data)]) == 0
        out = capsys.readouterr().out
        assert "persons:" in out
        assert "households: 12" in out
        for name in ("region.txt", "milieu.txt", "cluster.txt", "household.txt",
                     "age.txt", "gender.txt", "poswrchief.txt",
                     "monthlyincomeNT.txt", "config.ini"):
            assert (data / name).exists(), name

    def test_table_flag(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "7", "--households", "12",
                     "--out-dir", str(data), "--table"]) == 0
        assert (data / "persons.csv").exists()

    def test_bad_parameters_exit_two(self, tmp_path):
        code = main(["synth", "--seed", "1", "--households", "2",
                     "--out-dir", str(tmp_path / "d")])
        assert code == 2  # 2 households cannot fill the default 4 regions

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "5", "--households", "10", "--out-dir", str(a)])
        main(["synth", "--seed", "5", "--households", "10", "--out-dir", str(b)])
        assert (a / "age.txt").read_bytes() == (b / "age.txt").read_bytes()
        assert (a / "household.txt").read_bytes() == (b / "household.txt").read_bytes()


class TestRunCommand:
    def test_full_run(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "persons read:" in printed
        assert "households: 12" in printed
        for name in ("identhousehold.txt", "monthlyincome.txt", "scaleoxford.txt",
                     "scalefaofam.txt", "scaleDMP-0.5-0.7.txt", "sizehousehold.txt",
                     "totalincome.txt", "labelregion.txt", "labelgender.txt",
                     "households.csv"):
            assert (out / name).exists(), name

    def test_outputs_default_next_to_inputs(self, synth_dir):
        code = main(["run", "--config", str(synth_dir / "config.ini")])
        assert code == 0
        assert (synth_dir / "households.csv").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_data_error_exits_one_with_location(self, synth_dir, capsys):
        age = synth_dir / "age.txt"
        lines = age.read_text().splitlines()
        lines[4] = "unknown"
        age.write_text("".join(f"{l}\n" for l in lines))
        code = main(["run", "--config", str(synth_dir / "config.ini")])
        assert code == 1
        err = capsys.readouterr().err
        assert "BAD_AGE_TOKEN" in err
        assert "line 5" in err
        assert "[aggregate]" in err

    def test_sentinel_flag_keeps_the_run_alive(self, synth_dir, tmp_path):
        age = synth_dir / "age.txt"
        lines = age.read_text().splitlines()
        lines[4] = "unknown"
        age.write_text("".join(f"{l}\n" for l in lines))
        out = tmp_path / "out"
        code = main(["run", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out), "--paper-sentinel"])
        assert code == 0
        oxford = [float(t) for t in
                  (out / "scaleoxford.txt").read_text().splitlines()]
        # clean weights are multiples of 0.1; the 0.99 flag leaves a 9 in
        # the hundredths digit of exactly one household sum
        assert sum(round(v * 100) % 10 == 9 for v in oxford) == 1


class TestStageCommands:
    def test_identify(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["identify", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out)])
        assert code == 0
        keys = (out / "identhousehold.txt").read_text().splitlines()
        assert all(k.startswith("R") for k in keys)

    def test_identify_scheme_override(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        main(["identify", "--config", str(synth_dir / "config.ini"),
              "--out-dir", str(out), "--scheme", "DMCH"])
        keys = (out / "identhousehold.txt").read_text().splitlines()
        assert all(k.startswith("D") for k in keys)

    def test_recode_income(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["recode-income", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out)])
        assert code == 0
        amounts = (out / "monthlyincome.txt").read_text().splitlines()
        letters = (synth_dir / "monthlyincomeNT.txt").read_text().splitlines()
        assert len(amounts) == len(letters)

    def test_aggregate_only(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["aggregate", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out), "--only", "size", "chief"])
        assert code == 0
        assert (out / "sizehousehold.txt").exists()
        assert (out / "labelgender.txt").exists()
        assert not (out / "scaleoxford.txt").exists()

    def test_aggregate_only_rejects_unknown(self, synth_dir):
        with pytest.raises(SystemExit) as info:
            main(["aggregate", "--config", str(synth_dir / "config.ini"),
                  "--only", "median"])
        assert info.value.code == 2

    def test_aggregate_dmp_override(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["aggregate", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out), "--only", "dmp", "size",
                     "--dmp-c", "1", "--dmp-s", "1"])
        assert code == 0
        # c=1, s=1 collapses the scale to plain household size
        dmp = (out / "scaleDMP-1-1.txt").read_text().splitlines()
        sizes = (out / "sizehousehold.txt").read_text().splitlines()
        assert dmp == sizes

    def test_recode_without_letter_mode_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--seed", "3", "--households", "10",
              "--out-dir", str(data), "--income", "none"])
        code = main(["recode-income", "--config", str(data / "config.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def write_two_persons(directory, income=("A", "B"), gender=("1", "2")):
    """One household: an adult chief on line 1 and a child on line 2, with
    letter incomes and a config that enables every output."""
    directory.mkdir(parents=True, exist_ok=True)
    columns = {
        "region.txt": ("1", "1"), "milieu.txt": ("1", "1"),
        "cluster.txt": ("1", "1"), "household.txt": ("1", "1"),
        "age.txt": ("40", "10"), "gender.txt": gender,
        "poswrchief.txt": ("1", "2"), "monthlyincomeNT.txt": income,
    }
    for name, tokens in columns.items():
        (directory / name).write_text("".join(f"{t}\n" for t in tokens))
    config = directory / "config.ini"
    config.write_text("[income]\nmode = letters\n")
    return config


class TestOutputSelections:
    """Each command computes only what its outputs need, and a run that
    stops on a data error writes nothing."""

    def test_identify_does_not_recode_income(self, tmp_path, capsys):
        config = write_two_persons(tmp_path / "data", income=("A", "Z"))
        out = tmp_path / "out"
        assert main(["identify", "--config", str(config), "--out-dir", str(out)]) == 0
        assert (out / "identhousehold.txt").read_text().splitlines() == ["R1M1C1H1"] * 2
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[recode] UNKNOWN_INCOME_CODE (line 2)" in err

    def test_failed_run_leaves_earlier_outputs_untouched(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        config = write_two_persons(data)
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        write_two_persons(data, income=("A", "C"), gender=("9", "2"))
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 1
        assert "BAD_GENDER_TOKEN" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestUndecodableInput:
    """A byte that is not UTF-8 is a located data error, never a traceback."""

    @pytest.mark.parametrize("layout", ["columns", "table"])
    def test_names_file_and_line(self, layout, tmp_path, capsys):
        data = tmp_path / "data"
        # enough persons that the table's bad byte lies past the first
        # read chunk, where a decoder's own offsets no longer count lines
        assert main(["synth", "--seed", "3", "--households", "200",
                     "--out-dir", str(data), "--table"]) == 0
        config = data / "config.ini"
        name = "region.txt" if layout == "columns" else "persons.csv"
        if layout == "table":
            config.write_text(config.read_text().replace(
                "mode = columns", "mode = table\ntable = persons.csv"))
        lines = (data / name).read_bytes().split(b"\n")
        if layout == "table":
            assert len(b"\n".join(lines[:599])) > 8192
        lines[599] = b"\xe9" + lines[599]
        (data / name).write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{name}:600)" in err
        assert "not valid UTF-8" in err
        assert not (tmp_path / "out").exists()

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.ini"
        config.write_bytes(b"[input]\nmode = columns\n; r\xe9gion\n")
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config.ini:3)" in err
        assert "not valid UTF-8" in err


#: Five persons in three households: (region, milieu, cluster, household,
#: age, gender, poswrchief, letter income), one tuple per input line.
FIVE_PERSONS = (
    ("1", "1", "1", "1", "40", "1", "1", "A"),
    ("1", "1", "1", "1", "10", "2", "2", "B"),
    ("1", "1", "1", "2", "35", "2", "1", "C"),
    ("1", "1", "1", "2", "33", "1", "2", "D"),
    ("1", "1", "1", "3", "50", "1", "1", "E"),
)
COLUMN_NAMES = ("region.txt", "milieu.txt", "cluster.txt", "household.txt",
                "age.txt", "gender.txt", "poswrchief.txt", "monthlyincomeNT.txt")


def write_persons(directory, faults=()):
    """Write FIVE_PERSONS as letter-income column files and a config; each
    fault is (1-based line, column index, token) and replaces one token."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = [list(person) for person in FIVE_PERSONS]
    for line, column, token in faults:
        rows[line - 1][column] = token
    for column, name in enumerate(COLUMN_NAMES):
        (directory / name).write_text("".join(f"{row[column]}\n" for row in rows))
    config = directory / "config.ini"
    config.write_text("[income]\nmode = letters\n")
    return config


def failure(capsys, argv):
    """The exit code and the error line of a CLI run."""
    code = main(argv)
    return code, capsys.readouterr().err.strip()


AGE, GENDER, INCOME, REGION, CLUSTER, HOUSEHOLD = 4, 5, 7, 0, 2, 3


class TestErrorPrecedence:
    """With several faults in one input, the code, line and stage that an
    error names."""

    def run(self, tmp_path, capsys, *faults, flags=(), command="run"):
        config = write_persons(tmp_path / "data", faults)
        return failure(capsys, [command, "--config", str(config),
                                "--out-dir", str(tmp_path / "out"), *flags])

    def test_late_blank_line_beats_early_prefix_collision(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (1, HOUSEHOLD, "1H"), (4, AGE, ""))
        assert code == 1
        assert err.startswith("error: [ingest] BLANK_LINE (")
        assert err.split(" (")[1].startswith(f"{tmp_path / 'data' / 'age.txt'}:4)")

    def test_carriage_return_in_a_column_file_ends_a_line(self, tmp_path, capsys):
        # only a line feed ends a line: a lone carriage return is a line
        # break inside the token, an ingest error at its own line
        code, err = self.run(tmp_path, capsys, (1, HOUSEHOLD, "1H"), (5, CLUSTER, "1\r2"))
        assert code == 1
        assert err == (f"error: [ingest] BAD_STRATA_TOKEN ({tmp_path / 'data' / 'cluster.txt'}:5): "
                       "column 'cluster' contains a line break: '1\\r2'")

    @pytest.mark.parametrize("command, flags", [
        ("run", []), ("run", ["--sort"]), ("identify", []), ("identify", ["--sort"])])
    def test_early_bad_age_beats_later_prefix_collision_if_ages_are_read(self, command, flags,
                                                                         tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (2, AGE, "x"), (5, HOUSEHOLD, "3H"),
                             flags=flags, command=command)
        if command == "run":
            assert (code, err) == (1, "error: [aggregate] BAD_AGE_TOKEN (line 2): "
                                      "cannot read 'x' as an age")
        else:  # identify reads no age
            assert (code, err) == (1, "error: [identify] PREFIX_COLLISION (line 5): token "
                                      "'3H' contains prefix letter 'H'; the identifier would "
                                      "not parse back")

    def test_early_bad_age_beats_later_unknown_letter(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (2, AGE, "x"), (5, INCOME, "Z"))
        assert (code, err) == (1, "error: [aggregate] BAD_AGE_TOKEN (line 2): "
                                  "cannot read 'x' as an age")

    def test_on_one_line_identify_beats_recode_beats_aggregate(self, tmp_path, capsys):
        faults = [(2, AGE, "x"), (2, INCOME, "Z"), (2, HOUSEHOLD, "1H")]
        code, err = self.run(tmp_path, capsys, *faults)
        assert (code, err[:43]) == (1, "error: [identify] PREFIX_COLLISION (line 2)")
        code, err = self.run(tmp_path / "again", capsys, *faults[:2])
        assert (code, err[:46]) == (1, "error: [recode] UNKNOWN_INCOME_CODE (line 2): ")

    def test_repeated_bad_age_names_its_first_line(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (4, AGE, "x"), (2, AGE, "x"))
        assert code == 1
        assert err == "error: [aggregate] BAD_AGE_TOKEN (line 2): cannot read 'x' as an age"

    def test_repeated_bad_gender_names_its_first_line(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (4, GENDER, "9"), (3, GENDER, "9"))
        assert code == 1
        assert err.startswith("error: [aggregate] BAD_GENDER_TOKEN (line 3): ")

    def test_repeated_bad_tokens_under_paper_sentinel(self, tmp_path, capsys):
        code, err = self.run(
            tmp_path, capsys, (2, AGE, "x"), (4, AGE, "x"), (3, AGE, "25ans"),
            (5, AGE, "25ans"), (1, GENDER, "9"), (4, GENDER, "9"),
            flags=["--paper-sentinel"])
        assert (code, err) == (0, "")
        assert (tmp_path / "out" / "households.csv").read_text() == (
            "key,size,n_adults,n_children,scale_oxford,scale_faofam,scale_dmp,"
            "total_income,scaled_income,label_area,label_chief_gender\n"
            "R1M1C1H1,2,1,1,1.99,1.98,1.32820123994,54000,27135.678392,1,9\n"
            "R1M1C1H2,2,1,1,1.98,1.98,1.32820123994,200000,101010.10101,1,2\n"
            "R1M1C1H3,1,1,0,0.99,0.99,1,175000,176767.676768,1,1\n"
        )

    def test_early_non_consecutive_key_beats_later_prefix_collision(self, tmp_path, capsys):
        # household 1 comes back on line 4, closing household 2 early
        code, err = self.run(tmp_path, capsys, (4, HOUSEHOLD, "1"), (5, HOUSEHOLD, "3H"))
        assert code == 1
        assert err.startswith("error: [aggregate] NON_CONSECUTIVE_KEY (line 4): ")

    ZERO_SCALE = ("error: [aggregate] ZERO_SCALE (line 1): household R1M1C1H1: dmp "
                  "scale is 0.0, cannot scale income")

    def test_early_zero_scale_beats_later_unknown_letter(self, tmp_path, capsys):
        # with c = 0 the all-children household 1 has a DMP scale of 0
        flags = ["--scale", "dmp", "--dmp-c", "0"]
        code, err = self.run(tmp_path / "alone", capsys, (1, AGE, "5"), flags=flags)
        assert (code, err) == (1, self.ZERO_SCALE)
        code, err = self.run(tmp_path, capsys, (1, AGE, "5"), (5, INCOME, "Z"), flags=flags)
        assert (code, err) == (1, self.ZERO_SCALE)

    @pytest.mark.parametrize("line", [3, 4])
    def test_household_closes_after_the_next_one_is_keyed_and_recoded(self, line, tmp_path,
                                                                      capsys):
        # household 1 (lines 1-2, all children, DMP scale 0 at c = 0) closes
        # when household 2's first line (3) has been keyed and recoded, so
        # an income error on that one line is met first
        code, err = self.run(tmp_path, capsys, (1, AGE, "5"), (line, INCOME, "Z"),
                             flags=["--scale", "dmp", "--dmp-c", "0"])
        assert (code, err) == (1, self.ZERO_SCALE if line == 4 else
                               "error: [recode] UNKNOWN_INCOME_CODE (line 3): "
                               "income code 'Z' is not in the range map")

    def run_table(self, tmp_path, capsys, rows, flags=(), keys=""):
        """Run with ``flags`` on a persons.csv of a header and the given data
        rows; ``keys`` adds config lines."""
        data = tmp_path / "data"
        data.mkdir(parents=True)
        header = "region,milieu,cluster,household,age,gender,poswrchief,income\n"
        (data / "persons.csv").write_text(header + "".join(f"{r}\n" for r in rows))
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n"
                          "[income]\nmode = letters\n" + keys)
        return failure(capsys, ["run", "--config", str(config),
                                "--out-dir", str(tmp_path / "out"), *flags])

    def test_empty_table_cell_beats_later_row_arity_error(self, tmp_path, capsys):
        code, err = self.run_table(tmp_path, capsys, [
            "1,1,1,1,40,1,1,A", "1,1,1,1, ,2,2,B", "1,1,1,2,35,2,1,C", "1,1,1"])
        assert code == 1
        assert err == (f"error: [ingest] EMPTY_TOKEN ({tmp_path / 'data' / 'persons.csv'}:3): "
                       "column 'age' is empty")

    def test_late_line_break_in_strata_beats_early_prefix_collision(self, tmp_path, capsys):
        code, err = self.run_table(tmp_path, capsys, [
            "1,1,1,1H,40,1,1,A", "1,1,1,1,10,2,2,B", '1,1,"1\r2",2,35,2,1,C'])
        assert code == 1
        # a quoted line break ends a line: the row's first line is named
        assert err == (f"error: [ingest] BAD_STRATA_TOKEN ({tmp_path / 'data' / 'persons.csv'}:4): "
                       "column 'cluster' contains a line break: '1\\r2'")

    def test_first_bad_cell_in_line_then_field_order_wins(self, tmp_path, capsys):
        rows = ["1,1,1,1,40,1,1,A", '1," ",1,"1\n3",10,2,2,B', '"1\r2",1,1,2,,2,1,C']
        code, err = self.run_table(tmp_path, capsys, rows)
        assert (code, err) == (1, f"error: [ingest] EMPTY_TOKEN "
                                  f"({tmp_path / 'data' / 'persons.csv'}:3): "
                                  "column 'milieu' is empty")
        rows[1] = '"1\n2",,1,1,10,2,2,B'
        code, err = self.run_table(tmp_path / "again", capsys, rows)
        assert code == 1
        assert err == ("error: [ingest] BAD_STRATA_TOKEN "
                       f"({tmp_path / 'again' / 'data' / 'persons.csv'}:3): "
                       "column 'region' contains a line break: '1\\n2'")

    def run_sorted(self, tmp_path, capsys, faults, flags=(), keys=""):
        """Run --sort on FIVE_PERSONS as a shuffled letter-income table in
        TestSortedShuffledTable.ORDER (households 2, 1, 3, 2, 1); each fault
        is (1-based data row, column, token)."""
        rows = [list(FIVE_PERSONS[i]) for i in TestSortedShuffledTable.ORDER]
        for row, column, token in faults:
            rows[row - 1][column] = token
        return self.run_table(tmp_path, capsys, [",".join(row) for row in rows],
                              ["--sort", *flags], keys)

    def test_sort_names_the_first_bad_line_not_the_first_key(self, tmp_path, capsys):
        # household 2 has the earlier bad line (row 1, line 2), household 1
        # the earlier key and a bad age on row 5
        code, err = self.run_sorted(tmp_path, capsys, [(1, AGE, "x"), (5, AGE, "y")])
        assert (code, err) == (1, f"error: [aggregate] BAD_AGE_TOKEN "
                                  f"({tmp_path / 'data' / 'persons.csv'}:2): "
                                  "cannot read 'x' as an age")

    def test_sort_bad_age_beats_a_zero_scale_met_after_the_rows(self, tmp_path, capsys):
        # with c = 0 the all-children household 1 (rows 2 and 5) has a DMP
        # scale of 0, met only once every row is folded; household 2's bad
        # age lies on row 1
        code, err = self.run_sorted(tmp_path, capsys, [(2, AGE, "5"), (1, AGE, "x")],
                                    ["--scale", "dmp", "--dmp-c", "0"])
        assert (code, err) == (1, f"error: [aggregate] BAD_AGE_TOKEN "
                                  f"({tmp_path / 'data' / 'persons.csv'}:2): "
                                  "cannot read 'x' as an age")

    def test_sort_age_warnings_in_line_order_then_household_warnings(self, tmp_path,
                                                                    capsys):
        # unknown ages on rows 1-3 and 5 (households 2, 1, 3, 1) and a
        # second chief in household 2 (row 4)
        faults = [(1, AGE, "99"), (2, AGE, "99"), (3, AGE, "99"), (5, AGE, "99"),
                  (4, 6, "1")]
        assert self.run_sorted(tmp_path, capsys, faults,
                               keys="[variables]\nmissing_age_policy = strict\n") == (0, "")
        data = tmp_path / "data"
        assert main(["run", "--config", str(data / "config.ini"), "--out-dir",
                     str(tmp_path / "out"), "--sort"]) == 0
        table = data / "persons.csv"
        missing = "AGE_MISSING: unknown-age code '99' treated as adult"
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")] == [
            f"warning: {table}:2: {missing}",
            f"warning: {table}:3: {missing}",
            f"warning: {table}:4: {missing}",
            f"warning: {table}:6: {missing}",
            "warning: MULTIPLE_CHIEFS: household R1M1C1H2 marks 2 members as chief",
        ]


    def test_line_break_in_the_chief_gender_cell(self, tmp_path, capsys):
        # the chief's gender token is the household's label: a line break in
        # it would add a line to labelgender.txt
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief\n"
            '1,1,1,1,40,"1\n2",1\n1,1,1,2,35,2,1\n')
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n"
                          "[scales]\nfaofam = false\n")
        out = tmp_path / "out"
        assert failure(capsys, ["run", "--config", str(config), "--out-dir", str(out)]) == (
            1, f"error: [ingest] BAD_STRATA_TOKEN ({data / 'persons.csv'}:2): "
               "column 'gender' contains a line break: '1\\n2'")
        assert not (out / "labelgender.txt").exists()


class TestIdentifyReadsOnlyStrata:
    """`identify` reads the four strata columns and nothing else; `run`
    still needs every column."""

    def commands(self, config, tmp_path, capsys):
        out = tmp_path / "out"
        identify = failure(capsys, ["identify", "--config", str(config), "--out-dir", str(out)])
        keys = (out / "identhousehold.txt").read_text().splitlines()
        run = failure(capsys, ["run", "--config", str(config), "--out-dir", str(out)])
        return identify, keys, run

    @pytest.mark.parametrize("name", ["monthlyincomeNT.txt", "age.txt"])
    def test_missing_person_column_file(self, name, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        (tmp_path / "data" / name).unlink()
        identify, keys, (code, err) = self.commands(config, tmp_path, capsys)
        assert identify == (0, "")
        assert keys == ["R1M1C1H1"] * 2 + ["R1M1C1H2"] * 2 + ["R1M1C1H3"]
        assert code == 2
        assert err.startswith(f"error: [ingest] IO_ERROR: cannot read {tmp_path / 'data' / name}")

    def test_income_file_of_another_length(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        (tmp_path / "data" / "monthlyincomeNT.txt").write_text("A\n" * 100)
        identify, keys, (code, err) = self.commands(config, tmp_path, capsys)
        assert identify == (0, "")
        assert len(keys) == 5
        assert (code, err) == (1, "error: [ingest] LENGTH_MISMATCH "
                                  f"({tmp_path / 'data' / 'monthlyincomeNT.txt'}): "
                                  "column 'income' has 100 tokens, expected 5")

    def test_table_with_strata_columns_only(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household\n1,1,1,1\n1,1,1,1\n1,1,1,2\n")
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n")
        identify, keys, (code, err) = self.commands(config, tmp_path, capsys)
        assert identify == (0, "")
        assert keys == ["R1M1C1H1"] * 2 + ["R1M1C1H2"]
        assert code == 1
        assert err.startswith("error: [ingest] MISSING_COLUMN (")
        assert err.endswith("column 'age' not found in header row")

    def table(self, tmp_path, second_row):
        """A letter-income persons.csv of three rows, the second given, and
        its config."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief,income\n"
            f"1,1,1,1,40,1,1,A\n{second_row}\n1,1,1,2,35,2,1,C\n")
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n"
                          "[income]\nmode = letters\n")
        return config

    def test_empty_age_cell_in_a_table(self, tmp_path, capsys):
        config = self.table(tmp_path, "1,1,1,1,,2,2,B")
        identify, keys, (code, err) = self.commands(config, tmp_path, capsys)
        assert identify == (0, "")
        assert keys == ["R1M1C1H1"] * 2 + ["R1M1C1H2"]
        assert (code, err) == (1, "error: [ingest] EMPTY_TOKEN "
                                  f"({tmp_path / 'data' / 'persons.csv'}:3): column 'age' is empty")

    def test_table_rows_must_match_the_header(self, tmp_path, capsys):
        # a row short of its poswrchief cell stops identify too: in table
        # mode every row is checked against the header, read or not
        config = self.table(tmp_path, "1,1,1,1,10,2,B")
        code, err = failure(capsys, ["identify", "--config", str(config),
                                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: [ingest] ROW_ARITY_MISMATCH "
                              f"({tmp_path / 'data' / 'persons.csv'}:3)")
        assert not (tmp_path / "out" / "identhousehold.txt").exists()


class TestTokenTableCap:
    """Past TOKEN_TABLE_SIZE entries a token table stops growing and
    tokens it does not hold are parsed again: same output bytes."""

    def outputs(self, data, out, capsys, monkeypatch):
        """The stdout and output files of one run, and how often each
        tabled computation was called."""
        from hdbprep import aggregate, pipeline

        calls = {}
        with monkeypatch.context() as patch:
            for module, name in ((aggregate, "parse_age"), (aggregate, "dmp_scale"),
                                 (pipeline, "format_number"), (pipeline, "income_from_letter")):
                def counting(*args, name=name, real=getattr(module, name)):
                    calls[name] = calls.get(name, 0) + 1
                    return real(*args)

                patch.setattr(module, name, counting)
            assert main(["run", "--config", str(data / "config.ini"),
                         "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<OUT>")
        return (stdout, {path.name: path.read_bytes() for path in out.iterdir()}), calls

    def test_capped_tables_give_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        from hdbprep import aggregate

        data = tmp_path / "data"
        assert main(["synth", "--seed", "4", "--households", "60",
                     "--out-dir", str(data), "--anomalies"]) == 0
        ages = (data / "age.txt").read_text().splitlines()
        # infants get fractional ages, nine distinct ones
        ages = [f"0.{i % 9 + 1}" if age in ("0", "1") else age
                for i, age in enumerate(ages)]
        assert len(set(ages)) > 4 and any("." in age for age in ages)
        (data / "age.txt").write_text("".join(f"{a}\n" for a in ages))
        capsys.readouterr()
        uncapped, uncapped_calls = self.outputs(data, tmp_path / "uncapped", capsys, monkeypatch)

        monkeypatch.setattr(aggregate, "TOKEN_TABLE_SIZE", 4)
        capped, capped_calls = self.outputs(data, tmp_path / "capped", capsys, monkeypatch)
        assert capped == uncapped
        # member profiles, DMP compositions, income letters, rendered numbers
        assert capped_calls.keys() == uncapped_calls.keys() == {
            "parse_age", "dmp_scale", "format_number", "income_from_letter"}
        for name, count in uncapped_calls.items():
            assert capped_calls[name] > count, name


class TestTableBlockSize:
    """The table reader's block size changes nothing a run prints or
    writes: a block checked by column, whose rows lie on one line each,
    and a block checked row by row, because an unread note spans lines,
    give every person the same line."""

    #: The data row that gets a bad age: at 7 rows a block, its block holds
    #: no multi-line note but the block before it does; at 64 its own block
    #: does.
    BAD_ROW = 50

    def table(self, data, shuffled, bad_age):
        """Write a letter-income table with a note column, two or three
        lines long on every twentieth data row, and its config; return the
        config and the line of the bad age, if any."""
        result = generate(SynthParams(n_households=30, seed=12, max_household_size=8))
        persons = [list(person) for person in result.persons]
        if shuffled:
            random.Random(5).shuffle(persons)
        notes = {2: "two\nlines", 22: "three\n\nlines"}
        rows = [person + [notes.get(i % 40, "n")] for i, person in enumerate(persons)]
        if bad_age:
            rows[self.BAD_ROW][4] = "x"
        data.mkdir()
        with (data / "persons.csv").open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["region", "milieu", "cluster", "household", "age", "gender",
                             "poswrchief", "income", "note"])
            writer.writerows(rows)
        config = write_ini(data / "config.ini", {
            ("input", "mode"): "table", ("input", "table"): "persons.csv",
            ("income", "mode"): "letters"})
        # the header, then each row's first line after every line break before it
        line = 2 + self.BAD_ROW + sum(row[-1].count("\n") for row in rows[:self.BAD_ROW])
        return config, line if bad_age else None

    @pytest.mark.parametrize("bad_age", [False, True], ids=["clean", "bad-age"])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["household-order", "shuffled-sort"])
    @pytest.mark.parametrize("command", ["run", "identify"])
    def test_block_size_changes_no_byte(self, tmp_path, capsys, monkeypatch, command,
                                        shuffled, bad_age):
        from hdbprep import ingest

        config, bad_line = self.table(tmp_path / "data", shuffled, bad_age)
        results = {}
        for block in (1, 7, ingest.TABLE_BLOCK_ROWS):
            out = tmp_path / f"out-{block}"
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "TABLE_BLOCK_ROWS", block)
                code = main([command, "--config", str(config), "--out-dir", str(out),
                             *(["--sort"] if shuffled else [])])
            printed = capsys.readouterr()
            files = {path.name: path.read_bytes() for path in sorted(out.glob("*"))}
            results[block] = (code, printed.out.replace(str(out), "<OUT>"), printed.err, files)
        first, *others = results.values()
        assert all(result == first for result in others)
        code, _, err, files = first
        if bad_line is None or command == "identify":
            assert code == 0 and err == "" and "identhousehold.txt" in files
        else:
            table = tmp_path / "data" / "persons.csv"
            assert code == 1 and files == {}
            assert err.startswith(f"error: [aggregate] BAD_AGE_TOKEN ({table}:{bad_line}): ")


class TestSortedShuffledTable:
    """Under --sort a person-shuffled table builds one key per household,
    still in line order."""

    @pytest.mark.parametrize("layout", ["household-order-columns", "shuffled-table-sort"])
    @pytest.mark.parametrize("command", ["identify", "run"])
    def test_one_key_build_per_household(self, tmp_path, capsys, monkeypatch, command, layout):
        """Each selection that builds keys builds one per household: at the
        first line of each run of equal strata in household order, and
        once per strata tuple on a shuffled table under --sort."""
        from hdbprep import pipeline

        result = generate(SynthParams(n_households=60, seed=6, max_household_size=12))
        persons = list(result.persons)
        data = tmp_path / "data"
        keys = {("income", "mode"): "letters"}
        if layout == "household-order-columns":
            write_column_files(result, data)
            flags = []
        else:
            random.Random(17).shuffle(persons)
            write_table(dataclasses.replace(result, persons=tuple(persons)), data / "persons.csv")
            keys.update({("input", "mode"): "table", ("input", "table"): "persons.csv"})
            flags = ["--sort"]
        config = write_ini(data / "config.ini", keys)
        calls = []

        def counting(*args):
            calls.append(args[:4])
            return real_make_household_key(*args)

        real_make_household_key = pipeline.make_household_key
        monkeypatch.setattr(pipeline, "make_household_key", counting)
        assert main([command, "--config", str(config), "--out-dir", str(tmp_path / "out"),
                     *flags]) == 0
        assert ("households: 60" in capsys.readouterr().out) == (command == "run")
        assert len(calls) == len(set(calls)) == len(result.ground_truth) == 60
        truth = {household.key.components: household.key.canonical
                 for household in result.ground_truth}
        assert (tmp_path / "out" / "identhousehold.txt").read_text().splitlines() == [
            truth[person[:4]] for person in persons]

    @pytest.mark.parametrize("income", ["letters", "numeric"])
    def test_households_come_out_as_a_stable_sort_of_the_persons(self, tmp_path, income):
        result = generate(SynthParams(n_households=60, seed=9, max_household_size=12,
                                      anomalies=True, income_mode=IncomeMode(income)))
        persons = list(result.persons)
        random.Random(31).shuffle(persons)
        canonical = [make_household_key(*person[:4]).canonical for person in persons]
        order = sorted(range(len(persons)), key=canonical.__getitem__)
        # the two chiefs of the second household differ, so its chief label
        # shows the order of its members
        two_chiefs = [p.gender_raw for p in persons if p.poswrchief_raw == "1"
                      and p[:4] == result.ground_truth[1].key.components]
        assert len(set(two_chiefs)) == 2
        files = {}
        for name, rows, flags in (("sorted", persons, ["--sort"]),
                                  ("presorted", [persons[i] for i in order], [])):
            data = tmp_path / name
            write_table(dataclasses.replace(result, persons=tuple(rows)), data / "persons.csv")
            config = write_ini(data / "config.ini", {
                ("input", "mode"): "table", ("input", "table"): "persons.csv",
                ("income", "mode"): income})
            assert main(["run", "--config", str(config), "--out-dir", str(data / "out"),
                         *flags]) == 0
            files[name] = {path.name: path.read_bytes()
                           for path in sorted((data / "out").iterdir())}
        got, want = files["sorted"], files["presorted"]
        # person-level files keep the shuffled input order
        keys = got["identhousehold.txt"].decode().splitlines()
        assert keys == canonical
        for name in ("identhousehold.txt", "monthlyincome.txt"):
            if name in want:
                lines = got.pop(name).decode().splitlines()
                assert [lines[i] for i in order] == want.pop(name).decode().splitlines()
        assert "households.csv" in got and "labelgender.txt" in got
        assert got == want

    #: FIVE_PERSONS in the line order 3, 1, 5, 4, 2: households 2, 1, 3, 2, 1.
    ORDER = (2, 0, 4, 3, 1)

    def run_shuffled(self, tmp_path, capsys, faults, command="run"):
        """Run ``command`` --sort on FIVE_PERSONS as a shuffled letter-income
        table; each fault is (1-based line of the shuffled table, column,
        token)."""
        data = tmp_path / "data"
        data.mkdir(parents=True)
        rows = [list(FIVE_PERSONS[i]) for i in self.ORDER]
        for line, column, token in faults:
            rows[line - 1][column] = token
        header = "region,milieu,cluster,household,age,gender,poswrchief,income\n"
        (data / "persons.csv").write_text(header + "".join(f"{','.join(r)}\n" for r in rows))
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n"
                          "[income]\nmode = letters\n")
        return failure(capsys, [command, "--config", str(config),
                                "--out-dir", str(tmp_path / "out"), "--sort"])

    @pytest.mark.parametrize("age_line", [1, 4])
    def test_prefix_collision_names_the_first_line_of_its_household(self, age_line, tmp_path,
                                                                    capsys):
        # household 1 (lines 2 and 5 of the shuffled table) collides; a bad
        # age on an earlier line is met first
        code, err = self.run_shuffled(
            tmp_path, capsys, [(2, HOUSEHOLD, "1H"), (5, HOUSEHOLD, "1H"), (age_line, AGE, "x")])
        table = tmp_path / "data" / "persons.csv"
        assert (code, err) == (1, f"error: [aggregate] BAD_AGE_TOKEN ({table}:2): cannot read "
                                  "'x' as an age" if age_line == 1 else
                               f"error: [identify] PREFIX_COLLISION ({table}:3): token '1H' "
                               "contains prefix letter 'H'; the identifier would not parse back")
        assert not (tmp_path / "out").exists()

    def test_identify_names_the_first_line_of_the_household(self, tmp_path, capsys):
        # two households fail; the one whose first line comes first is named
        code, err = self.run_shuffled(
            tmp_path, capsys, [(4, HOUSEHOLD, "2H"), (2, HOUSEHOLD, "1H"),
                               (5, HOUSEHOLD, "1H")], command="identify")
        table = tmp_path / "data" / "persons.csv"
        assert (code, err) == (1, f"error: [identify] PREFIX_COLLISION ({table}:3): token "
                                  "'1H' contains prefix letter 'H'; the identifier would "
                                  "not parse back")
        assert not (tmp_path / "out").exists()

    def test_earlier_recode_error_beats_later_key_error(self, tmp_path, capsys):
        code, err = self.run_shuffled(
            tmp_path, capsys, [(3, HOUSEHOLD, "3H"), (2, INCOME, "Z")])
        assert code == 1
        table = tmp_path / "data" / "persons.csv"
        assert err == (f"error: [recode] UNKNOWN_INCOME_CODE ({table}:3): "
                       "income code 'Z' is not in the range map")


#: Each fault a line can hold, in the order the pass meets them on one
#: line, with the stage and code it fails with.
FAULTS = {
    "prefix letter": ("identify", "PREFIX_COLLISION"),
    "unknown letter": ("recode", "UNKNOWN_INCOME_CODE"),
    "returning household": ("aggregate", "NON_CONSECUTIVE_KEY"),
    "bad age": ("aggregate", "BAD_AGE_TOKEN"),
    "adult bad gender": ("aggregate", "BAD_GENDER_TOKEN"),
}


class TestFirstBadLineWins:
    """Two faults, each of which alone fails at its own line: the run names
    the earlier line, and on one line identify beats recode, which beats
    aggregate."""

    CORPUS = generate(SynthParams(n_households=24, seed=5))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["columns", "shuffled-table-sort"]), st.data())
    def test_the_earlier_fault_is_named(self, tmp_path_factory, capsys, layout, data):
        persons = list(self.CORPUS.persons)
        sort = layout == "shuffled-table-sort"
        if sort:
            random.Random(11).shuffle(persons)
        # a household closed before the one on the line before: a line
        # moved into it reopens it (in household order only)
        first, last = {}, {}
        for i, person in enumerate(persons):
            first.setdefault(person[:4], i)
            last[person[:4]] = i
        closed = {i: [s for s in last if last[s] < first[persons[i - 1][:4]]]
                  for i in range(1, len(persons))}
        # known adult ages, whose gender the FAO-OMS scale reads
        adults = [i for i, p in enumerate(persons) if 18 <= int(p.age_raw) < 90]
        kinds = [kind for kind in FAULTS if not (sort and kind == "returning household")]
        faults = []
        for _ in range(2):
            kind = data.draw(st.sampled_from(kinds))
            lines = (adults if kind == "adult bad gender" else
                     [i for i in closed if closed[i]] if kind == "returning household" else
                     range(len(persons)))
            faults.append((data.draw(st.sampled_from(lines)), kind))
        # a returning household replaces the strata: it goes first
        for i, kind in sorted(faults, key=lambda fault: fault[1] != "returning household"):
            person = persons[i]
            if kind == "returning household":
                strata = data.draw(st.sampled_from(closed[i]))
                person = person._replace(region=strata[0], milieu=strata[1], cluster=strata[2],
                                         household=strata[3])
            elif kind == "prefix letter":
                person = person._replace(household=person.household + "H")
            elif kind == "unknown letter":
                person = person._replace(income_raw="Z")
            elif kind == "bad age":
                person = person._replace(age_raw="x")
            else:
                person = person._replace(gender_raw="9")
            persons[i] = person

        directory = tmp_path_factory.mktemp("faults")
        corpus = dataclasses.replace(self.CORPUS, persons=tuple(persons))
        keys = {("income", "mode"): "letters"}
        if sort:
            write_table(corpus, directory / "persons.csv")
            keys.update({("input", "mode"): "table", ("input", "table"): "persons.csv"})
        else:
            write_column_files(corpus, directory)
        config = write_ini(directory / "config.ini", keys)
        code, err = failure(capsys, ["run", "--config", str(config),
                                     "--out-dir", str(directory / "out"),
                                     *(["--sort"] if sort else [])])
        i, kind = min(faults, key=lambda fault: (fault[0], list(FAULTS).index(fault[1])))
        where = f"{directory / 'persons.csv'}:{i + 2}" if sort else f"line {i + 1}"
        stage, error = FAULTS[kind]
        assert code == 1
        assert err.startswith(f"error: [{stage}] {error} ({where}): ")


class TestInputFaultsOffTheGrid:
    """Error paths that neither the other tests nor the output grid reach."""

    @pytest.mark.parametrize("token", ["abc", "nan", "inf", "1e999", "1_000"])
    @pytest.mark.parametrize("layout", ["columns", "table"])
    def test_numeric_income_that_is_not_a_finite_amount(self, layout, token, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        rows = [list(person[:7]) + [amount] for person, amount in
                zip(FIVE_PERSONS, ["100", "200", token, "300", "400"])]
        keys = {("income", "mode"): "numeric"}
        if layout == "columns":
            names = COLUMN_NAMES[:7] + ("monthlyincome.txt",)
            for column, name in enumerate(names):
                (data / name).write_text("".join(f"{row[column]}\n" for row in rows))
            where = "line 3"
        else:
            (data / "persons.csv").write_text(
                "region,milieu,cluster,household,age,gender,poswrchief,income\n"
                + "".join(",".join(row) + "\n" for row in rows))
            keys.update({("input", "mode"): "table", ("input", "table"): "persons.csv"})
            where = f"{data / 'persons.csv'}:4"
        config = write_ini(data / "config.ini", keys)
        assert failure(capsys, ["run", "--config", str(config), "--out-dir",
                                str(tmp_path / "out")]) == (
            1, f"error: [recode] BAD_INCOME_TOKEN ({where}): cannot read {token!r} as an "
               "income amount")

    def test_a_nul_in_a_strata_token_is_a_token_character(self, tmp_path, capsys):
        # strata tokens are used verbatim, control characters included: the
        # first person's region "1\0" keys a household of its own
        config = write_persons(tmp_path / "data", [(1, REGION, "1\0")])
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        assert "households: 4\n" in capsys.readouterr().out
        assert (out / "identhousehold.txt").read_text().splitlines()[:2] == [
            "R1\0M1C1H1", "R1M1C1H1"]
        assert (out / "labelregion.txt").read_text().splitlines() == ["1\0", "1", "1", "1"]

    def table_run(self, tmp_path, capsys):
        config = write_ini(tmp_path / "config.ini", {("input", "mode"): "table",
                                                     ("input", "table"): "persons.csv"})
        return failure(capsys, ["run", "--config", str(config), "--out-dir",
                                str(tmp_path / "out")])

    def test_empty_table(self, tmp_path, capsys):
        (tmp_path / "persons.csv").write_text("")
        assert self.table_run(tmp_path, capsys) == (
            1, f"error: [ingest] EMPTY_FILE ({tmp_path / 'persons.csv'}): no header row")

    def test_directory_in_place_of_the_table(self, tmp_path, capsys):
        (tmp_path / "persons.csv").mkdir()
        code, err = self.table_run(tmp_path, capsys)
        assert code == 2
        table = tmp_path / "persons.csv"
        assert err.startswith(f"error: [ingest] IO_ERROR: cannot read {table}: ")
        assert not (tmp_path / "out").exists()


def write_ini(path, keys):
    """Write a config file holding ``keys``, a {(section, option): text}."""
    sections = {}
    for (section, option), text in keys.items():
        sections.setdefault(section, []).append(f"{option} = {text}\n")
    path.write_text("".join(f"[{section}]\n" + "".join(lines)
                            for section, lines in sections.items()))
    return path


class TestFlagsSetConfigKeys:
    """Each flag sets the config key it mirrors: the flag's text replaces
    the file's value before the file is read."""

    #: A file that sets some keys the flags mirror, DMP turned off.
    BASE = {("input", "skip_header"): "1", ("income", "mode"): "letters",
            ("scales", "dmp"): "false", ("scales", "dmp_s"): "0.8",
            ("scales", "scaled_by"): "faofam", ("output", "sort"): "false"}

    @pytest.mark.parametrize("flags, keys", [
        (["--skip-header", "0"], {("input", "skip_header"): "0"}),
        (["--scheme", "DMCH"], {("identify", "scheme"): "DMCH"}),
        (["--paper-literal"], {("income", "paper_literal"): "true"}),
        (["--paper-sentinel"], {("output", "paper_sentinel"): "true"}),
        (["--sort"], {("output", "sort"): "true"}),
        (["--dmp-c", "0.3"], {("scales", "dmp"): "true", ("scales", "dmp_c"): "0.3"}),
        (["--dmp-s", "0.9"], {("scales", "dmp"): "true", ("scales", "dmp_s"): "0.9"}),
        (["--scale", "oxford"], {("scales", "scaled_by"): "oxford"}),
        (["--scale", "none"], {("scales", "scaled_by"): "none"}),
        (["--out-dir", "elsewhere"], {}),
    ], ids=["skip-header", "scheme", "paper-literal", "paper-sentinel", "sort", "dmp-c",
            "dmp-s", "scale", "scale-none", "out-dir"])
    def test_flag_equals_its_key_in_the_file(self, flags, keys, tmp_path):
        with_flags = write_ini(tmp_path / "flags.ini", self.BASE)
        with_keys = write_ini(tmp_path / "keys.ini", {**self.BASE, **keys})
        args = build_parser().parse_args(["run", "--config", str(with_flags), *flags])
        configured = _configure(args)
        assert configured._replace(out_dir=None) == load_config(with_keys)
        assert configured.out_dir == args.out_dir

    def test_dmp_flag_keeps_the_other_parameter_of_a_disabled_dmp(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        config.write_text(config.read_text() + "[scales]\ndmp = false\ndmp_s = 0.9\n")
        out = tmp_path / "out"
        assert main(["aggregate", "--config", str(config), "--out-dir", str(out),
                     "--only", "dmp", "--dmp-c", "0.3"]) == 0
        assert [path.name for path in out.iterdir()] == ["scaleDMP-0.3-0.9.txt"]

    def test_flag_replaces_a_malformed_value_of_its_key(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        config.write_text(config.read_text() + "[input]\nskip_header = x\n")
        argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        assert failure(capsys, argv) == (2, "error: ERROR: bad integer for [input] skip_header: "
                                            "invalid literal for int() with base 10: 'x'")
        assert main([*argv, "--skip-header", "0"]) == 0

    def test_empty_scheme_flag_is_checked_like_an_empty_key(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        assert failure(capsys, ["identify", "--config", str(config), "--scheme", ""]) == (
            2, "error: ERROR: bad value for [identify] scheme: "
               "prefix scheme must be 4 letters, got ''")


class TestErrorLinesAreFileLines:
    """An error after ingest names the person's line in its input file:
    skipped lines and a table's header row count."""

    def test_skipped_header_line_of_column_files(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data", [(2, AGE, "x")])
        for name in COLUMN_NAMES:
            path = tmp_path / "data" / name
            path.write_text("header\n" + path.read_text())
        assert failure(capsys, ["run", "--config", str(config), "--skip-header", "1",
                                "--out-dir", str(tmp_path / "out")]) == (
            1, "error: [aggregate] BAD_AGE_TOKEN (line 3): cannot read 'x' as an age")

    def test_table_lines_count_the_header(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief\n"
            "1,1,1,1,40,1,1\n1,1,1,2,x,1,1\n1,1,1,1,30,2,2\n")
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n")
        argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        assert failure(capsys, argv) == (
            1, f"error: [aggregate] BAD_AGE_TOKEN ({data / 'persons.csv'}:3): "
               "cannot read 'x' as an age")
        (data / "persons.csv").write_text(
            (data / "persons.csv").read_text().replace(",x,", ",35,"))
        code, err = failure(capsys, argv)
        assert code == 1
        assert err.startswith(
            f"error: [aggregate] NON_CONSECUTIVE_KEY ({data / 'persons.csv'}:4): ")

    #: Data rows 1 and 3 span two and three lines; the household token of
    #: row 4, on line 8, holds the prefix letter H.
    PREFIX_AFTER_NOTES = ('1,1,1,1,40,1,1,"multi\nline note"\n1,1,1,2,30,2,1,ok\n'
                          '1,1,1,2,10,1,0,"a\nb\nc"\n1,1,1,4H,50,1,1,ok\n')
    PREFIX_COLLISION = ("[identify] PREFIX_COLLISION ({}:8): token '4H' contains prefix "
                        "letter 'H'; the identifier would not parse back")

    @pytest.mark.parametrize("argv, rows, error", [
        pytest.param(["run"], '1,1,1,1,40,1,1,"multi\nline note"\n1,1,1,1,x,2,0,ok\n',
                     "[aggregate] BAD_AGE_TOKEN ({}:4): cannot read 'x' as an age",
                     id="run-bad-age"),
        pytest.param(["identify"], PREFIX_AFTER_NOTES, PREFIX_COLLISION,
                     id="identify-prefix-collision"),
        pytest.param(["identify", "--sort"], PREFIX_AFTER_NOTES, PREFIX_COLLISION,
                     id="identify-sort-prefix-collision"),
        pytest.param(["run"], PREFIX_AFTER_NOTES, PREFIX_COLLISION,
                     id="run-prefix-collision"),
    ])
    def test_rows_after_a_multi_line_cell_keep_their_lines(self, tmp_path, capsys,
                                                           argv, rows, error):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief,note\n" + rows)
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n")
        assert failure(capsys, [*argv, "--config", str(config),
                                "--out-dir", str(tmp_path / "out")]) == (
            1, "error: " + error.format(data / "persons.csv"))


PROCESSING_COMMANDS = ("identify", "recode-income", "aggregate", "run")

#: A value each config key rejects, with any other key the case needs.
BAD_VALUES = {
    ("input", "mode"): ("colums", {}),
    ("input", "income"): ("", {}),
    ("input", "table"): ("", {("input", "mode"): "table"}),
    ("input", "delimiter"): ("||", {}),
    ("input", "skip_header"): ("-1", {}),
    ("identify", "scheme"): ("RMC", {}),
    ("variables", "age_encoding"): ("3", {}),
    ("variables", "gender_encoding"): ("0", {}),
    ("variables", "missing_age_policy"): ("lenient", {}),
    ("income", "mode"): ("euros", {}),
    ("income", "paper_literal"): ("maybe", {}),
    ("scales", "scaled_by"): ("dmp", {("scales", "dmp"): "false"}),
    ("output", "paper_sentinel"): ("maybe", {}),
    ("output", "sort"): ("maybe", {}),
    ("scales", "oxford"): ("maybe", {}),
    ("scales", "faofam"): ("maybe", {}),
    ("scales", "dmp"): ("maybe", {}),
    ("scales", "dmp_c"): ("1.5", {}),
    ("scales", "dmp_s"): ("-0.1", {}),
    ("income_map", "AB"): ("5", {}),
    ("income_map", "A"): ("inf", {}),
    ("income_map", "B"): ("x", {}),
    ("income_map", "default"): ("-1", {}),
}


class TestConfigErrorsNameTheirKey:
    """A config value that a check rejects stops every processing command
    with exit code 2, before any input is read, and the message names the
    key; a flag that sets the key gives the same message."""

    def test_every_key_has_a_case(self):
        # an [income_map] key is a letter of the map, so its cases are examples
        scales = {("scales", option) for option in ("oxford", "faofam", "dmp", "dmp_c", "dmp_s")}
        keys = {(section, option) for section, option, _, _ in _CONFIG_KEYS}
        assert {key for key in BAD_VALUES if key[0] != "income_map"} == keys | scales

    @pytest.mark.parametrize("command", PROCESSING_COMMANDS)
    @pytest.mark.parametrize("key", BAD_VALUES, ids="{0[0]}.{0[1]}".format)
    def test_bad_value_exits_two_naming_its_key(self, key, command, tmp_path, capsys):
        value, others = BAD_VALUES[key]
        config = write_ini(tmp_path / "config.ini",
                           {("income", "mode"): "letters", **others, key: value})
        code, err = failure(capsys, [command, "--config", str(config),
                                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f" for [{key[0]}] {key[1]}: " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, key, value, message", [
        (["--skip-header", "-1"], ("input", "skip_header"), "-1",
         "ERROR: bad value for [input] skip_header: must be >= 0, got -1"),
        (["--dmp-c", "1.5"], ("scales", "dmp_c"), "1.5",
         "DMP_PARAM_OUT_OF_RANGE: bad value for [scales] dmp_c: "
         "DMP parameter c=1.5 outside [0, 1]"),
        (["--scale", "dmp"], ("scales", "scaled_by"), "dmp",
         "ERROR: bad value for [scales] scaled_by: "
         "scaled income wants the dmp scale, which is not configured"),
    ], ids=["skip-header", "dmp-c", "scale"])
    def test_flag_gives_the_key_message(self, flags, key, value, message, tmp_path, capsys):
        base = {("income", "mode"): "letters"}
        if key == ("scales", "scaled_by"):
            base["scales", "dmp"] = "false"
        for command in PROCESSING_COMMANDS:
            in_file = write_ini(tmp_path / "file.ini", {**base, key: value})
            by_flag = write_ini(tmp_path / "flag.ini", base)
            assert failure(capsys, [command, "--config", str(in_file)]) == (2, f"error: {message}")
            assert failure(capsys, [command, "--config", str(by_flag), *flags]) == (
                2, f"error: {message}")

    def test_input_mode_typo(self, tmp_path, capsys):
        config = write_ini(tmp_path / "config.ini", {("input", "mode"): "colums"})
        assert failure(capsys, ["identify", "--config", str(config)]) == (
            2, "error: ERROR: bad value for [input] mode: "
               "must be 'columns' or 'table', got 'colums'")

    @pytest.mark.parametrize("entries, message", [
        ("B = 1\nAB = 5\n",
         "bad value for [income_map] AB: income code 'AB' is not a single character"),
        ("B = 1\nA = inf\n", "bad value for [income_map] A: "
                              "income amount for 'A' must be finite and >= 0, got inf"),
        ("B = 1\nA = -5\n", "bad value for [income_map] A: "
                             "income amount for 'A' must be finite and >= 0, got -5.0"),
        ("B = 1\nA = x\n",
         "bad number for [income_map] A: could not convert string to float: 'x'"),
        ("B = 1\ndefault = nan\n", "bad value for [income_map] default: "
                                    "default income amount must be finite and >= 0, got nan"),
        ("default = 5\n", "bad value for [income_map]: the section maps no income code"),
    ], ids=["two-letters", "infinite", "negative", "not-a-number", "default-nan",
            "only-default"])
    def test_income_map_entry_names_its_key(self, entries, message, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        config.write_text(config.read_text() + f"[income_map]\n{entries}")
        assert failure(capsys, ["run", "--config", str(config),
                                "--out-dir", str(tmp_path / "out")]) == (2, f"error: ERROR: {message}")
        assert not (tmp_path / "out").exists()

    def test_dmp_parameters_are_numbers_while_dmp_is_off(self, tmp_path, capsys):
        # out of range is accepted while the DMP scale is off; not a number is not
        config = write_persons(tmp_path / "data")
        text = config.read_text() + "[scales]\ndmp = false\ndmp_s = 2\n"
        config.write_text(text + "dmp_c = 1.5\n")
        argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        config.write_text(text + "dmp_c = half\n")
        assert failure(capsys, argv) == (2, "error: ERROR: bad number for [scales] dmp_c: "
                                            "could not convert string to float: 'half'")


class TestConfigSyntaxErrorsNameTheirLine:
    """A config file that the INI parser refuses stops every processing
    command with exit code 2 and one error line naming the file and the
    first line refused, before any input is read."""

    @pytest.mark.parametrize("text, line, problem", [
        ("mode = columns\n", 1, "a key comes before any [section] header"),
        ("[input]\nmode = columns\nmode = table\n", 3, "[input] mode is set twice"),
        ("[input]\nmode = columns\n[income]\nmode = letters\n[input]\n", 5,
         "section [input] appears twice"),
        ("[input]\nmode columns\ndir .\n", 2, "line is no [section] header and no key = value"),
    ], ids=["no-section-header", "duplicate-option", "duplicate-section", "no-equals-sign"])
    @pytest.mark.parametrize("command", PROCESSING_COMMANDS)
    def test_names_file_and_line(self, command, text, line, problem, tmp_path, capsys):
        config = tmp_path / "parse.ini"
        config.write_text(text)
        assert failure(capsys, [command, "--config", str(config),
                                "--out-dir", str(tmp_path / "out")]) == (
            2, f"error: ERROR ({config}:{line}): bad config: {problem}")
        assert not (tmp_path / "out").exists()


class TestConfigByteOrderMark:
    """A config file saved with a UTF-8 byte order mark reads as the same
    file without it, as every input file does."""

    def test_a_bom_changes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "1", "--households", "5", "--out-dir", str(data)]) == 0
        (data / "bom.ini").write_bytes(b"\xef\xbb\xbf" + (data / "config.ini").read_bytes())
        out = tmp_path / "out"
        seen = []
        for name in ("config.ini", "bom.ini"):
            capsys.readouterr()
            code = main(["run", "--config", str(data / name), "--out-dir", str(out)])
            printed = capsys.readouterr()
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            seen.append((code, printed.out, printed.err, files))
        assert seen[0][0] == 0
        assert seen[1] == seen[0]

    def test_an_undecodable_byte_after_a_bom_names_its_line(self, tmp_path, capsys):
        # the bad byte lies within a BOM's length of its line's start, so
        # an offset counted from after the BOM must not be read in the file
        config = tmp_path / "config.ini"
        config.write_bytes(b"\xef\xbb\xbf[input]\nmode = columns\n; \xe9\n")
        assert failure(capsys, ["run", "--config", str(config)]) == (
            2, f"error: ERROR ({config}:3): config file is not valid UTF-8")


class TestSkippedSteps:
    """`run` notes on one `skipped:` line a step that its config leaves out;
    `aggregate` and `identify`, which write no households.csv, note none."""

    @staticmethod
    def skipped(capsys, argv):
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("skipped:")]

    def test_run_without_income(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        config.write_text("")
        assert self.skipped(capsys, ["run", "--config", str(config)]) == [
            "skipped: income recoding and totals: no income configured"]

    def test_run_with_income_and_no_scale(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        assert self.skipped(capsys, ["run", "--config", str(config), "--scale", "none"]) == [
            "skipped: scaled income: no scale chosen"]

    def test_run_with_income_and_a_scale(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        assert self.skipped(capsys, ["run", "--config", str(config)]) == []

    @pytest.mark.parametrize("command", ["aggregate", "identify"])
    @pytest.mark.parametrize("text, flags", [("", []), (None, ["--scale", "none"])],
                             ids=["no-income", "no-scale"])
    def test_other_commands_note_nothing(self, command, text, flags, tmp_path, capsys):
        config = write_persons(tmp_path / "data")
        if text is not None:
            config.write_text(text)
        assert self.skipped(capsys, [command, "--config", str(config), *flags]) == []


def test_an_output_directory_that_is_a_file_is_an_io_error(tmp_path, capsys):
    config = write_persons(tmp_path / "data")
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    code, err = failure(capsys, ["run", "--config", str(config), "--out-dir", str(out)])
    assert code == 2
    assert err.startswith(f"error: IO_ERROR: cannot write {out / 'identhousehold.txt'}: ")
    assert "\n" not in err
    assert out.read_text() == "not a directory\n"


class TestAllOrNothingWrites:
    """A failed run changes no output file: the outputs are written into a
    staging directory inside the output directory and moved into place only
    once every one is written, and the staging directory never stays."""

    STALE_NS = 1_000_000_000_000_000_000

    def stale_outputs(self, tmp_path, capsys, faults=()):
        """A run's config and output directory, the outputs of a first run
        there made stale (other bytes, an old mtime), and ``households.csv``
        a directory."""
        config = write_persons(tmp_path / "data")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        write_persons(tmp_path / "data", faults)
        (out / "households.csv").unlink()
        (out / "households.csv").mkdir()
        for path in out.iterdir():
            if path.is_file():
                path.write_text(f"stale {path.name}\n")
                os.utime(path, ns=(self.STALE_NS, self.STALE_NS))
        capsys.readouterr()
        return config, out

    @staticmethod
    def files(out):
        return {path.name: (path.is_dir() or path.read_bytes(), path.stat().st_mtime_ns)
                for path in out.iterdir()}

    def test_a_directory_in_place_of_an_output_changes_no_file(self, tmp_path, capsys):
        config, out = self.stale_outputs(tmp_path, capsys)
        before = self.files(out)
        assert len(before) == 10
        target = out / "households.csv"
        assert failure(capsys, ["run", "--config", str(config), "--out-dir", str(out)]) == (
            2, f"error: IO_ERROR: cannot write {target}: [Errno 21] Is a directory: '{target}'")
        assert self.files(out) == before

    def test_a_data_error_changes_no_file(self, tmp_path, capsys):
        config, out = self.stale_outputs(tmp_path, capsys, faults=[(3, AGE, "x")])
        before = self.files(out)
        code, err = failure(capsys, ["run", "--config", str(config), "--out-dir", str(out)])
        assert code == 1 and err.startswith("error: [aggregate] BAD_AGE_TOKEN (line 3): ")
        assert self.files(out) == before

    def test_a_failed_write_names_its_output_and_changes_no_file(self, tmp_path, capsys,
                                                                monkeypatch):
        config, out = self.stale_outputs(tmp_path, capsys)
        (out / "households.csv").rmdir()
        before = self.files(out)

        def full_disk(rows, handle):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(hdbprep.pipeline, "write_household_table", full_disk)
        assert failure(capsys, ["run", "--config", str(config), "--out-dir", str(out)]) == (
            2, f"error: IO_ERROR: cannot write {out / 'households.csv'}: "
               "[Errno 28] No space left on device")
        assert self.files(out) == before
        monkeypatch.undo()
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        assert sorted(self.files(out)) == sorted([*before, "households.csv"])

    def test_a_failed_synth_changes_no_file(self, tmp_path, capsys):
        out = tmp_path / "data"
        synth = ["synth", "--households", "12", "--out-dir", str(out), "--table"]
        assert main([*synth, "--seed", "1"]) == 0
        (out / "age.txt").unlink()
        (out / "age.txt").mkdir()
        for path in out.iterdir():
            os.utime(path, ns=(self.STALE_NS, self.STALE_NS))
        capsys.readouterr()
        before = self.files(out)
        assert len(before) == 10
        target = out / "age.txt"
        assert failure(capsys, [*synth, "--seed", "2"]) == (
            2, f"error: IO_ERROR: cannot write {target}: [Errno 21] Is a directory: '{target}'")
        assert self.files(out) == before

    def test_a_symlinked_output_is_replaced_and_its_target_kept(self, tmp_path, capsys):
        config, out = self.stale_outputs(tmp_path, capsys)
        (out / "households.csv").rmdir()
        elsewhere = tmp_path / "elsewhere.csv"
        elsewhere.write_text("kept\n")
        (out / "households.csv").symlink_to(elsewhere)
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        table = out / "households.csv"
        assert not table.is_symlink() and table.read_text().startswith("key,size,")
        assert elsewhere.read_text() == "kept\n"


class TestIncomeOverflow:
    """A household income total or scaled income too large for a float is
    a coded data error, not a traceback; it names the household's first
    line in the table."""

    TOTAL = ["1,1,1,1,40,1,1,1e308", "1,1,1,1,30,2,2,1e308"]
    TOTAL_MESSAGE = "income total overflows to inf"
    # household 1's members lie on lines 3 and 5, apart
    SHUFFLED = ["1,1,1,2,30,1,1,5", "1,1,1,1,40,1,1,1e308", "1,1,1,2,31,2,2,5",
                "1,1,1,1,30,2,2,1e308"]

    # only households.csv, which `run` writes, holds the scaled income
    @pytest.mark.parametrize("command, rows, line, message", [
        (["run"], TOTAL, 2, TOTAL_MESSAGE),
        (["aggregate", "--only", "size"], TOTAL, 2, TOTAL_MESSAGE),
        (["run"], ["1,1,1,1,4,1,1,1e308"], 2,
         "income 1e+308 divided by its oxford scale 0.5 overflows"),
        (["run", "--sort"], SHUFFLED, 3, TOTAL_MESSAGE),
    ], ids=["run-total", "aggregate-total", "run-scaled", "sorted-total"])
    def test_overflow_exits_one(self, command, rows, line, message, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief,income\n"
            + "".join(f"{row}\n" for row in rows))
        config = write_ini(data / "config.ini", {
            ("input", "mode"): "table", ("input", "table"): "persons.csv",
            ("income", "mode"): "numeric"})
        out = tmp_path / "out"
        assert failure(capsys, [command[0], "--config", str(config), "--out-dir", str(out),
                                *command[1:]]) == (
            1, f"error: [aggregate] INCOME_OVERFLOW ({data / 'persons.csv'}:{line}): "
               f"household R1M1C1H1: {message}")
        assert not out.exists()


#: The config keys that name a member of an enum: (section, option) ->
#: (PipelineConfig field, enum).
ENUM_KEYS = {(section, option): (name, reader.__self__)
             for section, option, name, reader in _CONFIG_KEYS
             if getattr(reader, "__self__", None) in _SPELLINGS}

#: The flag of each enum key, with the command that takes it; a synth flag
#: sets the key of the config.ini that synth writes.
ENUM_FLAGS = {
    ("variables", "age_encoding"): ("synth", "--age-encoding"),
    ("variables", "gender_encoding"): ("synth", "--gender-encoding"),
    ("income", "mode"): ("synth", "--income"),
    ("scales", "scaled_by"): ("run", "--scale"),
}


class TestEnumSpellings:
    """One table holds the spellings of every enum key: each spelling reads
    to the same member from the file and from the key's flag, and any other
    is BAD_ENCODING naming the key."""

    def test_every_enum_key_reads_the_table(self):
        assert set(ENUM_KEYS) == {
            ("variables", "age_encoding"), ("variables", "gender_encoding"),
            ("variables", "missing_age_policy"), ("income", "mode"), ("scales", "scaled_by")}
        assert {enum for _, enum in ENUM_KEYS.values()} == set(_SPELLINGS)

    @pytest.mark.parametrize("key", ENUM_KEYS, ids="{0[0]}.{0[1]}".format)
    def test_each_spelling_reads_to_its_member(self, key, tmp_path):
        name, enum = ENUM_KEYS[key]
        for member, names in _SPELLINGS[enum][0].items():
            for spelling in names:
                for text in (spelling, spelling.upper()):
                    config = write_ini(tmp_path / "config.ini", {key: text})
                    assert getattr(load_config(config), name) is member, text

    @pytest.mark.parametrize("key", ENUM_FLAGS, ids="{0[0]}.{0[1]}".format)
    def test_each_flag_choice_reads_like_the_file(self, key, tmp_path):
        # a flag takes the first spelling of each member, the one synth writes
        name, enum = ENUM_KEYS[key]
        command, flag = ENUM_FLAGS[key]
        for index, names in enumerate(_SPELLINGS[enum][0].values()):
            choice = names[0]
            in_file = load_config(write_ini(tmp_path / f"file{index}.ini", {key: choice}))
            if command == "synth":
                data = tmp_path / f"synth{index}"
                assert main(["synth", "--seed", "1", "--households", "4",
                             "--out-dir", str(data), flag, choice]) == 0
                by_flag = load_config(data / "config.ini")
            else:
                empty = write_ini(tmp_path / "empty.ini", {})
                by_flag = _configure(build_parser().parse_args(
                    [command, "--config", str(empty), flag, choice]))
            assert getattr(by_flag, name) is getattr(in_file, name), choice

    @pytest.mark.parametrize("key, value, message", [
        (("variables", "age_encoding"), "3",
         "unknown age encoding '3' (use 1/years or 2/five_year_classes)"),
        (("variables", "gender_encoding"), "0",
         "unknown gender encoding '0' (use 1/male0_female1 or 2/male1_female2)"),
        (("variables", "missing_age_policy"), "lenient", "unknown missing-age policy 'lenient'"),
        (("income", "mode"), "Euros", "unknown income mode 'Euros'"),
        (("scales", "scaled_by"), "oecd", "unknown scale 'oecd'"),
    ], ids=["age_encoding", "gender_encoding", "missing_age_policy", "income.mode",
            "scaled_by"])
    def test_other_spellings_are_bad_encoding(self, key, value, message, tmp_path, capsys):
        config = write_ini(tmp_path / "config.ini", {key: value})
        assert failure(capsys, ["identify", "--config", str(config)]) == (
            2, f"error: BAD_ENCODING: bad value for [{key[0]}] {key[1]}: {message}")

    def test_readme_lists_every_spelling(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| (.+) \|$", section, re.MULTILINE)
        assert [(section, option, re.findall(r"`([^`]+)`", cell))
                for section, option, cell in rows] == [
            (section, option, list(names))
            for (section, option), (_, enum) in ENUM_KEYS.items()
            for names in _SPELLINGS[enum][0].values()]


class TestReadmeConfig:
    """The README's INI example is a config that runs as it stands."""

    def test_readme_ini_block_runs_next_to_a_database(self, synth_dir, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        config = synth_dir / "config.ini"
        config.write_text(block, encoding="utf-8")
        loaded = load_config(config)
        assert (loaded.input_mode, loaded.table_delimiter, loaded.scaled_by.value) == (
            "columns", ",", "oxford")
        assert dict(loaded.income_map.entries) == {"A": 14500.0, "B": 39500.0}
        assert main(["run", "--config", str(config)]) == 0
        assert (synth_dir / "out" / "households.csv").is_file()


class TestWarningsNameTheirFile:
    """A warning names its input line, and in table mode the table file."""

    def test_table_mode_warning_names_the_table(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief\n"
            "1,1,1,1,99,1,1\n1,1,1,1,30,2,2\n")
        config = write_ini(data / "config.ini", {
            ("input", "mode"): "table", ("input", "table"): "persons.csv",
            ("variables", "missing_age_policy"): "strict"})
        assert main(["aggregate", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                     "--only", "size"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"warning: {data / 'persons.csv'}:2: AGE_MISSING: "
            "unknown-age code '99' treated as adult")

    def test_column_mode_warning_names_the_line(self, tmp_path, capsys):
        config = write_persons(tmp_path / "data", [(3, AGE, "99")])
        config.write_text(config.read_text() + "[variables]\nmissing_age_policy = strict\n")
        assert main(["aggregate", "--config", str(config), "--out-dir", str(tmp_path / "out"),
                     "--only", "size"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "warning: line 3: AGE_MISSING: unknown-age code '99' treated as adult")


class TestWarningsAreBounded:
    """A run keeps each warning code's first 20 warnings and counts the
    rest, so a corpus of unknown ages costs no memory per person."""

    @staticmethod
    def unknown_ages(data):
        """A 50-household corpus in ``data`` with every age the unknown-age
        code 99, read under the strict policy: its config and person count."""
        assert main(["synth", "--seed", "1", "--households", "50", "--out-dir", str(data)]) == 0
        ages = (data / "age.txt").read_text().splitlines()
        (data / "age.txt").write_text("99\n" * len(ages))
        config = data / "config.ini"
        config.write_text(config.read_text().replace(
            "[variables]\n", "[variables]\nmissing_age_policy = strict\n"))
        return config, len(ages)

    def test_every_age_unknown_prints_twenty_then_the_count(self, tmp_path, capsys):
        config, persons = self.unknown_ages(tmp_path / "data")
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("warning:")]
        assert warnings == [
            f"warning: line {line}: AGE_MISSING: unknown-age code '99' treated as adult"
            for line in range(1, 21)] + [f"warning: ... and {persons - 20} more AGE_MISSING"]
        assert warnings[-1] == "warning: ... and 219 more AGE_MISSING"
        report = hdbprep.run_pipeline(load_config(config))
        assert len(report.warnings) == 20

    def test_warnings_past_the_cap_are_never_built(self, tmp_path, capsys, monkeypatch):
        config, _ = self.unknown_ages(tmp_path / "data")
        argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 0
        expected = capsys.readouterr()
        built = []

        class Counted(HdbError):
            def __init__(self, code, *args, **kwargs):
                built.append(code)
                super().__init__(code, *args, **kwargs)

        monkeypatch.setattr(hdbprep.aggregate, "HdbError", Counted)
        assert main(argv) == 0
        assert capsys.readouterr() == expected
        assert built == ["AGE_MISSING"] * 20
        # a plain list, as a library caller passes, still receives every one
        key = make_household_key("1", "1", "1", "1")
        warnings = []
        list(hdbprep.aggregate_all(
            [(key, line, "99", "1", "2", None) for line in range(1, 31)],
            hdbprep.PipelineConfig(missing_age_policy=MissingAgePolicy.STRICT), warnings))
        assert [w.code for w in warnings] == ["AGE_MISSING"] * 30

    def test_each_overflowing_code_is_counted_in_the_order_first_met(self):
        log = WarningLog()
        for code in ["MULTIPLE_CHIEFS"] * 22 + ["AGE_MISSING"] * 25 + ["MULTIPLE_CHIEFS"]:
            log.append(HdbError(code, "x"))
        assert [w.code for w in log] == ["MULTIPLE_CHIEFS"] * 20 + ["AGE_MISSING"] * 20
        report = RunReport(47, 1, warnings=tuple(log), unkept=log.unkept())
        assert report.render().splitlines()[-2:] == [
            "warning: ... and 3 more MULTIPLE_CHIEFS", "warning: ... and 5 more AGE_MISSING"]


class TestTableRowsTheCsvModuleRefuses:
    """A row the csv module cannot parse ends in a coded error naming the
    table and the line, not a traceback."""

    def test_cell_over_the_field_size_limit(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief,notes\n"
            "1,1,1,1,40,1,1,\n"
            f"1,1,1,1,10,2,2,{'x' * 140_000}\n"
            "1,1,1,2,35,2,1,\n")
        config = write_ini(data / "config.ini", {("input", "mode"): "table",
                                                 ("input", "table"): "persons.csv"})
        # identify reads the strata alone, yet every cell of a row is parsed
        for command in ("run", "identify"):
            assert failure(capsys, [command, "--config", str(config),
                                    "--out-dir", str(tmp_path / "out")]) == (
                1, f"error: [ingest] BAD_TABLE_ROW ({data / 'persons.csv'}:3): cannot parse "
                   f"the row: field larger than field limit ({csv.field_size_limit()})")
        assert not (tmp_path / "out").exists()


class TestTabDelimitedTable:
    """A config value cannot hold a tab, whose whitespace is stripped; the
    spelling `tab` names it."""

    def test_tab_spelling_reads_the_table_the_comma_one_does(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "4", "--households", "30", "--out-dir", str(data),
                     "--table"]) == 0
        config = data / "config.ini"
        text = config.read_text()
        config.write_text(text.replace("mode = columns", "mode = table\ntable = persons.csv"))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "comma")]) == 0
        with (data / "persons.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        with (data / "persons.csv").open("w", newline="") as handle:
            csv.writer(handle, delimiter="\t", lineterminator="\n").writerows(rows)
        assert "\t" in (data / "persons.csv").read_text()

        def outputs(out):
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        for spelling in ("tab", "TAB", "Tab"):
            config.write_text(text.replace(
                "mode = columns", f"mode = table\ntable = persons.csv\ndelimiter = {spelling}"))
            out = tmp_path / spelling
            assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
            assert outputs(out) == outputs(tmp_path / "comma")

    def test_a_blank_delimiter_names_the_spelling(self, tmp_path, capsys):
        config = write_ini(tmp_path / "config.ini", {("input", "delimiter"): ""})
        assert failure(capsys, ["identify", "--config", str(config)]) == (
            2, "error: ERROR: bad value for [input] delimiter: must be one character or "
               "'tab', got ''")


class TestProcessEntry:
    """The `hdbprep` process moves its start-up objects out of the cyclic
    garbage collector and turns the collector off before the command runs;
    `main` called in process leaves the collector as it found it."""

    #: A child that runs the CLI as START does, with its argv, and reports
    #: the frozen object count and whether the collector is on when it exits.
    CHILD = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(),\n"
             "                              'enabled', gc.isenabled(), file=sys.stderr))\n"
             "sys.argv[0] = 'hdbprep'\n")

    def collector_at_exit(self, start, synth_dir, tmp_path):
        """(frozen object count, collector on) when the child exits."""
        argv = ["identify", "--config", str(synth_dir / "config.ini"),
                "--out-dir", str(tmp_path / "out")]
        src = str(Path(hdbprep.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", self.CHILD + start, *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "persons read: " in done.stdout
        ((count, enabled),) = re.findall(r"^frozen (\d+) enabled (True|False)$", done.stderr,
                                         re.MULTILINE)
        return int(count), enabled == "True"

    def test_main_block_freezes(self, synth_dir, tmp_path):
        start = "import runpy\nrunpy.run_module('hdbprep.cli', run_name='__main__')\n"
        frozen, enabled = self.collector_at_exit(start, synth_dir, tmp_path)
        assert frozen > 0
        assert not enabled

    def test_console_script_freezes(self, synth_dir, tmp_path):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        (target,) = re.findall(r'^hdbprep = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
        start = (f"import importlib\n"
                 f"sys.exit(importlib.import_module({target[0]!r}).{target[1]}())\n")
        frozen, enabled = self.collector_at_exit(start, synth_dir, tmp_path)
        assert frozen > 0
        assert not enabled

    def test_main_alone_does_not_freeze(self, synth_dir, tmp_path, capsys):
        start = "from hdbprep.cli import main\nsys.exit(main())\n"
        assert self.collector_at_exit(start, synth_dir, tmp_path / "child") == (0, True)
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main(["identify", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_processing_commands_take_the_same_flags():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action.choices, dict)]
    flags = {name: set(commands[name]._option_string_actions) for name in PROCESSING_COMMANDS}
    assert "--config" in flags["run"]
    assert flags["identify"] == flags["recode-income"] == flags["run"]
    assert flags["aggregate"] - flags["run"] == {"--only"}
    assert flags["run"] <= flags["aggregate"]
