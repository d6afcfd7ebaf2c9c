import csv
import math
import random
from dataclasses import replace

import pytest

from hdbprep.cli import _configure, build_parser, main
from hdbprep.pipeline import _CONFIG_KEYS, load_config


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

    def run(self, tmp_path, capsys, *faults, flags=()):
        config = write_persons(tmp_path / "data", faults)
        return failure(capsys, ["run", "--config", str(config),
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

    def test_later_prefix_collision_beats_early_bad_age(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (2, AGE, "x"), (5, HOUSEHOLD, "3H"))
        assert code == 1
        assert err.startswith("error: [identify] PREFIX_COLLISION (line 5): ")

    def test_later_unknown_letter_beats_early_bad_age(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, (2, AGE, "x"), (5, INCOME, "Z"))
        assert code == 1
        assert err == ("error: [recode] UNKNOWN_INCOME_CODE (line 5): "
                       "income code 'Z' is not in the range map")

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

    def test_later_prefix_collision_beats_early_non_consecutive_key(self, tmp_path, capsys):
        # household 1 comes back on line 4, closing household 2 early
        code, err = self.run(tmp_path / "alone", capsys, (4, HOUSEHOLD, "1"))
        assert code == 1
        assert err.startswith("error: [aggregate] NON_CONSECUTIVE_KEY (line 4): ")
        code, err = self.run(tmp_path, capsys, (4, HOUSEHOLD, "1"), (5, HOUSEHOLD, "3H"))
        assert code == 1
        assert err.startswith("error: [identify] PREFIX_COLLISION (line 5): ")

    def test_later_unknown_letter_beats_early_zero_scale(self, tmp_path, capsys):
        # with c = 0 the all-children household 1 has a DMP scale of 0
        flags = ["--scale", "dmp", "--dmp-c", "0"]
        code, err = self.run(tmp_path / "alone", capsys, (1, AGE, "5"), flags=flags)
        assert code == 1
        assert err == ("error: [aggregate] ZERO_SCALE: household R1M1C1H1: dmp scale is "
                       "0.0, cannot scale income")
        code, err = self.run(tmp_path, capsys, (1, AGE, "5"), (5, INCOME, "Z"), flags=flags)
        assert (code, err) == (1, "error: [recode] UNKNOWN_INCOME_CODE (line 5): "
                                  "income code 'Z' is not in the range map")

    def run_table(self, tmp_path, capsys, rows):
        """Run on a persons.csv of a header and the given data rows."""
        data = tmp_path / "data"
        data.mkdir(parents=True)
        header = "region,milieu,cluster,household,age,gender,poswrchief,income\n"
        (data / "persons.csv").write_text(header + "".join(f"{r}\n" for r in rows))
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n"
                          "[income]\nmode = letters\n")
        return failure(capsys, ["run", "--config", str(config),
                                "--out-dir", str(tmp_path / "out")])

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


class TestTokenTableCap:
    """Past TOKEN_TABLE_SIZE entries a token table stops growing and
    tokens it does not hold are parsed again: same output bytes."""

    def outputs(self, data, out, capsys):
        assert main(["run", "--config", str(data / "config.ini"),
                     "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<OUT>")
        return stdout, {path.name: path.read_bytes() for path in out.iterdir()}

    def test_capped_tables_give_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        from hdbprep import aggregate, pipeline

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
        uncapped = self.outputs(data, tmp_path / "uncapped", capsys)

        tables = []

        def spy(table, token, value):
            if not any(table is seen for seen in tables):
                tables.append(table)
            return real_remember(table, token, value)

        real_remember = aggregate.remember
        monkeypatch.setattr(aggregate, "TOKEN_TABLE_SIZE", 4)
        monkeypatch.setattr(aggregate, "remember", spy)
        monkeypatch.setattr(pipeline, "remember", spy)
        assert self.outputs(data, tmp_path / "capped", capsys) == uncapped
        # member profiles, DMP compositions, income letters, rendered numbers
        assert [len(table) for table in tables] == [4] * 4


def shuffled_table(source, target, seed):
    """Copy a table-mode corpus with the data rows of persons.csv in a
    seeded random order."""
    target.mkdir(parents=True)
    header, *rows = (source / "persons.csv").read_text().splitlines()
    random.Random(seed).shuffle(rows)
    (target / "persons.csv").write_text("".join(f"{line}\n" for line in [header, *rows]))
    (target / "config.ini").write_text((source / "config.ini").read_text())
    return target / "config.ini"


class TestSortedShuffledTable:
    """Under --sort a person-shuffled table builds one key per household,
    still in line order."""

    def test_one_key_per_household(self, tmp_path, capsys, monkeypatch):
        from hdbprep import pipeline

        data = tmp_path / "data"
        assert main(["synth", "--seed", "6", "--households", "60", "--max-size", "12",
                     "--income", "numeric", "--out-dir", str(data), "--table"]) == 0
        config = data / "config.ini"
        config.write_text(config.read_text().replace(
            "mode = columns", "mode = table\ntable = persons.csv"))
        shuffled = shuffled_table(data, tmp_path / "shuffled", seed=17)
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "a"),
                     "--sort"]) == 0

        calls = []

        def counting(*args):
            calls.append(args[:4])
            return real_make_household_key(*args)

        real_make_household_key = pipeline.make_household_key
        monkeypatch.setattr(pipeline, "make_household_key", counting)
        assert main(["run", "--config", str(shuffled), "--out-dir", str(tmp_path / "b"),
                     "--sort"]) == 0
        assert "households: 60" in capsys.readouterr().out
        assert len(calls) == len(set(calls)) == 60

        def table(out):
            with (out / "households.csv").open(newline="") as handle:
                return list(csv.reader(handle))

        expected, got = table(tmp_path / "a"), table(tmp_path / "b")
        assert len(got) == len(expected) == 61
        # the shuffled members are summed in another order
        for want_row, got_row in zip(expected, got):
            for want, cell in zip(want_row, got_row, strict=True):
                assert cell == want or math.isclose(float(cell), float(want), rel_tol=1e-9)

    #: FIVE_PERSONS in the line order 3, 1, 5, 4, 2: households 2, 1, 3, 2, 1.
    ORDER = (2, 0, 4, 3, 1)

    def run_shuffled(self, tmp_path, capsys, faults):
        """Run --sort on FIVE_PERSONS as a shuffled letter-income table;
        each fault is (1-based line of the shuffled table, column, token)."""
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
        return failure(capsys, ["run", "--config", str(config),
                                "--out-dir", str(tmp_path / "out"), "--sort"])

    def test_prefix_collision_names_the_first_line_of_its_household(self, tmp_path, capsys):
        code, err = self.run_shuffled(
            tmp_path, capsys, [(2, HOUSEHOLD, "1H"), (5, HOUSEHOLD, "1H"), (1, AGE, "x")])
        assert code == 1
        table = tmp_path / "data" / "persons.csv"
        assert err == (f"error: [identify] PREFIX_COLLISION ({table}:3): token '1H' contains "
                       "prefix letter 'H'; the identifier would not parse back")
        assert not (tmp_path / "out").exists()

    def test_earlier_recode_error_beats_later_key_error(self, tmp_path, capsys):
        code, err = self.run_shuffled(
            tmp_path, capsys, [(3, HOUSEHOLD, "3H"), (2, INCOME, "Z")])
        assert code == 1
        table = tmp_path / "data" / "persons.csv"
        assert err == (f"error: [recode] UNKNOWN_INCOME_CODE ({table}:3): "
                       "income code 'Z' is not in the range map")


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
        assert replace(configured, out_dir=None) == load_config(with_keys)
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

    def test_rows_after_a_multi_line_cell_keep_their_lines(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "persons.csv").write_text(
            "region,milieu,cluster,household,age,gender,poswrchief,note\n"
            '1,1,1,1,40,1,1,"multi\nline note"\n1,1,1,1,x,2,0,ok\n')
        config = data / "config.ini"
        config.write_text("[input]\nmode = table\ntable = persons.csv\n")
        assert failure(capsys, ["run", "--config", str(config),
                                "--out-dir", str(tmp_path / "out")]) == (
            1, f"error: [aggregate] BAD_AGE_TOKEN ({data / 'persons.csv'}:4): "
               "cannot read 'x' as an age")


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
}


class TestConfigErrorsNameTheirKey:
    """A config value that a check rejects stops every processing command
    with exit code 2, before any input is read, and the message names the
    key; a flag that sets the key gives the same message."""

    def test_every_key_has_a_case(self):
        scales = {("scales", option) for option in ("oxford", "faofam", "dmp", "dmp_c", "dmp_s")}
        keys = {(section, option) for section, option, _, _ in _CONFIG_KEYS}
        assert set(BAD_VALUES) == keys | scales

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
