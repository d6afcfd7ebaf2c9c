import csv
import io
import math
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import raises_code
from hdbprep.cli import main
from hdbprep.ingest import Variable
from hdbprep.model import (
    AgeEncoding,
    GenderEncoding,
    IncomeMode,
    MissingAgePolicy,
    ScaleKind,
)
from hdbprep.pipeline import (
    PipelineConfig,
    dmp_file_name,
    format_number,
    load_config,
    run_identify,
    run_pipeline,
    write_household_table,
)
from hdbprep.synth import SynthParams, generate, write_column_files, write_table


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,text",
        [
            (3, "3"),
            (3.0, "3"),
            (-2.0, "-2"),
            (0.0, "0"),
            (0.5, "0.5"),
            (2.2, "2.2"),
            (179000.0, "179000"),
            (1e16, "1e+16"),
        ],
    )
    def test_known_renderings(self, value, text):
        assert format_number(value) == text

    def test_irrational_keeps_twelve_digits(self):
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(3.5 ** 0.7) == "2.40351939535"

    def test_output_reads_back_close(self):
        for value in (3.5 ** 0.7, 1 / 3, 2.2, 1234.5678):
            assert float(format_number(value)) == pytest.approx(value, rel=1e-11)

    def test_rejects_non_finite(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                format_number(value)


def twelve_digit_loop(value):
    """format_number as it was first written: try every precision up to 12."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    for precision in range(1, 13):
        text = f"{value:.{precision}g}"
        if float(text) == value:
            return text
    return f"{value:.12g}"


class TestFormatNumberMatchesLoop:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_double(self, value):
        assert format_number(value) == twelve_digit_loop(value)

    @given(st.integers(0, 10**8), st.floats(0.25, 40))
    def test_scaled_incomes(self, total, scale):
        value = total / scale
        assert format_number(value) == twelve_digit_loop(value)

    @given(st.floats(-1e7, 1e7), st.integers(0, 14))
    def test_rounded_decimals(self, value, digits):
        value = round(value, digits)
        assert format_number(value) == twelve_digit_loop(value)

    @given(st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
    def test_subnormals_and_their_negatives(self, value):
        assert format_number(value) == twelve_digit_loop(value)

    @given(st.floats(9e15, 2e16), st.booleans())
    def test_around_1e16(self, value, negative):
        value = -value if negative else value
        assert format_number(value) == twelve_digit_loop(value)

    @given(st.integers(10**11, 10**13 - 1), st.integers(-330, 290))
    def test_twelve_and_thirteen_significant_digits(self, digits, exponent):
        value = float(f"{digits}e{exponent}")
        assert format_number(value) == twelve_digit_loop(value)

    @given(st.integers(1, 10**13), st.one_of(st.integers(-322, -4), st.integers(17, 308)))
    def test_repr_with_an_exponent(self, digits, exponent):
        value = float(f"0.{digits}e{exponent}")
        assert "e" in repr(value)
        assert format_number(value) == twelve_digit_loop(value)

    def test_every_power_of_two(self):
        # the doubles whose neighbours lie at unequal distances, where the
        # shortest decimal that reads back need not be the nearest one
        for exponent in range(-1074, 1024):
            for value in (math.ldexp(1.0, exponent), math.ldexp(-1.0, exponent)):
                assert format_number(value) == twelve_digit_loop(value)


class TestScaledIncome:
    """Per-equivalent-adult income in households.csv: total income over the
    chosen scale."""

    def test_divides(self, tmp_path):
        # chief 1.0 + other adult 0.7 + child 0.5 = 2.2; 220 / 2.2 = 100
        write_columns(tmp_path, **ONE_HOUSEHOLD, monthlyincome=["100", "100", "20"])
        run_pipeline(PipelineConfig(input_dir=tmp_path, income_mode=IncomeMode.NUMERIC))
        with (tmp_path / "households.csv").open(encoding="utf-8") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["total_income"], row["scale_oxford"]) == ("220", "2.2")
        assert float(row["scaled_income"]) == pytest.approx(100.0)

    @pytest.mark.parametrize("scale", [0.0])
    def test_nonpositive_scale(self, scale, tmp_path):
        # a children-only household under c = 0 has a DMP scale of 0.0, the
        # one non-positive scale the aggregation can produce
        children = dict(ONE_HOUSEHOLD, age=["5", "8", "10"])
        write_columns(tmp_path, **children, monthlyincome=["100", "100", "20"])
        config = PipelineConfig(
            input_dir=tmp_path,
            income_mode=IncomeMode.NUMERIC,
            scales=(ScaleKind.DMP,),
            dmp_c=0.0,
            scaled_by=ScaleKind.DMP,
        )
        with raises_code("ZERO_SCALE") as info:
            run_pipeline(config)
        assert info.value.stage == "aggregate"
        assert f"dmp scale is {scale}" in str(info.value)


class TestDmpFileName:
    def test_embeds_parameters(self):
        assert dmp_file_name(0.5, 0.7) == "scaleDMP-0.5-0.7.txt"
        assert dmp_file_name(1.0, 1.0) == "scaleDMP-1-1.txt"
        assert dmp_file_name(0.25, 0.7) == "scaleDMP-0.25-0.7.txt"


class TestHouseholdTable:
    HEADER = ("key,size,n_adults,n_children,scale_oxford,scale_faofam,"
              "scale_dmp,total_income,scaled_income,label_area,label_chief_gender")

    def test_header_always_present(self):
        handle = io.StringIO()
        write_household_table([], handle)
        assert handle.getvalue() == self.HEADER + "\n"

    def run_one_household(self, tmp_path, **config):
        """Run the pipeline on one household of three (chief man 40, woman
        35, child 8) and return its households.csv data row as cells."""
        write_columns(
            tmp_path,
            region=["1"] * 3,
            milieu=["1"] * 3,
            cluster=["1"] * 3,
            household=["1"] * 3,
            age=["40", "35", "8"],
            gender=["1", "2", "1"],
            poswrchief=config.pop("chiefs", ["1", "2", "2"]),
            monthlyincome=["100000", "79000", "0"],
        )
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(input_dir=tmp_path, out_dir=out, **config))
        lines = lines_of(out / "households.csv")
        assert len(lines) == 2
        return lines[1].split(",")

    def test_unconfigured_columns_left_empty(self, tmp_path):
        row = self.run_one_household(tmp_path, scales=(), chiefs=["2", "2", "2"])
        assert ",".join(row) == "R1M1C1H1,3,2,1,,,,,,1,XXX"

    def test_numbers_formatted(self, tmp_path):
        row = self.run_one_household(tmp_path, income_mode=IncomeMode.NUMERIC)
        assert row[4] == "2.2"
        assert row[5] == "2.3"
        assert float(row[6]) == pytest.approx(2.5 ** 0.7)
        assert row[7] == "179000"
        assert float(row[8]) == pytest.approx(179000.0 / 2.2)


class TestConfigValidation:
    def test_unknown_input_mode(self):
        with raises_code("ERROR"):
            PipelineConfig(input_mode="spreadsheet")

    def test_table_mode_needs_a_file(self):
        with raises_code("ERROR"):
            PipelineConfig(input_mode="table")

    def test_negative_skip_header(self):
        with raises_code("ERROR"):
            PipelineConfig(skip_header=-1)

    def test_multi_character_delimiter(self):
        with raises_code("ERROR"):
            PipelineConfig(table_delimiter="||")

    def test_scaled_by_must_be_a_configured_scale(self):
        with raises_code("ERROR"):
            PipelineConfig(
                income_mode=IncomeMode.LETTERS,
                scales=(ScaleKind.FAOFAM,),
                scaled_by=ScaleKind.OXFORD,
            )

    def test_income_file_defaults_follow_mode(self):
        letters = PipelineConfig(income_mode=IncomeMode.LETTERS)
        assert letters.effective_income_file == "monthlyincomeNT.txt"
        numeric = PipelineConfig(income_mode=IncomeMode.NUMERIC)
        assert numeric.effective_income_file == "monthlyincome.txt"
        explicit = PipelineConfig(income_mode=IncomeMode.LETTERS, income_file="inc.txt")
        assert explicit.effective_income_file == "inc.txt"

    def test_outputs_default_to_input_dir(self, tmp_path):
        config = PipelineConfig(input_dir=tmp_path)
        assert config.effective_out_dir == tmp_path
        other = PipelineConfig(input_dir=tmp_path, out_dir=tmp_path / "out")
        assert other.effective_out_dir == tmp_path / "out"

    def test_plain_string_directories(self):
        config = PipelineConfig(input_dir="data", out_dir="data/out")
        assert config.input_dir == Path("data")
        assert config.out_dir == Path("data/out")

    def test_literal_income_table_switch(self):
        assert PipelineConfig().active_income_map().default_amount is None
        literal = PipelineConfig(paper_literal=True)
        assert literal.active_income_map().default_amount == 0.0


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, ""))
        assert config.input_mode == "columns"
        assert config.income_mode is IncomeMode.NONE
        assert config.scales == {ScaleKind.OXFORD, ScaleKind.FAOFAM, ScaleKind.DMP}
        assert (config.dmp_c, config.dmp_s) == (0.5, 0.7)
        assert config.scaled_by is ScaleKind.OXFORD
        assert config.scheme.letters == ("R", "M", "C", "H")
        assert config.input_dir == tmp_path.resolve()

    def test_every_section(self, tmp_path):
        path = write_config(
            tmp_path,
            """\
            [input]
            mode = columns
            dir = data
            region = reg.txt
            income = letters.txt
            skip_header = 1

            [identify]
            scheme = DMCH

            [variables]
            age_encoding = classes
            gender_encoding = male0_female1
            missing_age_policy = strict

            [income]
            mode = letters
            paper_literal = true

            [scales]
            oxford = false
            dmp_c = 0.6
            dmp_s = 0.9
            scaled_by = faofam

            [output]
            dir = out
            sort = true
            paper_sentinel = true
            """,
        )
        config = load_config(path)
        assert config.input_dir == tmp_path.resolve() / "data"
        assert config.column_files[Variable.REGION] == "reg.txt"
        assert config.column_files[Variable.AGE] == "age.txt"
        assert config.income_file == "letters.txt"
        assert config.skip_header == 1
        assert config.scheme.letters == ("D", "M", "C", "H")
        assert config.age_encoding is AgeEncoding.FIVE_YEAR_CLASSES
        assert config.gender_encoding is GenderEncoding.MALE0_FEMALE1
        assert config.missing_age_policy is MissingAgePolicy.STRICT
        assert config.income_mode is IncomeMode.LETTERS
        assert config.paper_literal is True
        assert config.scales == {ScaleKind.FAOFAM, ScaleKind.DMP}
        assert (config.dmp_c, config.dmp_s) == (0.6, 0.9)
        assert config.scaled_by is ScaleKind.FAOFAM
        assert config.out_dir == tmp_path.resolve() / "out"
        assert config.sort is True
        assert config.paper_sentinel is True

    def test_income_map_section(self, tmp_path):
        path = write_config(
            tmp_path,
            """\
            [income]
            mode = letters

            [income_map]
            A = 100
            b = 250.5
            default = 7
            """,
        )
        config = load_config(path)
        assert config.income_map.entries == {"A": 100.0, "b": 250.5}
        assert config.income_map.default_amount == 7.0
        # the explicit map replaces the built-in table entirely
        assert config.active_income_map() is config.income_map

    def test_scaled_by_none(self, tmp_path):
        config = load_config(write_config(tmp_path, "[scales]\nscaled_by = none\n"))
        assert config.scaled_by is None

    def test_bad_boolean(self, tmp_path):
        with raises_code("ERROR"):
            load_config(write_config(tmp_path, "[scales]\noxford = maybe\n"))

    def test_bad_number(self, tmp_path):
        with raises_code("ERROR"):
            load_config(write_config(tmp_path, "[scales]\ndmp_c = half\n"))

    def test_reader_error_names_its_key(self, tmp_path):
        with raises_code("BAD_ENCODING") as info:
            load_config(write_config(tmp_path, "[variables]\nage_encoding = 3\n"))
        assert str(info.value) == (
            "BAD_ENCODING: bad value for [variables] age_encoding: unknown age encoding "
            "'3' (use 1/years or 2/five_year_classes)")
        with raises_code("BAD_ENCODING") as info:
            load_config(write_config(tmp_path, "[scales]\nscaled_by = oecd\n"))
        assert info.value.message == "bad value for [scales] scaled_by: unknown scale 'oecd'"

    def test_missing_file(self, tmp_path):
        with raises_code("IO_ERROR"):
            load_config(tmp_path / "absent.ini")


@pytest.fixture()
def synth_data(tmp_path):
    result = generate(SynthParams(n_households=15, seed=99))
    data = tmp_path / "data"
    write_column_files(result, data)
    return result, data


def letters_config(data, **overrides):
    settings = dict(input_dir=data, income_mode=IncomeMode.LETTERS)
    settings.update(overrides)
    return PipelineConfig(**settings)


def lines_of(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestRunIdentify:
    def test_one_key_per_person(self, synth_data, tmp_path):
        result, data = synth_data
        out = tmp_path / "out"
        report = run_identify(letters_config(data, out_dir=out))
        expected = [
            f"R{p.region}M{p.milieu}C{p.cluster}H{p.household}"
            for p in result.persons
        ]
        assert lines_of(out / "identhousehold.txt") == expected
        assert report.persons == len(result.persons)
        assert "persons read" in report.render()

    def test_alternate_scheme(self, synth_data, tmp_path):
        from hdbprep.identity import PrefixScheme

        result, data = synth_data
        out = tmp_path / "out"
        run_identify(letters_config(data, out_dir=out,
                                    scheme=PrefixScheme.from_string("DMCH")))
        first = lines_of(out / "identhousehold.txt")[0]
        assert first.startswith("D")


def command(capsys, name, data, *flags, ini="[income]\nmode = letters\n"):
    """Run CLI command ``name`` with a config of ``ini`` written in ``data``;
    returns (exit code, stdout, stderr)."""
    (data / "config.ini").write_text(ini, encoding="utf-8")
    capsys.readouterr()
    code = main([name, "--config", str(data / "config.ini"), *flags])
    return (code, *capsys.readouterr())


def written(stdout):
    """The names of the files a run report lists as written, in order."""
    return [Path(line[len("wrote: "):]).name for line in stdout.splitlines()
            if line.startswith("wrote: ")]


class TestRecodeIncomeCommand:
    def test_amounts_conserve_ground_truth(self, synth_data, tmp_path, capsys):
        result, data = synth_data
        out = tmp_path / "out"
        code, stdout, _ = command(capsys, "recode-income", data, "--out-dir", str(out))
        assert code == 0
        amounts = [float(t) for t in lines_of(out / "monthlyincome.txt")]
        assert len(amounts) == len(result.persons)
        expected_total = sum(a.total_income for a in result.ground_truth)
        assert sum(amounts) == pytest.approx(expected_total, rel=1e-9)
        assert written(stdout) == ["monthlyincome.txt"]

    @pytest.mark.parametrize("mode", ["numeric", "none"])
    def test_needs_letter_mode_before_reading_input(self, mode, tmp_path, capsys):
        # no input file exists: the mode is checked first
        assert command(capsys, "recode-income", tmp_path, ini=f"[income]\nmode = {mode}\n") == (
            2, "", "error: ERROR: income recoding needs income mode 'letters'\n")

    def test_reads_only_the_income_column(self, tmp_path, capsys):
        # a directory holding just the letter file is enough for this stage
        (tmp_path / "monthlyincomeNT.txt").write_text("A\nI\n", encoding="utf-8")
        code, stdout, _ = command(capsys, "recode-income", tmp_path)
        assert code == 0
        assert lines_of(tmp_path / "monthlyincome.txt") == ["14500", "875000"]
        assert "persons read: 2" in stdout

    def test_table_mode_reads_only_the_income_column(self, tmp_path, capsys):
        (tmp_path / "persons.csv").write_text("age,income\n,A\nx,I\n", encoding="utf-8")
        code, stdout, _ = command(capsys, "recode-income", tmp_path, ini=(
            "[input]\nmode = table\ntable = persons.csv\n[income]\nmode = letters\n"))
        assert code == 0
        assert "persons read: 2" in stdout
        assert lines_of(tmp_path / "monthlyincome.txt") == ["14500", "875000"]

    def test_literal_table_zeroes_unknown_letters(self, tmp_path, capsys):
        (tmp_path / "monthlyincomeNT.txt").write_text("A\nZ\n", encoding="utf-8")
        assert command(capsys, "recode-income", tmp_path, "--paper-literal")[0] == 0
        assert lines_of(tmp_path / "monthlyincome.txt") == ["14500", "0"]

    def test_unknown_letter_is_an_error_by_default(self, tmp_path, capsys):
        (tmp_path / "monthlyincomeNT.txt").write_text("A\nZ\n", encoding="utf-8")
        code, _, stderr = command(capsys, "recode-income", tmp_path)
        assert code == 1
        assert stderr.startswith("error: [recode] UNKNOWN_INCOME_CODE (line 2): ")


class TestAggregateCommand:
    def test_default_file_set(self, synth_data, tmp_path, capsys):
        result, data = synth_data
        code, stdout, _ = command(capsys, "aggregate", data, "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert set(written(stdout)) == {
            "scaleoxford.txt", "scalefaofam.txt", "scaleDMP-0.5-0.7.txt",
            "sizehousehold.txt", "totalincome.txt", "labelregion.txt",
            "labelgender.txt",
        }
        assert f"households: {len(result.ground_truth)}" in stdout.splitlines()

    def test_files_line_up_with_ground_truth(self, synth_data, tmp_path, capsys):
        result, data = synth_data
        out = tmp_path / "out"
        assert command(capsys, "aggregate", data, "--out-dir", str(out))[0] == 0
        truth = result.ground_truth
        assert lines_of(out / "sizehousehold.txt") == [str(a.size) for a in truth]
        assert lines_of(out / "labelregion.txt") == [a.label_area for a in truth]
        assert lines_of(out / "labelgender.txt") == [a.label_chief_gender for a in truth]
        oxford = [float(t) for t in lines_of(out / "scaleoxford.txt")]
        assert oxford == pytest.approx([a.scale_oxford for a in truth], rel=1e-9)

    def test_only_selects_outputs(self, synth_data, tmp_path, capsys):
        _, data = synth_data
        code, stdout, _ = command(capsys, "aggregate", data, "--out-dir", str(tmp_path / "out"),
                                  "--only", "oxford", "size")
        assert code == 0
        assert written(stdout) == ["scaleoxford.txt", "sizehousehold.txt"]

    def test_only_rejects_disabled_outputs(self, synth_data, tmp_path, capsys):
        _, data = synth_data
        assert command(capsys, "aggregate", data, "--out-dir", str(tmp_path / "out"),
                       "--only", "size", "income", ini="[income]\nmode = none\n") == (
            2, "", "error: ERROR: aggregate output 'income' is not enabled by this config\n")
        assert not (tmp_path / "out").exists()


def write_columns(directory, **columns):
    directory.mkdir(parents=True, exist_ok=True)
    for name, tokens in columns.items():
        (directory / f"{name}.txt").write_text(
            "".join(f"{t}\n" for t in tokens), encoding="utf-8"
        )


ONE_HOUSEHOLD = dict(
    region=["1", "1", "1"],
    milieu=["1", "1", "1"],
    cluster=["1", "1", "1"],
    household=["1", "1", "1"],
    age=["34", "30", "10"],
    gender=["1", "2", "1"],
    poswrchief=["1", "2", "2"],
)

UNSORTED = dict(
    region=["1", "1", "1"],
    milieu=["1", "1", "1"],
    cluster=["1", "1", "1"],
    household=["1", "2", "1"],
    age=["30", "40", "8"],
    gender=["1", "2", "1"],
    poswrchief=["1", "1", "2"],
)


class TestSorting:
    def test_unsorted_input_aborts(self, tmp_path, capsys):
        write_columns(tmp_path, **UNSORTED)
        code, _, stderr = command(capsys, "aggregate", tmp_path, ini="")
        assert code == 1
        assert stderr.startswith("error: [aggregate] NON_CONSECUTIVE_KEY (line 3): ")

    def test_sort_flag_repairs_the_order(self, tmp_path, capsys):
        write_columns(tmp_path, **UNSORTED)
        out = tmp_path / "out"
        assert command(capsys, "aggregate", tmp_path, "--sort", "--out-dir", str(out),
                       ini="")[0] == 0
        assert lines_of(out / "sizehousehold.txt") == ["2", "1"]

    def test_household_files_follow_sorted_run_order(self, tmp_path, capsys):
        write_columns(
            tmp_path,
            region=["1", "1"],
            milieu=["1", "1"],
            cluster=["1", "1"],
            household=["2", "1"],
            age=["30", "8"],
            gender=["1", "1"],
            poswrchief=["1", "2"],
        )
        out = tmp_path / "out"
        assert command(capsys, "aggregate", tmp_path, "--sort", "--out-dir", str(out),
                       ini="")[0] == 0
        assert lines_of(out / "sizehousehold.txt") == ["1", "1"]
        # person-level outputs keep the input order even when sorting
        run_identify(PipelineConfig(input_dir=tmp_path, sort=True, out_dir=out))
        assert lines_of(out / "identhousehold.txt") == ["R1M1C1H2", "R1M1C1H1"]


FULL_OUTPUT_SET = {
    "identhousehold.txt", "monthlyincome.txt", "scaleoxford.txt",
    "scalefaofam.txt", "scaleDMP-0.5-0.7.txt", "sizehousehold.txt",
    "totalincome.txt", "labelregion.txt", "labelgender.txt", "households.csv",
}


class TestRunPipeline:
    def test_writes_the_full_output_set(self, synth_data, tmp_path):
        result, data = synth_data
        out = tmp_path / "out"
        report = run_pipeline(letters_config(data, out_dir=out))
        assert {p.name for p in report.outputs} == FULL_OUTPUT_SET
        assert report.persons == len(result.persons)
        assert report.households == len(result.ground_truth)

    def test_table_matches_ground_truth(self, synth_data, tmp_path):
        result, data = synth_data
        out = tmp_path / "out"
        run_pipeline(letters_config(data, out_dir=out))
        with (out / "households.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.ground_truth)
        for row, truth in zip(rows, result.ground_truth):
            assert row["key"] == truth.key.canonical
            assert int(row["size"]) == truth.size
            assert int(row["n_adults"]) == truth.n_adults
            assert int(row["n_children"]) == truth.n_children
            assert float(row["scale_oxford"]) == pytest.approx(truth.scale_oxford, rel=1e-9)
            assert float(row["scale_faofam"]) == pytest.approx(truth.scale_faofam, rel=1e-9)
            assert float(row["scale_dmp"]) == pytest.approx(truth.scale_dmp, rel=1e-9)
            assert float(row["total_income"]) == pytest.approx(truth.total_income, rel=1e-9)
            assert float(row["scaled_income"]) == pytest.approx(truth.scaled_income, rel=1e-9)
            assert row["label_area"] == truth.label_area
            assert row["label_chief_gender"] == truth.label_chief_gender

    def test_no_income_configured(self, synth_data, tmp_path):
        _, data = synth_data
        out = tmp_path / "out"
        report = run_pipeline(letters_config(data, income_mode=IncomeMode.NONE,
                                             out_dir=out))
        names = {p.name for p in report.outputs}
        assert "monthlyincome.txt" not in names
        assert "totalincome.txt" not in names
        assert any("income" in note for note in report.skipped)
        # income columns exist but stay empty
        with (out / "households.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["total_income"] == "" for row in rows)

    def test_numeric_income_needs_no_recoded_file(self, tmp_path):
        result = generate(SynthParams(n_households=10, seed=3,
                                      income_mode=IncomeMode.NUMERIC))
        data = tmp_path / "data"
        write_column_files(result, data)
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(input_dir=data,
                                             income_mode=IncomeMode.NUMERIC,
                                             out_dir=out))
        names = {p.name for p in report.outputs}
        assert "totalincome.txt" in names
        assert "monthlyincome.txt" not in names
        totals = [float(t) for t in lines_of(out / "totalincome.txt")]
        assert totals == pytest.approx(
            [a.total_income for a in result.ground_truth], rel=1e-9
        )

    def test_table_input_mode_produces_identical_outputs(self, synth_data, tmp_path):
        result, data = synth_data
        write_table(result, data / "persons.csv")
        out_columns = tmp_path / "a"
        out_table = tmp_path / "b"
        run_pipeline(letters_config(data, out_dir=out_columns))
        run_pipeline(
            PipelineConfig(
                input_mode="table",
                input_dir=data,
                table_file="persons.csv",
                income_mode=IncomeMode.LETTERS,
                out_dir=out_table,
            )
        )
        for name in FULL_OUTPUT_SET:
            assert (out_table / name).read_bytes() == (out_columns / name).read_bytes(), name

    def test_runs_are_deterministic(self, synth_data, tmp_path):
        _, data = synth_data
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        run_pipeline(letters_config(data, out_dir=out1))
        run_pipeline(letters_config(data, out_dir=out2))
        for name in FULL_OUTPUT_SET:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_anomalies_surface_in_outputs(self, tmp_path):
        result = generate(SynthParams(n_households=12, seed=21, anomalies=True))
        data = tmp_path / "data"
        write_column_files(result, data)
        out = tmp_path / "out"
        report = run_pipeline(letters_config(data, out_dir=out))
        labels = lines_of(out / "labelgender.txt")
        assert labels[0] == "XXX"
        assert any(w.code == "MULTIPLE_CHIEFS" for w in report.warnings)
        keys = lines_of(out / "identhousehold.txt")
        assert any(" x" in key for key in keys)
