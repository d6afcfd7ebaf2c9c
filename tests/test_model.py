import csv
import random
from pathlib import Path

import pytest

from conftest import raises_code
from hdbprep.cli import main
from hdbprep.identity import PrefixScheme, make_household_key
from hdbprep.ingest import TableSource, Variable, read_table
from hdbprep.model import (
    Age,
    AgeEncoding,
    GenderEncoding,
    IncomeMode,
    MissingAgePolicy,
    ScaleKind,
)
from hdbprep.errors import HdbError
from hdbprep.pipeline import DEFAULT_COLUMN_FILES, PipelineConfig, RunReport, run_aggregate
from hdbprep.recode import elim1_default_map


class TestEnums:
    def test_age_encoding_accepts_numbers_and_names(self):
        assert AgeEncoding.from_config("1") is AgeEncoding.YEARS
        assert AgeEncoding.from_config("years") is AgeEncoding.YEARS
        assert AgeEncoding.from_config(" 2 ") is AgeEncoding.FIVE_YEAR_CLASSES
        assert AgeEncoding.from_config("classes") is AgeEncoding.FIVE_YEAR_CLASSES
        assert AgeEncoding.from_config("FIVE_YEAR_CLASSES") is AgeEncoding.FIVE_YEAR_CLASSES

    def test_age_encoding_rejects_junk(self):
        with raises_code("BAD_ENCODING"):
            AgeEncoding.from_config("3")

    def test_gender_encoding(self):
        assert GenderEncoding.from_config("1") is GenderEncoding.MALE0_FEMALE1
        assert GenderEncoding.from_config("male1_female2") is GenderEncoding.MALE1_FEMALE2
        with raises_code("BAD_ENCODING"):
            GenderEncoding.from_config("0")

    def test_missing_age_policy(self):
        assert MissingAgePolicy.from_config("strict") is MissingAgePolicy.STRICT
        assert MissingAgePolicy.from_config("paper_compat") is MissingAgePolicy.PAPER_COMPAT
        with raises_code("BAD_ENCODING"):
            MissingAgePolicy.from_config("lenient")

    def test_income_mode_and_scale_kind(self):
        assert IncomeMode.from_config("letters") is IncomeMode.LETTERS
        assert ScaleKind.from_config("DMP") is ScaleKind.DMP
        with raises_code("BAD_ENCODING"):
            IncomeMode.from_config("euros")
        with raises_code("BAD_ENCODING"):
            ScaleKind.from_config("oecd")


HEADER = "region,milieu,cluster,household,age,gender,poswrchief,income\n"


def person_table(tmp_path, rows, income=False):
    """A table source over ``rows``; the income column is mapped only when
    ``income`` is set."""
    path = tmp_path / "persons.csv"
    path.write_text(HEADER + "".join(row + "\n" for row in rows), encoding="utf-8")
    names = [v for v in Variable if income or v is not Variable.INCOME]
    return TableSource(path, {v: v.value for v in names})


class TestPersonRecord:
    """A person record is the tuple of stripped tokens a reader builds, in
    variable order; aggregation reads the chief flag from it."""

    def test_tokens_are_trimmed(self, tmp_path):
        src = person_table(tmp_path, [" 01 ,1,1,1,30 ,1,1,A"])
        assert read_table(src) == [("01", "1", "1", "1", "30", "1", "1")]

    def test_empty_token_rejected(self, tmp_path):
        src = person_table(tmp_path, ["1,1,1,1,30,1,1,A", "1,1,1,1,30,   ,1,A"])
        with raises_code("EMPTY_TOKEN") as exc:
            read_table(src)
        assert exc.value.message == "column 'gender' is empty"

    def test_linebreak_in_strata_rejected(self, tmp_path):
        src = person_table(tmp_path, ['1,1,"3\n4",1,30,1,1,A'])
        with raises_code("BAD_STRATA_TOKEN") as exc:
            read_table(src)
        assert exc.value.message == "column 'cluster' contains a line break: '3\\n4'"

    def test_income_optional(self, tmp_path):
        rows = ["1,1,1,1,30,1,1, A "]
        assert read_table(person_table(tmp_path, rows)) == [
            ("1", "1", "1", "1", "30", "1", "1")
        ]
        assert read_table(person_table(tmp_path, rows, income=True)) == [
            ("1", "1", "1", "1", "30", "1", "1", "A")
        ]

    def test_chief_flag_is_exact_string_match(self, tmp_path):
        def labels(poswrchief):
            columns = dict(region="111", milieu="111", cluster="111", household="111",
                           age=["34", "30", "10"], gender="121", poswrchief=poswrchief)
            for name, tokens in columns.items():
                (tmp_path / f"{name}.txt").write_text(
                    "".join(f"{t}\n" for t in tokens), encoding="utf-8"
                )
            run_aggregate(PipelineConfig(input_dir=tmp_path), only=["chief", "oxford"])
            return [(tmp_path / name).read_text(encoding="utf-8").split()
                    for name in ("labelgender.txt", "scaleoxford.txt")]

        # " 1 " is read as "1": the child on line 3 is the chief, "01" is not
        assert labels(["01", "2", " 1 "]) == [["1"], ["1.9"]]
        assert labels(["01", "2", "2"])[0] == ["XXX"]

    def test_internal_whitespace_survives(self, tmp_path):
        src = person_table(tmp_path, ["1 x,1,1,1,30,1,1,A"])
        assert read_table(src)[0][0] == "1 x"


class TestAge:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Age(-1.0)

    def test_missing_flag(self):
        assert not Age(30.0).missing
        assert Age(99.0, missing=True).missing


class TestHouseholdKey:
    def test_equality_and_hash_follow_canonical(self):
        a = make_household_key("1", "2", "3", "4")
        b = make_household_key("1", "2", "3", "4")
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == f"{a}" == "R1M2C3H4"
        assert a.components == ("1", "2", "3", "4")
        other = make_household_key("1", "23", "4", "5")
        assert other != a


class TestScaleSpec:
    """A config checks its scale settings once, as it is made: the set of
    enabled scales and, while DMP is among them, its two parameters."""

    def test_parameter_free_scales_pass(self):
        config = PipelineConfig(scales=[ScaleKind.OXFORD, ScaleKind.OXFORD], scaled_by=None)
        assert config.scales == frozenset({ScaleKind.OXFORD})
        PipelineConfig(scales=(ScaleKind.FAOFAM,), scaled_by=None)
        # the DMP parameters are not checked while the DMP scale is off
        PipelineConfig(scales=(ScaleKind.FAOFAM,), scaled_by=None, dmp_c=1.5, dmp_s=-1.0)

    @pytest.mark.parametrize("c,s", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.7)])
    def test_dmp_interval_boundaries_pass(self, c, s):
        PipelineConfig(scales=(ScaleKind.DMP,), dmp_c=c, dmp_s=s)

    @pytest.mark.parametrize("c,s", [(-0.1, 0.7), (1.1, 0.7), (0.5, -0.01), (0.5, 2.0)])
    def test_dmp_out_of_range_rejected(self, c, s):
        with raises_code("DMP_PARAM_OUT_OF_RANGE") as info:
            PipelineConfig(scales=(ScaleKind.DMP,), dmp_c=c, dmp_s=s)
        name, value = ("c", c) if not 0 <= c <= 1 else ("s", s)
        assert info.value.message == (f"bad value for [scales] dmp_{name}: "
                                      f"DMP parameter {name}={value} outside [0, 1]")


class TestRecordsKeepTheirChecks:
    """The checked records are named tuples: `_replace` checks and
    normalises the new record as the constructor does."""

    def test_config_replace(self):
        config = PipelineConfig()
        with raises_code("DMP_PARAM_OUT_OF_RANGE"):
            config._replace(dmp_c=1.5)
        with raises_code("ERROR"):
            config._replace(input_mode="table")
        moved = config._replace(out_dir="elsewhere", scales=[ScaleKind.OXFORD])
        assert moved.out_dir == Path("elsewhere")
        assert moved.scales == frozenset({ScaleKind.OXFORD})

    def test_income_map_replace(self):
        mapping = elim1_default_map()
        with raises_code("ERROR"):
            mapping._replace(default_amount=-1.0)
        with raises_code("ERROR"):
            mapping._replace(entries={"AB": 1.0})
        with pytest.raises(TypeError):
            mapping._replace(entries={"A": 1.0}).entries["A"] = 2.0

    def test_prefix_scheme_replace(self):
        with raises_code("ERROR"):
            PrefixScheme()._replace(region="M")
        with raises_code("ERROR"):
            PrefixScheme()._replace(household="h")
        assert PrefixScheme()._replace(region="D") == PrefixScheme.from_string("DMCH")

    def test_age_replace(self):
        with pytest.raises(ValueError):
            Age(30.0)._replace(value=-1.0)

    def test_config_maps_are_not_shared_mutable_state(self):
        config = PipelineConfig()
        with pytest.raises(TypeError):
            config.column_files[Variable.AGE] = "other.txt"
        with pytest.raises(TypeError):
            config.table_columns[Variable.AGE] = "other"
        assert PipelineConfig().column_files == DEFAULT_COLUMN_FILES


def _shuffle_rows(data):
    header, *rows = (data / "persons.csv").read_text().splitlines()
    random.Random(5).shuffle(rows)
    (data / "persons.csv").write_text("".join(f"{row}\n" for row in [header, *rows]))
    config = data / "config.ini"
    config.write_text(config.read_text().replace(
        "mode = columns", "mode = table\ntable = persons.csv"))


def _junk_ages(data):
    ages = (data / "age.txt").read_text().splitlines()
    ages[1::7] = ["25ans"] * len(ages[1::7])
    ages[4::9] = ["x"] * len(ages[4::9])
    (data / "age.txt").write_text("".join(f"{age}\n" for age in ages))


#: Synth corpora: synth flags, an edit of the corpus, `run` flags.
HOUSEHOLD_CORPORA = {
    "clean": ([], None, []),
    "anomalies": (["--anomalies"], None, []),
    "renumber": (["--renumber", "--age-encoding", "classes"], None, []),
    "paper-sentinel": (["--anomalies"], _junk_ages, ["--paper-sentinel"]),
    "shuffled-sort": (["--table", "--income", "numeric"], _shuffle_rows, ["--sort"]),
}


@pytest.fixture(scope="class")
def household_rows(tmp_path_factory):
    """Corpus name -> the rows of households.csv that `hdbprep run` writes."""
    rows = {}
    for name, (synth_flags, edit, run_flags) in HOUSEHOLD_CORPORA.items():
        data = tmp_path_factory.mktemp(name)
        assert main(["synth", "--seed", "8", "--households", "80", "--max-size", "10",
                     "--out-dir", str(data), *synth_flags]) == 0
        if edit is not None:
            edit(data)
        out = data / "out"
        assert main(["run", "--config", str(data / "config.ini"), "--out-dir", str(out),
                     *run_flags]) == 0
        with (out / "households.csv").open(newline="") as handle:
            rows[name] = list(csv.DictReader(handle))
        assert len(rows[name]) == 80
    return rows


class TestHouseholdAggregate:
    """Every household row the CLI writes has at least one member, each
    counted once as adult or child."""

    def test_counts_must_add_up(self, household_rows):
        for name, rows in household_rows.items():
            for row in rows:
                assert int(row["size"]) == int(row["n_adults"]) + int(row["n_children"]), name

    def test_size_must_be_positive(self, household_rows):
        for name, rows in household_rows.items():
            assert all(int(row["size"]) >= 1 for row in rows), name


def test_warning_record_rendering():
    # a warning is an HdbError of exit code 0 that the run collects; the
    # report lists it at its location()
    def listed(warning):
        assert warning.exit_code == 0
        return RunReport(1, None, warnings=(warning,)).render().splitlines()[-1]

    assert listed(HdbError("AGE_MISSING", "unknown age", line=12)) == (
        "warning: line 12: AGE_MISSING: unknown age")
    assert listed(HdbError("MULTIPLE_CHIEFS", "two chiefs")) == (
        "warning: MULTIPLE_CHIEFS: two chiefs")
    in_file = HdbError("AGE_MISSING", "unknown age", source="data/persons.csv", line=12)
    assert listed(in_file) == "warning: data/persons.csv:12: AGE_MISSING: unknown age"
