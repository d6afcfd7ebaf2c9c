import pytest

from hdbprep.errors import (
    BadEncodingError,
    BadStrataTokenError,
    DmpParamOutOfRangeError,
    EmptyTokenError,
)
from hdbprep.ingest import TableSource, Variable, read_table
from hdbprep.model import (
    Age,
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    MissingAgePolicy,
    ScaleKind,
    ScaleSpec,
    WarningRecord,
    validate_weight_domain,
)
from hdbprep.pipeline import PipelineConfig, run_aggregate


class TestEnums:
    def test_age_encoding_accepts_numbers_and_names(self):
        assert AgeEncoding.from_config("1") is AgeEncoding.YEARS
        assert AgeEncoding.from_config("years") is AgeEncoding.YEARS
        assert AgeEncoding.from_config(" 2 ") is AgeEncoding.FIVE_YEAR_CLASSES
        assert AgeEncoding.from_config("classes") is AgeEncoding.FIVE_YEAR_CLASSES
        assert AgeEncoding.from_config("FIVE_YEAR_CLASSES") is AgeEncoding.FIVE_YEAR_CLASSES

    def test_age_encoding_rejects_junk(self):
        with pytest.raises(BadEncodingError):
            AgeEncoding.from_config("3")

    def test_gender_encoding(self):
        assert GenderEncoding.from_config("1") is GenderEncoding.MALE0_FEMALE1
        assert GenderEncoding.from_config("male1_female2") is GenderEncoding.MALE1_FEMALE2
        with pytest.raises(BadEncodingError):
            GenderEncoding.from_config("0")

    def test_missing_age_policy(self):
        assert MissingAgePolicy.from_config("strict") is MissingAgePolicy.STRICT
        assert MissingAgePolicy.from_config("paper_compat") is MissingAgePolicy.PAPER_COMPAT
        with pytest.raises(BadEncodingError):
            MissingAgePolicy.from_config("lenient")

    def test_income_mode_and_scale_kind(self):
        assert IncomeMode.from_config("letters") is IncomeMode.LETTERS
        assert ScaleKind.from_config("DMP") is ScaleKind.DMP
        with pytest.raises(BadEncodingError):
            IncomeMode.from_config("euros")
        with pytest.raises(BadEncodingError):
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
        with pytest.raises(EmptyTokenError) as exc:
            read_table(src)
        assert exc.value.message == "column 'gender' is empty"

    def test_linebreak_in_strata_rejected(self, tmp_path):
        src = person_table(tmp_path, ['1,1,"3\n4",1,30,1,1,A'])
        with pytest.raises(BadStrataTokenError) as exc:
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
        a = HouseholdKey("R1M2C3H4", ("1", "2", "3", "4"))
        b = HouseholdKey("R1M2C3H4", ("x", "x", "x", "x"))
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == "R1M2C3H4"


class TestScaleSpec:
    def test_parameter_free_scales_pass(self):
        validate_weight_domain(ScaleSpec(ScaleKind.OXFORD))
        validate_weight_domain(ScaleSpec(ScaleKind.FAOFAM))

    def test_dmp_needs_both_parameters(self):
        with pytest.raises(DmpParamOutOfRangeError):
            validate_weight_domain(ScaleSpec(ScaleKind.DMP, dmp_c=0.5))
        with pytest.raises(DmpParamOutOfRangeError):
            validate_weight_domain(ScaleSpec(ScaleKind.DMP, dmp_s=0.7))

    @pytest.mark.parametrize("c,s", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.7)])
    def test_dmp_interval_boundaries_pass(self, c, s):
        validate_weight_domain(ScaleSpec(ScaleKind.DMP, dmp_c=c, dmp_s=s))

    @pytest.mark.parametrize("c,s", [(-0.1, 0.7), (1.1, 0.7), (0.5, -0.01), (0.5, 2.0)])
    def test_dmp_out_of_range_rejected(self, c, s):
        with pytest.raises(DmpParamOutOfRangeError):
            validate_weight_domain(ScaleSpec(ScaleKind.DMP, dmp_c=c, dmp_s=s))


class TestHouseholdAggregate:
    def _aggregate(self, size, adults, children):
        return HouseholdAggregate(
            key=HouseholdKey("R1M1C1H1", ("1", "1", "1", "1")),
            size=size, n_adults=adults, n_children=children,
            scale_oxford=None, scale_faofam=None, scale_dmp=None,
            total_income=None, label_area="1", label_chief_gender="1",
            scaled_income=None,
        )

    def test_counts_must_add_up(self):
        self._aggregate(3, 2, 1)
        with pytest.raises(ValueError):
            self._aggregate(3, 2, 2)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            self._aggregate(0, 0, 0)


def test_warning_record_rendering():
    with_line = WarningRecord("AGE_MISSING", "unknown age", 12)
    assert "line 12" in str(with_line)
    assert "AGE_MISSING" in str(with_line)
    without = WarningRecord("MULTIPLE_CHIEFS", "two chiefs")
    assert str(without) == "MULTIPLE_CHIEFS: two chiefs"
