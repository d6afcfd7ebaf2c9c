import pytest
from hypothesis import given, strategies as st

from conftest import raises_code
import hdbprep.aggregate
from hdbprep.aggregate import SENTINEL_WEIGHT, aggregate_all
from hdbprep.identity import make_household_key
from hdbprep.model import (
    AgeEncoding,
    GenderEncoding,
    IncomeMode,
    MissingAgePolicy,
    ScaleKind,
)
from hdbprep.pipeline import PipelineConfig

YEARS = AgeEncoding.YEARS
M1F2 = GenderEncoding.MALE1_FEMALE2
OXFORD = ScaleKind.OXFORD
FAOFAM = ScaleKind.FAOFAM
DMP = ScaleKind.DMP
ALL_SCALES = (OXFORD, FAOFAM, DMP)


def key(h, region="1"):
    return make_household_key(region, "1", "1", str(h))


def member(line, age, gender="1", chief=False, income=None):
    """A person row without its key: line, age, gender and poswrchief
    tokens (1 for the chief, else 2) and income."""
    return line, str(age), str(gender), "1" if chief else "2", income


def household(*members, h=1):
    """A one-household rows list."""
    return [(key(h), *m) for m in members]


def settings(*scales, age=YEARS, gender=M1F2, income=False, scaled_by=None, **options):
    """The config of a fold over the given scales: numeric income when
    ``income`` is set, and no dividing scale unless one is given."""
    mode = IncomeMode.NUMERIC if income else IncomeMode.NONE
    return PipelineConfig(age_encoding=age, gender_encoding=gender, scales=scales,
                          income_mode=mode, scaled_by=scaled_by, **options)


def aggregate_one(rows, config=None, warnings=None):
    (agg,) = aggregate_all(rows, config or settings(), warnings, scale_income=True)
    return agg


class TestGroupConsecutive:
    """Consecutive rows with one key form one household."""

    def test_single_run(self):
        rows = [(key(1), *member(1, 30)), (key(1), *member(2, 10))]
        out = list(aggregate_all(rows, settings()))
        assert len(out) == 1
        assert out[0].size == 2

    def test_boundary_between_households(self):
        rows = [
            (key(1), *member(1, 30)),
            (key(2), *member(2, 40)),
            (key(2), *member(3, 8)),
        ]
        out = list(aggregate_all(rows, settings()))
        assert [a.key.canonical for a in out] == ["R1M1C1H1", "R1M1C1H2"]
        assert [a.size for a in out] == [1, 2]

    def test_reappearing_key_aborts(self):
        rows = [
            (key(1), *member(1, 30)),
            (key(2), *member(2, 40)),
            (key(1), *member(3, 8)),
        ]
        with raises_code("NON_CONSECUTIVE_KEY") as info:
            list(aggregate_all(rows, settings()))
        assert info.value.line == 3
        assert "R1M1C1H1" in str(info.value)

    def test_empty_stream(self):
        assert list(aggregate_all([], settings())) == []

    def test_household_error_beats_next_run_reappearing_key(self):
        # errors come in line order: household 2's zero DMP scale, raised
        # after its last member, wins over household 1 coming back
        rows = [
            (key(1), *member(1, 30, income=1.0)),
            (key(2), *member(2, 5, income=1.0)),
            (key(1), *member(3, 40, income=1.0)),
        ]
        config = settings(DMP, dmp_c=0.0, income=True, scaled_by=DMP)
        with raises_code("ZERO_SCALE") as info:
            list(aggregate_all(rows, config, scale_income=True))
        assert info.value.line == 2

    def test_reappearing_key_beats_its_first_member_bad_age(self):
        rows = [
            (key(1), *member(1, 30)),
            (key(2), *member(2, 40)),
            (key(1), *member(3, "x")),
        ]
        with raises_code("NON_CONSECUTIVE_KEY") as info:
            list(aggregate_all(rows, settings(*ALL_SCALES)))
        assert info.value.line == 3


class TestReducer:
    def test_seed_step_finish(self):
        # the first member seeds each sum and the rest add in member order,
        # so the floats equal the left-to-right sum bit for bit
        rows = household(
            member(1, 10, income=0.1),
            member(2, 34, chief=True, income=0.2),
            member(3, 30, "2", income=0.3),
        )
        agg = aggregate_one(rows, settings(OXFORD, FAOFAM, income=True))
        assert agg.scale_oxford == 0.5 + 1.0 + 0.7
        assert agg.scale_faofam == 0.5 + 1.0 + 0.8
        assert agg.total_income == 0.1 + 0.2 + 0.3

    def test_size(self):
        assert aggregate_one(household(member(1, 30))).size == 1
        rows = household(member(1, 30), member(2, 5), member(3, 7))
        assert aggregate_one(rows).size == 3


class TestOxfordSum:
    def test_reference_household(self):
        # chief 1.0 + other adult 0.7 + child 0.5
        rows = household(member(1, 34, chief=True), member(2, 30), member(3, 10))
        assert aggregate_one(rows, settings(OXFORD)).scale_oxford == pytest.approx(2.2)

    def test_child_chief_counts_as_child(self):
        rows = household(member(1, 10, chief=True), member(2, 40))
        assert aggregate_one(rows, settings(OXFORD)).scale_oxford == pytest.approx(1.2)

    def test_bad_age_raises_with_line(self):
        rows = household(member(1, 34, chief=True), member(2, "??"))
        with raises_code("BAD_AGE_TOKEN") as info:
            aggregate_one(rows, settings(OXFORD))
        assert info.value.line == 2

    def test_chief_age_is_still_parsed(self):
        # chief status must not skip age validation
        with raises_code("BAD_AGE_TOKEN"):
            aggregate_one(household(member(1, "abc", chief=True)), settings(OXFORD))

    def test_sentinel_mode_flags_instead(self):
        rows = household(member(1, 34, chief=True), member(2, "??"))
        agg = aggregate_one(rows, settings(OXFORD, paper_sentinel=True))
        assert agg.scale_oxford == pytest.approx(1.0 + SENTINEL_WEIGHT)


class TestFaofamSum:
    def test_reference_household(self):
        # male adult 1.0 + female adult 0.8 + child 0.5
        rows = household(member(1, 34, "1"), member(2, 30, "2"), member(3, 10, "1"))
        assert aggregate_one(rows, settings(FAOFAM)).scale_faofam == pytest.approx(2.3)

    def test_child_gender_never_read(self):
        rows = household(member(1, 9, "garbled"))
        assert aggregate_one(rows, settings(FAOFAM)).scale_faofam == 0.5

    def test_adult_bad_gender_raises_with_line(self):
        rows = household(member(1, 30, "1"), member(2, 41, "9"))
        with raises_code("BAD_GENDER_TOKEN") as info:
            aggregate_one(rows, settings(FAOFAM))
        assert info.value.line == 2

    def test_adult_bad_gender_sentinel(self):
        rows = household(member(1, 41, "9"))
        agg = aggregate_one(rows, settings(FAOFAM, paper_sentinel=True))
        assert agg.scale_faofam == SENTINEL_WEIGHT

    def test_other_gender_encoding(self):
        rows = household(member(1, 30, "0"), member(2, 30, "1"))
        agg = aggregate_one(rows, settings(FAOFAM, gender=GenderEncoding.MALE0_FEMALE1))
        assert agg.scale_faofam == pytest.approx(1.8)


def counts(agg):
    return agg.n_adults, agg.n_children


class TestCounts:
    def test_split(self):
        rows = household(member(1, 34), member(2, 15), member(3, 14.9), member(4, 2))
        assert counts(aggregate_one(rows)) == (2, 2)

    def test_class_encoding(self):
        rows = household(member(1, 4), member(2, 3))
        config = settings(age=AgeEncoding.FIVE_YEAR_CLASSES)
        assert counts(aggregate_one(rows, config)) == (1, 1)

    def test_strict_rejects_bad_token(self):
        rows = household(member(1, 34), member(2, "old"))
        with raises_code("BAD_AGE_TOKEN") as info:
            aggregate_one(rows)
        assert info.value.line == 2

    def test_sentinel_coerces_numeric_prefix(self):
        # "25ans" reads as 25 (adult), "abc" as 0 and "3_4", no age, as 3 (children)
        rows = household(member(1, "25ans"), member(2, "abc"), member(3, "3_4"))
        assert counts(aggregate_one(rows, settings(paper_sentinel=True))) == (1, 2)

    def test_sentinel_counts_an_age_that_parses_by_its_value(self):
        # 2.5e1 and 4e1 read as 25 and 40, though their numeric prefixes are 2.5 and 4
        rows = household(member(1, "2.5e1"), member(2, "4e1"), member(3, "abc"))
        config = settings(OXFORD, FAOFAM, paper_sentinel=True)
        agg = aggregate_one(rows, config)
        assert counts(agg) == (2, 1)
        assert agg.scale_oxford == pytest.approx(0.7 + 0.7 + SENTINEL_WEIGHT)
        assert agg.scale_faofam == pytest.approx(1.0 + 1.0 + SENTINEL_WEIGHT)

    def test_unknown_age_code_warns_under_strict_policy(self):
        warnings = []
        config = settings(missing_age_policy=MissingAgePolicy.STRICT)
        agg = aggregate_one(household(member(1, 99)), config, warnings)
        assert counts(agg) == (1, 0)
        assert [w.code for w in warnings] == ["AGE_MISSING"]
        assert warnings[0].line == 1

    def test_unknown_age_code_silent_by_default(self):
        warnings = []
        aggregate_one(household(member(1, 99)), settings(), warnings)
        assert warnings == []


class TestDmp:
    def test_reference_values(self):
        rows = household(
            member(1, 30),
            member(2, 40),
            member(3, 8),
            member(4, 5),
            member(5, 1),
        )
        assert aggregate_one(rows, settings(DMP)).scale_dmp == pytest.approx(3.5 ** 0.7)

    def test_sentinel_counting_feeds_formula(self):
        rows = household(member(1, "abc"), member(2, 30))
        agg = aggregate_one(rows, settings(DMP, paper_sentinel=True))
        assert agg.scale_dmp == pytest.approx(1.5 ** 0.7)

    def test_sentinel_counts_feed_the_formula_by_value(self):
        rows = household(member(1, "4e1"), member(2, "2.5e1"), member(3, 5))
        agg = aggregate_one(rows, settings(DMP, paper_sentinel=True))
        assert agg.scale_dmp == pytest.approx(2.5 ** 0.7)


class TestIncome:
    def test_total(self):
        rows = household(member(1, 30, income=14500.0), member(2, 40, income=39500.0))
        agg = aggregate_one(rows, settings(income=True))
        assert agg.total_income == pytest.approx(54000.0)

    def test_missing_amount_located(self):
        rows = household(member(1, 30, income=14500.0), member(2, 40))
        with raises_code("MISSING_INCOME") as info:
            aggregate_one(rows, settings(income=True))
        assert info.value.line == 2


class TestLabels:
    def test_area_is_first_member_token(self):
        # the area label is the key's region token, which every member of
        # the household shares
        rows = [(key(1, region="7"), *member(1, 30)), (key(1, region="7"), *member(2, 40))]
        assert aggregate_one(rows).label_area == "7"

    def test_chief_gender_token_exported_verbatim(self):
        rows = household(member(1, 30, "2"), member(2, 40, "1", chief=True))
        assert aggregate_one(rows).label_chief_gender == "1"

    def test_no_chief_sentinel_label(self):
        rows = household(member(1, 30), member(2, 40))
        assert aggregate_one(rows).label_chief_gender == "XXX"

    def test_last_chief_wins_and_warns(self):
        warnings = []
        rows = household(
            member(1, 30, "1", chief=True),
            member(2, 28, "2", chief=True),
        )
        assert aggregate_one(rows, settings(), warnings).label_chief_gender == "2"
        assert [w.code for w in warnings] == ["MULTIPLE_CHIEFS"]

    def test_chief_flag_is_exact_token_match(self):
        rows = household(member(1, 30, "2", chief=False))
        assert aggregate_one(rows).label_chief_gender == "XXX"
        # the fold reads the raw poswrchief token: only "1" marks the chief
        for token in ("01", "1.0", " 1", "2", "3", ""):
            rows = [(key(1), 1, "30", "2", token, None)]
            assert aggregate_one(rows, settings(OXFORD)) == aggregate_one(
                household(member(1, 30, "2")), settings(OXFORD)), token


class TestSettings:
    """The fold reads the scales, income and dividing scale of one
    PipelineConfig, which checks them."""

    def test_scaled_by_requires_income(self):
        # without income there is nothing to scale: no scaled income, and
        # no error for the dividing scale
        config = settings(OXFORD, scaled_by=ScaleKind.OXFORD)
        agg = aggregate_one(household(member(1, 34, chief=True)), config)
        assert agg.total_income is None
        assert agg.scaled_income is None

    def test_scaled_by_must_be_configured(self):
        with raises_code("ERROR") as info:
            settings(OXFORD, income=True, scaled_by=ScaleKind.DMP)
        assert info.value.message == ("bad value for [scales] scaled_by: scaled income wants "
                                      "the dmp scale, which is not configured")

    def test_scaled_income_only_when_asked(self):
        rows = household(member(1, 34, chief=True, income=1000.0))
        config = settings(OXFORD, income=True, scaled_by=ScaleKind.OXFORD)
        (agg,) = aggregate_all(rows, config)
        assert (agg.total_income, agg.scaled_income) == (1000.0, None)
        assert aggregate_one(rows, config).scaled_income == 1000.0


class TestAggregateRun:
    def test_full_statistics(self):
        rows = household(
            member(1, 34, "1", chief=True, income=125000.0),
            member(2, 30, "2", income=39500.0),
            member(3, 10, "1", income=14500.0),
        )
        config = settings(*ALL_SCALES, income=True, scaled_by=ScaleKind.OXFORD)
        agg = aggregate_one(rows, config)
        assert agg.size == 3
        assert (agg.n_adults, agg.n_children) == (2, 1)
        assert agg.scale_oxford == pytest.approx(2.2)
        assert agg.scale_faofam == pytest.approx(2.3)
        assert agg.scale_dmp == pytest.approx(2.5 ** 0.7)
        assert agg.total_income == pytest.approx(179000.0)
        assert agg.scaled_income == pytest.approx(179000.0 / 2.2)
        assert agg.label_area == "1"
        assert agg.label_chief_gender == "1"

    def test_unconfigured_fields_stay_none(self):
        agg = aggregate_one(household(member(1, 34)))
        assert agg.scale_oxford is None
        assert agg.scale_faofam is None
        assert agg.scale_dmp is None
        assert agg.total_income is None
        assert agg.scaled_income is None
        assert agg.size == 1

    def test_zero_scale_cannot_divide(self):
        # c=0 erases a children-only household from the DMP count
        rows = household(member(1, 5, income=1000.0))
        config = settings(DMP, dmp_c=0.0, income=True, scaled_by=ScaleKind.DMP)
        with raises_code("ZERO_SCALE"):
            aggregate_one(rows, config)

    def test_missing_age_warning_deduplicated(self):
        # oxford, faofam and the counts all use the member's one parse, so
        # the caller sees one warning for the member
        warnings = []
        config = settings(*ALL_SCALES, missing_age_policy=MissingAgePolicy.STRICT)
        aggregate_one(household(member(1, 99, "1")), config, warnings)
        assert [w.code for w in warnings] == ["AGE_MISSING"]

    def test_distinct_warnings_all_kept(self):
        warnings = []
        rows = household(
            member(1, 99, "1", chief=True),
            member(2, 30, "2", chief=True),
        )
        config = settings(*ALL_SCALES, missing_age_policy=MissingAgePolicy.STRICT)
        aggregate_one(rows, config, warnings)
        assert [w.code for w in warnings] == ["AGE_MISSING", "MULTIPLE_CHIEFS"]


class TestAggregateAll:
    def test_streams_in_input_order(self):
        rows = [
            (key(2), *member(1, 30)),
            (key(1), *member(2, 40)),
            (key(1), *member(3, 8)),
        ]
        out = list(aggregate_all(rows, settings()))
        assert [a.key.canonical for a in out] == ["R1M1C1H2", "R1M1C1H1"]
        assert [a.size for a in out] == [1, 2]

    def test_sizes_conserve_person_count(self):
        rows = []
        line = 0
        for h, size in enumerate([3, 1, 4], start=1):
            for _ in range(size):
                line += 1
                rows.append((key(h), *member(line, 20 + line)))
        out = list(aggregate_all(rows, settings()))
        assert sum(a.size for a in out) == line
        assert len(out) == 3


class TestOnePassPerMember:
    def test_each_token_parsed_once(self, monkeypatch):
        calls = {"age": 0, "gender": 0}
        parse_age, parse_gender = hdbprep.aggregate.parse_age, hdbprep.aggregate.parse_gender

        def counted_age(*args):
            calls["age"] += 1
            return parse_age(*args)

        def counted_gender(*args):
            calls["gender"] += 1
            return parse_gender(*args)

        monkeypatch.setattr(hdbprep.aggregate, "parse_age", counted_age)
        monkeypatch.setattr(hdbprep.aggregate, "parse_gender", counted_gender)
        rows = household(member(1, 34, chief=True), member(2, 30, "2"), member(3, 10))
        rows += household(member(4, 99), member(5, 3), h=2)
        config = settings(*ALL_SCALES, missing_age_policy=MissingAgePolicy.STRICT)
        assert len(list(aggregate_all(rows, config))) == 2
        assert calls == {"age": 5, "gender": 3}  # gender: adults only

    def test_first_bad_token_in_line_order_wins(self):
        # the adult on line 1 has a bad gender, line 2 a bad age
        rows = household(member(1, 30, "9"), member(2, "x"))
        with raises_code("BAD_GENDER_TOKEN") as info:
            aggregate_one(rows, settings(*ALL_SCALES))
        assert info.value.line == 1

    def test_sentinel_strict_warns_age_missing_without_member_scales(self):
        warnings = []
        rows = household(member(1, 99), member(2, 40), member(3, 99))
        config = settings(
            DMP, paper_sentinel=True, missing_age_policy=MissingAgePolicy.STRICT
        )
        aggregate_one(rows, config, warnings)
        assert [(w.code, w.line) for w in warnings] == [("AGE_MISSING", 1), ("AGE_MISSING", 3)]


households = st.lists(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=98, allow_nan=False),
            st.sampled_from(["1", "2"]),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=8,
)


@given(households)
def test_aggregate_invariants(hh):
    rows = []
    line = 0
    for h, people in enumerate(hh, start=1):
        for age, gender, chief in people:
            line += 1
            rows.append((key(h), *member(line, age, gender, chief=chief)))
    out = list(aggregate_all(rows, settings(*ALL_SCALES)))
    assert sum(a.size for a in out) == line
    for agg in out:
        assert agg.n_adults + agg.n_children == agg.size
        # every member weighs between 0.5 and 1.0 under both scales
        assert 0.5 * agg.size <= agg.scale_oxford <= 1.0 * agg.size
        assert 0.5 * agg.size <= agg.scale_faofam <= 1.0 * agg.size
        assert agg.scale_dmp > 0
