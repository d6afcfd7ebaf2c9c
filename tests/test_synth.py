import random

import pytest

from conftest import raises_code
from hdbprep.identity import make_household_key
from hdbprep.ingest import ColumnSource, Variable, read_column_file, read_table
from hdbprep.model import AgeEncoding, GenderEncoding, IncomeMode, Member, ScaleKind
from hdbprep.aggregate import aggregate_all
from hdbprep.pipeline import PipelineConfig
from hdbprep.synth import (
    COLUMN_FILE_NAMES,
    LETTER_INCOME_FILE,
    NUMERIC_INCOME_FILE,
    SynthParams,
    generate,
    oracle_aggregate,
    write_column_files,
    write_table,
)

YEARS = AgeEncoding.YEARS
M1F2 = GenderEncoding.MALE1_FEMALE2


def key_of(p):
    return make_household_key(p.region, p.milieu, p.cluster, p.household)


def rows_of(result):
    """(key, member) rows for the generated persons, income taken from the
    numeric token when present."""
    numeric = result.params.income_mode is IncomeMode.NUMERIC
    rows = []
    for i, p in enumerate(result.persons, 1):
        rows.append(
            (
                key_of(p),
                Member(
                    line=i,
                    age_raw=p.age_raw,
                    gender_raw=p.gender_raw,
                    is_chief=p.poswrchief_raw == "1",
                    income=float(p.income_raw) if numeric else None,
                ),
            )
        )
    return rows


def assert_same_aggregate(a, b):
    assert a.key.canonical == b.key.canonical
    assert a.size == b.size
    assert a.n_adults == b.n_adults
    assert a.n_children == b.n_children
    assert a.label_area == b.label_area
    assert a.label_chief_gender == b.label_chief_gender
    for field in ("scale_oxford", "scale_faofam", "scale_dmp",
                  "total_income", "scaled_income"):
        left, right = getattr(a, field), getattr(b, field)
        if left is None or right is None:
            assert left is None and right is None, field
        else:
            assert left == pytest.approx(right, rel=1e-12), field


class TestParams:
    def test_too_few_households_for_regions(self):
        with raises_code("ERROR"):
            SynthParams(n_households=2, seed=1, n_regions=4)

    def test_capacity_exceeded(self):
        with raises_code("ERROR"):
            SynthParams(
                n_households=100,
                seed=1,
                n_regions=1,
                max_milieux=1,
                max_clusters=1,
                max_households_per_cluster=6,
            )

    def test_counts_must_be_positive(self):
        with raises_code("ERROR"):
            SynthParams(n_households=0, seed=1)


class TestGenerate:
    def test_same_seed_same_database(self):
        a = generate(SynthParams(n_households=30, seed=42))
        b = generate(SynthParams(n_households=30, seed=42))
        assert a.persons == b.persons
        assert a.ground_truth == b.ground_truth

    def test_different_seed_different_database(self):
        a = generate(SynthParams(n_households=30, seed=42))
        b = generate(SynthParams(n_households=30, seed=43))
        assert a.persons != b.persons

    def test_household_count(self):
        result = generate(SynthParams(n_households=30, seed=1))
        assert len(result.ground_truth) == 30

    def test_members_are_consecutive_by_key(self):
        result = generate(SynthParams(n_households=40, seed=3))
        keys = [key_of(p).canonical for p in result.persons]
        blocks = []
        for canonical in keys:
            if not blocks or blocks[-1] != canonical:
                blocks.append(canonical)
        assert len(blocks) == len(set(blocks)) == 40

    def test_truth_sizes_match_person_stream(self):
        result = generate(SynthParams(n_households=25, seed=9))
        keys = [key_of(p).canonical for p in result.persons]
        for agg in result.ground_truth:
            assert agg.size == keys.count(agg.key.canonical)
            assert 1 <= agg.size <= result.params.max_household_size
        assert sum(a.size for a in result.ground_truth) == len(result.persons)

    def test_global_household_numbering(self):
        result = generate(SynthParams(n_households=20, seed=5))
        tokens = []
        for p in result.persons:
            if not tokens or tokens[-1] != p.household:
                tokens.append(p.household)
        assert tokens == [str(i) for i in range(1, 21)]

    def test_renumbering_restarts_per_cluster(self):
        result = generate(SynthParams(n_households=20, seed=5, renumber_households=True))
        seen = []
        for p in result.persons:
            cell = (p.region, p.milieu, p.cluster, p.household)
            if not seen or seen[-1] != cell:
                seen.append(cell)
        by_cluster = {}
        for region, milieu, cluster, household in seen:
            by_cluster.setdefault((region, milieu, cluster), []).append(household)
        for numbers in by_cluster.values():
            assert numbers == [str(i) for i in range(1, len(numbers) + 1)]

    def test_exactly_one_chief_per_household(self):
        result = generate(SynthParams(n_households=30, seed=11))
        chiefs = {}
        for p in result.persons:
            key = key_of(p).canonical
            chiefs[key] = chiefs.get(key, 0) + (p.poswrchief_raw == "1")
        assert set(chiefs.values()) == {1}
        for agg in result.ground_truth:
            assert agg.label_chief_gender in ("1", "2")

    def test_ages_stay_in_range(self):
        result = generate(SynthParams(n_households=30, seed=13))
        for p in result.persons:
            assert 0 <= int(p.age_raw) <= 90  # 99 stays reserved

    def test_class_encoding_ages(self):
        result = generate(SynthParams(n_households=10, seed=13,
                                      age_encoding=AgeEncoding.FIVE_YEAR_CLASSES))
        for p in result.persons:
            assert 1 <= int(p.age_raw) <= 18

    def test_no_income_mode(self):
        result = generate(SynthParams(n_households=10, seed=2, income_mode=IncomeMode.NONE))
        assert all(p.income_raw is None for p in result.persons)
        assert all(a.total_income is None for a in result.ground_truth)
        assert all(a.scaled_income is None for a in result.ground_truth)

    def test_letter_income_tokens(self):
        result = generate(SynthParams(n_households=10, seed=2))
        assert all(p.income_raw in set("ABCDEFGHIUJKL") for p in result.persons)


class TestAnomalies:
    def test_flagged_households(self):
        result = generate(SynthParams(n_households=15, seed=21, anomalies=True))
        truth = result.ground_truth
        assert truth[0].label_chief_gender == "XXX"
        assert truth[1].size >= 2
        assert " x" in truth[2].key.canonical
        assert truth[2].label_area.endswith(" x")

    def test_second_household_has_two_chiefs(self):
        result = generate(SynthParams(n_households=15, seed=21, anomalies=True))
        target = result.ground_truth[1].key.canonical
        count = sum(
            p.poswrchief_raw == "1"
            for p in result.persons
            if key_of(p).canonical == target
        )
        assert count == 2

    def test_off_by_default(self):
        result = generate(SynthParams(n_households=15, seed=21))
        assert all(a.label_chief_gender != "XXX" for a in result.ground_truth)


class TestOracleEquivalence:
    def test_truth_matches_oracle(self):
        result = generate(SynthParams(n_households=40, seed=77,
                                      income_mode=IncomeMode.NUMERIC))
        oracle = oracle_aggregate(
            rows_of(result),
            age_encoding=YEARS,
            gender_encoding=M1F2,
            income_enabled=True,
            scaled_by=ScaleKind.OXFORD,
        )
        assert len(oracle) == 40
        for expected in result.ground_truth:
            assert_same_aggregate(oracle[expected.key.canonical], expected)

    def test_streaming_pass_matches_truth(self):
        from hdbprep.model import ScaleSpec

        result = generate(SynthParams(n_households=40, seed=78,
                                      income_mode=IncomeMode.NUMERIC))
        config = PipelineConfig(
            age_encoding=YEARS,
            gender_encoding=M1F2,
            scales=(
                ScaleSpec(ScaleKind.OXFORD),
                ScaleSpec(ScaleKind.FAOFAM),
                ScaleSpec(ScaleKind.DMP, dmp_c=0.5, dmp_s=0.7),
            ),
            income_mode=IncomeMode.NUMERIC,
            scaled_by=ScaleKind.OXFORD,
        )
        out = list(aggregate_all(rows_of(result), config, scale_income=True))
        assert len(out) == len(result.ground_truth)
        for got, expected in zip(out, result.ground_truth):
            assert_same_aggregate(got, expected)

    def test_oracle_is_order_insensitive(self):
        result = generate(SynthParams(n_households=25, seed=31,
                                      income_mode=IncomeMode.NUMERIC))
        rows = rows_of(result)
        shuffled = rows[:]
        random.Random(0).shuffle(shuffled)
        a = oracle_aggregate(rows, age_encoding=YEARS, gender_encoding=M1F2,
                             income_enabled=True, scaled_by=ScaleKind.OXFORD)
        b = oracle_aggregate(shuffled, age_encoding=YEARS, gender_encoding=M1F2,
                             income_enabled=True, scaled_by=ScaleKind.OXFORD)
        assert set(a) == set(b)
        for canonical in a:
            assert_same_aggregate(a[canonical], b[canonical])

    def test_empty_input(self):
        assert dict(oracle_aggregate([], age_encoding=YEARS, gender_encoding=M1F2)) == {}


class TestFileOutput:
    def test_column_files_round_trip(self, tmp_path):
        result = generate(SynthParams(n_households=12, seed=4))
        paths = write_column_files(result, tmp_path)
        names = {p.name for p in paths}
        assert set(COLUMN_FILE_NAMES.values()) <= names
        assert LETTER_INCOME_FILE in names
        ages = read_column_file(ColumnSource(tmp_path / "age.txt", Variable.AGE))
        assert ages == [p.age_raw for p in result.persons]
        regions = read_column_file(ColumnSource(tmp_path / "region.txt", Variable.REGION))
        assert regions == [p.region for p in result.persons]

    def test_numeric_income_file_name(self, tmp_path):
        result = generate(SynthParams(n_households=12, seed=4,
                                      income_mode=IncomeMode.NUMERIC))
        names = {p.name for p in write_column_files(result, tmp_path)}
        assert NUMERIC_INCOME_FILE in names
        assert LETTER_INCOME_FILE not in names

    def test_no_income_file_when_disabled(self, tmp_path):
        result = generate(SynthParams(n_households=12, seed=4,
                                      income_mode=IncomeMode.NONE))
        names = {p.name for p in write_column_files(result, tmp_path)}
        assert LETTER_INCOME_FILE not in names
        assert NUMERIC_INCOME_FILE not in names

    def test_table_round_trip(self, tmp_path):
        from hdbprep.ingest import TableSource

        result = generate(SynthParams(n_households=12, seed=4))
        path = write_table(result, tmp_path / "persons.csv")
        column_map = {v: v.value for v in Variable}
        records = read_table(TableSource(path, column_map))
        assert records == list(result.persons)
