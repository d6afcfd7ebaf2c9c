import csv
import dataclasses
import hashlib
import io
import random

import pytest
from hypothesis import given, strategies as st

from conftest import raises_code
from hdbprep.cli import main
from hdbprep.identity import make_household_key
from hdbprep.ingest import (
    REQUIRED_VARIABLES,
    ColumnSource,
    TableSource,
    Variable,
    read_column_sources,
    read_table,
)
from hdbprep.model import (
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    ScaleKind,
)
from hdbprep.aggregate import aggregate_all
from hdbprep.pipeline import DEFAULT_COLUMN_FILES, PipelineConfig
from hdbprep.synth import (
    LETTER_INCOME_FILE,
    NUMERIC_INCOME_FILE,
    SynthParams,
    SynthPerson,
    _composition,
    _drawer,
    generate,
    write_column_files,
    write_table,
)

YEARS = AgeEncoding.YEARS
M1F2 = GenderEncoding.MALE1_FEMALE2


def key_of(p):
    return make_household_key(p.region, p.milieu, p.cluster, p.household)


def rows_of(result):
    """The fold's flat person rows for the generated persons, income taken
    from the numeric token when present."""
    numeric = result.params.income_mode is IncomeMode.NUMERIC
    return [(key_of(p), i, p.age_raw, p.gender_raw, p.poswrchief_raw,
             float(p.income_raw) if numeric else None)
            for i, p in enumerate(result.persons, 1)]


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

    @pytest.mark.parametrize("name, value", [("dmp_c", 1.5), ("dmp_c", -0.1), ("dmp_s", 1.01),
                                             ("dmp_s", -1.0), ("dmp_c", float("nan"))])
    def test_dmp_parameters_lie_in_the_unit_interval(self, name, value):
        with raises_code("DMP_PARAM_OUT_OF_RANGE") as info:
            SynthParams(n_households=20, seed=2, **{name: value})
        assert info.value.message == (f"bad value for [scales] {name}: DMP parameter "
                                      f"{name[-1]}={value} outside [0, 1]")

    def test_zero_dmp_c_is_refused_where_the_dmp_scale_divides(self):
        zero = dict(n_households=20, seed=2, dmp_c=0.0)
        with raises_code("ERROR") as info:
            SynthParams(**zero, scaled_by=ScaleKind.DMP)
        assert "DMP scale of 0" in info.value.message
        # seed 2 draws a children-only household, whose DMP scale is then 0
        assert 0.0 in {h.scale_dmp for h in generate(SynthParams(**zero)).ground_truth}
        for accepted in (dict(scaled_by=ScaleKind.OXFORD),
                         dict(scaled_by=ScaleKind.DMP, income_mode=IncomeMode.NONE),
                         dict(scaled_by=ScaleKind.DMP, dmp_s=0.0)):
            generate(SynthParams(**zero, **accepted))


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

    def test_numeric_incomes_span_their_whole_range(self):
        # about 60,000 draws, where each end (1 in 5,001) is drawn about 12 times
        result = generate(SynthParams(n_households=12_000, seed=4, n_regions=10,
                                      max_milieux=5, max_clusters=20,
                                      max_households_per_cluster=50,
                                      income_mode=IncomeMode.NUMERIC))
        amounts = {int(p.income_raw) for p in result.persons}
        assert all(amount % 100 == 0 and 0 <= amount <= 500_000 for amount in amounts)
        assert {0, 500_000} <= amounts


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
    def test_streaming_pass_matches_truth(self):
        result = generate(SynthParams(n_households=40, seed=78,
                                      income_mode=IncomeMode.NUMERIC))
        config = PipelineConfig(
            age_encoding=YEARS,
            gender_encoding=M1F2,
            scales=(ScaleKind.OXFORD, ScaleKind.FAOFAM, ScaleKind.DMP),
            dmp_c=0.5,
            dmp_s=0.7,
            income_mode=IncomeMode.NUMERIC,
            scaled_by=ScaleKind.OXFORD,
        )
        out = list(aggregate_all(rows_of(result), config, scale_income=True))
        assert len(out) == len(result.ground_truth)
        for got, expected in zip(out, result.ground_truth):
            assert_same_aggregate(got, expected)


class TestFileOutput:
    def test_column_files_round_trip(self, tmp_path):
        result = generate(SynthParams(n_households=12, seed=4))
        paths = write_column_files(result, tmp_path)
        names = {p.name for p in paths}
        assert set(DEFAULT_COLUMN_FILES.values()) <= names
        assert LETTER_INCOME_FILE in names
        persons = read_column_sources([ColumnSource(tmp_path / "region.txt", Variable.REGION),
                                       ColumnSource(tmp_path / "age.txt", Variable.AGE)])
        assert persons == [(p.region, p.age_raw) for p in result.persons]

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
        result = generate(SynthParams(n_households=12, seed=4))
        path = write_table(result, tmp_path / "persons.csv")
        column_map = {v: v.value for v in Variable}
        records = read_table(TableSource(path, column_map))
        assert records == list(result.persons)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", " ", "1"])
    def test_table_is_what_the_csv_module_writes(self, delimiter, tmp_path):
        result = generate(SynthParams(n_households=12, seed=4, anomalies=True))
        assert " " in result.persons[result.ground_truth[0].size
                                     + result.ground_truth[1].size].region
        # cells the writer may quote
        persons = list(result.persons)
        persons[-1] = persons[-1]._replace(age_raw='4"0')
        persons[-17] = persons[-17]._replace(age_raw="4\n0")
        variables = (*REQUIRED_VARIABLES, Variable.INCOME)
        # the writer leaves a lone "\r" unquoted: a table holding one has
        # every cell quoted
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            if quoting == csv.QUOTE_ALL:
                persons[-9] = persons[-9]._replace(age_raw="4\r0")
            path = write_table(dataclasses.replace(result, persons=tuple(persons)),
                               tmp_path / "persons.csv", delimiter)
            expected = io.StringIO()
            writer = csv.writer(expected, delimiter=delimiter, lineterminator="\n",
                                quoting=quoting)
            writer.writerow(PipelineConfig().table_columns[v] for v in variables)
            writer.writerows(person[:len(variables)] for person in persons)
            assert path.read_bytes() == expected.getvalue().encode()

    def test_line_break_cells_round_trip(self, tmp_path):
        result = generate(SynthParams(n_households=12, seed=4))
        persons = list(result.persons)
        persons[5] = persons[5]._replace(gender_raw="1\r2")
        persons[9] = persons[9]._replace(age_raw="4\r\n0")
        persons[14] = persons[14]._replace(region="1\n2")
        path = write_table(dataclasses.replace(result, persons=tuple(persons)),
                           tmp_path / "persons.csv")
        with path.open(encoding="utf-8", newline="") as handle:
            assert [tuple(row) for row in csv.reader(handle)][1:] == persons
        # the first cell with a line break is named at its row's first line
        # (the header is line 1), not as a row cut short
        with raises_code("BAD_STRATA_TOKEN") as info:
            read_table(TableSource(path, {v: v.value for v in Variable}))
        assert (info.value.line, info.value.message) == (
            7, "column 'gender' contains a line break: '1\\r2'")


class TestRecordShape:
    @pytest.mark.parametrize("income_mode", list(IncomeMode))
    @pytest.mark.parametrize("seed, anomalies", [(2, False), (3, True), (2017, True)])
    def test_records_have_their_type_and_every_cell(self, income_mode, seed, anomalies):
        # records are built without the named tuples' arity check
        result = generate(SynthParams(n_households=50, seed=seed, income_mode=income_mode,
                                      anomalies=anomalies, max_household_size=12))
        for person in result.persons:
            assert type(person) is SynthPerson
            assert len(person) == len(SynthPerson._fields)
        for household in result.ground_truth:
            assert type(household) is HouseholdAggregate
            assert len(household) == len(HouseholdAggregate._fields)
            assert type(household.key) is HouseholdKey
            assert len(household.key) == len(HouseholdKey._fields)
            assert len(household.key.components) == 4


#: The benchmark's survey frame and the output grid's (tools/output_grid.py).
BENCH_FRAME = ["--regions", "20", "--max-milieux", "10", "--max-clusters", "50",
               "--max-per-cluster", "200"]
GRID_FRAME = ["--households", "400", "--regions", "6", "--max-clusters", "8",
              "--max-per-cluster", "12", "--max-size", "12"]

#: `hdbprep synth` flags -> sha256 over the name and bytes of every file
#: written, in name order. A seed fixes every byte, so any change to how
#: the generator draws shows here.
SYNTH_BYTES = {
    "default": (
        ["--seed", "7", "--households", "25"],
        "69c7bcf5a8c7d72de9389be4aad40091c66557edfd40900f47dcd49ea71b7d5e"),
    "grid_anomalies_renumber": (
        ["--seed", "3", *GRID_FRAME, "--anomalies", "--renumber"],
        "065b77682d3697f8fd8b1a70b560988413f0b698c6029c56819736088466e863"),
    "classes_male0_numeric_table": (
        ["--seed", "5", "--households", "40", "--age-encoding", "classes",
         "--gender-encoding", "male0_female1", "--income", "numeric", "--table"],
        "e180567c7b42be238f69b13ad692a443883ab775bcc228eeeb88fb05bc8c1224"),
    "no_income_table": (
        ["--seed", "9", "--households", "30", "--income", "none", "--table"],
        "2f78b968b07f3951a8d6e45b3d7fa41b568f0b80ba0e12826776ae1e6221b52a"),
    "bench_frame": (
        ["--seed", "1", "--households", "3000", *BENCH_FRAME],
        "5381f3ae24e791230a44589fba2804024a183afe909b5d3fa17b36c19e7975d8"),
    "bench_table_frame": (
        ["--seed", "1", "--households", "1500", "--max-size", "20", "--income", "numeric",
         "--table", *BENCH_FRAME],
        "5eb1e1ab5e848ac84d7264cf287a9e031c42612135cb67f9c54c8319d4559a98"),
    "full_default_frame": (
        ["--seed", "11", "--households", "288"],
        "3c01687132e036b6f789a19d2ae288687fa3d6c0e54edba4e6b17b7c1ab82fa9"),
}


class TestBytes:
    @pytest.mark.parametrize("case", sorted(SYNTH_BYTES))
    def test_seed_fixes_every_byte(self, case, tmp_path, capsys):
        flags, expected = SYNTH_BYTES[case]
        assert main(["synth", *flags, "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("seed", [0, 1, 7, 2017, 123456789])
    def test_below_draws_what_randrange_draws(self, seed):
        sizes = (1, 2, 3, 13, 18, 91, 128, 129, 5001)
        for n in sizes:
            below, reference = _drawer(random.Random(seed)), random.Random(seed)
            assert [below(n) for _ in range(300)] == [reference.randrange(n) for _ in range(300)]
        # sizes mixed in one stream, as the generator mixes them
        below, reference = _drawer(random.Random(seed)), random.Random(seed)
        assert ([below(n) for n in sizes * 30]
                == [reference.randrange(n) for n in sizes * 30])


class TestFramePlan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_frame_fills_every_cluster(self, seed):
        params = SynthParams(n_households=288, seed=seed)
        clusters = params.n_regions * params.max_milieux * params.max_clusters
        assert clusters * params.max_households_per_cluster == 288  # the frame's capacity
        per_cluster = {}
        for household in generate(params).ground_truth:
            cluster = household.key.components[:3]
            per_cluster[cluster] = per_cluster.get(cluster, 0) + 1
        assert len(per_cluster) == clusters
        assert set(per_cluster.values()) == {params.max_households_per_cluster}

    def test_one_cell_frame(self):
        params = SynthParams(n_households=1, seed=5, n_regions=1, max_milieux=1,
                             max_clusters=1, max_households_per_cluster=1)
        (household,) = generate(params).ground_truth
        assert household.key.components == ("1", "1", "1", "1")

    @given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 10**6), st.data())
    def test_composition_counts_lie_within_cap(self, parts, cap, seed, data):
        total = data.draw(st.integers(parts, parts * cap))
        counts = _composition(_drawer(random.Random(seed)), total, parts, cap)
        assert len(counts) == parts
        assert sum(counts) == total
        assert all(1 <= count <= cap for count in counts)
