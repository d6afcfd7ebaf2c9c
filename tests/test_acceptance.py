"""Acceptance checks, one test per criterion.

Each test prints a single "criterion N PASS" line when its assertions hold
(run with -s to see them); a failing criterion shows up as a normal pytest
failure. The whole module is built to finish well inside one minute.
"""

import itertools
import random

import mpmath
import pytest

from conftest import raises_code
from hdbprep.aggregate import aggregate_all
from hdbprep.cli import main
from hdbprep.identity import PrefixScheme, make_household_key, parse_household_key
from hdbprep.model import (
    Age,
    AgeEncoding,
    Gender,
    GenderEncoding,
    IncomeMode,
    Member,
    ScaleKind,
    ScaleSpec,
)
from hdbprep.pipeline import PipelineConfig
from hdbprep.recode import elim1_default_map, income_from_letter
from hdbprep.scales import dmp_scale, faofam_weight, oxford_weight
from hdbprep.synth import SynthParams, generate, oracle_aggregate

YEARS = AgeEncoding.YEARS
CLASSES = AgeEncoding.FIVE_YEAR_CLASSES
M1F2 = GenderEncoding.MALE1_FEMALE2

ALL_SCALES = (
    ScaleSpec(ScaleKind.OXFORD),
    ScaleSpec(ScaleKind.FAOFAM),
    ScaleSpec(ScaleKind.DMP, dmp_c=0.5, dmp_s=0.7),
)


def report(n, title):
    print(f"criterion {n} PASS: {title}")


# below / at / above the adult threshold, in both encodings
AGE_POINTS = [
    (YEARS, 14.0, False),
    (YEARS, 15.0, True),
    (YEARS, 40.0, True),
    (CLASSES, 3.0, False),
    (CLASSES, 4.0, True),
    (CLASSES, 10.0, True),
]


def test_criterion_1_scale_table_exactness():
    checked = 0
    for encoding, value, is_adult in AGE_POINTS:
        age = Age(value)
        for chief in (True, False):
            expected = (1.0 if chief else 0.7) if is_adult else 0.5
            assert oxford_weight(age, encoding, chief) == expected
            checked += 1
    assert checked == 12
    checked = 0
    for encoding, value, is_adult in AGE_POINTS:
        age = Age(value)
        for gender in (Gender.MALE, Gender.FEMALE):
            expected = (1.0 if gender is Gender.MALE else 0.8) if is_adult else 0.5
            assert faofam_weight(age, encoding, gender) == expected
            checked += 1
    assert checked == 12
    report(1, "oxford and faofam boundary tables are exact")


def test_criterion_2_dmp_formula():
    mpmath.mp.dps = 30
    oracle = mpmath.power(
        mpmath.mpf(2) + mpmath.mpf("0.5") * mpmath.mpf(3), mpmath.mpf("0.7")
    )
    got = mpmath.mpf(dmp_scale(2, 3, 0.5, 0.7))
    assert abs(got - oracle) / oracle < mpmath.mpf("1e-9")
    for n_adults in range(1, 101):
        for c in (0.0, 0.5, 1.0):
            assert dmp_scale(n_adults, 0, c, 1.0) == float(n_adults)
    report(2, "dmp matches a 30-digit oracle and is exact at s=1")


def test_criterion_3_income_recode_reproduction():
    literal = elim1_default_map(paper_literal=True)
    legacy_amounts = {
        "A": 14500.0, "B": 39500.0, "C": 75000.0, "D": 125000.0,
        "E": 175000.0, "F": 115000.0, "G": 400000.0, "H": 625000.0,
        "U": 875000.0, "J": 1250000.0, "K": 2000000.0, "L": 3000000.0,
    }
    assert len(legacy_amounts) == 12
    for code, amount in legacy_amounts.items():
        assert income_from_letter(code, literal) == amount, code

    corrected = elim1_default_map()
    assert income_from_letter("F", corrected) == 250000.0
    amounts = [income_from_letter(chr(ord("A") + i), corrected) for i in range(12)]
    assert all(a < b for a, b in zip(amounts, amounts[1:]))
    report(3, "legacy income table reproduced; corrected table increasing")


def test_criterion_4_identifier_round_trip():
    rng = random.Random(20260819)
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
    tuples = [
        tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            for _ in range(4)
        )
        for _ in range(10_000)
    ]
    for letters in ("RMCH", "DMCH"):
        scheme = PrefixScheme.from_string(letters)
        canonicals = set()
        for strata in tuples:
            key = make_household_key(*strata, scheme)
            assert parse_household_key(key.canonical, scheme) == strata
            canonicals.add(key.canonical)
        assert len(canonicals) == len(set(tuples))
    report(4, "10,000 keys round-trip without collisions under both schemes")


def build_rows(persons, income_map):
    rows = []
    for i, p in enumerate(persons, 1):
        rows.append(
            (
                make_household_key(p.region, p.milieu, p.cluster, p.household),
                Member(
                    line=i,
                    age_raw=p.age_raw,
                    gender_raw=p.gender_raw,
                    is_chief=p.is_chief,
                    income=income_from_letter(p.income_raw, income_map),
                ),
            )
        )
    return rows


def assert_same_household(got, expected):
    assert got.key.canonical == expected.key.canonical
    assert got.size == expected.size
    assert got.n_adults == expected.n_adults
    assert got.n_children == expected.n_children
    assert got.label_area == expected.label_area
    assert got.label_chief_gender == expected.label_chief_gender
    assert got.total_income == expected.total_income
    assert got.scale_oxford == pytest.approx(expected.scale_oxford, rel=1e-9)
    assert got.scale_faofam == pytest.approx(expected.scale_faofam, rel=1e-9)
    assert got.scale_dmp == pytest.approx(expected.scale_dmp, rel=1e-9)
    assert got.scaled_income == pytest.approx(expected.scaled_income, rel=1e-9)


def test_criterion_5_oracle_equivalence():
    income_map = elim1_default_map()
    config = PipelineConfig(
        age_encoding=YEARS, gender_encoding=M1F2, scales=ALL_SCALES,
        income_mode=IncomeMode.LETTERS, scaled_by=ScaleKind.OXFORD,
    )
    for renumber in (False, True):
        result = generate(
            SynthParams(
                n_households=1000,
                seed=20260819,
                n_regions=6,
                max_milieux=4,
                max_clusters=5,
                max_households_per_cluster=10,
                renumber_households=renumber,
            )
        )
        assert len(result.ground_truth) == 1000
        rows = build_rows(result.persons, income_map)
        streamed = list(aggregate_all(rows, config, scale_income=True))
        oracle = oracle_aggregate(
            rows,
            age_encoding=YEARS,
            gender_encoding=M1F2,
            income_enabled=True,
            scaled_by=ScaleKind.OXFORD,
        )
        assert len(streamed) == len(oracle) == 1000
        for got, truth in zip(streamed, result.ground_truth):
            assert_same_household(got, truth)
            assert_same_household(oracle[truth.key.canonical], truth)
    report(5, "streaming, hash-map oracle and ground truth agree on 2x1000 households")


FUSED_FILES = (
    "identhousehold.txt", "monthlyincome.txt", "scaleoxford.txt",
    "scalefaofam.txt", "scaleDMP-0.5-0.7.txt", "sizehousehold.txt",
    "totalincome.txt", "labelregion.txt", "labelgender.txt",
)


def test_criterion_6_pass_fusion_equivalence(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "404", "--households", "200",
                 "--out-dir", str(data)]) == 0
    config = str(data / "config.ini")
    fused = tmp_path / "fused"
    staged = tmp_path / "staged"
    assert main(["run", "--config", config, "--out-dir", str(fused)]) == 0
    assert main(["identify", "--config", config, "--out-dir", str(staged)]) == 0
    assert main(["recode-income", "--config", config, "--out-dir", str(staged)]) == 0
    for what in ("oxford", "faofam", "dmp", "size", "income", "area", "chief"):
        assert main(["aggregate", "--config", config, "--out-dir", str(staged),
                     "--only", what]) == 0
    for name in FUSED_FILES:
        fused_lines = (fused / name).read_text(encoding="utf-8").splitlines()
        staged_lines = (staged / name).read_text(encoding="utf-8").splitlines()
        assert fused_lines == staged_lines, name
    report(6, "stage-by-stage runs reproduce the fused run file for file")


def test_criterion_7_conservation():
    cases = [
        SynthParams(n_households=50, seed=1),
        SynthParams(n_households=120, seed=2, renumber_households=True),
        SynthParams(n_households=30, seed=3, anomalies=True,
                    age_encoding=AgeEncoding.FIVE_YEAR_CLASSES),
    ]
    for params in cases:
        result = generate(params)
        assert sum(a.size for a in result.ground_truth) == len(result.persons)
        run_count = len(
            list(itertools.groupby(
                (p.region, p.milieu, p.cluster, p.household)
                for p in result.persons
            ))
        )
        assert len(result.ground_truth) == run_count
    report(7, "household sizes conserve the person count on every database")


def test_criterion_8_anomaly_semantics(tmp_path, capsys):
    result = generate(SynthParams(n_households=20, seed=55, anomalies=True))
    truth = result.ground_truth

    assert truth[0].label_chief_gender == "XXX"

    two_chief_key = truth[1].key
    chiefs = [p for p in result.persons
              if (p.region, p.milieu, p.cluster, p.household)
              == two_chief_key.components and p.is_chief]
    assert len(chiefs) == 2
    assert truth[1].label_chief_gender == chiefs[-1].gender_raw

    income_map = elim1_default_map()
    warnings = []
    config = PipelineConfig(age_encoding=YEARS, gender_encoding=M1F2, scales=ALL_SCALES)
    streamed = list(aggregate_all(build_rows(result.persons, income_map),
                                  config, warnings))
    assert streamed[0].label_chief_gender == "XXX"
    assert streamed[1].label_chief_gender == chiefs[-1].gender_raw
    assert any(w.code == "MULTIPLE_CHIEFS" for w in warnings)

    # unsorted input must fail loudly, naming the offending row
    key = lambda h: make_household_key("1", "1", "1", h)
    rows = [(key(h), Member(line=line, age_raw="30", gender_raw="1", is_chief=False))
            for line, h in enumerate("121", 1)]
    with raises_code("NON_CONSECUTIVE_KEY") as info:
        list(aggregate_all(rows, config))
    assert info.value.code == "NON_CONSECUTIVE_KEY"
    assert info.value.line == 3
    assert "R1M1C1H1" in str(info.value)

    # and the same failure surfaces through the command line
    for name, tokens in {
        "region": ["1", "1", "1"], "milieu": ["1", "1", "1"],
        "cluster": ["1", "1", "1"], "household": ["1", "2", "1"],
        "age": ["30", "40", "8"], "gender": ["1", "2", "1"],
        "poswrchief": ["1", "1", "2"],
    }.items():
        (tmp_path / f"{name}.txt").write_text(
            "".join(f"{t}\n" for t in tokens), encoding="utf-8"
        )
    (tmp_path / "config.ini").write_text("[input]\ndir = .\n", encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.ini")]) == 1
    err = capsys.readouterr().err
    assert "NON_CONSECUTIVE_KEY" in err
    assert "line 3" in err
    report(8, "no-chief, two-chief and unsorted-key cases behave as specified")


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "77", "--households", "150",
                 "--out-dir", str(data), "--anomalies"]) == 0
    config = str(data / "config.ini")
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", config, "--out-dir", str(first)]) == 0
    assert main(["run", "--config", config, "--out-dir", str(second)]) == 0
    names = FUSED_FILES + ("households.csv",)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    report(9, "repeated runs produce byte-identical outputs")
