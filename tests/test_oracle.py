"""The file oracle (`oracle.py`) against the generator's ground truth, and
`hdbprep run` against the file oracle on a fixed list of configs: every
cell of every output file, and the warnings by code. Then every processing
command against the oracle and the ground truth over drawn generator
settings, configs and layouts."""

import configparser
import csv
import dataclasses
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hdbprep.cli import _write_synth_config, main
from hdbprep.model import AgeEncoding, GenderEncoding, IncomeMode, ScaleKind
from hdbprep.synth import SynthParams, generate, write_column_files, write_table
from oracle import HEADER, VARIABLES, expected_outputs


def households(files):
    """The oracle's households.csv rows, by key, in row order."""
    return {row[0]: row for row in files["households.csv"][1:]}


def truth_row(aggregate):
    """A ground-truth household as a households.csv row."""
    return (aggregate.key.canonical, *aggregate[1:])


def assert_same_row(got, expected):
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        if isinstance(left, float) or isinstance(right, float):
            assert left == pytest.approx(right, rel=1e-12)
        else:
            assert left == right


class TestFileOracle:
    def test_truth_matches_oracle(self, tmp_path):
        result = generate(SynthParams(n_households=40, seed=77,
                                      income_mode=IncomeMode.NUMERIC))
        write_column_files(result, tmp_path)
        oracle = households(expected_outputs(tmp_path, income="numeric")[0])
        assert len(oracle) == 40
        for expected in result.ground_truth:
            assert_same_row(oracle[expected.key.canonical], truth_row(expected))

    def test_oracle_is_order_insensitive(self, tmp_path):
        result = generate(SynthParams(n_households=25, seed=31,
                                      income_mode=IncomeMode.NUMERIC))
        write_column_files(result, tmp_path)
        shuffled = list(result.persons)
        random.Random(0).shuffle(shuffled)
        write_table(dataclasses.replace(result, persons=tuple(shuffled)),
                    tmp_path / "shuffled.csv")
        a = households(expected_outputs(tmp_path, income="numeric")[0])
        b = households(expected_outputs(tmp_path, table="shuffled.csv", income="numeric",
                                        sort=True)[0])
        assert set(a) == set(b)
        assert list(b) == sorted(a)
        for canonical in a:
            assert_same_row(a[canonical], b[canonical])

    def test_empty_input(self, tmp_path):
        for name in VARIABLES[:-1]:
            (tmp_path / f"{name}.txt").write_text("")
        files, warnings = expected_outputs(tmp_path)
        assert households(files) == {}
        assert warnings == Counter()


def shuffle_table(corpus):
    """Write shuffled.csv: persons.csv with its data rows in a fixed random
    order, so that a household's members lie apart."""
    header, *rows = (corpus / "persons.csv").read_text(encoding="utf-8").splitlines(True)
    random.Random(4).shuffle(rows)
    (corpus / "shuffled.csv").write_text(header + "".join(rows), encoding="utf-8")


def unknown_ages(corpus):
    """Set every fifth age to the unknown-age code 99."""
    path = corpus / "age.txt"
    ages = path.read_text(encoding="utf-8").splitlines()
    ages[::5] = ["99"] * len(ages[::5])
    path.write_text("\n".join(ages) + "\n", encoding="utf-8")


def written(out_dir):
    """{file name: rows of text cells} of every file in ``out_dir``."""
    files = {}
    for path in out_dir.iterdir():
        with path.open(encoding="utf-8", newline="") as handle:
            if path.suffix == ".csv":
                files[path.name] = list(csv.reader(handle))
            else:
                lines = handle.read().split("\n")
                if lines[-1] == "":
                    lines.pop()
                files[path.name] = [[line] for line in lines]
    return files


def same_cell(text, expected):
    """Counts, keys and labels exactly; amounts and scales to 1e-11
    relative, as a number keeps at most 12 significant digits."""
    if expected is None:
        return text == ""
    if isinstance(expected, float):
        return text != "" and math.isclose(float(text), expected, rel_tol=1e-11)
    return text == str(expected)


def assert_same_files(got, expected, context=()):
    """Every file of ``expected`` is in ``got`` and no other, row by row and
    cell by cell as `same_cell` compares them."""
    assert sorted(got) == sorted(expected), context
    for name, rows in expected.items():
        assert len(got[name]) == len(rows), (*context, name)
        for line, (cells, cells_expected) in enumerate(zip(got[name], rows), 1):
            assert len(cells) == len(cells_expected), (*context, name, line)
            assert all(map(same_cell, cells, cells_expected)), (
                *context, name, line, cells, cells_expected)


# synth flags, corpus edit, config edits, run flags, oracle arguments
CONFIGS = [
    pytest.param(["--income", "letters"], None, {}, [], dict(income="letters"),
                 id="letters-columns"),
    pytest.param(["--income", "letters", "--age-encoding", "classes", "--gender-encoding",
                  "male0_female1", "--renumber", "--anomalies"], None, {},
                 ["--scale", "dmp", "--dmp-c", "0.3"],
                 dict(income="letters", ages="classes", genders="male0_female1",
                      scaled_by="dmp", dmp_c=0.3), id="classes-renumber-anomalies-dmp"),
    pytest.param(["--income", "numeric", "--max-size", "12", "--table"], shuffle_table,
                 {"input": {"mode": "table", "table": "shuffled.csv"}},
                 ["--sort", "--scale", "faofam"],
                 dict(income="numeric", table="shuffled.csv", sort=True, scaled_by="faofam"),
                 id="shuffled-numeric-table-sort-faofam"),
    pytest.param(["--income", "none"], None, {}, ["--scheme", "DMCH"],
                 dict(scheme="DMCH"), id="no-income"),
    pytest.param(["--income", "numeric"], None,
                 {"scales": {"oxford": "false", "dmp": "false", "scaled_by": "none"}}, [],
                 dict(income="numeric", scales=("faofam",), scaled_by=None), id="scales-off"),
    pytest.param(["--income", "letters"], unknown_ages,
                 {"variables": {"missing_age_policy": "strict"}}, [],
                 dict(income="letters", strict=True), id="strict-unknown-ages"),
]


@pytest.mark.parametrize("synth_flags, edit, config_edits, run_flags, oracle_args", CONFIGS)
def test_run_matches_file_oracle(tmp_path, capsys, synth_flags, edit, config_edits, run_flags,
                                 oracle_args):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--seed", "5", "--households", "60", "--out-dir", str(corpus),
                 *synth_flags]) == 0
    if edit is not None:
        edit(corpus)
    config = configparser.ConfigParser(interpolation=None)
    config.optionxform = str
    config.read(corpus / "config.ini", encoding="utf-8")
    config.read_dict(config_edits)
    with (corpus / "config.ini").open("w", encoding="utf-8") as handle:
        config.write(handle)
    capsys.readouterr()

    assert main(["run", "--config", str(corpus / "config.ini"), "--out-dir", str(out),
                 *run_flags]) == 0
    stdout = capsys.readouterr().out
    expected, expected_warnings = expected_outputs(corpus, **oracle_args)
    assert_same_files(written(out), expected)
    warnings = re.findall(r"^warning: (?:.*?: )?([A-Z_]+): ", stdout, re.M)
    assert Counter(warnings) == expected_warnings


@st.composite
def corpus_settings(draw):
    """Generator settings, the scales a config turns off, and a layout:
    "columns", "table", or "shuffled" (a person-shuffled table, run with
    --sort)."""
    regions = draw(st.integers(1, 4))
    milieux, clusters, per_cluster = (draw(st.integers(1, 3)) for _ in range(3))
    capacity = regions * milieux * clusters * per_cluster
    scaled_by = draw(st.sampled_from(ScaleKind))
    income = draw(st.sampled_from(IncomeMode))
    # a children-only household has a DMP scale of 0 when c is 0: ZERO_SCALE,
    # an error, where it divides income
    dividing_dmp = scaled_by is ScaleKind.DMP and income is not IncomeMode.NONE
    params = SynthParams(
        n_households=draw(st.integers(regions, min(capacity, 30))),
        seed=draw(st.integers(0, 2**32 - 1)),
        n_regions=regions,
        max_milieux=milieux,
        max_clusters=clusters,
        max_households_per_cluster=per_cluster,
        max_household_size=draw(st.integers(1, 12)),
        age_encoding=draw(st.sampled_from(AgeEncoding)),
        gender_encoding=draw(st.sampled_from(GenderEncoding)),
        income_mode=income,
        renumber_households=draw(st.booleans()),
        anomalies=draw(st.booleans()),
        scheme_letters=tuple(draw(st.permutations("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))[:4]),
        # hundredths, which name the DMP file the same way in the oracle
        dmp_c=draw(st.integers(1 if dividing_dmp else 0, 100)) / 100,
        dmp_s=draw(st.integers(0, 100)) / 100,
        scaled_by=scaled_by,
    )
    kept = {scaled_by} if income is not IncomeMode.NONE else set()
    off = draw(st.sets(st.sampled_from([kind for kind in ScaleKind if kind not in kept])))
    return params, off, draw(st.sampled_from(["columns", "table", "shuffled"]))


#: The files each command writes, beyond `run`, which writes them all.
SELECTED = {
    "identify": lambda name: name == "identhousehold.txt",
    "recode-income": lambda name: name == "monthlyincome.txt",
    "aggregate": lambda name: name not in ("identhousehold.txt", "monthlyincome.txt",
                                           "households.csv"),
    "run": lambda name: True,
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus_settings())
def test_every_command_matches_oracle_and_truth(tmp_path_factory, capsys, drawn):
    params, off, layout = drawn
    corpus = tmp_path_factory.mktemp("corpus")
    result = generate(params)
    write_column_files(result, corpus)
    table = {"columns": None, "table": "persons.csv", "shuffled": "shuffled.csv"}[layout]
    truth = [truth_row(aggregate) for aggregate in result.ground_truth]
    # the chief label is the gender of the last chief in line order, which a
    # shuffle may change in the one household that has two
    two_chiefs = None
    if params.anomalies and layout == "shuffled" and len(truth) > 1:
        two_chiefs = truth[1][0]
    if layout == "shuffled":
        persons = list(result.persons)
        random.Random(params.seed).shuffle(persons)
        result = dataclasses.replace(result, persons=tuple(persons))
        truth.sort(key=lambda row: row[0])
    if table is not None:
        write_table(result, corpus / table)

    config = configparser.ConfigParser(interpolation=None)
    config.optionxform = str
    config.read(_write_synth_config(corpus, params), encoding="utf-8")
    config["scales"].update({kind.value: "false" for kind in off})
    if table is not None:
        config["input"].update(mode="table", table=table)
    with (corpus / "config.ini").open("w", encoding="utf-8") as handle:
        config.write(handle)

    income = params.income_mode.value
    expected, expected_warnings = expected_outputs(
        corpus, table=table, scheme="".join(params.scheme_letters),
        ages="years" if params.age_encoding is AgeEncoding.YEARS else "classes",
        genders=("male1_female2" if params.gender_encoding is GenderEncoding.MALE1_FEMALE2
                 else "male0_female1"),
        income=income, scales=[kind.value for kind in ScaleKind if kind not in off],
        dmp_c=params.dmp_c, dmp_s=params.dmp_s, scaled_by=params.scaled_by.value,
        sort=layout == "shuffled")
    # the generator's households, with the cells of the scales turned off empty
    blank = {HEADER.index(f"scale_{kind.value}") for kind in off}
    truth = [tuple(None if i in blank else cell for i, cell in enumerate(row))
             for row in truth]

    for command, selects in SELECTED.items():
        if command == "recode-income" and income != "letters":
            continue
        out = tmp_path_factory.mktemp(command)
        capsys.readouterr()
        assert main([command, "--config", str(corpus / "config.ini"), "--out-dir", str(out),
                     *(["--sort"] if layout == "shuffled" else [])]) == 0, command
        stdout = capsys.readouterr().out
        got = written(out)
        assert_same_files(got, {name: rows for name, rows in expected.items()
                                if selects(name)}, (command,))
        if command == "run":
            assert len(got["households.csv"]) == len(truth) + 1
            for cells, row in zip(got["households.csv"][1:], truth):
                width = len(row) - (row[0] == two_chiefs)
                assert all(map(same_cell, cells[:width], row[:width])), (cells, row)
            warnings = re.findall(r"^warning: (?:.*?: )?([A-Z_]+): ", stdout, re.M)
            assert Counter(warnings) == expected_warnings
