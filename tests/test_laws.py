"""Laws of the one pass over drawn corpora, run in process.

Concatenation: on two column corpora whose household keys cannot meet,
every output of the corpora read one after the other is the first
corpus's output followed by the second's, and the counts add up.

Error shift: a clean corpus put before a corpus with one fault moves the
fault's reported line by the clean corpus's person count, and changes
nothing else on stderr.

Selection: a command that selects some outputs writes each as `run`
writes it, and each per-variable household file is its households.csv
column.

Order: under --sort, shuffling a table's persons changes no household
file.

Layout: the same persons as column files and as a table, under any
delimiter the synth writer takes, give the same exit code, counts and
output bytes.

Edits: CRLF line ends, a leading BOM and padding around tokens, drawn
over a corpus in either layout, change no exit code, count, message or
output byte.
"""

import csv
import dataclasses
import random
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from hdbprep.cli import _synth_config, main
from hdbprep.model import AgeEncoding, GenderEncoding, IncomeMode, ScaleKind
from hdbprep.pipeline import _write_staged
from hdbprep.synth import (SynthParams, SynthResult, generate, write_column_files,
                           write_table)

LAW_SETTINGS = settings(max_examples=25, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def frames(draw, income_mode=None, anomalies=None):
    """Small generator settings; a DMP parameter c above 0, so that no
    household's scale divides its income by 0."""
    regions = draw(st.integers(1, 3))
    milieux, clusters, per_cluster = (draw(st.integers(1, 3)) for _ in range(3))
    capacity = regions * milieux * clusters * per_cluster
    return SynthParams(
        n_households=draw(st.integers(regions, min(capacity, 12))),
        seed=draw(st.integers(0, 2**32 - 1)),
        n_regions=regions,
        max_milieux=milieux,
        max_clusters=clusters,
        max_households_per_cluster=per_cluster,
        max_household_size=draw(st.integers(1, 8)),
        age_encoding=draw(st.sampled_from(AgeEncoding)),
        gender_encoding=draw(st.sampled_from(GenderEncoding)),
        income_mode=income_mode or draw(st.sampled_from(IncomeMode)),
        renumber_households=draw(st.booleans()),
        anomalies=draw(st.booleans()) if anomalies is None else anomalies,
        scheme_letters=tuple(draw(st.permutations("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))[:4]),
        dmp_c=draw(st.integers(1, 100)) / 100,
        dmp_s=draw(st.integers(0, 100)) / 100,
        scaled_by=draw(st.sampled_from(ScaleKind)),
    )


def later_regions(persons, offset):
    """The persons with each region number raised by ``offset``, so that
    none of their household keys is one of a corpus of ``offset`` regions."""
    return [person._replace(region=re.sub(r"\d+", lambda m: str(int(m[0]) + offset),
                                          person.region, count=1))
            for person in persons]


def write_corpus(directory, params, persons):
    directory.mkdir()
    write_column_files(SynthResult(params, tuple(persons), ()), directory)
    return write_config(directory, params)


def write_table_corpus(directory, params, persons, delimiter=","):
    """The persons as one persons.csv, with the config synth writes set to
    read it; returns the config's path."""
    directory.mkdir()
    write_table(SynthResult(params, tuple(persons), ()), directory / "persons.csv", delimiter)
    config = write_config(directory, params)
    spelt = "tab" if delimiter == "\t" else delimiter
    config.write_text(config.read_text().replace(
        "mode = columns", f"mode = table\ntable = persons.csv\ndelimiter = {spelt}"))
    return config


def write_config(directory, params):
    """The config.ini that synth writes for ``params``, written as synth
    writes it."""
    return _write_staged(directory, [("config.ini", _synth_config(params).write)])[0]


def run(capsys, config, out_dir, command="run", *flags):
    """(exit code, stdout, stderr) of `hdbprep COMMAND` on ``config``."""
    capsys.readouterr()
    code = main([command, "--config", str(config), "--out-dir", str(out_dir), *flags])
    return (code, *capsys.readouterr())


def output_files(out_dir):
    """{file name: bytes} of every file a run wrote."""
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def counts(stdout):
    return [int(n) for n in re.findall(r"^(?:persons read|households): (\d+)$", stdout, re.M)]


@LAW_SETTINGS
@given(frames(), st.integers(0, 2**32 - 1))
def test_concatenated_corpora_give_concatenated_outputs(tmp_path_factory, capsys, params,
                                                        seed_b):
    work = tmp_path_factory.mktemp("concatenation")
    first = list(generate(params).persons)
    second = later_regions(generate(dataclasses.replace(params, seed=seed_b)).persons,
                           params.n_regions)
    results = {}
    for name, persons in (("a", first), ("b", second), ("ab", first + second)):
        code, stdout, stderr = run(capsys, write_corpus(work / name, params, persons),
                                   work / f"out-{name}")
        assert (code, stderr) == (0, "")
        results[name] = counts(stdout), {
            path.name: path.read_text(encoding="utf-8").splitlines()
            for path in (work / f"out-{name}").iterdir()}
    (counts_a, files_a), (counts_b, files_b), (counts_ab, files_ab) = results.values()
    assert counts_ab == [a + b for a, b in zip(counts_a, counts_b)]
    assert set(files_ab) == set(files_a) == set(files_b)
    for name, lines in files_ab.items():
        header = 1 if name == "households.csv" else 0
        assert lines == files_a[name] + files_b[name][header:], name


def bad_age(person, scheme_letters):
    return person._replace(age_raw="x")


def unknown_letter(person, scheme_letters):
    return person._replace(income_raw="Z")


def prefix_letter(person, scheme_letters):
    return person._replace(region=person.region + scheme_letters[0])


@LAW_SETTINGS
@given(frames(income_mode=IncomeMode.LETTERS), st.integers(0, 2**32 - 1),
       st.sampled_from([bad_age, unknown_letter, prefix_letter]), st.data())
def test_a_clean_corpus_before_a_fault_shifts_its_line(tmp_path_factory, capsys, params,
                                                       seed_b, fault, data):
    work = tmp_path_factory.mktemp("shift")
    clean = list(generate(params).persons)
    faulty = later_regions(generate(dataclasses.replace(params, seed=seed_b)).persons,
                           params.n_regions)
    index = data.draw(st.integers(0, len(faulty) - 1), label="fault index")
    faulty[index] = fault(faulty[index], params.scheme_letters)
    code, stdout, stderr = run(capsys, write_corpus(work / "f", params, faulty),
                               work / "out-f")
    assert code == 1 and f"(line {index + 1}): " in stderr, stderr
    shifted = run(capsys, write_corpus(work / "af", params, clean + faulty), work / "out-af")
    assert shifted == (code, stdout, stderr.replace(f"(line {index + 1}): ",
                                                    f"(line {index + 1 + len(clean)}): "))


#: Each per-variable household file's --only name and households.csv column.
HOUSEHOLD_FILES = {
    "scaleoxford.txt": ("oxford", "scale_oxford"),
    "scalefaofam.txt": ("faofam", "scale_faofam"),
    "scaleDMP": ("dmp", "scale_dmp"),
    "sizehousehold.txt": ("size", "size"),
    "totalincome.txt": ("income", "total_income"),
    "labelregion.txt": ("area", "label_area"),
    "labelgender.txt": ("chief", "label_chief_gender"),
}


@LAW_SETTINGS
@given(frames(), st.data())
def test_a_selected_output_is_the_one_run_writes(tmp_path_factory, capsys, params, data):
    work = tmp_path_factory.mktemp("selection")
    config = write_corpus(work / "corpus", params, generate(params).persons)
    assert run(capsys, config, work / "run")[::2] == (0, "")
    files = output_files(work / "run")
    header, *rows = csv.reader(files["households.csv"].decode().splitlines())
    household_files = {name: HOUSEHOLD_FILES[name.partition("-")[0]] for name in files
                       if name.partition("-")[0] in HOUSEHOLD_FILES}
    assert len(household_files) == 6 + (params.income_mode is not IncomeMode.NONE)
    for name, (_, column) in household_files.items():
        cells = [row[header.index(column)] for row in rows]
        assert files[name].decode().splitlines() == cells, name
    selections = [("identify", "identhousehold.txt")]
    if params.income_mode is IncomeMode.LETTERS:
        selections.append(("recode-income", "monthlyincome.txt"))
    name = data.draw(st.sampled_from(sorted(household_files)), label="household file")
    selections.append(("aggregate", name, "--only", household_files[name][0]))
    for command, name, *flags in selections:
        assert run(capsys, config, work / command, command, *flags)[::2] == (0, "")
        assert output_files(work / command) == {name: files[name]}, command


@LAW_SETTINGS
@given(frames(anomalies=False), st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
def test_shuffled_persons_give_the_same_household_files(tmp_path_factory, capsys, params,
                                                       seeds):
    # a household with two chiefs (an anomaly) takes the last one's label
    # in line order, which a shuffle may change
    work = tmp_path_factory.mktemp("order")
    result = generate(params)
    outputs = []
    for i, seed in enumerate(seeds):
        persons = list(result.persons)
        random.Random(seed).shuffle(persons)
        corpus = work / f"corpus-{i}"
        corpus.mkdir()
        write_table(dataclasses.replace(result, persons=tuple(persons)), corpus / "t.csv")
        config = write_config(corpus, params)
        config.write_text(config.read_text().replace("mode = columns",
                                                     "mode = table\ntable = t.csv"))
        code, stdout, stderr = run(capsys, config, work / f"out-{i}", "run", "--sort")
        assert (code, stderr) == (0, "")
        outputs.append((counts(stdout), {
            name: data for name, data in output_files(work / f"out-{i}").items()
            if name not in ("identhousehold.txt", "monthlyincome.txt")}))
    assert outputs[0] == outputs[1]


@LAW_SETTINGS
@given(frames(), st.sampled_from([",", ";", "|", "\t"]),
       st.sampled_from([None, bad_age, prefix_letter]), st.data())
def test_columns_and_a_table_give_the_same_outputs(tmp_path_factory, capsys, params, delimiter,
                                                   fault, data):
    # messages are not compared: the table's header line shifts every line
    work = tmp_path_factory.mktemp("layout")
    persons = list(generate(params).persons)
    if fault is not None:
        index = data.draw(st.integers(0, len(persons) - 1), label="fault index")
        persons[index] = fault(persons[index], params.scheme_letters)
    configs = {"columns": write_corpus(work / "columns", params, persons),
               "table": write_table_corpus(work / "table", params, persons, delimiter)}
    results = []
    for layout, config in configs.items():
        out = work / f"out-{layout}"
        code, stdout, _ = run(capsys, config, out)
        results.append((code, counts(stdout), out.exists() and output_files(out)))
    assert results[0] == results[1]
    assert results[0][0] == (0 if fault is None else 1)


def edit(path, rng):
    """Rewrite a data file with drawn CRLF line ends, a drawn leading BOM
    and drawn padding around each comma-separated token."""
    pads = ["", "", " ", "\t", "  "]
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[:-1] = [",".join(rng.choice(pads) + token + rng.choice(pads)
                           for token in line.split(",")) + "\r" * rng.randrange(2)
                  for line in lines[:-1]]
    path.write_text("\ufeff" * rng.randrange(2) + "\n".join(lines), encoding="utf-8")


@LAW_SETTINGS
@given(frames(), st.sampled_from(["columns", "table"]), st.integers(0, 2**32 - 1))
def test_crlf_a_bom_and_padding_change_nothing(tmp_path_factory, capsys, params, layout, seed):
    work = tmp_path_factory.mktemp("edits")
    persons = generate(params).persons
    if layout == "columns":
        config = write_corpus(work / "corpus", params, persons)
    else:
        config = write_table_corpus(work / "corpus", params, persons)

    def outcome(out):
        code, stdout, stderr = run(capsys, config, out)
        return code, counts(stdout), stderr, output_files(out)

    plain = outcome(work / "out-plain")
    rng = random.Random(seed)
    for path in sorted(config.parent.iterdir()):
        if path != config:
            edit(path, rng)
    assert plain[0] == 0
    assert outcome(work / "out-edited") == plain
