"""Drawn input faults, run in process through `cli.main`.

One fault is drawn, with its position, into a small synth corpus written
as column files or as a table: a line cut or added, a CRLF/LF mix, a lone
carriage return inside a token, a BOM or a NUL inside the file, a blank or
whitespace-only token, a household block repeated later, or undecodable
bytes. A processing command then runs into an output directory that holds
a previous clean run's outputs. Each case exits 0, or exits 1 or 2 with
one coded `error:` line, which names a location on exit 1; a failed case
changes no file of the output directory and leaves no staging directory.
"""

import os
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from hdbprep.cli import _synth_config, main
from hdbprep.errors import CODES
from hdbprep.model import AgeEncoding, GenderEncoding, IncomeMode
from hdbprep.pipeline import _write_staged
from hdbprep.synth import SynthParams, generate, write_column_files, write_table

STALE_NS = 1_000_000_000_000_000_000

#: The CLI's error line: "error: [stage] CODE (location): message", the
#: stage and the location optional.
ERROR_LINE = re.compile(r"error: (?:\[[a-z]+\] )?([A-Z0-9_]+)( \(.+?\))?: ")

FAULTS = ("cut line", "added line", "crlf", "lone cr", "bom", "nul", "blank token",
          "whitespace token", "repeated household", "undecodable")


@st.composite
def corpora(draw):
    """Small generator settings, with at least two households."""
    regions = draw(st.integers(1, 2))
    return SynthParams(
        n_households=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        n_regions=regions,
        max_milieux=2,
        max_clusters=2,
        max_households_per_cluster=3,
        max_household_size=draw(st.integers(1, 4)),
        age_encoding=draw(st.sampled_from(AgeEncoding)),
        gender_encoding=draw(st.sampled_from(GenderEncoding)),
        income_mode=draw(st.sampled_from(IncomeMode)),
        anomalies=draw(st.booleans()),
    )


def write_corpus(directory, params, layout):
    """The generated persons as column files or as persons.csv, with the
    config synth writes (in table mode for the table); returns the
    config's path and the data files' paths."""
    result = generate(params)
    config = _synth_config(params)
    if layout == "table":
        paths = [write_table(result, directory / "persons.csv")]
        config["input"].update(mode="table", table="persons.csv")
    else:
        paths = write_column_files(result, directory)
    return _write_staged(directory, [("config.ini", config.write)])[0], paths


def inject(draw, paths, layout, kind):
    """Put one fault of ``kind`` into the data files, at a drawn position."""
    header = layout == "table"
    contents = {path: path.read_bytes().split(b"\n") for path in paths}  # last item b""
    lines = contents[draw(st.sampled_from(paths))]
    i = draw(st.integers(0, len(lines) - 2))
    if kind == "cut line":
        del lines[i]
    elif kind == "added line":
        lines.insert(i, lines[draw(st.integers(0, len(lines) - 2))])
    elif kind == "crlf":  # one line in CRLF among LF lines, or the other way round
        lone = draw(st.booleans())
        for j in range(len(lines) - 1):
            if (j == i) == lone:
                lines[j] += b"\r"
    elif kind in ("lone cr", "bom", "nul", "undecodable"):
        mark = {"lone cr": b"\r", "bom": b"\xef\xbb\xbf", "nul": b"\0",
                "undecodable": draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))}[kind]
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + mark + lines[i][at:]
    elif kind in ("blank token", "whitespace token"):
        cells = lines[i].split(b",")
        token = b"" if kind == "blank token" else draw(st.sampled_from([b" ", b"\t", b"  "]))
        cells[draw(st.integers(0, len(cells) - 1))] = token
        lines[i] = b",".join(cells)
    else:  # a household's lines copied in after a later household's, in every file
        rows = list(zip(*(path.read_bytes().split(b"\n")[:-1] for path in paths[:4])))
        keys = [tuple(row[0].split(b",")[:4]) if header else row for row in rows]
        starts = [j for j in range(header, len(keys))
                  if j == header or keys[j] != keys[j - 1]] + [len(keys)]
        n = draw(st.integers(0, len(starts) - 3))
        later = starts[draw(st.integers(n + 2, len(starts) - 1))]
        for file_lines in contents.values():
            file_lines[later:later] = file_lines[starts[n]:starts[n + 1]]
    for path, file_lines in contents.items():
        path.write_bytes(b"\n".join(file_lines))


def files(out):
    return {path.name: (path.is_dir() or path.read_bytes(), path.stat().st_mtime_ns)
            for path in out.iterdir()}


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(corpora(), st.sampled_from(["columns", "table"]), st.sampled_from(FAULTS),
       st.sampled_from(["identify", "recode-income", "aggregate", "run"]), st.booleans(),
       st.data())
def test_a_fault_is_one_coded_error_and_changes_no_output(
        tmp_path_factory, capsys, params, layout, kind, command, sort, data):
    directory = tmp_path_factory.mktemp("faults")
    config, paths = write_corpus(directory, params, layout)
    out = directory / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    for path in out.iterdir():
        os.utime(path, ns=(STALE_NS, STALE_NS))
    before = files(out)
    inject(data.draw, paths, layout, kind)
    capsys.readouterr()

    code = main([command, "--config", str(config), "--out-dir", str(out),
                 *(["--sort"] if sort and layout == "table" else [])])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        return
    assert code in (1, 2)
    assert err.endswith("\n") and err.count("\n") == 1, err
    match = ERROR_LINE.match(err)
    assert match, err
    assert CODES[match[1]][0] == code, err
    if code == 1:
        assert match[2], err
    assert files(out) == before
